//! The preemption executor: Chimera's one mechanism (§3, Algorithm 1), shared
//! by every runner.
//!
//! When a kernel needs SMs, the [`Preemptor`] orders the candidates, chooses
//! switch, drain or flush per block under the configured [`Policy`], and
//! tracks the SMs until they are free. Its two callers, the periodic runner
//! and [`GpuScheduler`](crate::GpuScheduler) (which also runs the
//! multiprogrammed pairs and serving), each keep only their own rule for
//! *who* needs SMs (reservations, ownership moves) and hand the *how* to
//! one `Preemptor`, so decision recording, estimator-update logging, the
//! live drain-accuracy join and the in-flight ledger behave identically
//! across all of them.

use crate::cost::{EstimatorConfig, EstimatorMode, ObsBank};
use crate::obs::{DrainSample, DrainTracker};
use crate::policy::Policy;
use crate::runner::periodic_name;
use crate::select::{select_preemptions, SelectionRequest};
use gpu_sim::{Engine, Event, KernelId, SmPreemptPlan, Technique};
use std::collections::BTreeMap;

/// Why an SM sits in the in-flight ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum InFlight {
    /// An engine-level preemption is draining or saving the SM's blocks.
    Preempting,
    /// The flush policy is waiting for every resident block to be safe to
    /// flush; polled by [`Preemptor::poll_flush_waits`].
    FlushWait,
}

/// What became of an SM the executor took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Taken {
    /// The SM is free now: it was idle, or its preemption completed
    /// instantly (or found nothing left to preempt).
    Vacated,
    /// The SM is in the ledger until a `PreemptionCompleted` event or a
    /// successful flush-wait poll hands it over.
    Pending,
}

/// One preemption executor: candidate order, policy dispatch, decision
/// recording, the per-kernel observation bank and the in-flight ledger.
#[derive(Debug)]
pub(crate) struct Preemptor {
    policy: Policy,
    obs: ObsBank,
    drains: DrainTracker,
    /// SM → (state, caller tag). Ordered: flush-wait polling mutates the
    /// engine while iterating, so a `HashMap` would leak the OS-randomized
    /// hash seed into the simulation.
    ledger: BTreeMap<usize, (InFlight, usize)>,
}

impl Preemptor {
    pub(crate) fn new(policy: Policy, estimator: EstimatorConfig) -> Self {
        Preemptor {
            policy,
            obs: ObsBank::with_estimator(estimator),
            drains: DrainTracker::new(),
            ledger: BTreeMap::new(),
        }
    }

    pub(crate) fn estimator(&self) -> EstimatorConfig {
        self.obs.estimator()
    }

    #[cfg(test)]
    pub(crate) fn obs(&self) -> &ObsBank {
        &self.obs
    }

    /// Drained blocks joined with their completions so far.
    pub(crate) fn drain_samples(&self) -> &[DrainSample] {
        self.drains.samples()
    }

    pub(crate) fn into_drain_samples(self) -> Vec<DrainSample> {
        self.drains.into_samples()
    }

    /// The ledger entry for `sm`, if a preemption or flush wait is open.
    pub(crate) fn in_flight(&self, sm: usize) -> Option<(InFlight, usize)> {
        self.ledger.get(&sm).copied()
    }

    /// Whether any SM waits for a flushable moment (callers poll faster).
    pub(crate) fn flush_waiting(&self) -> bool {
        self.ledger.values().any(|&(f, _)| f == InFlight::FlushWait)
    }

    /// Candidate SMs among those `eligible` by the caller's rule: not in
    /// the ledger and not mid-preemption, idle SMs first (size-bound
    /// kernels leave SMs empty, §4.1), then fewest resident blocks, then SM
    /// index.
    pub(crate) fn candidates(
        &self,
        engine: &Engine,
        eligible: impl Fn(usize) -> bool,
    ) -> Vec<usize> {
        let mut cands: Vec<usize> = (0..engine.config().num_sms)
            .filter(|&sm| {
                eligible(sm) && !self.ledger.contains_key(&sm) && !engine.sm_is_preempting(sm)
            })
            .collect();
        cands.sort_by_key(|&sm| (engine.sm_resident_count(sm), sm));
        cands
    }

    /// Take up to `n` SMs from `cands` (in order): idle ones for free, then
    /// occupied ones through the policy. `victim` is the kernel being
    /// evicted (Chimera takes no occupied SM without one); `flush_allowed`
    /// is `false` under the strict idempotence condition for a
    /// non-idempotent kernel (§4.3), in which case Flush takes no occupied
    /// SM. Pending SMs enter the ledger under `tag`. `on_taken` runs for
    /// every SM taken, right after its engine-side preemption and before the
    /// next one: callers that touch the engine there (the periodic runner
    /// hands the SM to its task) keep one fixed order of engine operations.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn preempt(
        &mut self,
        engine: &mut Engine,
        cands: &[usize],
        n: usize,
        victim: Option<KernelId>,
        flush_allowed: bool,
        tag: usize,
        mut on_taken: impl FnMut(&mut Engine, usize, Taken),
    ) {
        let mut remaining = n;
        let mut occupied = Vec::new();
        for &sm in cands {
            if remaining == 0 {
                break;
            }
            if engine.sm_resident_count(sm) == 0 {
                on_taken(engine, sm, Taken::Vacated);
                remaining -= 1;
            } else {
                occupied.push(sm);
            }
        }
        if remaining == 0 || occupied.is_empty() {
            return;
        }
        match self.policy {
            Policy::Switch | Policy::Drain | Policy::Oracle => {
                let tech = if self.policy == Policy::Drain {
                    Technique::Drain
                } else {
                    Technique::Switch
                };
                for &sm in occupied.iter().take(remaining) {
                    let plan = SmPreemptPlan::uniform(engine.sm_resident_indices(sm), tech);
                    let taken = self.execute(engine, sm, &plan, tag);
                    on_taken(engine, sm, taken);
                }
            }
            Policy::Flush => {
                if !flush_allowed {
                    // The SMs can never be reset: the request is doomed and
                    // nothing will ever hand them over.
                    return;
                }
                for &sm in occupied.iter().take(remaining) {
                    let taken = if try_flush(engine, sm) {
                        Taken::Vacated
                    } else {
                        self.ledger.insert(sm, (InFlight::FlushWait, tag));
                        Taken::Pending
                    };
                    on_taken(engine, sm, taken);
                }
            }
            Policy::Chimera { limit_us } => {
                let Some(kid) = victim else { return };
                let limit = engine.config().us_to_cycles(limit_us);
                let plans = {
                    let desc = engine.kernel_desc(kid);
                    let req = SelectionRequest {
                        limit_cycles: limit,
                        num_preempts: remaining,
                        ctx_bytes_per_tb: desc.block_context_bytes(),
                        obs: self.obs.obs(periodic_name(desc.name())),
                        flush_allowed,
                        estimator: self.obs.estimator(),
                    };
                    let snaps: Vec<_> = occupied.iter().map(|&sm| engine.sm_snapshot(sm)).collect();
                    select_preemptions(engine.config(), &req, &snaps)
                };
                let now = engine.cycle();
                for plan in plans {
                    // Feed the Algorithm 1 decision (inputs + choice) to the
                    // event log before executing it, and register drain
                    // decisions with the live estimator-accuracy join.
                    for d in &plan.decisions {
                        engine.record_decision(plan.sm, kid, limit, *d);
                        if d.chosen == Technique::Drain {
                            if let Some(est) = d.est_drain {
                                self.drains.note_decision(
                                    plan.sm,
                                    kid.0,
                                    d.block,
                                    now,
                                    est.latency_cycles,
                                );
                            }
                        }
                    }
                    let taken = self.execute(engine, plan.sm, &plan.plan, tag);
                    on_taken(engine, plan.sm, taken);
                }
            }
        }
    }

    /// Start one engine-level preemption. `Ok(true)` (instant) and `Err`
    /// (nothing left to preempt) both vacate the SM; `Ok(false)` leaves it
    /// in the ledger until `PreemptionCompleted`.
    fn execute(
        &mut self,
        engine: &mut Engine,
        sm: usize,
        plan: &SmPreemptPlan,
        tag: usize,
    ) -> Taken {
        match engine.preempt_sm(sm, plan) {
            Ok(true) | Err(_) => Taken::Vacated,
            Ok(false) => {
                self.ledger.insert(sm, (InFlight::Preempting, tag));
                Taken::Pending
            }
        }
    }

    /// Feed one engine event: block completions update the per-kernel
    /// observations and the drain join; a completed preemption of a ledger
    /// SM returns `(sm, tag)`, now vacated.
    ///
    /// With the online estimator, a completion also surfaces the kernel's
    /// live estimator state to the event log at the moment its quantile
    /// becomes trusted (`min_samples`) and every 256 completions after.
    pub(crate) fn on_event(&mut self, engine: &mut Engine, ev: &Event) -> Option<(usize, usize)> {
        match *ev {
            Event::TbCompleted {
                kernel,
                sm,
                block,
                insts,
                cycles,
                cycle,
            } => {
                let name = periodic_name(&engine.kernel_stats(kernel).name);
                self.obs.record_tb(name, insts, cycles);
                self.drains
                    .note_completion(name, sm, kernel.0, block, cycle);
                let est = self.obs.estimator();
                if est.mode == EstimatorMode::Online {
                    let n = self.obs.samples(name);
                    if n == est.min_samples || n.is_multiple_of(256) {
                        let o = self.obs.obs(name);
                        engine.record_estimator_update(
                            kernel,
                            n,
                            o.avg_tb_insts.unwrap_or(0.0).round() as u64,
                            o.quantile_tb_insts.unwrap_or(0.0).round() as u64,
                            est.risk_pct(),
                        );
                    }
                }
                None
            }
            Event::PreemptionCompleted { sm, .. } => match self.ledger.get(&sm) {
                Some(&(InFlight::Preempting, tag)) => {
                    self.ledger.remove(&sm);
                    Some((sm, tag))
                }
                _ => None,
            },
            _ => None,
        }
    }

    /// Retry every flush wait in ascending SM order; `on_vacated(engine,
    /// sm, tag)` runs for each SM flushed, before the next one is tried.
    pub(crate) fn poll_flush_waits(
        &mut self,
        engine: &mut Engine,
        mut on_vacated: impl FnMut(&mut Engine, usize, usize),
    ) {
        let waiting: Vec<(usize, usize)> = self
            .ledger
            .iter()
            .filter(|(_, &(f, _))| f == InFlight::FlushWait)
            .map(|(&sm, &(_, tag))| (sm, tag))
            .collect();
        for (sm, tag) in waiting {
            if try_flush(engine, sm) {
                self.ledger.remove(&sm);
                on_vacated(engine, sm, tag);
            }
        }
    }
}

/// Flush an SM if every resident block is currently flushable; returns
/// whether the SM was vacated (an empty SM counts as an instant win).
fn try_flush(engine: &mut Engine, sm: usize) -> bool {
    if engine.sm_is_preempting(sm) {
        return false;
    }
    let snap = engine.sm_snapshot(sm);
    if snap.blocks.is_empty() {
        engine.assign_sm(sm, None);
        return true;
    }
    if snap.blocks.iter().any(|b| b.past_idem_point) {
        return false;
    }
    let plan = SmPreemptPlan::uniform(snap.blocks.iter().map(|b| b.index), Technique::Flush);
    matches!(engine.preempt_sm(sm, &plan), Ok(true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{GpuConfig, KernelDesc, ObsEvent, Program, Segment};

    const SMS: usize = 4;

    /// A 4-SM engine running `program` on every SM for `cycles`.
    fn busy_engine(program: Vec<Segment>, grid: u32, cycles: u64, log: bool) -> (Engine, KernelId) {
        let cfg = GpuConfig {
            num_sms: SMS,
            ..GpuConfig::fermi()
        };
        let mut e = Engine::with_seed(cfg, 7);
        if log {
            e.enable_event_log(1 << 16);
        }
        let k = e.launch_kernel(
            KernelDesc::builder("victim")
                .grid_blocks(grid)
                .threads_per_block(128)
                .regs_per_thread(16)
                .program(Program::new(program))
                .build()
                .expect("valid kernel"),
        );
        for sm in 0..SMS {
            e.assign_sm(sm, Some(k));
        }
        e.run_until(cycles);
        (e, k)
    }

    #[test]
    fn scheduler_style_call_logs_every_executed_chimera_decision() {
        let (mut e, k) = busy_engine(
            vec![Segment::load(4), Segment::compute(4_000), Segment::store(4)],
            256,
            20_000,
            true,
        );
        let resident: Vec<usize> = (0..SMS).map(|sm| e.sm_resident_count(sm)).collect();
        assert!(
            resident.iter().all(|&r| r > 0),
            "every SM busy: {resident:?}"
        );
        let mut pre = Preemptor::new(Policy::chimera_us(30.0), EstimatorConfig::default());
        // The kernel scheduler's call: every SM of the source process,
        // flush allowed, tagged with the source process.
        let cands = pre.candidates(&e, |_| true);
        let mut taken = Vec::new();
        pre.preempt(&mut e, &cands, 2, Some(k), true, 0, |_, sm, _| {
            taken.push(sm)
        });
        assert_eq!(taken.len(), 2);
        let log = e.event_log().expect("log enabled");
        let decided: Vec<usize> = log
            .iter()
            .filter_map(|ev| match *ev {
                ObsEvent::Decision { sm, kernel, .. } => {
                    assert_eq!(kernel, k);
                    Some(sm)
                }
                _ => None,
            })
            .collect();
        let want: usize = taken.iter().map(|&sm| resident[sm]).sum();
        assert_eq!(decided.len(), want, "one decision per preempted block");
        assert!(decided.iter().all(|sm| taken.contains(sm)));
    }

    #[test]
    fn flush_waits_vacate_in_ascending_sm_order() {
        // An atomic first segment puts every block past its idempotence
        // point at once, so no SM is flushable until its blocks finish.
        let (mut e, k) = busy_engine(
            vec![Segment::atomic(1), Segment::compute(2_000)],
            32,
            5_000,
            false,
        );
        for sm in 0..SMS {
            let snap = e.sm_snapshot(sm);
            assert!(
                !snap.blocks.is_empty() && snap.blocks.iter().all(|b| b.past_idem_point),
                "{snap:?}"
            );
        }
        let mut pre = Preemptor::new(Policy::Flush, EstimatorConfig::default());
        let cands = pre.candidates(&e, |_| true);
        let mut pending = Vec::new();
        pre.preempt(&mut e, &cands, SMS, Some(k), true, 9, |_, sm, taken| {
            assert_eq!(taken, Taken::Pending);
            pending.push(sm);
        });
        assert_eq!(pending.len(), SMS);
        assert!(pre.flush_waiting());
        for sm in 0..SMS {
            assert_eq!(pre.in_flight(sm), Some((InFlight::FlushWait, 9)));
            e.assign_sm(sm, None);
        }
        e.run_until(1_000_000);
        let mut vacated = Vec::new();
        pre.poll_flush_waits(&mut e, |_, sm, tag| {
            assert_eq!(tag, 9);
            vacated.push(sm);
        });
        assert_eq!(vacated, (0..SMS).collect::<Vec<_>>());
        assert!(!pre.flush_waiting());
    }

    #[test]
    fn disallowed_flush_takes_no_sm_and_leaves_the_ledger_empty() {
        let (mut e, k) = busy_engine(vec![Segment::compute(4_000)], 256, 5_000, false);
        let mut pre = Preemptor::new(Policy::Flush, EstimatorConfig::default());
        let cands = pre.candidates(&e, |_| true);
        assert_eq!(cands.len(), SMS);
        pre.preempt(&mut e, &cands, 2, Some(k), false, 0, |_, sm, _| {
            panic!("SM {sm} taken although flushing is not allowed")
        });
        assert!((0..SMS).all(|sm| pre.in_flight(sm).is_none()));
        assert!(e.preempt_records().is_empty());
    }
}
