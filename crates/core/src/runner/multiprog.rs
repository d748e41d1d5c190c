//! Pairwise multiprogrammed workloads with spatial partitioning (§4.4), plus
//! the non-preemptive FCFS baseline.
//!
//! Two benchmarks share the GPU. The SM partitioning policy is the paper's
//! Smart-Even/Rounds mix: SMs are split evenly except when a kernel is
//! *size-bound* (its remaining blocks cannot fill its share). Every kernel
//! launch/finish changes demand and triggers a repartition, which generates
//! preemption requests served by the configured policy — LUD's launch churn
//! is what makes these workloads preemption-heavy.

use crate::cost::EstimatorConfig;
use crate::partition::{demand, PartitionPolicy};
use crate::policy::Policy;
use crate::preemptor::{InFlight, Preemptor};
use crate::runner::{Job, RunCommon};
use gpu_sim::{Engine, Event, GpuConfig};
use workloads::Benchmark;

/// Configuration of a multiprogrammed run.
///
/// Shared runner knobs (seed, horizon, constraint, estimator, sanitizer)
/// live in [`common`](MultiprogConfig::common); the builder-style setters
/// below forward to it. The constraint is 30 µs in §4.4 — the maximum
/// possible context-switch latency of the configuration.
#[derive(Debug, Clone)]
pub struct MultiprogConfig {
    /// Knobs shared with every other runner. (`common.sanitize` is accepted
    /// for uniformity but multiprog runs do not flush-sanitize today.)
    pub common: RunCommon,
    /// Measurement budget per benchmark, useful warp instructions
    /// (the paper's 1-billion-instruction cap, scaled).
    pub budget_insts: u64,
    /// SM partitioning policy (the paper's evaluation uses
    /// [`PartitionPolicy::SmartEven`]).
    pub partition: PartitionPolicy,
}

impl MultiprogConfig {
    /// Defaults scaled for laptop runs.
    pub fn paper_default() -> Self {
        MultiprogConfig {
            common: RunCommon::new(400_000.0, 30.0),
            budget_insts: 3_000_000,
            partition: PartitionPolicy::SmartEven,
        }
    }

    /// Replace the shared runner knobs wholesale.
    pub fn common(mut self, common: RunCommon) -> Self {
        self.common = common;
        self
    }

    /// Set the determinism seed (forwards to [`RunCommon::seed`]).
    pub fn seed(mut self, seed: u64) -> Self {
        self.common.seed = seed;
        self
    }

    /// Set the failsafe horizon, µs (forwards to [`RunCommon::horizon_us`]).
    pub fn horizon_us(mut self, horizon_us: f64) -> Self {
        self.common.horizon_us = horizon_us;
        self
    }

    /// Set Chimera's latency constraint, µs (forwards to
    /// [`RunCommon::constraint_us`]).
    pub fn constraint_us(mut self, constraint_us: f64) -> Self {
        self.common.constraint_us = constraint_us;
        self
    }

    /// Set the estimator configuration (forwards to
    /// [`RunCommon::estimator`]).
    pub fn estimator(mut self, estimator: EstimatorConfig) -> Self {
        self.common.estimator = estimator;
        self
    }

    /// Set the per-benchmark measurement budget, useful warp instructions.
    pub fn budget_insts(mut self, budget: u64) -> Self {
        self.budget_insts = budget;
        self
    }

    /// Set the SM partitioning policy.
    pub fn partition(mut self, partition: PartitionPolicy) -> Self {
        self.partition = partition;
        self
    }
}

/// Outcome for one job of a pair run.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Benchmark name.
    pub name: String,
    /// Cycles to reach the measurement target under contention.
    pub t_multi: Option<u64>,
    /// Useful instructions at measurement.
    pub insts: u64,
}

/// Outcome of a pair run.
#[derive(Debug, Clone)]
pub struct PairOutcome {
    /// Per-job outcomes, in input order.
    pub jobs: [JobOutcome; 2],
    /// Number of SM preemptions performed.
    pub preemptions: usize,
}

/// Run two benchmarks concurrently under `policy`.
pub fn run_pair(
    cfg: &GpuConfig,
    a: &Benchmark,
    b: &Benchmark,
    policy: Policy,
    mcfg: &MultiprogConfig,
) -> PairOutcome {
    let mut engine = Engine::with_seed(cfg.clone(), mcfg.common.seed);
    engine.set_exec_mode(mcfg.common.exec_mode());
    engine.set_break_on_kernel_finish(true);
    if mcfg.common.race_check {
        engine.enable_race_sanitizer();
    }
    if policy.is_oracle() {
        engine.set_free_context_moves(true);
    }
    let mut jobs = [
        Job::new(a.clone(), Some(mcfg.budget_insts)),
        Job::new(b.clone(), Some(mcfg.budget_insts)),
    ];
    // Flush waits are tagged with the job whose kernel keeps the SM busy.
    let mut pre = Preemptor::new(policy, mcfg.common.estimator);
    // Initial even ownership.
    let half = cfg.num_sms / 2;
    let mut owner: Vec<usize> = (0..cfg.num_sms).map(|sm| usize::from(sm >= half)).collect();
    for j in jobs.iter_mut() {
        j.ensure_running(&mut engine);
    }
    let horizon = cfg.us_to_cycles(mcfg.common.horizon_us);
    let tick = cfg.us_to_cycles(10.0);
    let poll = cfg.us_to_cycles(0.5).max(1);

    while engine.cycle() < horizon {
        let step = if pre.flush_waiting() { poll } else { tick };
        let events = engine.run_until(engine.cycle() + step);
        for ev in &events {
            pre.on_event(&engine, ev);
        }
        pre.poll_flush_waits(&mut engine, |_, _, _| {});
        // Advance launches.
        for j in jobs.iter_mut() {
            j.ensure_running(&mut engine);
        }
        // Repartition on demand.
        rebalance(&mut engine, cfg, &jobs, &mut owner, &mut pre, mcfg);
        // Assignment pass.
        for sm in 0..cfg.num_sms {
            match pre.in_flight(sm) {
                Some((InFlight::Preempting, _)) => {}
                Some((InFlight::FlushWait, src)) => {
                    let k = jobs[src].current();
                    if engine.sm_assigned(sm) != k && !engine.sm_is_preempting(sm) {
                        engine.assign_sm(sm, k);
                    }
                }
                None => {
                    if !engine.sm_is_preempting(sm) {
                        let k = jobs[owner[sm]].current();
                        if engine.sm_assigned(sm) != k {
                            engine.assign_sm(sm, k);
                        }
                    }
                }
            }
        }
        let done0 = jobs[0].check_measured(&engine);
        let done1 = jobs[1].check_measured(&engine);
        if done0 && done1 {
            break;
        }
    }
    let preemptions = engine.preempt_records().len();
    let out = |j: &Job, engine: &Engine| JobOutcome {
        name: j.name().to_string(),
        t_multi: j.measured_at(),
        insts: j.useful_insts(engine),
    };
    super::assert_race_clean(&engine, "run_pair");
    PairOutcome {
        jobs: [out(&jobs[0], &engine), out(&jobs[1], &engine)],
        preemptions,
    }
}

fn rebalance(
    engine: &mut Engine,
    cfg: &GpuConfig,
    jobs: &[Job; 2],
    owner: &mut [usize],
    pre: &mut Preemptor,
    mcfg: &MultiprogConfig,
) {
    let total = cfg.num_sms;
    let d = [
        demand(engine, jobs[0].current()),
        demand(engine, jobs[1].current()),
    ];
    let desired = mcfg.partition.shares(total, &d);
    let counts = [
        owner.iter().filter(|&&o| o == 0).count(),
        owner.iter().filter(|&&o| o == 1).count(),
    ];
    // Move SMs from the over-provisioned job to the under-provisioned one.
    let (src, dst) = if counts[0] > desired[0] && counts[1] < desired[1] {
        (0usize, 1usize)
    } else if counts[1] > desired[1] && counts[0] < desired[0] {
        (1, 0)
    } else {
        return;
    };
    let n = (counts[src] - desired[src]).min(desired[dst] - counts[dst]);
    if n == 0 {
        return;
    }
    let cands = pre.candidates(engine, |sm| owner[sm] == src);
    pre.preempt(
        engine,
        &cands,
        n,
        jobs[src].current(),
        true,
        src,
        |_, sm, _| {
            owner[sm] = dst;
        },
    );
}

/// Run two benchmarks under non-preemptive FCFS: every kernel launch waits
/// for the previously launched kernel to finish and then gets the whole GPU.
pub fn run_fcfs(
    cfg: &GpuConfig,
    a: &Benchmark,
    b: &Benchmark,
    mcfg: &MultiprogConfig,
) -> PairOutcome {
    let mut engine = Engine::with_seed(cfg.clone(), mcfg.common.seed);
    engine.set_exec_mode(mcfg.common.exec_mode());
    engine.set_break_on_kernel_finish(true);
    if mcfg.common.race_check {
        engine.enable_race_sanitizer();
    }
    let mut jobs = [
        Job::new(a.clone(), Some(mcfg.budget_insts)),
        Job::new(b.clone(), Some(mcfg.budget_insts)),
    ];
    let horizon = cfg.us_to_cycles(mcfg.common.horizon_us);
    let mut queue = std::collections::VecDeque::from([0usize, 1usize]);
    'outer: while let Some(turn) = queue.pop_front() {
        jobs[turn].ensure_running(&mut engine);
        let kid = jobs[turn].current().expect("ensure_running launches");
        for sm in 0..cfg.num_sms {
            engine.assign_sm(sm, Some(kid));
        }
        // Run this kernel to completion (it owns the whole GPU), checking
        // the measurement budgets as it runs so `t_multi` is not rounded up
        // to a kernel boundary.
        loop {
            let events = engine.run_for(cfg.us_to_cycles(50.0));
            jobs[turn].check_measured(&engine);
            if events
                .iter()
                .any(|e| matches!(e, Event::KernelFinished { kernel } if *kernel == kid))
                || engine.kernel_stats(kid).finished
            {
                break;
            }
            if engine.cycle() >= horizon {
                break 'outer;
            }
        }
        let m0 = jobs[0].check_measured(&engine);
        let m1 = jobs[1].check_measured(&engine);
        if m0 && m1 {
            break;
        }
        // The job that just ran re-queues its next kernel behind the other's.
        queue.push_back(turn);
        // Keep only jobs that still need to run... both always re-queue:
        // contention persists even after one job is measured (§4.4).
        if !queue.contains(&(1 - turn)) {
            queue.push_front(1 - turn);
        }
    }
    let out = |j: &Job, engine: &Engine| JobOutcome {
        name: j.name().to_string(),
        t_multi: j.measured_at(),
        insts: j.useful_insts(engine),
    };
    super::assert_race_clean(&engine, "run_fcfs");
    PairOutcome {
        jobs: [out(&jobs[0], &engine), out(&jobs[1], &engine)],
        preemptions: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::Suite;

    fn quick() -> MultiprogConfig {
        MultiprogConfig::paper_default()
            .budget_insts(300_000)
            .horizon_us(100_000.0)
    }

    #[test]
    fn pair_run_measures_both_jobs() {
        let suite = Suite::standard();
        let cfg = suite.config();
        let out = run_pair(
            cfg,
            suite.require("LUD"),
            suite.require("SAD"),
            Policy::chimera_us(30.0),
            &quick(),
        );
        assert!(out.jobs[0].t_multi.is_some(), "LUD should be measured");
        assert!(out.jobs[1].t_multi.is_some(), "SAD should be measured");
        assert!(
            out.preemptions > 0,
            "LUD launch churn must trigger preemptions"
        );
    }

    #[test]
    fn fcfs_serializes_kernels() {
        let suite = Suite::standard();
        let cfg = suite.config();
        let fcfs = run_fcfs(cfg, suite.require("LUD"), suite.require("SAD"), &quick());
        let pre = run_pair(
            cfg,
            suite.require("LUD"),
            suite.require("SAD"),
            Policy::Drain,
            &quick(),
        );
        let f = fcfs.jobs[0].t_multi.expect("LUD measured under FCFS");
        let p = pre.jobs[0].t_multi.expect("LUD measured under drain");
        assert!(
            f > p,
            "FCFS should slow LUD down vs preemptive sharing: fcfs={f}, drain={p}"
        );
    }
}
