//! The periodic hard-deadline experiment of §4.1–4.3.
//!
//! A GPGPU benchmark owns the whole GPU. A synthetic real-time task arrives
//! every period, needs half of the SMs, executes for a fixed time and is
//! killed if its deadline — execution time plus the required preemption
//! latency — would be missed. A preemption request therefore *violates* the
//! deadline when the SMs are not all handed over within the latency
//! constraint.
//!
//! To keep throughput accounting fair when deadlines are missed (the paper
//! "ignores the throughput additionally gained" by killed tasks), acquired
//! SMs are reserved for the task's execution window even when the request was
//! late — the benchmark never pockets bonus SM-time from violations.

use crate::cost::EstimatorConfig;
use crate::obs::DrainSample;
use crate::policy::Policy;
use crate::preemptor::{InFlight, Preemptor, Taken};
use crate::runner::RunCommon;
use gpu_sim::{Engine, Event, GpuConfig, Technique};
use std::collections::{BTreeMap, HashMap};
use workloads::{Benchmark, RtTask};

/// Configuration for a periodic run.
///
/// Shared runner knobs (seed, horizon, constraint, estimator, sanitizer)
/// live in [`common`](PeriodicConfig::common); the builder-style setters
/// below forward to it so call sites need not spell the nesting out.
#[derive(Debug, Clone)]
pub struct PeriodicConfig {
    /// Knobs shared with every other runner; the constraint is 15 µs in
    /// Figures 6–7.
    pub common: RunCommon,
    /// The periodic task.
    pub task: RtTask,
    /// Use the strict idempotence condition for flushing decisions (§4.3).
    pub strict_idem: bool,
    /// Re-dispatch preempted blocks before fresh ones (the paper's policy;
    /// `false` is the ablation in `bench --bin ablation-tb-queue`).
    pub prefer_preempted: bool,
    /// Execute the real-time task as an actual kernel on its acquired SMs
    /// (contending for memory bandwidth) instead of a pure reservation.
    /// Off by default — the paper isolates the benchmark's throughput and
    /// neglects the synthetic task's, so a reservation is the faithful
    /// model; this switch is the fidelity ablation
    /// (`bench --bin ablation-task-sim`).
    pub simulate_task: bool,
}

impl PeriodicConfig {
    /// The paper's §4.1 setup (15 µs constraint) over a default horizon.
    pub fn paper_default(cfg: &GpuConfig) -> Self {
        PeriodicConfig {
            common: RunCommon::new(24_000.0, 15.0),
            task: RtTask::paper_default(cfg),
            strict_idem: false,
            prefer_preempted: true,
            simulate_task: false,
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

    /// Set the simulated horizon, µs (forwards to [`RunCommon::horizon_us`]).
    pub fn horizon_us(mut self, horizon_us: f64) -> Self {
        self.common.horizon_us = horizon_us;
        self
    }

    /// Set the latency constraint, µs (forwards to
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

    /// Enable or disable the dynamic flush sanitizer (forwards to
    /// [`RunCommon::sanitize`]).
    pub fn sanitize(mut self, sanitize: bool) -> Self {
        self.common.sanitize = sanitize;
        self
    }

    /// Set the periodic task.
    pub fn task(mut self, task: RtTask) -> Self {
        self.task = task;
        self
    }

    /// Use the strict idempotence condition for flushing decisions (§4.3).
    pub fn strict_idem(mut self, strict: bool) -> Self {
        self.strict_idem = strict;
        self
    }

    /// Re-dispatch preempted blocks before fresh ones.
    pub fn prefer_preempted(mut self, prefer: bool) -> Self {
        self.prefer_preempted = prefer;
        self
    }

    /// Execute the real-time task as an actual kernel (fidelity ablation).
    pub fn simulate_task(mut self, simulate: bool) -> Self {
        self.simulate_task = simulate;
        self
    }
}

/// Build the synthetic task's kernel: compute-bound, sized so one wave of
/// blocks across the task's SMs executes for `exec_us`.
fn task_kernel(cfg: &GpuConfig, task: &workloads::RtTask) -> gpu_sim::KernelDesc {
    use gpu_sim::{KernelDesc, Program, Segment};
    let tbs_per_sm = 8u32;
    let warps = 4u64;
    let cycles = cfg.us_to_cycles(task.exec_us);
    // Checked narrowing: the old `as u32` silently wrapped for execution
    // windows past ~49 s of straight-line work, producing a tiny (or zero-
    // padded) task kernel instead of a long one. Saturate and flag instead.
    let insts64 = (cycles / (cfg.issue_interval() * warps * u64::from(tbs_per_sm))).max(8);
    debug_assert!(
        u32::try_from(insts64).is_ok(),
        "task kernel of {insts64} insts/warp exceeds u32 grid maths"
    );
    let insts = u32::try_from(insts64).unwrap_or(u32::MAX);
    KernelDesc::builder("rt-task")
        .grid_blocks(u32::try_from(task.sms_needed).expect("SM count fits u32") * tbs_per_sm)
        .threads_per_block(128)
        .regs_per_thread(16)
        .program(Program::new(vec![
            Segment::load((insts / 50).max(1)),
            Segment::compute(insts - (insts / 50).max(1)),
        ]))
        .build()
        .expect("task kernel is valid")
}

/// Result of a periodic run.
#[derive(Debug, Clone)]
pub struct PeriodicResult {
    /// Policy that served the preemption requests.
    pub policy: String,
    /// Benchmark that was preempted.
    pub benchmark: String,
    /// Preemption requests issued.
    pub requests: u64,
    /// Requests that missed the latency constraint.
    pub violations: u64,
    /// Useful warp instructions the benchmark completed in the horizon.
    pub useful_insts: u64,
    /// Per-block technique usage across all SM preemptions.
    pub technique_counts: HashMap<Technique, u64>,
    /// Mean hand-over latency of non-violating requests, µs; `None` when
    /// every request violated (the former `f64::NAN` representation poisoned
    /// any downstream sum or average).
    pub mean_ok_latency_us: Option<f64>,
    /// Per-request log: `(request time µs, hand-over latency µs if all SMs
    /// were acquired, SMs acquired by the end of the run)`.
    pub request_log: Vec<(f64, Option<f64>, usize)>,
    /// Warp instructions the benchmark lost to flush re-execution.
    pub wasted_flush_insts: u64,
    /// Blocks context-switched out across the run.
    pub switch_count: u64,
    /// Blocks flushed across the run.
    pub flush_count: u64,
    /// Predicted-vs-actual latency of every drained block, joined
    /// incrementally during the run (completion order). Empty for
    /// non-Chimera policies, which never consult the estimator. Aggregate
    /// with [`crate::obs::accuracy_per_kernel`].
    pub drain_samples: Vec<DrainSample>,
}

impl PeriodicResult {
    /// Percentage of requests that violated the constraint.
    pub fn violation_pct(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            100.0 * self.violations as f64 / self.requests as f64
        }
    }

    /// Throughput overhead versus an oracle run of the same scenario, %.
    ///
    /// Clamped at 0: a policy that misses deadlines keeps SMs longer than the
    /// task period allows, and the paper's *effective throughput* explicitly
    /// "ignores the throughput additionally gained" that way (§4.1).
    pub fn overhead_pct_vs(&self, oracle: &PeriodicResult) -> f64 {
        if oracle.useful_insts == 0 {
            return 0.0;
        }
        (100.0 * (1.0 - self.useful_insts as f64 / oracle.useful_insts as f64)).max(0.0)
    }
}

#[derive(Debug)]
struct Request {
    t: u64,
    needed: usize,
    acquired: usize,
    completed_at: Option<u64>,
    evaluated: bool,
    task_kid: Option<gpu_sim::KernelId>,
}

/// Shared mutable run state (the SMs in flight for a request live in the
/// [`Preemptor`]'s ledger, tagged with the request index).
#[derive(Debug)]
struct RunState {
    /// SM → release cycle (reserved by the RT task). Ordered: the map is
    /// iterated while mutating the engine, so a `HashMap` here would leak the
    /// OS-randomized hash seed into the simulation (the hash-iter lint).
    reserved: BTreeMap<usize, u64>,
    /// Task kernel → SMs it occupies (only when `simulate_task` is on).
    task_sms: HashMap<gpu_sim::KernelId, Vec<usize>>,
    requests: Vec<Request>,
}

/// Run the periodic experiment for one benchmark under one policy.
pub fn run_periodic(
    cfg: &GpuConfig,
    bench: &Benchmark,
    policy: Policy,
    pcfg: &PeriodicConfig,
) -> PeriodicResult {
    run_periodic_traced(cfg, bench, policy, pcfg, 0).0
}

/// Like [`run_periodic`], but with the engine's
/// [event log](gpu_sim::EventLog) enabled (ring capacity `event_capacity`;
/// `0` leaves it disabled) and the finished [`Engine`] returned alongside the
/// result, so the caller can export a Chrome trace
/// ([`gpu_sim::trace::chrome_trace_json`]), dump the raw events, or compute
/// estimator accuracy ([`crate::obs::drain_accuracy`]).
///
/// ```
/// use chimera::policy::Policy;
/// use chimera::runner::periodic::{run_periodic_traced, PeriodicConfig};
/// use workloads::Suite;
///
/// let suite = Suite::standard();
/// let cfg = suite.config();
/// let pcfg = PeriodicConfig::paper_default(cfg).horizon_us(4_000.0);
/// let (result, engine) = run_periodic_traced(
///     cfg,
///     suite.require("BS"),
///     Policy::chimera_us(15.0),
///     &pcfg,
///     1 << 16,
/// );
/// assert!(result.requests > 0);
/// let log = engine.event_log().expect("tracing was enabled");
/// assert!(log.iter().any(|e| e.kind() == "decision"));
/// ```
pub fn run_periodic_traced(
    cfg: &GpuConfig,
    bench: &Benchmark,
    policy: Policy,
    pcfg: &PeriodicConfig,
    event_capacity: usize,
) -> (PeriodicResult, Engine) {
    let mut engine = Engine::with_seed(cfg.clone(), pcfg.common.seed);
    engine.set_exec_mode(pcfg.common.exec_mode());
    if event_capacity > 0 {
        engine.enable_event_log(event_capacity);
    }
    if pcfg.common.sanitize {
        engine.enable_sanitizer();
    }
    if pcfg.common.race_check {
        engine.enable_race_sanitizer();
    }
    engine.set_break_on_kernel_finish(true);
    engine.set_prefer_preempted(pcfg.prefer_preempted);
    if policy.is_oracle() {
        engine.set_free_context_moves(true);
    }
    let mut job = crate::runner::Job::new(bench.clone(), None);
    job.ensure_running(&mut engine);
    let mut st = RunState {
        reserved: BTreeMap::new(),
        task_sms: HashMap::new(),
        requests: Vec::new(),
    };
    let mut pre = Preemptor::new(policy, pcfg.common.estimator);
    let horizon = cfg.us_to_cycles(pcfg.common.horizon_us);
    let period = pcfg.task.period_cycles(cfg);
    let exec = pcfg.task.exec_cycles(cfg);
    let constraint = cfg.us_to_cycles(pcfg.common.constraint_us);
    let poll = cfg.us_to_cycles(0.5).max(1);
    let mut next_request = period;

    while engine.cycle() < horizon {
        // Next interesting time point.
        let mut t_next = horizon.min(next_request);
        if let Some(&r) = st.reserved.values().min() {
            t_next = t_next.min(r);
        }
        if pre.flush_waiting() {
            t_next = t_next.min(engine.cycle() + poll);
        }
        for rq in &st.requests {
            if !rq.evaluated {
                t_next = t_next.min(rq.t + constraint);
            }
        }
        let t_next = t_next.max(engine.cycle() + 1);
        let events = engine.run_until(t_next);
        let now = engine.cycle();
        for ev in events {
            if let Some((sm, req_idx)) = pre.on_event(&mut engine, &ev) {
                acquire(&mut engine, &mut st, pcfg, cfg, req_idx, sm, now, exec);
            }
            // A finished task kernel returns its SMs to the benchmark.
            if let Event::KernelFinished { kernel } = ev {
                if let Some(sms) = st.task_sms.remove(&kernel) {
                    for sm in sms {
                        st.reserved.remove(&sm);
                    }
                }
            }
        }
        // Flush policy: reset SMs the moment every resident block is safe.
        pre.poll_flush_waits(&mut engine, |engine, sm, req_idx| {
            acquire(engine, &mut st, pcfg, cfg, req_idx, sm, now, exec);
        });
        // Release expired reservations back to the benchmark.
        st.reserved.retain(|_, &mut release| release > now);
        // Evaluate deadline violations.
        for rq in &mut st.requests {
            if !rq.evaluated && now >= rq.t + constraint {
                rq.evaluated = true;
            }
        }
        // New periodic request.
        if now >= next_request && next_request < horizon {
            issue_request(&mut engine, &mut st, &mut pre, pcfg, cfg, now, exec, &job);
            next_request += period;
        }
        // Keep the benchmark running and (re)assigned to all free SMs.
        job.ensure_running(&mut engine);
        let current = job.current();
        for sm in 0..cfg.num_sms {
            if st.reserved.contains_key(&sm)
                || matches!(pre.in_flight(sm), Some((InFlight::Preempting, _)))
                || engine.sm_is_preempting(sm)
            {
                continue;
            }
            if engine.sm_assigned(sm) != current {
                engine.assign_sm(sm, current);
            }
        }
    }

    // Final accounting.
    let mut technique_counts: HashMap<Technique, u64> = HashMap::new();
    for rec in engine.preempt_records() {
        for &t in &rec.techniques {
            *technique_counts.entry(t).or_insert(0) += 1;
        }
    }
    let mut violations = 0u64;
    let mut ok_lat = Vec::new();
    for rq in &st.requests {
        let ok = matches!(rq.completed_at,
            Some(done) if done <= rq.t + constraint && rq.acquired >= rq.needed);
        if ok {
            ok_lat.push(cfg.cycles_to_us(rq.completed_at.expect("ok implies completed") - rq.t));
        } else {
            violations += 1;
        }
    }
    let mean_ok_latency_us =
        (!ok_lat.is_empty()).then(|| ok_lat.iter().sum::<f64>() / ok_lat.len() as f64);
    let request_log = st
        .requests
        .iter()
        .map(|rq| {
            (
                cfg.cycles_to_us(rq.t),
                rq.completed_at.map(|c| cfg.cycles_to_us(c - rq.t)),
                rq.acquired,
            )
        })
        .collect();
    let (mut wasted_flush_insts, mut switch_count, mut flush_count) = (0u64, 0u64, 0u64);
    for &kid in job.instances() {
        let s = engine.kernel_stats(kid);
        wasted_flush_insts += s.wasted_flush_insts;
        switch_count += s.switch_count;
        flush_count += s.flush_count;
    }
    let result = PeriodicResult {
        policy: policy.to_string(),
        benchmark: bench.name().to_string(),
        requests: u64::try_from(st.requests.len()).expect("request count fits u64"),
        violations,
        useful_insts: job.useful_insts(&engine),
        technique_counts,
        mean_ok_latency_us,
        request_log,
        wasted_flush_insts,
        switch_count,
        flush_count,
        drain_samples: pre.into_drain_samples(),
    };
    super::assert_race_clean(&engine, "run_periodic");
    (result, engine)
}

#[allow(clippy::too_many_arguments)]
fn acquire(
    engine: &mut Engine,
    st: &mut RunState,
    pcfg: &PeriodicConfig,
    cfg: &GpuConfig,
    req_idx: usize,
    sm: usize,
    now: u64,
    exec: u64,
) {
    if pcfg.simulate_task {
        // Hand the SM to a real task kernel; it is released when the kernel
        // finishes.
        let kid = match st.requests[req_idx].task_kid {
            Some(k) => k,
            None => {
                let k = engine.launch_kernel(task_kernel(cfg, &pcfg.task));
                st.requests[req_idx].task_kid = Some(k);
                k
            }
        };
        engine.assign_sm(sm, Some(kid));
        st.task_sms.entry(kid).or_default().push(sm);
        st.reserved.insert(sm, u64::MAX);
    } else {
        engine.assign_sm(sm, None);
        st.reserved.insert(sm, now + exec);
    }
    let rq = &mut st.requests[req_idx];
    rq.acquired += 1;
    if rq.acquired >= rq.needed && rq.completed_at.is_none() {
        rq.completed_at = Some(now);
    }
}

#[allow(clippy::too_many_arguments)]
fn issue_request(
    engine: &mut Engine,
    st: &mut RunState,
    pre: &mut Preemptor,
    pcfg: &PeriodicConfig,
    cfg: &GpuConfig,
    now: u64,
    exec: u64,
    job: &crate::runner::Job,
) {
    st.requests.push(Request {
        t: now,
        needed: pcfg.task.sms_needed,
        acquired: 0,
        completed_at: None,
        evaluated: false,
        task_kid: None,
    });
    let req_idx = st.requests.len() - 1;
    let cands = pre.candidates(engine, |sm| !st.reserved.contains_key(&sm));
    // Flush eligibility comes from the dataflow analysis over the program's
    // access regions; the sanitizer cross-checks its verdict dynamically
    // when enabled. Strict condition: a non-idempotent kernel is never
    // flushable.
    let flush_allowed = !pcfg.strict_idem
        || job
            .current()
            .is_none_or(|k| idem::analyze(engine.kernel_desc(k).program()).strict_idempotent);
    pre.preempt(
        engine,
        &cands,
        pcfg.task.sms_needed,
        job.current(),
        flush_allowed,
        req_idx,
        |engine, sm, taken| {
            if taken == Taken::Vacated {
                acquire(engine, st, pcfg, cfg, req_idx, sm, now, exec);
            }
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::Suite;

    fn quick_cfg(cfg: &GpuConfig, horizon_us: f64) -> PeriodicConfig {
        PeriodicConfig::paper_default(cfg).horizon_us(horizon_us)
    }

    #[test]
    fn all_violations_yield_no_ok_latency() {
        // A task demanding more SMs than the GPU has can never be fully
        // served, so every request violates. The mean OK latency must be
        // the empty case (`None`) — not the former NaN, which poisoned any
        // downstream sum or average over per-benchmark results.
        let suite = Suite::standard();
        let cfg = suite.config();
        let mut pc = quick_cfg(cfg, 3_000.0);
        pc.common.constraint_us = 2.0;
        pc.task.sms_needed = cfg.num_sms + 1;
        let r = run_periodic(cfg, suite.require("BS"), Policy::Switch, &pc);
        assert!(r.requests > 0);
        assert_eq!(r.violations, r.requests, "every request must violate");
        assert_eq!(r.mean_ok_latency_us, None);
        assert!((r.violation_pct() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn violation_pct_survives_counts_past_u32() {
        // Regression for the former u32 `requests`/`violations` fields: a
        // run long enough to issue more than u32::MAX requests silently
        // truncated its request count.
        let r = PeriodicResult {
            policy: "switch".into(),
            benchmark: "X".into(),
            requests: u64::from(u32::MAX) + 10,
            violations: u64::from(u32::MAX) / 2,
            useful_insts: 0,
            technique_counts: HashMap::new(),
            mean_ok_latency_us: None,
            request_log: Vec::new(),
            wasted_flush_insts: 0,
            switch_count: 0,
            flush_count: 0,
            drain_samples: Vec::new(),
        };
        let pct = r.violation_pct();
        assert!(pct > 0.0 && pct < 100.0 && pct.is_finite(), "{pct}");
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "exceeds u32 grid maths"))]
    fn task_kernel_insts_never_wrap() {
        // An absurd execution window used to wrap `as u32` into a tiny task
        // kernel; now it trips the debug_assert (debug builds) or saturates
        // at u32::MAX (release builds).
        let suite = Suite::standard();
        let cfg = suite.config();
        let mut task = RtTask::paper_default(cfg);
        task.exec_us = 1.0e13;
        let k = task_kernel(cfg, &task);
        assert!(
            k.program().insts_per_warp() >= u64::from(u32::MAX) / 2,
            "saturated, not wrapped: {}",
            k.program().insts_per_warp()
        );
    }

    #[test]
    fn incremental_drain_join_matches_post_mortem() {
        // The tentpole's live DrainTracker must reproduce the event-log
        // post-mortem join exactly (same decisions, same completion cycles).
        let suite = Suite::standard();
        let cfg = suite.config();
        let pc = quick_cfg(cfg, 4_000.0);
        let (r, engine) = run_periodic_traced(
            cfg,
            suite.require("BS"),
            Policy::chimera_us(15.0),
            &pc,
            1 << 18,
        );
        assert!(!r.drain_samples.is_empty(), "chimera on BS drains blocks");
        let live = crate::obs::accuracy_per_kernel(cfg, &r.drain_samples);
        let post = crate::obs::drain_accuracy(&engine);
        assert_eq!(live, post);

        // The scheduler behind the serving runs carries the same join.
        use crate::runner::serve::{run_serve_traced, ArrivalProcess, ServeConfig};
        let gcfg = GpuConfig::fermi();
        let wl = workloads::ServeWorkload::standard(&gcfg);
        let scfg = ServeConfig::paper_default()
            .horizon_us(4_000.0)
            .arrivals(ArrivalProcess::poisson(1.5 * wl.saturation_per_ms()));
        let (_, gpu) = run_serve_traced(&gcfg, &wl, &scfg, 1 << 20);
        let log = gpu.engine().event_log().expect("tracing enabled");
        assert_eq!(log.dropped(), 0, "the ring must hold the whole run");
        assert!(!gpu.drain_samples().is_empty(), "serving drains blocks");
        let live = crate::obs::accuracy_per_kernel(&gcfg, gpu.drain_samples());
        assert_eq!(live, crate::obs::drain_accuracy(gpu.engine()));
    }

    #[test]
    fn online_estimator_runs_and_keeps_request_cadence() {
        let suite = Suite::standard();
        let cfg = suite.config();
        let static_r = run_periodic(
            cfg,
            suite.require("BS"),
            Policy::chimera_us(15.0),
            &quick_cfg(cfg, 4_000.0),
        );
        let mut pc = quick_cfg(cfg, 4_000.0);
        pc.common.estimator = crate::cost::EstimatorConfig::online(0.95);
        let online_r = run_periodic(cfg, suite.require("BS"), Policy::chimera_us(15.0), &pc);
        // The request schedule is policy-independent.
        assert_eq!(online_r.requests, static_r.requests);
        assert!(online_r.requests > 0);
        // The online estimator may only help the violation rate here.
        assert!(
            online_r.violations <= static_r.violations,
            "online {} vs static {}",
            online_r.violations,
            static_r.violations
        );
    }

    #[test]
    fn online_estimator_emits_update_events() {
        let suite = Suite::standard();
        let cfg = suite.config();
        let mut pc = quick_cfg(cfg, 4_000.0);
        pc.common.estimator = crate::cost::EstimatorConfig::online(0.95);
        let (_, engine) = run_periodic_traced(
            cfg,
            suite.require("BS"),
            Policy::chimera_us(15.0),
            &pc,
            1 << 18,
        );
        let log = engine.event_log().expect("tracing enabled");
        let updates: Vec<_> = log
            .iter()
            .filter(|e| e.kind() == "estimator_update")
            .collect();
        assert!(
            !updates.is_empty(),
            "online mode must log estimator updates"
        );
        // Static mode logs none.
        let (_, engine) = run_periodic_traced(
            cfg,
            suite.require("BS"),
            Policy::chimera_us(15.0),
            &quick_cfg(cfg, 4_000.0),
            1 << 18,
        );
        let log = engine.event_log().expect("tracing enabled");
        assert!(log.iter().all(|e| e.kind() != "estimator_update"));
    }

    #[test]
    fn oracle_never_violates() {
        let suite = Suite::standard();
        let bench = suite.require("SAD");
        let r = run_periodic(
            suite.config(),
            bench,
            Policy::Oracle,
            &quick_cfg(suite.config(), 5_000.0),
        );
        assert!(r.requests >= 4, "requests={}", r.requests);
        assert_eq!(r.violations, 0, "oracle must be instant");
        assert!(r.useful_insts > 0);
    }

    #[test]
    fn drain_violates_for_long_blocks_but_not_short() {
        let suite = Suite::standard();
        let cfg = suite.config();
        // BS blocks run 60.9 us >> 15 us constraint: draining must violate.
        let long = run_periodic(
            cfg,
            suite.require("BS"),
            Policy::Drain,
            &quick_cfg(cfg, 5_000.0),
        );
        assert!(
            long.violation_pct() > 50.0,
            "BS drain: {}",
            long.violation_pct()
        );
        // BP blocks run ~2-3 us: draining meets 15 us easily.
        let short = run_periodic(
            cfg,
            suite.require("BP"),
            Policy::Drain,
            &quick_cfg(cfg, 5_000.0),
        );
        assert!(
            short.violation_pct() < 10.0,
            "BP drain: {}",
            short.violation_pct()
        );
    }

    #[test]
    fn flush_is_instant_for_idempotent_kernels() {
        let suite = Suite::standard();
        let cfg = suite.config();
        let r = run_periodic(
            cfg,
            suite.require("HS"),
            Policy::Flush,
            &quick_cfg(cfg, 5_000.0),
        );
        assert_eq!(r.violations, 0, "HS is idempotent; flushing is instant");
    }

    #[test]
    fn chimera_meets_constraint_where_singles_fail() {
        let suite = Suite::standard();
        let cfg = suite.config();
        // BS: drain violates (long blocks), switch violates (17 us > 15 us);
        // Chimera flushes young blocks / drains old ones.
        let c = run_periodic(
            cfg,
            suite.require("BS"),
            Policy::chimera_us(15.0),
            &quick_cfg(cfg, 5_000.0),
        );
        assert!(
            c.violation_pct() < 10.0,
            "chimera on BS: {}",
            c.violation_pct()
        );
        let s = run_periodic(
            cfg,
            suite.require("BS"),
            Policy::Switch,
            &quick_cfg(cfg, 5_000.0),
        );
        assert!(
            s.violation_pct() > 50.0,
            "switch on BS: {}",
            s.violation_pct()
        );
    }

    #[test]
    fn overhead_breakdown_matches_policy() {
        let suite = Suite::standard();
        let cfg = suite.config();
        let bench = suite.require("HS");
        let flush = run_periodic(cfg, bench, Policy::Flush, &quick_cfg(cfg, 4_000.0));
        assert!(flush.flush_count > 0);
        assert_eq!(flush.switch_count, 0);
        assert!(flush.wasted_flush_insts > 0, "flushing must discard work");
        let switch = run_periodic(cfg, bench, Policy::Switch, &quick_cfg(cfg, 4_000.0));
        assert!(switch.switch_count > 0);
        assert_eq!(switch.flush_count, 0);
        assert_eq!(switch.wasted_flush_insts, 0, "switching preserves all work");
    }

    #[test]
    fn simulated_task_contends_but_still_meets_deadlines() {
        let suite = Suite::standard();
        let cfg = suite.config();
        let mut pc = quick_cfg(cfg, 5_000.0);
        pc.simulate_task = true;
        let sim = run_periodic(cfg, suite.require("SAD"), Policy::chimera_us(15.0), &pc);
        let res = run_periodic(
            cfg,
            suite.require("SAD"),
            Policy::chimera_us(15.0),
            &quick_cfg(cfg, 5_000.0),
        );
        assert_eq!(sim.requests, res.requests);
        assert_eq!(sim.violations, 0, "simulated task must not break deadlines");
        // The real task's memory traffic can only slow the benchmark down.
        assert!(
            sim.useful_insts <= res.useful_insts + res.useful_insts / 50,
            "sim {} vs reservation {}",
            sim.useful_insts,
            res.useful_insts
        );
    }

    #[test]
    fn sanitizer_validates_flush_decisions_across_the_suite() {
        // The dynamic oracle must agree with the static analysis: no flushed
        // block may have overwritten a location it read (unsafe flush), no
        // statically-idempotent block may turn out dirty (false negative),
        // and no statically-dirty block may finish with a clean footprint
        // (the analysis would be imprecise, not unsound — but our regions
        // are exact, so it must not happen either).
        let suite = Suite::standard();
        let cfg = suite.config();
        for bench in ["BS", "HS", "NW", "FWT", "BT"] {
            for policy in [Policy::Flush, Policy::chimera_us(15.0)] {
                let mut pc = quick_cfg(cfg, 4_000.0);
                pc.common.sanitize = true;
                let (r, mut engine) =
                    run_periodic_traced(cfg, suite.require(bench), policy, &pc, 0);
                let san = engine.take_sanitizer().expect("sanitizer was enabled");
                let rep = san.report();
                assert!(
                    rep.is_clean(),
                    "{bench}/{policy}: unsafe flushes {} false negatives {}",
                    rep.unsafe_flushes,
                    rep.false_negatives
                );
                assert_eq!(
                    rep.static_dirty_but_clean, 0,
                    "{bench}/{policy}: static/dynamic disagreement"
                );
                assert!(rep.blocks_completed > 0, "{bench}/{policy}: ran no blocks");
                if policy == Policy::Flush && r.flush_count > 0 {
                    assert!(rep.flushes_checked > 0, "{bench}: flushes unchecked");
                }
            }
        }
    }

    #[test]
    fn strict_idempotence_dooms_flush_on_non_idempotent_kernels() {
        let strict_suite = Suite::strict();
        let cfg = strict_suite.config();
        let mut pc = quick_cfg(cfg, 5_000.0);
        pc.strict_idem = true;
        let r = run_periodic(cfg, strict_suite.require("NW"), Policy::Flush, &pc);
        // Most requests fail (only end-of-kernel idle windows can ever be
        // acquired, since NW's kernels are non-idempotent under the strict
        // condition).
        assert!(
            r.violation_pct() > 60.0,
            "strict flush on NW: {}",
            r.violation_pct()
        );
        // Relaxed condition rescues the same benchmark.
        let suite = Suite::standard();
        let r2 = run_periodic(
            suite.config(),
            suite.require("NW"),
            Policy::Flush,
            &quick_cfg(suite.config(), 5_000.0),
        );
        assert!(
            r2.violation_pct() < r.violation_pct(),
            "relaxed {} vs strict {}",
            r2.violation_pct(),
            r.violation_pct()
        );
    }
}
