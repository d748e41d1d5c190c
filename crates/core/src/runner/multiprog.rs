//! Pairwise multiprogrammed workloads with spatial partitioning (§4.4), plus
//! the non-preemptive FCFS baseline.
//!
//! Two benchmarks share the GPU as two processes of one
//! [`GpuScheduler`]. The SM partitioning policy is the paper's
//! Smart-Even/Rounds mix: SMs are split evenly except when a kernel is
//! *size-bound* (its remaining blocks cannot fill its share). Every kernel
//! launch/finish changes demand and triggers a repartition, which generates
//! preemption requests served by the configured policy — LUD's launch churn
//! is what makes these workloads preemption-heavy.

use crate::cost::EstimatorConfig;
use crate::partition::PartitionPolicy;
use crate::policy::Policy;
use crate::runner::{Job, RunCommon};
use crate::scheduler::{GpuScheduler, ProcId, SchedEvent};
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
    /// Knobs shared with every other runner. A `common.horizon_us` that
    /// rounds to 0 cycles (0, negative or NaN) runs nothing: both jobs
    /// report `t_multi: None` and 0 instructions. `common.sanitize` is not
    /// read here: only the periodic runner reads it, and
    /// `bench::scenarios::sanitized_periodic_check` inspects that runner's
    /// engine.
    pub common: RunCommon,
    /// Measurement budget per benchmark, useful warp instructions
    /// (the paper's 1-billion-instruction cap, scaled). At 0 both jobs are
    /// measured at the end of the runner's first step.
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

/// Run two benchmarks concurrently under `policy`: a two-process
/// [`GpuScheduler`] stepped on a 10 µs tick, each process submitting its
/// benchmark's launches in order with wrap-around. A job is measured at the
/// end of its first full pass or when it reaches the instruction budget.
pub fn run_pair(
    cfg: &GpuConfig,
    a: &Benchmark,
    b: &Benchmark,
    policy: Policy,
    mcfg: &MultiprogConfig,
) -> PairOutcome {
    let mut gpu = GpuScheduler::builder(cfg.clone())
        .policy(policy)
        .partition(mcfg.partition.clone())
        .estimator(mcfg.common.estimator)
        .seed(mcfg.common.seed)
        .exec_mode(mcfg.common.exec_mode())
        .race_check(mcfg.common.race_check)
        .build();
    let benches = [a, b];
    for bench in benches {
        let p = gpu.add_process();
        gpu.submit(p, bench.launches()[0].clone());
    }
    // Per job: the next launch to submit, kernels finished, measurement.
    let mut next = [1usize; 2];
    let mut finished = [0usize; 2];
    let mut measured: [Option<u64>; 2] = [None; 2];
    let horizon = cfg.us_to_cycles(mcfg.common.horizon_us);
    let tick = cfg.us_to_cycles(10.0);
    while gpu.cycle() < horizon {
        for ev in gpu.step_until(gpu.cycle() + tick) {
            match ev {
                // Keep the next launch queued behind the running one.
                SchedEvent::KernelStarted { proc, .. } => {
                    let launches = benches[proc.0].launches();
                    gpu.submit(proc, launches[next[proc.0] % launches.len()].clone());
                    next[proc.0] += 1;
                }
                SchedEvent::KernelFinished { proc, .. } => finished[proc.0] += 1,
                SchedEvent::SmReassigned { .. } => {}
            }
        }
        for (j, bench) in benches.iter().enumerate() {
            if measured[j].is_none()
                && (finished[j] >= bench.launches().len()
                    || gpu.useful_insts(ProcId(j)) >= mcfg.budget_insts)
            {
                measured[j] = Some(gpu.cycle());
            }
        }
        if measured.iter().all(Option::is_some) {
            break;
        }
    }
    super::assert_race_clean(gpu.engine(), "run_pair");
    PairOutcome {
        jobs: [0, 1].map(|j| JobOutcome {
            name: benches[j].name().to_string(),
            t_multi: measured[j],
            insts: gpu.useful_insts(ProcId(j)),
        }),
        preemptions: gpu.engine().preempt_records().len(),
    }
}

/// Run two benchmarks under non-preemptive FCFS: every kernel launch waits
/// for the previously launched kernel to finish and then gets the whole GPU.
/// No turn starts at or past the horizon.
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
        if engine.cycle() >= horizon {
            break;
        }
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

    /// A horizon that rounds to 0 cycles runs nothing in either runner; a
    /// zero budget measures both jobs at the end of the first step (the
    /// pair's 10 µs tick, FCFS's first kernel).
    #[test]
    fn degenerate_horizons_and_budgets() {
        let suite = Suite::standard();
        let cfg = suite.config();
        let (lud, sad) = (suite.require("LUD"), suite.require("SAD"));
        let policy = Policy::chimera_us(30.0);
        for horizon in [0.0, f64::NAN] {
            let mcfg = quick().horizon_us(horizon);
            let pair = run_pair(cfg, lud, sad, policy, &mcfg);
            let fcfs = run_fcfs(cfg, lud, sad, &mcfg);
            for out in [pair, fcfs] {
                assert_eq!(out.preemptions, 0);
                for job in &out.jobs {
                    assert_eq!((job.t_multi, job.insts), (None, 0), "{horizon}: {job:?}");
                }
            }
        }
        let mcfg = quick().budget_insts(0);
        let measured = |out: &PairOutcome| out.jobs.clone().map(|j| j.t_multi);
        let pair = run_pair(cfg, lud, sad, policy, &mcfg);
        assert_eq!(measured(&pair), [Some(14_000); 2]);
        let fcfs = run_fcfs(cfg, lud, sad, &mcfg);
        assert_eq!(measured(&fcfs), [Some(28_476); 2]);
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
