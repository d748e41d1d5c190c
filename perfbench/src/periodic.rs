//! `periodic_deadline`: the §4.1 experiment behind Figures 6 and 7. A
//! periodic real-time task (1000 µs period, 200 µs of work, half the SMs)
//! preempts a running benchmark every period; Chimera serves the requests
//! at a 15 µs constraint, and Oracle runs the same benchmarks as the
//! zero-cost baseline for the throughput overhead.

use crate::host::{median, tail, Spans};
use crate::layers::{setup_spans, EngineCounts};
use crate::{Layers, Pass, Workload};
use chimera::cost::{CostModel, KernelObs, TbProgress};
use chimera::obs::accuracy_per_kernel;
use chimera::policy::Policy;
use chimera::runner::periodic::{run_periodic_traced, PeriodicConfig, PeriodicResult};
use chimera::runner::{Job, RunCommon};
use chimera::select::{select_preemptions, SelectionRequest};
use gpu_sim::{Engine, GpuConfig, KernelId};
use std::fmt::Write as _;
use workloads::{Suite, SuiteOptions};

/// Benchmarks of Table 2 that between them make Chimera pick every
/// technique: BS flushes, CP switches, HS drains, MUM has long blocks with
/// a high flush cost, FWT mixes techniques.
pub const BENCHMARKS: [&str; 5] = ["BS", "CP", "HS", "MUM", "FWT"];

/// Simulated horizon of every cell, µs.
pub const HORIZON_US: f64 = 8_000.0;

/// The paper's latency constraint for Figures 6 and 7, µs.
pub const CONSTRAINT_US: f64 = 15.0;

/// Event-log ring of a traced cell: holds every event of one cell.
const EVENT_CAPACITY: usize = 1 << 20;

/// Requests that must lie beyond the reported tail percentile.
const TAIL_BEYOND: usize = 10;

pub struct PeriodicDeadline {
    seed: u64,
    suite: Suite,
    pcfg: PeriodicConfig,
}

impl PeriodicDeadline {
    pub fn new(seed: u64) -> Self {
        let suite = build_suite();
        let pcfg = config(suite.config(), seed);
        PeriodicDeadline { seed, suite, pcfg }
    }

    fn policies() -> [Policy; 2] {
        [Policy::chimera_us(CONSTRAINT_US), Policy::Oracle]
    }

    /// Every `(benchmark, policy)` cell through `run`, plain or traced,
    /// handing each finished engine to `inspect` before dropping it.
    fn cells(
        &self,
        mut run: impl FnMut(&workloads::Benchmark, Policy) -> (PeriodicResult, Engine),
        mut inspect: impl FnMut(&PeriodicResult, &Engine, Policy),
    ) -> Pass {
        let mut pass = Pass::default();
        let mut chimera = Vec::new();
        let mut oracle = Vec::new();
        for name in BENCHMARKS {
            let bench = self.suite.require(name);
            for policy in Self::policies() {
                let (r, engine) = pass.call(|| run(bench, policy), |(_, e)| e.cycle());
                pass.warp_insts += engine.gpu_stats().total_issued_insts;
                check(&mut pass, &r, policy);
                inspect(&r, &engine, policy);
                if policy.is_oracle() {
                    oracle.push(r);
                } else {
                    chimera.push(r);
                }
            }
        }
        summarize(&mut pass, &chimera, &oracle);
        pass
    }
}

fn build_suite() -> Suite {
    Suite::with_options(GpuConfig::fermi(), SuiteOptions::default())
}

/// The figure binaries' periodic configuration at this benchmark's horizon.
fn config(cfg: &GpuConfig, seed: u64) -> PeriodicConfig {
    PeriodicConfig::paper_default(cfg).common(RunCommon::new(HORIZON_US, CONSTRAINT_US).seed(seed))
}

fn check(pass: &mut Pass, r: &PeriodicResult, policy: Policy) {
    let cell = format!("{}/{policy}", r.benchmark);
    pass.check(r.requests > 0, || format!("{cell}: no preemption requests"));
    pass.check(r.violations <= r.requests, || {
        format!(
            "{cell}: {} violations > {} requests",
            r.violations, r.requests
        )
    });
    pass.check(r.useful_insts > 0, || format!("{cell}: no useful work"));
    if policy.is_oracle() {
        pass.check(r.drain_samples.is_empty(), || {
            format!("{cell}: Oracle consulted the drain estimator")
        });
    }
}

fn summarize(pass: &mut Pass, chimera: &[PeriodicResult], oracle: &[PeriodicResult]) {
    let requests: u64 = chimera.iter().map(|r| r.requests).sum();
    let violations: u64 = chimera.iter().map(|r| r.violations).sum();
    let n = chimera.len() as f64;
    let overhead = chimera
        .iter()
        .zip(oracle)
        .map(|(c, o)| c.overhead_pct_vs(o))
        .sum::<f64>()
        / n;
    // Normalised turnaround of the preempted benchmark: how much longer it
    // takes under Chimera than under zero-cost preemption.
    let antt = chimera
        .iter()
        .zip(oracle)
        .map(|(c, o)| o.useful_insts as f64 / c.useful_insts.max(1) as f64)
        .sum::<f64>()
        / n;
    let latencies: Vec<f64> = chimera
        .iter()
        .flat_map(|r| r.request_log.iter().filter_map(|&(_, lat, _)| lat))
        .collect();
    let (tail_pct, tail_us) = tail(&latencies, TAIL_BEYOND).unwrap_or((0.0, 0.0));
    pass.sim = vec![
        ("antt", antt),
        (
            "periodic.deadline_violation_pct",
            100.0 * violations as f64 / requests.max(1) as f64,
        ),
        ("periodic.throughput_overhead_pct", overhead),
        ("periodic.preempt_latency_p50_us", median(&latencies)),
        ("periodic.preempt_latency_tail_us", tail_us),
        ("periodic.preempt_latency_tail_pctile", tail_pct),
        ("periodic.preempt_latency_samples", latencies.len() as f64),
    ];
    let mut fp = String::new();
    for (c, o) in chimera.iter().zip(oracle) {
        for r in [c, o] {
            let mut techniques: Vec<_> = r.technique_counts.iter().collect();
            techniques.sort();
            let _ = writeln!(
                fp,
                "{} {} req={} viol={} useful={} wasted={} sw={} fl={} lat={:?} tech={techniques:?} drains={:?}",
                r.benchmark,
                r.policy,
                r.requests,
                r.violations,
                r.useful_insts,
                r.wasted_flush_insts,
                r.switch_count,
                r.flush_count,
                r.request_log,
                r.drain_samples
            );
        }
    }
    pass.fingerprint = fp;
}

impl Workload for PeriodicDeadline {
    fn setup(&self) {
        let suite = build_suite();
        let cfg = suite.config();
        let pcfg = config(cfg, self.seed);
        for name in BENCHMARKS {
            for _ in Self::policies() {
                let mut engine = Engine::with_seed(cfg.clone(), pcfg.common.seed);
                engine.set_exec_mode(pcfg.common.exec_mode());
                let mut job = Job::new(suite.require(name).clone(), None);
                job.ensure_running(&mut engine);
                std::hint::black_box(&engine);
            }
        }
    }

    fn pass(&self) -> Pass {
        let cfg = self.suite.config();
        self.cells(
            |b, p| run_periodic_traced(cfg, b, p, &self.pcfg, 0),
            |_, _, _| {},
        )
    }

    fn probe(&self, spans: &mut Spans) -> Layers {
        let mut layers = Layers {
            metrics: setup_spans(spans, SuiteOptions::default()),
            ..Layers::default()
        };
        let cfg = self.suite.config();
        let (mut bare_insts, mut bare_s) = (0u64, 0.0f64);
        for name in BENCHMARKS {
            let (insts, s) = bare_run(cfg, self.suite.require(name), &self.pcfg, spans);
            bare_insts += insts;
            bare_s += s;
        }
        layers.bare_ns_per_warp_inst = 1e9 * bare_s / bare_insts as f64;
        let calls = spans.durations_us("select.select_preemptions");
        let per_est = spans.durations_us("cost.estimate");
        layers.select_call_us_p50 = median(&calls);
        layers.metrics.push(("select.call_us_p50", median(&calls)));
        layers.metrics.push((
            "select.call_us_tail",
            tail(&calls, TAIL_BEYOND).map_or(0.0, |(_, v)| v),
        ));
        layers
            .metrics
            .push(("cost.estimate_us_p50", median(&per_est)));
        layers
    }

    fn traced_pass(&self, spans: &mut Spans) -> (Pass, Layers) {
        let cfg = self.suite.config();
        let mut counts = EngineCounts::default();
        let mut select_calls = 0;
        let mut pass = self.cells(
            |b, p| {
                spans.span("runner.run_periodic_traced", |_| {
                    run_periodic_traced(cfg, b, p, &self.pcfg, EVENT_CAPACITY)
                })
            },
            // Layer counts describe the Chimera cells; Oracle is the baseline.
            |r, engine, policy| {
                if !policy.is_oracle() {
                    counts.add(engine);
                    counts.add_accuracy(accuracy_per_kernel(cfg, &r.drain_samples));
                    select_calls += r.requests;
                }
            },
        );
        let dropped = counts.dropped_events();
        pass.check(dropped == 0, || {
            format!("event ring dropped {dropped} events")
        });
        let layers = Layers {
            metrics: counts.metrics(),
            select_calls,
            ..Layers::default()
        };
        (pass, layers)
    }
}

/// Run `bench` alone on every SM with no policy attached, over the cell's
/// horizon, timing each `Engine::run_until`. At every request cycle of the
/// periodic task, snapshot the SMs and time Algorithm 1 and the cost model
/// on them, as the Chimera runner would have called them. Returns the warp
/// instructions issued and the seconds spent in `run_until`.
fn bare_run(
    cfg: &GpuConfig,
    bench: &workloads::Benchmark,
    pcfg: &PeriodicConfig,
    spans: &mut Spans,
) -> (u64, f64) {
    let mut engine = Engine::with_seed(cfg.clone(), pcfg.common.seed);
    engine.set_exec_mode(pcfg.common.exec_mode());
    engine.set_break_on_kernel_finish(true);
    let mut job = Job::new(bench.clone(), None);
    let horizon = cfg.us_to_cycles(pcfg.common.horizon_us);
    let period = pcfg.task.period_cycles(cfg);
    let mut next_request = period;
    let before = spans.total_s("engine.run_until");
    while engine.cycle() < horizon {
        job.ensure_running(&mut engine);
        let current = job.current();
        for sm in 0..cfg.num_sms {
            if engine.sm_assigned(sm) != current {
                engine.assign_sm(sm, current);
            }
        }
        let target = horizon.min(next_request).max(engine.cycle() + 1);
        spans.span("engine.run_until", |_| engine.run_until(target));
        if engine.cycle() >= next_request {
            next_request += period;
            if let Some(kid) = job.current() {
                time_selection(cfg, pcfg, &engine, kid, spans);
            }
        }
    }
    let s = spans.total_s("engine.run_until") - before;
    (engine.gpu_stats().total_issued_insts, s)
}

fn time_selection(
    cfg: &GpuConfig,
    pcfg: &PeriodicConfig,
    engine: &Engine,
    kid: KernelId,
    spans: &mut Spans,
) {
    let desc = engine.kernel_desc(kid);
    let obs = KernelObs::from_stats(engine.kernel_stats(kid));
    let req = SelectionRequest {
        limit_cycles: cfg.us_to_cycles(pcfg.common.constraint_us),
        num_preempts: pcfg.task.sms_needed,
        ctx_bytes_per_tb: desc.block_context_bytes(),
        obs,
        flush_allowed: true,
        estimator: pcfg.common.estimator,
    };
    let snaps: Vec<_> = (0..cfg.num_sms)
        .map(|sm| engine.sm_snapshot(sm))
        .filter(|s| !s.blocks.is_empty())
        .collect();
    if snaps.is_empty() {
        return;
    }
    spans.span("select.select_preemptions", |_| {
        std::hint::black_box(select_preemptions(cfg, &req, &snaps));
    });
    let model = CostModel::new(cfg, req.ctx_bytes_per_tb, obs);
    for snap in &snaps {
        let max_executed = snap
            .blocks
            .iter()
            .map(|b| b.executed_insts)
            .max()
            .unwrap_or(0);
        for b in &snap.blocks {
            let tb = TbProgress {
                executed_insts: b.executed_insts,
                flushable: !b.past_idem_point,
            };
            spans.span("cost.estimate", |_| {
                std::hint::black_box(model.estimate(tb, snap.blocks.len(), max_executed));
            });
        }
    }
}
