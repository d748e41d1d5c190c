//! `multiprog_pairs`: the §4.4 case study behind Figures 10 and 11. LUD,
//! which launches many short iterative kernels, shares the GPU with each
//! other Table 2 benchmark under Chimera at 30 µs; solo runs of every
//! benchmark give the baselines ANTT and STP need.

use crate::host::{maybe_span, Spans};
use crate::layers::setup_spans;
use crate::{Layers, Pass, Workload};
use chimera::metrics::{antt, stp};
use chimera::policy::Policy;
use chimera::runner::multiprog::{run_pair, MultiprogConfig, PairOutcome};
use chimera::runner::solo::{run_solo, SoloResult};
use chimera::runner::Job;
use gpu_sim::{Engine, GpuConfig};
use std::fmt::Write as _;
use workloads::{Benchmark, Suite, SuiteOptions};

/// The figure binaries' `--scale` this workload runs at: it sets the grid
/// sizes, LUD's iteration count and the instruction budget, as
/// `multiprog_suite` and `multiprog_matrix` derive them.
pub const SCALE: f64 = 1.0;

/// Chimera's latency constraint in §4.4, µs.
pub const CONSTRAINT_US: f64 = 30.0;

pub struct MultiprogPairs {
    suite: Suite,
    mcfg: MultiprogConfig,
    solo_horizon: u64,
    seed: u64,
}

fn suite_options() -> SuiteOptions {
    SuiteOptions {
        instrumented: true,
        grid_scale: 0.5 * SCALE.min(1.0),
        lud_iterations: ((12.0 * SCALE.min(1.0)).round() as u32).max(5),
    }
}

fn config(seed: u64) -> MultiprogConfig {
    MultiprogConfig::paper_default()
        .horizon_us(2_000_000.0)
        .constraint_us(CONSTRAINT_US)
        .seed(seed)
        .budget_insts((2_000_000.0 * SCALE) as u64)
}

impl MultiprogPairs {
    pub fn new(seed: u64) -> Self {
        let suite = Suite::with_options(GpuConfig::fermi(), suite_options());
        let solo_horizon = suite.config().us_to_cycles(200_000.0);
        MultiprogPairs {
            suite,
            mcfg: config(seed),
            solo_horizon,
            seed,
        }
    }

    fn lud(&self) -> &Benchmark {
        self.suite.require("LUD")
    }

    fn partners(&self) -> impl Iterator<Item = &Benchmark> {
        self.suite.benchmarks().iter().filter(|b| b.name() != "LUD")
    }

    /// The solo baselines (LUD first) and one Chimera pair run per partner,
    /// each call inside a span of `spans` when the pass is traced.
    fn run(&self, mut spans: Option<&mut Spans>) -> Pass {
        let cfg = self.suite.config();
        let policy = Policy::chimera_us(CONSTRAINT_US);
        let mut pass = Pass::default();
        let mut solos: Vec<SoloResult> = Vec::new();
        for bench in std::iter::once(self.lud()).chain(self.partners()) {
            let r = pass.call(
                || {
                    maybe_span(&mut spans, "runner.run_solo", || {
                        run_solo(
                            cfg,
                            bench,
                            Some(self.mcfg.budget_insts),
                            self.solo_horizon,
                            self.seed,
                        )
                    })
                },
                |r| r.cycles,
            );
            pass.warp_insts += r.insts;
            pass.check(r.cycles > 0 && r.insts > 0, || {
                format!("{} solo: no progress", bench.name())
            });
            solos.push(r);
        }
        // The pair runner stops once both jobs have reached their budget.
        let horizon = cfg.us_to_cycles(self.mcfg.common.horizon_us);
        let last_cycle = |out: &PairOutcome| {
            out.jobs
                .iter()
                .filter_map(|j| j.t_multi)
                .max()
                .unwrap_or(horizon)
        };
        let mut pairs: Vec<(String, PairOutcome)> = Vec::new();
        for other in self.partners() {
            let out = pass.call(
                || {
                    maybe_span(&mut spans, "runner.run_pair", || {
                        run_pair(cfg, self.lud(), other, policy, &self.mcfg)
                    })
                },
                last_cycle,
            );
            pairs.push((other.name().to_string(), out));
        }
        let (mut antts, mut stps) = (Vec::new(), Vec::new());
        let mut preemptions = 0usize;
        let mut fp = String::new();
        for ((name, out), solo) in pairs.iter().zip(&solos[1..]) {
            let multi = |i: usize| out.jobs[i].t_multi.unwrap_or(horizon) as f64;
            pass.warp_insts += out.jobs.iter().map(|j| j.insts).sum::<u64>();
            pass.check(out.jobs.iter().all(|j| j.t_multi.is_some()), || {
                format!("LUD/{name}: a job missed its budget within the horizon")
            });
            let singles = [solos[0].cycles as f64, solo.cycles as f64];
            let pair = [(multi(0), singles[0]), (multi(1), singles[1])];
            let (a, s) = (antt(&pair), stp(&pair));
            pass.check(a.is_finite() && a > 0.0 && s.is_finite() && s > 0.0, || {
                format!("LUD/{name}: ANTT {a} or STP {s} is not finite and positive")
            });
            antts.push(a);
            stps.push(s);
            preemptions += out.preemptions;
            let _ = writeln!(
                fp,
                "LUD/{name} {:?} preemptions={}",
                out.jobs, out.preemptions
            );
        }
        for (bench, solo) in std::iter::once(self.lud())
            .chain(self.partners())
            .zip(&solos)
        {
            let _ = writeln!(fp, "{} solo {solo:?}", bench.name());
        }
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
        pass.sim = vec![
            ("antt", mean(&antts)),
            ("multiprog.stp", mean(&stps)),
            ("multiprog.preemptions", preemptions as f64),
        ];
        pass.fingerprint = fp;
        pass
    }
}

impl Workload for MultiprogPairs {
    fn setup(&self) {
        let suite = Suite::with_options(GpuConfig::fermi(), suite_options());
        let cfg = suite.config();
        let mcfg = config(self.seed);
        let lud = suite.require("LUD");
        let launch = |benches: &[&Benchmark]| {
            let mut engine = Engine::with_seed(cfg.clone(), mcfg.common.seed);
            engine.set_exec_mode(mcfg.common.exec_mode());
            for b in benches {
                Job::new((*b).clone(), Some(mcfg.budget_insts)).ensure_running(&mut engine);
            }
            std::hint::black_box(engine);
        };
        for b in suite.benchmarks() {
            launch(&[b]);
            if b.name() != "LUD" {
                launch(&[lud, b]);
            }
        }
    }

    fn pass(&self) -> Pass {
        self.run(None)
    }

    fn probe(&self, spans: &mut Spans) -> Layers {
        let mut layers = Layers {
            metrics: setup_spans(spans, suite_options()),
            ..Layers::default()
        };
        let (mut insts, mut secs) = (0u64, 0.0f64);
        for other in self.partners() {
            let (i, s) = self.bare_pair(other, spans);
            insts += i;
            secs += s;
        }
        layers.bare_ns_per_warp_inst = 1e9 * secs / insts as f64;
        layers
    }

    fn traced_pass(&self, spans: &mut Spans) -> (Pass, Layers) {
        let pass = self.run(Some(spans));
        let preemptions = pass
            .sim
            .iter()
            .find(|(n, _)| *n == "multiprog.preemptions")
            .map_or(0.0, |(_, v)| *v);
        let layers = Layers {
            metrics: vec![("preempt.sm_requests", preemptions)],
            ..Layers::default()
        };
        (pass, layers)
    }
}

impl MultiprogPairs {
    /// LUD and `other` on a fixed even split of the SMs with no policy and
    /// no repartitioning, stepped like the pair runner until both reach the
    /// budget. Returns the warp instructions issued and the seconds spent
    /// in `Engine::run_until`.
    fn bare_pair(&self, other: &Benchmark, spans: &mut Spans) -> (u64, f64) {
        let cfg = self.suite.config();
        let mut engine = Engine::with_seed(cfg.clone(), self.seed);
        engine.set_exec_mode(self.mcfg.common.exec_mode());
        engine.set_break_on_kernel_finish(true);
        let budget = self.mcfg.budget_insts;
        let mut jobs = [
            Job::new(self.lud().clone(), Some(budget)),
            Job::new(other.clone(), Some(budget)),
        ];
        let horizon = cfg.us_to_cycles(self.mcfg.common.horizon_us);
        let step = cfg.us_to_cycles(10.0);
        let half = cfg.num_sms / 2;
        let before = spans.total_s("engine.run_until");
        while engine.cycle() < horizon {
            for j in jobs.iter_mut() {
                j.ensure_running(&mut engine);
            }
            for sm in 0..cfg.num_sms {
                let k = jobs[usize::from(sm >= half)].current();
                if engine.sm_assigned(sm) != k {
                    engine.assign_sm(sm, k);
                }
            }
            let target = engine.cycle() + step;
            spans.span("engine.run_until", |_| engine.run_until(target));
            let done0 = jobs[0].check_measured(&engine);
            let done1 = jobs[1].check_measured(&engine);
            if done0 && done1 {
                break;
            }
        }
        let secs = spans.total_s("engine.run_until") - before;
        (engine.gpu_stats().total_issued_insts, secs)
    }
}
