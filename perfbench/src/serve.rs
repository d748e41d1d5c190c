//! `serve_overload`: open-loop Poisson arrivals through the serving front
//! end and `GpuScheduler` on one device, at 1.5× the analytic saturation
//! rate of the standard workload, so admission sheds most arrivals. The
//! loop runs in simulated time: arrivals are never late.
//!
//! A pass is several independent replications, each on its own seed drawn
//! from the workload seed. Overload makes one long run's outcome hinge on a
//! few long busy periods; independent replications average that out at the
//! same simulated cost.

use crate::host::{maybe_span, median, Spans};
use crate::layers::EngineCounts;
use crate::{Layers, Pass, Workload};
use chimera::obs::drain_accuracy;
use chimera::runner::serve::{run_serve_traced, ArrivalProcess, ServeConfig, ServeResult};
use chimera::scheduler::GpuScheduler;
use gpu_sim::rng::hash_combine;
use gpu_sim::GpuConfig;
use std::fmt::Write as _;
use workloads::ServeWorkload;

/// Offered load as a multiple of the workload's analytic saturation rate.
pub const LOAD: f64 = 1.5;

/// Independent replications per pass.
pub const REPLICAS: u64 = 8;

/// Simulated horizon of each replication, µs.
pub const HORIZON_US: f64 = 10_000.0;

/// Event-log ring of the traced run: holds every event of the run.
const EVENT_CAPACITY: usize = 1 << 21;

pub struct ServeOverload {
    seed: u64,
    cfg: GpuConfig,
    wl: ServeWorkload,
    replicas: Vec<ServeConfig>,
}

/// The `serve` binary's configuration at this workload's load and horizon.
fn config(wl: &ServeWorkload, seed: u64) -> ServeConfig {
    ServeConfig::paper_default()
        .horizon_us(HORIZON_US)
        .seed(seed)
        .arrivals(ArrivalProcess::poisson(LOAD * wl.saturation_per_ms()))
}

/// The replications' configurations, one seed each.
fn replicas(wl: &ServeWorkload, seed: u64) -> Vec<ServeConfig> {
    (0..REPLICAS)
        .map(|k| config(wl, hash_combine(&[seed, k])))
        .collect()
}

impl ServeOverload {
    pub fn new(seed: u64) -> Self {
        let cfg = GpuConfig::fermi();
        let wl = ServeWorkload::standard(&cfg);
        let replicas = replicas(&wl, seed);
        ServeOverload {
            seed,
            cfg,
            wl,
            replicas,
        }
    }

    /// Every replication with an event ring of `capacity` (0: untraced),
    /// handing each finished scheduler to `inspect` before dropping it.
    fn run(
        &self,
        capacity: usize,
        mut spans: Option<&mut Spans>,
        mut inspect: impl FnMut(&GpuScheduler),
    ) -> (Pass, Vec<ServeResult>) {
        let mut pass = Pass::default();
        let mut runs = Vec::new();
        for scfg in &self.replicas {
            let (r, gpu) = pass.call(
                || {
                    maybe_span(&mut spans, "runner.run_serve_traced", || {
                        run_serve_traced(&self.cfg, &self.wl, scfg, capacity)
                    })
                },
                |(_, gpu)| gpu.cycle(),
            );
            pass.warp_insts += gpu.engine().gpu_stats().total_issued_insts;
            check(&mut pass, &r);
            inspect(&gpu);
            let _ = writeln!(pass.fingerprint, "{r:?}");
            runs.push(r);
        }
        let sum = |f: fn(&ServeResult) -> u64| runs.iter().map(f).sum::<u64>();
        let (offered, met, completed) = (
            sum(|r| r.offered),
            sum(|r| r.deadline_met),
            sum(|r| r.completed),
        );
        // Completion-weighted ANTT over every tenant of every replication.
        let weighted: f64 = runs
            .iter()
            .flat_map(|r| &r.tenants)
            .filter_map(|t| t.antt.map(|a| a * t.completed as f64))
            .sum();
        let antt = weighted / completed.max(1) as f64;
        pass.check(antt.is_finite() && antt > 0.0, || {
            format!("ANTT {antt} is not positive")
        });
        let slack: Vec<f64> = runs.iter().filter_map(|r| r.slack_p50_us).collect();
        pass.sim = vec![
            ("antt", antt),
            (
                "serve.goodput_per_s",
                runs.iter().map(|r| r.goodput_per_s).sum::<f64>() / runs.len() as f64,
            ),
            (
                "serve.request_miss_pct",
                100.0 * offered.saturating_sub(met) as f64 / offered.max(1) as f64,
            ),
            ("serve.slack_p50_us", median(&slack)),
            ("serve.slack_p50_samples", completed as f64),
        ];
        (pass, runs)
    }
}

/// The serving result's accounting identities.
fn check(pass: &mut Pass, r: &ServeResult) {
    pass.check(r.offered > 0, || "no requests offered".into());
    pass.check(
        r.offered == r.admitted + r.shed_queue_full + r.shed_infeasible,
        || {
            format!(
                "offered {} != admitted + shed at admission ({r:?})",
                r.offered
            )
        },
    );
    pass.check(
        r.admitted == r.completed + r.shed_late + r.unfinished,
        || {
            format!(
                "admitted {} != completed + late + unfinished ({r:?})",
                r.admitted
            )
        },
    );
    pass.check(r.completed == r.deadline_met + r.violations, || {
        format!("completed {} != met + violated ({r:?})", r.completed)
    });
}

impl Workload for ServeOverload {
    fn setup(&self) {
        let cfg = GpuConfig::fermi();
        let wl = ServeWorkload::standard(&cfg);
        for scfg in replicas(&wl, self.seed) {
            let arrivals = scfg
                .arrivals
                .generate(scfg.common.seed, scfg.common.horizon_us);
            let mut gpu = GpuScheduler::builder(cfg.clone())
                .policy(scfg.effective_policy())
                .partition(scfg.partition.clone())
                .estimator(scfg.common.estimator)
                .seed(scfg.common.seed)
                .par_shards(scfg.common.par_shards)
                .build();
            let lanes: Vec<_> = (0..scfg.lanes).map(|_| gpu.add_process()).collect();
            gpu.submit(lanes[0], wl.classes[0].kernel(0));
            std::hint::black_box((arrivals, gpu));
        }
    }

    fn pass(&self) -> Pass {
        self.run(0, None, |_| {}).0
    }

    fn probe(&self, spans: &mut Spans) -> Layers {
        const REPS: usize = 50;
        let mut arrivals = 0usize;
        for _ in 0..REPS {
            arrivals = spans.span("serve.arrivals_generate", |_| {
                self.replicas
                    .iter()
                    .map(|c| {
                        c.arrivals
                            .generate(c.common.seed, c.common.horizon_us)
                            .len()
                    })
                    .sum()
            });
        }
        Layers {
            metrics: vec![
                (
                    "serve.arrivals_generate_us",
                    median(&spans.durations_us("serve.arrivals_generate")),
                ),
                ("serve.arrivals", arrivals as f64),
            ],
            ..Layers::default()
        }
    }

    fn traced_pass(&self, spans: &mut Spans) -> (Pass, Layers) {
        let mut counts = EngineCounts::default();
        let (mut pass, runs) = self.run(EVENT_CAPACITY, Some(spans), |gpu| {
            counts.add(gpu.engine());
            counts.add_accuracy(drain_accuracy(gpu.engine()));
        });
        let dropped = counts.dropped_events();
        pass.check(dropped == 0, || {
            format!("event ring dropped {dropped} events")
        });
        let sum = |f: fn(&ServeResult) -> u64| runs.iter().map(f).sum::<u64>();
        let mut metrics = counts.metrics();
        metrics.extend([
            ("serve.offered", sum(|r| r.offered) as f64),
            ("serve.admitted", sum(|r| r.admitted) as f64),
            ("serve.shed_queue_full", sum(|r| r.shed_queue_full) as f64),
            ("serve.shed_infeasible", sum(|r| r.shed_infeasible) as f64),
            ("serve.shed_late", sum(|r| r.shed_late) as f64),
            (
                "serve.max_queue_depth",
                runs.iter().map(|r| r.max_queue_depth).max().unwrap_or(0) as f64,
            ),
        ]);
        let layers = Layers {
            metrics,
            offered: sum(|r| r.offered),
            ..Layers::default()
        };
        (pass, layers)
    }
}
