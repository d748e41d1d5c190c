//! Minimal CLI argument handling shared by the figure binaries.

use crate::pool;
use chimera::runner::cluster::Placement;
use chimera::{EstimatorConfig, EstimatorMode, RunCommon};

/// Common knobs: `--scale <f64>` (shrinks horizons/budgets for quick runs),
/// `--seed <u64>`, `--jobs <usize>` (worker threads for the experiment
/// matrices; results are byte-identical for every value), `--par-shards
/// <usize>` (worker threads *inside* each simulated run — the engine's
/// parallel execution mode, also byte-identical for every value; see
/// `PARALLELISM.md`), plus the observability sinks `--trace <path>`
/// (Chrome-trace JSON of one representative traced run, openable in
/// `chrome://tracing`) and `--events <path>` (the same run's raw event log
/// as JSON lines). See `OBSERVABILITY.md` at the repository root for the
/// schema.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Scale factor on horizons and budgets (1.0 = paper-shaped defaults).
    pub scale: f64,
    /// Determinism seed.
    pub seed: u64,
    /// Worker threads for experiment matrices. Defaults to the machine's
    /// available parallelism; `1` runs every cell inline on the caller's
    /// thread. Output tables are identical either way.
    pub jobs: usize,
    /// SM shards for the engine's intra-run parallel mode
    /// ([`gpu_sim::ExecMode::Parallel`]). `0` (the default) keeps each run
    /// on the serial event calendar. Orthogonal to `jobs`: `jobs`
    /// parallelises *across* experiment cells, `par_shards` *within* one
    /// simulated run. Output is byte-identical for every value.
    pub par_shards: usize,
    /// Write a Chrome-trace JSON file of a representative traced run here.
    /// `None` (the default) keeps tracing disabled — zero cost.
    pub trace: Option<String>,
    /// Write the raw structured event log (JSON lines) here. `None` (the
    /// default) keeps the log disabled.
    pub events: Option<String>,
    /// Re-run the experiment's periodic slice with the dynamic
    /// [flush sanitizer](gpu_sim::FlushSanitizer) enabled and fail the
    /// process on any unsafe flush or static/dynamic disagreement. The
    /// sanitized pass is separate from the figure's own cells, so stdout
    /// stays byte-identical; the verdict goes to stderr.
    pub sanitize: bool,
    /// Run every cell with the [shard-race sanitizer](gpu_sim::RaceSanitizer)
    /// enabled (`--race-check`): any access to shared engine state during
    /// the parallel engine's pure Phase A that is not routed through the
    /// serial replay fails the process with a full violation report. The
    /// sanitizer never perturbs simulation output, so stdout stays
    /// byte-identical; it is zero-cost unless `--par-shards` puts the
    /// engine in parallel mode.
    pub race_check: bool,
    /// Drain/flush cost estimator: `--estimator static` (paper §4.1 bound,
    /// the default) or `--estimator online` (live per-kernel quantile
    /// tracking), with `--risk-quantile <q>` picking the online risk level.
    pub estimator: EstimatorConfig,
    /// Number of independent GPU devices behind the cluster front-end
    /// (`--devices <n>`, serve/multiprog binaries). `1` (the default)
    /// keeps the single-device paper-shaped output byte-identical; higher
    /// values append multi-device STP/ANTT/imbalance tables.
    pub devices: usize,
    /// Cluster placement policy (`--placement rr|least-loaded|tenant`),
    /// used only when `devices > 1`.
    pub placement: Placement,
}

impl Default for RunArgs {
    fn default() -> Self {
        RunArgs {
            scale: 1.0,
            seed: 42,
            jobs: pool::default_jobs(),
            par_shards: 0,
            trace: None,
            events: None,
            sanitize: false,
            race_check: false,
            estimator: EstimatorConfig::default(),
            devices: 1,
            placement: Placement::RoundRobin,
        }
    }
}

impl RunArgs {
    /// Parse from `std::env::args()`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// The shared runner knobs these args select, with the paper-shaped
    /// `horizon_us` scaled by `--scale` and the latency constraint taken
    /// verbatim. `sanitize` stays off here: the `--sanitize` flag drives a
    /// *separate* verification pass so stdout stays byte-identical.
    /// `race_check` *does* thread through: the race sanitizer never changes
    /// simulation output (it only observes), so the run itself carries it.
    pub fn common(&self, horizon_us: f64, constraint_us: f64) -> RunCommon {
        RunCommon::new(horizon_us * self.scale, constraint_us)
            .seed(self.seed)
            .estimator(self.estimator)
            .par_shards(self.par_shards)
            .race_check(self.race_check)
    }

    /// Parse from an iterator (testable).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Self {
        let mut out = Self::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--scale" => {
                    let v = it.next().expect("--scale needs a value");
                    out.scale = v.parse().expect("--scale must be a number");
                    assert!(
                        out.scale.is_finite() && out.scale > 0.0,
                        "--scale must be a positive finite number"
                    );
                }
                "--seed" => {
                    let v = it.next().expect("--seed needs a value");
                    out.seed = v.parse().expect("--seed must be an integer");
                }
                "--jobs" => {
                    let v = it.next().expect("--jobs needs a value");
                    out.jobs = v.parse().expect("--jobs must be a positive integer");
                    assert!(out.jobs >= 1, "--jobs must be at least 1");
                }
                "--par-shards" => {
                    let v = it.next().expect("--par-shards needs a value");
                    out.par_shards = v
                        .parse()
                        .expect("--par-shards must be a non-negative integer");
                }
                "--trace" => {
                    out.trace = Some(it.next().expect("--trace needs a path"));
                }
                "--events" => {
                    out.events = Some(it.next().expect("--events needs a path"));
                }
                "--sanitize" => {
                    out.sanitize = true;
                }
                "--race-check" => {
                    out.race_check = true;
                }
                "--estimator" => {
                    let v = it.next().expect("--estimator needs a value");
                    out.estimator.mode = v
                        .parse::<EstimatorMode>()
                        .expect("--estimator must be `static` or `online`");
                }
                "--risk-quantile" => {
                    let v = it.next().expect("--risk-quantile needs a value");
                    let q: f64 = v.parse().expect("--risk-quantile must be a number");
                    assert!(q > 0.0 && q <= 1.0, "--risk-quantile must be in (0, 1]");
                    out.estimator.risk_quantile = q;
                }
                "--devices" => {
                    let v = it.next().expect("--devices needs a value");
                    out.devices = v.parse().expect("--devices must be a positive integer");
                    assert!(out.devices >= 1, "--devices must be at least 1");
                }
                "--placement" => {
                    let v = it.next().expect("--placement needs a value");
                    out.placement = Placement::parse(&v).unwrap_or_else(|| {
                        panic!("--placement must be `rr`, `least-loaded` or `tenant`, got {v:?}")
                    });
                }
                "--help" | "-h" => {
                    eprintln!(
                        "usage: [--scale <f>] [--seed <n>] [--jobs <n>] \
                         [--par-shards <n>] [--trace <path>] [--events <path>] \
                         [--sanitize] [--race-check] [--estimator static|online] \
                         [--risk-quantile <q>] [--devices <n>] \
                         [--placement rr|least-loaded|tenant]"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown argument: {other}"),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn defaults() {
        let a = RunArgs::parse(s(&[]));
        assert!((a.scale - 1.0).abs() < 1e-12);
        assert_eq!(a.seed, 42);
        assert!(a.jobs >= 1, "default jobs follows available parallelism");
        assert_eq!(a.jobs, pool::default_jobs());
    }

    #[test]
    fn parses_scale_and_seed() {
        let a = RunArgs::parse(s(&["--scale", "0.25", "--seed", "7"]));
        assert!((a.scale - 0.25).abs() < 1e-12);
        assert_eq!(a.seed, 7);
    }

    #[test]
    fn parses_jobs() {
        let a = RunArgs::parse(s(&["--jobs", "8"]));
        assert_eq!(a.jobs, 8);
        let a = RunArgs::parse(s(&["--jobs", "1", "--scale", "0.5"]));
        assert_eq!(a.jobs, 1);
    }

    #[test]
    #[should_panic(expected = "--scale must be a positive finite number")]
    fn rejects_infinite_scale() {
        RunArgs::parse(s(&["--scale", "inf"]));
    }

    #[test]
    #[should_panic(expected = "--scale must be a positive finite number")]
    fn rejects_nan_scale() {
        RunArgs::parse(s(&["--scale", "NaN"]));
    }

    #[test]
    #[should_panic(expected = "--jobs must be at least 1")]
    fn rejects_zero_jobs() {
        RunArgs::parse(s(&["--jobs", "0"]));
    }

    #[test]
    fn parses_par_shards() {
        let a = RunArgs::parse(s(&[]));
        assert_eq!(a.par_shards, 0, "serial engine by default");
        let a = RunArgs::parse(s(&["--par-shards", "4"]));
        assert_eq!(a.par_shards, 4);
        let c = a.common(1_000.0, 15.0);
        assert_eq!(c.par_shards, 4);
        assert_eq!(c.exec_mode(), gpu_sim::ExecMode::Parallel { shards: 4 });
    }

    #[test]
    fn observability_sinks_default_off() {
        let a = RunArgs::parse(s(&[]));
        assert_eq!(a.trace, None);
        assert_eq!(a.events, None);
        assert!(!a.sanitize);
    }

    #[test]
    fn parses_sanitize_flag() {
        let a = RunArgs::parse(s(&["--sanitize", "--scale", "0.1"]));
        assert!(a.sanitize);
        assert!((a.scale - 0.1).abs() < 1e-12);
    }

    #[test]
    fn parses_race_check_flag_and_threads_it_through_common() {
        let a = RunArgs::parse(s(&[]));
        assert!(!a.race_check, "race sanitizer off by default");
        let a = RunArgs::parse(s(&["--race-check", "--par-shards", "2"]));
        assert!(a.race_check);
        let c = a.common(1_000.0, 15.0);
        assert!(
            c.race_check,
            "unlike --sanitize, --race-check rides the run itself"
        );
    }

    #[test]
    fn par_shards_zero_is_serial_and_oversized_counts_clamp() {
        // `--par-shards 0` (the default) keeps the serial event calendar.
        let a = RunArgs::parse(s(&["--par-shards", "0"]));
        let c = a.common(1_000.0, 15.0);
        assert_eq!(c.exec_mode(), gpu_sim::ExecMode::Event);
        // A shard count above the SM count is accepted at the CLI and
        // clamped to one shard per SM by `Engine::set_exec_mode` — the
        // documented resolution, not an error.
        let a = RunArgs::parse(s(&["--par-shards", "9999"]));
        let mut e = gpu_sim::Engine::with_seed(gpu_sim::GpuConfig::tiny(), a.seed);
        let n = e.config().num_sms;
        e.set_exec_mode(a.common(1_000.0, 15.0).exec_mode());
        assert_eq!(e.exec_mode(), gpu_sim::ExecMode::Parallel { shards: n });
    }

    #[test]
    fn parses_trace_and_events_paths() {
        let a = RunArgs::parse(s(&["--trace", "out.json", "--events", "ev.jsonl"]));
        assert_eq!(a.trace.as_deref(), Some("out.json"));
        assert_eq!(a.events.as_deref(), Some("ev.jsonl"));
    }

    #[test]
    #[should_panic(expected = "--trace needs a path")]
    fn trace_requires_a_path() {
        RunArgs::parse(s(&["--trace"]));
    }

    #[test]
    #[should_panic(expected = "unknown argument")]
    fn rejects_unknown() {
        RunArgs::parse(s(&["--wat"]));
    }

    #[test]
    fn common_applies_scale_seed_and_estimator() {
        let a = RunArgs::parse(s(&[
            "--scale",
            "0.5",
            "--seed",
            "9",
            "--estimator",
            "online",
        ]));
        let c = a.common(24_000.0, 15.0);
        assert!((c.horizon_us - 12_000.0).abs() < 1e-9);
        assert_eq!(c.seed, 9);
        assert_eq!(c.constraint_us, 15.0);
        assert_eq!(c.estimator.mode, EstimatorMode::Online);
        assert!(!c.sanitize, "--sanitize drives a separate pass");
    }

    #[test]
    fn estimator_defaults_to_static() {
        let a = RunArgs::parse(s(&[]));
        assert_eq!(a.estimator, EstimatorConfig::default());
        assert_eq!(a.estimator.mode, EstimatorMode::Static);
    }

    #[test]
    fn parses_estimator_and_risk_quantile() {
        let a = RunArgs::parse(s(&["--estimator", "online", "--risk-quantile", "0.9"]));
        assert_eq!(a.estimator.mode, EstimatorMode::Online);
        assert!((a.estimator.risk_quantile - 0.9).abs() < 1e-12);
        let a = RunArgs::parse(s(&["--estimator", "static"]));
        assert_eq!(a.estimator.mode, EstimatorMode::Static);
    }

    #[test]
    #[should_panic(expected = "--estimator must be `static` or `online`")]
    fn rejects_unknown_estimator() {
        RunArgs::parse(s(&["--estimator", "psychic"]));
    }

    #[test]
    #[should_panic(expected = "--risk-quantile must be in (0, 1]")]
    fn rejects_out_of_range_quantile() {
        RunArgs::parse(s(&["--risk-quantile", "1.5"]));
    }

    #[test]
    fn devices_default_to_single_gpu() {
        let a = RunArgs::parse(s(&[]));
        assert_eq!(a.devices, 1);
        assert_eq!(a.placement, Placement::RoundRobin);
    }

    #[test]
    fn parses_devices_and_placement() {
        let a = RunArgs::parse(s(&["--devices", "4", "--placement", "least-loaded"]));
        assert_eq!(a.devices, 4);
        assert_eq!(a.placement, Placement::LeastLoaded);
        let a = RunArgs::parse(s(&["--placement", "tenant"]));
        assert_eq!(a.placement, Placement::TenantAffine);
        let a = RunArgs::parse(s(&["--placement", "rr"]));
        assert_eq!(a.placement, Placement::RoundRobin);
    }

    #[test]
    #[should_panic(expected = "--devices must be at least 1")]
    fn rejects_zero_devices() {
        RunArgs::parse(s(&["--devices", "0"]));
    }

    #[test]
    #[should_panic(expected = "--placement must be")]
    fn rejects_unknown_placement() {
        RunArgs::parse(s(&["--placement", "psychic"]));
    }
}
