//! Minimal CLI argument handling shared by the figure binaries.

use crate::pool;
use chimera::runner::cluster::Placement;
use chimera::{EstimatorConfig, RunCommon};

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
    /// Scale factor on horizons and budgets (1.0 = paper-shaped defaults;
    /// accepted in `(0, 1000]`).
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
    /// (`--devices <n>`, 1 to 64, serve/multiprog binaries). `1` (the default)
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

/// The usage line printed by `--help` and after a usage error.
const USAGE: &str = "usage: [--scale <f>] [--seed <n>] [--jobs <n>] \
                         [--par-shards <n>] [--trace <path>] [--events <path>] \
                         [--sanitize] [--race-check] [--estimator static|online] \
                         [--risk-quantile <q>] [--devices <n>] \
                         [--placement rr|least-loaded|tenant]";

/// Largest accepted `--scale`: 1000× the paper-shaped horizons already
/// takes host-days, and anything larger only postpones a hang.
const MAX_SCALE: f64 = 1_000.0;

/// Largest accepted `--devices`: the cluster tables sweep every device
/// count up to it, each device a full engine.
const MAX_DEVICES: usize = 64;

impl RunArgs {
    /// Parse from `std::env::args()`. On a usage error, print the message
    /// and the usage line to stderr and exit with status 2.
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1)).unwrap_or_else(|msg| {
            eprintln!("error: {msg}\n{USAGE}");
            std::process::exit(2)
        })
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
    ///
    /// # Errors
    ///
    /// Returns a one-line message naming the flag on an unknown flag, a
    /// missing or malformed value, or a value out of range. `--jobs` and
    /// `--par-shards` take any count: the pool runs at most one worker per
    /// cell and the engine at most one shard per SM.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut out = Self::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            let flag = a.as_str();
            match flag {
                "--scale" => {
                    out.scale = value(&mut it, flag, "a positive finite number")?;
                    if !(out.scale > 0.0 && out.scale <= MAX_SCALE) {
                        return Err(format!(
                            "--scale must be a positive finite number at most {MAX_SCALE}, got {}",
                            out.scale
                        ));
                    }
                }
                "--seed" => out.seed = value(&mut it, flag, "an unsigned 64-bit integer")?,
                "--jobs" => {
                    out.jobs = value(&mut it, flag, "a positive integer")?;
                    if out.jobs == 0 {
                        return Err("--jobs must be at least 1".into());
                    }
                }
                "--par-shards" => out.par_shards = value(&mut it, flag, "a non-negative integer")?,
                "--trace" => out.trace = Some(value(&mut it, flag, "a path")?),
                "--events" => out.events = Some(value(&mut it, flag, "a path")?),
                "--sanitize" => out.sanitize = true,
                "--race-check" => out.race_check = true,
                "--estimator" => out.estimator.mode = value(&mut it, flag, "`static` or `online`")?,
                "--risk-quantile" => {
                    let q: f64 = value(&mut it, flag, "a number")?;
                    if !(q > 0.0 && q <= 1.0) {
                        return Err(format!("--risk-quantile must be in (0, 1], got {q}"));
                    }
                    out.estimator.risk_quantile = q;
                }
                "--devices" => {
                    out.devices = value(&mut it, flag, "a positive integer")?;
                    if !(1..=MAX_DEVICES).contains(&out.devices) {
                        return Err(format!(
                            "--devices must be at least 1 and at most {MAX_DEVICES}, got {}",
                            out.devices
                        ));
                    }
                }
                "--placement" => {
                    let v: String = value(&mut it, flag, "a placement")?;
                    out.placement = Placement::parse(&v).ok_or_else(|| {
                        format!("--placement must be `rr`, `least-loaded` or `tenant`, got {v:?}")
                    })?;
                }
                "--help" | "-h" => {
                    eprintln!("{USAGE}");
                    std::process::exit(0);
                }
                other => return Err(format!("unknown argument: {other}")),
            }
        }
        Ok(out)
    }
}

/// The value after `flag`, parsed; `what` names the expected form.
fn value<T: std::str::FromStr>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> Result<T, String> {
    let v = it.next().ok_or_else(|| format!("{flag} needs {what}"))?;
    v.parse()
        .map_err(|_| format!("{flag} must be {what}, got {v:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera::EstimatorMode;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    fn ok(v: &[&str]) -> RunArgs {
        RunArgs::parse(s(v)).expect("valid arguments")
    }

    fn err(v: &[&str]) -> String {
        RunArgs::parse(s(v)).expect_err("invalid arguments")
    }

    #[test]
    fn defaults() {
        let a = ok(&[]);
        assert!((a.scale - 1.0).abs() < 1e-12);
        assert_eq!(a.seed, 42);
        assert!(a.jobs >= 1, "default jobs follows available parallelism");
        assert_eq!(a.jobs, pool::default_jobs());
    }

    #[test]
    fn parses_scale_and_seed() {
        let a = ok(&["--scale", "0.25", "--seed", "7"]);
        assert!((a.scale - 0.25).abs() < 1e-12);
        assert_eq!(a.seed, 7);
    }

    #[test]
    fn parses_jobs() {
        let a = ok(&["--jobs", "8"]);
        assert_eq!(a.jobs, 8);
        let a = ok(&["--jobs", "1", "--scale", "0.5"]);
        assert_eq!(a.jobs, 1);
    }

    #[test]
    fn rejects_infinite_scale() {
        assert!(err(&["--scale", "inf"]).contains("--scale must be a positive finite number"));
    }

    #[test]
    fn rejects_nan_scale() {
        assert!(err(&["--scale", "NaN"]).contains("--scale must be a positive finite number"));
    }

    #[test]
    fn rejects_zero_jobs() {
        assert!(err(&["--jobs", "0"]).contains("--jobs must be at least 1"));
    }

    #[test]
    fn parses_par_shards() {
        let a = ok(&[]);
        assert_eq!(a.par_shards, 0, "serial engine by default");
        let a = ok(&["--par-shards", "4"]);
        assert_eq!(a.par_shards, 4);
        let c = a.common(1_000.0, 15.0);
        assert_eq!(c.par_shards, 4);
        assert_eq!(c.exec_mode(), gpu_sim::ExecMode::Parallel { shards: 4 });
    }

    #[test]
    fn observability_sinks_default_off() {
        let a = ok(&[]);
        assert_eq!(a.trace, None);
        assert_eq!(a.events, None);
        assert!(!a.sanitize);
    }

    #[test]
    fn parses_sanitize_flag() {
        let a = ok(&["--sanitize", "--scale", "0.1"]);
        assert!(a.sanitize);
        assert!((a.scale - 0.1).abs() < 1e-12);
    }

    #[test]
    fn parses_race_check_flag_and_threads_it_through_common() {
        let a = ok(&[]);
        assert!(!a.race_check, "race sanitizer off by default");
        let a = ok(&["--race-check", "--par-shards", "2"]);
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
        let a = ok(&["--par-shards", "0"]);
        let c = a.common(1_000.0, 15.0);
        assert_eq!(c.exec_mode(), gpu_sim::ExecMode::Event);
        // A shard count above the SM count is accepted at the CLI and
        // clamped to one shard per SM by `Engine::set_exec_mode` — the
        // documented resolution, not an error.
        let a = ok(&["--par-shards", "9999"]);
        let mut e = gpu_sim::Engine::with_seed(gpu_sim::GpuConfig::tiny(), a.seed);
        let n = e.config().num_sms;
        e.set_exec_mode(a.common(1_000.0, 15.0).exec_mode());
        assert_eq!(e.exec_mode(), gpu_sim::ExecMode::Parallel { shards: n });
    }

    #[test]
    fn parses_trace_and_events_paths() {
        let a = ok(&["--trace", "out.json", "--events", "ev.jsonl"]);
        assert_eq!(a.trace.as_deref(), Some("out.json"));
        assert_eq!(a.events.as_deref(), Some("ev.jsonl"));
    }

    #[test]
    fn trace_requires_a_path() {
        assert!(err(&["--trace"]).contains("--trace needs a path"));
    }

    #[test]
    fn rejects_unknown() {
        assert!(err(&["--wat"]).contains("unknown argument"));
    }

    #[test]
    fn common_applies_scale_seed_and_estimator() {
        let a = ok(&["--scale", "0.5", "--seed", "9", "--estimator", "online"]);
        let c = a.common(24_000.0, 15.0);
        assert!((c.horizon_us - 12_000.0).abs() < 1e-9);
        assert_eq!(c.seed, 9);
        assert_eq!(c.constraint_us, 15.0);
        assert_eq!(c.estimator.mode, EstimatorMode::Online);
        assert!(!c.sanitize, "--sanitize drives a separate pass");
    }

    #[test]
    fn estimator_defaults_to_static() {
        let a = ok(&[]);
        assert_eq!(a.estimator, EstimatorConfig::default());
        assert_eq!(a.estimator.mode, EstimatorMode::Static);
    }

    #[test]
    fn parses_estimator_and_risk_quantile() {
        let a = ok(&["--estimator", "online", "--risk-quantile", "0.9"]);
        assert_eq!(a.estimator.mode, EstimatorMode::Online);
        assert!((a.estimator.risk_quantile - 0.9).abs() < 1e-12);
        let a = ok(&["--estimator", "static"]);
        assert_eq!(a.estimator.mode, EstimatorMode::Static);
    }

    #[test]
    fn rejects_unknown_estimator() {
        assert!(
            err(&["--estimator", "psychic"]).contains("--estimator must be `static` or `online`")
        );
    }

    #[test]
    fn rejects_out_of_range_quantile() {
        assert!(err(&["--risk-quantile", "1.5"]).contains("--risk-quantile must be in (0, 1]"));
    }

    #[test]
    fn devices_default_to_single_gpu() {
        let a = ok(&[]);
        assert_eq!(a.devices, 1);
        assert_eq!(a.placement, Placement::RoundRobin);
    }

    #[test]
    fn parses_devices_and_placement() {
        let a = ok(&["--devices", "4", "--placement", "least-loaded"]);
        assert_eq!(a.devices, 4);
        assert_eq!(a.placement, Placement::LeastLoaded);
        let a = ok(&["--placement", "tenant"]);
        assert_eq!(a.placement, Placement::TenantAffine);
        let a = ok(&["--placement", "rr"]);
        assert_eq!(a.placement, Placement::RoundRobin);
    }

    #[test]
    fn rejects_zero_devices() {
        assert!(err(&["--devices", "0"]).contains("--devices must be at least 1"));
    }

    #[test]
    fn rejects_unknown_placement() {
        assert!(err(&["--placement", "psychic"]).contains("--placement must be"));
    }

    /// Every numeric flag at zero, negative, NaN, infinite and huge values
    /// either parses to a documented setting (a zero seed, the serial
    /// engine, a worker or shard count the pool and engine clamp) or is a
    /// usage error naming the flag. Parse only: nothing runs.
    #[test]
    fn numeric_knob_sweep_never_panics() {
        let flags = [
            "--scale",
            "--seed",
            "--jobs",
            "--par-shards",
            "--risk-quantile",
            "--devices",
        ];
        let values = [
            "0",
            "-1",
            "nan",
            "NaN",
            "inf",
            "-inf",
            "1e300",
            "4294967296",
            "18446744073709551616",
        ];
        let accepted = [
            ("--seed", "0"),
            ("--seed", "4294967296"),
            ("--par-shards", "0"),
            ("--par-shards", "4294967296"),
            ("--jobs", "4294967296"),
        ];
        for flag in flags {
            for v in values {
                match RunArgs::parse(s(&[flag, v])) {
                    Ok(_) => assert!(accepted.contains(&(flag, v)), "{flag} {v} accepted"),
                    Err(msg) => {
                        assert!(!accepted.contains(&(flag, v)), "{flag} {v}: {msg}");
                        assert!(msg.starts_with(flag), "{flag} {v}: {msg}");
                    }
                }
            }
        }
    }
}
