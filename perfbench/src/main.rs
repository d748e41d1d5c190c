//! The reproduction's benchmark: one workload per process, end-to-end
//! metrics from untraced runner calls, per-layer metrics from a separate
//! traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload periodic_deadline --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`. Lines
//! before it print the same metrics for a reader, with the run's context.
//! See `perfbench/README.md` for the workloads and the metric map.

mod host;
mod layers;
mod multiprog;
mod periodic;
mod serve;

use host::{median, timed, Budget, Calibration, Elapsed, Spans};
use std::fmt::Write as _;

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 4] = [
    ("sim_cycles_per_s", "cycles/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("antt", "x"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A layer
/// that does not run in a workload reports 0 there.
const PER_LAYER: [(&str, &str); 51] = [
    ("workloads.suite_build_us", "us"),
    ("idem.instrument_us", "us"),
    ("serve.arrivals_generate_us", "us"),
    ("serve.arrivals", "count"),
    ("engine.sim_cycles", "cycles"),
    ("engine.warp_insts", "count"),
    ("engine.ns_per_warp_inst", "ns"),
    ("engine.bare_ns_per_warp_inst", "ns"),
    ("runner.policy_share_pct", "%"),
    ("sm.blocks_completed", "count"),
    ("mem.bytes_served", "bytes"),
    ("mem.requests_retired", "count"),
    ("mem.partition_skew", "x"),
    ("mem.bytes_per_warp_inst", "bytes"),
    ("preempt.sm_requests", "count"),
    ("preempt.blocks_switched", "count"),
    ("preempt.blocks_drained", "count"),
    ("preempt.blocks_flushed", "count"),
    ("preempt.wasted_flush_insts", "count"),
    ("select.decisions", "count"),
    ("select.call_us_p50", "us"),
    ("select.call_us_tail", "us"),
    ("select.share_pct", "%"),
    ("cost.estimate_us_p50", "us"),
    ("cost.estimator_updates", "count"),
    ("cost.drain_mare_pct", "%"),
    ("serve.offered", "count"),
    ("serve.admitted", "count"),
    ("serve.shed_queue_full", "count"),
    ("serve.shed_infeasible", "count"),
    ("serve.shed_late", "count"),
    ("serve.max_queue_depth", "count"),
    ("serve.host_us_per_request", "us"),
    ("host.cpu_wall_ratio", "x"),
    ("host.slowdown", "x"),
    ("host.wall_sim_cycles_per_s", "cycles/s"),
    ("host.cores", "count"),
    ("trace.overhead_pct", "%"),
    ("periodic.deadline_violation_pct", "%"),
    ("periodic.throughput_overhead_pct", "%"),
    ("periodic.preempt_latency_p50_us", "us"),
    ("periodic.preempt_latency_tail_us", "us"),
    ("periodic.preempt_latency_tail_pctile", "%"),
    ("periodic.preempt_latency_samples", "count"),
    ("multiprog.stp", "x"),
    ("multiprog.preemptions", "count"),
    ("serve.goodput_per_s", "1/s"),
    ("serve.request_miss_pct", "%"),
    ("serve.slack_p50_us", "us"),
    ("serve.slack_p50_samples", "count"),
    ("runner.calls", "count"),
];

/// Runner time between two calibrations of the host's speed, seconds.
const CALIBRATE_EVERY_S: f64 = 0.2;

/// A named value. Units come from [`END_TO_END`] / [`PER_LAYER`].
pub type Metric = (&'static str, f64);

/// One pass over a workload's runner calls.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Simulated GPU cycles the runner calls advanced.
    pub sim_cycles: u64,
    /// Warp instructions the runner calls issued.
    pub warp_insts: u64,
    /// Runner calls made.
    pub calls: u64,
    /// Wall time spent inside the runner calls, seconds.
    pub runner_s: f64,
    /// Calibration units run between runner calls.
    pub calibration: Calibration,
    /// Runner time since the last calibration, seconds.
    uncalibrated_s: f64,
    /// Runner calls whose outputs failed a check, with the reason.
    pub failures: Vec<String>,
    /// The workload's simulated metrics (the paper's figures and `antt`).
    pub sim: Vec<Metric>,
    /// Every simulated output of the pass, rendered deterministically: two
    /// passes with one seed must agree on it byte for byte.
    pub fingerprint: String,
}

impl Pass {
    /// Make one runner call and time it; `cycles` reads the simulated
    /// cycles the call advanced from its result. Once the calls since the
    /// last calibration have run for [`CALIBRATE_EVERY_S`], calibrate the
    /// host's speed. A calibration runs at least one unit, so calibrating
    /// after every call would overweight it behind short calls.
    pub fn call<T>(&mut self, f: impl FnOnce() -> T, cycles: impl FnOnce(&T) -> u64) -> T {
        let (out, e) = timed(f);
        self.calls += 1;
        self.sim_cycles += cycles(&out);
        self.runner_s += e.wall_s;
        self.uncalibrated_s += e.wall_s;
        if self.uncalibrated_s >= CALIBRATE_EVERY_S {
            self.calibration
                .add(Calibration::after(self.uncalibrated_s));
            self.uncalibrated_s = 0.0;
        }
        out
    }

    /// Time inside the runner calls at reference host speed, seconds.
    pub fn normalised_runner_s(&self) -> f64 {
        self.runner_s / self.calibration.slowdown()
    }

    /// Record a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// What a traced pass measured, besides its untraced-equivalent [`Pass`].
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Per-layer metrics read directly from spans, results or the event log.
    pub metrics: Vec<Metric>,
    /// Engine time per warp instruction with no policy attached, ns
    /// (0 where not measured).
    pub bare_ns_per_warp_inst: f64,
    /// Algorithm 1 selection calls the runners made.
    pub select_calls: u64,
    /// Median wall time of one selection call, µs.
    pub select_call_us_p50: f64,
    /// Requests offered to the serving front end.
    pub offered: u64,
}

/// A workload: a fixed set of runner calls made from the seed.
pub trait Workload {
    /// The set-up path the workload pays before its first simulated cycle.
    fn setup(&self);
    /// One untraced pass over the runner calls.
    fn pass(&self) -> Pass;
    /// Spans around the layers' set-up and stand-alone calls, made once per
    /// traced run: suite build, instrumentation, arrivals, bare engine runs
    /// and Algorithm 1 selection.
    fn probe(&self, spans: &mut Spans) -> Layers;
    /// One traced pass: the runner calls with the event log on, read back.
    fn traced_pass(&self, spans: &mut Spans) -> (Pass, Layers);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| "--seed must be an integer")?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| "--seconds must be a number")?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Seconds spent repeating the set-up path behind `setup_s`; the median
/// of many warm repetitions is steady where a single cold shot is not.
const SETUP_SECONDS: f64 = 1.0;

/// Untraced passes run at least this many times, then for as long as
/// another pass ends nearer `seconds` than stopping. Host metrics are
/// medians over the passes.
const MIN_PASSES: usize = 1;

/// Median over `passes` of `f` of each pass.
fn pass_median(passes: &[(Pass, Elapsed)], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&passes.iter().map(|(p, _)| f(p)).collect::<Vec<_>>())
}

fn untraced(w: &dyn Workload, args: &Args, out: &mut Output) {
    // A warm-up pass before any calibration unit has run: lazy set-up and
    // caches fill, and the peak RSS is the workload's own, without the
    // calibration's buffers.
    let warm_up = timed(|| w.pass());
    let peak_rss_mb = host::peak_rss_mb();
    host::start_calibrating();
    let setup_s = host::median_call_s(SETUP_SECONDS, || w.setup());
    let budget = Budget::start(args.seconds);
    let mut passes: Vec<(Pass, Elapsed)> = Vec::new();
    while passes.len() < MIN_PASSES || budget.room_for(mean_wall(&passes)) {
        passes.push(timed(|| w.pass()));
    }
    out.account(std::slice::from_ref(&warm_up));
    out.account(&passes);
    let reference = &passes[0].0;
    out.metric(
        "sim_cycles_per_s",
        reference.sim_cycles as f64 / pass_median(&passes, Pass::normalised_runner_s),
    );
    out.metric("setup_s", setup_s);
    out.metric("peak_rss_mb", peak_rss_mb);
    out.metric("antt", sim_value(reference, "antt"));
    let wall: f64 = passes.iter().map(|(_, e)| e.wall_s).sum();
    let cpu: f64 = passes.iter().map(|(_, e)| e.cpu_s).sum();
    out.note(format!(
        "{} passes of {} runner calls, {wall:.2} s wall, cpu/wall {:.3}, \
         host {:.3}x slower than the reference",
        passes.len(),
        reference.calls,
        cpu / wall,
        pass_median(&passes, |p| p.calibration.slowdown())
    ));
    let per_pass: Vec<String> = passes
        .iter()
        .map(|(p, _)| {
            format!(
                "{:.4e} ({:.3}x)",
                p.sim_cycles as f64 / p.normalised_runner_s(),
                p.calibration.slowdown()
            )
        })
        .collect();
    out.note(format!(
        "per pass: cycles/s at reference speed (slowdown) {}",
        per_pass.join(", ")
    ));
    out.note_sim(reference);
}

fn traced(w: &dyn Workload, args: &Args, out: &mut Output) -> Spans {
    host::start_calibrating();
    let mut spans = Spans::new();
    let probe = w.probe(&mut spans);
    // Alternate untraced and traced passes so both see the same host
    // conditions; their ratio is the tracing overhead.
    let budget = Budget::start(args.seconds);
    let mut plain: Vec<(Pass, Elapsed)> = Vec::new();
    let mut traced: Vec<(Pass, Elapsed)> = Vec::new();
    let mut layers = Layers::default();
    while plain.is_empty() || budget.room_for(mean_wall(&plain) + mean_wall(&traced)) {
        plain.push(timed(|| w.pass()));
        let ((pass, l), e) = timed(|| w.traced_pass(&mut spans));
        layers = l;
        traced.push((pass, e));
    }
    // Traced passes must reproduce the untraced ones: the event log only
    // observes.
    out.account(&plain);
    out.account(&traced);
    let reference = plain[0].0.clone();
    // Wall times, as the spans the ratios below divide are.
    let (plain_s, traced_s) = (
        pass_median(&plain, |p| p.runner_s),
        pass_median(&traced, |p| p.runner_s),
    );
    let cpu: f64 = plain.iter().map(|(_, e)| e.cpu_s).sum();
    let wall_sum: f64 = plain.iter().map(|(_, e)| e.wall_s).sum();
    let insts = reference.warp_insts as f64;
    let ns_per_inst = 1e9 * plain_s / insts;

    let mut m: Vec<Metric> = probe.metrics.clone();
    m.extend(layers.metrics.iter().copied());
    m.extend(reference.sim.iter().copied().filter(|(n, _)| *n != "antt"));
    m.push(("engine.sim_cycles", reference.sim_cycles as f64));
    m.push(("engine.warp_insts", insts));
    m.push(("engine.ns_per_warp_inst", ns_per_inst));
    if probe.bare_ns_per_warp_inst > 0.0 {
        m.push(("engine.bare_ns_per_warp_inst", probe.bare_ns_per_warp_inst));
        m.push((
            "runner.policy_share_pct",
            100.0 * (1.0 - probe.bare_ns_per_warp_inst / ns_per_inst),
        ));
    }
    if layers.select_calls > 0 && probe.select_call_us_p50 > 0.0 {
        m.push((
            "select.share_pct",
            100.0 * layers.select_calls as f64 * probe.select_call_us_p50 / 1e6 / plain_s,
        ));
    }
    if layers.offered > 0 {
        m.push((
            "serve.host_us_per_request",
            1e6 * plain_s / layers.offered as f64,
        ));
    }
    m.push(("host.cpu_wall_ratio", cpu / wall_sum));
    m.push((
        "host.slowdown",
        pass_median(&plain, |p| p.calibration.slowdown()),
    ));
    m.push((
        "host.wall_sim_cycles_per_s",
        reference.sim_cycles as f64 / plain_s,
    ));
    m.push(("host.cores", host_cores() as f64));
    m.push(("trace.overhead_pct", 100.0 * (traced_s / plain_s - 1.0)));
    m.push(("runner.calls", reference.calls as f64));
    for (name, _) in PER_LAYER {
        let v = m
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v);
        out.metric(name, v);
    }
    out.note(format!(
        "{} untraced + {} traced passes; runner time {:.3} s untraced, {:.3} s traced (medians)",
        plain.len(),
        traced.len(),
        plain_s,
        traced_s
    ));
    out.note_sim(&reference);
    spans
}

fn mean_wall(passes: &[(Pass, Elapsed)]) -> f64 {
    passes.iter().map(|(_, e)| e.wall_s).sum::<f64>() / passes.len().max(1) as f64
}

fn sim_value(pass: &Pass, name: &str) -> f64 {
    pass.sim
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(f64::NAN, |(_, v)| *v)
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The result being assembled: metrics, call accounting and context notes.
#[derive(Default)]
struct Output {
    metrics: Vec<(&'static str, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    notes: Vec<String>,
    reference: Option<String>,
}

impl Output {
    fn unit(name: &str) -> &'static str {
        END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .expect("every reported metric is declared")
    }

    fn metric(&mut self, name: &'static str, value: f64) {
        let value = if value.is_finite() {
            value
        } else {
            self.errors
                .push(format!("metric {name} is not finite ({value})"));
            0.0
        };
        self.metrics.push((name, value, Self::unit(name)));
    }

    fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Count the passes' runner calls and failures, and check that every
    /// pass reproduced the first one's simulated outputs exactly: one seed,
    /// one result, or the simulator has a determinism bug.
    fn account(&mut self, passes: &[(Pass, Elapsed)]) {
        let reference = self
            .reference
            .get_or_insert_with(|| passes[0].0.fingerprint.clone())
            .clone();
        for (i, (p, _)) in passes.iter().enumerate() {
            self.attempted += p.calls;
            self.failed += p.failures.len() as u64;
            for f in &p.failures {
                self.errors.push(format!("pass {i}: {f}"));
            }
            if p.fingerprint != reference {
                self.errors.push(format!(
                    "pass {i}: simulated outputs differ from the first pass"
                ));
            }
        }
    }

    fn note_sim(&mut self, pass: &Pass) {
        for (name, v) in &pass.sim {
            self.notes
                .push(format!("simulated {name} = {v} {}", Self::unit(name)));
        }
    }

    fn print(&self, workload: &str, args: &Args) {
        println!(
            "perfbench workload={workload} seed={} seconds={} trace={} host_cores={} \
             exec_mode=event par_shards=0 jobs=1",
            args.seed,
            args.seconds,
            u8::from(args.trace),
            host_cores()
        );
        for n in &self.notes {
            println!("  {n}");
        }
        for (name, v, unit) in &self.metrics {
            println!("  {name} = {v} {unit}");
        }
        for e in &self.errors {
            println!("  CHECK FAILED: {e}");
        }
        let mut json = String::new();
        for (i, (name, v, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.errors.is_empty(),
            self.attempted.max(1),
            self.failed
        );
    }
}

/// Where traced runs write their spans: next to the build output.
fn span_path(workload: &str, seed: u64) -> std::path::PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| std::path::PathBuf::from("perfbench/target"), Into::into);
    base.join("perfbench-spans")
        .join(format!("{workload}-seed{seed}.jsonl"))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <periodic_deadline|multiprog_pairs|serve_overload> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let w: Box<dyn Workload> = match args.workload.as_str() {
        "periodic_deadline" => Box::new(periodic::PeriodicDeadline::new(args.seed)),
        "multiprog_pairs" => Box::new(multiprog::MultiprogPairs::new(args.seed)),
        "serve_overload" => Box::new(serve::ServeOverload::new(args.seed)),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let mut out = Output::default();
    if args.trace {
        let spans = traced(w.as_ref(), &args, &mut out);
        let path = span_path(&args.workload, args.seed);
        match spans.write_jsonl(&path) {
            Ok(()) => out.note(format!("spans written to {}", path.display())),
            Err(e) => out.note(format!("spans not written to {}: {e}", path.display())),
        }
    } else {
        untraced(w.as_ref(), &args, &mut out);
    }
    out.print(&args.workload, &args);
}
