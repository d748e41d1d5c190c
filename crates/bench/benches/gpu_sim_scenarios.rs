//! Tracked engine-throughput scenarios behind `BENCH_gpu_sim.json`.
//!
//! Eight scenarios span the engine's hot-path regimes — solo drain,
//! two-kernel multiprogramming, a preemption storm, a figure-style
//! workload slice built from the Table 1 suite, the online-estimator
//! feedback loop (P² quantile updates + Algorithm 1 against live
//! observations) layered on the engine, the open-loop serving front-end
//! driven through the full scheduler stack, its two-device cluster
//! variant stepped in lockstep (all on 15-SM GPUs), and a 30-SM
//! memory-resident sweep that stresses the per-tick calendar path.
//! Every scenario runs under all three execution modes (see
//! `gpu_sim::ExecMode` and `PARALLELISM.md`): the event calendar, the
//! legacy linear-scan reference, and the sharded parallel engine. The
//! harness asserts identical simulation results across all three and
//! records cycles-simulated-per-second for each, so the file doubles as a
//! perf trajectory and a coarse equivalence check.
//!
//! Environment knobs:
//! - `CHIMERA_BENCH_FAST=1` — CI smoke mode: shorter horizons, 2 timing
//!   rounds instead of 5.
//! - `CHIMERA_BENCH_ONLY=substr` — run only scenarios whose name contains
//!   `substr` (local iteration; the emitted JSON is then partial).
//! - `CHIMERA_BENCH_OUT=path` — where to write the JSON (defaults to
//!   `BENCH_gpu_sim.json` at the workspace root).
//! - `CHIMERA_BENCH_BASELINE=path` — compare against a checked-in baseline
//!   and exit non-zero when any scenario's event-mode throughput regressed
//!   by more than 2x (slack for machine-to-machine variance), when the file
//!   cannot be read, when it was written in the other mode (fast-mode rates
//!   spread setup over a tenth of the cycles, so they only compare with a
//!   fast-mode baseline such as `BENCH_gpu_sim_fast.json`), or when a timed
//!   scenario is missing from it.
//! - `CHIMERA_BENCH_SHARDS=n` — shard count for the parallel-mode timing
//!   rows (defaults to the machine's available parallelism, capped at 8).

use std::io::Write as _;

use chimera::runner::cluster::{device_builder, run_serve_devices, Placement};
use chimera::runner::serve::{ArrivalProcess, ServeConfig};
use chimera::select::{select_preemptions, SelectionRequest};
use chimera::{EstimatorConfig, GpuScheduler, ObsBank, PartitionPolicy};
use gpu_sim::{
    Engine, Event, ExecMode, GpuConfig, KernelDesc, Program, Segment, SmPreemptPlan, Technique,
};
use workloads::{ServeWorkload, Suite};

/// 15-SM variant of the paper's GPU used by all scenarios.
fn gpu15() -> GpuConfig {
    GpuConfig {
        num_sms: 15,
        ..GpuConfig::fermi()
    }
}

fn synthetic(name: &str, compute: u32, mem: u32, grid: u32) -> KernelDesc {
    KernelDesc::builder(name)
        .grid_blocks(grid)
        .threads_per_block(128)
        .regs_per_thread(20)
        .program(Program::new(vec![
            Segment::load(mem),
            Segment::compute(compute),
            Segment::store(mem.max(1)),
        ]))
        .build()
        .expect("valid kernel")
}

/// Deterministic result fingerprint used to check event/scan equivalence.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    cycle: u64,
    issued: u64,
    bytes: u64,
}

fn fingerprint(e: &Engine) -> Outcome {
    let g = e.gpu_stats();
    Outcome {
        cycle: g.cycle,
        issued: g.total_issued_insts,
        bytes: g.mem_bytes_served,
    }
}

/// One flat compute-heavy kernel draining across all 15 SMs.
fn solo_drain(mode: ExecMode, horizon: u64) -> Outcome {
    let cfg = gpu15();
    let mut e = Engine::with_seed(cfg.clone(), 7);
    e.set_exec_mode(mode);
    let k = e.launch_kernel(synthetic("solo", 3000, 6, 4096));
    for sm in 0..cfg.num_sms {
        e.assign_sm(sm, Some(k));
    }
    e.run_until(horizon);
    fingerprint(&e)
}

/// A compute-bound and a memory-heavy kernel on a 10/5 SM partition.
fn multiprog(mode: ExecMode, horizon: u64) -> Outcome {
    let cfg = gpu15();
    let mut e = Engine::with_seed(cfg.clone(), 7);
    e.set_exec_mode(mode);
    let a = e.launch_kernel(synthetic("mp_compute", 2500, 4, 4096));
    let b = e.launch_kernel(synthetic("mp_memory", 300, 180, 2048));
    for sm in 0..10 {
        e.assign_sm(sm, Some(a));
    }
    for sm in 10..cfg.num_sms {
        e.assign_sm(sm, Some(b));
    }
    e.run_until(horizon);
    fingerprint(&e)
}

/// Five SMs ping-pong between two kernels via context-switch preemption
/// every 10k cycles — dispatch/preempt bookkeeping under stress.
fn preempt_storm(mode: ExecMode, horizon: u64) -> Outcome {
    let cfg = gpu15();
    let mut e = Engine::with_seed(cfg.clone(), 7);
    e.set_exec_mode(mode);
    let a = e.launch_kernel(synthetic("storm_a", 1500, 20, 4096));
    let b = e.launch_kernel(synthetic("storm_b", 1500, 20, 4096));
    for sm in 0..cfg.num_sms {
        e.assign_sm(sm, Some(a));
    }
    let mut owner_is_a = true;
    while e.cycle() < horizon {
        e.run_for(10_000.min(horizon - e.cycle()));
        let next = if owner_is_a { b } else { a };
        for sm in 0..5 {
            if e.sm_resident_count(sm) > 0 && !e.sm_is_preempting(sm) {
                let plan = SmPreemptPlan::uniform(e.sm_resident_indices(sm), Technique::Switch);
                e.preempt_sm(sm, &plan).expect("switch is always legal");
            }
            e.assign_sm(sm, Some(next));
        }
        owner_is_a = !owner_is_a;
    }
    fingerprint(&e)
}

/// A figure-style slice: two Table 1 suite benchmarks multiprogrammed on a
/// 10/5 split with kernel relaunch on finish and periodic switch
/// preemptions — the access pattern the fig6/fig7 runners generate, driven
/// through plain `run_until` windows.
fn figure_slice(mode: ExecMode, horizon: u64) -> Outcome {
    let cfg = gpu15();
    let suite = Suite::with_config(cfg.clone(), true);
    let desc_a = suite.benchmarks()[0].launches()[0].clone();
    let desc_b = suite.benchmarks()[1].launches()[0].clone();
    let mut e = Engine::with_seed(cfg.clone(), 7);
    e.set_exec_mode(mode);
    let mut a = e.launch_kernel(desc_a.clone());
    let mut b = e.launch_kernel(desc_b.clone());
    for sm in 0..10 {
        e.assign_sm(sm, Some(a));
    }
    for sm in 10..cfg.num_sms {
        e.assign_sm(sm, Some(b));
    }
    let mut windows = 0u64;
    while e.cycle() < horizon {
        e.run_for(50_000.min(horizon - e.cycle()));
        windows += 1;
        // Keep the machine loaded: relaunch a benchmark pass when it ends.
        if e.kernel_stats(a).finished {
            a = e.launch_kernel(desc_a.clone());
            for sm in 0..10 {
                e.assign_sm(sm, Some(a));
            }
        }
        if e.kernel_stats(b).finished {
            b = e.launch_kernel(desc_b.clone());
            for sm in 10..cfg.num_sms {
                e.assign_sm(sm, Some(b));
            }
        }
        // Every fourth window, switch two of A's SMs over to B and back.
        if windows.is_multiple_of(4) {
            for sm in 0..2 {
                if e.sm_resident_count(sm) > 0 && !e.sm_is_preempting(sm) {
                    let plan = SmPreemptPlan::uniform(e.sm_resident_indices(sm), Technique::Switch);
                    e.preempt_sm(sm, &plan).expect("switch is always legal");
                }
                e.assign_sm(sm, Some(b));
            }
        } else if windows % 4 == 1 {
            for sm in 0..2 {
                if e.sm_resident_count(sm) > 0 && !e.sm_is_preempting(sm) {
                    let plan = SmPreemptPlan::uniform(e.sm_resident_indices(sm), Technique::Switch);
                    e.preempt_sm(sm, &plan).expect("switch is always legal");
                }
                e.assign_sm(sm, Some(a));
            }
        }
    }
    fingerprint(&e)
}

/// The online-estimator hot path layered on the engine loop: every block
/// completion feeds the per-kernel P² quantile trackers, and each 5k-cycle
/// window runs Algorithm 1 against the live observations (the per-decision
/// work `--estimator online` adds to the periodic runner). The estimator
/// state is identical under both schedulers, so the event/scan equivalence
/// check still holds; the timing captures engine + estimator together.
fn estimator_online(mode: ExecMode, horizon: u64) -> Outcome {
    let cfg = gpu15();
    let mut e = Engine::with_seed(cfg.clone(), 7);
    e.set_exec_mode(mode);
    let k = e.launch_kernel(synthetic("est", 1200, 10, 8192));
    for sm in 0..cfg.num_sms {
        e.assign_sm(sm, Some(k));
    }
    let est = EstimatorConfig::online(0.95);
    let mut bank = ObsBank::with_estimator(est);
    while e.cycle() < horizon {
        let events = e.run_for(5_000.min(horizon - e.cycle()));
        for ev in events {
            if let Event::TbCompleted { insts, cycles, .. } = ev {
                bank.record_tb("est", insts, cycles);
            }
        }
        let req = SelectionRequest {
            limit_cycles: cfg.us_to_cycles(15.0),
            num_preempts: 4,
            ctx_bytes_per_tb: 24 * 1024,
            obs: bank.obs("est"),
            flush_allowed: true,
            estimator: est,
        };
        let snaps: Vec<_> = (0..4).map(|sm| e.sm_snapshot(sm)).collect();
        std::hint::black_box(select_preemptions(&cfg, &req, &snaps));
    }
    fingerprint(&e)
}

/// The open-loop serving front-end at 1.5x its analytic saturation rate:
/// arrival admission, weighted-fair dispatch, and Chimera preemptions all
/// driven through the public runner API on the full scheduler stack.
fn serve_open_loop(mode: ExecMode, horizon: u64) -> Outcome {
    let cfg = gpu15();
    let wl = ServeWorkload::standard(&cfg);
    let scfg = ServeConfig::paper_default()
        .horizon_us(cfg.cycles_to_us(horizon))
        .arrivals(ArrivalProcess::poisson(1.5 * wl.saturation_per_ms()));
    let gpu = GpuScheduler::builder(cfg.clone())
        .policy(scfg.effective_policy())
        .partition(PartitionPolicy::SmartEven)
        .seed(7)
        .exec_mode(mode)
        .build();
    let run = run_serve_devices(vec![gpu], &wl, &scfg, Placement::RoundRobin);
    std::hint::black_box(run.serve_result(0));
    fingerprint(run.into_schedulers()[0].engine())
}

/// The cluster front-end over two devices with least-loaded placement at
/// 1.5x the *cluster* saturation rate: two full scheduler stacks stepped
/// in lockstep, plus the placement policy on the arrival path. Roughly
/// twice the simulated work of `serve_open_loop_15sm` per wall-second of
/// horizon, and the scenario that keeps the multi-device path on the perf
/// trajectory.
fn serve_open_loop_2dev(mode: ExecMode, horizon: u64) -> Outcome {
    let cfg = gpu15();
    let wl = ServeWorkload::standard(&cfg);
    let scfg = ServeConfig::paper_default()
        .horizon_us(cfg.cycles_to_us(horizon))
        .arrivals(ArrivalProcess::poisson(2.0 * 1.5 * wl.saturation_per_ms()))
        .seed(7);
    let gpus = (0..2)
        .map(|d| device_builder(&cfg, &scfg, d).exec_mode(mode).build())
        .collect();
    let res = run_serve_devices(gpus, &wl, &scfg, Placement::LeastLoaded).cluster_result();
    // Fold the cluster's result counters into the equivalence fingerprint.
    Outcome {
        cycle: horizon,
        issued: res.completed + (res.violations << 32),
        bytes: res.admitted + (res.shed << 32),
    }
}

/// Thirty SMs saturated with warps whose loads almost always hit L1: the
/// one regime where the serial engines replay every load tick through the
/// full per-tick scheduler path (loads never batch), so the parallel
/// engine's epoch loop — which commits pure ticks in a tight per-SM loop
/// between barriers — is the intended winner. This is the scenario the
/// `speedup_par_vs_event` acceptance gate watches.
fn mem_resident_30sm(mode: ExecMode, horizon: u64) -> Outcome {
    let cfg = GpuConfig {
        num_sms: 30,
        l1_hit_fraction: 1.0,
        ..GpuConfig::fermi()
    };
    let mut e = Engine::with_seed(cfg.clone(), 7);
    e.set_exec_mode(mode);
    let k = e.launch_kernel(
        KernelDesc::builder("mem_resident")
            .grid_blocks(16_384)
            .threads_per_block(128)
            .regs_per_thread(20)
            .program(Program::new(vec![
                Segment::load(800),
                Segment::compute(100),
                Segment::load(800),
            ]))
            .build()
            .expect("valid kernel"),
    );
    for sm in 0..cfg.num_sms {
        e.assign_sm(sm, Some(k));
    }
    e.run_until(horizon);
    fingerprint(&e)
}

struct Scenario {
    name: &'static str,
    run: fn(ExecMode, u64) -> Outcome,
    /// Simulated-cycle horizon in full mode (fast mode divides by 10).
    full_horizon: u64,
}

const SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "solo_drain_15sm",
        run: solo_drain,
        full_horizon: 2_000_000,
    },
    Scenario {
        name: "multiprog_2k_15sm",
        run: multiprog,
        full_horizon: 2_000_000,
    },
    Scenario {
        name: "preempt_storm_15sm",
        run: preempt_storm,
        full_horizon: 1_000_000,
    },
    Scenario {
        name: "figure_slice_15sm",
        run: figure_slice,
        full_horizon: 2_000_000,
    },
    Scenario {
        name: "estimator_online_15sm",
        run: estimator_online,
        full_horizon: 2_000_000,
    },
    Scenario {
        name: "serve_open_loop_15sm",
        run: serve_open_loop,
        full_horizon: 2_000_000,
    },
    Scenario {
        name: "serve_open_loop_2dev",
        run: serve_open_loop_2dev,
        full_horizon: 1_000_000,
    },
    Scenario {
        name: "mem_resident_30sm",
        run: mem_resident_30sm,
        full_horizon: 1_000_000,
    },
];

struct Row {
    name: &'static str,
    cycles: u64,
    event_ns: u128,
    scan_ns: u128,
    par_ns: u128,
}

impl Row {
    fn cycles_per_sec(&self, ns: u128) -> f64 {
        if ns == 0 {
            0.0
        } else {
            self.cycles as f64 * 1e9 / ns as f64
        }
    }
}

/// Shard count for the parallel-mode timing rows: `CHIMERA_BENCH_SHARDS`
/// if set, else the machine's available parallelism capped at 8. The
/// differential checks also run at other shard counts — output is
/// byte-identical for every value, only the timing depends on this.
fn bench_shards() -> usize {
    if let Ok(v) = std::env::var("CHIMERA_BENCH_SHARDS") {
        let n: usize = v.parse().expect("CHIMERA_BENCH_SHARDS must be an integer");
        return n.max(1);
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 8)
}

/// Wall time of the fastest of `samples` timed runs of `f` under each of
/// `modes`, after one untimed warm-up run per mode. The runs interleave:
/// each round times every mode once, starting one mode later than the
/// round before, so a noisy spell on the host lands on all modes instead
/// of on one whole row. The minimum, not the mean: background load only
/// ever slows a run, so the fastest one tracks the engine, not the machine.
fn fastest_ns<O, const N: usize>(
    samples: usize,
    modes: [ExecMode; N],
    f: impl Fn(ExecMode) -> O,
) -> [u128; N] {
    for mode in modes {
        std::hint::black_box(f(mode));
    }
    let mut best = [u128::MAX; N];
    for round in 0..samples {
        for k in 0..N {
            let i = (round + k) % N;
            let start = std::time::Instant::now();
            std::hint::black_box(f(modes[i]));
            best[i] = best[i].min(start.elapsed().as_nanos());
        }
    }
    best
}

fn main() {
    let fast = std::env::var("CHIMERA_BENCH_FAST").is_ok_and(|v| v != "0" && !v.is_empty());
    let (mode, samples) = if fast { ("fast", 2) } else { ("full", 5) };
    let only = std::env::var("CHIMERA_BENCH_ONLY").ok();
    let shards = bench_shards();
    let par = ExecMode::Parallel { shards };
    // Read the baseline before timing anything, so a missing file or a
    // baseline from the other mode fails the gate at once instead of after
    // the whole run.
    let baseline = std::env::var("CHIMERA_BENCH_BASELINE").ok().map(|path| {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read baseline {path}: {e}");
            std::process::exit(1)
        });
        let base_mode = json_str(&text, "mode");
        if base_mode != Some(mode) {
            eprintln!(
                "baseline {path} is {}-mode, this run is {mode}-mode: rates do not compare",
                base_mode.unwrap_or("unknown")
            );
            std::process::exit(1)
        }
        text
    });
    let mut rows = Vec::new();
    for s in SCENARIOS {
        if let Some(f) = &only {
            if !s.name.contains(f.as_str()) {
                continue;
            }
        }
        let horizon = if fast {
            s.full_horizon / 10
        } else {
            s.full_horizon
        };
        // Differential check before timing: all three execution modes (and
        // a second shard count, for shard-count independence) must agree.
        let event_out = (s.run)(ExecMode::Event, horizon);
        for mode in [
            ExecMode::Scan,
            par,
            ExecMode::Parallel {
                shards: if shards == 2 { 3 } else { 2 },
            },
        ] {
            let got = (s.run)(mode, horizon);
            assert_eq!(
                got, event_out,
                "{}: {mode:?} diverged from the event calendar",
                s.name
            );
        }
        let timed = fastest_ns(samples, [ExecMode::Event, ExecMode::Scan, par], |mode| {
            (s.run)(mode, horizon)
        });
        for (label, ns) in ["event", "scan", "par"].into_iter().zip(timed) {
            println!(
                "{:<24} {label:<5} {ns:>14} ns (fastest of {samples})",
                s.name
            );
        }
        let [event_ns, scan_ns, par_ns] = timed;
        rows.push(Row {
            name: s.name,
            cycles: event_out.cycle.max(horizon),
            event_ns,
            scan_ns,
            par_ns,
        });
    }
    let json = render_json(&rows, mode, shards);
    let out_path = std::env::var("CHIMERA_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_gpu_sim.json", env!("CARGO_MANIFEST_DIR")));
    let mut f = std::fs::File::create(&out_path).expect("create bench output");
    f.write_all(json.as_bytes()).expect("write bench output");
    println!("\nwrote {out_path}");
    if let Some(baseline) = baseline {
        check_regression(&rows, &baseline);
    }
}

fn render_json(rows: &[Row], mode: &str, shards: usize) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"schema\": \"chimera-bench-gpu-sim/v2\",\n");
    s.push_str(&format!(
        "  \"mode\": \"{mode}\",\n  \"par_shards\": {shards},\n  \"scenarios\": [\n"
    ));
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\n      \"name\": \"{}\",\n      \"cycles\": {},\n      \
             \"wall_ns_event\": {},\n      \"wall_ns_scan\": {},\n      \
             \"wall_ns_par\": {},\n      \
             \"cycles_per_sec_event\": {:.0},\n      \"cycles_per_sec_scan\": {:.0},\n      \
             \"cycles_per_sec_par\": {:.0},\n      \
             \"speedup_vs_scan\": {:.2},\n      \"speedup_par_vs_event\": {:.2}\n    }}{}\n",
            r.name,
            r.cycles,
            r.event_ns,
            r.scan_ns,
            r.par_ns,
            r.cycles_per_sec(r.event_ns),
            r.cycles_per_sec(r.scan_ns),
            r.cycles_per_sec(r.par_ns),
            if r.event_ns == 0 {
                0.0
            } else {
                r.scan_ns as f64 / r.event_ns as f64
            },
            if r.par_ns == 0 {
                0.0
            } else {
                r.event_ns as f64 / r.par_ns as f64
            },
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// The first string value of `"key"` in a baseline JSON file written by
/// this harness.
fn json_str<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": \"");
    let rest = &text[text.find(&pat)? + pat.len()..];
    Some(&rest[..rest.find('"')?])
}

/// Extract `"cycles_per_sec_event"` for `name` from a baseline JSON file
/// written by this harness (field-order dependent, which we control).
fn baseline_rate(text: &str, name: &str) -> Option<f64> {
    let at = text.find(&format!("\"name\": \"{name}\""))?;
    let rest = &text[at..];
    let key = "\"cycles_per_sec_event\": ";
    let k = rest.find(key)? + key.len();
    let tail = &rest[k..];
    let end = tail.find([',', '\n', '}'])?;
    tail[..end].trim().parse().ok()
}

/// Exit non-zero when a timed scenario is missing from the baseline `text`
/// or its event-mode throughput regressed by more than 2x.
fn check_regression(rows: &[Row], text: &str) {
    let mut failed = false;
    for r in rows {
        let Some(base) = baseline_rate(text, r.name) else {
            eprintln!("{}: not in baseline", r.name);
            failed = true;
            continue;
        };
        let cur = r.cycles_per_sec(r.event_ns);
        let ratio = if cur > 0.0 { base / cur } else { f64::INFINITY };
        println!(
            "{:<24} baseline {base:>14.0} cyc/s, current {cur:>14.0} cyc/s ({ratio:.2}x slower)",
            r.name
        );
        if ratio > 2.0 {
            eprintln!("{}: >2x regression vs baseline", r.name);
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
