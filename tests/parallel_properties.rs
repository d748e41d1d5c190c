//! Property-based determinism tests for the parallel execution mode.
//!
//! The contract (`PARALLELISM.md`): parallel-mode output is a pure function
//! of the engine seed and configuration — independent of the shard count
//! and of OS thread scheduling. Every case runs the same randomly generated
//! multiprogrammed scenario under the serial calendar engine and under the
//! parallel engine at 1, 2 and 4 shards, and demands byte-identical event
//! streams and statistics. Thread-scheduling independence falls out of
//! repetition: each proptest case re-runs the sharded engine with fresh
//! threads whose interleaving the OS is free to vary. One more property
//! checks the kernel-finish bound that lets batched and pure ticks run
//! under break-on-kernel-finish without passing an early return.

use gpu_sim::{
    Engine, Event, ExecMode, GpuConfig, KernelDesc, Program, Segment, SmPreemptPlan, Technique,
};
use proptest::prelude::*;

fn arb_segment() -> impl Strategy<Value = Segment> {
    prop_oneof![
        (1u32..400).prop_map(Segment::compute),
        (1u32..60).prop_map(Segment::load),
        (1u32..40).prop_map(Segment::store),
        (1u32..12).prop_map(Segment::overwrite),
        (1u32..6).prop_map(Segment::atomic),
        (1u32..60).prop_map(|n| Segment::Shared { insts: n }),
        Just(Segment::Barrier),
    ]
}

fn arb_kernel(tag: &'static str) -> impl Strategy<Value = KernelDesc> {
    arb_kernel_jitter(tag, 0..3)
}

/// [`arb_kernel`] with the jitter bucket (in 15% steps) drawn from
/// `jitter`.
fn arb_kernel_jitter(
    tag: &'static str,
    jitter: std::ops::Range<u64>,
) -> impl Strategy<Value = KernelDesc> {
    (
        proptest::collection::vec(arb_segment(), 1..8).prop_filter("needs instructions", |segs| {
            segs.iter().map(|s| u64::from(s.insts())).sum::<u64>() > 0
        }),
        1u32..48, // grid blocks
        1u32..5,  // warps per block
        8u32..32, // regs per thread
        jitter,
    )
        .prop_map(move |(segs, grid, warps, regs, jit)| {
            KernelDesc::builder(tag)
                .grid_blocks(grid)
                .threads_per_block(warps * 32)
                .regs_per_thread(regs)
                .program(Program::new(segs))
                .jitter_pct(jit as f64 * 0.15)
                .build()
                .expect("generated kernels are valid")
        })
}

/// A small jittered kernel of compute and shared-memory segments only.
/// Nothing stalls its warps, so a lone block finishes exactly when its
/// issue pipeline says it does — the case where a kernel-finish bound that
/// is off by one issue chunk becomes visible.
fn arb_issue_bound_kernel(tag: &'static str) -> impl Strategy<Value = KernelDesc> {
    (
        proptest::collection::vec(
            prop_oneof![
                (1u32..200).prop_map(Segment::compute),
                (1u32..30).prop_map(|n| Segment::Shared { insts: n }),
            ],
            1..4,
        ),
        1u32..3, // grid blocks
        1u32..3, // warps per block
        1u64..3, // jitter bucket
    )
        .prop_map(move |(segs, grid, warps, jit)| {
            KernelDesc::builder(tag)
                .grid_blocks(grid)
                .threads_per_block(warps * 32)
                .program(Program::new(segs))
                .jitter_pct(jit as f64 * 0.15)
                .build()
                .expect("generated kernels are valid")
        })
}

/// Whether `CHIMERA_RACE_CHECK` asks for every run in this suite to carry
/// the shard-race sanitizer (the CI race-sanitized parallel gate sets it).
fn env_race_check() -> bool {
    std::env::var("CHIMERA_RACE_CHECK").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Run a two-kernel scenario to completion under `mode`, returning the full
/// event stream and final statistics rendering.
fn run(
    seed: u64,
    num_sms: usize,
    l1_bucket: u8,
    ka: &KernelDesc,
    kb: &KernelDesc,
    mode: ExecMode,
) -> (Vec<Event>, String) {
    run_raced(seed, num_sms, l1_bucket, ka, kb, mode, env_race_check())
}

/// Like [`run`], optionally with the shard-race sanitizer armed; a run that
/// records any Phase-A violation fails outright with the full report.
fn run_raced(
    seed: u64,
    num_sms: usize,
    l1_bucket: u8,
    ka: &KernelDesc,
    kb: &KernelDesc,
    mode: ExecMode,
    race_check: bool,
) -> (Vec<Event>, String) {
    let cfg = GpuConfig {
        num_sms,
        l1_hit_fraction: f64::from(l1_bucket) * 0.45,
        ..GpuConfig::tiny()
    };
    let mut e = Engine::with_seed(cfg, seed);
    e.set_exec_mode(mode);
    e.set_break_on_kernel_finish(true);
    if race_check {
        e.enable_race_sanitizer();
    }
    let a = e.launch_kernel(ka.clone());
    let b = e.launch_kernel(kb.clone());
    for sm in 0..num_sms {
        e.assign_sm(sm, Some(if sm % 2 == 0 { a } else { b }));
    }
    let mut events = Vec::new();
    let mut guard = 0;
    while !(e.kernel_stats(a).finished && e.kernel_stats(b).finished) {
        events.extend(e.run_for(10_000_000));
        guard += 1;
        assert!(guard < 200, "kernels did not finish");
    }
    // Partition stats fold the memory partitions' retirement counters into
    // the comparison: every mode must issue the same requests and stop at
    // the same cycle for them to agree.
    let stats = format!(
        "{:?} | {:?} | {:?} | {:?}",
        e.gpu_stats(),
        e.kernel_stats(a),
        e.kernel_stats(b),
        e.mem_partition_stats()
    );
    if let Some(report) = e.race_sanitizer().map(|s| s.report()) {
        assert!(report.is_clean(), "shard-race violation:\n{report}");
    }
    (events, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same seed, any shard count, any thread interleaving: byte-identical
    /// events and stats against the serial calendar engine.
    #[test]
    fn parallel_output_is_shard_count_independent(
        seed in 0u64..1_000_000,
        num_sms in 2usize..9,
        l1_bucket in 0u8..3,
        ka in arb_kernel("prop_a"),
        kb in arb_kernel("prop_b"),
    ) {
        let reference = run(seed, num_sms, l1_bucket, &ka, &kb, ExecMode::Event);
        prop_assert!(!reference.0.is_empty(), "scenario produced no events");
        for shards in [1usize, 2, 4] {
            let got = run(seed, num_sms, l1_bucket, &ka, &kb, ExecMode::Parallel { shards });
            prop_assert_eq!(&got.0, &reference.0, "events diverged at {} shards", shards);
            prop_assert_eq!(&got.1, &reference.1, "stats diverged at {} shards", shards);
        }
    }

    /// The shard-race sanitizer is an oracle for the Phase-A purity
    /// contract: on arbitrary kernels and 1/2/4 shards it must never fire,
    /// and arming it must not perturb the byte-identical output. (That the
    /// oracle actually watches traffic — and catches a genuinely racy
    /// shared resource — is pinned by `racy_component_is_caught_in_parallel_mode`
    /// below and the engine's own unit tests.)
    #[test]
    fn race_sanitizer_never_fires_on_generated_kernels(
        seed in 0u64..1_000_000,
        num_sms in 2usize..9,
        l1_bucket in 0u8..3,
        ka in arb_kernel("race_a"),
        kb in arb_kernel("race_b"),
    ) {
        let reference = run_raced(seed, num_sms, l1_bucket, &ka, &kb, ExecMode::Event, false);
        for shards in [1usize, 2, 4] {
            // run_raced fails the case with the full report on any violation.
            let got = run_raced(
                seed, num_sms, l1_bucket, &ka, &kb,
                ExecMode::Parallel { shards }, true,
            );
            prop_assert_eq!(&got.0, &reference.0, "sanitizer perturbed events at {} shards", shards);
            prop_assert_eq!(&got.1, &reference.1, "sanitizer perturbed stats at {} shards", shards);
        }
    }

    /// The event calendar orders SM ticks identically to the linear
    /// reference scan on arbitrary kernels: the key `(cycle, SM index)`,
    /// with any pending dispatch sweep run before the next pop, resolves
    /// every tie the same way in both modes.
    #[test]
    fn component_calendar_matches_scan_reference(
        seed in 0u64..1_000_000,
        num_sms in 2usize..7,
        l1_bucket in 0u8..3,
        ka in arb_kernel("cal_a"),
        kb in arb_kernel("cal_b"),
    ) {
        let reference = run(seed, num_sms, l1_bucket, &ka, &kb, ExecMode::Scan);
        let got = run(seed, num_sms, l1_bucket, &ka, &kb, ExecMode::Event);
        prop_assert_eq!(&got.0, &reference.0, "events diverged from scan reference");
        prop_assert_eq!(&got.1, &reference.1, "stats diverged from scan reference");
    }

    /// The kernel-finish bound that caps batched issue and the parallel
    /// pure phase under break-on-kernel-finish is a *lower* bound: no kernel
    /// of a reference `Scan` run finishes before the bound computed at
    /// launch, nor before the bound recomputed at any later run boundary
    /// (with resident blocks part-way through, switched-out snapshots
    /// waiting to resume and jitter making block lengths unequal). Both
    /// issue-chunk sizes matter: a block completes on the tick that issues
    /// its last chunk. The second kernel never stalls, so the bound at
    /// launch is often tight for it.
    #[test]
    fn kernel_finish_bound_is_sound(
        seed in 0u64..1_000_000,
        num_sms in 2usize..5,
        wide_chunk in any::<bool>(),
        switch_sm0 in any::<bool>(),
        window in 2_000u64..50_000,
        ka in arb_kernel_jitter("bound_a", 1..3),
        kb in arb_issue_bound_kernel("bound_b"),
    ) {
        let cfg = GpuConfig {
            num_sms,
            issue_chunk: if wide_chunk { 8 } else { 1 },
            ..GpuConfig::tiny()
        };
        let mut e = Engine::with_seed(cfg, seed);
        e.set_exec_mode(ExecMode::Scan);
        e.set_break_on_kernel_finish(true);
        let a = e.launch_kernel(ka);
        let b = e.launch_kernel(kb);
        for sm in 0..num_sms {
            e.assign_sm(sm, Some(if sm % 2 == 0 { a } else { b }));
        }
        let mut round = 0u64;
        while !(e.kernel_stats(a).finished && e.kernel_stats(b).finished) {
            let from = e.cycle();
            let bound = e.kernel_finish_lower_bound(from);
            for ev in e.run_for(window) {
                if let Event::KernelFinished { kernel } = ev {
                    let at = e.kernel_stats(kernel).finished_at.expect("finished kernel");
                    prop_assert!(
                        at >= bound,
                        "{:?} finished at {} before the bound {} computed at {}",
                        kernel, at, bound, from
                    );
                }
            }
            // Every fourth boundary, switch SM 0 out and straight back in,
            // so later bounds also cover resume snapshots.
            round += 1;
            if switch_sm0
                && round.is_multiple_of(4)
                && e.sm_resident_count(0) > 0
                && !e.sm_is_preempting(0)
            {
                let plan = SmPreemptPlan::uniform(e.sm_resident_indices(0), Technique::Switch);
                e.preempt_sm(0, &plan).expect("switch is always legal");
                e.assign_sm(0, Some(a));
            }
            prop_assert!(round < 100_000, "kernels did not finish");
        }
    }

    /// Two independent engine instances ("devices") produce the same
    /// per-device output whether their step loops are interleaved or run
    /// back to back, in any mode mix: nothing leaks between devices.
    #[test]
    fn two_devices_are_isolated_under_interleaving(
        seed in 0u64..1_000_000,
        num_sms in 2usize..6,
        ka in arb_kernel("dev_a"),
        kb in arb_kernel("dev_b"),
        mode_bucket in 0u8..3,
    ) {
        let mode = match mode_bucket {
            0 => ExecMode::Scan,
            1 => ExecMode::Event,
            _ => ExecMode::Parallel { shards: 2 },
        };
        let solo0 = run(seed, num_sms, 1, &ka, &kb, mode);
        let solo1 = run(seed.wrapping_add(1), num_sms, 1, &ka, &kb, mode);

        // Interleave: step both devices in small lockstep windows.
        let cfg = GpuConfig { num_sms, l1_hit_fraction: 0.45, ..GpuConfig::tiny() };
        let mut devs: Vec<Engine> = [seed, seed.wrapping_add(1)]
            .iter()
            .map(|&s| {
                let mut e = Engine::with_seed(cfg.clone(), s);
                e.set_exec_mode(mode);
                e.set_break_on_kernel_finish(true);
                e
            })
            .collect();
        let mut kids = Vec::new();
        for e in devs.iter_mut() {
            let a = e.launch_kernel(ka.clone());
            let b = e.launch_kernel(kb.clone());
            for sm in 0..num_sms {
                e.assign_sm(sm, Some(if sm % 2 == 0 { a } else { b }));
            }
            kids.push((a, b));
        }
        let mut streams = [Vec::new(), Vec::new()];
        let mut guard = 0;
        while devs.iter().zip(&kids).any(|(e, &(a, b))| {
            !(e.kernel_stats(a).finished && e.kernel_stats(b).finished)
        }) {
            for (d, e) in devs.iter_mut().enumerate() {
                let (a, b) = kids[d];
                // Step only unfinished devices so each one stops at the
                // same cycle as its solo reference run.
                if !(e.kernel_stats(a).finished && e.kernel_stats(b).finished) {
                    streams[d].extend(e.run_for(10_000_000));
                }
            }
            guard += 1;
            prop_assert!(guard < 400, "kernels did not finish");
        }
        for (d, solo) in [&solo0, &solo1].into_iter().enumerate() {
            let (a, b) = kids[d];
            let stats = format!(
                "{:?} | {:?} | {:?} | {:?}",
                devs[d].gpu_stats(),
                devs[d].kernel_stats(a),
                devs[d].kernel_stats(b),
                devs[d].mem_partition_stats()
            );
            prop_assert_eq!(&streams[d], &solo.0, "device {} events diverged", d);
            prop_assert_eq!(&stats, &solo.1, "device {} stats diverged", d);
        }
    }
}

/// The oracle's positive control: a deliberately racy resource (a shared
/// cell bumped from inside the pure per-SM tick, bypassing the Interaction
/// replay) must be flagged. Without this, a silent sanitizer and a correct
/// engine are indistinguishable.
#[test]
fn racy_component_is_caught_in_parallel_mode() {
    let cfg = GpuConfig {
        num_sms: 4,
        ..GpuConfig::tiny()
    };
    let mut e = Engine::with_seed(cfg, 42);
    e.set_exec_mode(ExecMode::Parallel { shards: 2 });
    e.enable_race_sanitizer();
    let cell = e.attach_racy_test_cell(&[0, 1, 2, 3]);
    let k = e.launch_kernel(
        KernelDesc::builder("racy")
            .grid_blocks(32)
            .threads_per_block(64)
            .regs_per_thread(16)
            .program(Program::new(vec![Segment::compute(400)]))
            .build()
            .expect("valid kernel"),
    );
    for sm in 0..4 {
        e.assign_sm(sm, Some(k));
    }
    e.run_until(50_000_000);
    assert!(e.kernel_stats(k).finished, "kernel must finish");
    assert!(cell.value() > 0, "pure ticks must have bumped the cell");
    let report = e.race_sanitizer().expect("enabled").report();
    assert!(
        report.violation_count >= 1,
        "the sanitizer must catch the unrouted Phase-A effect:\n{report}"
    );
    assert!(
        report.pure_windows > 0 && report.shared_accesses_checked > 0,
        "a meaningful report proves the oracle watched traffic:\n{report}"
    );
}
