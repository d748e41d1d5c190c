//! Differential determinism tests for the engine's execution modes.
//!
//! The engine runs in one of three modes (see `gpu_sim::ExecMode` and
//! `PARALLELISM.md`): the legacy linear min-scan reference, the
//! tournament-tree event calendar, and the sharded parallel engine that advances SM shards
//! on worker threads between epoch barriers. These tests drive a
//! preemption-heavy multiprogrammed scenario through all three and demand
//! *byte-identical* observable behaviour: the event stream, the final
//! statistics, and the Chrome-trace export — including mid-run mode
//! toggles, shard-count changes, and preemptions landing on epoch
//! boundaries. They also pin the regression fixed in the PR 4 accounting
//! audit: re-preempted (switched-out, resumed, then re-preempted) blocks
//! must not double-release their dispatch slot.

use gpu_sim::trace::chrome_trace_json;
use gpu_sim::{
    Engine, Event, ExecMode, GpuConfig, KernelDesc, KernelId, Program, Segment, SmPreemptPlan,
    Technique, WarpSched,
};

fn four_sm_config() -> GpuConfig {
    GpuConfig {
        num_sms: 4,
        ..GpuConfig::tiny()
    }
}

fn compute_kernel() -> KernelDesc {
    KernelDesc::builder("eq_compute")
        .grid_blocks(64)
        .threads_per_block(64)
        .regs_per_thread(16)
        .program(Program::new(vec![
            Segment::load(6),
            Segment::compute(600),
            Segment::store(4),
        ]))
        .jitter_pct(0.2)
        .build()
        .expect("valid kernel")
}

fn memory_kernel() -> KernelDesc {
    KernelDesc::builder("eq_memory")
        .grid_blocks(48)
        .threads_per_block(64)
        .regs_per_thread(20)
        .program(Program::new(vec![
            Segment::load(40),
            Segment::compute(80),
            Segment::Barrier,
            Segment::load(30),
            Segment::overwrite(6),
        ]))
        .build()
        .expect("valid kernel")
}

/// When `CHIMERA_RACE_CHECK` is set (the CI race-sanitized parallel gate),
/// every engine in this suite carries the shard-race sanitizer; a recorded
/// Phase-A violation fails the test with the full report.
fn arm_race_check(e: &mut Engine) {
    if std::env::var("CHIMERA_RACE_CHECK").is_ok_and(|v| !v.is_empty() && v != "0") {
        e.enable_race_sanitizer();
    }
}

fn assert_race_clean(e: &Engine) {
    if let Some(report) = e.race_sanitizer().map(|s| s.report()) {
        assert!(report.is_clean(), "shard-race violation:\n{report}");
    }
}

fn switch_sm(e: &mut Engine, sm: usize) {
    if e.sm_resident_count(sm) > 0 && !e.sm_is_preempting(sm) {
        let plan = SmPreemptPlan::uniform(e.sm_resident_indices(sm), Technique::Switch);
        e.preempt_sm(sm, &plan).expect("switch is always legal");
    }
}

/// Both warp schedulers: they take different paths through warp selection
/// and the batched issue.
const SCHEDULERS: [WarpSched; 2] = [WarpSched::LooseRoundRobin, WarpSched::GreedyThenOldest];

/// A preemption-heavy multiprogrammed run under warp scheduler `sched`:
/// two kernels on a 4-SM split, with SMs 0–1 ping-ponged between them by
/// context-switch preemptions so blocks get switched out, resumed, and
/// re-preempted repeatedly.
fn run_scenario(mode: ExecMode, sched: WarpSched) -> (Vec<Event>, String, String) {
    let cfg = GpuConfig {
        warp_sched: sched,
        ..four_sm_config()
    };
    let mut e = Engine::with_seed(cfg.clone(), 11);
    e.set_exec_mode(mode);
    arm_race_check(&mut e);
    e.enable_event_log(1 << 14);
    let ka = e.launch_kernel(compute_kernel());
    let kb = e.launch_kernel(memory_kernel());
    e.assign_sm(0, Some(ka));
    e.assign_sm(1, Some(ka));
    e.assign_sm(2, Some(kb));
    e.assign_sm(3, Some(kb));
    let mut events = Vec::new();
    for round in 0..24 {
        events.extend(e.run_for(5_000));
        match round % 4 {
            1 => {
                for sm in 0..2 {
                    switch_sm(&mut e, sm);
                    e.assign_sm(sm, Some(kb));
                }
            }
            3 => {
                for sm in 0..2 {
                    switch_sm(&mut e, sm);
                    e.assign_sm(sm, Some(ka));
                }
            }
            _ => {}
        }
    }
    events.extend(e.run_until(e.cycle() + 3_000_000));
    // Partition stats pull the memory partitions' retirement counters into
    // the byte-identity check: every mode must issue the same requests and
    // stop at the same cycle for them to agree.
    let stats = format!(
        "{:?} | {:?} | {:?} | {:?}",
        e.gpu_stats(),
        e.kernel_stats(ka),
        e.kernel_stats(kb),
        e.mem_partition_stats()
    );
    let trace = chrome_trace_json(&e).expect("event log enabled");
    assert_race_clean(&e);
    (events, stats, trace)
}

#[test]
fn heap_and_scan_schedulers_are_equivalent() {
    for sched in SCHEDULERS {
        let (ev_event, stats_event, trace_event) = run_scenario(ExecMode::Event, sched);
        let (ev_scan, stats_scan, trace_scan) = run_scenario(ExecMode::Scan, sched);
        assert!(
            !ev_event.is_empty(),
            "scenario must produce events for the comparison to mean anything"
        );
        assert_eq!(ev_event, ev_scan, "event streams diverged under {sched:?}");
        assert_eq!(
            stats_event, stats_scan,
            "final statistics diverged under {sched:?}"
        );
        assert!(
            trace_event == trace_scan,
            "chrome traces diverged under {sched:?} ({} vs {} bytes)",
            trace_event.len(),
            trace_scan.len()
        );
    }
}

#[test]
fn three_way_mode_equivalence() {
    // Scan vs heap vs parallel (at several shard counts) on the same
    // preemption-heavy scenario, under both warp schedulers: events, stats
    // and traces byte-identical.
    let mut references = Vec::new();
    for sched in SCHEDULERS {
        let reference = run_scenario(ExecMode::Event, sched);
        assert!(!reference.0.is_empty(), "scenario must produce events");
        for mode in [
            ExecMode::Scan,
            ExecMode::Parallel { shards: 1 },
            ExecMode::Parallel { shards: 2 },
            ExecMode::Parallel { shards: 4 },
        ] {
            let got = run_scenario(mode, sched);
            let case = format!("{mode:?} under {sched:?}");
            assert_eq!(got.0, reference.0, "event streams diverged in {case}");
            assert_eq!(got.1, reference.1, "statistics diverged in {case}");
            assert!(
                got.2 == reference.2,
                "chrome traces diverged in {case} ({} vs {} bytes)",
                got.2.len(),
                reference.2.len()
            );
        }
        references.push(reference);
    }
    // The schedulers must really differ, or the second pass proves nothing.
    assert_ne!(
        references[0].2, references[1].2,
        "round-robin and greedy-then-oldest ran identically"
    );
}

#[test]
fn scheduler_can_be_toggled_mid_run() {
    // Toggling between modes at window boundaries (exercising the calendar
    // rebuild and the epoch machinery mid-flight) must not change results.
    let cfg = four_sm_config();
    let run = |schedule: &[ExecMode]| {
        let mut e = Engine::with_seed(cfg.clone(), 5);
        arm_race_check(&mut e);
        let k = e.launch_kernel(compute_kernel());
        for sm in 0..cfg.num_sms {
            e.assign_sm(sm, Some(k));
        }
        let mut events = Vec::new();
        for round in 0..10 {
            if !schedule.is_empty() {
                e.set_exec_mode(schedule[round % schedule.len()]);
            }
            events.extend(e.run_for(20_000));
        }
        e.set_exec_mode(ExecMode::Event);
        while !e.kernel_stats(k).finished {
            events.extend(e.run_for(1_000_000));
        }
        assert_race_clean(&e);
        (events, format!("{:?}", e.kernel_stats(k)))
    };
    let reference = run(&[]);
    assert_eq!(run(&[ExecMode::Scan, ExecMode::Event]), reference);
    assert_eq!(
        run(&[
            ExecMode::Parallel { shards: 2 },
            ExecMode::Scan,
            ExecMode::Parallel { shards: 4 },
            ExecMode::Event,
        ]),
        reference
    );
}

#[test]
fn parallel_mode_breaks_on_kernel_finish_identically() {
    // `run_until` must return early at the kernel-finish cycle with the
    // machine in the same state in every mode: batched issue and the
    // parallel engine's pure phase both stop strictly below any possible
    // finish cycle, so no SM runs past the break point. The statistics are
    // recorded at every break, not just at the end, because work run past
    // a break is only visible there: the serial replay catches up by the
    // time both kernels finish.
    let cfg = four_sm_config();
    let run = |mode: ExecMode| {
        let mut e = Engine::with_seed(cfg.clone(), 9);
        e.set_exec_mode(mode);
        arm_race_check(&mut e);
        e.set_break_on_kernel_finish(true);
        let ka = e.launch_kernel(compute_kernel());
        let kb = e.launch_kernel(memory_kernel());
        for sm in 0..2 {
            e.assign_sm(sm, Some(ka));
        }
        for sm in 2..4 {
            e.assign_sm(sm, Some(kb));
        }
        let mut log = Vec::new();
        let mut guard = 0;
        while !(e.kernel_stats(ka).finished && e.kernel_stats(kb).finished) {
            let events = e.run_for(50_000_000);
            let stats = format!(
                "{:?} | {:?} | {:?}",
                e.gpu_stats(),
                e.kernel_stats(ka),
                e.kernel_stats(kb)
            );
            log.push((e.cycle(), events, stats));
            guard += 1;
            assert!(guard < 100, "kernels did not finish");
        }
        assert_race_clean(&e);
        log
    };
    let reference = run(ExecMode::Event);
    assert!(
        reference.len() >= 2,
        "scenario must break early at least twice (one per kernel finish)"
    );
    assert_eq!(run(ExecMode::Scan), reference, "scan diverged");
    assert_eq!(
        run(ExecMode::Parallel { shards: 3 }),
        reference,
        "parallel diverged"
    );
}

/// Everything a caller can observe between runs: the clock, whole-GPU
/// statistics, every kernel's statistics and every SM's snapshot.
fn observable_state(e: &Engine, kernels: &[KernelId]) -> String {
    let mut s = format!("cycle {} | {:?}", e.cycle(), e.gpu_stats());
    for &k in kernels {
        s += &format!(" | {:?}", e.kernel_stats(k));
    }
    for sm in 0..e.config().num_sms {
        s += &format!(" | {:?}", e.sm_snapshot(sm));
    }
    s
}

#[test]
fn break_on_finish_matches_at_every_phase_offset() {
    // A one-chunk kernel finishes on the very tick that issues its only
    // chunk, so the kernel-finish bound must not add that chunk's issue
    // time. Launching it at 64 consecutive cycle offsets next to a long
    // compute kernel sweeps the break across every phase of the long
    // kernel's issue rotation; a bound that is late by even one chunk lets
    // batched or pure ticks on the other SM run past the break and report
    // extra issued instructions.
    let short = KernelDesc::builder("phase_short")
        .grid_blocks(1)
        .threads_per_block(32)
        .program(Program::new(vec![Segment::compute(8)]))
        .build()
        .expect("valid kernel");
    let long = KernelDesc::builder("phase_long")
        .grid_blocks(1)
        .threads_per_block(32)
        .program(Program::new(vec![
            Segment::load(1),
            Segment::compute(100_000),
        ]))
        .build()
        .expect("valid kernel");
    let run = |mode: ExecMode, offset: u64| {
        let mut e = Engine::with_seed(GpuConfig::tiny(), 21);
        e.set_exec_mode(mode);
        arm_race_check(&mut e);
        e.set_break_on_kernel_finish(true);
        let kl = e.launch_kernel(long.clone());
        e.assign_sm(1, Some(kl));
        let mut log = vec![(e.run_until(offset), observable_state(&e, &[kl]))];
        let ks = e.launch_kernel(short.clone());
        e.assign_sm(0, Some(ks));
        let kernels = [kl, ks];
        let mut guard = 0;
        while !(e.kernel_stats(kl).finished && e.kernel_stats(ks).finished) {
            let events = e.run_for(10_000_000);
            log.push((events, observable_state(&e, &kernels)));
            guard += 1;
            assert!(guard < 10, "kernels did not finish");
        }
        assert_race_clean(&e);
        log
    };
    for offset in 1000..1064 {
        let reference = run(ExecMode::Scan, offset);
        assert!(
            reference.len() >= 3,
            "offset {offset}: both kernels must break the run early"
        );
        for mode in [
            ExecMode::Event,
            ExecMode::Parallel { shards: 1 },
            ExecMode::Parallel { shards: 3 },
        ] {
            let got = run(mode, offset);
            assert_eq!(
                got.len(),
                reference.len(),
                "offset {offset}: {mode:?} run count"
            );
            for (i, (g, r)) in got.iter().zip(&reference).enumerate() {
                assert_eq!(g.0, r.0, "offset {offset}: {mode:?} events of run {i}");
                assert_eq!(g.1, r.1, "offset {offset}: {mode:?} state after run {i}");
            }
        }
    }
}

#[test]
fn target_behind_the_clock_still_sweeps_once() {
    // A launch and assignments made between runs leave a dispatch sweep
    // pending. `run_until` with a target below the current cycle ticks no
    // SM, but must still run that sweep — once, before it returns — exactly
    // like the legacy loop's dirty flag: the new kernel's blocks become
    // resident, the clock stays put and nothing issues.
    let cfg = four_sm_config();
    let run = |mode: ExecMode| {
        let mut e = Engine::with_seed(cfg.clone(), 17);
        e.set_exec_mode(mode);
        arm_race_check(&mut e);
        e.enable_event_log(1 << 14);
        let ka = e.launch_kernel(compute_kernel());
        e.assign_sm(0, Some(ka));
        e.assign_sm(1, Some(ka));
        let mut log = vec![(e.run_until(20_000), observable_state(&e, &[ka]))];
        let kb = e.launch_kernel(memory_kernel());
        e.assign_sm(2, Some(kb));
        e.assign_sm(3, Some(kb));
        let (before, issued) = (e.cycle(), e.gpu_stats().total_issued_insts);
        let events = e.run_until(before - 5_000);
        assert_eq!(e.cycle(), before, "{mode:?}: the clock moved");
        assert_eq!(
            e.gpu_stats().total_issued_insts,
            issued,
            "{mode:?}: an SM ticked behind the clock"
        );
        let resident = e.sm_resident_count(2) + e.sm_resident_count(3);
        let begun = e
            .event_log()
            .expect("event log enabled")
            .iter()
            .filter(|ev| ev.kind() == "block_begin" && ev.kernel() == kb)
            .count();
        assert!(resident > 0, "{mode:?}: the pending sweep did not run");
        assert_eq!(
            begun, resident,
            "{mode:?}: blocks dispatched more than once"
        );
        log.push((events, observable_state(&e, &[ka, kb])));
        log.push((e.run_for(200_000), observable_state(&e, &[ka, kb])));
        let trace = chrome_trace_json(&e).expect("event log enabled");
        assert_race_clean(&e);
        (log, trace)
    };
    let reference = run(ExecMode::Scan);
    for mode in [
        ExecMode::Event,
        ExecMode::Parallel { shards: 1 },
        ExecMode::Parallel { shards: 2 },
    ] {
        assert_eq!(run(mode), reference, "{mode:?} diverged from scan");
    }
}

#[test]
fn preemption_on_epoch_boundary_is_equivalent() {
    // Regression guard: preemption requests issued at run-window boundaries
    // land exactly on the parallel engine's epoch barriers (`run_until`
    // starts a fresh epoch at the earliest pending event). The pure phase
    // must leave preempting SMs untouched and the save/flush timeline
    // byte-identical. Windows of 8192 cycles make several boundaries
    // coincide with the engine's epoch quantum exactly.
    let cfg = four_sm_config();
    let run = |mode: ExecMode| {
        let mut e = Engine::with_seed(cfg.clone(), 13);
        e.set_exec_mode(mode);
        arm_race_check(&mut e);
        e.enable_event_log(1 << 14);
        let k = e.launch_kernel(memory_kernel());
        for sm in 0..cfg.num_sms {
            e.assign_sm(sm, Some(k));
        }
        let mut events = Vec::new();
        for round in 0..12 {
            events.extend(e.run_for(8_192));
            let sm = round % cfg.num_sms;
            if e.sm_resident_count(sm) > 0 && !e.sm_is_preempting(sm) {
                let technique = if round % 3 == 0 {
                    Technique::Switch
                } else {
                    Technique::Drain
                };
                let plan = SmPreemptPlan::uniform(e.sm_resident_indices(sm), technique);
                e.preempt_sm(sm, &plan)
                    .expect("plan covers resident blocks");
            }
            e.assign_sm(sm, Some(k));
        }
        events.extend(e.run_until(e.cycle() + 3_000_000));
        let trace = chrome_trace_json(&e).expect("event log enabled");
        assert_race_clean(&e);
        (events, format!("{:?}", e.kernel_stats(k)), trace)
    };
    let reference = run(ExecMode::Event);
    assert!(
        !reference.1.contains("switch_count: 0"),
        "scenario must exercise preemptions: {}",
        reference.1
    );
    assert_eq!(run(ExecMode::Scan), reference, "scan diverged");
    for shards in [1, 2, 4] {
        assert_eq!(
            run(ExecMode::Parallel { shards }),
            reference,
            "parallel({shards}) diverged"
        );
    }
}

/// Regression: a block that is switched out, resumed, and then preempted
/// again releases its dispatch slot exactly once per residency. Before the
/// checked-decrement fix, a double release would wrap `outstanding` to
/// `u64::MAX` in release builds (and now panics the debug assertion this
/// test would trip).
#[test]
fn repeated_preemption_does_not_underflow_block_accounting() {
    let cfg = four_sm_config();
    let mut e = Engine::with_seed(cfg.clone(), 3);
    let k = e.launch_kernel(compute_kernel());
    for sm in 0..cfg.num_sms {
        e.assign_sm(sm, Some(k));
    }
    // Many short windows, switching every SM out each time: resumed blocks
    // get re-preempted over and over.
    for _ in 0..30 {
        e.run_for(3_000);
        for sm in 0..cfg.num_sms {
            switch_sm(&mut e, sm);
            e.assign_sm(sm, Some(k));
        }
    }
    let mut guard = 0;
    while !e.kernel_stats(k).finished {
        e.run_for(5_000_000);
        guard += 1;
        assert!(guard < 100, "kernel did not finish");
    }
    let s = e.kernel_stats(k);
    assert_eq!(s.completed_tbs, compute_kernel().grid_blocks());
    assert_eq!(
        s.issued_insts, s.completed_insts,
        "switch preemption wastes no instructions"
    );
    assert!(
        s.switch_count > 0,
        "scenario must actually exercise switch-outs"
    );
}
