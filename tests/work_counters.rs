//! Engine work counters pinned on three Table 2 scenarios.
//!
//! `WorkCounters` count engine operations (serial ticks, idle ticks,
//! dispatch sweeps, batched ticks and the instructions they issue), not
//! simulated state, so a change that makes the engine do more or less work
//! for the same simulation moves them on any host, while wall time only
//! moves within noise. Each scenario runs the paper's 30-SM Fermi
//! configuration in the default event-calendar mode and pins every counter
//! together with the simulated outcome (instructions issued, end cycle), so
//! an engine refactor that keeps outputs identical must also keep the work
//! it does identical — or update the pins and say why.

use gpu_sim::{
    Engine, Event, ExecMode, GpuConfig, KernelId, SmPreemptPlan, Technique, WorkCounters,
};
use workloads::Suite;

/// The Table 2 suite at full size, built once per test binary.
fn suite() -> &'static Suite {
    static SUITE: std::sync::OnceLock<Suite> = std::sync::OnceLock::new();
    SUITE.get_or_init(Suite::standard)
}

/// A fresh Fermi engine in event mode with the first launch of `bench` on
/// every SM.
fn engine_with(bench: &str) -> (Engine, KernelId) {
    let s = suite();
    let mut e = Engine::with_seed(s.config().clone(), 1);
    e.set_exec_mode(ExecMode::Event);
    let k = e.launch_kernel(s.require(bench).launches()[0].clone());
    for sm in 0..s.config().num_sms {
        e.assign_sm(sm, Some(k));
    }
    (e, k)
}

/// What a scenario pins: the counters, then the simulated outcome they
/// were counted over.
fn outcome(e: &Engine) -> (WorkCounters, u64, u64) {
    (
        e.work_counters(),
        e.gpu_stats().total_issued_insts,
        e.cycle(),
    )
}

fn us(us: f64) -> u64 {
    GpuConfig::fermi().us_to_cycles(us)
}

/// BlackScholes: long compute segments, where batched ticks issue most
/// instructions.
#[test]
fn compute_heavy_bs() {
    let (mut e, _) = engine_with("BS");
    e.run_until(us(200.0));
    assert_eq!(
        outcome(&e),
        (
            WorkCounters {
                serial_ticks: 33911,
                idle_ticks: 852,
                dispatch_sweeps: 348,
                sweep_sm_visits: 377,
                batched_ticks: 9316,
                batched_insts: 1893640,
            },
            2048221,
            280000
        )
    );
}

/// MUMmerGPU: memory-bound, so most ticks are single-chunk issues and
/// idle ticks waiting on DRAM.
#[test]
fn memory_heavy_mum() {
    let (mut e, _) = engine_with("MUM");
    e.run_until(us(600.0));
    assert_eq!(
        outcome(&e),
        (
            WorkCounters {
                serial_ticks: 234358,
                idle_ticks: 86930,
                dispatch_sweeps: 1,
                sweep_sm_visits: 30,
                batched_ticks: 0,
                batched_insts: 0,
            },
            1179424,
            840000
        )
    );
}

/// BS preempted mid-run on three SMs — one switch, one drain, one flush —
/// which then run HS: a context save, a drain to completion and a flushed
/// restart, with the resumes and dispatch sweeps they cause.
#[test]
fn switch_drain_and_flush_mid_run() {
    let (mut e, _) = engine_with("BS");
    let hs = e.launch_kernel(suite().require("HS").launches()[0].clone());
    e.run_until(us(20.0));
    for (sm, technique) in [
        (0, Technique::Switch),
        (1, Technique::Drain),
        (2, Technique::Flush),
    ] {
        let plan = SmPreemptPlan::uniform(e.sm_resident_indices(sm), technique);
        e.preempt_sm(sm, &plan).expect("a covering plan is legal");
    }
    let mut vacated: Vec<usize> = e
        .run_until(us(80.0))
        .into_iter()
        .filter_map(|ev| match ev {
            Event::PreemptionCompleted { sm, .. } => Some(sm),
            _ => None,
        })
        .collect();
    vacated.sort_unstable();
    assert_eq!(vacated, [0, 1, 2], "every preemption completes");
    for sm in 0..3 {
        e.assign_sm(sm, Some(hs));
    }
    e.run_until(us(160.0));
    assert_eq!(
        outcome(&e),
        (
            WorkCounters {
                serial_ticks: 28818,
                idle_ticks: 727,
                dispatch_sweeps: 386,
                sweep_sm_visits: 502,
                batched_ticks: 7951,
                batched_insts: 1466200,
            },
            1585822,
            224000
        )
    );
}
