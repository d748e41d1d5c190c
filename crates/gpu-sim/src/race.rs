//! Shard-race sanitizer: a dynamic oracle for the Phase-A purity contract.
//!
//! The parallel engine's correctness argument (`PARALLELISM.md`) rests on
//! one invariant: during Phase A of an epoch, the sharded workers advance
//! SMs through *pure* ticks only — ticks whose effects stay entirely inside
//! the SM — and everything that touches shared engine state (the memory
//! subsystem, functional memory, the dispatcher, calendar wakes) replays
//! serially in Phase B calendar order. The invariant used to be enforced by
//! a prose checklist and code review; this module machine-checks it at run
//! time, the same way [`FlushSanitizer`](crate::sanitizer::FlushSanitizer)
//! machine-checks the static idempotence classification.
//!
//! ## How it works
//!
//! When enabled ([`Engine::enable_race_sanitizer`](crate::Engine::enable_race_sanitizer)),
//! every instrumented shared resource — each memory partition, each
//! kernel's functional memory, the TB dispatcher, the calendar-wake path —
//! reports its accesses to a shared `RaceState`. The engine raises a
//! phase flag for exactly the window in which Phase-A shard workers run,
//! and each worker claims its SM in a shadow ownership map as it advances.
//! Any instrumented shared-resource access observed while the flag is up is
//! by construction an effect that bypassed the Interaction replay, and is
//! recorded as a [`RaceViolation`] with its cycle and resource. Accesses
//! outside the window are counted (so a clean report proves the oracle
//! watched real traffic) but are sanctioned: they *are* the serial replay.
//!
//! The sanitizer is zero-cost when off — every hook is an `Option` check —
//! and timing-invisible when on: it only observes, so sanitized runs stay
//! byte-identical to unsanitized ones.
//!
//! ```
//! use gpu_sim::{Engine, ExecMode, GpuConfig, KernelDesc, Program, Segment};
//!
//! let mut engine = Engine::new(GpuConfig::tiny());
//! engine.set_exec_mode(ExecMode::Parallel { shards: 2 });
//! engine.enable_race_sanitizer();
//! let k = engine
//!     .launch_kernel(
//!         KernelDesc::builder("probe")
//!             .grid_blocks(8)
//!             .threads_per_block(64)
//!             .regs_per_thread(16)
//!             .program(Program::new(vec![Segment::compute(500)]))
//!             .build()
//!             .unwrap(),
//!     );
//! for sm in 0..engine.config().num_sms {
//!     engine.assign_sm(sm, Some(k));
//! }
//! engine.run_until(1_000_000);
//! let report = engine.race_sanitizer().unwrap().report();
//! assert!(report.is_clean(), "{report:?}");
//! assert!(report.shared_accesses_checked > 0, "oracle must see traffic");
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

/// Cap on retained per-violation detail, mirroring the flush sanitizer's
/// cap: counters stay exact, the detail list stops growing.
const DETAIL_CAP: usize = 32;

const PHASE_SERIAL: u8 = 0;
const PHASE_PURE_A: u8 = 1;

/// An instrumented piece of shared engine state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SharedResource {
    /// A memory-subsystem partition (the shared DRAM/L2 queue).
    MemPartition(usize),
    /// A kernel's functional memory (effect application).
    FuncMem(usize),
    /// The thread-block dispatcher: its sweeps and their pending mark.
    Dispatcher,
    /// The calendar-wake path (an SM's next-tick write).
    CalendarWake,
    /// The deliberately-racy test cell used to validate the oracle itself
    /// (see [`Engine::attach_racy_test_cell`](crate::Engine::attach_racy_test_cell)).
    TestCell,
}

impl std::fmt::Display for SharedResource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SharedResource::MemPartition(p) => write!(f, "mem-partition {p}"),
            SharedResource::FuncMem(k) => write!(f, "functional memory of kernel {k}"),
            SharedResource::Dispatcher => write!(f, "tb dispatcher"),
            SharedResource::CalendarWake => write!(f, "calendar wake"),
            SharedResource::TestCell => write!(f, "test shared cell"),
        }
    }
}

/// One shared-state access that bypassed the Interaction replay: it was
/// observed while Phase-A shard workers were running.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceViolation {
    /// Cycle at which the access happened.
    pub cycle: u64,
    /// The shared resource that was touched.
    pub resource: SharedResource,
    /// The SM (shard ownership) the access came from, when the access site
    /// knows it (`None` for engine-side hooks that cannot attribute).
    pub owner: Option<usize>,
}

impl std::fmt::Display for RaceViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cycle {}: {} accessed during Phase A",
            self.cycle, self.resource
        )?;
        if let Some(sm) = self.owner {
            write!(f, " from SM {sm}")?;
        }
        Ok(())
    }
}

/// Who owned a resource the last time it was touched (shadow ownership map
/// entry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Owner {
    /// A Phase-A shard worker, advancing this SM's pure ticks.
    Shard(usize),
    /// The serial engine (Phase B replay / serial modes).
    Serial,
}

/// Map key: SM-local state is per-SM; everything else is a shared resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Resource {
    SmLocal(usize),
    Shared(SharedResource),
}

/// Shared, thread-safe recording state behind every hook. One per engine;
/// shard workers, the serial loop and test cells all hold `Arc`s to it.
#[derive(Debug, Default)]
pub(crate) struct RaceState {
    /// Current execution phase (`PHASE_PURE_A` only while shard workers
    /// may be running).
    phase: AtomicU8,
    /// Phase-A windows ([`crate::sm::Sm`] `advance_pure` calls) observed.
    pure_windows: AtomicU64,
    /// Warp instructions committed by pure ticks inside those windows.
    pure_insts: AtomicU64,
    /// Shared-resource accesses observed (any phase).
    checked: AtomicU64,
    /// Total violations (exact even past the detail cap).
    violation_count: AtomicU64,
    /// Shadow ownership map: who touched which resource last. Phase-A
    /// workers claim their SM-local state; shared resources are recorded
    /// as serially owned when first touched outside the window.
    owners: Mutex<BTreeMap<Resource, Owner>>,
    /// Capped violation detail.
    violations: Mutex<Vec<RaceViolation>>,
}

impl RaceState {
    /// Raise the Phase-A flag. Engine-side, immediately before shard
    /// workers start.
    pub(crate) fn enter_pure_phase(&self) {
        self.phase.store(PHASE_PURE_A, Ordering::Release);
    }

    /// Lower the Phase-A flag. Engine-side, after every worker has joined
    /// and before any serial commit work.
    pub(crate) fn exit_pure_phase(&self) {
        self.phase.store(PHASE_SERIAL, Ordering::Release);
    }

    /// A shard worker finished a pure-advance window over SM `sm`,
    /// committing `insts` warp instructions: claim the SM's local state in
    /// the ownership map.
    pub(crate) fn claim_pure_window(&self, sm: usize, insts: u64) {
        self.pure_windows.fetch_add(1, Ordering::Relaxed);
        self.pure_insts.fetch_add(insts, Ordering::Relaxed);
        let mut owners = self.owners.lock().expect("race-state lock");
        owners.insert(Resource::SmLocal(sm), Owner::Shard(sm));
    }

    /// An instrumented shared resource was accessed at `cycle`. Outside the
    /// Phase-A window this is the sanctioned serial replay and is only
    /// counted; inside the window it is, by construction, an effect that
    /// bypassed the Interaction replay — a violation.
    pub(crate) fn note_shared_access(
        &self,
        resource: SharedResource,
        owner: Option<usize>,
        cycle: u64,
    ) {
        self.checked.fetch_add(1, Ordering::Relaxed);
        if self.phase.load(Ordering::Acquire) != PHASE_PURE_A {
            return;
        }
        self.violation_count.fetch_add(1, Ordering::Relaxed);
        let mut owners = self.owners.lock().expect("race-state lock");
        owners.insert(
            Resource::Shared(resource),
            owner.map_or(Owner::Serial, Owner::Shard),
        );
        drop(owners);
        let mut detail = self.violations.lock().expect("race-state lock");
        if detail.len() < DETAIL_CAP {
            detail.push(RaceViolation {
                cycle,
                resource,
                owner,
            });
        }
    }
}

/// Lightweight per-SM handle a shard worker uses to report its pure-advance
/// windows (an `Arc` clone of the engine's [`RaceState`]).
#[derive(Debug, Clone)]
pub(crate) struct RaceProbe {
    state: Arc<RaceState>,
}

impl RaceProbe {
    pub(crate) fn new(state: Arc<RaceState>) -> Self {
        RaceProbe { state }
    }

    /// Report one completed `advance_pure` window.
    pub(crate) fn on_pure_window(&self, sm: usize, insts: u64) {
        self.state.claim_pure_window(sm, insts);
    }
}

/// A deliberately *unsanctioned* shared counter for validating the oracle:
/// cloned handles share one cell, and every bump reports itself as a
/// shared-resource access. Attached to SMs via
/// [`Engine::attach_racy_test_cell`](crate::Engine::attach_racy_test_cell),
/// committed pure ticks bump it — exactly the "new shared resource touched
/// from a pure tick" bug class the sanitizer exists to catch, so a parallel
/// run with a cell attached must report violations.
#[derive(Debug, Clone)]
pub struct TestSharedCell {
    value: Arc<AtomicU64>,
    state: Arc<RaceState>,
}

impl TestSharedCell {
    pub(crate) fn new(state: Arc<RaceState>) -> Self {
        TestSharedCell {
            value: Arc::new(AtomicU64::new(0)),
            state,
        }
    }

    /// Increment the shared cell from SM `owner` at `cycle`, reporting the
    /// access to the sanitizer.
    pub(crate) fn bump(&self, owner: usize, cycle: u64) {
        self.value.fetch_add(1, Ordering::Relaxed);
        self.state
            .note_shared_access(SharedResource::TestCell, Some(owner), cycle);
    }

    /// Total bumps across all handles of this cell.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Point-in-time summary of what the sanitizer observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceReport {
    /// Phase-A pure-advance windows observed (0 in serial modes).
    pub pure_windows: u64,
    /// Warp instructions committed by pure ticks inside those windows.
    pub pure_insts: u64,
    /// Shared-resource accesses checked, in any phase. A clean report with
    /// this at 0 proves nothing — the oracle never saw traffic.
    pub shared_accesses_checked: u64,
    /// Shared-resource accesses observed during a Phase-A window (exact,
    /// even past the detail cap).
    pub violation_count: u64,
    /// First 32 violations (the detail cap), in observation order.
    pub violations: Vec<RaceViolation>,
    /// Distinct resources in the shadow ownership map.
    pub resources_tracked: usize,
}

impl RaceReport {
    /// No shared-state access bypassed the Interaction replay.
    pub fn is_clean(&self) -> bool {
        self.violation_count == 0
    }
}

impl std::fmt::Display for RaceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "race sanitizer: {} violation(s), {} shared access(es) checked, \
             {} pure window(s) ({} insts), {} resource(s) tracked",
            self.violation_count,
            self.shared_accesses_checked,
            self.pure_windows,
            self.pure_insts,
            self.resources_tracked
        )?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        Ok(())
    }
}

/// The shard-race sanitizer attached to an engine (see the [module
/// docs](self)). Obtain via
/// [`Engine::race_sanitizer`](crate::Engine::race_sanitizer) /
/// [`Engine::take_race_sanitizer`](crate::Engine::take_race_sanitizer).
#[derive(Debug)]
pub struct RaceSanitizer {
    state: Arc<RaceState>,
}

impl RaceSanitizer {
    pub(crate) fn new() -> Self {
        RaceSanitizer {
            state: Arc::new(RaceState::default()),
        }
    }

    /// The shared recording state (for wiring hooks).
    pub(crate) fn state(&self) -> &Arc<RaceState> {
        &self.state
    }

    /// Create a test cell wired to this sanitizer (see [`TestSharedCell`]).
    pub(crate) fn test_cell(&self) -> TestSharedCell {
        TestSharedCell::new(Arc::clone(&self.state))
    }

    /// Summarize everything observed so far.
    pub fn report(&self) -> RaceReport {
        let owners = self.state.owners.lock().expect("race-state lock");
        let violations = self.state.violations.lock().expect("race-state lock");
        RaceReport {
            pure_windows: self.state.pure_windows.load(Ordering::Relaxed),
            pure_insts: self.state.pure_insts.load(Ordering::Relaxed),
            shared_accesses_checked: self.state.checked.load(Ordering::Relaxed),
            violation_count: self.state.violation_count.load(Ordering::Relaxed),
            violations: violations.clone(),
            resources_tracked: owners.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_accesses_are_sanctioned() {
        let san = RaceSanitizer::new();
        san.state()
            .note_shared_access(SharedResource::MemPartition(0), None, 100);
        san.state()
            .note_shared_access(SharedResource::Dispatcher, None, 101);
        let r = san.report();
        assert!(r.is_clean());
        assert_eq!(r.shared_accesses_checked, 2);
        assert_eq!(r.pure_windows, 0);
    }

    #[test]
    fn phase_a_access_is_a_violation() {
        let san = RaceSanitizer::new();
        san.state().enter_pure_phase();
        san.state().claim_pure_window(3, 17);
        san.state()
            .note_shared_access(SharedResource::TestCell, Some(3), 42);
        san.state().exit_pure_phase();
        san.state()
            .note_shared_access(SharedResource::TestCell, Some(3), 50);
        let r = san.report();
        assert!(!r.is_clean());
        assert_eq!(r.violation_count, 1);
        assert_eq!(r.shared_accesses_checked, 2);
        assert_eq!(r.pure_windows, 1);
        assert_eq!(r.pure_insts, 17);
        assert_eq!(
            r.violations,
            vec![RaceViolation {
                cycle: 42,
                resource: SharedResource::TestCell,
                owner: Some(3),
            }]
        );
        // SM 3's local claim plus the shared test cell.
        assert_eq!(r.resources_tracked, 2);
    }

    #[test]
    fn violation_detail_is_capped_but_counts_stay_exact() {
        let san = RaceSanitizer::new();
        san.state().enter_pure_phase();
        for i in 0..(DETAIL_CAP as u64 + 10) {
            san.state()
                .note_shared_access(SharedResource::CalendarWake, None, i);
        }
        let r = san.report();
        assert_eq!(r.violation_count, DETAIL_CAP as u64 + 10);
        assert_eq!(r.violations.len(), DETAIL_CAP);
    }

    #[test]
    fn test_cell_counts_and_reports() {
        let san = RaceSanitizer::new();
        let cell = san.test_cell();
        let clone = cell.clone();
        cell.bump(0, 10);
        clone.bump(1, 11);
        assert_eq!(cell.value(), 2);
        assert!(san.report().is_clean(), "serial bumps are sanctioned");
        san.state().enter_pure_phase();
        clone.bump(1, 12);
        assert_eq!(san.report().violation_count, 1);
    }

    #[test]
    fn report_renders_with_provenance() {
        let san = RaceSanitizer::new();
        san.state().enter_pure_phase();
        san.state()
            .note_shared_access(SharedResource::MemPartition(2), Some(5), 77);
        let text = san.report().to_string();
        assert!(text.contains("1 violation"), "{text}");
        assert!(text.contains("cycle 77"), "{text}");
        assert!(text.contains("mem-partition 2"), "{text}");
        assert!(text.contains("SM 5"), "{text}");
    }
}
