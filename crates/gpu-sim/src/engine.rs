//! The cycle engine: SMs + memory + kernel instances + dispatch.
//!
//! The engine is deliberately *mechanism, not policy*: it executes preemption
//! plans, tracks per-block progress and maintains the preempted-block queues,
//! while all decisions (which SM, which technique, when) are made by the
//! caller — the `chimera` crate's schedulers.
//!
//! # Execution modes
//!
//! The engine runs in one of three modes (selected with
//! [`Engine::set_exec_mode`]); all three produce **byte-identical** event
//! streams, statistics, observability logs and Chrome traces — see
//! `PARALLELISM.md` at the repository root for the full equivalence
//! argument:
//!
//! - [`ExecMode::Scan`] — the legacy linear min-scan reference scheduler:
//!   every step sweeps dispatch, scans all SMs for the minimum next-tick
//!   time and runs no batched issue. Slow and obviously correct; kept as
//!   the differential baseline.
//! - [`ExecMode::Event`] (the default) — per-SM next-tick times live both
//!   in the authoritative SMs themselves and in an *event calendar*: a
//!   fixed-size tournament tree with one `(cycle, SM index)` key per SM,
//!   so each step reads the earliest pending SM from the root instead of
//!   scanning all of them, and globally idle windows are skipped in one
//!   jump. Keys order by cycle, then SM index — the order the legacy
//!   min-scan produced — so the rewrite is observably identical.
//! - [`ExecMode::Parallel`] — the calendar engine plus an intra-run
//!   parallel phase: between *epoch barriers* the SMs are partitioned into
//!   contiguous shards, each advanced on its own worker thread through
//!   *pure* ticks only (state confined to the SM: compute issue, barriers,
//!   L1 hits). Any tick that would touch shared state — the memory
//!   subsystem's DRAM queues, functional memory effects, block completion
//!   and dispatch, preemption — stops the shard, and those *interaction*
//!   ticks are replayed serially in `(cycle, SM index)` calendar order,
//!   which is precisely the deterministic merge of the per-shard streams.
//!
//! Every mode runs the same SM tick, [`Sm::tick_bounded`]: the serial loop
//! passes it the memory subsystem, and the pure phase (`Sm::advance_pure`)
//! runs it without, so that tick itself reports where a shard must stop.
//!
//! The thread-block dispatcher is not on the calendar. Anything that can
//! change dispatchability (launch, assign, preemption, a block completing
//! or switching out) marks a pending sweep, and every loop iteration runs
//! it first — before the next tick, exactly where the legacy loop ran its
//! all-SM sweep. A block completion or a finished preemption marks only
//! its own SM, the one SM whose dispatchability it changed; everything
//! else marks all SMs. Memory partitions are not on the
//! calendar either: request timing is fixed at issue, and their statistics
//! are computed when read (see [`crate::mem`]). The event-ordering
//! contract all of this rests on: every observable the engine emits is
//! produced by a serial tick at a definite `(cycle, SM index)` point (or by
//! the sweep that precedes it), and consumers receive them in that order.

use std::collections::VecDeque;

use crate::block::{BlockId, BlockRun, TbSnapshot};
use crate::calendar::Calendar;
use crate::events::{BlockDecision, BlockExit, EventLog, ObsEvent, ShedReason};
use crate::kernel::{KernelDesc, Segment};
use crate::mem::MemSubsystem;
use crate::preempt::SmPreemptPlan;
use crate::rng::{hash_combine, splitmix64};
use crate::sm::{Effect, PreemptError, Sm, SmMode, SmOutput, SmSnapshot, TickLimits};
use crate::stats::{GpuStats, KernelStats, PreemptRecord, WorkCounters};
use crate::GpuConfig;

/// Identifies a launched kernel instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KernelId(pub usize);

impl KernelId {
    /// Sentinel for events that involve no kernel, such as the GPU-wide
    /// request-stream observability events ([`ObsEvent::RequestArrival`]
    /// and friends) that precede any kernel launch. Never a valid launched
    /// kernel: launch ids are dense from 0.
    pub const NONE: KernelId = KernelId(usize::MAX);
}

impl std::fmt::Display for KernelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "K{}", self.0)
    }
}

/// Simulation events reported by [`Engine::run_until`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A thread block completed.
    TbCompleted {
        /// Kernel the block belongs to.
        kernel: KernelId,
        /// SM it ran on.
        sm: usize,
        /// Grid block index.
        block: u32,
        /// Warp instructions the block executed.
        insts: u64,
        /// Cycles the block was resident.
        cycles: u64,
        /// Exact engine cycle of the completion. `run_until` returns events
        /// in batches, so the engine's cycle at delivery is the batch end —
        /// consumers measuring latencies (e.g. live drain-estimator
        /// accuracy) need the true completion time.
        cycle: u64,
    },
    /// All blocks of a kernel completed.
    KernelFinished {
        /// The finished kernel.
        kernel: KernelId,
    },
    /// An SM preemption finished; the SM is now empty and unassigned.
    PreemptionCompleted {
        /// The vacated SM.
        sm: usize,
        /// The kernel that was evicted.
        kernel: KernelId,
        /// Request-to-vacated latency in cycles.
        latency_cycles: u64,
    },
    /// A kernel crossed its configured issued-instruction cap.
    CapReached {
        /// The capped kernel.
        kernel: KernelId,
    },
}

/// How [`Engine::run_until`] advances the machine. All modes produce
/// byte-identical events, statistics, logs and traces; see the
/// [module docs](self) and `PARALLELISM.md` for the equivalence argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Legacy linear min-scan reference scheduler: O(num SMs) per step, no
    /// batched issue, dispatch swept every iteration. The slow,
    /// obviously-correct differential baseline.
    Scan,
    /// Event-calendar scheduler with the batched-issue fast path (the
    /// default).
    Event,
    /// Event-calendar scheduler with SM shards advanced concurrently on
    /// worker threads between epoch barriers; interactions with shared
    /// state replay serially in calendar order.
    Parallel {
        /// Worker shards the SMs are partitioned into.
        /// [`Engine::set_exec_mode`] clamps this to `1..=num_sms`: `1`
        /// exercises the epoch machinery without threads, and more shards
        /// than SMs would only produce empty shards.
        shards: usize,
    },
}

/// The dispatch sweep owed before the run loop's next tick.
#[derive(Debug, Clone, Copy)]
enum PendingSweep {
    /// Nothing changed dispatchability since the last sweep.
    Clean,
    /// Only this SM's state did (see [`Engine::mark_sm_dispatch_dirty`]).
    One(usize),
    /// Any SM's may have: sweep all of them in index order.
    All,
}

/// Functional-memory effect slot for a segment.
#[derive(Debug, Clone, Copy)]
enum EffectSlot {
    /// Per-(block, warp) output cell, with `overwrite` semantics flag.
    Cell { ordinal: usize, overwrite: bool },
    /// Shared atomic counter.
    Counter { ordinal: usize },
}

/// One store's effect on a functional-memory cell.
#[derive(Debug, Clone, Copy)]
enum CellWrite {
    /// A pure store: the cell becomes this value whatever it held.
    Store(u64),
    /// A read-modify-write: the cell becomes `overwrite_mix` of its current
    /// value, so replaying it is observable.
    Overwrite,
}

/// The modelled global memory a kernel writes to, written on first touch.
///
/// A cell whose written bit is clear holds `cell_init(seed, index)` by
/// definition: launch allocates zeroed storage and hashes nothing, and an
/// initial value is hashed only where it is read — by an overwrite of a
/// never-written cell, or by [`FuncMem::image`].
#[derive(Debug, Clone, Default)]
struct FuncMem {
    seed: u64,
    /// Cell values; meaningful only where the written bit is set.
    cells: Vec<u64>,
    /// One written bit per cell, 64 cells per word.
    written: Vec<u64>,
    counters: Vec<u64>,
}

impl FuncMem {
    /// `n_cells` cells at their initial values and `n_counters` zeroed
    /// atomic counters.
    fn new(seed: u64, n_cells: usize, n_counters: usize) -> Self {
        FuncMem {
            seed,
            cells: vec![0; n_cells],
            written: vec![0; n_cells.div_ceil(64)],
            counters: vec![0; n_counters],
        }
    }

    /// Cell `idx`'s current value.
    fn cell(&self, idx: usize) -> u64 {
        if self.written[idx / 64] & (1 << (idx % 64)) != 0 {
            self.cells[idx]
        } else {
            cell_init(self.seed, idx)
        }
    }

    /// Apply one store to cell `idx`.
    fn write_cell(&mut self, idx: usize, w: CellWrite) {
        self.cells[idx] = match w {
            CellWrite::Store(v) => v,
            CellWrite::Overwrite => overwrite_mix(self.cell(idx)),
        };
        self.written[idx / 64] |= 1 << (idx % 64);
    }

    /// The materialised image: every cell's current value.
    fn image(&self) -> Vec<u64> {
        (0..self.cells.len()).map(|i| self.cell(i)).collect()
    }
}

const CELL_INIT_TAG: u64 = 0xCE11;
const PURE_TAG: u64 = 0x5707;
const OVERWRITE_TAG: u64 = 0x0E77;

fn cell_init(seed: u64, idx: usize) -> u64 {
    hash_combine(&[seed, CELL_INIT_TAG, idx as u64])
}

fn pure_store_value(seed: u64, block: u32, warp: u32, ordinal: usize) -> u64 {
    hash_combine(&[
        seed,
        PURE_TAG,
        u64::from(block),
        u64::from(warp),
        ordinal as u64,
    ])
}

fn overwrite_mix(x: u64) -> u64 {
    splitmix64(x ^ OVERWRITE_TAG)
}

#[derive(Debug)]
struct KernelInstance {
    desc: KernelDesc,
    seed: u64,
    occupancy: u32,
    next_fresh: u32,
    restart_queue: VecDeque<u32>,
    resume_queue: VecDeque<TbSnapshot>,
    outstanding: u32,
    stats: KernelStats,
    func: FuncMem,
    inst_cap: Option<u64>,
    cap_emitted: bool,
    effect_slots: Vec<Option<EffectSlot>>,
    n_cell_segs: usize,
    /// Minimum over the grid of a block's total warp instructions (jitter
    /// scaling makes blocks unequal). A sound per-block lower bound for
    /// [`Engine::kernel_finish_lower_bound`], computed exactly from the
    /// grid's smallest jitter draw (see [`crate::block::min_block_total`]
    /// for the monotonicity argument). The analytic bound — every segment
    /// scaled by `1 − jitter` — would also be sound, but it is lower, so it
    /// would move the finish bound, and with it the batching horizons and
    /// the work counters.
    min_block_total: u64,
}

impl KernelInstance {
    fn new(id: KernelId, desc: KernelDesc, cfg: &GpuConfig, engine_seed: u64, now: u64) -> Self {
        let occupancy = crate::occupancy(cfg, &desc).blocks_per_sm;
        let seed = hash_combine(&[engine_seed, id.0 as u64]);
        let mut effect_slots = Vec::with_capacity(desc.program().segments().len());
        let mut n_cells = 0usize;
        let mut n_counters = 0usize;
        for (ix, seg) in desc.program().segments().iter().enumerate() {
            effect_slots.push(match *seg {
                Segment::GlobalStore { .. } => {
                    // The functional semantics of a store follow the derived
                    // classification: overwrites mix the current cell value
                    // (so replaying them is observable), pure stores are
                    // value-deterministic.
                    let s = EffectSlot::Cell {
                        ordinal: n_cells,
                        overwrite: desc.program().segment_non_idempotent(ix),
                    };
                    n_cells += 1;
                    Some(s)
                }
                Segment::Atomic { .. } => {
                    let s = EffectSlot::Counter {
                        ordinal: n_counters,
                    };
                    n_counters += 1;
                    Some(s)
                }
                _ => None,
            });
        }
        let n_slots =
            desc.grid_blocks() as usize * desc.warps_per_block() as usize * n_cells.max(1);
        let func = FuncMem::new(seed, n_slots, n_counters);
        let stats = KernelStats {
            name: desc.name().to_string(),
            launched_at: now,
            grid_blocks: desc.grid_blocks(),
            ..KernelStats::default()
        };
        let min_block_total = crate::block::min_block_total(&desc, seed);
        KernelInstance {
            desc,
            seed,
            occupancy,
            next_fresh: 0,
            restart_queue: VecDeque::new(),
            resume_queue: VecDeque::new(),
            outstanding: 0,
            stats,
            func,
            inst_cap: None,
            cap_emitted: false,
            effect_slots,
            n_cell_segs: n_cells,
            min_block_total,
        }
    }

    /// Account one block leaving an SM (flushed, switched out or completed).
    ///
    /// Each dispatch increments `outstanding` exactly once, so each exit must
    /// decrement it exactly once: a double-account would wrap to `u32::MAX`
    /// in release builds and corrupt `is_finished`/dispatch accounting from
    /// then on. Panic in debug builds; saturate instead of wrapping in
    /// release so a latent bug degrades stats rather than the simulation.
    fn release_block(&mut self) {
        debug_assert!(
            self.outstanding > 0,
            "block of kernel {:?} released twice (outstanding underflow)",
            self.stats.name
        );
        self.outstanding = self.outstanding.saturating_sub(1);
    }

    fn has_dispatchable(&self) -> bool {
        !self.resume_queue.is_empty()
            || !self.restart_queue.is_empty()
            || self.next_fresh < self.desc.grid_blocks()
    }

    /// Whether an instruction cap is set and has not fired yet. While it is,
    /// other SMs' cap checks read this kernel's issue counter tick by tick,
    /// so neither batched issue nor the pure phase may run its SMs ahead.
    fn cap_armed(&self) -> bool {
        self.inst_cap.is_some() && !self.cap_emitted
    }

    fn is_finished(&self) -> bool {
        self.stats.completed_tbs == self.desc.grid_blocks()
            && self.outstanding == 0
            && !self.has_dispatchable()
    }

    fn cell_index(&self, block: u32, warp: u32, ordinal: usize) -> usize {
        (block as usize * self.desc.warps_per_block() as usize + warp as usize) * self.n_cell_segs
            + ordinal
    }

    fn apply_effect(&mut self, e: &Effect) {
        let Some(slot) = self.effect_slots.get(e.seg_idx).copied().flatten() else {
            return;
        };
        match slot {
            EffectSlot::Cell { ordinal, overwrite } => {
                let idx = self.cell_index(e.block, e.warp, ordinal);
                let w = if overwrite {
                    CellWrite::Overwrite
                } else {
                    CellWrite::Store(pure_store_value(self.seed, e.block, e.warp, ordinal))
                };
                self.func.write_cell(idx, w);
            }
            EffectSlot::Counter { ordinal } => {
                self.func.counters[ordinal] += 1;
            }
        }
    }

    /// The memory image a single, preemption-free execution would produce.
    fn reference_output(&self) -> (Vec<u64>, Vec<u64>) {
        let mut cells: Vec<u64> = (0..self.func.cells.len())
            .map(|i| cell_init(self.seed, i))
            .collect();
        let mut counters = vec![0u64; self.func.counters.len()];
        let warps = self.desc.warps_per_block();
        for slot in self.effect_slots.iter() {
            let Some(slot) = slot else { continue };
            for block in 0..self.desc.grid_blocks() {
                for warp in 0..warps {
                    match *slot {
                        EffectSlot::Cell { ordinal, overwrite } => {
                            let idx = self.cell_index(block, warp, ordinal);
                            cells[idx] = if overwrite {
                                overwrite_mix(cells[idx])
                            } else {
                                pure_store_value(self.seed, block, warp, ordinal)
                            };
                        }
                        EffectSlot::Counter { ordinal } => counters[ordinal] += 1,
                    }
                }
            }
        }
        (cells, counters)
    }
}

/// The GPU simulator.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug)]
pub struct Engine {
    cfg: GpuConfig,
    mem: MemSubsystem,
    sms: Vec<Sm>,
    /// Event calendar: one `(next-tick cycle, SM index)` key per SM in a
    /// tournament tree (see [`crate::calendar`]), always equal to the SMs'
    /// own `next_tick`s. Its minimum is the earliest cycle and, within a
    /// cycle, the lowest SM index — the same order the linear min-scan
    /// produces, so event streams are byte-identical. Kept in sync in
    /// every mode, so switching modes needs no rebuild.
    calendar: Calendar,
    /// Execution mode (see [`ExecMode`]). [`ExecMode::Scan`] never reads
    /// the calendar; [`ExecMode::Parallel`] adds the sharded pure
    /// phase in front of the serial calendar loop.
    mode: ExecMode,
    /// The dispatch sweep owed before the run loop's next tick (see
    /// [`PendingSweep`]). Starts at [`PendingSweep::All`]: a fresh engine
    /// sweeps once.
    pending_sweep: PendingSweep,
    kernels: Vec<KernelInstance>,
    /// Indices of the launched kernels that have not finished, in launch
    /// order: the only ones [`Engine::kernel_finish_lower_bound`] visits.
    live_kernels: Vec<usize>,
    /// The serial loop's tick output, reused across ticks so its vectors
    /// keep their capacity; empty between ticks.
    tick_out: SmOutput,
    /// Ticks run by the serial event loop (see [`WorkCounters`]).
    serial_ticks: u64,
    /// Dispatch sweeps run (see [`WorkCounters`]).
    dispatch_sweeps: u64,
    /// SMs those sweeps visited (see [`WorkCounters`]).
    sweep_sm_visits: u64,
    cycle: u64,
    seed: u64,
    prefer_preempted: bool,
    free_context_moves: bool,
    break_on_kernel_finish: bool,
    kernel_finish_pending: bool,
    /// Cached [`Engine::kernel_finish_lower_bound`] for the current run
    /// (see [`Engine::finish_bound`]); `None` until first needed. Cleared on
    /// every [`Engine::run_until`] entry, because launches, assignments,
    /// preemptions and instruction caps only happen between runs.
    finish_bound: Option<u64>,
    preempt_records: Vec<PreemptRecord>,
    open_preempts: Vec<Option<usize>>, // per SM: index into preempt_records
    events: Vec<Event>,
    /// Observability event log; `None` (the default) records nothing and
    /// costs one `is-some` check on the per-block bookkeeping paths.
    obs: Option<EventLog>,
    /// Dynamic flush sanitizer; `None` (the default) records nothing. When
    /// enabled, SMs additionally emit effects for completed load segments
    /// so read footprints are observable.
    san: Option<crate::sanitizer::FlushSanitizer>,
    /// Shard-race sanitizer (see [`crate::race`]); `None` (the default)
    /// records nothing and costs one `is-some` check on shared-state paths.
    race: Option<crate::race::RaceSanitizer>,
}

// The experiment harness runs one Engine per worker thread; moving an Engine
// to a thread must stay possible, so fail the build if anyone adds a
// non-Send field (Rc, raw pointer, ...) to the simulator state.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Engine>();
};

impl Engine {
    /// Create an engine with the given configuration and the default seed.
    pub fn new(cfg: GpuConfig) -> Self {
        Self::with_seed(cfg, 42)
    }

    /// Create an engine with an explicit determinism seed.
    pub fn with_seed(cfg: GpuConfig, seed: u64) -> Self {
        let sms = (0..cfg.num_sms)
            .map(|i| Sm::new(i, &cfg, seed))
            .collect::<Vec<_>>();
        let n = sms.len();
        Engine {
            mem: MemSubsystem::new(&cfg),
            sms,
            // Fresh SMs are armed for cycle 0, so the engine discovers their
            // idle state.
            calendar: Calendar::new(n),
            mode: ExecMode::Event,
            pending_sweep: PendingSweep::All,
            kernels: Vec::new(),
            live_kernels: Vec::new(),
            tick_out: SmOutput::default(),
            serial_ticks: 0,
            dispatch_sweeps: 0,
            sweep_sm_visits: 0,
            cycle: 0,
            seed,
            prefer_preempted: true,
            free_context_moves: false,
            break_on_kernel_finish: false,
            kernel_finish_pending: false,
            finish_bound: None,
            preempt_records: Vec::new(),
            open_preempts: vec![None; n],
            events: Vec::new(),
            obs: None,
            san: None,
            race: None,
            cfg,
        }
    }

    /// Turn on the observability event log, retaining at most `capacity`
    /// events (oldest dropped first; see [`EventLog`]). Replaces any
    /// previously collected log.
    ///
    /// ```
    /// use gpu_sim::{Engine, GpuConfig};
    ///
    /// let mut engine = Engine::new(GpuConfig::tiny());
    /// assert!(engine.event_log().is_none(), "off by default");
    /// engine.enable_event_log(1 << 20);
    /// assert_eq!(engine.event_log().unwrap().capacity(), 1 << 20);
    /// ```
    pub fn enable_event_log(&mut self, capacity: usize) {
        self.obs = Some(EventLog::new(capacity));
    }

    /// The observability event log, if enabled.
    pub fn event_log(&self) -> Option<&EventLog> {
        self.obs.as_ref()
    }

    /// Detach and return the event log, disabling further recording.
    pub fn take_event_log(&mut self) -> Option<EventLog> {
        self.obs.take()
    }

    /// Turn on the dynamic flush sanitizer (see [`crate::sanitizer`]): from
    /// now on per-block read/write footprints are recorded and every flush,
    /// flush denial and block completion is checked against the static
    /// idempotence classification. Replaces any previous sanitizer state.
    ///
    /// The footprints come from segment completions, so enabling the
    /// sanitizer mid-run misattributes already-running blocks; enable it
    /// before launching kernels. Timing is unaffected either way.
    ///
    /// ```
    /// use gpu_sim::{Engine, GpuConfig};
    ///
    /// let mut engine = Engine::new(GpuConfig::tiny());
    /// assert!(engine.sanitizer().is_none(), "off by default");
    /// engine.enable_sanitizer();
    /// assert!(engine.sanitizer().unwrap().report().is_clean());
    /// ```
    pub fn enable_sanitizer(&mut self) {
        self.san = Some(crate::sanitizer::FlushSanitizer::new());
        for sm in &mut self.sms {
            sm.set_record_loads(true);
        }
    }

    /// The flush sanitizer, if enabled.
    pub fn sanitizer(&self) -> Option<&crate::sanitizer::FlushSanitizer> {
        self.san.as_ref()
    }

    /// Detach and return the sanitizer, disabling further checking.
    pub fn take_sanitizer(&mut self) -> Option<crate::sanitizer::FlushSanitizer> {
        for sm in &mut self.sms {
            sm.set_record_loads(false);
        }
        self.san.take()
    }

    /// Turn on the shard-race sanitizer (see [`crate::race`]): from now on
    /// every instrumented shared resource — memory partitions, functional
    /// memory, the dispatcher, the calendar-wake path — reports its
    /// accesses, and any access observed while Phase-A shard workers are
    /// running is recorded as a violation. Timing is unaffected; the
    /// sanitizer only observes, so sanitized runs stay byte-identical.
    /// Replaces any previous race-sanitizer state.
    ///
    /// ```
    /// use gpu_sim::{Engine, GpuConfig};
    ///
    /// let mut engine = Engine::new(GpuConfig::tiny());
    /// assert!(engine.race_sanitizer().is_none(), "off by default");
    /// engine.enable_race_sanitizer();
    /// assert!(engine.race_sanitizer().unwrap().report().is_clean());
    /// ```
    pub fn enable_race_sanitizer(&mut self) {
        let san = crate::race::RaceSanitizer::new();
        self.mem
            .set_race_state(Some(std::sync::Arc::clone(san.state())));
        for sm in &mut self.sms {
            sm.set_race_probe(Some(crate::race::RaceProbe::new(std::sync::Arc::clone(
                san.state(),
            ))));
        }
        self.race = Some(san);
    }

    /// The shard-race sanitizer, if enabled.
    pub fn race_sanitizer(&self) -> Option<&crate::race::RaceSanitizer> {
        self.race.as_ref()
    }

    /// Detach and return the race sanitizer, disabling further checking.
    pub fn take_race_sanitizer(&mut self) -> Option<crate::race::RaceSanitizer> {
        self.mem.set_race_state(None);
        for sm in &mut self.sms {
            sm.set_race_probe(None);
        }
        self.race.take()
    }

    /// Attach a deliberately-racy shared cell to the given SMs and return a
    /// handle to it (test support; see [`crate::race::TestSharedCell`]).
    /// Every committed pure tick on those SMs bumps the shared cell, which
    /// the race sanitizer must flag during Phase A — this validates the
    /// oracle catches exactly the "new shared resource touched from a pure
    /// tick" bug class.
    ///
    /// # Panics
    ///
    /// If the race sanitizer is not enabled.
    #[doc(hidden)]
    pub fn attach_racy_test_cell(&mut self, sms: &[usize]) -> crate::race::TestSharedCell {
        let cell = self
            .race
            .as_ref()
            .expect("enable_race_sanitizer first")
            .test_cell();
        for &i in sms {
            self.sms[i].set_test_shared_cell(Some(cell.clone()));
        }
        cell
    }

    /// Record one per-block Algorithm 1 decision (an
    /// [`ObsEvent::Decision`]) at the current cycle.
    ///
    /// The engine is mechanism, not policy: it cannot see the cost model, so
    /// the policy layer (`chimera::select`) pushes its decision records here
    /// right before executing the plan with [`Engine::preempt_sm`]. No-op
    /// while the log is disabled.
    ///
    /// ```
    /// use gpu_sim::{BlockDecision, Engine, GpuConfig, KernelId, Technique};
    ///
    /// let mut engine = Engine::new(GpuConfig::tiny());
    /// engine.enable_event_log(64);
    /// let d = BlockDecision {
    ///     block: 0,
    ///     chosen: Technique::Drain,
    ///     est_switch: None,
    ///     est_drain: None,
    ///     est_flush: None,
    /// };
    /// engine.record_decision(1, KernelId(0), 21_000, d);
    /// assert_eq!(engine.event_log().unwrap().len(), 1);
    /// ```
    pub fn record_decision(
        &mut self,
        sm: usize,
        kernel: KernelId,
        limit_cycles: u64,
        decision: BlockDecision,
    ) {
        if let Some(log) = self.obs.as_mut() {
            log.push(ObsEvent::Decision {
                cycle: self.cycle,
                sm,
                kernel,
                limit_cycles,
                slack_cycles: decision.slack_cycles(limit_cycles),
                decision,
            });
        }
    }

    /// Record a snapshot of the online cost estimator's per-kernel state (an
    /// [`ObsEvent::EstimatorUpdate`]) at the current cycle.
    ///
    /// Like [`Engine::record_decision`], this is pushed in by the policy
    /// layer — the engine cannot see the estimator — typically once per
    /// selection request, so the log shows which distribution snapshot each
    /// Algorithm 1 decision was made from. No-op while the log is disabled.
    ///
    /// `quantile_tb_insts` is the tracked risk-quantile of per-block
    /// instructions rounded to an integer, or 0 while no quantile estimate
    /// exists yet (thin samples or a static estimator); `risk_pct` is the
    /// configured risk quantile in percent (e.g. 95).
    ///
    /// ```
    /// use gpu_sim::{Engine, GpuConfig, KernelId};
    ///
    /// let mut engine = Engine::new(GpuConfig::tiny());
    /// engine.enable_event_log(64);
    /// engine.record_estimator_update(KernelId(0), 40, 1000, 1090, 95);
    /// assert_eq!(engine.event_log().unwrap().len(), 1);
    /// ```
    pub fn record_estimator_update(
        &mut self,
        kernel: KernelId,
        samples: u64,
        mean_tb_insts: u64,
        quantile_tb_insts: u64,
        risk_pct: u32,
    ) {
        if let Some(log) = self.obs.as_mut() {
            log.push(ObsEvent::EstimatorUpdate {
                cycle: self.cycle,
                kernel,
                samples,
                mean_tb_insts,
                quantile_tb_insts,
                risk_pct,
            });
        }
    }

    /// Record an open-loop serving request's arrival (an
    /// [`ObsEvent::RequestArrival`]) at the current cycle.
    ///
    /// Pushed in by the serving front-end (`chimera::runner::serve`) — the
    /// engine has no request concept of its own. No-op while the log is
    /// disabled.
    ///
    /// ```
    /// use gpu_sim::{Engine, GpuConfig};
    ///
    /// let mut engine = Engine::new(GpuConfig::tiny());
    /// engine.enable_event_log(64);
    /// engine.record_request_arrival(0, 1, 2, 9_000);
    /// assert_eq!(engine.event_log().unwrap().len(), 1);
    /// ```
    pub fn record_request_arrival(
        &mut self,
        request: u64,
        tenant: u32,
        class: u32,
        deadline_cycle: u64,
    ) {
        if let Some(log) = self.obs.as_mut() {
            log.push(ObsEvent::RequestArrival {
                cycle: self.cycle,
                request,
                tenant,
                class,
                deadline_cycle,
            });
        }
    }

    /// Record a request's admission into its tenant queue (an
    /// [`ObsEvent::RequestAdmitted`]) at the current cycle; `queued` is the
    /// queue depth after admission. Pushed in by the serving front-end like
    /// [`Engine::record_request_arrival`]. No-op while the log is disabled.
    pub fn record_request_admitted(&mut self, request: u64, tenant: u32, queued: u32) {
        if let Some(log) = self.obs.as_mut() {
            log.push(ObsEvent::RequestAdmitted {
                cycle: self.cycle,
                request,
                tenant,
                queued,
            });
        }
    }

    /// Record a shed (rejected or dropped) request (an
    /// [`ObsEvent::RequestShed`]) at the current cycle. Pushed in by the
    /// serving front-end like [`Engine::record_request_arrival`]. No-op
    /// while the log is disabled.
    pub fn record_request_shed(&mut self, request: u64, tenant: u32, reason: ShedReason) {
        if let Some(log) = self.obs.as_mut() {
            log.push(ObsEvent::RequestShed {
                cycle: self.cycle,
                request,
                tenant,
                reason,
            });
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Current simulation cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Whether preempted blocks are re-dispatched before fresh ones
    /// (the paper's policy; `true` by default).
    pub fn set_prefer_preempted(&mut self, prefer: bool) {
        self.prefer_preempted = prefer;
    }

    /// Make context saves and restores free (zero latency, zero halt).
    ///
    /// This is **not** a preemption technique — it is the measurement-only
    /// *oracle* used as the fair baseline for throughput-overhead numbers
    /// (§4.1): the workload still loses the preempted SMs for the duration of
    /// the preempting task, but pays nothing for the hand-over itself.
    pub fn set_free_context_moves(&mut self, free: bool) {
        self.free_context_moves = free;
    }

    /// Make [`Engine::run_until`] return as soon as a kernel finishes, so a
    /// scheduler can react (relaunch, repartition) without the GPU idling
    /// until the requested target cycle.
    ///
    /// Batched issue and the parallel pure phase keep running while this
    /// is set, capped strictly below the earliest cycle at which any
    /// kernel could finish, so every mode returns in the same state.
    pub fn set_break_on_kernel_finish(&mut self, brk: bool) {
        self.break_on_kernel_finish = brk;
    }

    /// Select the execution mode (see [`ExecMode`]). Can be switched at any
    /// point between runs; all modes produce byte-identical output.
    ///
    /// [`ExecMode::Parallel`] shard counts are clamped to `1..=num_sms`:
    /// `0` becomes `1` (the epoch machinery without extra threads), and
    /// counts above the SM count become `num_sms` (one SM per shard is
    /// already the finest partition; extra shards would only be empty).
    /// [`Engine::exec_mode`] reports the clamped value.
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.mode = match mode {
            ExecMode::Parallel { shards } => ExecMode::Parallel {
                shards: shards.clamp(1, self.sms.len().max(1)),
            },
            m => m,
        };
    }

    /// The current execution mode.
    pub fn exec_mode(&self) -> ExecMode {
        self.mode
    }

    /// Set `sm`'s next-tick time and keep the event calendar in sync.
    ///
    /// All next-tick writes must go through here so the calendar's key for
    /// `sm` always equals the SM's own value (`u64::MAX`: idle with nothing
    /// pending).
    fn wake(&mut self, sm: usize, t: u64) {
        if let Some(r) = &self.race {
            r.state().note_shared_access(
                crate::race::SharedResource::CalendarWake,
                None,
                self.cycle,
            );
        }
        if self.sms[sm].next_tick() == t {
            return;
        }
        self.sms[sm].set_next_tick(t);
        self.calendar.set(sm, t);
    }

    /// Request an all-SM dispatch sweep before the run loop's next tick —
    /// exactly where the legacy loop swept. Arming is shared engine state,
    /// so the race sanitizer sees it like a sweep.
    fn mark_dispatch_dirty(&mut self) {
        self.note_dispatcher_access();
        self.pending_sweep = PendingSweep::All;
    }

    /// Request a sweep of `sm` alone: only its own state changed
    /// dispatchability (a freed slot, a finished preemption). A second SM
    /// marked before the sweep escalates to the all-SM sweep, which visits
    /// them in index order as the legacy loop did.
    fn mark_sm_dispatch_dirty(&mut self, sm: usize) {
        self.note_dispatcher_access();
        self.pending_sweep = match self.pending_sweep {
            PendingSweep::Clean => PendingSweep::One(sm),
            PendingSweep::One(j) if j == sm => PendingSweep::One(sm),
            _ => PendingSweep::All,
        };
    }

    /// Report a dispatcher access to the race sanitizer, if enabled.
    fn note_dispatcher_access(&self) {
        if let Some(r) = &self.race {
            r.state()
                .note_shared_access(crate::race::SharedResource::Dispatcher, None, self.cycle);
        }
    }

    /// Run the pending dispatch sweep, if any. Both run loops call this
    /// before every step, so a sweep always precedes the next SM tick and
    /// never moves the clock.
    ///
    /// A single-SM sweep dispatches exactly what the all-SM sweep would:
    /// after every sweep no SM can take a block of its kernel, and only the
    /// marked SM's state changed since.
    fn sweep_if_dirty(&mut self) {
        let sms = match std::mem::replace(&mut self.pending_sweep, PendingSweep::Clean) {
            PendingSweep::Clean => return,
            PendingSweep::One(sm) => sm..sm + 1,
            PendingSweep::All => 0..self.sms.len(),
        };
        self.dispatch_sweeps += 1;
        self.sweep_sm_visits += sms.len() as u64;
        self.note_dispatcher_access();
        for i in sms {
            self.dispatch_sm(i);
        }
        debug_assert_eq!(
            self.first_dispatchable_sm(),
            None,
            "a dispatch sweep left a dispatchable SM"
        );
    }

    /// The first SM that could take a block of its kernel right now, if
    /// any: the state every sweep must leave at `None`.
    fn first_dispatchable_sm(&self) -> Option<usize> {
        self.sms.iter().position(|sm| {
            sm.assigned().is_some_and(|k| {
                let ki = &self.kernels[k.0];
                sm.can_dispatch(k, ki.occupancy) && ki.has_dispatchable()
            })
        })
    }

    /// The next `(cycle, SM index)` to process, without consuming it: the
    /// calendar's root, or in scan mode the legacy linear min-scan (which
    /// reports idle SMs as `u64::MAX` entries) as the independent
    /// reference.
    fn next_event(&self) -> Option<(u64, usize)> {
        if self.mode == ExecMode::Scan {
            return self
                .sms
                .iter()
                .enumerate()
                .min_by_key(|&(_, sm)| sm.next_tick())
                .map(|(i, sm)| (sm.next_tick(), i));
        }
        self.calendar.min()
    }

    /// Whether `sm` could receive blocks mid-window: it has a free slot AND
    /// its kernel has blocks to hand out — now, or later in the window via
    /// a switch-out landing in the resume queue, which requires some SM to
    /// be mid-preemption (`any_preempting`, evaluated only when needed).
    /// A full SM is always safe: batched windows and pure ticks never
    /// complete a block, so no slot frees before the window ends.
    fn may_gain_blocks(&self, sm: &Sm, any_preempting: impl FnOnce() -> bool) -> bool {
        sm.assigned().is_some_and(|k| {
            let ki = &self.kernels[k.0];
            sm.can_dispatch(k, ki.occupancy) && (ki.has_dispatchable() || any_preempting())
        })
    }

    /// Launch a kernel; blocks start flowing to SMs assigned to it.
    pub fn launch_kernel(&mut self, desc: KernelDesc) -> KernelId {
        let id = KernelId(self.kernels.len());
        self.kernels.push(KernelInstance::new(
            id, desc, &self.cfg, self.seed, self.cycle,
        ));
        self.live_kernels.push(id.0);
        self.mark_dispatch_dirty();
        id
    }

    /// Kernel descriptor of a launched kernel.
    pub fn kernel_desc(&self, id: KernelId) -> &KernelDesc {
        &self.kernels[id.0].desc
    }

    /// Per-SM resident-block occupancy limit for a kernel.
    pub fn kernel_occupancy(&self, id: KernelId) -> u32 {
        self.kernels[id.0].occupancy
    }

    /// Statistics of a launched kernel.
    pub fn kernel_stats(&self, id: KernelId) -> &KernelStats {
        &self.kernels[id.0].stats
    }

    /// Number of blocks of `id` not yet dispatched (queued or fresh).
    pub fn pending_blocks(&self, id: KernelId) -> u64 {
        let k = &self.kernels[id.0];
        k.resume_queue.len() as u64
            + k.restart_queue.len() as u64
            + u64::from(k.desc.grid_blocks() - k.next_fresh)
    }

    /// Stop counting a kernel as making useful progress after `cap` issued
    /// warp instructions; a [`Event::CapReached`] fires once when crossed.
    pub fn set_inst_cap(&mut self, id: KernelId, cap: u64) {
        self.kernels[id.0].inst_cap = Some(cap);
    }

    /// Assign an SM to a kernel (or to none). New blocks of that kernel are
    /// dispatched to the SM as slots free up.
    pub fn assign_sm(&mut self, sm: usize, kernel: Option<KernelId>) {
        self.sms[sm].set_assigned(kernel);
        self.wake(sm, self.sms[sm].next_tick().min(self.cycle));
        self.mark_dispatch_dirty();
    }

    /// The kernel an SM is assigned to.
    pub fn sm_assigned(&self, sm: usize) -> Option<KernelId> {
        self.sms[sm].assigned()
    }

    /// The kernel whose blocks are resident on an SM.
    pub fn sm_resident_kernel(&self, sm: usize) -> Option<KernelId> {
        self.sms[sm].resident_kernel()
    }

    /// Number of blocks resident on an SM.
    pub fn sm_resident_count(&self, sm: usize) -> usize {
        self.sms[sm].resident_count()
    }

    /// Grid indices of the blocks resident on an SM.
    pub fn sm_resident_indices(&self, sm: usize) -> Vec<u32> {
        self.sms[sm].resident_indices()
    }

    /// Whether a preemption is in progress on an SM.
    pub fn sm_is_preempting(&self, sm: usize) -> bool {
        self.sms[sm].is_preempting()
    }

    /// Coarse mode of an SM.
    pub fn sm_mode(&self, sm: usize) -> SmMode {
        self.sms[sm].mode(self.cycle)
    }

    /// Progress snapshot of an SM's resident blocks (cost-estimation input).
    pub fn sm_snapshot(&self, sm: usize) -> SmSnapshot {
        self.sms[sm].snapshot(self.cycle)
    }

    /// All preemption records so far.
    pub fn preempt_records(&self) -> &[PreemptRecord] {
        &self.preempt_records
    }

    /// GPU-wide statistics.
    pub fn gpu_stats(&self) -> GpuStats {
        GpuStats {
            cycle: self.cycle,
            total_issued_insts: self.sms.iter().map(Sm::insts_issued_total).sum(),
            mem_bytes_served: self.mem.total_bytes_served(),
        }
    }

    /// The engine's work counters so far: the serial loop's tick and
    /// dispatch-sweep counts, and the SMs' idle and batched ticks, summed.
    pub fn work_counters(&self) -> WorkCounters {
        let mut c = WorkCounters {
            serial_ticks: self.serial_ticks,
            dispatch_sweeps: self.dispatch_sweeps,
            sweep_sm_visits: self.sweep_sm_visits,
            ..WorkCounters::default()
        };
        for sm in &self.sms {
            let w = sm.work();
            c.idle_ticks += w.idle_ticks;
            c.batched_ticks += w.batched_ticks;
            c.batched_insts += w.batched_insts;
        }
        c
    }

    /// Per-memory-partition counters as of the current cycle, in partition
    /// order: bytes served, requests retired (completion cycle `<=`
    /// [`Engine::cycle`]) and requests still in flight.
    ///
    /// Computed when read from each partition's completion FIFO (see
    /// [`crate::mem`]), so they are byte-identical across execution modes
    /// like every other observable: every mode issues the same requests and
    /// stops at the same cycle.
    pub fn mem_partition_stats(&self) -> Vec<crate::mem::MemPartitionStats> {
        self.mem.partition_stats(self.cycle)
    }

    /// Verify the kernel's functional memory against a preemption-free
    /// reference execution. Returns the number of mismatching locations
    /// (0 means the execution was semantically correct).
    pub fn output_mismatches(&self, id: KernelId) -> usize {
        let k = &self.kernels[id.0];
        let (cells, counters) = k.reference_output();
        let mut bad = 0;
        bad += k
            .func
            .image()
            .iter()
            .zip(&cells)
            .filter(|(a, b)| a != b)
            .count();
        bad += k
            .func
            .counters
            .iter()
            .zip(&counters)
            .filter(|(a, b)| a != b)
            .count();
        bad
    }

    /// Begin a preemption on `sm` according to `plan`.
    ///
    /// Returns `Ok(true)` if the preemption completed immediately (pure
    /// flush), `Ok(false)` if it is in progress.
    ///
    /// # Errors
    ///
    /// Returns [`PreemptError`] if the plan is invalid for the SM's resident
    /// blocks (see [`SmPreemptPlan`]). The engine refuses to flush blocks
    /// past their idempotence point unless the plan opts into unsafety.
    pub fn preempt_sm(&mut self, sm: usize, plan: &SmPreemptPlan) -> Result<bool, PreemptError> {
        let kernel = self.sms[sm]
            .resident_kernel()
            .ok_or(PreemptError::NothingResident)?;
        let mut out = SmOutput::default();
        let save_cycles = if self.free_context_moves {
            0
        } else {
            self.cfg
                .sm_transfer_cycles(self.kernels[kernel.0].desc.block_context_bytes())
        };
        let flushed = match self.sms[sm].begin_preempt(self.cycle, plan, save_cycles, &mut out) {
            Ok(flushed) => flushed,
            Err(e) => {
                // A denied flush is one side of the sanitizer's differential
                // oracle: if the block's dynamic footprint is still clean,
                // the static safety check was (benignly) conservative.
                if let (PreemptError::UnsafeFlush { block }, Some(san)) = (&e, self.san.as_mut()) {
                    san.on_flush_denied(kernel, *block);
                }
                return Err(e);
            }
        };
        // The SM must not receive more blocks of the evicted kernel.
        self.sms[sm].set_assigned(None);
        if let Some(log) = self.obs.as_mut() {
            log.push(ObsEvent::PreemptRequested {
                cycle: self.cycle,
                sm,
                kernel,
                blocks: u32::try_from(plan.entries.len()).expect("resident block count fits u32"),
            });
            for &(id, wasted, _) in &flushed {
                log.push(ObsEvent::BlockEnd {
                    cycle: self.cycle,
                    sm,
                    kernel,
                    block: id.index,
                    exit: BlockExit::Flushed,
                    insts: wasted,
                });
            }
        }
        let techniques = plan.entries.iter().map(|&(_, t)| t).collect();
        let record = PreemptRecord {
            sm,
            kernel,
            requested_at: self.cycle,
            completed_at: None,
            techniques,
        };
        self.preempt_records.push(record);
        self.open_preempts[sm] = Some(self.preempt_records.len() - 1);
        // Account flushed blocks: work discarded, block restarts from scratch.
        for (id, wasted, past_idem) in flushed {
            if let Some(san) = self.san.as_mut() {
                san.on_flush(kernel, id.index, past_idem);
            }
            let ki = &mut self.kernels[kernel.0];
            ki.stats.wasted_flush_insts += wasted;
            ki.stats.flush_count += 1;
            ki.restart_queue.push_back(id.index);
            ki.release_block();
        }
        if self.cfg.charge_ctx_switch_bandwidth && plan.count(crate::Technique::Switch) > 0 {
            let desc_bytes = self.kernels[kernel.0].desc.block_context_bytes();
            let n = plan.count(crate::Technique::Switch) as u64;
            self.mem.bulk_access(self.cycle, desc_bytes * n);
        }
        let done = out.preempt_done.is_some();
        self.process_output(sm, &mut out);
        self.wake(sm, self.cycle.max(1));
        self.mark_dispatch_dirty();
        Ok(done)
    }

    /// Run the simulation until `target` cycles, returning events in order.
    ///
    /// The loop is event-driven: the calendar yields the earliest pending
    /// `(cycle, SM index)` pair directly, jumping over idle windows rather
    /// than scanning every SM per step, and the all-SM dispatch sweep only
    /// runs when something could have changed dispatchability (launch,
    /// assign, preemption, a block completing or switching out). A pending
    /// sweep runs even when `target` is behind the clock.
    pub fn run_until(&mut self, target: u64) -> Vec<Event> {
        // The caller may have mutated assignments or queues between runs,
        // which can move the earliest possible kernel finish either way.
        self.mark_dispatch_dirty();
        self.finish_bound = None;
        let broke = match self.mode {
            ExecMode::Parallel { shards } => self.run_epochs(target, shards),
            _ => self.step_events_until(target),
        };
        if !broke {
            self.kernel_finish_pending = false;
            self.cycle = self.cycle.max(target);
        }
        std::mem::take(&mut self.events)
    }

    /// The serial event loop: sweep dispatch if dirty, then tick the
    /// calendar's earliest pending SM, in `(cycle, SM index)` order through
    /// `target`. Returns `true` when the run broke early on a kernel finish
    /// (see [`Engine::set_break_on_kernel_finish`]), `false` when every
    /// event through `target` was processed.
    fn step_events_until(&mut self, target: u64) -> bool {
        loop {
            // Scan mode reproduces the legacy hot loop, which swept every SM
            // on every iteration; the other modes sweep only when dirty.
            if self.mode == ExecMode::Scan {
                self.pending_sweep = PendingSweep::All;
            }
            self.sweep_if_dirty();
            let Some((t, idx)) = self.next_event() else {
                return false;
            };
            if t > target {
                return false;
            }
            self.cycle = self.cycle.max(t);
            let resident = self.sms[idx].resident_kernel();
            // Batched issue must stop where the serial schedule could be
            // observed or perturbed: at the run horizon (the caller may
            // preempt/reassign afterwards), strictly before the earliest
            // cycle at which a kernel finish could end the run early,
            // immediately while an armed instruction cap makes other SMs'
            // cap checks read this SM's issue counter mid-run, and whenever
            // this SM could still receive blocks mid-window.
            let horizon = if self.mode == ExecMode::Scan {
                self.cycle
            } else if self.break_on_kernel_finish {
                target.min(self.finish_bound(self.cycle).saturating_sub(1))
            } else {
                target
            };
            let limits = TickLimits {
                horizon,
                max_insts: if resident.is_some_and(|k| self.kernels[k.0].cap_armed()) {
                    0
                } else {
                    u64::MAX
                },
                may_gain_blocks: self
                    .may_gain_blocks(&self.sms[idx], || self.sms.iter().any(Sm::is_preempting)),
            };
            self.serial_ticks += 1;
            let next = self.sms[idx]
                .tick_bounded(
                    self.cycle,
                    resident.map(|k| &self.kernels[k.0].desc),
                    Some(&mut self.mem),
                    &mut self.tick_out,
                    &limits,
                )
                .expect("a tick with the memory subsystem always commits");
            let wake_at = if next == u64::MAX {
                u64::MAX
            } else {
                next.max(self.cycle + 1)
            };
            self.wake(idx, wake_at);
            let issued = std::mem::take(&mut self.tick_out.issued_insts);
            if issued > 0 {
                if let Some(k) = resident {
                    let ki = &mut self.kernels[k.0];
                    ki.stats.issued_insts += u64::from(issued);
                    if ki.cap_armed() && ki.inst_cap.is_some_and(|c| ki.stats.issued_insts >= c) {
                        ki.cap_emitted = true;
                        self.events.push(Event::CapReached { kernel: k });
                    }
                }
            }
            // Most ticks only issue; skip the output walk unless the tick
            // produced something else.
            if self.tick_out.has_interactions() {
                let mut out = std::mem::take(&mut self.tick_out);
                self.process_output(idx, &mut out);
                self.tick_out = out;
            }
            if self.break_on_kernel_finish && self.kernel_finish_pending {
                self.kernel_finish_pending = false;
                return true;
            }
        }
    }

    /// Advance by `cycles` from the current cycle.
    pub fn run_for(&mut self, cycles: u64) -> Vec<Event> {
        self.run_until(self.cycle + cycles)
    }

    /// The parallel run loop: alternate a sharded *pure* phase (Phase A)
    /// with the serial event loop (Phase B) between epoch barriers.
    ///
    /// Each epoch picks a bound `min(target, t0 + EPOCH_QUANTUM)` from the
    /// earliest pending event `t0`, advances every eligible SM concurrently
    /// through its pure ticks up to the bound, then replays the remaining
    /// *interaction* ticks serially in `(cycle, SM index)` calendar order —
    /// the deterministic merge point for everything observable. Output is
    /// independent of both the shard count and the quantum because pure
    /// ticks touch no shared state and every interaction still executes at
    /// its exact serial position. Returns `true` on an early
    /// break-on-kernel-finish, like [`Engine::step_events_until`].
    fn run_epochs(&mut self, target: u64, shards: usize) -> bool {
        /// Epoch length in cycles. Purely a throughput knob: long enough to
        /// amortize the per-epoch barrier, short enough that Phase A rarely
        /// overshoots far past the next interaction.
        const EPOCH_QUANTUM: u64 = 8192;
        loop {
            // Run a pending sweep before sizing the epoch: shard eligibility
            // (`advance_shards`' job list) must see post-dispatch state.
            self.sweep_if_dirty();
            let Some((t0, _)) = self.next_event() else {
                return false;
            };
            if t0 > target {
                return false;
            }
            let bound = target.min(t0.saturating_add(EPOCH_QUANTUM));
            // While an instruction cap is armed, only the fully-serial loop
            // preserves the tick-by-tick order of the cap checks.
            if !self.kernels.iter().any(KernelInstance::cap_armed) {
                let mut bound_a = bound;
                if self.break_on_kernel_finish {
                    // An early return must leave the machine exactly as the
                    // serial engine's: cap the pure phase strictly below the
                    // earliest cycle at which any kernel could finish, so no
                    // pure tick commits past the potential break point.
                    bound_a = bound_a.min(self.finish_bound(t0).saturating_sub(1));
                }
                if bound_a >= t0 {
                    self.advance_shards(bound_a, shards);
                }
            }
            if self.step_events_until(bound) {
                return true;
            }
        }
    }

    /// Phase A of an epoch: partition the SMs into `shards` contiguous
    /// chunks and advance each chunk on its own thread through pure ticks
    /// up to `bound` (see [`Sm::advance_pure`]). Results are committed in
    /// SM order on the caller's thread, so calendar contents and kernel
    /// statistics never depend on thread scheduling.
    fn advance_shards(&mut self, bound: u64, shards: usize) {
        let any_preempting = self.sms.iter().any(Sm::is_preempting);
        // An SM is eligible unless the serial phase owns a transition of
        // its state this epoch: an in-progress preemption, or a possible
        // mid-epoch block arrival (which pure ticks cannot change: they
        // never complete blocks, and preemptions only start between runs or
        // at serial break points).
        let jobs: Vec<Option<u64>> = self
            .sms
            .iter()
            .map(|sm| {
                let start = sm.next_tick().max(self.cycle);
                (!sm.is_preempting()
                    && sm.resident_count() > 0
                    && sm.next_tick() != u64::MAX
                    && start <= bound
                    && !self.may_gain_blocks(sm, || any_preempting))
                .then_some(start)
            })
            .collect();
        if !jobs.iter().any(Option::is_some) {
            return;
        }
        // Per-SM kernel descriptors, borrowed from `self.kernels` — disjoint
        // from the `self.sms` chunks the workers mutate.
        let descs: Vec<Option<&KernelDesc>> = self
            .sms
            .iter()
            .map(|s| s.resident_kernel().map(|k| &self.kernels[k.0].desc))
            .collect();
        let worker =
            |sms: &mut [Sm], jobs: &[Option<u64>], descs: &[Option<&KernelDesc>], base: usize| {
                let mut out = Vec::new();
                for (off, sm) in sms.iter_mut().enumerate() {
                    if let Some(start) = jobs[off] {
                        let (next, issued) = sm.advance_pure(start, bound, descs[off]);
                        out.push((base + off, next, issued));
                    }
                }
                out
            };
        let chunk = self.sms.len().div_ceil(shards.max(1)).max(1);
        let mut results: Vec<(usize, u64, u64)> = Vec::new();
        // Phase-A window for the race sanitizer: every instrumented
        // shared-state access between here and the matching exit is, by the
        // purity contract, a violation. Raised before any worker (including
        // the inline `shards <= 1` path) runs a pure tick, lowered before
        // the serial commit loop below issues its sanctioned wakes.
        if let Some(r) = &self.race {
            r.state().enter_pure_phase();
        }
        if shards <= 1 {
            results = worker(&mut self.sms, &jobs, &descs, 0);
        } else {
            let mut tasks = Vec::new();
            for (ci, ((sms, js), ds)) in self
                .sms
                .chunks_mut(chunk)
                .zip(jobs.chunks(chunk))
                .zip(descs.chunks(chunk))
                .enumerate()
            {
                if js.iter().any(Option::is_some) {
                    tasks.push((ci * chunk, sms, js, ds));
                }
            }
            std::thread::scope(|scope| {
                let mut tasks = tasks.into_iter();
                let first = tasks.next();
                let handles: Vec<_> = tasks
                    .map(|(base, sms, js, ds)| scope.spawn(move || worker(sms, js, ds, base)))
                    .collect();
                // Run the first shard on this thread while the others work.
                if let Some((base, sms, js, ds)) = first {
                    results.extend(worker(sms, js, ds, base));
                }
                for h in handles {
                    results.extend(h.join().expect("shard worker panicked"));
                }
            });
            results.sort_unstable_by_key(|&(i, _, _)| i);
        }
        if let Some(r) = &self.race {
            r.state().exit_pure_phase();
        }
        for (i, next, issued) in results {
            // `next` is the cycle of the SM's first unexecuted tick (its
            // first interaction, or its wake time past the bound), exactly
            // what the calendar must yield for the serial phase.
            self.wake(i, next);
            if issued > 0 {
                if let Some(k) = self.sms[i].resident_kernel() {
                    // Commutative sum: per-tick serial additions and one
                    // barrier-time addition reach the same totals, and no
                    // consumer reads them mid-epoch (cap-armed epochs skip
                    // Phase A entirely).
                    self.kernels[k.0].stats.issued_insts += issued;
                }
            }
        }
    }

    /// The kernel-finish bound both run loops cap early-break-safe work
    /// with: batched issue in [`Engine::step_events_until`] and the pure
    /// phase in [`Engine::run_epochs`] may run through `bound − 1` at most.
    ///
    /// The cached [`Engine::kernel_finish_lower_bound`] stays sound for the
    /// whole run — the simulation only moves forward from the state it was
    /// computed on, and everything that could move it earlier happens
    /// between runs — so it is recomputed only once the clock `now` reaches
    /// it, where a fresh bound from the current state may lie further out.
    fn finish_bound(&mut self, now: u64) -> u64 {
        match self.finish_bound {
            Some(b) if now < b => b,
            _ => {
                let b = self.kernel_finish_lower_bound(now);
                self.finish_bound = Some(b);
                b
            }
        }
    }

    /// A sound lower bound on the earliest cycle at which *any* unfinished
    /// kernel can finish, given the machine state and that nothing happens
    /// before cycle `now`.
    ///
    /// A kernel finishes when its last block completes, and every remaining
    /// block still has to push its remaining warp instructions through one
    /// SM's issue pipeline, each occupying it for `issue_interval` cycles
    /// (memory stalls, halts and queueing only add). A block completes on
    /// the tick that *issues* its last chunk of up to `issue_chunk`
    /// instructions, so only the instructions before that chunk cost issue
    /// time. So per kernel:
    /// `base + issue_interval × (max(remaining insts over remaining blocks) − issue_chunk)`,
    /// saturating at `base`, with the per-block remainder itself
    /// lower-bounded: exact for resident blocks and switch snapshots, and
    /// the grid-wide minimum block length for fresh/restarted blocks
    /// (jitter scaling makes block lengths unequal; an overestimate here
    /// would be unsound). `u64::MAX` once every launched kernel has
    /// finished.
    ///
    /// Public only for the soundness property tests; the run loops read it
    /// through a per-run cache.
    #[doc(hidden)]
    pub fn kernel_finish_lower_bound(&self, now: u64) -> u64 {
        let base = self.cycle.max(now);
        let interval = self.cfg.issue_interval();
        let chunk = u64::from(self.cfg.issue_chunk.max(1));
        let mut lb = u64::MAX;
        for &ki in &self.live_kernels {
            let k = &self.kernels[ki];
            // Exact remainder of the kernel's resident block furthest from
            // completion. An SM only ever holds blocks of one kernel (see
            // `Sm::can_dispatch`), so SMs of other kernels are skipped whole.
            let mut rem_max = self
                .sms
                .iter()
                .filter(|sm| sm.resident_kernel() == Some(KernelId(ki)))
                .flat_map(Sm::blocks)
                .map(|b| b.total_insts().saturating_sub(b.issued_insts()))
                .max()
                .unwrap_or(0);
            if k.next_fresh < k.desc.grid_blocks() || !k.restart_queue.is_empty() {
                rem_max = rem_max.max(k.min_block_total);
            }
            for snap in &k.resume_queue {
                rem_max = rem_max.max(snap.total_insts.saturating_sub(snap.insts));
            }
            let issue_time = interval.saturating_mul(rem_max.saturating_sub(chunk));
            lb = lb.min(base.saturating_add(issue_time));
        }
        lb
    }

    /// Apply and drain one tick's output (effects, switch-outs, block
    /// completions, a finished preemption), leaving `out` empty with its
    /// capacity kept for the next tick.
    fn process_output(&mut self, sm: usize, out: &mut SmOutput) {
        // A freed slot, a newly queued context or a finished preemption can
        // make dispatch possible again; nothing else an SM tick produces
        // changes dispatchability. A switched-out context grows its kernel's
        // resume queue, which any SM of that kernel may take; a freed slot
        // or a finished preemption changes only this SM.
        if !out.switched_out.is_empty() {
            self.mark_dispatch_dirty();
        } else if !out.completed.is_empty() || out.preempt_done.is_some() {
            self.mark_sm_dispatch_dirty(sm);
        }
        for e in out.effects.drain(..) {
            if let Some(r) = &self.race {
                r.state().note_shared_access(
                    crate::race::SharedResource::FuncMem(e.kernel.0),
                    Some(sm),
                    self.cycle,
                );
            }
            self.kernels[e.kernel.0].apply_effect(&e);
            if let Some(san) = self.san.as_mut() {
                let seg = self.kernels[e.kernel.0].desc.program().segments()[e.seg_idx];
                san.on_effect(e.kernel, e.block, e.seg_idx, &seg);
            }
        }
        for snap in out.switched_out.drain(..) {
            let k = snap.id.kernel;
            if let Some(log) = self.obs.as_mut() {
                log.push(ObsEvent::BlockEnd {
                    cycle: self.cycle,
                    sm,
                    kernel: k,
                    block: snap.id.index,
                    exit: BlockExit::Switched,
                    insts: snap.insts,
                });
            }
            let ki = &mut self.kernels[k.0];
            ki.stats.switch_count += 1;
            ki.release_block();
            ki.resume_queue.push_back(snap);
        }
        for (id, insts, cycles) in out.completed.drain(..) {
            if let Some(log) = self.obs.as_mut() {
                log.push(ObsEvent::BlockEnd {
                    cycle: self.cycle,
                    sm,
                    kernel: id.kernel,
                    block: id.index,
                    exit: BlockExit::Completed,
                    insts,
                });
            }
            if let Some(san) = self.san.as_mut() {
                let static_non_idem = !self.kernels[id.kernel.0].desc.program().is_idempotent();
                san.on_complete(id.kernel, id.index, static_non_idem);
            }
            let ki = &mut self.kernels[id.kernel.0];
            ki.release_block();
            ki.stats.completed_tbs += 1;
            ki.stats.completed_insts += insts;
            ki.stats.sum_completed_cycles += cycles;
            // Welford update of the block-length distribution (mean/m2/max):
            // the variance feeds the §4.1 drain-latency headroom when
            // observations are read back from these statistics.
            let x = insts as f64;
            let delta = x - ki.stats.mean_tb_insts;
            ki.stats.mean_tb_insts += delta / f64::from(ki.stats.completed_tbs);
            ki.stats.m2_tb_insts += delta * (x - ki.stats.mean_tb_insts);
            ki.stats.max_tb_insts = ki.stats.max_tb_insts.max(insts);
            self.events.push(Event::TbCompleted {
                kernel: id.kernel,
                sm,
                block: id.index,
                insts,
                cycles,
                cycle: self.cycle,
            });
            if ki.is_finished() && !ki.stats.finished {
                ki.stats.finished = true;
                ki.stats.finished_at = Some(self.cycle);
                self.live_kernels.retain(|&k| k != id.kernel.0);
                self.events
                    .push(Event::KernelFinished { kernel: id.kernel });
                self.kernel_finish_pending = true;
            }
        }
        if let Some(latency) = out.preempt_done.take() {
            if let Some(rec_idx) = self.open_preempts[sm].take() {
                let rec = &mut self.preempt_records[rec_idx];
                rec.completed_at = Some(rec.requested_at + latency);
                let kernel = rec.kernel;
                self.events.push(Event::PreemptionCompleted {
                    sm,
                    kernel,
                    latency_cycles: latency,
                });
                if let Some(log) = self.obs.as_mut() {
                    log.push(ObsEvent::PreemptCompleted {
                        cycle: self.cycle,
                        sm,
                        kernel,
                        latency_cycles: latency,
                    });
                }
            }
        }
    }

    /// Hand SM `i` blocks of its assigned kernel until it is full or the
    /// kernel has none left to dispatch.
    fn dispatch_sm(&mut self, i: usize) {
        let Some(kid) = self.sms[i].assigned() else {
            return;
        };
        let occ = self.kernels[kid.0].occupancy;
        let mut dispatched = false;
        while self.sms[i].can_dispatch(kid, occ) && self.kernels[kid.0].has_dispatchable() {
            let Some(block) = self.pop_next_block(kid, i) else {
                break;
            };
            self.kernels[kid.0].outstanding += 1;
            self.sms[i].dispatch(block, &self.kernels[kid.0].desc);
            dispatched = true;
        }
        if dispatched {
            // Wake the SM: its cached next-tick may be stale.
            self.wake(i, self.sms[i].next_tick().min(self.cycle));
        }
    }

    fn pop_next_block(&mut self, kid: KernelId, sm: usize) -> Option<BlockRun> {
        let now = self.cycle;
        let load_cycles = if self.free_context_moves {
            0
        } else {
            self.cfg
                .sm_transfer_cycles(self.kernels[kid.0].desc.block_context_bytes())
        };
        // Decide which block to hand out first (queue pops and the fresh
        // counter need `&mut`), then build it — constructing fresh/restarted
        // blocks borrows the descriptor in place instead of cloning it on
        // every dispatch.
        enum Choice {
            Resume(TbSnapshot),
            Restart(u32),
            Fresh(u32),
        }
        let choice = {
            let ki = &mut self.kernels[kid.0];
            let fresh = |ki: &mut KernelInstance| {
                (ki.next_fresh < ki.desc.grid_blocks()).then(|| {
                    let idx = ki.next_fresh;
                    ki.next_fresh += 1;
                    Choice::Fresh(idx)
                })
            };
            if self.prefer_preempted {
                if let Some(snap) = ki.resume_queue.pop_front() {
                    Choice::Resume(snap)
                } else if let Some(idx) = ki.restart_queue.pop_front() {
                    Choice::Restart(idx)
                } else {
                    fresh(ki)?
                }
            } else if let Some(c) = fresh(ki) {
                c
            } else if let Some(snap) = ki.resume_queue.pop_front() {
                Choice::Resume(snap)
            } else if let Some(idx) = ki.restart_queue.pop_front() {
                Choice::Restart(idx)
            } else {
                return None;
            }
        };
        match choice {
            Choice::Resume(snap) => {
                self.record_block_begin(sm, kid, snap.id.index, true, now);
                Some(self.make_resumed(kid, sm, snap, now, load_cycles))
            }
            Choice::Restart(idx) | Choice::Fresh(idx) => {
                self.record_block_begin(sm, kid, idx, false, now);
                let ki = &self.kernels[kid.0];
                Some(BlockRun::new(
                    BlockId {
                        kernel: kid,
                        index: idx,
                    },
                    &ki.desc,
                    ki.seed,
                    now,
                ))
            }
        }
    }

    /// Push a [`ObsEvent::BlockBegin`] when the log is enabled.
    #[inline]
    fn record_block_begin(
        &mut self,
        sm: usize,
        kernel: KernelId,
        block: u32,
        resumed: bool,
        now: u64,
    ) {
        if let Some(log) = self.obs.as_mut() {
            log.push(ObsEvent::BlockBegin {
                cycle: now,
                sm,
                kernel,
                block,
                resumed,
            });
        }
    }

    fn make_resumed(
        &mut self,
        kid: KernelId,
        sm: usize,
        snap: TbSnapshot,
        now: u64,
        load_cycles: u64,
    ) -> BlockRun {
        if self.cfg.charge_ctx_switch_bandwidth {
            let bytes = self.kernels[kid.0].desc.block_context_bytes();
            self.mem.bulk_access(now, bytes);
        }
        // The context load stalls the whole receiving SM, mirroring the
        // paper's 2x (save + restore) throughput-overhead model for switching.
        self.sms[sm].halt_until(now + load_cycles);
        BlockRun::from_snapshot(snap, now, now + load_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{KernelDesc, Program, Segment};
    use crate::preempt::Technique;

    fn cfg() -> GpuConfig {
        GpuConfig::tiny()
    }

    fn simple_kernel(grid: u32, insts: u32) -> KernelDesc {
        KernelDesc::builder("t")
            .grid_blocks(grid)
            .threads_per_block(64)
            .regs_per_thread(16)
            .program(Program::new(vec![
                Segment::compute(insts),
                Segment::store(4),
            ]))
            .build()
            .unwrap()
    }

    fn assign_all(e: &mut Engine, k: KernelId) {
        for i in 0..e.config().num_sms {
            e.assign_sm(i, Some(k));
        }
    }

    #[test]
    fn kernel_runs_to_completion() {
        let mut e = Engine::new(cfg());
        let k = e.launch_kernel(simple_kernel(32, 100));
        assign_all(&mut e, k);
        let events = e.run_until(10_000_000);
        assert!(e.kernel_stats(k).finished, "kernel should finish");
        assert_eq!(e.kernel_stats(k).completed_tbs, 32);
        assert!(events
            .iter()
            .any(|ev| matches!(ev, Event::KernelFinished { .. })));
        // 32 blocks x 2 warps x 104 insts.
        assert_eq!(e.kernel_stats(k).completed_insts, 32 * 2 * 104);
        assert_eq!(e.output_mismatches(k), 0);
    }

    #[test]
    fn unassigned_engine_makes_no_progress() {
        let mut e = Engine::new(cfg());
        let k = e.launch_kernel(simple_kernel(4, 100));
        e.run_until(100_000);
        assert_eq!(e.kernel_stats(k).issued_insts, 0);
        assert!(!e.kernel_stats(k).finished);
    }

    #[test]
    fn drain_preemption_finishes_resident_blocks_only() {
        let mut e = Engine::new(cfg());
        let k = e.launch_kernel(simple_kernel(64, 2_000));
        e.assign_sm(0, Some(k));
        e.run_until(100); // dispatch + some progress
        let resident = e.sm_resident_count(0);
        assert!(resident > 0);
        let plan = SmPreemptPlan::uniform(e.sms[0].resident_indices(), Technique::Drain);
        assert!(!e.preempt_sm(0, &plan).unwrap());
        let mut done = false;
        let mut completed_after = 0;
        for ev in e.run_until(100_000_000) {
            match ev {
                Event::PreemptionCompleted {
                    sm: 0,
                    latency_cycles,
                    ..
                } => {
                    done = true;
                    assert!(latency_cycles > 0);
                }
                Event::TbCompleted { .. } if done => completed_after += 1,
                _ => {}
            }
        }
        assert!(done, "drain must complete");
        assert_eq!(
            completed_after, 0,
            "no new blocks after drain (SM unassigned)"
        );
        assert_eq!(e.sm_resident_count(0), 0);
        assert_eq!(e.sm_assigned(0), None);
    }

    #[test]
    fn flush_preemption_is_instant_and_blocks_restart() {
        let mut e = Engine::new(cfg());
        let k = e.launch_kernel(simple_kernel(8, 5_000));
        e.assign_sm(0, Some(k));
        e.run_until(5_000);
        let before = e.kernel_stats(k).issued_insts;
        assert!(before > 0);
        let plan = SmPreemptPlan::uniform(e.sms[0].resident_indices(), Technique::Flush);
        assert!(
            e.preempt_sm(0, &plan).unwrap(),
            "flush completes immediately"
        );
        assert!(e.kernel_stats(k).wasted_flush_insts > 0);
        assert!(e.kernel_stats(k).flush_count > 0);
        // Reassign and finish: flushed blocks restart and the output is intact.
        e.assign_sm(0, Some(k));
        e.run_until(80_000_000);
        assert!(e.kernel_stats(k).finished);
        assert_eq!(
            e.output_mismatches(k),
            0,
            "idempotent kernel unharmed by flush"
        );
    }

    #[test]
    fn switch_preemption_preserves_progress() {
        let mut e = Engine::new(cfg());
        let k = e.launch_kernel(simple_kernel(4, 50_000));
        e.assign_sm(0, Some(k));
        e.run_until(20_000);
        let issued_before = e.kernel_stats(k).issued_insts;
        let plan = SmPreemptPlan::uniform(e.sms[0].resident_indices(), Technique::Switch);
        assert!(!e.preempt_sm(0, &plan).unwrap());
        let evs = e.run_until(e.cycle() + 1_000_000);
        assert!(evs
            .iter()
            .any(|ev| matches!(ev, Event::PreemptionCompleted { sm: 0, .. })));
        assert!(e.kernel_stats(k).switch_count > 0);
        // Resume on SM 1 and complete.
        e.assign_sm(1, Some(k));
        e.run_until(e.cycle() + 400_000_000);
        assert!(
            e.kernel_stats(k).finished,
            "switched blocks must resume and finish"
        );
        assert_eq!(e.output_mismatches(k), 0);
        // No instructions were wasted by the switch.
        assert_eq!(e.kernel_stats(k).wasted_flush_insts, 0);
        assert!(e.kernel_stats(k).issued_insts >= issued_before);
    }

    #[test]
    fn unsafe_flush_corrupts_non_idempotent_output() {
        // A kernel whose block does an early atomic, then computes.
        let desc = KernelDesc::builder("naughty")
            .grid_blocks(2)
            .threads_per_block(32)
            .regs_per_thread(16)
            .program(Program::new(vec![
                Segment::atomic(1),
                Segment::compute(40_000),
            ]))
            .build()
            .unwrap();
        let mut e = Engine::new(cfg());
        let k = e.launch_kernel(desc);
        e.assign_sm(0, Some(k));
        // Run until the atomic has definitely executed.
        e.run_until(200_000);
        let snap = e.sm_snapshot(0);
        assert!(snap.blocks.iter().any(|b| b.past_idem_point));
        let safe = SmPreemptPlan::uniform(e.sms[0].resident_indices(), Technique::Flush);
        assert!(
            e.preempt_sm(0, &safe).is_err(),
            "engine refuses unsafe flush"
        );
        let unsafe_plan = SmPreemptPlan {
            allow_unsafe_flush: true,
            ..safe
        };
        e.preempt_sm(0, &unsafe_plan).unwrap();
        e.assign_sm(0, Some(k));
        e.run_until(e.cycle() + 500_000_000);
        assert!(e.kernel_stats(k).finished);
        assert!(
            e.output_mismatches(k) > 0,
            "atomic counter must show duplicated execution"
        );
    }

    #[test]
    fn inst_cap_event_fires_once() {
        let mut e = Engine::new(cfg());
        let k = e.launch_kernel(simple_kernel(64, 1_000));
        e.set_inst_cap(k, 1_000);
        assign_all(&mut e, k);
        let evs = e.run_until(50_000_000);
        let caps = evs
            .iter()
            .filter(|ev| matches!(ev, Event::CapReached { .. }))
            .count();
        assert_eq!(caps, 1);
    }

    #[test]
    fn preempted_blocks_are_redispatched_first() {
        let mut e = Engine::new(cfg());
        let k = e.launch_kernel(simple_kernel(64, 3_000));
        e.assign_sm(0, Some(k));
        e.run_until(2_000);
        let resident = e.sms[0].resident_indices();
        let plan = SmPreemptPlan::uniform(resident.clone(), Technique::Flush);
        e.preempt_sm(0, &plan).unwrap();
        // Reassign: the flushed blocks should come back before fresh ones.
        e.assign_sm(0, Some(k));
        e.run_until(e.cycle() + 10);
        let now_resident = e.sms[0].resident_indices();
        for r in &resident {
            assert!(
                now_resident.contains(r),
                "flushed block {r} should restart first"
            );
        }
    }

    /// The work counters of one fixed tiny scenario, pinned: a change
    /// that makes the engine do more (or less) work for the same
    /// simulation shows up here on any host. The scan reference never
    /// batches and sweeps before every step.
    #[test]
    fn work_counters_are_pinned_on_a_tiny_scenario() {
        let run = |mode: ExecMode| {
            let mut e = Engine::with_seed(cfg(), 7);
            e.set_exec_mode(mode);
            let k = e.launch_kernel(
                KernelDesc::builder("w")
                    .grid_blocks(6)
                    .threads_per_block(96)
                    .regs_per_thread(16)
                    .program(Program::new(vec![
                        Segment::load(6),
                        Segment::compute(400),
                        Segment::Barrier,
                        Segment::compute(90),
                        Segment::store(2),
                    ]))
                    .build()
                    .unwrap(),
            );
            assign_all(&mut e, k);
            e.run_until(50_000_000);
            assert!(e.kernel_stats(k).finished);
            let issued = e.gpu_stats().total_issued_insts;
            (e.work_counters(), issued)
        };
        let (event, issued) = run(ExecMode::Event);
        assert_eq!(
            (event, issued),
            (
                WorkCounters {
                    serial_ticks: 105,
                    idle_ticks: 1,
                    dispatch_sweeps: 7,
                    // One all-SM sweep at run entry, then single-SM
                    // sweeps after each block completion.
                    sweep_sm_visits: 8,
                    batched_ticks: 9,
                    batched_insts: 8600,
                },
                8964
            )
        );
        let (scan, scan_issued) = run(ExecMode::Scan);
        assert_eq!(scan_issued, issued);
        assert_eq!((scan.batched_ticks, scan.batched_insts), (0, 0));
        // One all-SM sweep per loop iteration; the last iteration ends the
        // run.
        assert_eq!(scan.dispatch_sweeps, scan.serial_ticks + 1);
        assert_eq!(
            scan.sweep_sm_visits,
            scan.dispatch_sweeps * cfg().num_sms as u64
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut e = Engine::with_seed(cfg(), 7);
            let k = e.launch_kernel(simple_kernel(48, 500));
            assign_all(&mut e, k);
            e.run_until(50_000_000);
            let s = e.kernel_stats(k);
            (
                s.finished_at,
                s.completed_insts,
                e.gpu_stats().total_issued_insts,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn pending_blocks_accounting() {
        let mut e = Engine::new(cfg());
        let k = e.launch_kernel(simple_kernel(10, 100));
        assert_eq!(e.pending_blocks(k), 10);
        e.assign_sm(0, Some(k));
        e.run_until(10);
        let resident = e.sm_resident_count(0) as u64;
        assert_eq!(e.pending_blocks(k), 10 - resident);
        e.run_until(50_000_000);
        assert_eq!(e.pending_blocks(k), 0);
    }

    #[test]
    fn preempting_empty_sm_is_an_error() {
        let mut e = Engine::new(cfg());
        let _k = e.launch_kernel(simple_kernel(4, 100));
        let plan = SmPreemptPlan::uniform([0u32], Technique::Drain);
        assert!(e.preempt_sm(0, &plan).is_err());
    }

    #[test]
    fn kernel_occupancy_matches_calculator() {
        let mut e = Engine::new(cfg());
        let desc = simple_kernel(4, 100);
        let occ = crate::occupancy(e.config(), &desc).blocks_per_sm;
        let k = e.launch_kernel(desc);
        assert_eq!(e.kernel_occupancy(k), occ);
    }

    #[test]
    fn gpu_stats_aggregate_issue_counts() {
        let mut e = Engine::new(cfg());
        let k = e.launch_kernel(simple_kernel(8, 200));
        assign_all(&mut e, k);
        e.run_until(50_000_000);
        let g = e.gpu_stats();
        assert_eq!(g.total_issued_insts, e.kernel_stats(k).issued_insts);
        assert!(g.mem_bytes_served > 0, "stores must hit DRAM");
        assert!(g.cycle >= 50_000_000);
    }

    #[test]
    fn fresh_first_dispatch_when_preference_disabled() {
        let mut e = Engine::new(cfg());
        e.set_prefer_preempted(false);
        let k = e.launch_kernel(simple_kernel(64, 3_000));
        e.assign_sm(0, Some(k));
        e.run_until(2_000);
        let flushed = e.sm_resident_indices(0);
        e.preempt_sm(
            0,
            &SmPreemptPlan::uniform(flushed.clone(), Technique::Flush),
        )
        .unwrap();
        e.assign_sm(0, Some(k));
        e.run_until(e.cycle() + 10);
        // Fresh blocks (higher indices) come first; the flushed ones wait.
        let now_resident = e.sm_resident_indices(0);
        for f in &flushed {
            assert!(
                !now_resident.contains(f),
                "flushed block {f} restarted too early"
            );
        }
    }

    #[test]
    fn bandwidth_charged_switches_slow_other_sms() {
        // With charging on, a context switch on SM0 consumes shared DRAM
        // bandwidth, delaying a memory-bound kernel on SM1.
        let mem_kernel = KernelDesc::builder("m")
            .grid_blocks(8)
            .threads_per_block(64)
            .regs_per_thread(60)
            .shared_mem_per_block(16_384)
            .program(Program::new(vec![Segment::load(3_000)]))
            .build()
            .unwrap();
        let run = |charge: bool| {
            let mut e = Engine::with_seed(
                GpuConfig {
                    charge_ctx_switch_bandwidth: charge,
                    ..cfg()
                },
                5,
            );
            let a = e.launch_kernel(mem_kernel.clone().with_name("a"));
            let b = e.launch_kernel(mem_kernel.clone().with_name("b"));
            e.assign_sm(0, Some(a));
            e.assign_sm(1, Some(b));
            e.run_until(20_000);
            // Switch SM0 repeatedly.
            for _ in 0..30 {
                if e.sm_resident_count(0) > 0 && !e.sm_is_preempting(0) {
                    let plan = SmPreemptPlan::uniform(e.sm_resident_indices(0), Technique::Switch);
                    let _ = e.preempt_sm(0, &plan);
                }
                e.assign_sm(0, Some(a));
                e.run_for(20_000);
                if e.kernel_stats(b).finished {
                    break;
                }
            }
            e.run_until(5_000_000);
            e.kernel_stats(b).finished_at.expect("bystander finishes")
        };
        let uncharged = run(false);
        let charged = run(true);
        assert!(
            charged > uncharged,
            "charging bandwidth should slow the bystander: {charged} vs {uncharged}"
        );
    }

    #[test]
    fn two_kernels_partitioned_across_sms() {
        let mut e = Engine::new(cfg());
        let a = e.launch_kernel(simple_kernel(16, 400).with_name("a"));
        let b = e.launch_kernel(simple_kernel(16, 400).with_name("b"));
        e.assign_sm(0, Some(a));
        e.assign_sm(1, Some(b));
        e.run_until(50_000_000);
        assert!(e.kernel_stats(a).finished);
        assert!(e.kernel_stats(b).finished);
        assert_eq!(e.output_mismatches(a), 0);
        assert_eq!(e.output_mismatches(b), 0);
    }

    #[test]
    fn parallel_shard_counts_clamp_to_sm_count() {
        let mut e = Engine::new(cfg());
        let n = e.config().num_sms;
        // 0 shards → 1 (epoch machinery, no extra threads).
        e.set_exec_mode(ExecMode::Parallel { shards: 0 });
        assert_eq!(e.exec_mode(), ExecMode::Parallel { shards: 1 });
        // More shards than SMs → one shard per SM.
        e.set_exec_mode(ExecMode::Parallel { shards: n + 100 });
        assert_eq!(e.exec_mode(), ExecMode::Parallel { shards: n });
        // In-range values are kept, serial modes untouched.
        e.set_exec_mode(ExecMode::Parallel { shards: n });
        assert_eq!(e.exec_mode(), ExecMode::Parallel { shards: n });
        e.set_exec_mode(ExecMode::Scan);
        assert_eq!(e.exec_mode(), ExecMode::Scan);
    }

    #[test]
    fn race_sanitizer_is_clean_on_a_parallel_run() {
        let mut e = Engine::new(cfg());
        e.set_exec_mode(ExecMode::Parallel { shards: 2 });
        e.enable_race_sanitizer();
        let k = e.launch_kernel(simple_kernel(32, 400));
        assign_all(&mut e, k);
        e.run_until(50_000_000);
        assert!(e.kernel_stats(k).finished);
        let report = e.take_race_sanitizer().expect("enabled").report();
        assert!(report.is_clean(), "{report}");
        assert!(report.pure_windows > 0, "Phase A must have run: {report}");
        assert!(
            report.shared_accesses_checked > 0,
            "oracle must observe serial replay traffic: {report}"
        );
        assert!(report.resources_tracked > 0, "{report}");
    }

    #[test]
    fn race_sanitizer_does_not_perturb_output() {
        let run = |sanitize: bool| {
            let mut e = Engine::with_seed(cfg(), 7);
            e.set_exec_mode(ExecMode::Parallel { shards: 2 });
            if sanitize {
                e.enable_race_sanitizer();
            }
            let k = e.launch_kernel(simple_kernel(24, 300));
            assign_all(&mut e, k);
            let events = e.run_until(50_000_000);
            (events, format!("{:?}", e.kernel_stats(k)))
        };
        assert_eq!(run(false), run(true), "sanitizer must only observe");
    }

    #[test]
    fn racy_test_cell_trips_the_sanitizer_in_parallel_mode() {
        let mut e = Engine::new(cfg());
        e.set_exec_mode(ExecMode::Parallel { shards: 2 });
        e.enable_race_sanitizer();
        let cell = e.attach_racy_test_cell(&[0, 1]);
        let k = e.launch_kernel(simple_kernel(32, 400));
        assign_all(&mut e, k);
        e.run_until(50_000_000);
        assert!(e.kernel_stats(k).finished);
        assert!(cell.value() > 0, "pure ticks must have bumped the cell");
        let report = e.race_sanitizer().expect("enabled").report();
        assert!(
            report.violation_count >= 1,
            "unrouted Phase-A effect must be flagged: {report}"
        );
        assert!(report
            .violations
            .iter()
            .all(|v| v.resource == crate::race::SharedResource::TestCell));
    }

    #[test]
    fn racy_test_cell_is_silent_in_serial_modes() {
        // In serial modes no pure tick ever runs, so the cell never bumps
        // and the sanitizer (correctly) sees nothing: the violation above
        // is specific to Phase A.
        let mut e = Engine::new(cfg());
        e.enable_race_sanitizer();
        let cell = e.attach_racy_test_cell(&[0, 1]);
        let k = e.launch_kernel(simple_kernel(16, 200));
        assign_all(&mut e, k);
        e.run_until(50_000_000);
        assert!(e.kernel_stats(k).finished);
        assert_eq!(cell.value(), 0, "serial modes never commit pure ticks");
        assert!(e.race_sanitizer().expect("enabled").report().is_clean());
    }

    mod func_mem {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            /// Memory written on first touch materialises to the eager
            /// image (every cell hashed at launch, then updated in place)
            /// after every step of a random mix of pure stores, overwrites
            /// and flush-style replays of the same effect.
            #[test]
            fn first_touch_image_matches_an_eager_model(
                seed in any::<u64>(),
                n in 1usize..300,
                ops in proptest::collection::vec(
                    (any::<usize>(), any::<bool>(), any::<u64>(), 1usize..4),
                    1..120,
                ),
            ) {
                let mut lazy = FuncMem::new(seed, n, 0);
                let mut eager: Vec<u64> = (0..n).map(|i| cell_init(seed, i)).collect();
                prop_assert_eq!(lazy.image(), eager.clone());
                for (cell, overwrite, value, replays) in ops {
                    let idx = cell % n;
                    let w = if overwrite {
                        CellWrite::Overwrite
                    } else {
                        CellWrite::Store(value)
                    };
                    for _ in 0..replays {
                        lazy.write_cell(idx, w);
                        eager[idx] = match w {
                            CellWrite::Store(v) => v,
                            CellWrite::Overwrite => overwrite_mix(eager[idx]),
                        };
                        prop_assert_eq!(lazy.image(), eager.clone());
                    }
                }
            }
        }
    }

    /// [`Engine::kernel_finish_lower_bound`] by its plain formula: one walk
    /// of every resident block into a table sized by every kernel ever
    /// launched, then one pass over all of those kernels, skipping finished
    /// ones. The live-kernel walk must return exactly this.
    fn reference_finish_bound(e: &Engine, now: u64) -> u64 {
        let base = e.cycle.max(now);
        let interval = e.cfg.issue_interval();
        let chunk = u64::from(e.cfg.issue_chunk.max(1));
        let mut resident_max = vec![0u64; e.kernels.len()];
        for sm in &e.sms {
            for b in sm.blocks() {
                let rem = b.total_insts().saturating_sub(b.issued_insts());
                let slot = &mut resident_max[b.id.kernel.0];
                *slot = (*slot).max(rem);
            }
        }
        let mut lb = u64::MAX;
        for (ki, k) in e.kernels.iter().enumerate() {
            if k.stats.finished {
                continue;
            }
            let mut rem_max = resident_max[ki];
            if k.next_fresh < k.desc.grid_blocks() || !k.restart_queue.is_empty() {
                rem_max = rem_max.max(k.min_block_total);
            }
            for snap in &k.resume_queue {
                let total = snap
                    .scaled_segs
                    .iter()
                    .map(|&n| u64::from(n))
                    .sum::<u64>()
                    .saturating_mul(snap.warps.len() as u64);
                rem_max = rem_max.max(total.saturating_sub(snap.insts));
            }
            let issue_time = interval.saturating_mul(rem_max.saturating_sub(chunk));
            lb = lb.min(base.saturating_add(issue_time));
        }
        lb
    }

    mod finish_bound {
        use super::*;
        use proptest::prelude::*;

        fn arb_kernel() -> impl Strategy<Value = KernelDesc> {
            (
                proptest::collection::vec(
                    prop_oneof![
                        (1u32..300).prop_map(Segment::compute),
                        (1u32..40).prop_map(Segment::load),
                        (1u32..20).prop_map(Segment::store),
                        (1u32..8).prop_map(Segment::overwrite),
                    ],
                    1..5,
                ),
                1u32..24, // grid blocks
                1u32..4,  // warps per block
                0u64..3,  // jitter bucket
            )
                .prop_map(|(segs, grid, warps, jit)| {
                    KernelDesc::builder("bound")
                        .grid_blocks(grid)
                        .threads_per_block(warps * 32)
                        .regs_per_thread(16)
                        .program(Program::new(segs))
                        .jitter_pct(jit as f64 * 0.15)
                        .build()
                        .expect("generated kernels are valid")
                })
        }

        proptest! {
            /// The live-kernel walk equals the reference at every run
            /// boundary and at several `now`s: kernels launched mid-run and
            /// retired on finish, SMs reassigned, switched, drained and
            /// flushed (restart and resume queues non-empty), both
            /// issue-chunk widths.
            #[test]
            fn live_walk_matches_reference(
                seed in 0u64..1_000_000,
                wide_chunk in any::<bool>(),
                kernels in proptest::collection::vec(arb_kernel(), 1..5),
                steps in proptest::collection::vec((1u64..20_000, any::<u8>()), 1..60),
            ) {
                let cfg = GpuConfig {
                    num_sms: 3,
                    issue_chunk: if wide_chunk { 8 } else { 1 },
                    ..GpuConfig::tiny()
                };
                let n = cfg.num_sms;
                let mut e = Engine::with_seed(cfg, seed);
                let mut launched: Vec<KernelId> = Vec::new();
                for (step, &(dt, action)) in steps.iter().enumerate() {
                    if let Some(k) = kernels.get(step) {
                        launched.push(e.launch_kernel(k.clone()));
                    }
                    let sm = usize::from(action >> 2) % n;
                    match action & 3 {
                        0 => {
                            let k = launched[usize::from(action >> 4) % launched.len()];
                            e.assign_sm(sm, Some(k));
                        }
                        1 if e.sm_resident_count(sm) > 0 && !e.sm_is_preempting(sm) => {
                            let technique = match action >> 6 {
                                0 => Technique::Switch,
                                1 => Technique::Drain,
                                _ => Technique::Flush,
                            };
                            let plan = SmPreemptPlan::uniform(e.sm_resident_indices(sm), technique);
                            // An unsafe flush is refused; the state is still a valid probe.
                            let _ = e.preempt_sm(sm, &plan);
                        }
                        2 => e.assign_sm(sm, None),
                        _ => {}
                    }
                    for now in [0, e.cycle(), e.cycle() + dt, u64::MAX] {
                        prop_assert_eq!(
                            e.kernel_finish_lower_bound(now),
                            reference_finish_bound(&e, now),
                            "step {} now {}", step, now
                        );
                    }
                    e.run_for(dt);
                }
                for sm in 0..n {
                    e.assign_sm(sm, Some(launched[sm % launched.len()]));
                }
                e.run_for(50_000_000);
                let now = e.cycle();
                prop_assert_eq!(e.kernel_finish_lower_bound(now), reference_finish_bound(&e, now));
            }
        }
    }
}
