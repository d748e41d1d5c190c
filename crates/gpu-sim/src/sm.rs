//! Streaming multiprocessor model.
//!
//! An SM holds up to `occupancy` resident thread blocks and drives their warps
//! through a single issue pipeline: one warp-instruction chunk occupies the
//! pipeline for `chunk × 32/simt_width` cycles. Warps are selected loose
//! round-robin (or greedy-then-oldest) across all resident blocks. The SM
//! also implements the *mechanics* of the three preemption techniques —
//! halting for a context save, draining, and instant flush — while the
//! decision logic lives in the `chimera` crate.
//!
//! # Slot tables
//!
//! Every resident warp is a *slot*, numbered block-major: slot
//! `s = b · wpb + w` is warp `w` of the `b`-th resident block (all resident
//! blocks belong to one kernel, so warps-per-block `wpb` is uniform). The SM
//! owns all per-warp state in three flat per-slot tables, so warp selection,
//! the batched issue and its commit scan contiguous arrays:
//!
//! - `warps[s]`: the [`Warp`] itself, the only copy of its state (a
//!   [`BlockRun`] holds block-level state only);
//! - `ready_at[s]`: derived from the warp, the earliest cycle it could
//!   issue, counting its block's context-load stall, and `u64::MAX` at a
//!   barrier or when done;
//! - `steady_rem[s]`: derived from the warp, the instructions left in a
//!   steady compute/shared segment, and `0` when the next issue is not
//!   steady.
//!
//! They are written only where warp state changes, and nowhere else:
//!
//! - a committed single-chunk issue (the issuing slot, after any memory
//!   stall), or a block completion, which drains that block's range;
//! - the barrier release that opens every unhalted tick (the released
//!   block's range);
//! - a committed batch (each slot it issued from);
//! - [`Sm::dispatch`], which appends the block's range: fresh warps, or the
//!   warps of a restored context with their memory waits cleared;
//! - the flush in [`Sm::begin_preempt`] and the switch-out at the end of a
//!   context save, which compact the tables with the blocks they keep (a
//!   switched-out block's snapshot copies its warp range).
//!
//! A tick that reports an interaction without the memory subsystem (see
//! [`Sm::tick_bounded`]) writes no table, except through the barrier
//! release it keeps. With debug assertions on, every tick checks at entry
//! and exit that the tables agree with each other and with the blocks (see
//! `Sm::table_drift`): their lengths, each warp's index, both derived
//! tables recomputed from the warps, every block's parked/done warp counts
//! and issued instructions recounted from its warps, and the SM's
//! parked-warp total.

use crate::block::{BlockRun, TbSnapshot};
use crate::kernel::{KernelDesc, Segment};
use crate::mem::MemSubsystem;
use crate::preempt::{SmPreemptPlan, Technique};
use crate::rng::{hash_combine, splitmix64};
use crate::warp::{Warp, WarpPhase};
use crate::{BlockId, GpuConfig, KernelId};

/// Coarse operating mode of an SM (for reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmMode {
    /// Executing (or idle awaiting dispatch).
    Active,
    /// A preemption is in progress.
    Preempting,
    /// Halted for a context save/restore.
    Halted,
}

/// A functional memory effect produced by a warp completing a store/atomic
/// segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Effect {
    /// Kernel that produced the effect.
    pub kernel: KernelId,
    /// Grid block index.
    pub block: u32,
    /// Warp index within the block.
    pub warp: u32,
    /// Program segment index that completed.
    pub seg_idx: usize,
}

/// Per-tick output of an SM, consumed by the engine.
#[derive(Debug, Default)]
pub struct SmOutput {
    /// Blocks that completed: `(id, issued_insts, elapsed_cycles)`.
    pub completed: Vec<(BlockId, u64, u64)>,
    /// Functional effects to apply to global memory.
    pub effects: Vec<Effect>,
    /// Contexts saved by a finished context-switch save phase.
    pub switched_out: Vec<TbSnapshot>,
    /// Set when the active preemption finished; value is the latency in cycles.
    pub preempt_done: Option<u64>,
    /// Warp instructions issued this tick.
    pub issued_insts: u32,
}

impl SmOutput {
    /// Whether the tick produced anything besides issued instructions: a
    /// block completion, an effect, a switched-out context or a finished
    /// preemption. Most ticks produce none of these.
    pub(crate) fn has_interactions(&self) -> bool {
        !self.completed.is_empty()
            || !self.effects.is_empty()
            || !self.switched_out.is_empty()
            || self.preempt_done.is_some()
    }
}

/// Engine-supplied bounds under which [`Sm::tick_bounded`] may take its
/// batched-issue fast path.
///
/// The batch must be *invisible*: every bound here exists to guarantee that
/// a batched tick leaves the SM, the output and all counters in exactly the
/// state that the same number of ordinary single-chunk ticks would have.
#[derive(Debug, Clone, Copy)]
pub struct TickLimits {
    /// Latest cycle at which a batched tick may be scheduled: the last
    /// cycle the engine's run is certain to reach. State beyond it must not
    /// be committed: once the run returns, the caller may preempt or
    /// reassign the SM, and pre-executed work would then diverge from the
    /// serial schedule. The engine passes the run's target cycle, capped
    /// under break-on-kernel-finish strictly below the earliest cycle at
    /// which any kernel could finish (the run may return there), and the
    /// current cycle (no batching) in its scan reference mode.
    pub horizon: u64,
    /// Maximum warp instructions the batch may issue. The engine sets `0`
    /// while an instruction cap is armed on the resident kernel so the
    /// cap-crossing tick (and its `CapReached` event) happens exactly where
    /// the serial schedule puts it.
    pub max_insts: u64,
    /// Whether the engine could still dispatch new blocks to this SM during
    /// the batch window. Batching is disabled then: a mid-window arrival
    /// would change warp selection.
    pub may_gain_blocks: bool,
}

impl TickLimits {
    /// Limits that disable the fast path entirely (plain tick semantics).
    pub fn none(now: u64) -> Self {
        TickLimits {
            horizon: now,
            max_insts: 0,
            may_gain_blocks: true,
        }
    }
}

/// Snapshot of one resident block for cost estimation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TbSnapshotInfo {
    /// Grid block index.
    pub index: u32,
    /// Warp instructions issued so far.
    pub executed_insts: u64,
    /// Cycles resident so far.
    pub elapsed_cycles: u64,
    /// Whether the block is past its idempotence point (not flushable).
    pub past_idem_point: bool,
}

/// Snapshot of an SM for cost estimation.
#[derive(Debug, Clone)]
pub struct SmSnapshot {
    /// SM index.
    pub sm: usize,
    /// Kernel whose blocks are resident (`None` if empty).
    pub kernel: Option<KernelId>,
    /// Per-block progress.
    pub blocks: Vec<TbSnapshotInfo>,
}

/// An SM's share of the engine's [`WorkCounters`](crate::WorkCounters).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SmWork {
    /// Committed ticks that found no ready warp.
    pub(crate) idle_ticks: u64,
    /// Committed batched ticks.
    pub(crate) batched_ticks: u64,
    /// Warp instructions issued by those batched ticks.
    pub(crate) batched_insts: u64,
}

#[derive(Debug)]
struct ActivePreemption {
    started: u64,
    /// Save completes at this cycle (if any block is switched).
    save_ends_at: Option<u64>,
    switch_set: Vec<u32>,
    switch_done: bool,
}

/// A streaming multiprocessor.
#[derive(Debug)]
pub struct Sm {
    /// SM index.
    pub id: usize,
    issue_interval: u64,
    issue_chunk: u32,
    issue_free_at: u64,
    halted_until: u64,
    rr: usize,
    last_slot: Option<usize>,
    sched: crate::config::WarpSched,
    /// [`l1_hit_threshold`] of the configured L1 hit fraction: an access
    /// hits when the top 53 bits of its hash fall below it.
    l1_hit_below: u64,
    l1_latency: u64,
    l1_hits: u64,
    l1_misses: u64,
    /// The engine's determinism seed: the root of every memory-address
    /// hash (each block caches its prefix at dispatch).
    seed: u64,
    blocks: Vec<BlockRun>,
    /// The resident blocks' kernel (`blocks[0]`'s), kept beside them: the
    /// engine reads it on every tick.
    kernel: Option<KernelId>,
    /// Warps per resident block, the stride of the slot tables: slot
    /// `s = b · wpb + w` is warp `w` of `blocks[b]`.
    wpb: usize,
    /// Per slot: the warp itself, the one copy of its state.
    warps: Vec<Warp>,
    /// Per slot: [`slot_ready_at`], the earliest cycle the warp could
    /// issue (`u64::MAX` at a barrier or when done).
    ready_at: Vec<u64>,
    /// Per slot: [`slot_steady_rem`], the instructions left in a steady
    /// compute/shared segment (`0` when the next issue is not steady).
    steady_rem: Vec<u32>,
    /// Warps parked at a barrier, over all resident blocks: while zero,
    /// the tick skips the barrier-release check.
    parked: u32,
    /// Work counters: engine operations, not simulated state.
    work: SmWork,
    assigned: Option<KernelId>,
    preempt: Option<ActivePreemption>,
    insts_issued_total: u64,
    /// Also emit [`Effect`]s for completed load segments (no functional
    /// meaning; the flush sanitizer needs read footprints). Off by default.
    record_loads: bool,
    /// Shard-race sanitizer probe reporting pure-advance windows; `None`
    /// (the default) records nothing (see [`crate::race`]).
    race_probe: Option<crate::race::RaceProbe>,
    /// Deliberately-racy shared cell bumped from pure ticks that issue:
    /// test support for validating the race sanitizer (never set outside
    /// tests; see [`crate::race::TestSharedCell`]).
    test_cell: Option<crate::race::TestSharedCell>,
    /// Authoritative next-tick time mirrored by the engine's calendar
    /// (`u64::MAX` = idle).
    next_tick: u64,
}

/// Error returned by [`Sm::begin_preempt`] (via the engine).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PreemptError {
    /// The SM has no resident blocks to preempt.
    NothingResident,
    /// A preemption is already in progress on this SM.
    AlreadyPreempting,
    /// The plan does not cover exactly the resident blocks.
    PlanMismatch {
        /// Blocks resident but missing from the plan.
        missing: Vec<u32>,
    },
    /// The plan flushes a block past its idempotence point without
    /// `allow_unsafe_flush`.
    UnsafeFlush {
        /// The offending grid block index.
        block: u32,
    },
}

impl std::fmt::Display for PreemptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PreemptError::NothingResident => write!(f, "no resident blocks to preempt"),
            PreemptError::AlreadyPreempting => write!(f, "preemption already in progress"),
            PreemptError::PlanMismatch { missing } => {
                write!(f, "plan does not cover resident blocks {missing:?}")
            }
            PreemptError::UnsafeFlush { block } => {
                write!(
                    f,
                    "block {block} is past its idempotence point and cannot be flushed"
                )
            }
        }
    }
}

impl std::error::Error for PreemptError {}

impl Sm {
    /// Create SM `id` with the issue parameters of `cfg`; `seed` is the
    /// engine's determinism seed, which roots the memory-address hashes.
    pub fn new(id: usize, cfg: &GpuConfig, seed: u64) -> Self {
        Sm {
            id,
            issue_interval: cfg.issue_interval(),
            issue_chunk: cfg.issue_chunk.max(1),
            issue_free_at: 0,
            halted_until: 0,
            rr: 0,
            last_slot: None,
            sched: cfg.warp_sched,
            l1_hit_below: l1_hit_threshold(cfg.l1_hit_fraction),
            l1_latency: cfg.l1_latency_cycles,
            l1_hits: 0,
            l1_misses: 0,
            seed,
            blocks: Vec::new(),
            kernel: None,
            wpb: 0,
            warps: Vec::new(),
            ready_at: Vec::new(),
            steady_rem: Vec::new(),
            parked: 0,
            work: SmWork::default(),
            assigned: None,
            preempt: None,
            insts_issued_total: 0,
            record_loads: false,
            race_probe: None,
            test_cell: None,
            // A fresh SM must be visited once so the engine discovers its
            // idle state (mirrors the calendar's initial `(0, sm)` entries).
            next_tick: 0,
        }
    }

    /// Emit effects for completed load segments too (sanitizer support).
    pub fn set_record_loads(&mut self, on: bool) {
        self.record_loads = on;
    }

    /// Wire (or clear) the shard-race sanitizer probe: each
    /// [`Sm::advance_pure`] window reports itself while set.
    pub(crate) fn set_race_probe(&mut self, probe: Option<crate::race::RaceProbe>) {
        self.race_probe = probe;
    }

    /// Attach (or detach) the deliberately-racy test cell (see
    /// [`crate::race::TestSharedCell`]): every pure tick that issues
    /// instructions bumps it.
    pub(crate) fn set_test_shared_cell(&mut self, cell: Option<crate::race::TestSharedCell>) {
        self.test_cell = cell;
    }

    /// L1 data-cache hit/miss counters.
    pub fn l1_counters(&self) -> (u64, u64) {
        (self.l1_hits, self.l1_misses)
    }

    /// The kernel this SM is assigned to receive blocks from.
    pub fn assigned(&self) -> Option<KernelId> {
        self.assigned
    }

    /// Assign (or unassign) the SM to a kernel for future dispatch.
    pub fn set_assigned(&mut self, kernel: Option<KernelId>) {
        self.assigned = kernel;
    }

    /// Kernel owning the currently resident blocks, if any.
    pub fn resident_kernel(&self) -> Option<KernelId> {
        self.kernel
    }

    /// Number of resident blocks.
    pub fn resident_count(&self) -> usize {
        self.blocks.len()
    }

    /// Grid indices of resident blocks.
    pub fn resident_indices(&self) -> Vec<u32> {
        self.blocks.iter().map(|b| b.id.index).collect()
    }

    /// Whether a preemption is in progress.
    pub fn is_preempting(&self) -> bool {
        self.preempt.is_some()
    }

    /// Whether new blocks may be dispatched here for `kernel`.
    pub fn can_dispatch(&self, kernel: KernelId, occupancy: u32) -> bool {
        self.assigned == Some(kernel)
            && self.preempt.is_none()
            && self.resident_kernel().is_none_or(|k| k == kernel)
            && self.blocks.len() < occupancy as usize
    }

    /// Current mode (for reporting).
    pub fn mode(&self, now: u64) -> SmMode {
        if self.preempt.is_some() {
            SmMode::Preempting
        } else if now < self.halted_until {
            SmMode::Halted
        } else {
            SmMode::Active
        }
    }

    /// Total warp instructions issued by this SM.
    pub fn insts_issued_total(&self) -> u64 {
        self.insts_issued_total
    }

    /// This SM's work counters. Pure ticks of a parallel epoch's Phase A
    /// count too.
    pub(crate) fn work(&self) -> SmWork {
        self.work
    }

    /// Place a block of kernel `desc` onto the SM, appending its warps to
    /// the slot tables: fresh warps at the top of the program, or the warps
    /// of a restored context.
    ///
    /// # Panics
    ///
    /// Panics if the block belongs to a different kernel than the resident
    /// ones (current GPUs only co-locate blocks of one kernel per SM).
    pub fn dispatch(&mut self, mut block: BlockRun, desc: &KernelDesc) {
        let wpb = desc.warps_per_block() as usize;
        match self.kernel {
            Some(k) => assert_eq!(k, block.id.kernel, "mixed kernels on one SM"),
            None => {
                self.kernel = Some(block.id.kernel);
                self.wpb = wpb;
            }
        }
        debug_assert_eq!(wpb, self.wpb, "uniform warps per block");
        block.addr_key = hash_combine(&[
            self.seed,
            block.id.kernel.0 as u64,
            u64::from(block.id.index),
        ]);
        let first = self.warps.len();
        let saved = block.take_saved_warps();
        if saved.is_empty() {
            self.warps
                .extend((0..desc.warps_per_block()).map(Warp::new));
        } else {
            debug_assert_eq!(saved.len(), wpb, "a restored context holds every warp");
            // In-flight memory operations were drained before the save.
            self.warps.extend(saved.into_iter().map(|mut w| {
                if matches!(w.phase, WarpPhase::WaitMem(_)) {
                    w.phase = WarpPhase::Ready;
                }
                w
            }));
        }
        let segments = desc.program().segments();
        for warp in &self.warps[first..] {
            self.ready_at.push(slot_ready_at(warp, block.warm_up_until));
            self.steady_rem
                .push(slot_steady_rem(warp, segments, block.scaled_segs()));
        }
        self.parked += block.parked();
        self.blocks.push(block);
    }

    /// Keep the resident blocks for which `keep` returns `true`, in order,
    /// and compact the slot tables (and the parked count) to match. `keep`
    /// sees each block with its slot range of the warp table.
    fn retain_blocks(&mut self, mut keep: impl FnMut(&BlockRun, &[Warp]) -> bool) {
        let wpb = self.wpb;
        let (mut b, mut kept) = (0, 0);
        self.blocks.retain(|blk| {
            let range = b * wpb..(b + 1) * wpb;
            let k = keep(blk, &self.warps[range.clone()]);
            if !k {
                self.parked -= blk.parked();
            } else {
                if kept != b {
                    let to = kept * wpb;
                    self.warps.copy_within(range.clone(), to);
                    self.ready_at.copy_within(range.clone(), to);
                    self.steady_rem.copy_within(range, to);
                }
                kept += 1;
            }
            b += 1;
            k
        });
        self.warps.truncate(kept * wpb);
        self.ready_at.truncate(kept * wpb);
        self.steady_rem.truncate(kept * wpb);
        if kept == 0 {
            self.kernel = None;
        }
    }

    /// Remove resident block `b` and its slot range from every table.
    fn remove_block(&mut self, b: usize) {
        let range = b * self.wpb..(b + 1) * self.wpb;
        self.blocks.remove(b);
        self.warps.drain(range.clone());
        self.ready_at.drain(range.clone());
        self.steady_rem.drain(range);
        if self.blocks.is_empty() {
            self.kernel = None;
        }
    }

    /// Recompute the derived table entries of slot `s`, a warp of block `b`.
    #[inline]
    fn refresh_slot(&mut self, b: usize, s: usize, segments: &[Segment]) {
        let (warp, blk) = (&self.warps[s], &self.blocks[b]);
        self.ready_at[s] = slot_ready_at(warp, blk.warm_up_until);
        self.steady_rem[s] = slot_steady_rem(warp, segments, blk.scaled_segs());
    }

    /// The first piece of table state that disagrees with a recomputation,
    /// described; `None` when all of it is exact: the three slot tables'
    /// lengths, each warp's index within its block, every block's
    /// parked/done counts and issued instructions against its warps, both
    /// derived tables against their warps, the cursor's range, the resident
    /// kernel and the SM's parked-warp total. `desc` supplies the program
    /// for `steady_rem`, which is checked only when it is given.
    pub(crate) fn table_drift(&self, desc: Option<&KernelDesc>) -> Option<String> {
        if self.kernel != self.blocks.first().map(|b| b.id.kernel) {
            return Some(format!("resident kernel {:?}", self.kernel));
        }
        let n = self.blocks.len() * self.wpb;
        if self.warps.len() != n || self.ready_at.len() != n || self.steady_rem.len() != n {
            return Some(format!(
                "{} blocks of {} warps, tables of {}, {} and {} slots",
                self.blocks.len(),
                self.wpb,
                self.warps.len(),
                self.ready_at.len(),
                self.steady_rem.len()
            ));
        }
        if n > 0 && self.rr >= n {
            return Some(format!("cursor {} past {n} slots", self.rr));
        }
        let parked: u32 = self.blocks.iter().map(BlockRun::parked).sum();
        if parked != self.parked {
            return Some(format!("{} parked warps, counted {parked}", self.parked));
        }
        for (b, blk) in self.blocks.iter().enumerate() {
            let range = b * self.wpb..(b + 1) * self.wpb;
            if !blk.agrees_with(&self.warps[range.clone()]) {
                return Some(format!("block {b}: phase counts or issued instructions"));
            }
            for (w, s) in range.enumerate() {
                let warp = &self.warps[s];
                if warp.index as usize != w {
                    return Some(format!("slot {s}: warp {} at index {w}", warp.index));
                }
                let ready = slot_ready_at(warp, blk.warm_up_until);
                if self.ready_at[s] != ready {
                    return Some(format!(
                        "slot {s}: ready_at {} != {ready}",
                        self.ready_at[s]
                    ));
                }
                let Some(d) = desc else { continue };
                let segments = d.program().segments();
                let rem = slot_steady_rem(warp, segments, blk.scaled_segs());
                if self.steady_rem[s] != rem {
                    return Some(format!(
                        "slot {s}: steady_rem {} != {rem}",
                        self.steady_rem[s]
                    ));
                }
                // A warp that issued from a load or atomic waits on memory
                // until its next issue; only a restored context drops the
                // wait (see `Sm::dispatch`).
                if warp.phase == WarpPhase::Ready
                    && !blk.has_prior_progress()
                    && last_issue_blocks(warp, segments)
                {
                    return Some(format!("slot {s}: ready after a blocking issue"));
                }
            }
        }
        None
    }

    /// Halt the SM (no issue) until `until` — used for context loads.
    pub fn halt_until(&mut self, until: u64) {
        self.halted_until = self.halted_until.max(until);
    }

    /// Cycle until which the SM is halted.
    pub fn halted_until(&self) -> u64 {
        self.halted_until
    }

    /// Snapshot resident-block progress for cost estimation.
    pub fn snapshot(&self, now: u64) -> SmSnapshot {
        SmSnapshot {
            sm: self.id,
            kernel: self.resident_kernel(),
            blocks: self
                .blocks
                .iter()
                .map(|b| TbSnapshotInfo {
                    index: b.id.index,
                    executed_insts: b.issued_insts(),
                    elapsed_cycles: b.elapsed_cycles(now),
                    past_idem_point: b.past_idem_point,
                })
                .collect(),
        }
    }

    /// Begin executing a preemption plan at cycle `now`.
    ///
    /// Flushed blocks are removed immediately and returned for restart;
    /// switched blocks leave after a context-save halt of `save_cycles`
    /// per switched block (the engine derives it from the kernel's block
    /// context size and the SM's bandwidth share — or zero in oracle mode);
    /// drained blocks continue to completion.
    ///
    /// # Errors
    ///
    /// See [`PreemptError`].
    pub fn begin_preempt(
        &mut self,
        now: u64,
        plan: &SmPreemptPlan,
        save_cycles_per_block: u64,
        out: &mut SmOutput,
    ) -> Result<Vec<(BlockId, u64, bool)>, PreemptError> {
        if self.blocks.is_empty() {
            return Err(PreemptError::NothingResident);
        }
        if self.preempt.is_some() {
            return Err(PreemptError::AlreadyPreempting);
        }
        let missing: Vec<u32> = self
            .blocks
            .iter()
            .filter(|b| plan.technique_for(b.id.index).is_none())
            .map(|b| b.id.index)
            .collect();
        if !missing.is_empty() {
            return Err(PreemptError::PlanMismatch { missing });
        }
        if !plan.allow_unsafe_flush {
            for b in &self.blocks {
                if b.past_idem_point && plan.technique_for(b.id.index) == Some(Technique::Flush) {
                    return Err(PreemptError::UnsafeFlush { block: b.id.index });
                }
            }
        }
        // Flush: instant removal. Record discarded work for accounting and
        // the past-idempotence verdict for the sanitizer's differential
        // check (a dirty flush while `false` here is a static-analysis miss).
        let mut flushed = Vec::new();
        self.retain_blocks(|b, _| {
            if plan.technique_for(b.id.index) == Some(Technique::Flush) {
                flushed.push((b.id, b.issued_insts(), b.past_idem_point));
                false
            } else {
                true
            }
        });
        self.rr = 0;
        self.last_slot = None;
        // Switch: halt for the save, remove afterwards (in tick()).
        let switch_set: Vec<u32> = self
            .blocks
            .iter()
            .filter(|b| plan.technique_for(b.id.index) == Some(Technique::Switch))
            .map(|b| b.id.index)
            .collect();
        let save_ends_at = if switch_set.is_empty() {
            None
        } else {
            let save = save_cycles_per_block * switch_set.len() as u64;
            self.halted_until = self.halted_until.max(now + save);
            Some(now + save)
        };
        self.preempt = Some(ActivePreemption {
            started: now,
            save_ends_at,
            switch_set,
            switch_done: save_ends_at.is_none(),
        });
        self.check_preempt_done(now, out);
        Ok(flushed)
    }

    fn check_preempt_done(&mut self, now: u64, out: &mut SmOutput) {
        let done = match &self.preempt {
            Some(ap) => ap.switch_done && self.blocks.is_empty(),
            None => false,
        };
        if done {
            let ap = self.preempt.take().expect("checked above");
            out.preempt_done = Some(now - ap.started);
        }
    }

    /// Advance the SM at cycle `now`; returns the next cycle at which this SM
    /// can make progress (`u64::MAX` when idle with nothing pending).
    pub fn tick(
        &mut self,
        now: u64,
        desc: Option<&KernelDesc>,
        mem: &mut MemSubsystem,
        out: &mut SmOutput,
    ) -> u64 {
        self.tick_bounded(now, desc, Some(mem), out, &TickLimits::none(now))
            .expect("a tick with the memory subsystem always commits")
    }

    /// The SM tick — the one body every engine mode runs: [`Sm::tick`] with
    /// a batched-issue fast path bounded by `limits`, and the single place
    /// that decides whether a tick stays inside the SM.
    ///
    /// Warp selection and the batch read the SM's flat slot tables
    /// (`warps`, `ready_at`, `steady_rem`; see the module docs). With debug
    /// assertions on, every tick checks at entry and exit that the tables
    /// agree with each other and with the blocks.
    ///
    /// When the selected warp (and, for round-robin, every currently runnable
    /// warp) sits mid-way through a side-effect-free compute/shared segment,
    /// the upcoming ticks are a pure rotation of fixed-size chunks: no memory
    /// traffic, no segment completions, no events, no scheduler surprises.
    /// Those ticks are replayed in one step, which is where the event-driven
    /// engine gets its throughput on compute phases. With
    /// [`TickLimits::none`] the fast path never triggers.
    ///
    /// With `mem = Some(..)` (the serial engines, and Phase B of the
    /// parallel one) every tick commits and the result is `Some(next)`: the
    /// next cycle at which this SM can make progress (`u64::MAX` when idle).
    /// With `mem = None` (Phase A, `Sm::advance_pure`) a tick that would
    /// touch state outside the SM — an L1 miss (every protect store misses),
    /// a store, atomic or recorded-load effect, the completion of a block,
    /// or the end of a context save — returns `None` and leaves the SM as
    /// it found it, scheduler cursor, slot tables and counters included, so
    /// the serial replay of that tick starts exactly where the serial engine
    /// would. The one change an interaction tick keeps is the barrier
    /// release that opens every unhalted tick (with its slot-table refresh):
    /// it is block-local and idempotent, and the replay performs it first
    /// anyway.
    pub fn tick_bounded(
        &mut self,
        now: u64,
        desc: Option<&KernelDesc>,
        mem: Option<&mut MemSubsystem>,
        out: &mut SmOutput,
        limits: &TickLimits,
    ) -> Option<u64> {
        debug_assert_eq!(self.table_drift(desc), None, "slot tables at tick entry");
        let next = self.tick_body(now, desc, mem, out, limits);
        debug_assert_eq!(self.table_drift(desc), None, "slot tables after a tick");
        next
    }

    #[inline(always)]
    fn tick_body(
        &mut self,
        now: u64,
        desc: Option<&KernelDesc>,
        mem: Option<&mut MemSubsystem>,
        out: &mut SmOutput,
        limits: &TickLimits,
    ) -> Option<u64> {
        // Finish a pending context save.
        if let Some(ap) = &mut self.preempt {
            if !ap.switch_done {
                let ends = ap.save_ends_at.expect("switch phase requires save_ends_at");
                if now < ends {
                    return Some(ends);
                }
                // Handing the saved contexts to the engine is an
                // interaction: without the memory subsystem, stop here.
                mem.as_ref()?;
                let set = std::mem::take(&mut ap.switch_set);
                self.retain_blocks(|b, warps| {
                    if set.contains(&b.id.index) {
                        out.switched_out.push(b.snapshot(now, warps));
                        false
                    } else {
                        true
                    }
                });
                let ap = self.preempt.as_mut().expect("still preempting");
                ap.switch_done = true;
                self.rr = 0;
                self.last_slot = None;
                self.check_preempt_done(now, out);
            }
        }
        if self.blocks.is_empty() {
            return Some(u64::MAX);
        }
        if now < self.halted_until {
            return Some(self.halted_until);
        }
        let desc = desc.expect("resident blocks require a kernel descriptor");
        let segments = desc.program().segments();
        let wpb = self.wpb;
        // Release barriers, if any warp waits at one.
        if self.parked > 0 {
            for b in 0..self.blocks.len() {
                let blk = &mut self.blocks[b];
                if blk.barrier_ready(wpb) {
                    self.parked -= blk.parked();
                    blk.release_parked();
                    for s in b * wpb..(b + 1) * wpb {
                        if self.warps[s].phase == WarpPhase::AtBarrier {
                            self.warps[s].release_barrier();
                        }
                        self.refresh_slot(b, s, segments);
                    }
                }
            }
        }
        if now < self.issue_free_at {
            return Some(self.issue_free_at);
        }
        // Warp selection over the slot table. Greedy-then-oldest sticks
        // with the last slot while it stays ready and falls back to the
        // oldest (lowest) ready slot; round-robin continues from the
        // cursor. `cursor` is the cursor move, made only once the tick is
        // known to commit.
        let n = self.ready_at.len();
        let gto = self.sched == crate::config::WarpSched::GreedyThenOldest;
        let sticky = self
            .last_slot
            .filter(|&s| gto && s < n && self.ready_at[s] <= now);
        let (s, cursor) = match sticky {
            Some(s) => (s, None),
            None => {
                let start = if gto { 0 } else { self.rr };
                let ready = |t: &u64| *t <= now;
                let found = match self.ready_at[start..].iter().position(ready) {
                    Some(i) => Some(start + i),
                    None => self.ready_at[..start].iter().position(ready),
                };
                // Nothing ready: barriers may have become releasable above,
                // in which case warps are Ready and we would have found
                // them. Every entry is a future wake-up or `u64::MAX`.
                let Some(s) = found else {
                    self.work.idle_ticks += 1;
                    return Some(self.ready_at.iter().copied().min().unwrap_or(u64::MAX));
                };
                (s, Some(s))
            }
        };
        // A steady compute window is pure by construction, so it commits
        // with or without the memory subsystem. Only a steady chosen warp
        // with more than one chunk left can start one: otherwise its own
        // turn is the round-robin breaker, and greedy has under two ticks.
        if self.steady_rem[s] > self.issue_chunk {
            if let Some(next) = self.try_issue_batch(now, s, cursor, limits, out) {
                return Some(next);
            }
        }
        // Probe the issue on a copy of the warp; nothing is committed until
        // the tick is classified.
        let (bi, wi) = (s / wpb, s % wpb);
        let block = &self.blocks[bi];
        let mut warp = self.warps[s];
        let outcome = warp.issue(segments, block.scaled_segs(), self.issue_chunk);
        let block_done = outcome.done && block.one_warp_left(wpb);
        let effect = outcome.completed_segment.filter(|&ix| {
            matches!(
                segments[ix],
                Segment::GlobalStore { .. } | Segment::Atomic { .. }
            ) || (self.record_loads && matches!(segments[ix], Segment::GlobalLoad { .. }))
        });
        // Per-SM L1: a deterministic fraction of accesses hits on chip and
        // never reaches DRAM. Protect stores are non-cacheable by
        // construction (§3.4) and always go to memory. The address is
        // `hash_combine(&[seed, kernel, block, warp, now])`, continued from
        // the block's cached three-part prefix (`hash_combine` is a left
        // fold).
        let access = (outcome.mem_bytes > 0).then(|| {
            let addr = splitmix64(splitmix64(block.addr_key ^ wi as u64) ^ now);
            let hit =
                !outcome.protect_store && hash_combine(&[addr, 0x11CA]) >> 11 < self.l1_hit_below;
            (addr, hit)
        });
        // Without the memory subsystem (Phase A), stop before anything
        // commits if the tick reaches outside the SM.
        let shared = block_done || effect.is_some() || access.is_some_and(|(_, hit)| !hit);
        if shared && mem.is_none() {
            return None;
        }
        if let Some(c) = cursor {
            self.set_cursor(c);
        }
        let block = &mut self.blocks[bi];
        block.note_phase(warp.phase);
        self.warps[s] = warp;
        if outcome.hit_barrier {
            self.parked += 1;
        }
        if outcome.insts > 0 {
            block.add_insts(u64::from(outcome.insts));
            self.insts_issued_total += u64::from(outcome.insts);
            out.issued_insts += outcome.insts;
            self.issue_free_at = now + self.issue_interval * u64::from(outcome.insts);
        }
        // Non-idempotence flag: protect-store, or directly completing a
        // non-idempotent segment of an uninstrumented program. The verdict
        // comes from the program-level dataflow mask, which also catches
        // plain stores whose region aliases an earlier read.
        if outcome.protect_store {
            block.past_idem_point = true;
        }
        if let Some(ix) = completed_segment_of(&outcome) {
            if desc.program().segment_non_idempotent(ix) {
                block.past_idem_point = true;
            }
        }
        if let Some((addr, hit)) = access {
            let ready = if hit {
                self.l1_hits += 1;
                now + self.l1_latency
            } else {
                self.l1_misses += 1;
                mem.expect("misses commit only with the memory subsystem")
                    .access(now, addr, outcome.mem_bytes)
            };
            // A warp that just finished its program does not wait for final
            // loads; completion is signalled by the trailing stores.
            if outcome.mem_blocking && !outcome.done {
                self.warps[s].stall_until(ready);
            }
        }
        if let Some(seg_idx) = effect {
            out.effects.push(Effect {
                kernel: block.id.kernel,
                block: block.id.index,
                // simlint: allow(as-narrowing) -- warp index is bounded by warps-per-block (< 64)
                warp: wi as u32,
                seg_idx,
            });
        }
        if block_done {
            let id = block.id;
            let insts = block.issued_insts();
            let cycles = block.elapsed_cycles(now);
            self.remove_block(bi);
            self.rr = 0;
            self.last_slot = None;
            out.completed.push((id, insts, cycles));
            self.check_preempt_done(now, out);
        } else {
            self.refresh_slot(bi, s, segments);
        }
        Some(if self.blocks.is_empty() {
            u64::MAX
        } else {
            self.issue_free_at.max(now + 1)
        })
    }

    /// Move the warp-selection cursor past `slot`, the slot that just
    /// issued.
    fn set_cursor(&mut self, slot: usize) {
        let next = slot + 1;
        self.rr = if next == self.ready_at.len() { 0 } else { next };
        self.last_slot = Some(slot);
    }

    /// Book `insts` steady instructions for slot `s`, a warp of block `b`
    /// (a batched issue: no segment completes, so the warp only advances
    /// within its segment), in all three slot tables and the block.
    #[inline]
    fn issue_steady(&mut self, b: usize, s: usize, insts: u32) {
        let (blk, warp) = (&mut self.blocks[b], &mut self.warps[s]);
        warp.phase = WarpPhase::Ready;
        warp.done_in_seg += insts;
        blk.add_insts(u64::from(insts));
        // A ready warp waits only for its block's context load.
        self.ready_at[s] = blk.warm_up_until;
        self.steady_rem[s] -= insts;
    }

    /// Replay a steady compute window — several future ticks of this SM — in
    /// one step. Called after warp selection chose slot `s` (with the
    /// cursor move `cursor` still pending); returns the SM's next-action
    /// cycle if a batch was committed, or `None` to fall through to the
    /// ordinary single-chunk issue.
    ///
    /// Every read is a slot-table read: the chosen slot's `steady_rem`, and
    /// under round-robin `ready_at` and `steady_rem` along the rotation,
    /// walked with a wrapping index. A committed batch writes all three
    /// tables for every slot it issued from: the warp advances within its
    /// segment and becomes `Ready`, so its `ready_at` becomes its block's
    /// `warm_up_until`, and its `steady_rem` drops by what it issued.
    ///
    /// The batch is byte-identical to the serial schedule because:
    /// - batched ticks run at `now + j·issue_interval·chunk`, exactly where
    ///   serial ticks land, and the last one stays within `limits.horizon`;
    /// - no warp ever completes its segment inside the window (at least one
    ///   instruction is left), so no effects, block completions, phase
    ///   changes or idempotence transitions can occur — every batched tick
    ///   is pure, so a batch commits in Phase A too;
    /// - under round-robin the window covers either whole rotations over
    ///   the runnable slots (when all of them are steady with more than one
    ///   chunk left) or a single partial rotation over the leading run of
    ///   such slots in rotation order (each ticking once, stopping before
    ///   the first runnable slot outside the run — the *breaker* — gets a
    ///   turn), and ends strictly before the earliest wake-up of a slot it
    ///   can reach: any slot for whole rotations, only the slots ahead of
    ///   the breaker for a partial one, since slots past the breaker never
    ///   get a turn inside that window;
    /// - under greedy-then-oldest the chosen warp never stalls mid-window,
    ///   so it stays selected and the scheduler cursor is untouched.
    // Out of line on purpose: memory-bound ticks return at the first
    // checks, and inlining the whole batcher into the tick body slows
    // every one of them.
    #[inline(never)]
    fn try_issue_batch(
        &mut self,
        now: u64,
        s: usize,
        cursor: Option<usize>,
        limits: &TickLimits,
        out: &mut SmOutput,
    ) -> Option<u64> {
        if limits.may_gain_blocks || limits.horizon <= now {
            return None;
        }
        let chunk = u64::from(self.issue_chunk);
        let tick_cycles = self.issue_interval * chunk;
        if tick_cycles == 0 {
            return None;
        }
        // The caller checked that the chosen warp is steady.
        let chosen_rem = u64::from(self.steady_rem[s]);
        // Ticks allowed by the horizon: batched tick j runs at
        // now + j·tick_cycles, and the last must not pass the horizon.
        let horizon_ticks = (limits.horizon - now) / tick_cycles + 1;
        let n = self.ready_at.len();
        // Bound per-slot totals so the u32 counter updates cannot overflow.
        const INSTS_CAP: u64 = 1 << 30;
        if self.sched == crate::config::WarpSched::GreedyThenOldest {
            // Greedy re-picks the chosen warp while it stays ready, which a
            // steady warp does; other warps cannot preempt it mid-window.
            let ticks = ((chosen_rem - 1) / chunk)
                .min(horizon_ticks)
                .min(limits.max_insts / chunk)
                .min(INSTS_CAP / chunk);
            if ticks < 2 {
                return None;
            }
            // simlint: allow(as-narrowing) -- ticks * chunk is capped at INSTS_CAP (2^30) above
            self.issue_steady(s / self.wpb, s, (ticks * chunk) as u32);
            if let Some(c) = cursor {
                self.set_cursor(c);
            }
            return self.commit_batch(now, ticks * chunk, out);
        }
        // Loose round-robin. Walk the rotation order from the chosen slot —
        // the runnable slots in that order are exactly the warps the next
        // serial ticks will pick — up to the breaker: the first runnable
        // slot that is not steady or has at most one chunk left.
        // `prefix_len` counts the runnable slots before it; each of their
        // ticks issues a plain full chunk with no segment completion.
        let mut prefix_len = 0u64;
        let mut min_rem = chosen_rem;
        let mut wake_min = u64::MAX;
        // The last runnable slot walked. Without a breaker it cyclically
        // precedes the chosen slot and ends a whole-rotation batch.
        let mut last_ready = s;
        let mut breaker = false;
        let mut t = s;
        loop {
            // Sleeping slots bound the window; AtBarrier / Done slots
            // (`u64::MAX`) are inert for all of it.
            let ready = self.ready_at[t];
            if ready > now {
                wake_min = wake_min.min(ready);
            } else {
                let rem = u64::from(self.steady_rem[t]);
                if rem <= chunk {
                    breaker = true;
                    break;
                }
                prefix_len += 1;
                min_rem = min_rem.min(rem);
                last_ready = t;
            }
            t = if t + 1 == n { 0 } else { t + 1 };
            if t == s {
                break;
            }
        }
        let mut max_ticks = horizon_ticks;
        if wake_min != u64::MAX {
            // The last batched tick must run strictly before the wake-up.
            max_ticks = max_ticks.min((wake_min - 1 - now) / tick_cycles + 1);
        }
        if !breaker {
            // Whole rotations over the runnable slots, all in the prefix.
            let rot = ((min_rem - 1) / chunk)
                .min(max_ticks / prefix_len)
                .min(limits.max_insts / (prefix_len * chunk))
                .min(INSTS_CAP / (prefix_len * chunk));
            let ticks = rot * prefix_len;
            if ticks >= 2 {
                // simlint: allow(as-narrowing) -- rot * chunk is capped at INSTS_CAP / prefix_len above
                let per_warp = (rot * chunk) as u32;
                // Every runnable slot issues `per_warp`: one loop per block
                // over its contiguous slot range, as `issue_steady` does
                // slot by slot, with one instruction count per block.
                let wpb = self.wpb;
                let ranges = self
                    .warps
                    .chunks_exact_mut(wpb)
                    .zip(self.ready_at.chunks_exact_mut(wpb))
                    .zip(self.steady_rem.chunks_exact_mut(wpb));
                for (blk, ((warps, ready), rem)) in self.blocks.iter_mut().zip(ranges) {
                    let warm = blk.warm_up_until;
                    let mut issued = 0u64;
                    for ((warp, ready), rem) in warps.iter_mut().zip(ready).zip(rem) {
                        if *ready <= now {
                            warp.phase = WarpPhase::Ready;
                            warp.done_in_seg += per_warp;
                            *ready = warm;
                            *rem -= per_warp;
                            issued += 1;
                        }
                    }
                    blk.add_insts(issued * u64::from(per_warp));
                }
                // The rotation starts at the chosen slot, so its last tick
                // issues from `last_ready`; the cursor ends up just past
                // that slot, exactly as after the serial ticks.
                self.set_cursor(last_ready);
                return self.commit_batch(now, ticks * chunk, out);
            }
        }
        // Partial rotation: batch one tick for each slot in the steady
        // prefix. Serial tick `j` picks the `j`-th runnable slot in rotation
        // order (intermediate non-runnable slots stay asleep — the window
        // ends before `wake_min` — and prefix ticks complete nothing, so no
        // barrier or block state changes either). With a breaker, a whole
        // rotation was impossible: its `min_rem` would leave no full chunk.
        let ticks = prefix_len
            .min(max_ticks)
            .min(limits.max_insts / chunk)
            .min(INSTS_CAP / chunk);
        if ticks < 2 {
            return None;
        }
        // The same commit, slot by slot in rotation order; `t = b · wpb + w`.
        let (mut remaining, mut t) = (ticks, s);
        let (nb, wpb) = (self.blocks.len(), self.wpb);
        let (mut b, mut w) = (s / wpb, s % wpb);
        loop {
            if self.ready_at[t] <= now {
                self.issue_steady(b, t, self.issue_chunk);
                remaining -= 1;
                if remaining == 0 {
                    break;
                }
            }
            (t, w) = (t + 1, w + 1);
            if w == wpb {
                (b, w) = (b + 1, 0);
                if b == nb {
                    (b, t) = (0, 0);
                }
            }
            debug_assert_ne!(t, s, "the steady prefix holds `ticks` runnable slots");
        }
        self.set_cursor(t);
        self.commit_batch(now, ticks * chunk, out)
    }

    /// Book a committed batch of `insts` warp instructions starting at `now`
    /// into the SM-wide counters and return the next-action cycle.
    fn commit_batch(&mut self, now: u64, insts: u64, out: &mut SmOutput) -> Option<u64> {
        self.insts_issued_total += insts;
        self.work.batched_ticks += 1;
        self.work.batched_insts += insts;
        // simlint: allow(as-narrowing) -- per-call batches are capped at INSTS_CAP (2^30) by the issue paths
        out.issued_insts += insts as u32;
        self.issue_free_at = now + self.issue_interval * insts;
        Some(self.issue_free_at.max(now + 1))
    }

    /// Resident blocks (engine internals: the parallel engine's
    /// kernel-finish lower-bound scan reads per-block progress).
    pub(crate) fn blocks(&self) -> &[BlockRun] {
        &self.blocks
    }

    /// Advance this SM from `start` through `bound` executing only *pure*
    /// ticks — ticks whose effects stay entirely inside the SM: compute
    /// issue, barrier arrival/release, L1-hit memory accesses, warp
    /// completions that do not finish the block. The parallel engine runs
    /// this concurrently on disjoint SM shards between epoch barriers.
    ///
    /// Each tick is the one [`Sm::tick_bounded`] body run without the
    /// memory subsystem, so this phase cannot reach shared memory state at
    /// all. The window stops at the first tick that reports an
    /// interaction, leaving the SM exactly as the serial engine would find
    /// it at that cycle; the serial phase replays that tick with the shared
    /// subsystems in scope.
    ///
    /// Returns `(next_action, issued_insts)`: the cycle at which the SM
    /// next needs the serial engine (`u64::MAX` when idle), and the warp
    /// instructions issued during the pure window.
    pub(crate) fn advance_pure(
        &mut self,
        start: u64,
        bound: u64,
        desc: Option<&KernelDesc>,
    ) -> (u64, u64) {
        let limits = TickLimits {
            horizon: bound,
            max_insts: u64::MAX,
            may_gain_blocks: false,
        };
        let (mut now, mut issued) = (start, 0u64);
        while now <= bound {
            let mut out = SmOutput::default();
            let Some(next) = self.tick_bounded(now, desc, None, &mut out, &limits) else {
                break;
            };
            if out.issued_insts > 0 {
                issued += u64::from(out.issued_insts);
                if let Some(cell) = &self.test_cell {
                    cell.bump(self.id, now);
                }
            }
            now = next;
        }
        if let Some(probe) = &self.race_probe {
            // Claim this SM's local state in the shadow ownership map and
            // report the committed work, so a clean report proves the
            // oracle actually observed Phase-A traffic.
            probe.on_pure_window(self.id, issued);
        }
        (now, issued)
    }

    /// The authoritative next-tick time mirrored by the engine's calendar
    /// (`u64::MAX` = idle).
    pub(crate) fn next_tick(&self) -> u64 {
        self.next_tick
    }

    /// Move the next-tick time (engine wake path only).
    pub(crate) fn set_next_tick(&mut self, t: u64) {
        self.next_tick = t;
    }
}

/// The `ready_at` table entry of `warp`, in a block whose context load
/// ends at `warm_up_until`: the earliest cycle it could issue, or
/// `u64::MAX` at a barrier or when done.
#[inline]
fn slot_ready_at(warp: &Warp, warm_up_until: u64) -> u64 {
    warp.next_ready_at()
        .map_or(u64::MAX, |t| t.max(warm_up_until))
}

/// The `steady_rem` table entry of `warp`, in a block with segment lengths
/// `scaled`: the instructions left in its steady segment (see
/// [`Warp::steady_compute_rem`]), or `0` when its next issue is not steady.
#[inline]
fn slot_steady_rem(warp: &Warp, segments: &[Segment], scaled: &[u32]) -> u32 {
    warp.steady_compute_rem(segments, scaled).unwrap_or(0)
}

/// Whether `warp`'s last issued chunk came from a load or atomic: the
/// segment it is part-way through, or else the one it just completed.
fn last_issue_blocks(warp: &Warp, segments: &[Segment]) -> bool {
    let last = if warp.done_in_seg > 0 {
        Some(warp.seg_idx)
    } else {
        warp.seg_idx.checked_sub(1)
    };
    last.is_some_and(|i| {
        matches!(
            segments[i],
            Segment::GlobalLoad { .. } | Segment::Atomic { .. }
        )
    })
}

/// The integer form of an L1 hit fraction: an access whose hash is `h`
/// hits exactly when `h >> 11` is below it.
///
/// Bit-identical to `unit_f64(h) < fraction`: `unit_f64(h)` is
/// `(h >> 11) / 2^53`, exact for a 53-bit integer `k`, scaling by `2^53` is
/// exact, and for an integer `k`, `k < x ⟺ k < ⌈x⌉`. The float-to-integer
/// cast saturates, so a NaN or negative fraction gives `0` (nothing hits)
/// and a fraction of at least `1` gives at least `2^53` (everything hits).
fn l1_hit_threshold(fraction: f64) -> u64 {
    // simlint: allow(as-narrowing) -- saturating cast; NaN and negatives map to 0 (see above)
    (fraction * (1u64 << 53) as f64).ceil() as u64
}

/// The segment that `outcome`'s instructions came from, if instructions were
/// issued. `issue` advances past completed segments, so reconstruct from the
/// completed index or return `None` for barrier hits.
fn completed_segment_of(outcome: &crate::warp::IssueOutcome) -> Option<usize> {
    if outcome.insts == 0 {
        return None;
    }
    outcome.completed_segment
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{KernelDesc, Program, Segment};

    fn cfg() -> GpuConfig {
        GpuConfig {
            issue_chunk: 4,
            ..GpuConfig::tiny()
        }
    }

    fn save_cycles(cfg: &GpuConfig, d: &KernelDesc) -> u64 {
        cfg.sm_transfer_cycles(d.block_context_bytes())
    }

    fn desc(segs: Vec<Segment>) -> KernelDesc {
        KernelDesc::builder("k")
            .grid_blocks(64)
            .threads_per_block(64)
            .regs_per_thread(16)
            .program(Program::new(segs))
            .build()
            .unwrap()
    }

    fn run_to_empty(sm: &mut Sm, desc: &KernelDesc, mem: &mut MemSubsystem) -> (u64, SmOutput) {
        let mut all = SmOutput::default();
        let mut now = 0u64;
        for _ in 0..2_000_000 {
            let mut out = SmOutput::default();
            let next = sm.tick(now, Some(desc), mem, &mut out);
            all.completed.extend(out.completed);
            all.effects.extend(out.effects);
            all.switched_out.extend(out.switched_out);
            all.issued_insts += out.issued_insts;
            if out.preempt_done.is_some() {
                all.preempt_done = out.preempt_done;
            }
            if sm.resident_count() == 0 {
                return (now, all);
            }
            assert_ne!(next, u64::MAX, "stuck with resident blocks");
            now = next.max(now + 1);
        }
        panic!("did not finish");
    }

    #[test]
    fn single_block_completes_with_exact_inst_count() {
        let cfg = cfg();
        let d = desc(vec![Segment::compute(100), Segment::store(10)]);
        let mut sm = Sm::new(0, &cfg, 1);
        let mut mem = MemSubsystem::new(&cfg);
        sm.dispatch(
            BlockRun::new(
                BlockId {
                    kernel: KernelId(0),
                    index: 0,
                },
                &d,
                1,
                0,
            ),
            &d,
        );
        let (_, out) = run_to_empty(&mut sm, &d, &mut mem);
        assert_eq!(out.completed.len(), 1);
        let (_, insts, _) = out.completed[0];
        assert_eq!(insts, 110 * 2); // 2 warps of 64 threads
        assert_eq!(out.effects.len(), 2); // one store effect per warp
    }

    #[test]
    fn compute_bound_timing_matches_issue_model() {
        let cfg = cfg();
        let d = desc(vec![Segment::compute(1000)]);
        let mut sm = Sm::new(0, &cfg, 1);
        let mut mem = MemSubsystem::new(&cfg);
        sm.dispatch(
            BlockRun::new(
                BlockId {
                    kernel: KernelId(0),
                    index: 0,
                },
                &d,
                1,
                0,
            ),
            &d,
        );
        let (end, out) = run_to_empty(&mut sm, &d, &mut mem);
        // 2 warps x 1000 insts x 4 cycles/inst = 8000 cycles of issue.
        let (_, insts, cycles) = out.completed[0];
        assert_eq!(insts, 2000);
        assert!((7_900..=8_200).contains(&cycles), "cycles={cycles}");
        assert!(end >= 7_900);
        assert_eq!(out.issued_insts, 2000);
    }

    #[test]
    fn memory_bound_kernel_is_slower_than_compute_bound() {
        let cfg = cfg();
        let d_c = desc(vec![Segment::compute(200)]);
        let d_m = desc(vec![Segment::load(200)]);
        let mut mem = MemSubsystem::new(&cfg);
        let mut sm = Sm::new(0, &cfg, 1);
        sm.dispatch(
            BlockRun::new(
                BlockId {
                    kernel: KernelId(0),
                    index: 0,
                },
                &d_c,
                1,
                0,
            ),
            &d_c,
        );
        let (t_c, _) = run_to_empty(&mut sm, &d_c, &mut mem);
        let mut mem2 = MemSubsystem::new(&cfg);
        let mut sm2 = Sm::new(0, &cfg, 1);
        sm2.dispatch(
            BlockRun::new(
                BlockId {
                    kernel: KernelId(0),
                    index: 0,
                },
                &d_m,
                1,
                0,
            ),
            &d_m,
        );
        let (t_m, _) = run_to_empty(&mut sm2, &d_m, &mut mem2);
        assert!(
            t_m > t_c * 2,
            "loads should stall: compute={t_c}, memory={t_m}"
        );
    }

    #[test]
    fn flush_removes_blocks_instantly() {
        let cfg = cfg();
        let d = desc(vec![Segment::compute(10_000)]);
        let mut sm = Sm::new(0, &cfg, 1);
        let _mem = MemSubsystem::new(&cfg);
        for i in 0..2 {
            sm.dispatch(
                BlockRun::new(
                    BlockId {
                        kernel: KernelId(0),
                        index: i,
                    },
                    &d,
                    1,
                    0,
                ),
                &d,
            );
        }
        let mut out = SmOutput::default();
        let plan = SmPreemptPlan::uniform([0, 1], Technique::Flush);
        let flushed = sm
            .begin_preempt(100, &plan, save_cycles(&cfg, &d), &mut out)
            .unwrap();
        assert_eq!(flushed.len(), 2);
        assert_eq!(sm.resident_count(), 0);
        assert_eq!(out.preempt_done, Some(0), "flush latency is zero");
    }

    #[test]
    fn switch_halts_for_save_then_snapshots() {
        let cfg = cfg();
        let d = desc(vec![Segment::compute(100_000)]);
        let mut sm = Sm::new(0, &cfg, 1);
        let mut mem = MemSubsystem::new(&cfg);
        sm.dispatch(
            BlockRun::new(
                BlockId {
                    kernel: KernelId(0),
                    index: 0,
                },
                &d,
                1,
                0,
            ),
            &d,
        );
        // Make some progress first.
        let mut now = 0;
        for _ in 0..100 {
            let mut out = SmOutput::default();
            now = sm.tick(now, Some(&d), &mut mem, &mut out).max(now + 1);
        }
        let mut out = SmOutput::default();
        let plan = SmPreemptPlan::uniform([0], Technique::Switch);
        sm.begin_preempt(now, &plan, save_cycles(&cfg, &d), &mut out)
            .unwrap();
        let save = cfg.sm_transfer_cycles(d.block_context_bytes());
        assert!(sm.halted_until() >= now + save);
        assert!(out.preempt_done.is_none());
        // Tick through the save.
        let mut done_latency = None;
        let mut switched = Vec::new();
        for _ in 0..10_000 {
            let mut o = SmOutput::default();
            let next = sm.tick(now, Some(&d), &mut mem, &mut o);
            switched.extend(o.switched_out);
            if let Some(l) = o.preempt_done {
                done_latency = Some(l);
                break;
            }
            now = next.max(now + 1);
        }
        let lat = done_latency.expect("switch should complete");
        assert!(lat >= save, "latency {lat} < save {save}");
        assert_eq!(switched.len(), 1);
        assert!(switched[0].insts > 0, "progress preserved in snapshot");
    }

    #[test]
    fn drain_lets_blocks_finish() {
        let cfg = cfg();
        let d = desc(vec![Segment::compute(500)]);
        let mut sm = Sm::new(0, &cfg, 1);
        let mut mem = MemSubsystem::new(&cfg);
        sm.dispatch(
            BlockRun::new(
                BlockId {
                    kernel: KernelId(0),
                    index: 0,
                },
                &d,
                1,
                0,
            ),
            &d,
        );
        let mut out = SmOutput::default();
        let plan = SmPreemptPlan::uniform([0], Technique::Drain);
        sm.begin_preempt(0, &plan, save_cycles(&cfg, &d), &mut out)
            .unwrap();
        assert!(out.preempt_done.is_none());
        let (end, all) = run_to_empty(&mut sm, &d, &mut mem);
        assert_eq!(all.completed.len(), 1, "drained block completes normally");
        assert!(all.preempt_done.is_some());
        assert!(end >= 500 * 2 * 4 - 100);
    }

    #[test]
    fn unsafe_flush_rejected_after_idem_point() {
        let cfg = cfg();
        let d = desc(vec![Segment::atomic(1), Segment::compute(100_000)]);
        let mut sm = Sm::new(0, &cfg, 1);
        let mut mem = MemSubsystem::new(&cfg);
        sm.dispatch(
            BlockRun::new(
                BlockId {
                    kernel: KernelId(0),
                    index: 0,
                },
                &d,
                1,
                0,
            ),
            &d,
        );
        let mut now = 0;
        for _ in 0..50 {
            let mut out = SmOutput::default();
            now = sm.tick(now, Some(&d), &mut mem, &mut out).max(now + 1);
        }
        assert!(sm.snapshot(now).blocks[0].past_idem_point);
        let mut out = SmOutput::default();
        let plan = SmPreemptPlan::uniform([0], Technique::Flush);
        let err = sm
            .begin_preempt(now, &plan, save_cycles(&cfg, &d), &mut out)
            .unwrap_err();
        assert_eq!(err, PreemptError::UnsafeFlush { block: 0 });
        // But an unsafe plan is accepted when explicitly allowed.
        let plan = SmPreemptPlan {
            allow_unsafe_flush: true,
            ..plan
        };
        assert!(sm
            .begin_preempt(now, &plan, save_cycles(&cfg, &d), &mut out)
            .is_ok());
    }

    #[test]
    fn plan_must_cover_all_resident_blocks() {
        let cfg = cfg();
        let d = desc(vec![Segment::compute(100)]);
        let mut sm = Sm::new(0, &cfg, 1);
        for i in 0..3 {
            sm.dispatch(
                BlockRun::new(
                    BlockId {
                        kernel: KernelId(0),
                        index: i,
                    },
                    &d,
                    1,
                    0,
                ),
                &d,
            );
        }
        let mut out = SmOutput::default();
        let plan = SmPreemptPlan::uniform([0, 1], Technique::Drain);
        let err = sm
            .begin_preempt(0, &plan, save_cycles(&cfg, &d), &mut out)
            .unwrap_err();
        assert_eq!(err, PreemptError::PlanMismatch { missing: vec![2] });
    }

    #[test]
    fn mixed_plan_flush_switch_drain() {
        let cfg = cfg();
        let d = desc(vec![Segment::compute(2_000)]);
        let mut sm = Sm::new(0, &cfg, 1);
        let mut mem = MemSubsystem::new(&cfg);
        for i in 0..3 {
            sm.dispatch(
                BlockRun::new(
                    BlockId {
                        kernel: KernelId(0),
                        index: i,
                    },
                    &d,
                    1,
                    0,
                ),
                &d,
            );
        }
        let mut out = SmOutput::default();
        let plan = SmPreemptPlan {
            entries: vec![
                (0, Technique::Flush),
                (1, Technique::Switch),
                (2, Technique::Drain),
            ],
            allow_unsafe_flush: false,
        };
        let flushed = sm
            .begin_preempt(0, &plan, save_cycles(&cfg, &d), &mut out)
            .unwrap();
        assert_eq!(flushed.len(), 1);
        assert_eq!(sm.resident_count(), 2);
        let (_, all) = run_to_empty(&mut sm, &d, &mut mem);
        assert_eq!(all.switched_out.len(), 1);
        assert_eq!(all.completed.len(), 1, "drained block completes");
        assert!(all.preempt_done.is_some());
    }

    #[test]
    fn cannot_dispatch_while_preempting() {
        let cfg = cfg();
        let d = desc(vec![Segment::compute(1_000)]);
        let mut sm = Sm::new(0, &cfg, 1);
        sm.set_assigned(Some(KernelId(0)));
        sm.dispatch(
            BlockRun::new(
                BlockId {
                    kernel: KernelId(0),
                    index: 0,
                },
                &d,
                1,
                0,
            ),
            &d,
        );
        assert!(sm.can_dispatch(KernelId(0), 8));
        let mut out = SmOutput::default();
        sm.begin_preempt(
            0,
            &SmPreemptPlan::uniform([0], Technique::Drain),
            save_cycles(&cfg, &d),
            &mut out,
        )
        .unwrap();
        assert!(!sm.can_dispatch(KernelId(0), 8));
    }

    /// `hash_combine` is a left fold, so the tick's memory address
    /// continues the prefix a block caches at dispatch bit for bit.
    #[test]
    fn address_hash_continues_the_dispatch_prefix() {
        let cfg = cfg();
        let d = desc(vec![Segment::load(8)]);
        for i in 0..200u32 {
            let seed = hash_combine(&[u64::from(i), 1]);
            let mut sm = Sm::new(0, &cfg, seed);
            let id = BlockId {
                kernel: KernelId(i as usize % 7),
                index: i * 13,
            };
            sm.dispatch(BlockRun::new(id, &d, 1, 0), &d);
            let key = sm.blocks[0].addr_key;
            let (w, now) = (u64::from(i % 6), hash_combine(&[u64::from(i), 2]));
            assert_eq!(
                splitmix64(splitmix64(key ^ w) ^ now),
                hash_combine(&[seed, id.kernel.0 as u64, u64::from(id.index), w, now]),
                "case {i}"
            );
        }
    }

    /// A context restored onto an SM drops its memory waits: in-flight
    /// memory operations were drained before the save.
    #[test]
    fn restored_warps_drop_their_memory_waits() {
        let cfg = cfg();
        let d = desc(vec![Segment::compute(100)]);
        let id = BlockId {
            kernel: KernelId(0),
            index: 0,
        };
        let mut sm = Sm::new(0, &cfg, 1);
        sm.dispatch(BlockRun::new(id, &d, 1, 0), &d);
        sm.warps[0].stall_until(10_000);
        let snap = sm.blocks[0].snapshot(100, &sm.warps[..sm.wpb]);
        assert_eq!(snap.warps[0].phase, WarpPhase::WaitMem(10_000));
        let mut resumed = Sm::new(1, &cfg, 1);
        resumed.dispatch(BlockRun::from_snapshot(snap, 200, 300), &d);
        assert!(resumed.warps.iter().all(|w| w.phase == WarpPhase::Ready));
        assert_eq!(resumed.ready_at, [300, 300], "ready after the context load");
        assert_eq!(resumed.table_drift(Some(&d)), None);
    }

    /// The integer L1 threshold agrees with the float comparison it
    /// replaces on both sides of its boundary, degenerate fractions
    /// included.
    #[test]
    fn l1_hit_threshold_matches_the_float_test() {
        let top = 1u64 << 53;
        for fraction in [
            0.0,
            0.3,
            0.5,
            1.0,
            1.5,
            -0.1,
            f64::NAN,
            1.0 - f64::EPSILON / 2.0,
        ] {
            let t = l1_hit_threshold(fraction);
            for k in [t.wrapping_sub(1), t] {
                if k >= top {
                    continue;
                }
                let float_hit = crate::rng::unit_f64(k << 11) < fraction;
                assert_eq!(k < t, float_hit, "fraction {fraction}, k {k}");
            }
        }
        assert_eq!(l1_hit_threshold(f64::NAN), 0);
        assert_eq!(l1_hit_threshold(-0.1), 0);
        assert!(l1_hit_threshold(1.0) >= top);
        assert_eq!(l1_hit_threshold(1.0 - f64::EPSILON / 2.0), top - 1);
    }

    /// The parallel engine's half of the one tick body: run without the
    /// memory subsystem, a tick that would touch shared state reports an
    /// interaction and changes nothing (scheduler cursor included), and
    /// the committing tick at that cycle then leaves the SM, its output and
    /// memory exactly as on a twin SM that only ever ticked serially.
    #[test]
    fn pure_ticks_stop_at_interactions_without_changing_the_sm() {
        let cases: [(&str, f64, Vec<Segment>); 5] = [
            ("l1 miss", 0.0, vec![Segment::load(8), Segment::compute(64)]),
            (
                "global store",
                1.0,
                vec![Segment::store(1), Segment::compute(64)],
            ),
            (
                "atomic",
                1.0,
                vec![Segment::atomic(1), Segment::compute(64)],
            ),
            ("block completion", 1.0, vec![Segment::compute(4)]),
            (
                "protect store",
                1.0,
                vec![Segment::ProtectStore, Segment::compute(64)],
            ),
        ];
        for (kind, l1_hit_fraction, segs) in cases {
            let cfg = GpuConfig {
                l1_hit_fraction,
                ..cfg()
            };
            let d = desc(segs);
            let (mut sm, mut twin) = (Sm::new(0, &cfg, 1), Sm::new(0, &cfg, 1));
            let (mut mem, mut twin_mem) = (MemSubsystem::new(&cfg), MemSubsystem::new(&cfg));
            let id = BlockId {
                kernel: KernelId(0),
                index: 0,
            };
            sm.dispatch(BlockRun::new(id, &d, 1, 0), &d);
            twin.dispatch(BlockRun::new(id, &d, 1, 0), &d);
            let mut now = 0;
            let out = loop {
                assert!(now < 10_000, "{kind}: no interaction reached");
                let limits = TickLimits::none(now);
                let before = format!("{sm:?}");
                let mut out = SmOutput::default();
                let mut twin_out = SmOutput::default();
                let pure = sm.tick_bounded(now, Some(&d), None, &mut out, &limits);
                if pure.is_none() {
                    assert_eq!(
                        format!("{sm:?}"),
                        before,
                        "{kind}: interaction changed the SM"
                    );
                    assert_eq!(format!("{out:?}"), format!("{:?}", SmOutput::default()));
                }
                let next = match pure {
                    Some(next) => next,
                    None => sm
                        .tick_bounded(now, Some(&d), Some(&mut mem), &mut out, &limits)
                        .unwrap(),
                };
                let twin_next = twin.tick(now, Some(&d), &mut twin_mem, &mut twin_out);
                assert_eq!(next, twin_next, "{kind}: next cycle at {now}");
                assert_eq!(
                    format!("{sm:?}"),
                    format!("{twin:?}"),
                    "{kind}: SM at {now}"
                );
                assert_eq!(
                    format!("{out:?}"),
                    format!("{twin_out:?}"),
                    "{kind}: output at {now}"
                );
                assert_eq!(
                    format!("{mem:?}"),
                    format!("{twin_mem:?}"),
                    "{kind}: memory at {now}"
                );
                if pure.is_none() {
                    break out;
                }
                now = next;
            };
            let interacted = match kind {
                "l1 miss" | "protect store" => sm.l1_counters().1 == 1,
                "block completion" => out.completed.len() == 1,
                _ => out.effects.len() == 1,
            };
            assert!(
                interacted,
                "{kind}: the replayed tick must be the interaction"
            );
        }
    }
}

#[cfg(test)]
mod sched_tests {
    use super::*;
    use crate::config::WarpSched;
    use crate::kernel::{KernelDesc, Program, Segment};

    fn desc(segs: Vec<Segment>) -> KernelDesc {
        KernelDesc::builder("k")
            .grid_blocks(64)
            .threads_per_block(64)
            .regs_per_thread(16)
            .program(Program::new(segs))
            .build()
            .unwrap()
    }

    fn run_until_done(cfg: &GpuConfig, d: &KernelDesc, blocks: u32) -> (u64, Sm) {
        let mut sm = Sm::new(0, cfg, 1);
        let mut mem = MemSubsystem::new(cfg);
        for i in 0..blocks {
            sm.dispatch(
                BlockRun::new(
                    BlockId {
                        kernel: KernelId(0),
                        index: i,
                    },
                    d,
                    1,
                    0,
                ),
                d,
            );
        }
        let mut now = 0u64;
        for _ in 0..4_000_000 {
            let mut out = SmOutput::default();
            let next = sm.tick(now, Some(d), &mut mem, &mut out);
            if sm.resident_count() == 0 {
                return (now, sm);
            }
            assert_ne!(next, u64::MAX);
            now = next.max(now + 1);
        }
        panic!("did not finish");
    }

    #[test]
    fn l1_hits_accelerate_loads() {
        let d = desc(vec![Segment::load(400)]);
        let cold = GpuConfig {
            l1_hit_fraction: 0.0,
            ..GpuConfig::tiny()
        };
        let warm = GpuConfig {
            l1_hit_fraction: 0.95,
            ..GpuConfig::tiny()
        };
        let (t_cold, sm_cold) = run_until_done(&cold, &d, 1);
        let (t_warm, sm_warm) = run_until_done(&warm, &d, 1);
        assert!(t_warm < t_cold / 2, "cold={t_cold}, warm={t_warm}");
        assert_eq!(sm_cold.l1_counters().0, 0);
        let (hits, misses) = sm_warm.l1_counters();
        assert!(hits > misses * 5, "hits={hits} misses={misses}");
    }

    #[test]
    fn l1_hit_rate_tracks_configured_fraction() {
        let d = desc(vec![Segment::load(2000)]);
        let cfg = GpuConfig {
            l1_hit_fraction: 0.5,
            ..GpuConfig::tiny()
        };
        let (_, sm) = run_until_done(&cfg, &d, 2);
        let (hits, misses) = sm.l1_counters();
        let rate = hits as f64 / (hits + misses) as f64;
        assert!((rate - 0.5).abs() < 0.1, "rate={rate}");
    }

    #[test]
    fn protect_store_bypasses_l1() {
        // All-hits config; the protect store must still reach memory.
        let d = desc(vec![Segment::ProtectStore, Segment::compute(4)]);
        let cfg = GpuConfig {
            l1_hit_fraction: 1.0,
            ..GpuConfig::tiny()
        };
        let (_, sm) = run_until_done(&cfg, &d, 1);
        let (hits, misses) = sm.l1_counters();
        assert_eq!(hits, 0);
        assert_eq!(misses, 2, "one protect store per warp");
    }

    #[test]
    fn gto_and_rr_complete_the_same_work() {
        let d = desc(vec![
            Segment::load(20),
            Segment::compute(300),
            Segment::store(8),
        ]);
        let rr = GpuConfig {
            warp_sched: WarpSched::LooseRoundRobin,
            ..GpuConfig::tiny()
        };
        let gto = GpuConfig {
            warp_sched: WarpSched::GreedyThenOldest,
            ..GpuConfig::tiny()
        };
        let (_, sm_rr) = run_until_done(&rr, &d, 4);
        let (_, sm_gto) = run_until_done(&gto, &d, 4);
        assert_eq!(sm_rr.insts_issued_total(), sm_gto.insts_issued_total());
    }

    #[test]
    fn gto_skews_block_progress_more_than_rr() {
        // Greedy scheduling races one block ahead; round-robin keeps blocks
        // in sync. Measure the spread of per-block progress mid-run.
        let d = desc(vec![Segment::compute(5_000)]);
        let spread = |sched: WarpSched| {
            let cfg = GpuConfig {
                warp_sched: sched,
                issue_chunk: 8,
                ..GpuConfig::tiny()
            };
            let mut sm = Sm::new(0, &cfg, 1);
            let mut mem = MemSubsystem::new(&cfg);
            for i in 0..4 {
                sm.dispatch(
                    BlockRun::new(
                        BlockId {
                            kernel: KernelId(0),
                            index: i,
                        },
                        &d,
                        1,
                        0,
                    ),
                    &d,
                );
            }
            let mut now = 0u64;
            for _ in 0..2_000 {
                let mut out = SmOutput::default();
                now = sm.tick(now, Some(&d), &mut mem, &mut out).max(now + 1);
            }
            let snap = sm.snapshot(now);
            let max = snap.blocks.iter().map(|b| b.executed_insts).max().unwrap();
            let min = snap.blocks.iter().map(|b| b.executed_insts).min().unwrap();
            max - min
        };
        // Compute-only warps never stall, so GTO stays glued to warp 0 while
        // RR spreads issue evenly.
        assert!(spread(WarpSched::GreedyThenOldest) > spread(WarpSched::LooseRoundRobin) * 4);
    }

    /// Fold one tick's output into a running total.
    fn absorb(total: &mut SmOutput, out: SmOutput) {
        total.completed.extend(out.completed);
        total.effects.extend(out.effects);
        total.switched_out.extend(out.switched_out);
        total.preempt_done = total.preempt_done.or(out.preempt_done);
        total.issued_insts += out.issued_insts;
    }

    /// One block of six warps at cycle 0, in slot order: a steady prefix of
    /// four compute warps, a runnable breaker whose next issue is a load,
    /// and a compute warp past the breaker that is stalled on memory until
    /// `sleeper_wake`.
    fn prefix_breaker_sleeper(cfg: &GpuConfig, d: &KernelDesc, sleeper_wake: u64) -> Sm {
        let mut sm = Sm::new(0, cfg, 1);
        let id = BlockId {
            kernel: KernelId(0),
            index: 0,
        };
        sm.dispatch(BlockRun::new(id, d, 1, 0), d);
        assert_eq!(sm.warps.len(), 6);
        sm.warps[4].seg_idx = 1;
        sm.warps[5].seg_idx = 2;
        sm.warps[5].phase = WarpPhase::WaitMem(sleeper_wake);
        // Book the skipped segments, so the block's instruction count
        // agrees with its warps' progress.
        let scaled = sm.blocks[0].scaled_segs().to_vec();
        sm.blocks[0].add_insts(u64::from(2 * scaled[0] + scaled[1]));
        for s in 4..6 {
            sm.refresh_slot(0, s, d.program().segments());
        }
        sm
    }

    /// Tick `sm` with an open batching window and a `TickLimits::none`
    /// twin tick by tick, and require identical SMs and outputs after every
    /// batched tick. Returns the batched run's per-tick issue counts.
    fn batched_matches_serial_twin(cfg: &GpuConfig, d: &KernelDesc, sleeper_wake: u64) -> Vec<u32> {
        let mut sm = prefix_breaker_sleeper(cfg, d, sleeper_wake);
        let mut twin = prefix_breaker_sleeper(cfg, d, sleeper_wake);
        let (mut mem, mut twin_mem) = (MemSubsystem::new(cfg), MemSubsystem::new(cfg));
        let limits = TickLimits {
            horizon: 1_000_000,
            max_insts: u64::MAX,
            may_gain_blocks: false,
        };
        let (mut now, mut twin_now) = (0u64, 0u64);
        let mut issued = Vec::new();
        for _ in 0..200 {
            let mut out = SmOutput::default();
            let next = sm
                .tick_bounded(now, Some(d), Some(&mut mem), &mut out, &limits)
                .expect("a tick with the memory subsystem always commits");
            let mut twin_out = SmOutput::default();
            while twin_now < next {
                let mut o = SmOutput::default();
                let t = twin.tick(twin_now, Some(d), &mut twin_mem, &mut o);
                absorb(&mut twin_out, o);
                if t == u64::MAX {
                    break;
                }
                twin_now = t.max(twin_now + 1);
            }
            // A batch is one tick of engine work for several of the
            // twin's, so only the work counters may differ.
            let state = |sm: &Sm| format!("{sm:?}").replace(&format!("{:?}", sm.work), "");
            assert_eq!(state(&sm), state(&twin), "SM after the tick at {now}");
            assert_eq!(
                format!("{out:?}"),
                format!("{twin_out:?}"),
                "output of the tick at {now}"
            );
            issued.push(out.issued_insts);
            if next == u64::MAX || next > limits.horizon {
                break;
            }
            now = next.max(now + 1);
        }
        issued
    }

    #[test]
    fn round_robin_batch_stops_at_the_breaker_not_at_later_sleepers() {
        let d = KernelDesc::builder("k")
            .grid_blocks(1)
            .threads_per_block(192)
            .regs_per_thread(16)
            .program(Program::new(vec![
                Segment::compute(5_000),
                Segment::load(20),
                Segment::compute(5_000),
            ]))
            .build()
            .unwrap();
        let cfg = GpuConfig {
            warp_sched: WarpSched::LooseRoundRobin,
            ..GpuConfig::tiny()
        };
        let chunk = cfg.issue_chunk;
        let tick_cycles = cfg.issue_interval() * u64::from(chunk);
        // The sleeper wakes after the third prefix tick: the old walk, which
        // classified every slot, cut the batch there.
        let wake = 2 * tick_cycles + 1;
        let issued = batched_matches_serial_twin(&cfg, &d, wake);
        assert_eq!(issued[0], 4 * chunk, "one batch covers the whole prefix");
        assert!(
            issued.iter().any(|&n| n > 4 * chunk),
            "whole-rotation batches follow"
        );

        // Greedy-then-oldest never walks the rotation: the breaker and the
        // sleeper do not limit its batch, and it matches the twin too.
        let gto = GpuConfig {
            warp_sched: WarpSched::GreedyThenOldest,
            ..cfg
        };
        let issued = batched_matches_serial_twin(&gto, &d, wake);
        assert!(
            issued[0] > 4 * chunk,
            "greedy batches the chosen warp alone"
        );
    }
}

#[cfg(test)]
mod table_tests {
    use super::*;
    use crate::config::WarpSched;
    use crate::kernel::{KernelDesc, Program, Segment};
    use proptest::prelude::*;

    fn arb_segment() -> impl Strategy<Value = Segment> {
        prop_oneof![
            (1u32..40).prop_map(Segment::compute),
            (1u32..40).prop_map(|insts| Segment::Shared { insts }),
            (1u32..6).prop_map(Segment::load),
            (1u32..4).prop_map(Segment::store),
            Just(Segment::Barrier),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// The slot tables agree with each other and with the blocks (see
        /// `Sm::table_drift`) after every step of a random mix:
        /// dispatches of fresh and resumed blocks, ticks with and without
        /// the memory subsystem and with or without a batching window, and
        /// flush/switch/drain preemptions, under both warp schedulers.
        #[test]
        fn slot_tables_match_the_blocks_after_every_step(
            segs in proptest::collection::vec(arb_segment(), 1..7),
            gto in any::<bool>(),
            chunk in 1u32..9,
            warps in 1u32..5,
            jitter in 0u32..3,
            steps in proptest::collection::vec((any::<u8>(), 1u64..400), 1..120),
        ) {
            let cfg = GpuConfig {
                warp_sched: if gto {
                    WarpSched::GreedyThenOldest
                } else {
                    WarpSched::LooseRoundRobin
                },
                issue_chunk: chunk,
                l1_hit_fraction: 0.5,
                ..GpuConfig::tiny()
            };
            let d = KernelDesc::builder("t")
                .grid_blocks(64)
                .threads_per_block(32 * warps)
                .regs_per_thread(16)
                .program(Program::new([segs, vec![Segment::compute(3)]].concat()))
                .jitter_pct(f64::from(jitter) * 0.2)
                .build()
                .expect("generated kernels are valid");
            let mut sm = Sm::new(0, &cfg, 3);
            let mut mem = MemSubsystem::new(&cfg);
            let (mut now, mut next_index) = (0u64, 0u32);
            let mut saved: Vec<TbSnapshot> = Vec::new();
            for (step, &(action, dt)) in steps.iter().enumerate() {
                let mut out = SmOutput::default();
                match action % 6 {
                    0 | 1 if !sm.is_preempting() && sm.resident_count() < 4 => {
                        let block = match saved.pop() {
                            Some(snap) if action & 0x80 != 0 => {
                                BlockRun::from_snapshot(snap, now, now + dt)
                            }
                            _ => {
                                next_index += 1;
                                let id = BlockId {
                                    kernel: KernelId(0),
                                    index: next_index,
                                };
                                BlockRun::new(id, &d, 5, now)
                            }
                        };
                        sm.dispatch(block, &d);
                    }
                    2 if !sm.is_preempting() && sm.resident_count() > 0 => {
                        // A per-block mix, so flushes and switch-outs also
                        // remove blocks from the middle of the tables.
                        let entries = sm
                            .resident_indices()
                            .into_iter()
                            .map(|ix| {
                                let technique = match (u32::from(action) + ix) % 3 {
                                    0 => Technique::Flush,
                                    1 => Technique::Drain,
                                    _ => Technique::Switch,
                                };
                                (ix, technique)
                            })
                            .collect();
                        let plan = SmPreemptPlan {
                            entries,
                            allow_unsafe_flush: true,
                        };
                        sm.begin_preempt(now, &plan, dt, &mut out)
                            .expect("a covering plan on a busy SM is accepted");
                    }
                    action => {
                        let limits = TickLimits {
                            horizon: now + dt * 40,
                            max_insts: u64::MAX,
                            may_gain_blocks: action == 5,
                        };
                        let pure = if action == 3 {
                            sm.tick_bounded(now, Some(&d), None, &mut out, &limits)
                        } else {
                            None
                        };
                        let next = match pure {
                            Some(next) => next,
                            None => sm
                                .tick_bounded(now, Some(&d), Some(&mut mem), &mut out, &limits)
                                .expect("a tick with the memory subsystem always commits"),
                        };
                        now = if next == u64::MAX { now + dt } else { next.max(now + 1) };
                    }
                }
                saved.extend(out.switched_out);
                prop_assert_eq!(sm.table_drift(Some(&d)), None, "after step {}", step);
            }
        }
    }
}
