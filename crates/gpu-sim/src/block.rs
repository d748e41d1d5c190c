//! Thread-block execution state.

use crate::kernel::{KernelDesc, Segment};
use crate::rng::{hash_combine, unit_f64};
use crate::warp::{Warp, WarpPhase};
use crate::KernelId;

/// Identifies a thread block within a launched kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId {
    /// The kernel instance this block belongs to.
    pub kernel: KernelId,
    /// The block's index within the grid.
    pub index: u32,
}

impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.kernel.0, self.index)
    }
}

/// Progress statistics of one resident block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlockStats {
    /// Warp instructions issued by this block in total (across context
    /// switches, but reset by a flush since flushed work is discarded).
    pub issued_insts: u64,
    /// Cycles the block has been resident (across context switches).
    pub elapsed_cycles: u64,
}

/// A thread block resident on an SM.
#[derive(Debug, Clone)]
pub struct BlockRun {
    /// The block's identity.
    pub id: BlockId,
    /// Jitter-scaled instruction count for every program segment.
    scaled_segs: Vec<u32>,
    warps: Vec<Warp>,
    /// Cycle at which the block was (re-)dispatched onto its current SM.
    pub dispatched_at: u64,
    /// Instructions issued before the current residency (restored context).
    prior_insts: u64,
    /// Cycles elapsed before the current residency (restored context).
    prior_cycles: u64,
    /// Instructions issued during the current residency.
    insts_this_residency: u64,
    /// Whether the block has executed a protect-store (or, for
    /// non-instrumented programs, any non-idempotent segment): once set the
    /// block must not be flushed.
    pub past_idem_point: bool,
    /// Cycle before which the block's warps may not issue (context-load stall).
    pub warm_up_until: u64,
}

/// A saved block context produced by a context switch.
#[derive(Debug, Clone)]
pub struct TbSnapshot {
    /// The block's identity.
    pub id: BlockId,
    pub(crate) scaled_segs: Vec<u32>,
    pub(crate) warps: Vec<Warp>,
    pub(crate) insts: u64,
    pub(crate) cycles: u64,
    pub(crate) past_idem_point: bool,
}

/// Compute the jitter-scaled segment lengths for block `index` of `desc`.
///
/// Deterministic in `(seed, index)` so results do not depend on scheduling
/// order. Every block of a kernel uses one scale factor for all segments.
pub fn scaled_segments(desc: &KernelDesc, seed: u64, index: u32) -> Vec<u32> {
    let factor = jitter_factor(desc, seed, index);
    desc.program()
        .segments()
        .iter()
        .map(|s| scaled_len(s, factor))
        .collect()
}

/// The per-warp instruction total of block `index` of `desc`: the sum of
/// [`scaled_segments`] without building the vector.
pub fn scaled_block_total(desc: &KernelDesc, seed: u64, index: u32) -> u64 {
    let factor = jitter_factor(desc, seed, index);
    desc.program()
        .segments()
        .iter()
        .map(|s| u64::from(scaled_len(s, factor)))
        .sum()
}

/// Block `index`'s length scale: `1 ± jitter`, drawn from `(seed, index)`.
fn jitter_factor(desc: &KernelDesc, seed: u64, index: u32) -> f64 {
    let jitter = desc.jitter_pct();
    if jitter == 0.0 {
        1.0
    } else {
        let u = unit_f64(hash_combine(&[seed, u64::from(index), 0xB10C]));
        1.0 + jitter * (2.0 * u - 1.0)
    }
}

/// One segment's instruction count under `factor`.
fn scaled_len(s: &Segment, factor: f64) -> u32 {
    match s {
        Segment::Barrier => 0,
        Segment::ProtectStore => 1,
        // simlint: allow(as-narrowing) -- saturating float cast of a u32 count scaled by at most 2x jitter
        _ => ((f64::from(s.insts()) * factor).round() as u32).max(1),
    }
}

impl BlockRun {
    /// Create a fresh block run starting from the beginning of the program.
    pub fn new(id: BlockId, desc: &KernelDesc, seed: u64, now: u64) -> Self {
        let scaled = scaled_segments(desc, seed, id.index);
        let warps = (0..desc.warps_per_block()).map(Warp::new).collect();
        BlockRun {
            id,
            scaled_segs: scaled,
            warps,
            dispatched_at: now,
            prior_insts: 0,
            prior_cycles: 0,
            insts_this_residency: 0,
            past_idem_point: false,
            warm_up_until: now,
        }
    }

    /// Restore a block from a context-switch snapshot.
    ///
    /// `ready_at` is the cycle at which the context load completes; warps may
    /// not issue before it.
    pub fn from_snapshot(snap: TbSnapshot, now: u64, ready_at: u64) -> Self {
        let warps = snap
            .warps
            .into_iter()
            .map(|mut w| {
                // In-flight memory operations were drained before the save.
                if matches!(w.phase, WarpPhase::WaitMem(_)) {
                    w.phase = WarpPhase::Ready;
                }
                w
            })
            .collect();
        BlockRun {
            id: snap.id,
            scaled_segs: snap.scaled_segs,
            warps,
            dispatched_at: now,
            prior_insts: snap.insts,
            prior_cycles: snap.cycles,
            insts_this_residency: 0,
            past_idem_point: snap.past_idem_point,
            warm_up_until: ready_at,
        }
    }

    /// Snapshot the block for a context switch at cycle `now`.
    pub fn snapshot(&self, now: u64) -> TbSnapshot {
        TbSnapshot {
            id: self.id,
            scaled_segs: self.scaled_segs.clone(),
            warps: self.warps.clone(),
            insts: self.issued_insts(),
            cycles: self.elapsed_cycles(now),
            past_idem_point: self.past_idem_point,
        }
    }

    /// The jitter-scaled segment lengths.
    pub fn scaled_segs(&self) -> &[u32] {
        &self.scaled_segs
    }

    /// Mutable access to the block's warps (SM internals).
    pub(crate) fn warps_mut(&mut self) -> &mut [Warp] {
        &mut self.warps
    }

    /// The earliest cycle at which warp `w` could issue, counting the
    /// block's context-load stall (`None` at a barrier or when done).
    #[inline]
    pub(crate) fn warp_ready_at(&self, w: usize) -> Option<u64> {
        self.warps[w]
            .next_ready_at()
            .map(|t| t.max(self.warm_up_until))
    }

    /// Book `insts` steady instructions for warp `w` (the batched issue:
    /// no segment completes, so the warp only advances within its
    /// segment).
    #[inline]
    pub(crate) fn issue_steady(&mut self, w: usize, insts: u32) {
        let warp = &mut self.warps[w];
        warp.phase = WarpPhase::Ready;
        warp.done_in_seg += insts;
        self.add_insts(insts);
    }

    /// The block's warps.
    pub fn warps(&self) -> &[Warp] {
        &self.warps
    }

    /// Total warp instructions issued so far (including prior residencies).
    pub fn issued_insts(&self) -> u64 {
        self.prior_insts + self.insts_this_residency
    }

    /// Total cycles the block has been resident as of `now`.
    pub fn elapsed_cycles(&self, now: u64) -> u64 {
        self.prior_cycles + now.saturating_sub(self.dispatched_at)
    }

    /// Record `n` issued instructions.
    pub(crate) fn add_insts(&mut self, n: u32) {
        self.insts_this_residency += u64::from(n);
    }

    /// Total instructions this block will execute (jitter-scaled).
    pub fn total_insts(&self) -> u64 {
        let per_warp: u64 = self.scaled_segs.iter().map(|&n| u64::from(n)).sum();
        per_warp * self.warps.len() as u64
    }

    /// Whether every warp finished the program.
    pub fn all_done(&self) -> bool {
        self.warps.iter().all(|w| w.phase == WarpPhase::Done)
    }

    /// Whether every unfinished warp is parked at the barrier (release time).
    pub fn barrier_ready(&self) -> bool {
        let mut any = false;
        for w in &self.warps {
            match w.phase {
                WarpPhase::AtBarrier => any = true,
                WarpPhase::Done => {}
                _ => return false,
            }
        }
        any
    }

    /// Release all warps parked at the barrier.
    pub fn release_barrier(&mut self) {
        for w in &mut self.warps {
            if w.phase == WarpPhase::AtBarrier {
                w.release_barrier();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{KernelDesc, Program, Segment};
    use crate::KernelId;

    fn desc(jitter: f64) -> KernelDesc {
        KernelDesc::builder("b")
            .grid_blocks(16)
            .threads_per_block(64)
            .program(Program::new(vec![
                Segment::compute(100),
                Segment::Barrier,
                Segment::store(10),
            ]))
            .jitter_pct(jitter)
            .build()
            .unwrap()
    }

    fn bid(i: u32) -> BlockId {
        BlockId {
            kernel: KernelId(0),
            index: i,
        }
    }

    #[test]
    fn scaled_segments_deterministic() {
        let d = desc(0.3);
        assert_eq!(scaled_segments(&d, 7, 3), scaled_segments(&d, 7, 3));
        assert_ne!(scaled_segments(&d, 7, 3), scaled_segments(&d, 7, 4));
    }

    #[test]
    fn zero_jitter_matches_program() {
        let d = desc(0.0);
        assert_eq!(scaled_segments(&d, 7, 0), vec![100, 0, 10]);
    }

    #[test]
    fn jitter_bounded() {
        let d = desc(0.25);
        for i in 0..100 {
            let s = scaled_segments(&d, 42, i);
            assert!(
                (75..=125).contains(&s[0]),
                "segment 0 jitter out of range: {}",
                s[0]
            );
        }
    }

    #[test]
    fn block_total_is_the_sum_of_the_scaled_segments() {
        let d = |jitter: f64| {
            KernelDesc::builder("t")
                .grid_blocks(4)
                .threads_per_block(64)
                .program(Program::new(vec![
                    Segment::compute(97),
                    Segment::Barrier,
                    Segment::load(13),
                    Segment::ProtectStore,
                    Segment::store(1),
                ]))
                .jitter_pct(jitter)
                .build()
                .unwrap()
        };
        for i in 0..200u64 {
            let jitter = unit_f64(hash_combine(&[i, 1]));
            let seed = hash_combine(&[i, 2]);
            // simlint: allow(as-narrowing) -- keeps the low 32 bits of a hash as a block index
            let index = hash_combine(&[i, 3]) as u32;
            let k = d(jitter);
            let sum: u64 = scaled_segments(&k, seed, index)
                .iter()
                .map(|&n| u64::from(n))
                .sum();
            assert_eq!(scaled_block_total(&k, seed, index), sum, "case {i}");
        }
    }

    #[test]
    fn block_progress_accounting() {
        let d = desc(0.0);
        let mut b = BlockRun::new(bid(0), &d, 1, 100);
        b.add_insts(50);
        assert_eq!(b.issued_insts(), 50);
        assert_eq!(b.elapsed_cycles(300), 200);
        assert_eq!(b.total_insts(), 110 * 2);
    }

    #[test]
    fn snapshot_round_trip_preserves_progress() {
        let d = desc(0.0);
        let mut b = BlockRun::new(bid(5), &d, 1, 0);
        b.add_insts(77);
        b.past_idem_point = true;
        let snap = b.snapshot(500);
        let restored = BlockRun::from_snapshot(snap, 1000, 1200);
        assert_eq!(restored.issued_insts(), 77);
        assert_eq!(restored.elapsed_cycles(1000), 500);
        assert!(restored.past_idem_point);
        assert_eq!(restored.warm_up_until, 1200);
        assert_eq!(restored.id, bid(5));
    }

    #[test]
    fn snapshot_clears_memory_waits() {
        let d = desc(0.0);
        let mut b = BlockRun::new(bid(0), &d, 1, 0);
        b.warps_mut()[0].stall_until(10_000);
        let restored = BlockRun::from_snapshot(b.snapshot(100), 200, 200);
        assert!(restored.warps()[0].is_ready(200));
    }

    #[test]
    fn barrier_release_requires_all_warps() {
        let d = desc(0.0);
        let mut b = BlockRun::new(bid(0), &d, 1, 0);
        let segs = d.program().segments().to_vec();
        let scaled = b.scaled_segs().to_vec();
        // Drive warp 0 to the barrier.
        loop {
            let o = b.warps_mut()[0].issue(&segs, &scaled, 32);
            if o.hit_barrier {
                break;
            }
        }
        assert!(!b.barrier_ready(), "warp 1 still running");
        loop {
            let o = b.warps_mut()[1].issue(&segs, &scaled, 32);
            if o.hit_barrier {
                break;
            }
        }
        assert!(b.barrier_ready());
        b.release_barrier();
        assert!(b.warps().iter().all(|w| w.is_ready(0)));
    }
}
