//! Thread-block state.
//!
//! A [`BlockRun`] is a resident block's block-level state: its identity,
//! jitter-scaled segment lengths and their total, instruction and cycle
//! counts across residencies, idempotence flag, context-load stall and
//! counts of its warps parked at the barrier and done. The warps themselves
//! live in the SM's slot tables (see [`crate::sm`]). A [`TbSnapshot`] is a
//! switched-out block: the block-level state plus a copy of its warps.

use crate::kernel::{KernelDesc, Segment};
use crate::rng::{hash_combine, splitmix64, unit_f64};
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

/// A thread block resident on an SM: the block-level state only.
///
/// The block's warps live in the SM's warp table, in slot order beside the
/// tables derived from them (see [`crate::sm`]); a block carries warps only
/// between a context restore and its dispatch.
#[derive(Debug, Clone)]
pub struct BlockRun {
    /// The block's identity.
    pub id: BlockId,
    /// Jitter-scaled instruction count for every program segment.
    scaled_segs: Vec<u32>,
    /// Warp instructions the whole block executes: the scaled segment
    /// lengths summed, times the warps per block. Neither changes after
    /// creation, so it is computed once.
    total_insts: u64,
    /// The warps of a restored context, which [`Sm::dispatch`](crate::Sm::dispatch)
    /// moves into the SM's warp table; empty for a fresh block (every warp
    /// starts at the top of the program) and once dispatched.
    saved_warps: Vec<Warp>,
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
    /// Warps parked at the barrier, and warps done: the SM's per-tick
    /// barrier-release check and its block-completion check read these
    /// counts instead of every warp.
    parked: u32,
    done: u32,
    /// `hash_combine(&[engine seed, kernel, index])`: the block's prefix of
    /// every memory-address hash, set by the SM it is dispatched to.
    pub(crate) addr_key: u64,
}

/// A saved block context produced by a context switch.
#[derive(Debug, Clone)]
pub struct TbSnapshot {
    /// The block's identity.
    pub id: BlockId,
    pub(crate) scaled_segs: Vec<u32>,
    pub(crate) warps: Vec<Warp>,
    /// The block's [`BlockRun::total_insts`], carried across the switch.
    pub(crate) total_insts: u64,
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
    total_at(desc, jitter_factor(desc, seed, index))
}

/// The smallest [`scaled_block_total`] over the grid of `desc`, times its
/// warps per block: the fewest warp instructions any block of the kernel
/// executes.
///
/// Exact, not an estimate. A segment's scaled length is monotone
/// non-decreasing in the scale factor (a multiply by a non-negative count,
/// `round`, a saturating cast and `max(1)`; barriers and protect-stores are
/// constant), and for a jitter in `[0, 1)` — the only values [`KernelDesc`] accepts — the factor
/// `1 + jitter·(2u − 1)` is monotone in the draw `u`, which is itself
/// monotone in the top 53 bits of the block's jitter hash (every step is a
/// correctly rounded, hence monotone, float operation). So the minimum over
/// the grid is the total at the smallest draw, bit for bit, and each block
/// costs two hash rounds and an integer `min` instead of a scaled
/// segment walk.
pub fn min_block_total(desc: &KernelDesc, seed: u64) -> u64 {
    let factor = if desc.jitter_pct() == 0.0 {
        1.0
    } else {
        // `hash_combine` is a left fold: hoist its constant first round.
        let prefix = hash_combine(&[seed]);
        let Some(draw) = (0..desc.grid_blocks())
            .map(|i| jitter_draw(prefix, i))
            .min()
        else {
            return 0;
        };
        scale(desc.jitter_pct(), draw)
    };
    total_at(desc, factor).saturating_mul(u64::from(desc.warps_per_block()))
}

/// The per-warp instruction total of a block of `desc` under `factor`.
fn total_at(desc: &KernelDesc, factor: f64) -> u64 {
    desc.program()
        .segments()
        .iter()
        .map(|s| u64::from(scaled_len(s, factor)))
        .sum()
}

/// Tag of the jitter hash `hash_combine(&[seed, index, JITTER_TAG])`.
const JITTER_TAG: u64 = 0xB10C;

/// The jitter hash of block `index`, continued from `prefix =
/// hash_combine(&[seed])`: equal to `hash_combine(&[seed, index, JITTER_TAG])`.
fn jitter_draw(prefix: u64, index: u32) -> u64 {
    splitmix64(splitmix64(prefix ^ u64::from(index)) ^ JITTER_TAG)
}

/// The length scale `1 + jitter·(2u − 1)` for the jitter hash `h`
/// (`u = unit_f64(h)`, so only `h >> 11` matters).
fn scale(jitter: f64, h: u64) -> f64 {
    1.0 + jitter * (2.0 * unit_f64(h) - 1.0)
}

/// Block `index`'s length scale: `1 ± jitter`, drawn from `(seed, index)`.
fn jitter_factor(desc: &KernelDesc, seed: u64, index: u32) -> f64 {
    let jitter = desc.jitter_pct();
    if jitter == 0.0 {
        1.0
    } else {
        scale(jitter, hash_combine(&[seed, u64::from(index), JITTER_TAG]))
    }
}

/// `(parked at the barrier, done)` among `warps`.
fn phase_counts(warps: &[Warp]) -> (u32, u32) {
    warps.iter().fold((0, 0), |(p, d), w| match w.phase {
        WarpPhase::AtBarrier => (p + 1, d),
        WarpPhase::Done => (p, d + 1),
        _ => (p, d),
    })
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
        let scaled_segs = scaled_segments(desc, seed, id.index);
        let per_warp: u64 = scaled_segs.iter().map(|&n| u64::from(n)).sum();
        BlockRun {
            id,
            total_insts: per_warp.saturating_mul(u64::from(desc.warps_per_block())),
            scaled_segs,
            saved_warps: Vec::new(),
            dispatched_at: now,
            prior_insts: 0,
            prior_cycles: 0,
            insts_this_residency: 0,
            past_idem_point: false,
            warm_up_until: now,
            parked: 0,
            done: 0,
            addr_key: 0,
        }
    }

    /// Restore a block from a context-switch snapshot.
    ///
    /// `ready_at` is the cycle at which the context load completes; warps may
    /// not issue before it.
    pub fn from_snapshot(snap: TbSnapshot, now: u64, ready_at: u64) -> Self {
        let (parked, done) = phase_counts(&snap.warps);
        BlockRun {
            id: snap.id,
            scaled_segs: snap.scaled_segs,
            total_insts: snap.total_insts,
            saved_warps: snap.warps,
            dispatched_at: now,
            prior_insts: snap.insts,
            prior_cycles: snap.cycles,
            insts_this_residency: 0,
            past_idem_point: snap.past_idem_point,
            warm_up_until: ready_at,
            parked,
            done,
            addr_key: 0,
        }
    }

    /// Snapshot the block, whose warps are `warps` (its slot range of the
    /// SM's warp table), for a context switch at cycle `now`.
    pub(crate) fn snapshot(&self, now: u64, warps: &[Warp]) -> TbSnapshot {
        TbSnapshot {
            id: self.id,
            scaled_segs: self.scaled_segs.clone(),
            warps: warps.to_vec(),
            total_insts: self.total_insts,
            insts: self.issued_insts(),
            cycles: self.elapsed_cycles(now),
            past_idem_point: self.past_idem_point,
        }
    }

    /// The jitter-scaled segment lengths.
    pub fn scaled_segs(&self) -> &[u32] {
        &self.scaled_segs
    }

    /// Take the warps of a restored context (empty for a fresh block).
    pub(crate) fn take_saved_warps(&mut self) -> Vec<Warp> {
        std::mem::take(&mut self.saved_warps)
    }

    /// Count a warp of this block entering `phase` after a committed
    /// single-chunk issue: a barrier arrival or a finished warp.
    #[inline]
    pub(crate) fn note_phase(&mut self, phase: WarpPhase) {
        match phase {
            WarpPhase::AtBarrier => self.parked += 1,
            WarpPhase::Done => self.done += 1,
            _ => {}
        }
    }

    /// Warps parked at the barrier.
    #[inline]
    pub(crate) fn parked(&self) -> u32 {
        self.parked
    }

    /// Whether every warp but one of the block's `wpb` has finished, so that
    /// one finishing completes the block.
    #[inline]
    pub(crate) fn one_warp_left(&self, wpb: usize) -> bool {
        self.done as usize + 1 == wpb
    }

    /// Whether every unfinished warp of the block's `wpb` is parked at the
    /// barrier (release time), read from the block's phase counts.
    #[inline]
    pub(crate) fn barrier_ready(&self, wpb: usize) -> bool {
        self.parked > 0 && (self.parked + self.done) as usize == wpb
    }

    /// Count the release of every parked warp (the SM moves the warps
    /// past the barrier).
    pub(crate) fn release_parked(&mut self) {
        self.parked = 0;
    }

    /// Whether the phase counts equal a recount of `warps`, the block's
    /// slot range, and the instructions issued equal the progress of those
    /// warps through the program (the SM's table oracle).
    pub(crate) fn agrees_with(&self, warps: &[Warp]) -> bool {
        let progress: u64 = warps
            .iter()
            .map(|w| {
                let before: u64 = self.scaled_segs[..w.seg_idx]
                    .iter()
                    .map(|&n| u64::from(n))
                    .sum();
                before + u64::from(w.done_in_seg)
            })
            .sum();
        phase_counts(warps) == (self.parked, self.done) && progress == self.issued_insts()
    }

    /// Total warp instructions issued so far (including prior residencies).
    pub fn issued_insts(&self) -> u64 {
        self.prior_insts + self.insts_this_residency
    }

    /// Whether the block issued instructions in an earlier residency (a
    /// restored context that had made progress).
    pub(crate) fn has_prior_progress(&self) -> bool {
        self.prior_insts > 0
    }

    /// Total cycles the block has been resident as of `now`.
    pub fn elapsed_cycles(&self, now: u64) -> u64 {
        self.prior_cycles + now.saturating_sub(self.dispatched_at)
    }

    /// Record `n` issued instructions.
    #[inline]
    pub(crate) fn add_insts(&mut self, n: u64) {
        self.insts_this_residency += n;
    }

    /// Total instructions this block will execute (jitter-scaled).
    pub fn total_insts(&self) -> u64 {
        self.total_insts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{KernelDesc, Program, Segment};
    use crate::KernelId;
    use proptest::prelude::*;

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

    fn arb_segment() -> impl Strategy<Value = Segment> {
        prop_oneof![
            (1u32..2000).prop_map(Segment::compute),
            (1u32..40).prop_map(Segment::load),
            (1u32..40).prop_map(Segment::store),
            Just(Segment::Barrier),
            Just(Segment::ProtectStore),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// The smallest-draw bound equals the brute-force minimum of every
        /// block's total over the grid, jitter 0 included.
        #[test]
        fn min_block_total_is_the_brute_force_grid_minimum(
            segs in proptest::collection::vec(arb_segment(), 1..8),
            jitter in prop_oneof![Just(0.0), 0.0f64..1.0],
            grid in 1u32..4097,
            warps in 1u32..9,
            seed in any::<u64>(),
        ) {
            let k = KernelDesc::builder("t")
                .grid_blocks(grid)
                .threads_per_block(32 * warps)
                .program(Program::new([segs, vec![Segment::compute(1)]].concat()))
                .jitter_pct(jitter)
                .build()
                .expect("generated kernels are valid");
            let brute = (0..grid)
                .map(|i| scaled_block_total(&k, seed, i) * u64::from(warps))
                .min()
                .expect("non-empty grid");
            prop_assert_eq!(min_block_total(&k, seed), brute);
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
        let warps = [Warp::new(0), Warp::new(1)];
        let snap = b.snapshot(500, &warps);
        assert_eq!(snap.warps, warps);
        let restored = BlockRun::from_snapshot(snap, 1000, 1200);
        assert_eq!(restored.issued_insts(), 77);
        assert_eq!(restored.elapsed_cycles(1000), 500);
        assert_eq!(restored.total_insts(), b.total_insts());
        assert!(restored.past_idem_point);
        assert_eq!(restored.warm_up_until, 1200);
        assert_eq!(restored.id, bid(5));
    }

    #[test]
    fn barrier_release_requires_all_warps() {
        let d = desc(0.0);
        let wpb = d.warps_per_block() as usize;
        let mut b = BlockRun::new(bid(0), &d, 1, 0);
        b.note_phase(WarpPhase::AtBarrier);
        assert!(!b.barrier_ready(wpb), "warp 1 still running");
        b.note_phase(WarpPhase::AtBarrier);
        assert!(b.barrier_ready(wpb));
        b.release_parked();
        assert!(!b.barrier_ready(wpb));
        // A finished warp does not hold the barrier.
        b.note_phase(WarpPhase::Done);
        assert!(b.one_warp_left(wpb));
        b.note_phase(WarpPhase::AtBarrier);
        assert!(b.barrier_ready(wpb));
    }
}
