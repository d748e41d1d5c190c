//! Warp execution state machine.
//!
//! A warp walks the segment list of its kernel's [`Program`](crate::Program),
//! issuing instructions in chunks. Memory segments stall the warp until the
//! modelled memory subsystem returns data; barriers park the warp until every
//! warp of the block arrives.

use crate::kernel::Segment;

/// What a warp is currently doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpPhase {
    /// Can issue instructions.
    Ready,
    /// Stalled on a memory access until the given cycle.
    WaitMem(u64),
    /// Parked at a block-wide barrier.
    AtBarrier,
    /// Finished the program.
    Done,
}

/// The outcome of issuing one chunk from a warp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueOutcome {
    /// Warp instructions issued (0 if the warp hit a barrier).
    pub insts: u32,
    /// Bytes of DRAM traffic generated (0 for compute/shared segments).
    pub mem_bytes: u32,
    /// `true` if the issued instructions must stall the warp until the memory
    /// system responds (loads and atomics; stores are fire-and-forget).
    pub mem_blocking: bool,
    /// Segment index completed by this chunk, if any.
    pub completed_segment: Option<usize>,
    /// `true` if this chunk executed a protect-store (the block is about to
    /// leave its idempotent region).
    pub protect_store: bool,
    /// `true` if the warp arrived at a barrier (no instructions issued).
    pub hit_barrier: bool,
    /// `true` if the warp finished its program with this chunk.
    pub done: bool,
}

/// Per-warp execution state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Warp {
    /// Warp index within its block.
    pub index: u32,
    /// Current segment index into the program.
    pub seg_idx: usize,
    /// Instructions already executed within the current segment (against the
    /// block's jitter-scaled segment lengths).
    pub done_in_seg: u32,
    /// Current phase.
    pub phase: WarpPhase,
}

/// Bytes of DRAM traffic per coalesced warp memory instruction
/// (32 threads × 4 bytes).
pub const BYTES_PER_MEM_INST: u32 = 128;

impl Warp {
    /// A fresh warp at the start of the program.
    pub fn new(index: u32) -> Self {
        Warp {
            index,
            seg_idx: 0,
            done_in_seg: 0,
            phase: WarpPhase::Ready,
        }
    }

    /// Whether the warp can issue at `now`.
    pub fn is_ready(&self, now: u64) -> bool {
        match self.phase {
            WarpPhase::Ready => true,
            WarpPhase::WaitMem(until) => now >= until,
            WarpPhase::AtBarrier | WarpPhase::Done => false,
        }
    }

    /// The earliest cycle at which this warp could issue again, if any.
    pub fn next_ready_at(&self) -> Option<u64> {
        match self.phase {
            WarpPhase::Ready => Some(0),
            WarpPhase::WaitMem(until) => Some(until),
            WarpPhase::AtBarrier | WarpPhase::Done => None,
        }
    }

    /// Issue up to `max_insts` instructions from the current segment.
    ///
    /// `segments` is the program; `scaled` holds the jitter-scaled per-segment
    /// instruction counts for this warp's block. Chunks never cross segment
    /// boundaries so functional effects apply exactly at segment completion.
    ///
    /// # Panics
    ///
    /// Panics if called while the warp is not ready (guard with
    /// [`Warp::is_ready`]).
    pub fn issue(&mut self, segments: &[Segment], scaled: &[u32], max_insts: u32) -> IssueOutcome {
        assert!(
            matches!(self.phase, WarpPhase::Ready | WarpPhase::WaitMem(_)),
            "issue() on non-runnable warp"
        );
        self.phase = WarpPhase::Ready;
        // Skip zero-length segments (possible after jitter scaling).
        while self.seg_idx < segments.len()
            && !matches!(segments[self.seg_idx], Segment::Barrier)
            && self.done_in_seg >= scaled[self.seg_idx]
        {
            self.seg_idx += 1;
            self.done_in_seg = 0;
        }
        if self.seg_idx >= segments.len() {
            self.phase = WarpPhase::Done;
            return IssueOutcome {
                insts: 0,
                mem_bytes: 0,
                mem_blocking: false,
                completed_segment: None,
                protect_store: false,
                hit_barrier: false,
                done: true,
            };
        }
        let seg = segments[self.seg_idx];
        if matches!(seg, Segment::Barrier) {
            self.phase = WarpPhase::AtBarrier;
            return IssueOutcome {
                insts: 0,
                mem_bytes: 0,
                mem_blocking: false,
                completed_segment: None,
                protect_store: false,
                hit_barrier: true,
                done: false,
            };
        }
        let remaining = scaled[self.seg_idx] - self.done_in_seg;
        let n = remaining.min(max_insts).max(1);
        self.done_in_seg += n;
        let seg_completed = self.done_in_seg >= scaled[self.seg_idx];
        let completed_segment = seg_completed.then_some(self.seg_idx);
        if seg_completed {
            self.seg_idx += 1;
            self.done_in_seg = 0;
        }
        let (mem_bytes, mem_blocking) = match seg {
            Segment::GlobalLoad { .. } => (n * BYTES_PER_MEM_INST, true),
            Segment::GlobalStore { .. } => (n * BYTES_PER_MEM_INST, false),
            Segment::Atomic { .. } => (n * BYTES_PER_MEM_INST, true),
            Segment::ProtectStore => (BYTES_PER_MEM_INST, false),
            _ => (0, false),
        };
        let done = self.seg_idx >= segments.len();
        if done {
            self.phase = WarpPhase::Done;
        }
        IssueOutcome {
            insts: n,
            mem_bytes,
            mem_blocking,
            completed_segment,
            protect_store: matches!(seg, Segment::ProtectStore),
            hit_barrier: false,
            done,
        }
    }

    /// Instructions left in the warp's current segment when — and only when —
    /// the next issues from it are *steady*: the segment is side-effect free
    /// (compute or shared, so no DRAM traffic, no functional effects, no
    /// idempotence change) and needs no zero-length-segment skip. While at
    /// least one instruction remains afterwards, such a warp issues plain
    /// fixed-size chunks with no phase change and no segment completion,
    /// which is what lets [`Sm`](crate::Sm) replay many of its ticks in one
    /// batched step. Returns `None` whenever the next `issue` could do
    /// anything more interesting.
    pub(crate) fn steady_compute_rem(&self, segments: &[Segment], scaled: &[u32]) -> Option<u32> {
        if !matches!(self.phase, WarpPhase::Ready | WarpPhase::WaitMem(_)) {
            return None;
        }
        let seg = *segments.get(self.seg_idx)?;
        if !matches!(seg, Segment::Compute { .. } | Segment::Shared { .. }) {
            return None;
        }
        let len = scaled[self.seg_idx];
        // `done_in_seg >= len` means issue() would first run its skip loop.
        (self.done_in_seg < len).then(|| len - self.done_in_seg)
    }

    /// Stall the warp until `until` (memory response time).
    pub fn stall_until(&mut self, until: u64) {
        debug_assert!(matches!(self.phase, WarpPhase::Ready));
        self.phase = WarpPhase::WaitMem(until);
    }

    /// Release the warp from a barrier, moving it past the barrier segment.
    pub fn release_barrier(&mut self) {
        assert_eq!(
            self.phase,
            WarpPhase::AtBarrier,
            "release_barrier on non-parked warp"
        );
        self.seg_idx += 1;
        self.done_in_seg = 0;
        self.phase = WarpPhase::Ready;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Segment;

    fn segs() -> Vec<Segment> {
        vec![
            Segment::compute(10),
            Segment::load(4),
            Segment::Barrier,
            Segment::store(2),
        ]
    }

    fn scaled(segs: &[Segment]) -> Vec<u32> {
        segs.iter().map(Segment::insts).collect()
    }

    #[test]
    fn issues_in_chunks_until_segment_end() {
        let s = segs();
        let sc = scaled(&s);
        let mut w = Warp::new(0);
        let o = w.issue(&s, &sc, 8);
        assert_eq!(o.insts, 8);
        assert_eq!(o.completed_segment, None);
        let o = w.issue(&s, &sc, 8);
        assert_eq!(o.insts, 2, "chunk must not cross segment boundary");
        assert_eq!(o.completed_segment, Some(0));
    }

    #[test]
    fn loads_generate_blocking_traffic() {
        let s = segs();
        let sc = scaled(&s);
        let mut w = Warp::new(0);
        w.issue(&s, &sc, 10); // finish compute
        let o = w.issue(&s, &sc, 8);
        assert_eq!(o.insts, 4);
        assert_eq!(o.mem_bytes, 4 * BYTES_PER_MEM_INST);
        assert!(o.mem_blocking);
    }

    #[test]
    fn stores_do_not_block() {
        let s = vec![Segment::store(2)];
        let sc = scaled(&s);
        let mut w = Warp::new(0);
        let o = w.issue(&s, &sc, 8);
        assert!(!o.mem_blocking);
        assert_eq!(o.mem_bytes, 2 * BYTES_PER_MEM_INST);
        assert!(o.done);
    }

    #[test]
    fn barrier_parks_warp() {
        let s = segs();
        let sc = scaled(&s);
        let mut w = Warp::new(0);
        w.issue(&s, &sc, 10);
        w.issue(&s, &sc, 4);
        let o = w.issue(&s, &sc, 8);
        assert!(o.hit_barrier);
        assert_eq!(o.insts, 0);
        assert_eq!(w.phase, WarpPhase::AtBarrier);
        assert!(!w.is_ready(12345));
        w.release_barrier();
        assert!(w.is_ready(0));
        let o = w.issue(&s, &sc, 8);
        assert_eq!(o.insts, 2);
        assert!(o.done);
        assert_eq!(w.phase, WarpPhase::Done);
    }

    #[test]
    fn protect_store_flagged() {
        let s = vec![
            Segment::compute(1),
            Segment::ProtectStore,
            Segment::atomic(1),
        ];
        let sc = scaled(&s);
        let mut w = Warp::new(0);
        w.issue(&s, &sc, 1);
        let o = w.issue(&s, &sc, 8);
        assert!(o.protect_store);
        assert_eq!(o.insts, 1);
    }

    #[test]
    fn memory_wait_respects_time() {
        let mut w = Warp::new(0);
        w.stall_until(100);
        assert!(!w.is_ready(99));
        assert!(w.is_ready(100));
        assert_eq!(w.next_ready_at(), Some(100));
    }

    #[test]
    fn zero_length_scaled_segments_are_skipped() {
        let s = vec![Segment::compute(5), Segment::load(3), Segment::store(1)];
        let sc = vec![5, 0, 1]; // jitter collapsed the load segment
        let mut w = Warp::new(0);
        w.issue(&s, &sc, 5);
        let o = w.issue(&s, &sc, 8);
        assert_eq!(o.completed_segment, Some(2), "load segment skipped");
        assert!(o.done);
    }
}
