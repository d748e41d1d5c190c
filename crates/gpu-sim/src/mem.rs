//! Partitioned, bandwidth-limited memory subsystem.
//!
//! Each of the `num_mem_partitions` partitions models an L2 bank plus memory
//! controller as a single busy-until server: a request occupies the partition
//! for `bytes / bytes_per_cycle_per_partition` cycles and completes a fixed
//! base latency after service. Contention therefore emerges naturally when
//! many SMs stream through the same partition, which is the only memory
//! behaviour the Chimera evaluation is sensitive to (bandwidth shares set
//! context-switch times; latency sets the CPI of memory-heavy kernels).
//!
//! Each partition is also a participant of the engine's event calendar
//! ([`crate::component::ComponentId::MemPartition`]): a request enqueues
//! its completion cycle on the partition, the engine wakes the partition at
//! its earliest pending completion, and `MemSubsystem::tick_partition`
//! retires everything due into partition-local statistics
//! ([`MemPartitionStats`]). Retirement is pure bookkeeping — request timing
//! is still decided at issue by the busy-until server — so the partition
//! scheduling is unobservable in events, kernel statistics and traces, and
//! all execution modes stay byte-identical.
//!
//! SMs reach the subsystem only through a committing tick
//! ([`crate::Sm::tick_bounded`] with `Some(mem)`); the parallel engine's
//! pure phase runs the same tick with `None`, so it has no way to touch a
//! partition.

use crate::GpuConfig;
use std::collections::VecDeque;

/// State of one memory partition.
#[derive(Debug, Clone, Default)]
struct Partition {
    free_at: u64,
    bytes_served: u64,
    /// Completion cycles of in-flight requests. The server is FIFO
    /// busy-until, so completions are non-decreasing and the front is
    /// always the earliest.
    pending: VecDeque<u64>,
    /// Requests whose completion cycle has been reached and retired by
    /// [`MemSubsystem::tick_partition`].
    retired: u64,
    /// Authoritative next-tick time mirrored by the engine's calendar
    /// (`u64::MAX` = idle).
    next_tick: u64,
}

/// Observable per-partition counters (served bytes, retired and in-flight
/// requests) — the imbalance inputs for the multi-device reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemPartitionStats {
    /// Bytes this partition has served (charged at issue).
    pub bytes_served: u64,
    /// Requests whose completion cycle has passed and been retired.
    pub requests_retired: u64,
    /// Requests issued but not yet retired by the partition tick.
    pub inflight: usize,
}

/// The memory subsystem shared by all SMs.
///
/// ```
/// use gpu_sim::{GpuConfig, MemSubsystem};
///
/// let cfg = GpuConfig::fermi();
/// let mut mem = MemSubsystem::new(&cfg);
/// let first = mem.access(0, 0x0, 128);
/// let second = mem.access(0, 0x0, 128); // same partition: queues behind
/// assert!(second > first);
/// assert_eq!(mem.total_bytes_served(), 256);
/// ```
#[derive(Debug, Clone)]
pub struct MemSubsystem {
    partitions: Vec<Partition>,
    bytes_per_cycle: f64,
    latency: u64,
    rr_next: usize,
    /// Partitions that went idle→pending since the engine last synced its
    /// calendar (insertion order; accesses are serial, so deterministic).
    newly_pending: Vec<usize>,
    /// Shard-race sanitizer recording state, shared with the engine; `None`
    /// (the default) records nothing (see [`crate::race`]).
    race: Option<std::sync::Arc<crate::race::RaceState>>,
}

impl MemSubsystem {
    /// Create the subsystem from a GPU configuration.
    pub fn new(cfg: &GpuConfig) -> Self {
        MemSubsystem {
            partitions: (0..cfg.num_mem_partitions.max(1))
                .map(|_| Partition {
                    next_tick: u64::MAX,
                    ..Partition::default()
                })
                .collect(),
            bytes_per_cycle: cfg.bytes_per_cycle_per_partition(),
            latency: cfg.mem_latency_cycles,
            rr_next: 0,
            newly_pending: Vec::new(),
            race: None,
        }
    }

    /// Wire (or clear) the shard-race sanitizer's recording state: every
    /// partition access and partition tick reports itself while set.
    pub(crate) fn set_race_state(&mut self, race: Option<std::sync::Arc<crate::race::RaceState>>) {
        self.race = race;
    }

    /// Issue a request for `bytes` at address `addr` at cycle `now`.
    ///
    /// Returns the cycle at which the data is available to the requester.
    pub fn access(&mut self, now: u64, addr: u64, bytes: u32) -> u64 {
        let idx = ((addr >> 7) as usize) % self.partitions.len();
        self.access_partition(now, idx, u64::from(bytes))
    }

    /// Issue a request that is spread round-robin over partitions (used for
    /// bulk context save/restore traffic in the bandwidth-charging ablation).
    ///
    /// Every byte of `bytes` is charged to exactly one partition: the request
    /// splits into `bytes / n` per partition with the `bytes % n` remainder
    /// spread one byte each over the first partitions in round-robin order.
    /// Partitions whose share is zero are not touched.
    pub fn bulk_access(&mut self, now: u64, bytes: u64) -> u64 {
        let n = self.partitions.len() as u64;
        let chunk = bytes / n;
        let rem = bytes % n;
        let served_before = self.total_bytes_served();
        let mut done = now;
        for i in 0..n {
            let idx = self.rr_next;
            self.rr_next = (self.rr_next + 1) % self.partitions.len();
            let share = chunk + u64::from(i < rem);
            if share == 0 {
                continue;
            }
            let t = self.access_partition(now, idx, share);
            done = done.max(t);
        }
        debug_assert_eq!(
            self.total_bytes_served() - served_before,
            bytes,
            "bulk_access must conserve bytes"
        );
        done
    }

    fn access_partition(&mut self, now: u64, idx: usize, bytes: u64) -> u64 {
        if let Some(race) = &self.race {
            race.note_shared_access(crate::race::SharedResource::MemPartition(idx), None, now);
        }
        let p = &mut self.partitions[idx];
        let start = p.free_at.max(now);
        let service = (bytes as f64 / self.bytes_per_cycle).ceil() as u64;
        p.free_at = start + service.max(1);
        p.bytes_served += bytes;
        let done = p.free_at + self.latency;
        if p.pending.is_empty() {
            // Idle→pending transition: the engine must (re)wake this
            // partition's component at the new earliest completion.
            self.newly_pending.push(idx);
        }
        debug_assert!(
            p.pending.back().is_none_or(|&b| b <= done),
            "FIFO server completions must be non-decreasing"
        );
        p.pending.push_back(done);
        done
    }

    /// Drain the partitions whose component wake time changed since the
    /// last call, as `(partition, earliest pending completion)` pairs.
    /// Engine calendar-sync path only.
    pub(crate) fn take_newly_pending(&mut self) -> Vec<(usize, u64)> {
        if self.newly_pending.is_empty() {
            return Vec::new();
        }
        self.newly_pending
            .drain(..)
            .map(|idx| {
                let t = self.partitions[idx]
                    .pending
                    .front()
                    .copied()
                    .unwrap_or(u64::MAX);
                (idx, t)
            })
            .collect()
    }

    /// The authoritative next-tick of partition `idx` (`u64::MAX` = idle).
    pub(crate) fn partition_next_tick(&self, idx: usize) -> u64 {
        self.partitions[idx].next_tick
    }

    /// Write partition `idx`'s component next-tick (engine wake path only).
    pub(crate) fn set_partition_next_tick(&mut self, idx: usize, t: u64) {
        self.partitions[idx].next_tick = t;
    }

    /// Tick partition `idx` at `now`: retire every pending completion due,
    /// returning the new next-tick time.
    pub(crate) fn tick_partition(&mut self, idx: usize, now: u64) -> u64 {
        if let Some(race) = &self.race {
            race.note_shared_access(crate::race::SharedResource::MemPartition(idx), None, now);
        }
        let p = &mut self.partitions[idx];
        while p.pending.front().is_some_and(|&done| done <= now) {
            p.pending.pop_front();
            p.retired += 1;
        }
        p.pending.front().copied().unwrap_or(u64::MAX)
    }

    /// Number of memory partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Per-partition counters, in partition order.
    pub fn partition_stats(&self) -> Vec<MemPartitionStats> {
        self.partitions
            .iter()
            .map(|p| MemPartitionStats {
                bytes_served: p.bytes_served,
                requests_retired: p.retired,
                inflight: p.pending.len(),
            })
            .collect()
    }

    /// Total bytes served by all partitions so far.
    pub fn total_bytes_served(&self) -> u64 {
        self.partitions.iter().map(|p| p.bytes_served).sum()
    }

    /// Base (uncontended) latency in cycles.
    pub fn base_latency(&self) -> u64 {
        self.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> MemSubsystem {
        MemSubsystem::new(&GpuConfig::fermi())
    }

    #[test]
    fn uncontended_access_completes_after_base_latency() {
        let mut m = mem();
        let ready = m.access(1000, 0, 128);
        // 128 B / ~21.1 B/cycle = 7 cycles service + 230 latency.
        assert!(ready >= 1000 + 230, "ready={ready}");
        assert!(ready <= 1000 + 230 + 10, "ready={ready}");
    }

    #[test]
    fn same_partition_requests_queue() {
        let mut m = mem();
        let r1 = m.access(0, 0, 128);
        let r2 = m.access(0, 0, 128);
        assert!(r2 > r1, "queueing should delay the second request");
    }

    #[test]
    fn different_partitions_do_not_queue() {
        let mut m = mem();
        let r1 = m.access(0, 0, 128);
        let r2 = m.access(0, 128, 128); // next partition (addr >> 7 differs)
        assert_eq!(r1, r2);
    }

    #[test]
    fn bandwidth_limits_throughput() {
        let mut m = mem();
        // Saturate one partition with 1000 x 128 B requests.
        let mut last = 0;
        for _ in 0..1000 {
            last = m.access(0, 0, 128);
        }
        // Each 128 B request occupies the partition ceil(128/21.1) = 7 cycles.
        let service = last - 230;
        assert_eq!(service, 7 * 1000);
    }

    #[test]
    fn bulk_access_spreads_over_partitions() {
        let mut m = mem();
        let t = m.bulk_access(0, 6 * 128);
        let single = {
            let mut m2 = mem();
            m2.access(0, 0, 6 * 128)
        };
        assert!(
            t <= single,
            "bulk ({t}) should beat single-partition ({single})"
        );
        assert_eq!(m.total_bytes_served(), 6 * 128);
    }

    #[test]
    fn bulk_access_conserves_remainder_bytes() {
        // 1000 % 6 = 4: the old code silently dropped those 4 bytes.
        let mut m = mem();
        m.bulk_access(0, 1000);
        assert_eq!(m.total_bytes_served(), 1000);
    }

    #[test]
    fn bulk_access_smaller_than_partition_count() {
        let mut m = mem();
        m.bulk_access(0, 4);
        assert_eq!(m.total_bytes_served(), 4);
    }

    #[test]
    fn bulk_access_handles_chunks_beyond_u32() {
        // Per-partition shares above u32::MAX used to be silently clamped.
        let mut m = mem();
        let big = 40 * u64::from(u32::MAX);
        let done = m.bulk_access(0, big);
        assert_eq!(m.total_bytes_served(), big);
        assert!(done > 0);
    }

    #[test]
    fn byte_accounting() {
        let mut m = mem();
        m.access(0, 0, 128);
        m.access(0, 4096, 64);
        assert_eq!(m.total_bytes_served(), 192);
    }

    #[test]
    fn accesses_mark_partitions_newly_pending_once() {
        let mut m = mem();
        let done1 = m.access(0, 0, 128);
        m.access(0, 0, 128); // same partition, still pending: no new wake
        let wakes = m.take_newly_pending();
        assert_eq!(wakes, vec![(0, done1)], "one wake at earliest completion");
        assert!(m.take_newly_pending().is_empty(), "drained");
    }

    #[test]
    fn partition_tick_retires_due_completions() {
        let mut m = mem();
        let d1 = m.access(0, 0, 128);
        let d2 = m.access(0, 0, 128);
        assert!(d2 > d1);
        // Nothing due before d1.
        let next = m.tick_partition(0, d1 - 1);
        assert_eq!(next, d1);
        assert_eq!(m.partition_stats()[0].requests_retired, 0);
        // First completes at d1; second still pending.
        let next = m.tick_partition(0, d1);
        assert_eq!(next, d2);
        let st = m.partition_stats();
        assert_eq!(st[0].requests_retired, 1);
        assert_eq!(st[0].inflight, 1);
        // Both retired once d2 passes; partition goes idle.
        let next = m.tick_partition(0, d2 + 5);
        assert_eq!(next, u64::MAX);
        assert_eq!(m.partition_stats()[0].requests_retired, 2);
        assert_eq!(m.partition_stats()[0].inflight, 0);
    }

    #[test]
    fn partition_next_tick_round_trips() {
        let mut m = mem();
        assert_eq!(
            m.partition_next_tick(3),
            u64::MAX,
            "idle partitions need no entry"
        );
        m.set_partition_next_tick(3, 42);
        assert_eq!(m.partition_next_tick(3), 42);
        assert_eq!(
            m.partition_next_tick(2),
            u64::MAX,
            "other partitions untouched"
        );
    }
}
