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
//! # Retirement is computed, not ticked
//!
//! Request timing is decided entirely at issue by the busy-until server, so
//! a partition needs no clock of its own and is not a participant of the
//! engine's event calendar. It keeps the completion cycles of its requests
//! in a FIFO — non-decreasing, because the server is FIFO busy-until — and
//! the statistics are derived when read:
//! [`crate::Engine::mem_partition_stats`] counts a request as *retired*
//! once its completion cycle is at or before the engine's current cycle,
//! and as *in flight* otherwise. A new request first prunes the
//! entries already due at its issue cycle into a retired count, which keeps
//! the FIFO as short as the requests actually outstanding. Nothing an SM
//! observes depends on retirement, so events, kernel statistics and traces
//! are unaffected, and every execution mode reads the same statistics at
//! the same cycle.
//!
//! SMs reach the subsystem only through a committing tick
//! ([`crate::Sm::tick_bounded`] with `Some(mem)`); the parallel engine's
//! pure phase runs the same tick with `None`, so it has no way to touch a
//! partition.

use crate::warp::BYTES_PER_MEM_INST;
use crate::GpuConfig;
use std::collections::VecDeque;

/// State of one memory partition.
#[derive(Debug, Clone, Default)]
struct Partition {
    free_at: u64,
    bytes_served: u64,
    /// Completion cycles of the requests not yet pruned. The server is
    /// FIFO busy-until, so completions are non-decreasing and the front is
    /// always the earliest.
    pending: VecDeque<u64>,
    /// Requests pruned from `pending`: due at the issue cycle of a later
    /// request on this partition.
    pruned: u64,
}

/// Observable per-partition counters (served bytes, retired and in-flight
/// requests) at a read cycle — the imbalance inputs for the multi-device
/// reports. See the [module docs](self) for the retirement rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemPartitionStats {
    /// Bytes this partition has served (charged at issue).
    pub bytes_served: u64,
    /// Requests whose completion cycle is at or before the read cycle.
    pub requests_retired: u64,
    /// Requests issued but completing after the read cycle.
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
    /// `service[n]`: the service cycles of an `n × 128`-byte request, for
    /// every size an SM issues (`n <= issue_chunk`); other sizes use the
    /// formula (see [`MemSubsystem::service_cycles`]).
    service: Vec<u64>,
    latency: u64,
    rr_next: usize,
    /// Shard-race sanitizer recording state, shared with the engine; `None`
    /// (the default) records nothing (see [`crate::race`]).
    race: Option<std::sync::Arc<crate::race::RaceState>>,
}

impl MemSubsystem {
    /// Create the subsystem from a GPU configuration.
    pub fn new(cfg: &GpuConfig) -> Self {
        let bytes_per_cycle = cfg.bytes_per_cycle_per_partition();
        MemSubsystem {
            partitions: (0..cfg.num_mem_partitions.max(1))
                .map(|_| Partition::default())
                .collect(),
            bytes_per_cycle,
            service: (0..=u64::from(cfg.issue_chunk.max(1)))
                .map(|n| service_formula(n * u64::from(BYTES_PER_MEM_INST), bytes_per_cycle))
                .collect(),
            latency: cfg.mem_latency_cycles,
            rr_next: 0,
            race: None,
        }
    }

    /// Wire (or clear) the shard-race sanitizer's recording state: every
    /// partition access reports itself while set.
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
        let service = self.service_cycles(bytes);
        let p = &mut self.partitions[idx];
        let start = p.free_at.max(now);
        p.free_at = start + service.max(1);
        p.bytes_served += bytes;
        let done = p.free_at + self.latency;
        while p.pending.front().is_some_and(|&d| d <= now) {
            p.pending.pop_front();
            p.pruned += 1;
        }
        debug_assert!(
            p.pending.back().is_none_or(|&b| b <= done),
            "FIFO server completions must be non-decreasing"
        );
        p.pending.push_back(done);
        done
    }

    /// Cycles a request of `bytes` occupies its partition (before the
    /// one-cycle minimum): the precomputed table for the sizes SMs issue,
    /// the formula otherwise.
    fn service_cycles(&self, bytes: u64) -> u64 {
        let per = u64::from(BYTES_PER_MEM_INST);
        let n = usize::try_from(bytes / per).ok();
        match n.and_then(|n| self.service.get(n)) {
            Some(&s) if bytes.is_multiple_of(per) => s,
            _ => service_formula(bytes, self.bytes_per_cycle),
        }
    }

    /// Number of memory partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Per-partition counters as of cycle `now`, in partition order: a
    /// request is retired once its completion cycle is `<= now`. `now`
    /// must not precede the issue cycle of the latest request, which the
    /// engine's monotonic clock guarantees.
    pub(crate) fn partition_stats(&self, now: u64) -> Vec<MemPartitionStats> {
        self.partitions
            .iter()
            .map(|p| {
                let due = p.pending.partition_point(|&d| d <= now);
                MemPartitionStats {
                    bytes_served: p.bytes_served,
                    requests_retired: p.pruned + due as u64,
                    inflight: p.pending.len() - due,
                }
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

/// `ceil(bytes / bytes_per_cycle)`: a request's service cycles.
fn service_formula(bytes: u64, bytes_per_cycle: f64) -> u64 {
    (bytes as f64 / bytes_per_cycle).ceil() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
    fn service_table_equals_the_formula() {
        let odd = GpuConfig {
            num_mem_partitions: 7,
            issue_chunk: 13,
            ..GpuConfig::fermi()
        };
        for cfg in [GpuConfig::fermi(), odd] {
            let m = MemSubsystem::new(&cfg);
            let bpc = cfg.bytes_per_cycle_per_partition();
            assert_ne!(bpc.fract(), 0.0, "a fractional rate exercises the ceil");
            let formula = |bytes: u64| (bytes as f64 / bpc).ceil() as u64;
            assert_eq!(m.service.len(), cfg.issue_chunk as usize + 1);
            for n in 0..=u64::from(cfg.issue_chunk) {
                assert_eq!(m.service_cycles(n * 128), formula(n * 128), "n={n}");
            }
            let past_table = 128 * u64::from(cfg.issue_chunk + 1);
            for bytes in [1, 4, 127, 129, 1000, past_table, 40 * u64::from(u32::MAX)] {
                assert_eq!(m.service_cycles(bytes), formula(bytes), "bytes={bytes}");
            }
        }
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
    fn requests_due_at_the_read_cycle_count_as_retired() {
        let mut m = mem();
        let d1 = m.access(0, 0, 128);
        let d2 = m.access(0, 0, 128);
        assert!(d2 > d1);
        let at = |t| {
            let s = m.partition_stats(t)[0];
            (s.requests_retired, s.inflight)
        };
        assert_eq!(
            at(d1 - 1),
            (0, 2),
            "nothing due before the first completion"
        );
        assert_eq!(at(d1), (1, 1), "a completion at the read cycle is retired");
        assert_eq!(at(d2 + 5), (2, 0));
        let idle = m.partition_stats(d2)[1];
        assert_eq!(
            idle,
            MemPartitionStats {
                bytes_served: 0,
                requests_retired: 0,
                inflight: 0
            },
            "other partitions untouched"
        );
    }

    #[test]
    fn a_new_request_prunes_due_completions_without_moving_the_stats() {
        let mut m = mem();
        let d1 = m.access(0, 0, 128);
        let d2 = m.access(0, 0, 128);
        let before = m.partition_stats(d1)[0];
        // Issued at d1, when the first request is due.
        let d3 = m.access(d1, 0, 128);
        assert_eq!(
            m.partitions[0].pending,
            [d2, d3],
            "only outstanding requests stay queued"
        );
        assert_eq!(m.partitions[0].pruned, 1);
        let after = m.partition_stats(d1)[0];
        assert_eq!(after.requests_retired, before.requests_retired);
        assert_eq!(after.inflight, before.inflight + 1);
    }

    /// One step of the lazy-retirement property: an access to `partition`
    /// issued `dt` cycles after the previous one, or a statistics read
    /// `ahead` cycles past the latest issue.
    #[derive(Debug, Clone)]
    enum Op {
        Access {
            partition: usize,
            bytes: u32,
            dt: u64,
        },
        Read {
            ahead: u64,
        },
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0usize..8, 1u32..4096, 0u64..400).prop_map(|(partition, bytes, dt)| Op::Access {
                partition,
                bytes,
                dt
            }),
            (0u64..3000).prop_map(|ahead| Op::Read { ahead }),
        ]
    }

    proptest! {
        /// At every read cycle, each partition's statistics equal a naive
        /// model over every request ever issued: retired = completions at
        /// or before the read cycle, in flight = the rest, and bytes are
        /// conserved.
        #[test]
        fn partition_stats_match_a_naive_model(ops in proptest::collection::vec(arb_op(), 1..80)) {
            let mut m = mem();
            let n = m.num_partitions();
            let mut now = 0u64;
            // Every request issued so far: (partition, completion, bytes).
            let mut issued: Vec<(usize, u64, u64)> = Vec::new();
            for op in ops {
                let read_at = match op {
                    Op::Access { partition, bytes, dt } => {
                        now += dt;
                        let p = partition % n;
                        let done = m.access(now, (p as u64) << 7, bytes);
                        issued.push((p, done, u64::from(bytes)));
                        now
                    }
                    Op::Read { ahead } => now + ahead,
                };
                for (p, s) in m.partition_stats(read_at).iter().enumerate() {
                    let mine: Vec<_> = issued.iter().filter(|r| r.0 == p).collect();
                    let retired = mine.iter().filter(|r| r.1 <= read_at).count();
                    prop_assert_eq!(s.requests_retired, retired as u64);
                    prop_assert_eq!(s.inflight, mine.len() - retired);
                    prop_assert_eq!(s.bytes_served, mine.iter().map(|r| r.2).sum::<u64>());
                }
            }
        }
    }
}
