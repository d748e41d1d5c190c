//! Statistics counters.

use crate::preempt::Technique;

/// Per-kernel-instance statistics.
#[derive(Debug, Clone, Default)]
pub struct KernelStats {
    /// Kernel name (copied from the descriptor for reporting).
    pub name: String,
    /// Cycle the kernel was launched.
    pub launched_at: u64,
    /// Cycle the last block completed, if finished.
    pub finished_at: Option<u64>,
    /// Warp instructions issued, including work later discarded by flushes.
    pub issued_insts: u64,
    /// Warp instructions of *completed* blocks (useful work).
    pub completed_insts: u64,
    /// Warp instructions discarded by flushes (re-executed from scratch).
    pub wasted_flush_insts: u64,
    /// Blocks completed.
    pub completed_tbs: u32,
    /// Blocks in the grid.
    pub grid_blocks: u32,
    /// Sum of residency cycles over completed blocks (for CPI estimates).
    pub sum_completed_cycles: u64,
    /// Welford running mean of per-block instructions over completed blocks.
    ///
    /// Tracked alongside [`m2_tb_insts`](Self::m2_tb_insts) so the variance
    /// of block lengths — the input to the §4.1 drain-latency headroom —
    /// survives when observations are extracted from engine statistics
    /// rather than an external accumulator.
    pub mean_tb_insts: f64,
    /// Welford running sum of squared deviations of per-block instructions.
    pub m2_tb_insts: f64,
    /// Largest per-block instruction count observed among completed blocks.
    pub max_tb_insts: u64,
    /// Whether the kernel has finished all blocks.
    pub finished: bool,
    /// Number of times any block of this kernel was flushed.
    pub flush_count: u64,
    /// Number of times any block of this kernel was context-switched out.
    pub switch_count: u64,
}

impl KernelStats {
    /// Useful warp instructions: issued minus those discarded by flushes.
    pub fn useful_insts(&self) -> u64 {
        self.issued_insts.saturating_sub(self.wasted_flush_insts)
    }

    /// Average instructions per completed block, if any completed.
    pub fn avg_tb_insts(&self) -> Option<f64> {
        (self.completed_tbs > 0)
            .then(|| self.completed_insts as f64 / f64::from(self.completed_tbs))
    }

    /// Average cycles-per-instruction of a completed block, if measurable.
    ///
    /// This is the per-block CPI at observed occupancy — exactly the statistic
    /// Chimera's drain-latency estimator multiplies by remaining instructions.
    pub fn avg_tb_cpi(&self) -> Option<f64> {
        (self.completed_insts > 0)
            .then(|| self.sum_completed_cycles as f64 / self.completed_insts as f64)
    }

    /// Population standard deviation of per-block instructions, 0 when fewer
    /// than one block completed. This is the σ of the paper's §4.1
    /// `avg + 2σ` drain-latency headroom.
    pub fn std_tb_insts(&self) -> f64 {
        if self.completed_tbs == 0 {
            return 0.0;
        }
        (self.m2_tb_insts / f64::from(self.completed_tbs))
            .max(0.0)
            .sqrt()
    }
}

/// A record of one SM preemption (request → completion).
#[derive(Debug, Clone)]
pub struct PreemptRecord {
    /// SM that was preempted.
    pub sm: usize,
    /// Kernel that was evicted.
    pub kernel: crate::KernelId,
    /// Cycle of the request.
    pub requested_at: u64,
    /// Cycle the SM was fully vacated (`None` while in progress).
    pub completed_at: Option<u64>,
    /// Technique applied to each block.
    pub techniques: Vec<Technique>,
}

impl PreemptRecord {
    /// Latency in cycles if completed.
    pub fn latency_cycles(&self) -> Option<u64> {
        self.completed_at.map(|c| c - self.requested_at)
    }
}

/// GPU-wide statistics snapshot.
#[derive(Debug, Clone, Default)]
pub struct GpuStats {
    /// Current cycle.
    pub cycle: u64,
    /// Warp instructions issued across all kernels.
    pub total_issued_insts: u64,
    /// Total DRAM bytes served.
    pub mem_bytes_served: u64,
}

/// Deterministic counts of the engine's own work (see
/// [`Engine::work_counters`](crate::Engine::work_counters)): the same on
/// every host, so they can be diffed where wall time cannot. They count
/// engine operations, so they depend on the execution mode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounters {
    /// SM ticks run by the serial event loop (every mode's, and Phase B of
    /// the parallel engine). The pure ticks of a parallel epoch's Phase A
    /// are not counted.
    pub serial_ticks: u64,
    /// Committed ticks that found no ready warp, Phase-A pure ticks
    /// included.
    pub idle_ticks: u64,
    /// Dispatch sweeps, all-SM and single-SM.
    pub dispatch_sweeps: u64,
    /// SMs visited by those sweeps: the SM count for an all-SM sweep, one
    /// for a single-SM sweep.
    pub sweep_sm_visits: u64,
    /// Committed batched ticks (each replays several single-chunk ticks),
    /// Phase-A pure ticks included.
    pub batched_ticks: u64,
    /// Warp instructions issued by those batched ticks.
    pub batched_insts: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_need_completions() {
        let s = KernelStats::default();
        assert_eq!(s.avg_tb_insts(), None);
        assert_eq!(s.avg_tb_cpi(), None);
        assert_eq!(s.std_tb_insts(), 0.0);
    }

    #[test]
    fn std_from_welford_state() {
        // Population std of {900, 1000, 1100}: Welford m2 = 20000.
        let s = KernelStats {
            completed_tbs: 3,
            mean_tb_insts: 1000.0,
            m2_tb_insts: 20_000.0,
            max_tb_insts: 1100,
            ..KernelStats::default()
        };
        let expect = (20_000.0f64 / 3.0).sqrt();
        assert!((s.std_tb_insts() - expect).abs() < 1e-9);
    }

    #[test]
    fn averages_computed() {
        let s = KernelStats {
            completed_insts: 1000,
            completed_tbs: 4,
            sum_completed_cycles: 8000,
            ..KernelStats::default()
        };
        assert_eq!(s.avg_tb_insts(), Some(250.0));
        assert_eq!(s.avg_tb_cpi(), Some(8.0));
    }

    #[test]
    fn preempt_record_latency() {
        let mut r = PreemptRecord {
            sm: 0,
            kernel: crate::KernelId(0),
            requested_at: 10,
            completed_at: None,
            techniques: vec![],
        };
        assert_eq!(r.latency_cycles(), None);
        r.completed_at = Some(150);
        assert_eq!(r.latency_cycles(), Some(140));
    }
}
