//! Parameterised synthetic kernels, beyond the Table 2 suite.
//!
//! The Table 2 kernels pin down the paper's exact evaluation points; this
//! builder spans the *space* around them — block duration, memory intensity,
//! occupancy, idempotence-point position — for examples and experiments
//! beyond the suite.

use crate::solve::{INPUT_BUFFER, OUTPUT_BUFFER, THREADS_PER_BLOCK};
use gpu_sim::{AccessRegion, GpuConfig, KernelDesc, Program, Segment};

/// Builder for a synthetic kernel with architecture-level parameters.
///
/// ```
/// use workloads::SyntheticKernel;
/// use gpu_sim::GpuConfig;
///
/// let k = SyntheticKernel::new("sweep")
///     .block_time_us(40.0)
///     .blocks_per_sm(4)
///     .memory_fraction(0.1)
///     .non_idem_at(0.85)
///     .grid_blocks(600)
///     .build(&GpuConfig::fermi());
/// assert_eq!(gpu_sim::occupancy(&GpuConfig::fermi(), &k).blocks_per_sm, 4);
/// assert!(!k.program().is_idempotent());
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticKernel {
    name: String,
    block_time_us: f64,
    blocks_per_sm: u32,
    memory_fraction: f64,
    /// `None` = idempotent; `Some(f)` places an in-place store back into the
    /// input window at fraction `f` (the analysis derives the overwrite).
    non_idem_at: Option<f64>,
    grid_blocks: u32,
    jitter: f64,
    instrumented: bool,
}

impl SyntheticKernel {
    /// Start a builder with sane defaults (20 µs blocks, 8/SM, idempotent).
    pub fn new(name: impl Into<String>) -> Self {
        SyntheticKernel {
            name: name.into(),
            block_time_us: 20.0,
            blocks_per_sm: 8,
            memory_fraction: 0.06,
            non_idem_at: None,
            grid_blocks: 1024,
            jitter: 0.1,
            instrumented: true,
        }
    }

    /// Target block execution time at full occupancy, µs (positive and
    /// finite; [`build`](Self::build) also rejects a time too long for a
    /// `u32` instruction count per warp).
    pub fn block_time_us(mut self, us: f64) -> Self {
        assert!(
            us > 0.0 && us.is_finite(),
            "block time must be positive and finite"
        );
        self.block_time_us = us;
        self
    }

    /// Target resident blocks per SM (1..=8).
    pub fn blocks_per_sm(mut self, b: u32) -> Self {
        assert!((1..=8).contains(&b), "blocks per SM out of range");
        self.blocks_per_sm = b;
        self
    }

    /// Fraction of instructions that access global memory (0..0.5).
    pub fn memory_fraction(mut self, f: f64) -> Self {
        assert!((0.0..0.5).contains(&f), "memory fraction out of range");
        self.memory_fraction = f;
        self
    }

    /// Make the kernel non-idempotent: at progress `f` (0 exclusive ..
    /// 1 exclusive) the program stores back into the input window it read
    /// at the top of the block, which the dataflow classifies as an
    /// overwrite.
    pub fn non_idem_at(mut self, f: f64) -> Self {
        assert!(
            f > 0.0 && f < 1.0,
            "idempotence point must be inside the block"
        );
        self.non_idem_at = Some(f);
        self
    }

    /// Grid size in blocks.
    pub fn grid_blocks(mut self, g: u32) -> Self {
        assert!(g > 0, "grid must be non-empty");
        self.grid_blocks = g;
        self
    }

    /// Per-block execution-time jitter (±fraction, 0..1).
    pub fn jitter(mut self, j: f64) -> Self {
        assert!((0.0..1.0).contains(&j), "jitter out of range");
        self.jitter = j;
        self
    }

    /// Whether to insert the relaxed-idempotence protect store.
    pub fn instrumented(mut self, on: bool) -> Self {
        self.instrumented = on;
        self
    }

    /// Build the kernel for `cfg`.
    pub fn build(&self, cfg: &GpuConfig) -> KernelDesc {
        let eff = self.blocks_per_sm.min(self.grid_blocks);
        let total = crate::solve::solve_insts_per_warp(cfg, self.block_time_us, eff);
        // The solver saturates at `u32::MAX` rather than wrap.
        assert!(
            total < u32::MAX,
            "block time of {} us needs too many instructions per warp",
            self.block_time_us
        );
        let mem = ((f64::from(total) * self.memory_fraction) as u32).max(2);
        let loads = mem / 2;
        let stores = (mem - loads).max(1);
        let mut segs = Vec::new();
        let input = AccessRegion::per_block_window(INPUT_BUFFER, 0, loads);
        let output = AccessRegion::per_block_window(OUTPUT_BUFFER, 0, stores);
        match self.non_idem_at {
            None => {
                let c = total.saturating_sub(loads + stores).max(2);
                segs.push(Segment::load_region(loads, input));
                segs.push(Segment::compute((c / 2).max(1)));
                segs.push(Segment::Barrier);
                segs.push(Segment::compute((c - c / 2).max(1)));
                segs.push(Segment::store_region(stores, output));
            }
            Some(frac) => {
                let point = ((f64::from(total) * frac) as u32).clamp(1, total - 2);
                let before_c = point.saturating_sub(loads).max(1);
                let after = total - point;
                let ow = after.clamp(1, 4);
                let after_c = after.saturating_sub(ow + stores);
                segs.push(Segment::load_region(loads, input));
                segs.push(Segment::compute(before_c));
                // In-place store over the window the load just read; the
                // idem dataflow derives the overwrite classification.
                segs.push(Segment::store_region(
                    ow,
                    AccessRegion::per_block_window(INPUT_BUFFER, 0, ow),
                ));
                if after_c > 0 {
                    segs.push(Segment::compute(after_c));
                }
                segs.push(Segment::store_region(stores, output));
            }
        }
        let program = Program::new(segs);
        let program = if self.instrumented {
            idem::instrument(&program)
        } else {
            program
        };
        // Make shared memory the occupancy-binding resource below the cap.
        let shared = if self.blocks_per_sm >= cfg.max_blocks_per_sm {
            1024
        } else {
            cfg.shared_mem_per_sm / self.blocks_per_sm
        };
        KernelDesc::builder(self.name.clone())
            .grid_blocks(self.grid_blocks)
            .threads_per_block(THREADS_PER_BLOCK)
            .regs_per_thread(16)
            .shared_mem_per_block(shared)
            .program(program)
            .jitter_pct(self.jitter)
            .build()
            .expect("synthetic parameters are validated by the setters")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure_drain_time_us;

    fn cfg() -> GpuConfig {
        GpuConfig::fermi()
    }

    #[test]
    fn occupancy_matches_requested() {
        for b in 1..=8 {
            let k = SyntheticKernel::new("o").blocks_per_sm(b).build(&cfg());
            assert_eq!(gpu_sim::occupancy(&cfg(), &k).blocks_per_sm, b, "b={b}");
        }
    }

    #[test]
    fn block_time_calibrates() {
        for us in [5.0, 50.0, 400.0] {
            let k = SyntheticKernel::new("t")
                .block_time_us(us)
                .blocks_per_sm(4)
                .jitter(0.0)
                .build(&cfg());
            let measured = measure_drain_time_us(&cfg(), &k, 8);
            assert!(
                (measured - us).abs() / us < 0.35,
                "target {us} us, measured {measured} us"
            );
        }
    }

    #[test]
    fn idempotence_point_lands_where_requested() {
        for frac in [0.2, 0.5, 0.9] {
            let k = SyntheticKernel::new("p")
                .non_idem_at(frac)
                .instrumented(false)
                .build(&cfg());
            let got = k.program().idempotent_fraction();
            assert!((got - frac).abs() < 0.08, "requested {frac}, got {got}");
        }
    }

    #[test]
    fn instrumented_kernels_carry_protect_store() {
        let k = SyntheticKernel::new("i").non_idem_at(0.8).build(&cfg());
        assert!(k
            .program()
            .segments()
            .iter()
            .any(|s| matches!(s, Segment::ProtectStore)));
        let k = SyntheticKernel::new("i").build(&cfg());
        assert!(k.program().is_idempotent());
    }

    #[test]
    fn memory_fraction_is_respected() {
        let k = SyntheticKernel::new("m")
            .memory_fraction(0.2)
            .jitter(0.0)
            .build(&cfg());
        let mem: u64 = k
            .program()
            .segments()
            .iter()
            .filter(|s| s.is_global_memory())
            .map(|s| u64::from(s.insts()))
            .sum();
        let frac = mem as f64 / k.program().insts_per_warp() as f64;
        assert!((frac - 0.2).abs() < 0.05, "{frac}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_occupancy() {
        let _ = SyntheticKernel::new("x").blocks_per_sm(9);
    }

    #[test]
    #[should_panic(expected = "block time must be positive and finite")]
    fn rejects_infinite_block_time() {
        let _ = SyntheticKernel::new("x").block_time_us(f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "needs too many instructions per warp")]
    fn rejects_block_time_whose_instruction_count_saturates() {
        let _ = SyntheticKernel::new("x").block_time_us(1e12).build(&cfg());
    }

    #[test]
    #[should_panic(expected = "jitter out of range")]
    fn rejects_nan_jitter() {
        let _ = SyntheticKernel::new("x").jitter(f64::NAN);
    }
}
