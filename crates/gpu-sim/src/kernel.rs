//! Kernel intermediate representation.
//!
//! Kernels are described as *segmented warp programs*: every warp of a thread
//! block executes the same sequence of [`Segment`]s. Segments are coarse
//! (hundreds of instructions each) which is all the fidelity the Chimera cost
//! model needs — it reasons about per-block instruction counts and cycles, not
//! about individual operations.
//!
//! Global-memory segments are *addressed*: every load, store and atomic
//! carries an [`AccessRegion`] naming the buffer it touches, the byte range
//! within a block's window, and the per-block stride of that window. Whether
//! a store breaks idempotence is **derived** from those regions, not
//! declared: [`Program::new`] runs a forward pass over the segment stream and
//! flags a store as an overwrite exactly when it is a fused read-modify-write
//! ([`Segment::GlobalStore::rmw`]) or its region may intersect a region some
//! earlier segment read — the paper's two idempotence-breaking conditions
//! (§2.3), with [`Segment::Atomic`] always breaking. The `idem` crate runs
//! the same dataflow with per-site provenance and inserts
//! [`Segment::ProtectStore`] markers implementing the paper's software
//! detection of the *relaxed* idempotence condition (§3.4). The dynamic
//! counterpart — checking the derived classification against observed
//! per-block footprints — lives in [`crate::sanitizer`].

use std::fmt;

/// An addressed global-memory access pattern: which bytes of which buffer a
/// segment touches, parameterised by the executing block's grid index.
///
/// Block `b` touches the half-open byte interval
/// `[offset + b·block_stride, offset + b·block_stride + len)` of `buffer`.
/// `block_stride == 0` means every block touches the *same* interval (shared
/// data such as global counters); `block_stride >= len` gives each block a
/// disjoint private window (the common tiled pattern).
///
/// All fields are plain integers so `Segment` stays `Copy + Eq + Hash`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AccessRegion {
    /// Logical buffer (kernel argument) identifier. Regions on different
    /// buffers never alias.
    pub buffer: u32,
    /// Byte offset of block 0's interval within the buffer.
    pub offset: u64,
    /// Length of the accessed interval in bytes.
    pub len: u64,
    /// Per-block stride in bytes (`0` = all blocks share one interval).
    pub block_stride: u64,
}

impl AccessRegion {
    /// Bytes one coalesced warp instruction moves (128 B: 32 lanes × 4 B).
    pub const BYTES_PER_INST: u64 = 128;
    /// Per-block window stride used by the compatibility constructors —
    /// large enough that windows of realistic segment sizes never collide
    /// across blocks.
    pub const COMPAT_BLOCK_STRIDE: u64 = 1 << 24;
    /// Buffer id the deprecated [`Segment::load`]/[`Segment::overwrite`]
    /// shims lower to (the kernel's input array).
    pub const COMPAT_INPUT_BUFFER: u32 = 0;
    /// Buffer id the deprecated [`Segment::store`] shim lowers to (a distinct
    /// output array, so plain stores never alias the input reads).
    pub const COMPAT_OUTPUT_BUFFER: u32 = 1;
    /// Buffer id the deprecated [`Segment::atomic`] shim lowers to (a small
    /// set of counters shared by every block).
    pub const COMPAT_COUNTER_BUFFER: u32 = 2;

    /// A region with explicit geometry.
    pub fn new(buffer: u32, offset: u64, len: u64, block_stride: u64) -> Self {
        AccessRegion {
            buffer,
            offset,
            len,
            block_stride,
        }
    }

    /// A per-block private window sized for `insts` coalesced warp
    /// instructions, starting at `offset` within `buffer`.
    pub fn per_block_window(buffer: u32, offset: u64, insts: u32) -> Self {
        AccessRegion {
            buffer,
            offset,
            len: (u64::from(insts) * Self::BYTES_PER_INST).max(1),
            block_stride: Self::COMPAT_BLOCK_STRIDE,
        }
    }

    /// A block-shared region (stride 0) sized for `insts` warp instructions.
    pub fn shared_by_blocks(buffer: u32, offset: u64, insts: u32) -> Self {
        AccessRegion {
            buffer,
            offset,
            len: (u64::from(insts) * Self::BYTES_PER_INST).max(1),
            block_stride: 0,
        }
    }

    /// The concrete byte interval `[start, end)` block `block` touches.
    pub fn interval_for_block(&self, block: u32) -> (u64, u64) {
        let start = self.offset + u64::from(block) * self.block_stride;
        (start, start + self.len)
    }

    /// Whether the two regions may overlap for *some* block executing both
    /// (static may-alias, used by the idempotence dataflow).
    ///
    /// Different buffers never alias. Equal strides reduce to interval
    /// overlap of the block-0 windows (both windows shift together). When
    /// the strides differ the relative placement depends on the block index,
    /// so the answer is a conservative `true` — the dynamic sanitizer
    /// reports such sites as benign conservatism when no concrete interval
    /// ever collides.
    pub fn may_overlap(&self, other: &AccessRegion) -> bool {
        if self.buffer != other.buffer || self.len == 0 || other.len == 0 {
            return false;
        }
        if self.block_stride == other.block_stride {
            self.offset < other.offset + other.len && other.offset < self.offset + self.len
        } else {
            true
        }
    }

    /// Whether the two regions' concrete intervals overlap for `block`
    /// (exact, used by the dynamic sanitizer).
    pub fn overlaps_for_block(&self, other: &AccessRegion, block: u32) -> bool {
        if self.buffer != other.buffer || self.len == 0 || other.len == 0 {
            return false;
        }
        let (a0, a1) = self.interval_for_block(block);
        let (b0, b1) = other.interval_for_block(block);
        a0 < b1 && b0 < a1
    }
}

impl fmt::Display for AccessRegion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "b{}+{}..{}{}",
            self.buffer,
            self.offset,
            self.offset + self.len,
            if self.block_stride == 0 {
                " (shared)".to_string()
            } else {
                format!(" /{}", self.block_stride)
            }
        )
    }
}

/// One coarse step of a warp's execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Segment {
    /// `insts` arithmetic warp-instructions; fully pipelined.
    Compute {
        /// Number of warp instructions in the segment.
        insts: u32,
    },
    /// `insts` coalesced global loads (128 B per warp instruction).
    GlobalLoad {
        /// Number of warp instructions in the segment.
        insts: u32,
        /// Bytes of which buffer the block reads.
        region: AccessRegion,
    },
    /// `insts` coalesced global stores.
    GlobalStore {
        /// Number of warp instructions in the segment.
        insts: u32,
        /// Bytes of which buffer the block writes.
        region: AccessRegion,
        /// Fused read-modify-write: the store reads its target region before
        /// writing it (e.g. `a[i] += x` compiled as load+store). Such a
        /// store clobbers its own input and is non-idempotent regardless of
        /// what earlier segments read. This is an access-structure fact, not
        /// a classification — plain (`rmw: false`) stores are still flagged
        /// as overwrites by the dataflow when their region intersects an
        /// earlier read.
        rmw: bool,
    },
    /// `insts` atomic read-modify-write operations (always non-idempotent).
    Atomic {
        /// Number of warp instructions in the segment.
        insts: u32,
        /// Bytes of which buffer the atomics update.
        region: AccessRegion,
    },
    /// `insts` shared-memory accesses (on-chip, no DRAM traffic).
    Shared {
        /// Number of warp instructions in the segment.
        insts: u32,
    },
    /// Block-wide barrier (`__syncthreads()`).
    Barrier,
    /// A single store to a predefined non-cacheable address announcing that
    /// the block is about to leave its idempotent region. Inserted by the
    /// `idem` crate; never written by hand in workload definitions.
    ProtectStore,
}

impl Segment {
    /// Convenience constructor for a compute segment.
    pub fn compute(insts: u32) -> Self {
        Segment::Compute { insts }
    }

    /// A global-load segment with an explicit access region.
    pub fn load_region(insts: u32, region: AccessRegion) -> Self {
        Segment::GlobalLoad { insts, region }
    }

    /// A global-store segment with an explicit access region. Whether it is
    /// an overwrite is decided by the program-level dataflow, not here.
    pub fn store_region(insts: u32, region: AccessRegion) -> Self {
        Segment::GlobalStore {
            insts,
            region,
            rmw: false,
        }
    }

    /// A fused read-modify-write store with an explicit access region.
    pub fn rmw_region(insts: u32, region: AccessRegion) -> Self {
        Segment::GlobalStore {
            insts,
            region,
            rmw: true,
        }
    }

    /// An atomic segment with an explicit access region.
    pub fn atomic_region(insts: u32, region: AccessRegion) -> Self {
        Segment::Atomic { insts, region }
    }

    /// Convenience constructor for a global-load segment.
    ///
    /// Compatibility shim (deprecated in favour of [`Segment::load_region`]):
    /// lowers to a per-block window of the input buffer
    /// ([`AccessRegion::COMPAT_INPUT_BUFFER`]).
    pub fn load(insts: u32) -> Self {
        Segment::GlobalLoad {
            insts,
            region: AccessRegion::per_block_window(AccessRegion::COMPAT_INPUT_BUFFER, 0, insts),
        }
    }

    /// Convenience constructor for an idempotent global-store segment.
    ///
    /// Compatibility shim (deprecated in favour of
    /// [`Segment::store_region`]): lowers to a per-block window of a
    /// distinct output buffer ([`AccessRegion::COMPAT_OUTPUT_BUFFER`]), so
    /// the dataflow never sees it alias the input reads.
    pub fn store(insts: u32) -> Self {
        Segment::store_region(
            insts,
            AccessRegion::per_block_window(AccessRegion::COMPAT_OUTPUT_BUFFER, 0, insts),
        )
    }

    /// Convenience constructor for a non-idempotent overwrite segment.
    ///
    /// Compatibility shim (deprecated in favour of [`Segment::rmw_region`]
    /// or a [`Segment::store_region`] that aliases an earlier read): lowers
    /// to a fused read-modify-write on the block's input window, which the
    /// dataflow flags as an overwrite even with no preceding load segment.
    pub fn overwrite(insts: u32) -> Self {
        Segment::rmw_region(
            insts,
            AccessRegion::per_block_window(AccessRegion::COMPAT_INPUT_BUFFER, 0, insts),
        )
    }

    /// Convenience constructor for an atomic segment.
    ///
    /// Compatibility shim (deprecated in favour of
    /// [`Segment::atomic_region`]): lowers to block-shared counters
    /// ([`AccessRegion::COMPAT_COUNTER_BUFFER`]).
    pub fn atomic(insts: u32) -> Self {
        Segment::Atomic {
            insts,
            region: AccessRegion::shared_by_blocks(AccessRegion::COMPAT_COUNTER_BUFFER, 0, insts),
        }
    }

    /// Number of warp instructions this segment contributes.
    pub fn insts(&self) -> u32 {
        match *self {
            Segment::Compute { insts }
            | Segment::GlobalLoad { insts, .. }
            | Segment::GlobalStore { insts, .. }
            | Segment::Atomic { insts, .. }
            | Segment::Shared { insts } => insts,
            Segment::Barrier => 0,
            Segment::ProtectStore => 1,
        }
    }

    /// The global-memory region this segment touches, if any.
    pub fn region(&self) -> Option<AccessRegion> {
        match *self {
            Segment::GlobalLoad { region, .. }
            | Segment::GlobalStore { region, .. }
            | Segment::Atomic { region, .. } => Some(region),
            _ => None,
        }
    }

    /// Whether this segment breaks block idempotence *regardless of
    /// context*: atomics and fused read-modify-write stores.
    ///
    /// This is a segment-local approximation. A plain store can still be an
    /// overwrite when its region intersects something an earlier segment
    /// read — that classification needs the whole program and lives in
    /// [`Program::segment_non_idempotent`] (and, with provenance, in the
    /// `idem` crate's dataflow).
    pub fn is_non_idempotent(&self) -> bool {
        matches!(
            *self,
            Segment::Atomic { .. } | Segment::GlobalStore { rmw: true, .. }
        )
    }

    /// Whether this segment generates DRAM traffic.
    pub fn is_global_memory(&self) -> bool {
        matches!(
            *self,
            Segment::GlobalLoad { .. }
                | Segment::GlobalStore { .. }
                | Segment::Atomic { .. }
                | Segment::ProtectStore
        )
    }
}

impl fmt::Display for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Segment::Compute { insts } => write!(f, "compute[{insts}]"),
            Segment::GlobalLoad { insts, .. } => write!(f, "load[{insts}]"),
            Segment::GlobalStore {
                insts, rmw: false, ..
            } => write!(f, "store[{insts}]"),
            Segment::GlobalStore {
                insts, rmw: true, ..
            } => write!(f, "overwrite[{insts}]"),
            Segment::Atomic { insts, .. } => write!(f, "atomic[{insts}]"),
            Segment::Shared { insts } => write!(f, "shared[{insts}]"),
            Segment::Barrier => write!(f, "barrier"),
            Segment::ProtectStore => write!(f, "protect-store"),
        }
    }
}

/// A complete warp program: the segment sequence every warp executes.
///
/// Construction runs the idempotence dataflow over the segments' access
/// regions (see [`Program::segment_non_idempotent`]); the per-segment result
/// is cached so the simulator's hot paths read a precomputed mask.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    segments: Vec<Segment>,
    /// `non_idem[i]` ⇔ executing segment `i` breaks block idempotence.
    non_idem: Vec<bool>,
}

/// Forward dataflow over the segment stream: accumulate the regions read so
/// far; an atomic always breaks idempotence, a store breaks it when it is a
/// fused read-modify-write or its region may alias an accumulated read. The
/// `idem` crate runs the same pass with per-site provenance — the two must
/// agree (property-tested there).
fn non_idem_mask(segments: &[Segment]) -> Vec<bool> {
    let mut reads: Vec<AccessRegion> = Vec::new();
    segments
        .iter()
        .map(|seg| match *seg {
            Segment::Atomic { .. } => true,
            Segment::GlobalLoad { region, .. } => {
                reads.push(region);
                false
            }
            Segment::GlobalStore { region, rmw, .. } => {
                let clobbers = rmw || reads.iter().any(|r| r.may_overlap(&region));
                if rmw {
                    // The fused read becomes visible to later stores.
                    reads.push(region);
                }
                clobbers
            }
            _ => false,
        })
        .collect()
}

impl Program {
    /// Create a program from segments.
    pub fn new(segments: Vec<Segment>) -> Self {
        let non_idem = non_idem_mask(&segments);
        Program { segments, non_idem }
    }

    /// The segments of the program.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Total warp instructions one warp executes.
    pub fn insts_per_warp(&self) -> u64 {
        self.segments.iter().map(|s| u64::from(s.insts())).sum()
    }

    /// Whether executing segment `ix` breaks block idempotence, as derived
    /// by the access-region dataflow (atomic, fused read-modify-write, or a
    /// store whose region may alias an earlier read).
    pub fn segment_non_idempotent(&self, ix: usize) -> bool {
        self.non_idem.get(ix).copied().unwrap_or(false)
    }

    /// Index of the first non-idempotent segment, if any.
    pub fn first_non_idempotent(&self) -> Option<usize> {
        self.non_idem.iter().position(|&b| b)
    }

    /// Whether the whole program is idempotent (strict condition, §2.3).
    pub fn is_idempotent(&self) -> bool {
        self.first_non_idempotent().is_none()
    }

    /// Fraction of per-warp instructions executed before the first
    /// non-idempotent segment; `1.0` for idempotent programs.
    pub fn idempotent_fraction(&self) -> f64 {
        let total = self.insts_per_warp();
        if total == 0 {
            return 1.0;
        }
        match self.first_non_idempotent() {
            None => 1.0,
            Some(ix) => {
                let before: u64 = self.segments[..ix]
                    .iter()
                    .map(|s| u64::from(s.insts()))
                    .sum();
                before as f64 / total as f64
            }
        }
    }

    /// Count of global store/atomic segments (used to size functional memory).
    pub fn effect_segments(&self) -> usize {
        self.segments
            .iter()
            .filter(|s| matches!(s, Segment::GlobalStore { .. } | Segment::Atomic { .. }))
            .count()
    }
}

impl FromIterator<Segment> for Program {
    fn from_iter<I: IntoIterator<Item = Segment>>(iter: I) -> Self {
        Program::new(iter.into_iter().collect())
    }
}

/// Error constructing a [`KernelDesc`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// Threads per block must be a positive multiple of the 32-thread warp.
    BadThreadCount(u32),
    /// Grid must contain at least one block.
    EmptyGrid,
    /// The program contains no instructions.
    EmptyProgram,
    /// Per-block resources exceed a single SM's capacity.
    ExceedsSmResources(String),
    /// The per-block jitter is not a finite fraction in `[0, 1)` (the
    /// rejected value, formatted).
    BadJitter(String),
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::BadThreadCount(t) => {
                write!(
                    f,
                    "threads per block must be a positive multiple of 32, got {t}"
                )
            }
            KernelError::EmptyGrid => write!(f, "grid must contain at least one block"),
            KernelError::EmptyProgram => write!(f, "program must contain at least one instruction"),
            KernelError::ExceedsSmResources(what) => {
                write!(f, "per-block resources exceed SM capacity: {what}")
            }
            KernelError::BadJitter(j) => {
                write!(f, "jitter must be a finite fraction in [0, 1), got {j}")
            }
        }
    }
}

impl std::error::Error for KernelError {}

/// A kernel: grid geometry, per-block resources, and the warp program.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelDesc {
    name: String,
    grid_blocks: u32,
    threads_per_block: u32,
    regs_per_thread: u32,
    shared_mem_per_block: u32,
    program: Program,
    jitter_pct: f64,
}

impl KernelDesc {
    /// Start building a kernel description.
    pub fn builder(name: impl Into<String>) -> KernelDescBuilder {
        KernelDescBuilder::new(name)
    }

    /// Kernel name (used in reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of thread blocks in the grid.
    pub fn grid_blocks(&self) -> u32 {
        self.grid_blocks
    }

    /// Threads per block.
    pub fn threads_per_block(&self) -> u32 {
        self.threads_per_block
    }

    /// Warps per block.
    pub fn warps_per_block(&self) -> u32 {
        self.threads_per_block / 32
    }

    /// Registers per thread.
    pub fn regs_per_thread(&self) -> u32 {
        self.regs_per_thread
    }

    /// Shared memory per block, bytes.
    pub fn shared_mem_per_block(&self) -> u32 {
        self.shared_mem_per_block
    }

    /// The warp program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Per-block execution length jitter (fraction; blocks vary by ±this).
    pub fn jitter_pct(&self) -> f64 {
        self.jitter_pct
    }

    /// Context bytes of one resident block: register state plus shared memory.
    pub fn block_context_bytes(&self) -> u64 {
        u64::from(self.threads_per_block) * u64::from(self.regs_per_thread) * 4
            + u64::from(self.shared_mem_per_block)
    }

    /// Total warp instructions executed by one (unjittered) block.
    pub fn insts_per_block(&self) -> u64 {
        self.program.insts_per_warp() * u64::from(self.warps_per_block())
    }

    /// Replace the program (used by idempotence instrumentation).
    pub fn with_program(&self, program: Program) -> KernelDesc {
        KernelDesc {
            program,
            ..self.clone()
        }
    }

    /// Replace the grid size (used by multi-launch jobs such as LUD).
    pub fn with_grid_blocks(&self, grid_blocks: u32) -> KernelDesc {
        assert!(grid_blocks > 0, "grid must contain at least one block");
        KernelDesc {
            grid_blocks,
            ..self.clone()
        }
    }

    /// Replace the name.
    pub fn with_name(&self, name: impl Into<String>) -> KernelDesc {
        KernelDesc {
            name: name.into(),
            ..self.clone()
        }
    }
}

impl fmt::Display for KernelDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} <<<{}, {}>>> ({} regs/thread, {} B smem)",
            self.name,
            self.grid_blocks,
            self.threads_per_block,
            self.regs_per_thread,
            self.shared_mem_per_block
        )
    }
}

/// Builder for [`KernelDesc`] (see C-BUILDER).
#[derive(Debug, Clone)]
pub struct KernelDescBuilder {
    name: String,
    grid_blocks: u32,
    threads_per_block: u32,
    regs_per_thread: u32,
    shared_mem_per_block: u32,
    program: Program,
    jitter_pct: f64,
}

impl KernelDescBuilder {
    fn new(name: impl Into<String>) -> Self {
        KernelDescBuilder {
            name: name.into(),
            grid_blocks: 1,
            threads_per_block: 128,
            regs_per_thread: 16,
            shared_mem_per_block: 0,
            program: Program::default(),
            jitter_pct: 0.0,
        }
    }

    /// Set the grid size in blocks.
    pub fn grid_blocks(mut self, blocks: u32) -> Self {
        self.grid_blocks = blocks;
        self
    }

    /// Set threads per block (must be a positive multiple of 32).
    pub fn threads_per_block(mut self, threads: u32) -> Self {
        self.threads_per_block = threads;
        self
    }

    /// Set registers per thread.
    pub fn regs_per_thread(mut self, regs: u32) -> Self {
        self.regs_per_thread = regs;
        self
    }

    /// Set shared memory per block in bytes.
    pub fn shared_mem_per_block(mut self, bytes: u32) -> Self {
        self.shared_mem_per_block = bytes;
        self
    }

    /// Set the warp program.
    pub fn program(mut self, program: Program) -> Self {
        self.program = program;
        self
    }

    /// Set per-block execution-length jitter (e.g. `0.1` for ±10 %); must
    /// be finite and in `[0, 1)`, so that every block's scale factor is
    /// positive.
    pub fn jitter_pct(mut self, pct: f64) -> Self {
        self.jitter_pct = pct;
        self
    }

    /// Validate and build the kernel description.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError`] if the geometry is invalid, the jitter is not
    /// a finite fraction in `[0, 1)`, or the per-block resources cannot fit
    /// on any SM of the Fermi configuration.
    pub fn build(self) -> Result<KernelDesc, KernelError> {
        if self.threads_per_block == 0 || !self.threads_per_block.is_multiple_of(32) {
            return Err(KernelError::BadThreadCount(self.threads_per_block));
        }
        if self.grid_blocks == 0 {
            return Err(KernelError::EmptyGrid);
        }
        if self.program.insts_per_warp() == 0 {
            return Err(KernelError::EmptyProgram);
        }
        // NaN would turn every segment into one instruction, 1 or more
        // allows zero or negative scales, and a negative value flips the
        // draw (which `block::min_block_total` relies on being monotone).
        if !(0.0..1.0).contains(&self.jitter_pct) {
            return Err(KernelError::BadJitter(self.jitter_pct.to_string()));
        }
        let cfg = crate::GpuConfig::fermi();
        let regs = self.threads_per_block * self.regs_per_thread;
        if regs > cfg.registers_per_sm {
            return Err(KernelError::ExceedsSmResources(format!(
                "{regs} registers > {} per SM",
                cfg.registers_per_sm
            )));
        }
        if self.shared_mem_per_block > cfg.shared_mem_per_sm {
            return Err(KernelError::ExceedsSmResources(format!(
                "{} B shared memory > {} per SM",
                self.shared_mem_per_block, cfg.shared_mem_per_sm
            )));
        }
        if self.threads_per_block > cfg.max_threads_per_sm {
            return Err(KernelError::ExceedsSmResources(format!(
                "{} threads > {} per SM",
                self.threads_per_block, cfg.max_threads_per_sm
            )));
        }
        Ok(KernelDesc {
            name: self.name,
            grid_blocks: self.grid_blocks,
            threads_per_block: self.threads_per_block,
            regs_per_thread: self.regs_per_thread,
            shared_mem_per_block: self.shared_mem_per_block,
            program: self.program,
            jitter_pct: self.jitter_pct,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_program() -> Program {
        Program::new(vec![
            Segment::load(20),
            Segment::compute(100),
            Segment::Barrier,
            Segment::compute(60),
            Segment::store(20),
        ])
    }

    #[test]
    fn program_instruction_count() {
        assert_eq!(demo_program().insts_per_warp(), 200);
    }

    #[test]
    fn idempotent_program_has_no_breaking_segment() {
        let p = demo_program();
        assert!(p.is_idempotent());
        assert_eq!(p.first_non_idempotent(), None);
        assert!((p.idempotent_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn atomic_breaks_idempotence() {
        let p = Program::new(vec![Segment::compute(90), Segment::atomic(10)]);
        assert!(!p.is_idempotent());
        assert_eq!(p.first_non_idempotent(), Some(1));
        assert!((p.idempotent_fraction() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn overwrite_breaks_idempotence_but_plain_store_does_not() {
        let plain = Program::new(vec![Segment::store(10)]);
        assert!(plain.is_idempotent());
        // The deprecated shim lowers to a fused read-modify-write, which is
        // non-idempotent even with no preceding load segment.
        let over = Program::new(vec![Segment::overwrite(10)]);
        assert!(!over.is_idempotent());
    }

    #[test]
    fn aliasing_store_is_derived_as_overwrite() {
        let window = AccessRegion::per_block_window(0, 0, 8);
        // Plain store to the window the block previously read: overwrite.
        let p = Program::new(vec![
            Segment::load_region(8, window),
            Segment::compute(50),
            Segment::store_region(4, window),
        ]);
        assert!(!p.is_idempotent());
        assert_eq!(p.first_non_idempotent(), Some(2));
        assert!(p.segment_non_idempotent(2));
        assert!(
            !p.segments()[2].is_non_idempotent(),
            "not rmw, derived only"
        );
        // Same store to a disjoint output buffer: idempotent.
        let q = Program::new(vec![
            Segment::load_region(8, window),
            Segment::compute(50),
            Segment::store_region(4, AccessRegion::per_block_window(1, 0, 4)),
        ]);
        assert!(q.is_idempotent());
    }

    #[test]
    fn store_before_read_does_not_clobber() {
        // Writing a location and reading it *afterwards* is idempotent:
        // re-execution rewrites the same value before the read.
        let window = AccessRegion::per_block_window(0, 0, 4);
        let p = Program::new(vec![
            Segment::store_region(4, window),
            Segment::load_region(4, window),
        ]);
        assert!(p.is_idempotent());
        // ...but a second store after the read does clobber it.
        let q = Program::new(vec![
            Segment::store_region(4, window),
            Segment::load_region(4, window),
            Segment::store_region(4, window),
        ]);
        assert_eq!(q.first_non_idempotent(), Some(2));
    }

    #[test]
    fn region_overlap_rules() {
        let a = AccessRegion::new(0, 0, 256, 1 << 20);
        let b = AccessRegion::new(0, 128, 256, 1 << 20);
        let c = AccessRegion::new(0, 256, 256, 1 << 20);
        let other_buf = AccessRegion::new(1, 0, 256, 1 << 20);
        assert!(a.may_overlap(&b));
        assert!(!a.may_overlap(&c), "half-open intervals");
        assert!(!a.may_overlap(&other_buf));
        // Differing strides are conservatively may-alias...
        let strided = AccessRegion::new(0, 4096, 64, 0);
        assert!(a.may_overlap(&strided));
        // ...but the concrete check is exact per block.
        assert!(!a.overlaps_for_block(&strided, 0));
        assert!(a.overlaps_for_block(&AccessRegion::new(0, 0, 64, 0), 0));
        let (s, e) = b.interval_for_block(2);
        assert_eq!((s, e), (128 + 2 * (1 << 20), 128 + 2 * (1 << 20) + 256));
    }

    #[test]
    fn builder_validates_threads() {
        let e = KernelDesc::builder("x")
            .threads_per_block(100)
            .program(demo_program())
            .build()
            .unwrap_err();
        assert_eq!(e, KernelError::BadThreadCount(100));
    }

    #[test]
    fn builder_validates_grid_and_program() {
        assert_eq!(
            KernelDesc::builder("x")
                .grid_blocks(0)
                .program(demo_program())
                .build()
                .unwrap_err(),
            KernelError::EmptyGrid
        );
        assert_eq!(
            KernelDesc::builder("x").grid_blocks(1).build().unwrap_err(),
            KernelError::EmptyProgram
        );
    }

    #[test]
    fn builder_rejects_degenerate_jitter() {
        let build = |j: f64| {
            KernelDesc::builder("x")
                .program(demo_program())
                .jitter_pct(j)
                .build()
        };
        for j in [f64::NAN, -0.1, 1.0, f64::INFINITY] {
            assert!(
                matches!(build(j), Err(KernelError::BadJitter(_))),
                "jitter {j} accepted"
            );
        }
        for j in [0.0, 0.35, 0.999] {
            assert!(build(j).is_ok(), "jitter {j} rejected");
        }
    }

    #[test]
    fn builder_validates_sm_resources() {
        let e = KernelDesc::builder("x")
            .threads_per_block(1024)
            .regs_per_thread(64)
            .program(demo_program())
            .build()
            .unwrap_err();
        assert!(matches!(e, KernelError::ExceedsSmResources(_)));
    }

    #[test]
    fn context_bytes_counts_registers_and_shared_memory() {
        let k = KernelDesc::builder("x")
            .grid_blocks(4)
            .threads_per_block(128)
            .regs_per_thread(32)
            .shared_mem_per_block(8192)
            .program(demo_program())
            .build()
            .unwrap();
        assert_eq!(k.block_context_bytes(), 128 * 32 * 4 + 8192);
        assert_eq!(k.warps_per_block(), 4);
        assert_eq!(k.insts_per_block(), 200 * 4);
    }

    #[test]
    fn display_formats() {
        let k = KernelDesc::builder("demo")
            .grid_blocks(2)
            .program(demo_program())
            .build()
            .unwrap();
        let s = format!("{k}");
        assert!(s.contains("demo"));
        assert!(format!("{}", Segment::compute(5)).contains("compute"));
        assert!(format!("{}", Segment::ProtectStore).contains("protect"));
    }

    #[test]
    fn with_program_and_grid_preserve_other_fields() {
        let k = KernelDesc::builder("demo")
            .grid_blocks(7)
            .program(demo_program())
            .build()
            .unwrap();
        let k2 = k.with_grid_blocks(3).with_name("demo2");
        assert_eq!(k2.grid_blocks(), 3);
        assert_eq!(k2.name(), "demo2");
        assert_eq!(k2.threads_per_block(), k.threads_per_block());
    }
}
