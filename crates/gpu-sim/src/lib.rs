//! # gpu-sim — a discrete-time GPU simulator substrate
//!
//! This crate models enough of a Fermi-class GPU to reproduce the evaluation of
//! *Chimera: Collaborative Preemption for Multitasking on a Shared GPU*
//! (ASPLOS 2015): streaming multiprocessors (SMs) with an issue-pipeline model,
//! warps executing segmented kernel programs, thread-block dispatch with an
//! occupancy calculator, a bandwidth-queued partitioned memory subsystem, and —
//! crucially — the three preemption mechanisms the paper builds on:
//! **context switching** (halt + save/restore), **draining** (stop dispatching,
//! let resident blocks finish) and **flushing** (drop blocks instantly and
//! restart them from scratch elsewhere).
//!
//! The simulator executes *synthetic* kernel programs (see the `workloads`
//! crate) whose timing characteristics are calibrated against the paper's
//! Table 2. Kernels also carry a small functional semantics (writes to a
//! modelled global memory) so that idempotence violations are *observable*:
//! flushing a thread block after it performed an atomic or a global overwrite
//! corrupts the final memory image, exactly as it would on real hardware.
//!
//! ## Quick example
//!
//! ```
//! use gpu_sim::{Engine, GpuConfig, KernelDesc, Program, Segment};
//!
//! let cfg = GpuConfig::fermi();
//! let mut engine = Engine::new(cfg);
//! let kernel = KernelDesc::builder("demo")
//!     .grid_blocks(64)
//!     .threads_per_block(128)
//!     .regs_per_thread(16)
//!     .program(Program::new(vec![Segment::compute(200)]))
//!     .build()
//!     .expect("valid kernel");
//! let kid = engine.launch_kernel(kernel);
//! for sm in 0..engine.config().num_sms {
//!     engine.assign_sm(sm, Some(kid));
//! }
//! engine.run_until(2_000_000);
//! assert!(engine.kernel_stats(kid).finished);
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod block;
mod calendar;
pub mod config;
pub mod engine;
pub mod events;
pub mod kernel;
pub mod mem;
pub mod occupancy;
pub mod preempt;
pub mod race;
pub mod rng;
pub mod sanitizer;
pub mod sm;
pub mod stats;
pub mod trace;
pub mod warp;

pub use block::{BlockId, BlockRun, BlockStats, TbSnapshot};
pub use config::{GpuConfig, WarpSched, CYCLES_PER_US};
pub use engine::{Engine, Event, ExecMode, KernelId};
pub use events::{BlockDecision, BlockExit, EventLog, ObsEvent, ShedReason, TechniqueEstimate};
pub use kernel::{AccessRegion, KernelDesc, KernelDescBuilder, KernelError, Program, Segment};
pub use mem::{MemPartitionStats, MemSubsystem};
pub use occupancy::{occupancy, LimitReason, Occupancy};
pub use preempt::{PreemptOutcome, SmPreemptPlan, Technique};
pub use race::{RaceReport, RaceSanitizer, RaceViolation, SharedResource, TestSharedCell};
pub use sanitizer::{FlushSanitizer, SanitizerReport, UnsafeWrite};
pub use sm::{PreemptError, Sm, SmMode, SmSnapshot, TbSnapshotInfo, TickLimits};
pub use stats::{GpuStats, KernelStats, WorkCounters};
