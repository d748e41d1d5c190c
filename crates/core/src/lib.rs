//! # chimera — collaborative preemption for a shared GPU
//!
//! A from-scratch reproduction of *Chimera: Collaborative Preemption for
//! Multitasking on a Shared GPU* (ASPLOS 2015). Chimera preempts a GPU with a
//! **required preemption latency** and **minimal throughput overhead** by
//! choosing, per streaming multiprocessor and per thread block, among three
//! techniques with complementary trade-offs:
//!
//! | technique | latency | throughput cost |
//! |---|---|---|
//! | context switch | mid-range, ~constant | 2 × switch time of lost issue |
//! | drain | remaining block time (can be huge) | ~none (skew only) |
//! | flush | ≈ 0 (idempotent blocks only) | all executed work discarded |
//!
//! The crate layers policy on top of the `gpu-sim` substrate:
//!
//! * [`cost`] — §3.2's online cost estimation (instruction/cycle statistics →
//!   latency and overhead estimates in common units), plus the closed-form
//!   §2.4 estimators behind Figures 2–3;
//! * [`select`] — Algorithm 1: pick a technique per block and a subset of SMs
//!   under a latency limit, minimising estimated throughput overhead;
//! * [`policy`] — the preemption policies compared in the paper (pure
//!   switch / drain / flush, Chimera, and the measurement-only oracle);
//! * [`runner`] — the experiment drivers: periodic hard-deadline multitasking
//!   (§4.1–4.3), pairwise multiprogrammed workloads with an FCFS baseline
//!   (§4.4), and an open-loop serving front-end (arrivals, admission
//!   control, SLO metrics) for studying overload behaviour;
//! * [`metrics`] — ANTT and STP (Eyerman & Eeckhout) and violation-rate
//!   accounting;
//! * [`obs`] — post-run analysis of the decision-level
//!   [event log](gpu_sim::EventLog): predicted-vs-actual drain latency per
//!   kernel (see `OBSERVABILITY.md` at the repository root for the event
//!   schema and the Chrome-trace export pipeline).
//!
//! ## Quick example: a periodic real-time task preempting a GPGPU benchmark
//!
//! ```
//! use chimera::policy::Policy;
//! use chimera::runner::periodic::{run_periodic, PeriodicConfig};
//! use workloads::Suite;
//!
//! let suite = Suite::standard();
//! let bench = suite.benchmark("LUD").expect("suite contains LUD");
//! // keep the doctest fast with a short horizon
//! let cfg = PeriodicConfig::paper_default(suite.config()).horizon_us(3_000.0);
//! let result = run_periodic(suite.config(), bench, Policy::chimera_us(15.0), &cfg);
//! assert!(result.requests >= 2);
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cost;
pub mod metrics;
pub mod obs;
pub mod partition;
pub mod policy;
mod preemptor;
pub mod runner;
pub mod scheduler;
pub mod select;

pub use cost::{CostModel, EstimatorConfig, EstimatorMode, KernelObs, ObsBank, P2Quantile, TbCost};
pub use metrics::{antt, geomean, stp};
pub use obs::{accuracy_per_kernel, drain_accuracy, DrainSample, DrainTracker, KernelAccuracy};
pub use partition::PartitionPolicy;
pub use policy::Policy;
pub use runner::serve::{
    run_serve, run_serve_traced, AdmissionConfig, ArrivalProcess, ServeConfig, ServeResult,
    TenantOutcome,
};
pub use runner::RunCommon;
pub use scheduler::{GpuScheduler, GpuSchedulerBuilder, ProcId, SchedEvent};
pub use select::{select_preemptions, PlanForSm, SelectionRequest};
