//! Shared harness code for the figure/table reproduction binaries.
//!
//! Every binary regenerates one table or figure of the paper and prints the
//! same rows/series the paper reports, alongside the paper's published values
//! where available. Absolute numbers differ (the substrate is a simulator,
//! not the authors' testbed); the *shapes* — who wins, by what factor, where
//! crossovers fall — are the reproduction target. See EXPERIMENTS.md.

pub mod args;
pub mod captures;
pub mod idem_report;
pub mod pool;
pub mod progress;
pub mod report;
pub mod scenarios;

pub use args::RunArgs;
pub use report::Table;
