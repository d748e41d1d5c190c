//! Experiment drivers reproducing the paper's evaluation scenarios.

pub mod cluster;
pub mod common;
pub mod job;
pub mod multiprog;
pub mod periodic;
pub mod serve;
pub mod solo;

pub use common::RunCommon;
pub use job::Job;

use gpu_sim::Engine;

/// Statistics are keyed per kernel code: LUD's per-iteration launches are
/// named `LUD.0#3` but share the `LUD.0` statistics registers.
pub(crate) fn periodic_name(name: &str) -> &str {
    name.split_once('#').map_or(name, |(base, _)| base)
}

/// Panic with the full race report if the engine's shard-race sanitizer is
/// enabled and recorded any Phase-A violation. A no-op when the sanitizer
/// is off, so every runner calls this unconditionally at the end of a run.
pub(crate) fn assert_race_clean(engine: &Engine, context: &str) {
    if let Some(report) = engine.race_sanitizer().map(|s| s.report()) {
        assert!(
            report.is_clean(),
            "shard-race sanitizer found violations in {context}:\n{report}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_name_normalisation() {
        assert_eq!(periodic_name("LUD.0#3"), "LUD.0");
        assert_eq!(periodic_name("BS.0"), "BS.0");
    }
}
