//! The checked-in captures under `results/`: which binary, with which
//! arguments, writes which file.
//!
//! [`CAPTURES`] is the only copy of that list. `repro-all` runs every row
//! and writes each binary's stdout to `results/<file>`, so
//! `git diff results/` shows any drift, and CI fails on it. A test below
//! keeps the table and the directory in step: a capture cannot be added
//! without its row.

use std::path::PathBuf;

/// One checked-in capture: `bin args… --jobs <n> > results/<file>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capture {
    /// The `[[bin]]` name in `crates/bench/Cargo.toml`.
    pub bin: &'static str,
    /// The capture's arguments, separated by spaces, without `--jobs`:
    /// every capture is byte-identical at any job count, so `repro-all`
    /// appends its own.
    pub args: &'static str,
    /// The file name under `results/`.
    pub file: &'static str,
}

const fn cap(bin: &'static str, args: &'static str, file: &'static str) -> Capture {
    Capture { bin, args, file }
}

/// Every capture under `results/`, in EXPERIMENTS.md's order: Tables 1–2,
/// Figures 2–11, the estimator and latency reports, the ablations and the
/// serving runs. All at seed 42.
pub const CAPTURES: &[Capture] = &[
    cap("table1", "", "table1.txt"),
    cap("table2", "", "table2.txt"),
    cap("idem-report", "", "table2_idem.txt"),
    cap("fig2", "", "fig2.txt"),
    cap("fig3", "", "fig3.txt"),
    cap("fig4", "", "fig4.txt"),
    cap("fig6", "", "fig6.txt"),
    cap("fig7", "", "fig7.txt"),
    cap("fig8", "", "fig8.txt"),
    cap("fig9", "", "fig9.txt"),
    cap("fig10", "", "fig10.txt"),
    cap("fig11", "", "fig11.txt"),
    cap("est-accuracy", "", "est_accuracy.txt"),
    cap("latency-cdf", "", "latency_cdf.txt"),
    cap("ablation-ctx-bw", "", "ablation_ctx_bw.txt"),
    cap("ablation-drain-est", "", "ablation_drain_est.txt"),
    cap("ablation-tb-queue", "", "ablation_tb_queue.txt"),
    cap("ablation-warp-sched", "", "ablation_warp_sched.txt"),
    cap("ablation-task-sim", "", "ablation_task_sim.txt"),
    cap(
        "ablation-estimator",
        "--scale 0.4",
        "ablation_estimator.txt",
    ),
    cap("serve", "", "serve_open_loop.txt"),
    cap(
        "serve",
        "--scale 0.25 --devices 4 --placement least-loaded",
        "serve_devices.txt",
    ),
];

/// The workspace's `results/` directory, found from this crate's manifest
/// rather than the current directory.
pub fn results_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The `name`s of the `[[bin]]` sections of this crate's manifest.
    fn manifest_bins() -> BTreeSet<String> {
        let manifest = include_str!("../Cargo.toml");
        let mut bins = BTreeSet::new();
        let mut in_bin = false;
        for line in manifest.lines().map(str::trim) {
            if line.starts_with('[') {
                in_bin = line == "[[bin]]";
            } else if let Some(name) = line.strip_prefix("name = ").filter(|_| in_bin) {
                bins.insert(name.trim_matches('"').to_string());
            }
        }
        bins
    }

    #[test]
    fn table_matches_the_results_directory() {
        let on_disk: BTreeSet<String> = std::fs::read_dir(results_dir())
            .expect("results/ is readable")
            .map(|e| e.expect("directory entry").file_name())
            .map(|n| n.into_string().expect("UTF-8 file name"))
            .filter(|n| n.ends_with(".txt"))
            .collect();
        let in_table: BTreeSet<String> = CAPTURES.iter().map(|c| c.file.to_string()).collect();
        assert_eq!(in_table.len(), CAPTURES.len(), "a file appears twice");
        let no_row: Vec<_> = on_disk.difference(&in_table).collect();
        let no_file: Vec<_> = in_table.difference(&on_disk).collect();
        assert!(
            no_row.is_empty() && no_file.is_empty(),
            "results/*.txt without a row: {no_row:?}; rows without a file: {no_file:?}"
        );
    }

    #[test]
    fn every_row_runs_a_bench_binary_without_jobs() {
        let bins = manifest_bins();
        assert!(bins.contains("repro-all"), "manifest parse: {bins:?}");
        for c in CAPTURES {
            assert!(bins.contains(c.bin), "{} is not a [[bin]]", c.bin);
            let jobs = c.args.split_whitespace().any(|a| a == "--jobs");
            assert!(!jobs, "{}: repro-all adds --jobs", c.file);
        }
    }
}
