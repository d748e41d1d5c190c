//! Regenerate every checked-in capture in place: run each row of
//! [`bench::captures::CAPTURES`] with `--jobs <n>` appended and write its
//! stdout to `results/<file>`, then review `git diff results/`.
//!
//! Usage: `repro-all [--jobs <n>]`. Every other argument of a capture is
//! fixed by its row, so any other flag is a usage error (exit 2). Each
//! capture goes to a temporary file that replaces the old one only when its
//! binary succeeds; a failing binary stops the run with exit status 1.

use bench::captures::{results_dir, Capture, CAPTURES};
use bench::progress::Progress;
use bench::RunArgs;
use std::path::Path;
use std::process::Command;

const USAGE: &str = "usage: repro-all [--jobs <n>]";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{USAGE}");
        return;
    }
    let args = RunArgs::parse(argv).unwrap_or_else(|msg| usage_error(&msg));
    let jobs = args.jobs;
    let only_jobs = RunArgs {
        jobs,
        ..RunArgs::default()
    };
    if args != only_jobs {
        usage_error("repro-all accepts only --jobs; each capture's other arguments are fixed");
    }
    let exe = std::env::current_exe().expect("current exe");
    let bin_dir = exe.parent().expect("bin dir");
    let results = results_dir();
    let progress = Progress::new("repro-all", CAPTURES.len());
    for c in CAPTURES {
        if let Err(msg) = regenerate(c, bin_dir, &results, jobs) {
            eprintln!("repro-all: {msg}");
            std::process::exit(1);
        }
        progress.cell_done(&format!("results/{}", c.file));
    }
    progress.finish(jobs);
}

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2)
}

/// Run one capture's binary into `results/<file>.tmp` and rename it over
/// `results/<file>` if the binary succeeds.
fn regenerate(c: &Capture, bin_dir: &Path, results: &Path, jobs: usize) -> Result<(), String> {
    let path = results.join(c.file);
    let tmp = results.join(format!("{}.tmp", c.file));
    let out =
        std::fs::File::create(&tmp).map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
    let status = Command::new(bin_dir.join(c.bin))
        .args(c.args.split_whitespace())
        .args(["--jobs", &jobs.to_string()])
        .stdout(out)
        .status();
    match status {
        Ok(s) if s.success() => std::fs::rename(&tmp, &path)
            .map_err(|e| format!("cannot replace {}: {e}", path.display())),
        Ok(s) => {
            let _ = std::fs::remove_file(&tmp);
            Err(format!("{} (for {}) exited with {s}", c.bin, c.file))
        }
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(format!("failed to run {}: {e}", c.bin))
        }
    }
}
