//! Rendering of the Table 2 idempotence column as *derived* by the `idem`
//! dataflow analysis, with per-kernel breaking sites and provenance.
//!
//! Shared between the `idem-report` binary (which regenerates
//! `results/table2_idem.txt`) and the golden-file test that pins the
//! checked-in capture — the analysis result is a pure function of the suite,
//! so the file must reproduce bit-for-bit.

use crate::report::f2;
use crate::Table;
use workloads::{build_program, Suite};

/// Render the full idempotence report for a suite.
///
/// One row per Table 2 kernel: the declared access pattern, the derived
/// classification, the idempotent fraction of the block (how long the
/// *relaxed* condition keeps it flushable), and each breaking site with the
/// read it clobbers. The final lines restate the paper's §2.3 split.
pub fn render(suite: &Suite) -> String {
    let cfg = suite.config();
    let mut out = String::new();
    out.push_str("Table 2 idempotence column, derived by dataflow analysis\n");
    out.push_str("(sites name the earliest read each overwrite clobbers)\n\n");
    let mut t = Table::new(&[
        "kernel",
        "access pattern",
        "derived",
        "idem frac",
        "insts to 1st site",
        "sites",
    ]);
    let mut idem_count = 0;
    for spec in suite.specs() {
        let program = build_program(cfg, spec);
        let report = idem::analyze(&program);
        if report.strict_idempotent {
            idem_count += 1;
        }
        let sites = if report.sites.is_empty() {
            "-".to_string()
        } else {
            report
                .sites
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join("; ")
        };
        t.row(vec![
            spec.label(),
            spec.access.to_string(),
            if report.strict_idempotent {
                "Yes".into()
            } else {
                "No".into()
            },
            f2(report.idempotent_fraction),
            format!("{}/{}", report.insts_before_first_site, report.total_insts),
            sites,
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nderived split: {idem_count}/{} idempotent (paper \u{a7}2.3: 12/27)\n",
        suite.specs().len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_split_is_twelve_of_twenty_seven() {
        let s = render(&Suite::standard());
        assert!(s.contains("derived split: 12/27 idempotent"), "{s}");
    }

    #[test]
    fn report_names_provenance_for_in_place_kernels() {
        let s = render(&Suite::standard());
        assert!(s.contains("overwrites read of seg 0"), "{s}");
    }

    #[test]
    fn golden_file_matches_render() {
        // Regenerate with the `repro-all` binary (`bench::captures`).
        let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/table2_idem.txt");
        let want = std::fs::read_to_string(golden)
            .expect("results/table2_idem.txt is checked in; regenerate with repro-all");
        assert_eq!(
            render(&Suite::standard()),
            want,
            "idem-report drifted from results/table2_idem.txt; \
             regenerate it if the change is intended"
        );
    }
}
