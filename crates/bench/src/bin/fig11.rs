//! Figure 11: STP improvement over non-preemptive FCFS when LUD is
//! co-scheduled with each other benchmark.
//!
//! Paper averages: switch 16.5 %, drain 36.6 %, flush 31.4 %, Chimera 41.7 %.

use bench::report::{f1, f2};
use bench::scenarios::{multiprog_matrix, multiprog_suite, write_observability};
use bench::{RunArgs, Table};
use chimera::policy::Policy;
use chimera::runner::cluster::imbalance;

fn main() {
    let args = RunArgs::from_env();
    let suite = multiprog_suite(&args);
    let policies = Policy::paper_lineup(30.0);
    eprintln!("fig11: running LUD x 13 partners x (FCFS + 4 policies) ...");
    let m = multiprog_matrix(&suite, &policies, &args);
    println!("Figure 11: STP improvement (%) over non-preemptive FCFS\n");
    let mut t = Table::new(&["workload", "Switch", "Drain", "Flush", "Chimera"]);
    let mut sums = [0.0f64; 4];
    for (fcfs, per_policy) in &m.rows {
        let v: Vec<f64> = per_policy
            .iter()
            .map(|p| 100.0 * (p.stp - fcfs.stp) / fcfs.stp)
            .collect();
        for (s, x) in sums.iter_mut().zip(&v) {
            *s += x;
        }
        t.row(vec![
            format!("LUD/{}", fcfs.other),
            f1(v[0]),
            f1(v[1]),
            f1(v[2]),
            f1(v[3]),
        ]);
    }
    let n = m.rows.len() as f64;
    t.row(vec![
        "average".into(),
        f1(sums[0] / n),
        f1(sums[1] / n),
        f1(sums[2] / n),
        f1(sums[3] / n),
    ]);
    print!("{t}");
    println!("\npaper averages: switch 16.5, drain 36.6, flush 31.4, chimera 41.7");

    // Cluster appendix under `--devices N` (N>1): the 13 pairs are
    // independent jobs, so a multi-GPU deployment places each pair on one
    // device (Chimera scheduling below, placement above). Reported per
    // device: placed pairs, aggregate Chimera STP, and the inter-device
    // imbalance `(max - min) / mean` of per-device STP. Round-robin places
    // by row order, least-loaded greedily levels cumulative STP, and
    // tenant-affine keys on the partner benchmark name.
    if args.devices > 1 {
        let chim = m.policies.len() - 1; // Chimera is the lineup's last column
        let mut dev_stp = vec![0.0f64; args.devices];
        let mut dev_pairs = vec![Vec::new(); args.devices];
        for (i, (fcfs, per_policy)) in m.rows.iter().enumerate() {
            let stp = per_policy[chim].stp;
            let key = fcfs
                .other
                .bytes()
                .fold(0usize, |h, b| h.wrapping_mul(31).wrapping_add(b as usize));
            let d = args.placement.pick(i, key, &dev_stp);
            dev_stp[d] += stp;
            dev_pairs[d].push(fcfs.other.clone());
        }
        println!(
            "\nmulti-device placement of the {} pairs across {} devices ({})\n",
            m.rows.len(),
            args.devices,
            args.placement.name()
        );
        let mut t = Table::new(&["device", "pairs", "sum STP", "workloads"]);
        for (d, stp) in dev_stp.iter().enumerate() {
            t.row(vec![
                d.to_string(),
                dev_pairs[d].len().to_string(),
                f2(*stp),
                dev_pairs[d].join(","),
            ]);
        }
        print!("{t}");
        println!("\ninter-device STP imbalance: {}", f2(imbalance(&dev_stp)));
    }
    write_observability(&args, &suite, 30.0);
}
