//! SM partitioning policies.
//!
//! The paper keeps the partitioning policy orthogonal to preemption (§3.1):
//! "An SM partitioning policy in the kernel scheduler tells how many SMs each
//! kernel will run on" — it may depend on kernel characteristics (Adriaens et
//! al.'s spatial multitasking) or priorities (Tanasic et al.). Chimera then
//! *realises* whatever partition the policy asks for. The evaluation uses a
//! mix of Smart-Even and Rounds: even shares, except that size-bound kernels
//! yield their unused share.

use std::fmt;

use gpu_sim::{Engine, KernelId};

/// How SMs are divided among concurrently running jobs.
///
/// ```
/// use chimera::partition::PartitionPolicy;
///
/// // Job 1 is size-bound at 3 SMs; Smart-Even donates its unused share.
/// let shares = PartitionPolicy::SmartEven.shares(30, &[100, 3]);
/// assert_eq!(shares, vec![27, 3]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionPolicy {
    /// Plain even split; surplus SMs of size-bound jobs stay idle.
    Even,
    /// Even split, with unused share donated to jobs that can use it —
    /// the paper's evaluation policy (§4: "SMs are distributed evenly across
    /// the kernels except when the kernel requires less SMs").
    SmartEven,
    /// Shares proportional to the given weights (normalised), each capped by
    /// the job's demand; leftovers are donated greedily by weight.
    Proportional(Vec<f64>),
    /// One job is prioritised: it receives min(total, demand) SMs first and
    /// the rest share evenly (priority-based scheduling à la Tanasic et al.).
    Priority(usize),
}

impl fmt::Display for PartitionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionPolicy::Even => f.write_str("even"),
            PartitionPolicy::SmartEven => f.write_str("smart-even"),
            PartitionPolicy::Proportional(w) => write!(f, "proportional{w:?}"),
            PartitionPolicy::Priority(j) => write!(f, "priority(job {j})"),
        }
    }
}

impl PartitionPolicy {
    /// Compute the desired SM share per job given each job's *demand* (the
    /// number of SMs its remaining blocks can occupy).
    ///
    /// Invariants: `sum(shares) <= total`, `shares[i] <= demands[i]`, and no
    /// SM is left idle while some job has unmet demand (except under `Even`,
    /// which deliberately strands surplus).
    ///
    /// # Panics
    ///
    /// Panics if `demands` is empty, or if a `Proportional` weight vector has
    /// the wrong length or non-positive entries, or a `Priority` index is out
    /// of range.
    pub fn shares(&self, total: usize, demands: &[usize]) -> Vec<usize> {
        assert!(!demands.is_empty(), "at least one job required");
        let n = demands.len();
        match self {
            PartitionPolicy::Even => {
                let base = total / n;
                demands.iter().map(|&d| d.min(base)).collect()
            }
            PartitionPolicy::SmartEven => {
                let base = total / n;
                let mut shares: Vec<usize> = demands.iter().map(|&d| d.min(base)).collect();
                donate_leftovers(total, demands, &mut shares, &(0..n).collect::<Vec<_>>());
                shares
            }
            PartitionPolicy::Proportional(weights) => {
                assert_eq!(weights.len(), n, "one weight per job");
                assert!(weights.iter().all(|&w| w > 0.0), "weights must be positive");
                let wsum: f64 = weights.iter().sum();
                let mut shares: Vec<usize> = weights
                    .iter()
                    .zip(demands)
                    .map(|(&w, &d)| ((total as f64 * w / wsum).floor() as usize).min(d))
                    .collect();
                let mut order: Vec<usize> = (0..n).collect();
                order.sort_by(|&a, &b| weights[b].total_cmp(&weights[a]));
                donate_leftovers(total, demands, &mut shares, &order);
                shares
            }
            PartitionPolicy::Priority(p) => {
                assert!(*p < n, "priority job index out of range");
                // Anti-starvation floor: "starvation can also be avoided by
                // scheduling at least one SM to each available kernel"
                // (§2.1) — every job with demand keeps one SM even when a
                // priority job could consume the whole GPU.
                let floor: usize = (0..n)
                    .filter(|&i| i != *p && demands[i] > 0)
                    .count()
                    .min(total);
                let mut shares = vec![0usize; n];
                shares[*p] = demands[*p].min(total - floor);
                let rest = total - shares[*p];
                let others: Vec<usize> = (0..n).filter(|i| i != p).collect();
                if !others.is_empty() {
                    let base = rest / others.len();
                    for &i in &others {
                        shares[i] = demands[i].min(base.max(1));
                    }
                    donate_leftovers(total, demands, &mut shares, &others);
                }
                shares
            }
        }
    }
}

/// Demand in SMs of a job whose current kernel is `kernel`: the SMs its
/// unfinished blocks would fill at the kernel's occupancy, 0 for no kernel
/// or a finished one. Size-bound kernels demand fewer SMs than an even
/// share, which is what [`PartitionPolicy::shares`] donates.
pub(crate) fn demand(engine: &Engine, kernel: Option<KernelId>) -> usize {
    let Some(k) = kernel else { return 0 };
    let stats = engine.kernel_stats(k);
    if stats.finished {
        return 0;
    }
    let unfinished = u64::from(stats.grid_blocks - stats.completed_tbs);
    let occ = u64::from(engine.kernel_occupancy(k)).max(1);
    usize::try_from(unfinished.div_ceil(occ)).expect("per-kernel SM demand exceeds usize")
}

/// Give unassigned SMs to jobs (in `order`) that still have unmet demand.
fn donate_leftovers(total: usize, demands: &[usize], shares: &mut [usize], order: &[usize]) {
    let mut left = total - shares.iter().sum::<usize>();
    for &i in order.iter() {
        if left == 0 {
            break;
        }
        let want = demands[i].saturating_sub(shares[i]).min(left);
        shares[i] += want;
        left -= want;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_strands_surplus() {
        let s = PartitionPolicy::Even.shares(30, &[100, 3]);
        assert_eq!(s, vec![15, 3]);
    }

    #[test]
    fn smart_even_donates_unused_share() {
        // The paper's policy: job 1 is size-bound at 3 SMs; job 0 takes 27.
        let s = PartitionPolicy::SmartEven.shares(30, &[100, 3]);
        assert_eq!(s, vec![27, 3]);
    }

    #[test]
    fn smart_even_is_even_when_both_saturate() {
        let s = PartitionPolicy::SmartEven.shares(30, &[100, 100]);
        assert_eq!(s, vec![15, 15]);
    }

    #[test]
    fn proportional_respects_weights_and_demand() {
        let s = PartitionPolicy::Proportional(vec![2.0, 1.0]).shares(30, &[100, 100]);
        assert_eq!(s, vec![20, 10]);
        let s = PartitionPolicy::Proportional(vec![2.0, 1.0]).shares(30, &[4, 100]);
        assert_eq!(s, vec![4, 26], "capped by demand, leftover donated");
    }

    #[test]
    fn priority_takes_all_it_needs_but_never_starves() {
        let s = PartitionPolicy::Priority(1).shares(30, &[100, 22]);
        assert_eq!(s, vec![8, 22]);
        // The anti-starvation floor (paper §2.1): the background job keeps
        // one SM even under a greedy priority job.
        let s = PartitionPolicy::Priority(0).shares(30, &[100, 22]);
        assert_eq!(s, vec![29, 1]);
        // With no background demand, the priority job takes everything.
        let s = PartitionPolicy::Priority(0).shares(30, &[100, 0]);
        assert_eq!(s, vec![30, 0]);
    }

    #[test]
    fn shares_never_exceed_total_or_demand() {
        let policies = [
            PartitionPolicy::Even,
            PartitionPolicy::SmartEven,
            PartitionPolicy::Proportional(vec![1.0, 3.0, 2.0]),
            PartitionPolicy::Priority(2),
        ];
        for policy in policies {
            for demands in [[0usize, 5, 9], [30, 30, 30], [1, 0, 50], [7, 7, 7]] {
                let s = policy.shares(30, &demands);
                assert!(s.iter().sum::<usize>() <= 30, "{policy}: {s:?}");
                for (i, &x) in s.iter().enumerate() {
                    assert!(x <= demands[i], "{policy}: {s:?} vs {demands:?}");
                }
            }
        }
    }

    #[test]
    fn no_stranding_with_unmet_demand_under_smart_even() {
        for demands in [[20usize, 20], [30, 1], [2, 40], [16, 16]] {
            let s = PartitionPolicy::SmartEven.shares(30, &demands);
            let used: usize = s.iter().sum();
            let unmet: usize = demands
                .iter()
                .zip(&s)
                .map(|(&d, &x)| d.saturating_sub(x))
                .sum();
            assert!(
                used == 30 || unmet == 0,
                "stranded SMs: {s:?} for {demands:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "one weight per job")]
    fn proportional_checks_weight_length() {
        PartitionPolicy::Proportional(vec![1.0]).shares(30, &[1, 2]);
    }

    #[test]
    fn display_names() {
        assert_eq!(PartitionPolicy::Even.to_string(), "even");
        assert_eq!(PartitionPolicy::SmartEven.to_string(), "smart-even");
        assert!(PartitionPolicy::Priority(0)
            .to_string()
            .contains("priority"));
    }
}
