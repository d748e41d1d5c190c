//! Post-run analysis of the observability event log.
//!
//! The engine's [event log](gpu_sim::EventLog) records every Algorithm 1
//! decision *with the estimates that produced it* and, later, the actual
//! fate of each block. This module joins the two: for every block the
//! algorithm chose to **drain**, it pairs the predicted drain latency (the
//! §3.2 cost model output) with the cycles the block actually took to finish
//! after the decision, grouped per kernel. This is the quantitative check
//! behind the paper's claim that the drain estimator is accurate enough to
//! steer technique selection (§3.2, Figure 12 discussion) — and the data
//! source for the `est-accuracy` bench binary.

use gpu_sim::{BlockExit, Engine, GpuConfig, ObsEvent, Technique};
use std::collections::{BTreeMap, HashMap};

/// Predicted-vs-actual drain latency for one kernel.
///
/// Produced by [`drain_accuracy`]; one entry aggregates every block of the
/// kernel that Algorithm 1 decided to drain and that subsequently completed.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelAccuracy {
    /// Kernel name, normalised across repeated launches (`LUD.0#3` → `LUD.0`).
    pub kernel: String,
    /// Drained blocks with both a prediction and an observed completion.
    pub samples: usize,
    /// Mean predicted drain latency, µs.
    pub mean_est_us: f64,
    /// Mean observed drain latency (decision → block completion), µs.
    pub mean_actual_us: f64,
    /// Mean of the per-block absolute relative error, percent
    /// (`|est − actual| / actual`, actual clamped to ≥ 1 cycle).
    pub mean_abs_err_pct: f64,
}

/// Join drain *decisions* with the eventual block completions in the
/// engine's event log and report per-kernel estimator accuracy.
///
/// Returns one [`KernelAccuracy`] per kernel, sorted by kernel name; kernels
/// whose drained blocks never completed inside the log's window (or whose
/// begin/end events were evicted from the ring) contribute no samples and
/// are omitted. Returns an empty vector when the event log is disabled.
///
/// ```
/// use chimera::obs::drain_accuracy;
/// use chimera::policy::Policy;
/// use chimera::runner::periodic::{run_periodic_traced, PeriodicConfig};
/// use workloads::Suite;
///
/// let suite = Suite::standard();
/// let cfg = suite.config();
/// let pcfg = PeriodicConfig::paper_default(cfg).horizon_us(2_000.0);
/// let (_, engine) = run_periodic_traced(
///     cfg,
///     suite.require("BS"),
///     Policy::chimera_us(15.0),
///     &pcfg,
///     1 << 18,
/// );
/// for k in drain_accuracy(&engine) {
///     assert!(k.samples > 0);
///     assert!(k.mean_actual_us > 0.0);
///     assert!(k.mean_abs_err_pct.is_finite());
/// }
/// ```
pub fn drain_accuracy(engine: &Engine) -> Vec<KernelAccuracy> {
    let Some(log) = engine.event_log() else {
        return Vec::new();
    };
    let mut tracker = DrainTracker::new();
    for ev in log.iter() {
        match *ev {
            ObsEvent::Decision {
                cycle,
                sm,
                kernel,
                decision,
                ..
            } if decision.chosen == Technique::Drain => {
                if let Some(est) = decision.est_drain {
                    tracker.note_decision(sm, kernel.0, decision.block, cycle, est.latency_cycles);
                }
            }
            ObsEvent::BlockEnd {
                cycle,
                sm,
                kernel,
                block,
                exit: BlockExit::Completed,
                ..
            } => {
                let name = crate::runner::periodic_name(&engine.kernel_stats(kernel).name);
                tracker.note_completion(name, sm, kernel.0, block, cycle);
            }
            _ => {}
        }
    }
    tracker.per_kernel(engine.config())
}

/// One drained block's predicted-vs-actual latency, joined incrementally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainSample {
    /// Normalised kernel name (`LUD.0#3` → `LUD.0`).
    pub kernel: String,
    /// Cycle Algorithm 1 decided to drain the block.
    pub decided_at: u64,
    /// Predicted drain latency at decision time, cycles.
    pub est_cycles: u64,
    /// Observed decision-to-completion latency, cycles.
    pub actual_cycles: u64,
}

impl DrainSample {
    /// Absolute relative error of the prediction, percent (actual clamped to
    /// ≥ 1 cycle so a same-cycle completion cannot divide by zero).
    pub fn abs_err_pct(&self) -> f64 {
        let a = self.actual_cycles.max(1) as f64;
        100.0 * ((self.est_cycles as f64) - a).abs() / a
    }
}

/// Incremental join of drain decisions with block completions.
///
/// The post-mortem [`drain_accuracy`] needs the full event log alive at the
/// end of the run, so long runs lose samples to ring eviction and the
/// estimator's error is only known after the fact. A `DrainTracker` is fed
/// *as the run progresses* — [`note_decision`](Self::note_decision) when
/// Algorithm 1 picks drain, [`note_completion`](Self::note_completion) on
/// every block completion — and accumulates joined samples in completion
/// order, bounded by the number of drained blocks rather than the log
/// capacity. Every runner's preemption executor carries one: the periodic
/// runner returns its samples in
/// [`PeriodicResult`](crate::runner::periodic::PeriodicResult), which is what
/// the `est-accuracy` binary reports live-vs-static error from, and
/// [`GpuScheduler::drain_samples`](crate::GpuScheduler::drain_samples)
/// exposes the serving runs' join.
#[derive(Debug, Clone, Default)]
pub struct DrainTracker {
    /// (sm, kernel, block) -> (decision cycle, predicted drain cycles).
    pending: HashMap<(usize, usize, u32), (u64, u64)>,
    samples: Vec<DrainSample>,
}

impl DrainTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a drain decision for `block` of kernel index `kernel` on `sm`,
    /// predicted to finish in `est_cycles`.
    pub fn note_decision(
        &mut self,
        sm: usize,
        kernel: usize,
        block: u32,
        cycle: u64,
        est_cycles: u64,
    ) {
        self.pending
            .insert((sm, kernel, block), (cycle, est_cycles));
    }

    /// Record a block completion; joins with a pending drain decision for the
    /// same (sm, kernel, block) if one exists, otherwise does nothing.
    pub fn note_completion(
        &mut self,
        kernel_name: &str,
        sm: usize,
        kernel: usize,
        block: u32,
        cycle: u64,
    ) {
        // Most completions join nothing; skip the hash when nothing waits.
        if self.pending.is_empty() {
            return;
        }
        if let Some((t0, est)) = self.pending.remove(&(sm, kernel, block)) {
            self.samples.push(DrainSample {
                kernel: kernel_name.to_string(),
                decided_at: t0,
                est_cycles: est,
                actual_cycles: cycle.saturating_sub(t0),
            });
        }
    }

    /// Joined samples so far, in completion order.
    pub fn samples(&self) -> &[DrainSample] {
        &self.samples
    }

    /// Consume the tracker, keeping the joined samples (pending decisions
    /// whose blocks never completed are dropped, as in the post-mortem join).
    pub fn into_samples(self) -> Vec<DrainSample> {
        self.samples
    }

    /// Drain decisions still waiting for their block to complete.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Aggregate the joined samples per kernel, sorted by kernel name.
    pub fn per_kernel(&self, cfg: &GpuConfig) -> Vec<KernelAccuracy> {
        accuracy_per_kernel(cfg, &self.samples)
    }
}

/// Aggregate drain samples into per-kernel accuracy, sorted by kernel name.
pub fn accuracy_per_kernel(cfg: &GpuConfig, samples: &[DrainSample]) -> Vec<KernelAccuracy> {
    let mut grouped: BTreeMap<&str, Vec<&DrainSample>> = BTreeMap::new();
    for s in samples {
        grouped.entry(&s.kernel).or_default().push(s);
    }
    grouped
        .into_iter()
        .filter(|(_, group)| !group.is_empty())
        .map(|(kernel, group)| {
            let n = group.len() as f64;
            let mean_est = group.iter().map(|s| s.est_cycles as f64).sum::<f64>() / n;
            let mean_actual = group.iter().map(|s| s.actual_cycles as f64).sum::<f64>() / n;
            let mean_abs_err_pct = group.iter().map(|s| s.abs_err_pct()).sum::<f64>() / n;
            KernelAccuracy {
                kernel: kernel.to_string(),
                samples: group.len(),
                mean_est_us: cfg.cycles_to_us(mean_est.round() as u64),
                mean_actual_us: cfg.cycles_to_us(mean_actual.round() as u64),
                mean_abs_err_pct,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;
    use crate::runner::periodic::{run_periodic_traced, PeriodicConfig};
    use workloads::Suite;

    #[test]
    fn tracker_joins_decisions_with_completions() {
        let cfg = gpu_sim::GpuConfig::fermi();
        let mut tr = DrainTracker::new();
        // Completion without a pending decision: ignored.
        tr.note_completion("K", 0, 0, 7, 500);
        assert!(tr.samples().is_empty());
        tr.note_decision(0, 0, 7, 1_000, 800);
        tr.note_decision(1, 0, 9, 1_000, 4_000);
        assert_eq!(tr.pending_len(), 2);
        tr.note_completion("K", 0, 0, 7, 2_000);
        // Wrong SM: block 9 on SM 0 is not block 9 on SM 1.
        tr.note_completion("K", 0, 0, 9, 2_500);
        assert_eq!(tr.pending_len(), 1);
        tr.note_completion("K", 1, 0, 9, 4_500);
        assert_eq!(tr.pending_len(), 0);
        let s = tr.samples();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].actual_cycles, 1_000);
        assert_eq!(s[0].est_cycles, 800);
        assert!((s[0].abs_err_pct() - 20.0).abs() < 1e-9);
        let agg = accuracy_per_kernel(&cfg, tr.samples());
        assert_eq!(agg.len(), 1);
        assert_eq!(agg[0].kernel, "K");
        assert_eq!(agg[0].samples, 2);
        // Mean err: (20% + |4000-3500|/3500)%... per-sample: 20 and 14.285..
        assert!((agg[0].mean_abs_err_pct - (20.0 + 100.0 * 500.0 / 3500.0) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn disabled_log_yields_empty_report() {
        let suite = Suite::standard();
        let cfg = suite.config();
        let pcfg = PeriodicConfig::paper_default(cfg).horizon_us(1_000.0);
        let (_, engine) =
            run_periodic_traced(cfg, suite.require("BS"), Policy::chimera_us(15.0), &pcfg, 0);
        assert!(engine.event_log().is_none());
        assert!(drain_accuracy(&engine).is_empty());
    }

    #[test]
    fn chimera_on_bs_produces_drain_samples() {
        // BS has long blocks: Chimera drains the nearly-finished ones, so the
        // log must contain drain decisions that later complete.
        let suite = Suite::standard();
        let cfg = suite.config();
        let pcfg = PeriodicConfig::paper_default(cfg).horizon_us(4_000.0);
        let (_, engine) = run_periodic_traced(
            cfg,
            suite.require("BS"),
            Policy::chimera_us(15.0),
            &pcfg,
            1 << 18,
        );
        let report = drain_accuracy(&engine);
        assert!(!report.is_empty(), "chimera on BS must drain some blocks");
        for k in &report {
            assert!(k.samples > 0);
            assert!(k.mean_est_us > 0.0);
            assert!(k.mean_actual_us > 0.0);
            assert!(k.mean_abs_err_pct.is_finite());
        }
    }

    #[test]
    fn report_is_deterministic() {
        let suite = Suite::standard();
        let cfg = suite.config();
        let pcfg = PeriodicConfig::paper_default(cfg).horizon_us(2_000.0);
        let run = || {
            let (_, engine) = run_periodic_traced(
                cfg,
                suite.require("BS"),
                Policy::chimera_us(15.0),
                &pcfg,
                1 << 18,
            );
            drain_accuracy(&engine)
        };
        assert_eq!(run(), run());
    }
}
