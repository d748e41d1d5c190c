//! Per-layer readings shared by the workloads: set-up spans, and the counts
//! a traced pass reads back from each engine's statistics and event log.

use crate::host::{median, Spans};
use crate::Metric;
use chimera::obs::KernelAccuracy;
use gpu_sim::{Engine, GpuConfig, KernelId, Technique};
use workloads::{Suite, SuiteOptions};

/// Spans around the build of the suite `opts` describes and around the
/// idempotence instrumentation of its kernels, as medians over repetitions.
pub fn setup_spans(spans: &mut Spans, opts: SuiteOptions) -> Vec<Metric> {
    const REPS: usize = 50;
    let plain = SuiteOptions {
        instrumented: false,
        ..opts
    };
    let kernels: Vec<_> = Suite::with_options(GpuConfig::fermi(), plain)
        .benchmarks()
        .iter()
        .flat_map(|b| b.launches().iter().cloned())
        .collect();
    for _ in 0..REPS {
        spans.span("workloads.suite_build", |_| {
            std::hint::black_box(Suite::with_options(GpuConfig::fermi(), opts));
        });
        spans.span("idem.instrument", |_| {
            for k in &kernels {
                std::hint::black_box(idem::instrument_kernel(k));
            }
        });
    }
    vec![
        (
            "workloads.suite_build_us",
            median(&spans.durations_us("workloads.suite_build")),
        ),
        (
            "idem.instrument_us",
            median(&spans.durations_us("idem.instrument")),
        ),
    ]
}

/// Engine, SM, memory, preemption and event-log counts summed over the
/// engines of a traced pass, added one engine at a time so a pass never
/// holds more than one.
#[derive(Debug, Default)]
pub struct EngineCounts {
    preempt_requests: u64,
    decisions: u64,
    estimator_updates: u64,
    dropped_events: u64,
    techniques: [u64; 3],
    wasted_flush_insts: u64,
    blocks_completed: u64,
    partition_bytes: Vec<u64>,
    requests_retired: u64,
    warp_insts: u64,
    accuracy: Vec<KernelAccuracy>,
}

impl EngineCounts {
    /// Add one finished engine, which must have its event log enabled.
    pub fn add(&mut self, engine: &Engine) {
        let log = engine.event_log().expect("traced runs log events");
        self.dropped_events += log.dropped();
        let mut last_kernel = None;
        for ev in log.iter() {
            match ev.kind() {
                "preempt_requested" => self.preempt_requests += 1,
                "decision" => self.decisions += 1,
                "estimator_update" => self.estimator_updates += 1,
                _ => {}
            }
            if ev.kernel() != KernelId::NONE {
                last_kernel = last_kernel.max(Some(ev.kernel().0));
            }
        }
        for rec in engine.preempt_records() {
            for t in &rec.techniques {
                self.techniques[match t {
                    Technique::Switch => 0,
                    Technique::Drain => 1,
                    Technique::Flush => 2,
                }] += 1;
            }
        }
        // Kernel ids are dense from 0; the log names the last one launched.
        if let Some(last) = last_kernel {
            for k in 0..=last {
                let s = engine.kernel_stats(KernelId(k));
                self.blocks_completed += u64::from(s.completed_tbs);
                self.wasted_flush_insts += s.wasted_flush_insts;
            }
        }
        let parts = engine.mem_partition_stats();
        if self.partition_bytes.len() < parts.len() {
            self.partition_bytes.resize(parts.len(), 0);
        }
        for (acc, p) in self.partition_bytes.iter_mut().zip(&parts) {
            *acc += p.bytes_served;
            self.requests_retired += p.requests_retired;
        }
        self.warp_insts += engine.gpu_stats().total_issued_insts;
    }

    /// Add drain-estimate accuracy for the engine's drained blocks.
    pub fn add_accuracy(&mut self, accuracy: Vec<KernelAccuracy>) {
        self.accuracy.extend(accuracy);
    }

    /// Events the traced runs' rings dropped (0 for a sound reading).
    pub fn dropped_events(&self) -> u64 {
        self.dropped_events
    }

    /// The per-layer metrics these counts give.
    pub fn metrics(&self) -> Vec<Metric> {
        let bytes: u64 = self.partition_bytes.iter().sum();
        let mean = bytes as f64 / self.partition_bytes.len().max(1) as f64;
        let max = self.partition_bytes.iter().copied().max().unwrap_or(0) as f64;
        let samples: usize = self.accuracy.iter().map(|k| k.samples).sum();
        let mare = self
            .accuracy
            .iter()
            .map(|k| k.mean_abs_err_pct * k.samples as f64)
            .sum::<f64>()
            / samples.max(1) as f64;
        vec![
            ("preempt.sm_requests", self.preempt_requests as f64),
            ("preempt.blocks_switched", self.techniques[0] as f64),
            ("preempt.blocks_drained", self.techniques[1] as f64),
            ("preempt.blocks_flushed", self.techniques[2] as f64),
            ("preempt.wasted_flush_insts", self.wasted_flush_insts as f64),
            ("select.decisions", self.decisions as f64),
            ("cost.estimator_updates", self.estimator_updates as f64),
            ("cost.drain_mare_pct", mare),
            ("sm.blocks_completed", self.blocks_completed as f64),
            ("mem.bytes_served", bytes as f64),
            ("mem.requests_retired", self.requests_retired as f64),
            (
                "mem.partition_skew",
                if mean > 0.0 { max / mean } else { 0.0 },
            ),
            (
                "mem.bytes_per_warp_inst",
                bytes as f64 / self.warp_insts.max(1) as f64,
            ),
        ]
    }
}
