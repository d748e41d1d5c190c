//! Open-loop serving front-end: arrivals, admission control, SLO metrics.
//!
//! The periodic and multiprogramming runners are *closed-loop*: the next
//! kernel launches when the previous one finishes, so offered load can never
//! exceed capacity and overload behaviour is invisible. This runner replays
//! an *open-loop* request stream — arrivals keep coming whether or not the
//! GPU keeps up — through an admission controller and a fair dispatcher onto
//! a [`GpuScheduler`], and reports serving metrics (deadline-slack
//! percentiles, goodput versus offered load, per-tenant outcomes).
//!
//! Everything is a pure function of the config: arrival times, tenant and
//! class assignments, and admission decisions are all derived from
//! counter-based hashes of the seed, so a sweep parallelised across worker
//! threads is byte-identical to a serial one.

use crate::cost::EstimatorConfig;
use crate::partition::PartitionPolicy;
use crate::policy::Policy;
use crate::runner::cluster::{device_builder, run_serve_devices, Placement};
use crate::runner::RunCommon;
use crate::scheduler::GpuScheduler;
use gpu_sim::rng::{hash_combine, unit_f64};
use gpu_sim::GpuConfig;
use workloads::ServeWorkload;

/// Hash salts separating the independent random streams of a serve run.
const SALT_GAP: u64 = 0x5EAF_00D1;
const SALT_SOJOURN: u64 = 0x5EAF_00D2;
const SALT_THIN: u64 = 0x5EAF_00D3;
pub(crate) const SALT_TENANT: u64 = 0x5EAF_00D4;
pub(crate) const SALT_CLASS: u64 = 0x5EAF_00D5;

/// An arrival process: when requests reach the front door.
///
/// [`generate`](Self::generate) is a pure function of `(self, seed,
/// horizon)`: every draw is a counter-based hash, so the stream does not
/// depend on evaluation order or worker-thread count.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at a constant mean rate.
    Poisson {
        /// Mean arrival rate, requests per millisecond.
        rate_per_ms: f64,
    },
    /// A two-state Markov-modulated Poisson process: calm stretches
    /// punctuated by bursts, each state holding for an exponentially
    /// distributed sojourn.
    Bursty {
        /// Arrival rate in the calm state, requests per millisecond.
        calm_per_ms: f64,
        /// Arrival rate in the burst state, requests per millisecond.
        burst_per_ms: f64,
        /// Mean sojourn in the calm state, µs.
        mean_calm_us: f64,
        /// Mean sojourn in the burst state, µs.
        mean_burst_us: f64,
    },
    /// A sinusoidally modulated rate mimicking a compressed day/night
    /// cycle, sampled by thinning a max-rate Poisson stream.
    Diurnal {
        /// Mean arrival rate, requests per millisecond.
        mean_per_ms: f64,
        /// Peak-to-mean rate swing in `[0, 1]`: the instantaneous rate is
        /// `mean · (1 + amplitude · sin(2πt / period))`.
        relative_amplitude: f64,
        /// Cycle period, µs.
        period_us: f64,
    },
}

impl ArrivalProcess {
    /// Constant-rate Poisson arrivals.
    pub fn poisson(rate_per_ms: f64) -> Self {
        ArrivalProcess::Poisson { rate_per_ms }
    }

    /// Time-averaged arrival rate, requests per millisecond.
    pub fn mean_rate_per_ms(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_per_ms } => rate_per_ms,
            ArrivalProcess::Bursty {
                calm_per_ms,
                burst_per_ms,
                mean_calm_us,
                mean_burst_us,
            } => {
                (calm_per_ms * mean_calm_us + burst_per_ms * mean_burst_us)
                    / (mean_calm_us + mean_burst_us)
            }
            ArrivalProcess::Diurnal { mean_per_ms, .. } => mean_per_ms,
        }
    }

    /// The same process with every rate scaled by `factor` (sojourns and
    /// the diurnal period are untouched, so the *shape* is preserved).
    pub fn scaled(&self, factor: f64) -> Self {
        match *self {
            ArrivalProcess::Poisson { rate_per_ms } => ArrivalProcess::Poisson {
                rate_per_ms: rate_per_ms * factor,
            },
            ArrivalProcess::Bursty {
                calm_per_ms,
                burst_per_ms,
                mean_calm_us,
                mean_burst_us,
            } => ArrivalProcess::Bursty {
                calm_per_ms: calm_per_ms * factor,
                burst_per_ms: burst_per_ms * factor,
                mean_calm_us,
                mean_burst_us,
            },
            ArrivalProcess::Diurnal {
                mean_per_ms,
                relative_amplitude,
                period_us,
            } => ArrivalProcess::Diurnal {
                mean_per_ms: mean_per_ms * factor,
                relative_amplitude,
                period_us,
            },
        }
    }

    /// Generate the sorted arrival times (µs, strictly within the horizon)
    /// for the given seed.
    ///
    /// Degenerate inputs give no arrivals, never a hang: a horizon that is
    /// not finite, a Poisson rate or diurnal mean that is NaN, infinite or
    /// `<= 0`, and a bursty process with a NaN, infinite or negative state
    /// rate, with no positive one, or with a NaN or non-positive mean
    /// sojourn (whose states would flip every 1e-9 µs).
    pub fn generate(&self, seed: u64, horizon_us: f64) -> Vec<f64> {
        let mut out = Vec::new();
        if !horizon_us.is_finite() {
            return out;
        }
        let usable = |rate: f64| rate.is_finite() && rate > 0.0;
        match *self {
            ArrivalProcess::Poisson { rate_per_ms } => {
                let rate = rate_per_ms / 1_000.0;
                if !usable(rate) {
                    return out;
                }
                let mut t = 0.0;
                let mut ctr = 0u64;
                loop {
                    t += exp_gap(seed, SALT_GAP, &mut ctr, rate);
                    if t >= horizon_us {
                        return out;
                    }
                    out.push(t);
                }
            }
            ArrivalProcess::Bursty {
                calm_per_ms,
                burst_per_ms,
                mean_calm_us,
                mean_burst_us,
            } => {
                let rates = [calm_per_ms / 1_000.0, burst_per_ms / 1_000.0];
                let sojourns = [mean_calm_us, mean_burst_us];
                if !rates.iter().all(|&r| usable(r) || r == 0.0)
                    || !rates.into_iter().any(usable)
                    || !sojourns.iter().all(|&m| m > 0.0)
                {
                    return out;
                }
                let mut t = 0.0;
                let mut state = 0usize;
                let mut gap_ctr = 0u64;
                let mut soj_ctr = 0u64;
                let mut seg_end = exp_gap(
                    seed,
                    SALT_SOJOURN,
                    &mut soj_ctr,
                    1.0 / sojourns[state].max(1e-9),
                );
                while t < horizon_us {
                    if rates[state] <= 0.0 {
                        t = seg_end;
                    } else {
                        let next = t + exp_gap(seed, SALT_GAP, &mut gap_ctr, rates[state]);
                        if next < seg_end {
                            t = next;
                            if t < horizon_us {
                                out.push(t);
                            }
                            continue;
                        }
                        // Memorylessness lets us discard the partial gap at
                        // the state boundary and redraw in the new state.
                        t = seg_end;
                    }
                    state = 1 - state;
                    seg_end = t + exp_gap(
                        seed,
                        SALT_SOJOURN,
                        &mut soj_ctr,
                        1.0 / sojourns[state].max(1e-9),
                    );
                }
                out
            }
            ArrivalProcess::Diurnal {
                mean_per_ms,
                relative_amplitude,
                period_us,
            } => {
                let mean = mean_per_ms / 1_000.0;
                let amp = relative_amplitude.clamp(0.0, 1.0);
                let max_rate = mean * (1.0 + amp);
                if !usable(max_rate) {
                    return out;
                }
                let mut t = 0.0;
                let mut gap_ctr = 0u64;
                let mut thin_ctr = 0u64;
                loop {
                    t += exp_gap(seed, SALT_GAP, &mut gap_ctr, max_rate);
                    if t >= horizon_us {
                        return out;
                    }
                    let rate_t = mean * (1.0 + amp * (std::f64::consts::TAU * t / period_us).sin());
                    let u = unit_f64(hash_combine(&[seed, SALT_THIN, thin_ctr]));
                    thin_ctr += 1;
                    if u < rate_t / max_rate {
                        out.push(t);
                    }
                }
            }
        }
    }
}

/// One exponential inter-event gap with the given rate (events per µs),
/// drawn from the counter-based stream `(seed, salt, *ctr)`.
fn exp_gap(seed: u64, salt: u64, ctr: &mut u64, rate_per_us: f64) -> f64 {
    let u = unit_f64(hash_combine(&[seed, salt, *ctr]));
    *ctr += 1;
    -(1.0 - u).ln() / rate_per_us
}

/// Pick an index from `weights` proportionally, using a uniform `u ∈ [0,1)`.
pub(crate) fn pick_weighted(weights: &[u32], u: f64) -> usize {
    let total: u64 = weights.iter().map(|&w| u64::from(w)).sum();
    debug_assert!(total > 0, "weights must not all be zero");
    let mut x = (u * total as f64) as u64;
    for (i, &w) in weights.iter().enumerate() {
        let w = u64::from(w);
        if x < w {
            return i;
        }
        x -= w;
    }
    weights.len() - 1
}

/// Admission-control knobs for the serving front-end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Per-tenant queue cap: an arrival finding its tenant's queue at this
    /// depth is shed with [`ShedReason::QueueFull`](gpu_sim::ShedReason::QueueFull).
    pub queue_cap: usize,
    /// Shed arrivals whose deadline is already infeasible given the queued
    /// backlog ([`ShedReason::Infeasible`](gpu_sim::ShedReason::Infeasible)); late requests are always shed
    /// at dispatch time regardless.
    pub shed_infeasible: bool,
}

impl Default for AdmissionConfig {
    /// Queue cap 64 per tenant, infeasibility shedding on.
    fn default() -> Self {
        AdmissionConfig {
            queue_cap: 64,
            shed_infeasible: true,
        }
    }
}

/// Configuration of an open-loop serving run.
///
/// ```
/// use chimera::runner::serve::{ArrivalProcess, ServeConfig};
///
/// let scfg = ServeConfig::paper_default()
///     .horizon_us(4_000.0)
///     .arrivals(ArrivalProcess::poisson(2.0))
///     .lanes(2);
/// assert_eq!(scfg.common.seed, 42);
/// assert_eq!(scfg.lanes, 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Shared runner knobs. A `common.horizon_us` that is NaN, infinite
    /// or `<= 0` simulates nothing: the run offers nothing and reports zero
    /// counts and zero rates. `common.sanitize` is not read here: only the
    /// periodic runner reads it, and
    /// `bench::scenarios::sanitized_periodic_check` inspects that runner's
    /// engine.
    pub common: RunCommon,
    /// The arrival process replayed against the front door.
    pub arrivals: ArrivalProcess,
    /// Admission-control knobs.
    pub admission: AdmissionConfig,
    /// Preemption policy; `None` means Chimera at `common.constraint_us`.
    pub policy: Option<Policy>,
    /// SM partitioning policy between lanes.
    pub partition: PartitionPolicy,
    /// Dispatch lanes: concurrently running requests (one scheduler
    /// process each). More lanes trade per-request latency for throughput.
    /// 0 runs one lane, as the [`lanes`](Self::lanes) setter clamps it.
    pub lanes: usize,
}

impl ServeConfig {
    /// Paper-style defaults: 40 ms horizon, 15 µs constraint, Poisson
    /// arrivals at 5 requests/ms, default admission, Chimera policy,
    /// Smart-Even partitioning, 4 lanes.
    pub fn paper_default() -> Self {
        ServeConfig {
            common: RunCommon::new(40_000.0, 15.0),
            arrivals: ArrivalProcess::poisson(5.0),
            admission: AdmissionConfig::default(),
            policy: None,
            partition: PartitionPolicy::SmartEven,
            lanes: 4,
        }
    }

    /// Replace the shared runner knobs wholesale.
    pub fn common(mut self, common: RunCommon) -> Self {
        self.common = common;
        self
    }

    /// Set the determinism seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.common.seed = seed;
        self
    }

    /// Set the simulated horizon, µs.
    pub fn horizon_us(mut self, horizon_us: f64) -> Self {
        self.common.horizon_us = horizon_us;
        self
    }

    /// Set the preemption latency constraint, µs.
    pub fn constraint_us(mut self, constraint_us: f64) -> Self {
        self.common.constraint_us = constraint_us;
        self
    }

    /// Set the estimator configuration.
    pub fn estimator(mut self, estimator: EstimatorConfig) -> Self {
        self.common.estimator = estimator;
        self
    }

    /// Set the arrival process.
    pub fn arrivals(mut self, arrivals: ArrivalProcess) -> Self {
        self.arrivals = arrivals;
        self
    }

    /// Set the admission-control knobs.
    pub fn admission(mut self, admission: AdmissionConfig) -> Self {
        self.admission = admission;
        self
    }

    /// Pin an explicit preemption policy (default: Chimera at the
    /// configured constraint).
    pub fn policy(mut self, policy: Policy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Set the SM partitioning policy.
    pub fn partition(mut self, partition: PartitionPolicy) -> Self {
        self.partition = partition;
        self
    }

    /// Set the number of dispatch lanes (≥ 1).
    pub fn lanes(mut self, lanes: usize) -> Self {
        self.lanes = lanes.max(1);
        self
    }

    /// The policy actually used: the pinned one, else Chimera at the
    /// configured constraint.
    pub fn effective_policy(&self) -> Policy {
        self.policy.unwrap_or(Policy::Chimera {
            limit_us: self.common.constraint_us,
        })
    }
}

/// Per-tenant outcome of a serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantOutcome {
    /// Tenant name (from the workload spec).
    pub name: String,
    /// Requests that arrived for this tenant.
    pub offered: u64,
    /// Requests admitted past admission control.
    pub admitted: u64,
    /// Requests shed (any reason).
    pub shed: u64,
    /// Requests that ran to completion within the horizon.
    pub completed: u64,
    /// Completed requests that missed their deadline.
    pub violations: u64,
    /// Average normalized turnaround time over completed requests:
    /// `(finish − arrival) / service`, the serving analogue of ANTT.
    pub antt: Option<f64>,
    /// This tenant's share of all deadline violations (0 when none
    /// occurred anywhere).
    pub violation_share: f64,
}

/// Aggregate result of an open-loop serving run.
///
/// Accounting identities: `offered = admitted + shed_queue_full +
/// shed_infeasible` and `admitted = completed + shed_late + unfinished`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeResult {
    /// Requests that arrived within the horizon.
    pub offered: u64,
    /// Requests admitted past admission control.
    pub admitted: u64,
    /// Arrivals shed because the tenant queue was at its cap.
    pub shed_queue_full: u64,
    /// Arrivals shed because the backlog made the deadline infeasible.
    pub shed_infeasible: u64,
    /// Admitted requests shed at dispatch time, already past their
    /// deadline.
    pub shed_late: u64,
    /// Requests that ran to completion within the horizon.
    pub completed: u64,
    /// Completed requests that met their deadline.
    pub deadline_met: u64,
    /// Completed requests that missed their deadline.
    pub violations: u64,
    /// Admitted requests still queued or in flight at the horizon.
    pub unfinished: u64,
    /// Offered load, requests per second.
    pub offered_per_s: f64,
    /// Goodput: deadline-meeting completions per second.
    pub goodput_per_s: f64,
    /// Median deadline slack over completed requests, µs (negative =
    /// missed).
    pub slack_p50_us: Option<f64>,
    /// 99th-percentile *worst* deadline slack, µs: 99% of completed
    /// requests had at least this much slack.
    pub slack_p99_us: Option<f64>,
    /// 99.9th-percentile worst deadline slack, µs.
    pub slack_p999_us: Option<f64>,
    /// Deepest any tenant queue got.
    pub max_queue_depth: usize,
    /// Per-tenant outcomes, in workload tenant order.
    pub tenants: Vec<TenantOutcome>,
}

/// A request sitting in a tenant queue or running on a lane of the serving
/// loop ([`crate::runner::cluster::run_serve_devices`]).
#[derive(Debug, Clone)]
pub(crate) struct Pending {
    pub(crate) req: u64,
    pub(crate) tenant: usize,
    pub(crate) class_ix: usize,
    pub(crate) arrival_us: f64,
    pub(crate) deadline_us: f64,
    pub(crate) service_us: f64,
}

/// Convert a tenant/class index for the observability log. Indices are
/// bounded by the workload spec, so exceeding `u32` is a config bug —
/// report it instead of silently truncating the id (the old `as u32`).
pub(crate) fn obs_id(ix: usize, what: &str) -> u32 {
    u32::try_from(ix).unwrap_or_else(|_| panic!("{what} index {ix} does not fit in a u32 event id"))
}

/// Worst-tail quantile over the *ascending* slack list: indexing from the
/// low end means `q = 0.99` lands near the worst (smallest) slacks. Edge
/// cases: a one-element list (`len - 1 = 0`) and `q = 1.0` both resolve to
/// index 0 — the single worst slack; the final clamp guards the rounding
/// against float drift so the index can never run past the end.
pub(crate) fn slack_quantile(slacks: &[f64], q: f64) -> Option<f64> {
    (!slacks.is_empty()).then(|| {
        let ix = (((1.0 - q) * (slacks.len() - 1) as f64).round() as usize).min(slacks.len() - 1);
        slacks[ix]
    })
}

/// Materialise the arrival stream with tenant/class/deadline stamps — a
/// pure function of `(workload, serve config)`, so every device count and
/// placement replays the identical request stream.
pub(crate) fn materialize_arrivals(wl: &ServeWorkload, scfg: &ServeConfig) -> Vec<Pending> {
    if wl.classes.is_empty() || wl.tenants.is_empty() {
        return Vec::new();
    }
    let seed = scfg.common.seed;
    let class_weights: Vec<u32> = wl.classes.iter().map(|c| c.weight).collect();
    let tenant_weights: Vec<u32> = wl.tenants.iter().map(|t| t.weight).collect();
    scfg.arrivals
        .generate(seed, scfg.common.horizon_us)
        .into_iter()
        .enumerate()
        .map(|(i, t)| {
            let req = i as u64;
            let tenant = pick_weighted(
                &tenant_weights,
                unit_f64(hash_combine(&[seed, SALT_TENANT, req])),
            );
            let class_ix = pick_weighted(
                &class_weights,
                unit_f64(hash_combine(&[seed, SALT_CLASS, req])),
            );
            let class = &wl.classes[class_ix];
            Pending {
                req,
                tenant,
                class_ix,
                arrival_us: t,
                deadline_us: t + class.deadline_us,
                service_us: class.service_us,
            }
        })
        .collect()
}

/// Run an open-loop serving experiment on a fresh scheduler: the one-device
/// projection of [`run_serve_devices`].
///
/// A horizon that is NaN, infinite or `<= 0` simulates nothing, and a
/// workload with no classes or no tenants offers nothing; either run
/// reports zero counts and zero rates (`offered_per_s`, `goodput_per_s`).
/// 0 lanes run as one.
///
/// ```no_run
/// use chimera::runner::serve::{run_serve, ServeConfig};
/// use gpu_sim::GpuConfig;
/// use workloads::ServeWorkload;
///
/// let cfg = GpuConfig::fermi();
/// let wl = ServeWorkload::standard(&cfg);
/// let res = run_serve(&cfg, &wl, &ServeConfig::paper_default());
/// assert_eq!(res.offered, res.admitted + res.shed_queue_full + res.shed_infeasible);
/// ```
pub fn run_serve(cfg: &GpuConfig, wl: &ServeWorkload, scfg: &ServeConfig) -> ServeResult {
    run_serve_traced(cfg, wl, scfg, 0).0
}

/// Like [`run_serve`] but with the engine's event log enabled (ring
/// capacity `event_capacity`; `0` leaves it disabled); returns the scheduler
/// so the caller can export the arrival/admission/shed track via
/// [`gpu_sim::trace::chrome_trace_json`].
pub fn run_serve_traced(
    cfg: &GpuConfig,
    wl: &ServeWorkload,
    scfg: &ServeConfig,
    event_capacity: usize,
) -> (ServeResult, GpuScheduler) {
    let gpu = device_builder(cfg, scfg, 0)
        .event_log(event_capacity)
        .build();
    let run = run_serve_devices(vec![gpu], wl, scfg, Placement::RoundRobin);
    let res = run.serve_result(0);
    let gpu = run.into_schedulers().pop().expect("one device");
    (res, gpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_sorted_within(times: &[f64], horizon: f64) {
        for w in times.windows(2) {
            assert!(w[0] <= w[1], "arrivals out of order");
        }
        for &t in times {
            assert!((0.0..horizon).contains(&t), "t={t}");
        }
    }

    #[test]
    fn poisson_rate_and_determinism() {
        let p = ArrivalProcess::poisson(5.0);
        let a = p.generate(42, 100_000.0);
        let b = p.generate(42, 100_000.0);
        assert_eq!(a, b);
        assert_ne!(a, p.generate(43, 100_000.0));
        assert_sorted_within(&a, 100_000.0);
        // 5/ms over 100 ms → ~500 arrivals.
        assert!((350..650).contains(&a.len()), "n={}", a.len());
    }

    #[test]
    fn bursty_mean_rate_is_time_weighted() {
        let p = ArrivalProcess::Bursty {
            calm_per_ms: 1.0,
            burst_per_ms: 9.0,
            mean_calm_us: 3_000.0,
            mean_burst_us: 1_000.0,
        };
        assert!((p.mean_rate_per_ms() - 3.0).abs() < 1e-9);
        let a = p.generate(7, 200_000.0);
        assert_sorted_within(&a, 200_000.0);
        // ~3/ms over 200 ms → ~600; generous band for burstiness.
        assert!((300..900).contains(&a.len()), "n={}", a.len());
    }

    #[test]
    fn diurnal_thinning_tracks_mean() {
        let p = ArrivalProcess::Diurnal {
            mean_per_ms: 4.0,
            relative_amplitude: 0.8,
            period_us: 10_000.0,
        };
        let a = p.generate(11, 100_000.0);
        assert_sorted_within(&a, 100_000.0);
        assert!((280..520).contains(&a.len()), "n={}", a.len());
    }

    /// Rates and horizons that would never end the generator loop (a NaN
    /// time, zero gaps, an endless horizon) give no arrivals instead.
    #[test]
    fn degenerate_rates_and_horizons_give_no_arrivals() {
        let bursty = |calm_per_ms, burst_per_ms| ArrivalProcess::Bursty {
            calm_per_ms,
            burst_per_ms,
            mean_calm_us: 100.0,
            mean_burst_us: 100.0,
        };
        let diurnal = |mean_per_ms| ArrivalProcess::Diurnal {
            mean_per_ms,
            relative_amplitude: 0.5,
            period_us: 1_000.0,
        };
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0] {
            for p in [ArrivalProcess::poisson(bad), diurnal(bad), bursty(bad, bad)] {
                assert_eq!(p.generate(1, 1_000.0), Vec::<f64>::new(), "{p:?}");
            }
        }
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            assert_eq!(bursty(1.0, bad).generate(1, 1_000.0), Vec::<f64>::new());
        }
        for bad in [f64::NAN, 0.0, -1.0] {
            let p = ArrivalProcess::Bursty {
                calm_per_ms: 1.0,
                burst_per_ms: 2.0,
                mean_calm_us: bad,
                mean_burst_us: 100.0,
            };
            assert_eq!(p.generate(1, 1_000.0), Vec::<f64>::new(), "{p:?}");
        }
        // A silent calm state is a legal burst-only process.
        assert!(!bursty(0.0, 50.0).generate(1, 1_000.0).is_empty());
        for horizon in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for p in [ArrivalProcess::poisson(1.0), diurnal(1.0), bursty(1.0, 2.0)] {
                assert_eq!(p.generate(1, horizon), Vec::<f64>::new(), "{p:?}");
            }
        }
    }

    #[test]
    fn scaled_doubles_the_offered_load() {
        let p = ArrivalProcess::poisson(2.0).scaled(2.0);
        assert!((p.mean_rate_per_ms() - 4.0).abs() < 1e-9);
        let n1 = ArrivalProcess::poisson(2.0).generate(3, 50_000.0).len();
        let n2 = p.generate(3, 50_000.0).len();
        assert!(n2 > n1, "scaling must raise the arrival count");
    }

    #[test]
    fn weighted_pick_respects_boundaries() {
        let w = [1, 3];
        assert_eq!(pick_weighted(&w, 0.0), 0);
        assert_eq!(pick_weighted(&w, 0.24), 0);
        assert_eq!(pick_weighted(&w, 0.26), 1);
        assert_eq!(pick_weighted(&w, 0.999), 1);
    }

    #[test]
    fn serve_smoke_accounting_identities() {
        let cfg = GpuConfig::fermi();
        let wl = ServeWorkload::standard(&cfg);
        let scfg = ServeConfig::paper_default()
            .horizon_us(6_000.0)
            .arrivals(ArrivalProcess::poisson(2.0));
        let res = run_serve(&cfg, &wl, &scfg);
        assert!(res.offered > 0);
        assert!(res.completed > 0, "some requests must finish");
        assert_eq!(
            res.offered,
            res.admitted + res.shed_queue_full + res.shed_infeasible
        );
        assert_eq!(res.admitted, res.completed + res.shed_late + res.unfinished);
        assert_eq!(res.completed, res.deadline_met + res.violations);
        let t_off: u64 = res.tenants.iter().map(|t| t.offered).sum();
        assert_eq!(t_off, res.offered);
        assert!(res.slack_p50_us.is_some());
        assert!(res.goodput_per_s > 0.0);
    }

    #[test]
    fn overload_sheds_instead_of_queueing_unboundedly() {
        let cfg = GpuConfig::fermi();
        let wl = ServeWorkload::standard(&cfg);
        let rate = 2.0 * wl.saturation_per_ms();
        let scfg = ServeConfig::paper_default()
            .horizon_us(8_000.0)
            .arrivals(ArrivalProcess::poisson(rate));
        let res = run_serve(&cfg, &wl, &scfg);
        let shed = res.shed_queue_full + res.shed_infeasible + res.shed_late;
        assert!(shed > 0, "2× overload must shed: {res:?}");
        assert!(
            res.max_queue_depth <= scfg.admission.queue_cap,
            "queues must stay bounded"
        );
        assert!(res.completed > 0, "overload must not collapse goodput to 0");
    }

    /// A deliberately degenerate workload: one class advertises a NaN
    /// analytic service time and another a zero one. Every fairness key
    /// (`served_us / weight`) and every slack can therefore be NaN or tied
    /// at zero. The serve loop must keep running — `total_cmp` orders these
    /// instead of panicking — and the accounting identities must still hold.
    fn degenerate_workload(cfg: &GpuConfig) -> ServeWorkload {
        use workloads::TenantSpec;
        let mut wl = ServeWorkload::standard(cfg);
        let mut nan_class = wl.classes[0].clone();
        nan_class.name = "nan-service".into();
        nan_class.service_us = f64::NAN;
        nan_class.deadline_us = f64::NAN;
        let mut zero_class = wl.classes[1].clone();
        zero_class.name = "zero-service".into();
        zero_class.service_us = 0.0;
        wl.classes = vec![nan_class, zero_class];
        wl.tenants = vec![
            TenantSpec {
                name: "t0".into(),
                weight: 2,
            },
            TenantSpec {
                name: "t1".into(),
                weight: 1,
            },
        ];
        wl
    }

    #[test]
    fn nan_and_zero_service_classes_do_not_panic_the_serve_loop() {
        let cfg = GpuConfig::fermi();
        let wl = degenerate_workload(&cfg);
        let scfg = ServeConfig::paper_default()
            .horizon_us(4_000.0)
            .arrivals(ArrivalProcess::poisson(2.0));
        // Regression: the weighted-fair key and the slack sort used
        // `partial_cmp().unwrap()`, which panicked on the first NaN.
        let res = run_serve(&cfg, &wl, &scfg);
        assert!(res.offered > 0);
        assert_eq!(
            res.offered,
            res.admitted + res.shed_queue_full + res.shed_infeasible
        );
        assert_eq!(res.admitted, res.completed + res.shed_late + res.unfinished);
    }

    #[test]
    fn slack_quantiles_collapse_on_a_single_sample() {
        // One element: every quantile, including q = 1.0, is that element.
        assert_eq!(slack_quantile(&[3.5], 0.5), Some(3.5));
        assert_eq!(slack_quantile(&[3.5], 0.999), Some(3.5));
        assert_eq!(slack_quantile(&[3.5], 1.0), Some(3.5));
        assert_eq!(slack_quantile(&[], 0.5), None);
        // q = 0.0 is the *best* slack (last of the ascending list) and
        // q = 1.0 the worst (first); the index never escapes the slice.
        let s = [-2.0, 1.0, 4.0];
        assert_eq!(slack_quantile(&s, 0.0), Some(4.0));
        assert_eq!(slack_quantile(&s, 1.0), Some(-2.0));
        assert_eq!(slack_quantile(&s, 0.5), Some(1.0));
    }

    #[test]
    fn traced_run_records_request_events() {
        let cfg = GpuConfig::fermi();
        let wl = ServeWorkload::standard(&cfg);
        let scfg = ServeConfig::paper_default()
            .horizon_us(3_000.0)
            .arrivals(ArrivalProcess::poisson(2.0));
        let (res, gpu) = run_serve_traced(&cfg, &wl, &scfg, 1 << 14);
        let log = gpu.engine().event_log().expect("log enabled");
        let arrivals = log.iter().filter(|e| e.kind() == "request_arrival").count() as u64;
        assert_eq!(arrivals, res.offered);
        let admitted = log
            .iter()
            .filter(|e| e.kind() == "request_admitted")
            .count() as u64;
        assert_eq!(admitted, res.admitted);
    }
}
