//! Multi-device serving: a cluster front-end over N independent GPUs.
//!
//! The single-device serve runner ([`crate::runner::serve`]) models one GPU
//! behind an admission controller. Real deployments spread a request stream
//! over a *fleet* of devices, each running its own Chimera scheduler; the
//! interesting questions move up a level — how should the front door *place*
//! requests, and how unevenly does load land? This module answers them with
//! the smallest faithful model: N fully independent [`GpuScheduler`]s
//! stepped in lockstep by one front-end loop ([`run_serve_devices`]), with
//! a pluggable [`Placement`] policy routing every arrival to exactly one
//! device at admission time. Below the placement decision each device runs
//! the per-device serve mechanics (tenant queues, admission control,
//! weighted-fair lanes). This is the only serving loop: the single-device
//! serve runner is its one-device projection ([`ServeRun::serve_result`]).
//!
//! Determinism: the arrival stream is materialised once by
//! `materialize_arrivals` (a pure function of workload and config), the
//! devices are stepped in index order with identical `run_for_us` step
//! sequences (so their clocks stay in lockstep), and every placement policy
//! breaks ties by lower device index. A cluster sweep is therefore
//! byte-identical across worker-thread counts, like every other runner.

use crate::runner::serve::{
    materialize_arrivals, obs_id, slack_quantile, Pending, ServeConfig, ServeResult, TenantOutcome,
};
use crate::scheduler::{GpuScheduler, GpuSchedulerBuilder, ProcId, SchedEvent};
use gpu_sim::rng::hash_combine;
use gpu_sim::{GpuConfig, ShedReason};
use std::collections::VecDeque;
use workloads::ServeWorkload;

/// Salt separating per-device scheduler seeds from every other stream.
const SALT_DEVICE: u64 = 0x5EAF_00D6;

/// How the cluster front-end routes an admitted-for-consideration arrival
/// to a device. Placement happens *before* admission control: the chosen
/// device's own queue cap and feasibility test then accept or shed the
/// request. All policies break ties toward the lower device index, so
/// placement is deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Requests round-robin across devices in arrival order. Oblivious,
    /// but spreads load evenly when requests are statistically similar.
    RoundRobin,
    /// Each request goes to the device with the least outstanding work
    /// (queued plus in-flight service time). The classic join-shortest-
    /// queue front door; adapts to service-time skew.
    LeastLoaded,
    /// All of a tenant's requests go to `tenant mod devices`. Keeps a
    /// tenant's cache/working-set on one device and isolates tenants from
    /// each other, at the price of tenant-skew imbalance.
    TenantAffine,
}

impl Placement {
    /// Parse a CLI spelling. Accepts `rr`/`round-robin`, `least-loaded`
    /// and `tenant`/`tenant-affine`.
    pub fn parse(s: &str) -> Option<Placement> {
        match s {
            "rr" | "round-robin" => Some(Placement::RoundRobin),
            "least-loaded" => Some(Placement::LeastLoaded),
            "tenant" | "tenant-affine" => Some(Placement::TenantAffine),
            _ => None,
        }
    }

    /// The device for the `seq`-th placed item with affinity `key` (a
    /// tenant index, or a hash of a name), given each device's current
    /// load. Round-robin goes by `seq`, least-loaded by `loads` (ties to
    /// the lower index), tenant-affine by `key`; `loads.len()` is the
    /// device count and must be positive.
    pub fn pick(&self, seq: usize, key: usize, loads: &[f64]) -> usize {
        let n = loads.len();
        match self {
            Placement::RoundRobin => seq % n,
            Placement::LeastLoaded => (0..n)
                .min_by(|&a, &b| loads[a].total_cmp(&loads[b]).then(a.cmp(&b)))
                .expect("at least one device"),
            Placement::TenantAffine => key % n,
        }
    }

    /// Canonical name, matching [`parse`](Self::parse).
    pub fn name(&self) -> &'static str {
        match self {
            Placement::RoundRobin => "round-robin",
            Placement::LeastLoaded => "least-loaded",
            Placement::TenantAffine => "tenant-affine",
        }
    }
}

/// Configuration of a cluster serving run: the per-device serve config
/// plus the cluster-level knobs.
#[derive(Debug, Clone)]
pub struct ClusterServeConfig {
    /// Per-device serving knobs (horizon, arrivals, admission, lanes...).
    /// The arrival stream described here is offered to the *cluster*; the
    /// placement policy splits it across devices.
    pub serve: ServeConfig,
    /// Number of independent GPU devices.
    pub devices: usize,
    /// Arrival routing policy.
    pub placement: Placement,
}

impl ClusterServeConfig {
    /// A cluster of `devices` GPUs with round-robin placement over the
    /// given per-device serve config.
    pub fn new(serve: ServeConfig, devices: usize) -> Self {
        ClusterServeConfig {
            serve,
            devices,
            placement: Placement::RoundRobin,
        }
    }

    /// Set the placement policy.
    pub fn placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }
}

/// Per-device outcome of a cluster run.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceOutcome {
    /// Device index.
    pub device: usize,
    /// Arrivals routed to this device.
    pub offered: u64,
    /// Requests admitted past this device's admission control.
    pub admitted: u64,
    /// Requests shed by this device (any reason).
    pub shed: u64,
    /// Requests completed within the horizon.
    pub completed: u64,
    /// Completed requests that missed their deadline.
    pub violations: u64,
    /// Admitted requests still queued or in flight at the horizon.
    pub unfinished: u64,
    /// Total service time of completed requests, µs — the device's useful
    /// work, and the load measure behind the imbalance metric.
    pub served_us: f64,
    /// System throughput proxy: completed service time over the horizon,
    /// i.e. the fraction of one device-equivalent kept busy with work
    /// that finished (lanes let this exceed 1.0 under deep overlap).
    pub stp: f64,
    /// Average normalized turnaround time `(finish − arrival) / service`
    /// over completed requests; `None` if nothing completed.
    pub antt: Option<f64>,
}

/// Aggregate result of a cluster serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterServeResult {
    /// Per-device outcomes, in device order.
    pub devices: Vec<DeviceOutcome>,
    /// Requests that arrived at the cluster front door.
    pub offered: u64,
    /// Requests admitted by some device.
    pub admitted: u64,
    /// Requests shed anywhere (queue-full, infeasible or late).
    pub shed: u64,
    /// Requests completed within the horizon.
    pub completed: u64,
    /// Completed requests that missed their deadline.
    pub violations: u64,
    /// Cluster goodput: deadline-meeting completions per second.
    pub goodput_per_s: f64,
    /// Cluster STP: sum of per-device STPs (device-equivalents of useful
    /// completed work).
    pub stp: f64,
    /// Completion-weighted cluster ANTT; `None` if nothing completed.
    pub antt: Option<f64>,
    /// Inter-device load imbalance: `(max − min) / mean` of per-device
    /// completed service time. 0 means perfectly even; 0 by convention
    /// when the cluster did no work at all.
    pub imbalance: f64,
    /// Median deadline slack across all devices' completions, µs.
    pub slack_p50_us: Option<f64>,
    /// 99th-percentile worst deadline slack across the cluster, µs.
    pub slack_p99_us: Option<f64>,
}

/// The scheduler builder for device `d` of a serving run over `scfg`: the
/// policy, partition, estimator, seed and engine knobs that
/// [`run_serve`](crate::runner::serve::run_serve) and [`run_serve_cluster`]
/// use. Callers of [`run_serve_devices`] adjust it (an execution mode, an
/// event log) before building.
///
/// Device 0 keeps the configured seed, so a one-device cluster is the serve
/// runner exactly; further devices get salted seeds for independent
/// engine-internal draws, still a pure function of the config.
pub fn device_builder(cfg: &GpuConfig, scfg: &ServeConfig, d: usize) -> GpuSchedulerBuilder {
    let seed = if d == 0 {
        scfg.common.seed
    } else {
        hash_combine(&[scfg.common.seed, SALT_DEVICE, d as u64])
    };
    GpuScheduler::builder(cfg.clone())
        .policy(scfg.effective_policy())
        .partition(scfg.partition.clone())
        .estimator(scfg.common.estimator)
        .seed(seed)
        .exec_mode(scfg.common.exec_mode())
        .race_check(scfg.common.race_check)
}

/// Per-tenant counters of one device.
#[derive(Debug, Clone, Default)]
struct TenantCounts {
    offered: u64,
    admitted: u64,
    shed: u64,
    completed: u64,
    violations: u64,
    ntt_sum: f64,
}

/// The serve-loop state of one device: its scheduler plus tenant queues,
/// dispatch lanes and counters.
#[derive(Debug)]
struct DeviceState {
    gpu: GpuScheduler,
    lanes: Vec<ProcId>,
    lane_req: Vec<Option<Pending>>,
    queues: Vec<VecDeque<Pending>>,
    queued_service_us: f64,
    inflight_service_us: f64,
    /// Dispatched service time per tenant: the weighted-fair key.
    served_by_tenant_us: Vec<f64>,
    tenants: Vec<TenantCounts>,
    shed_queue_full: u64,
    shed_infeasible: u64,
    shed_late: u64,
    deadline_met: u64,
    max_queue_depth: usize,
    /// Completed service time, µs, summed in completion order.
    served_us: f64,
    /// Normalized turnaround summed over completions, in completion order.
    ntt_sum: f64,
    slacks: Vec<f64>,
}

impl DeviceState {
    /// A device with `lanes` dispatch lanes; 0 lanes is 1, as
    /// [`ServeConfig::lanes`] clamps it.
    fn new(mut gpu: GpuScheduler, lanes: usize, tenants: usize) -> Self {
        assert_eq!(
            gpu.num_processes(),
            0,
            "the serve loop needs fresh schedulers"
        );
        let lanes: Vec<ProcId> = (0..lanes.max(1)).map(|_| gpu.add_process()).collect();
        DeviceState {
            gpu,
            lane_req: vec![None; lanes.len()],
            lanes,
            queues: vec![VecDeque::new(); tenants],
            queued_service_us: 0.0,
            inflight_service_us: 0.0,
            served_by_tenant_us: vec![0.0; tenants],
            tenants: vec![TenantCounts::default(); tenants],
            shed_queue_full: 0,
            shed_infeasible: 0,
            shed_late: 0,
            deadline_met: 0,
            max_queue_depth: 0,
            served_us: 0.0,
            ntt_sum: 0.0,
            slacks: Vec::new(),
        }
    }

    /// Outstanding work: the load signal the least-loaded placement reads.
    fn backlog_us(&self) -> f64 {
        self.queued_service_us + self.inflight_service_us
    }

    fn total(&self, f: impl Fn(&TenantCounts) -> u64) -> u64 {
        self.tenants.iter().map(f).sum()
    }

    /// Offer one arrival to this device's admission control: the tenant
    /// queue cap, then the feasibility of the deadline behind the backlog
    /// (queued plus in flight, drained across the lanes).
    fn admit(&mut self, p: Pending, cfg: &GpuConfig, scfg: &ServeConfig) {
        let tenant = p.tenant;
        let id = obs_id(tenant, "tenant");
        self.tenants[tenant].offered += 1;
        self.gpu.record_request_arrival(
            p.req,
            id,
            obs_id(p.class_ix, "class"),
            cfg.us_to_cycles(p.deadline_us),
        );
        if self.queues[tenant].len() >= scfg.admission.queue_cap {
            self.shed_queue_full += 1;
            self.tenants[tenant].shed += 1;
            self.gpu
                .record_request_shed(p.req, id, ShedReason::QueueFull);
            return;
        }
        let backlog = self.backlog_us() / self.lanes.len() as f64;
        if scfg.admission.shed_infeasible && backlog + p.service_us > p.deadline_us - p.arrival_us {
            self.shed_infeasible += 1;
            self.tenants[tenant].shed += 1;
            self.gpu
                .record_request_shed(p.req, id, ShedReason::Infeasible);
            return;
        }
        self.tenants[tenant].admitted += 1;
        self.queued_service_us += p.service_us;
        let req = p.req;
        self.queues[tenant].push_back(p);
        let depth = self.queues[tenant].len();
        self.max_queue_depth = self.max_queue_depth.max(depth);
        // The queue-depth gauge is diagnostic; saturate rather than panic
        // if a cap-less config ever exceeds u32.
        self.gpu
            .record_request_admitted(req, id, u32::try_from(depth).unwrap_or(u32::MAX));
    }

    /// Fill free lanes weighted-fair across tenants (least weighted
    /// service wins, ties to the lower tenant index), shedding requests
    /// already past their deadline. `total_cmp`: a degenerate workload spec
    /// (NaN/zero service times) must starve fairness, not panic the loop.
    fn dispatch(&mut self, now_us: f64, wl: &ServeWorkload, tenant_weights: &[u32]) {
        let nt = self.queues.len();
        for lane in 0..self.lanes.len() {
            if self.lane_req[lane].is_some() {
                continue;
            }
            while let Some(tenant) =
                (0..nt)
                    .filter(|&t| !self.queues[t].is_empty())
                    .min_by(|&a, &b| {
                        let ka = self.served_by_tenant_us[a] / f64::from(tenant_weights[a].max(1));
                        let kb = self.served_by_tenant_us[b] / f64::from(tenant_weights[b].max(1));
                        ka.total_cmp(&kb).then(a.cmp(&b))
                    })
            {
                let p = self.queues[tenant].pop_front().expect("non-empty queue");
                self.queued_service_us -= p.service_us;
                if now_us + p.service_us > p.deadline_us {
                    self.shed_late += 1;
                    self.tenants[tenant].shed += 1;
                    self.gpu
                        .record_request_shed(p.req, obs_id(tenant, "tenant"), ShedReason::Late);
                    continue;
                }
                self.served_by_tenant_us[tenant] += p.service_us;
                self.inflight_service_us += p.service_us;
                self.gpu
                    .submit(self.lanes[lane], wl.classes[p.class_ix].kernel(p.req));
                self.lane_req[lane] = Some(p);
                break;
            }
        }
    }

    /// Advance this device's scheduler by `step_us` and account finished
    /// requests.
    fn advance(&mut self, step_us: f64, cfg: &GpuConfig) {
        for ev in self.gpu.run_for_us(step_us) {
            if let SchedEvent::KernelFinished { proc, kernel } = ev {
                let lane = self
                    .lanes
                    .iter()
                    .position(|&l| l == proc)
                    .expect("known lane");
                let p = self.lane_req[lane].take().expect("lane was busy");
                self.inflight_service_us -= p.service_us;
                let finish_cycle = self
                    .gpu
                    .engine()
                    .kernel_stats(kernel)
                    .finished_at
                    .expect("finished kernel has a finish cycle");
                let finish_us = cfg.cycles_to_us(finish_cycle);
                let slack = p.deadline_us - finish_us;
                let ntt = (finish_us - p.arrival_us) / p.service_us.max(1e-9);
                self.slacks.push(slack);
                self.served_us += p.service_us;
                self.ntt_sum += ntt;
                let t = &mut self.tenants[p.tenant];
                t.completed += 1;
                t.ntt_sum += ntt;
                if slack >= 0.0 {
                    self.deadline_met += 1;
                } else {
                    t.violations += 1;
                }
            }
        }
    }
}

/// A finished serving run: every device's scheduler and counters, with
/// the single-device ([`ServeResult`]) and cluster
/// ([`ClusterServeResult`]) projections.
#[derive(Debug)]
pub struct ServeRun {
    devices: Vec<DeviceState>,
    horizon_us: f64,
    tenant_names: Vec<String>,
}

impl ServeRun {
    /// The serving result of one device, as [`run_serve`] reports it.
    ///
    /// [`run_serve`]: crate::runner::serve::run_serve
    pub fn serve_result(&self, device: usize) -> ServeResult {
        let dev = &self.devices[device];
        let offered = dev.total(|t| t.offered);
        let admitted = dev.total(|t| t.admitted);
        let completed = dev.total(|t| t.completed);
        let violations = dev.total(|t| t.violations);
        let horizon_s = self.horizon_us / 1e6;
        // `total_cmp` orders NaN slacks (possible only with a degenerate
        // workload spec) after every finite value instead of panicking.
        let mut slacks = dev.slacks.clone();
        slacks.sort_by(f64::total_cmp);
        let tenants = self
            .tenant_names
            .iter()
            .zip(&dev.tenants)
            .map(|(name, t)| TenantOutcome {
                name: name.clone(),
                offered: t.offered,
                admitted: t.admitted,
                shed: t.shed,
                completed: t.completed,
                violations: t.violations,
                antt: (t.completed > 0).then(|| t.ntt_sum / t.completed as f64),
                violation_share: if violations > 0 {
                    t.violations as f64 / violations as f64
                } else {
                    0.0
                },
            })
            .collect();
        ServeResult {
            offered,
            admitted,
            shed_queue_full: dev.shed_queue_full,
            shed_infeasible: dev.shed_infeasible,
            shed_late: dev.shed_late,
            completed,
            deadline_met: dev.deadline_met,
            violations,
            unfinished: admitted - completed - dev.shed_late,
            offered_per_s: per_horizon(offered as f64, horizon_s),
            goodput_per_s: per_horizon(dev.deadline_met as f64, horizon_s),
            slack_p50_us: slack_quantile(&slacks, 0.50),
            slack_p99_us: slack_quantile(&slacks, 0.99),
            slack_p999_us: slack_quantile(&slacks, 0.999),
            max_queue_depth: dev.max_queue_depth,
            tenants,
        }
    }

    /// The cluster-level result over every device.
    pub fn cluster_result(&self) -> ClusterServeResult {
        let horizon_us = self.horizon_us;
        let devices: Vec<DeviceOutcome> = self
            .devices
            .iter()
            .enumerate()
            .map(|(d, dev)| {
                let admitted = dev.total(|t| t.admitted);
                let completed = dev.total(|t| t.completed);
                DeviceOutcome {
                    device: d,
                    offered: dev.total(|t| t.offered),
                    admitted,
                    shed: dev.total(|t| t.shed),
                    completed,
                    violations: dev.total(|t| t.violations),
                    unfinished: admitted - completed - dev.shed_late,
                    served_us: dev.served_us,
                    stp: per_horizon(dev.served_us, horizon_us),
                    antt: (completed > 0).then(|| dev.ntt_sum / completed as f64),
                }
            })
            .collect();
        let sum = |f: fn(&DeviceOutcome) -> u64| devices.iter().map(f).sum::<u64>();
        let completed = sum(|d| d.completed);
        let deadline_met: u64 = self.devices.iter().map(|d| d.deadline_met).sum();
        let ntt_sum: f64 = self.devices.iter().map(|d| d.ntt_sum).sum();
        let served: Vec<f64> = devices.iter().map(|d| d.served_us).collect();
        let mut slacks: Vec<f64> = self
            .devices
            .iter()
            .flat_map(|d| d.slacks.iter().copied())
            .collect();
        slacks.sort_by(f64::total_cmp);
        ClusterServeResult {
            offered: sum(|d| d.offered),
            admitted: sum(|d| d.admitted),
            shed: sum(|d| d.shed),
            completed,
            violations: sum(|d| d.violations),
            goodput_per_s: per_horizon(deadline_met as f64, horizon_us / 1e6),
            stp: per_horizon(served.iter().sum::<f64>(), horizon_us),
            antt: (completed > 0).then(|| ntt_sum / completed as f64),
            imbalance: imbalance(&served),
            slack_p50_us: slack_quantile(&slacks, 0.50),
            slack_p99_us: slack_quantile(&slacks, 0.99),
            devices,
        }
    }

    /// The devices' schedulers, in device order.
    pub fn into_schedulers(self) -> Vec<GpuScheduler> {
        self.devices.into_iter().map(|d| d.gpu).collect()
    }
}

/// Whether a serving horizon simulates anything: one that is NaN,
/// infinite or not positive does not.
fn simulated(horizon_us: f64) -> bool {
    horizon_us.is_finite() && horizon_us > 0.0
}

/// `amount / horizon`, or 0 for a horizon that simulated nothing, where
/// the quotient would be NaN or meaningless.
fn per_horizon(amount: f64, horizon: f64) -> f64 {
    if simulated(horizon) {
        amount / horizon
    } else {
        0.0
    }
}

/// The serving loop, on caller-built schedulers (one per device; each must
/// have no processes registered yet — the loop adds one per lane, and all
/// must share one [`GpuConfig`]). Build them with [`device_builder`] to get
/// the runners' seeds and knobs.
///
/// One arrival stream is materialised for the whole run; `placement`
/// routes each arrival to a device, whose own admission control and
/// weighted-fair dispatcher take it from there. Devices are stepped in
/// lockstep by identical `run_for_us` sequences, so the run is
/// deterministic in device order.
///
/// Degenerate runs serve nothing and report zero counts and zero rates:
/// no devices, a horizon that is NaN, infinite or `<= 0` (nothing is
/// simulated), and a workload with no classes or no tenants (nothing is
/// offered).
pub fn run_serve_devices(
    gpus: Vec<GpuScheduler>,
    wl: &ServeWorkload,
    scfg: &ServeConfig,
    placement: Placement,
) -> ServeRun {
    let horizon_us = scfg.common.horizon_us;
    let mut devs: Vec<DeviceState> = gpus
        .into_iter()
        .map(|gpu| DeviceState::new(gpu, scfg.lanes, wl.tenants.len()))
        .collect();
    if simulated(horizon_us) && !devs.is_empty() {
        serve_loop(&mut devs, wl, scfg, placement);
    }
    for (d, dev) in devs.iter().enumerate() {
        super::assert_race_clean(dev.gpu.engine(), &format!("run_serve device {d}"));
    }
    ServeRun {
        devices: devs,
        horizon_us,
        tenant_names: wl.tenants.iter().map(|t| t.name.clone()).collect(),
    }
}

/// Step at least one device to a finite, positive horizon.
fn serve_loop(
    devs: &mut [DeviceState],
    wl: &ServeWorkload,
    scfg: &ServeConfig,
    placement: Placement,
) {
    let cfg = devs[0].gpu.engine().config().clone();
    let horizon_us = scfg.common.horizon_us;
    let tenant_weights: Vec<u32> = wl.tenants.iter().map(|t| t.weight).collect();
    let arrivals = materialize_arrivals(wl, scfg);
    let mut loads = vec![0.0f64; devs.len()];

    let mut next_arrival = 0usize;
    loop {
        // All devices share one clock: identical step sequences keep them
        // in lockstep, so any device's cycle is "now".
        let now_us = cfg.cycles_to_us(devs[0].gpu.cycle());
        while next_arrival < arrivals.len() && arrivals[next_arrival].arrival_us <= now_us {
            let p = arrivals[next_arrival].clone();
            for (load, dev) in loads.iter_mut().zip(devs.iter()) {
                *load = dev.backlog_us();
            }
            let d = placement.pick(next_arrival, p.tenant, &loads);
            next_arrival += 1;
            devs[d].admit(p, &cfg, scfg);
        }
        for dev in devs.iter_mut() {
            dev.dispatch(now_us, wl, &tenant_weights);
        }
        if now_us >= horizon_us {
            break;
        }
        // Advance to the next decision point: the next arrival, the
        // scheduler's own 5 µs tick, or the horizon — whichever is first.
        let mut target = horizon_us.min(now_us + 5.0);
        if next_arrival < arrivals.len() {
            target = target.min(arrivals[next_arrival].arrival_us);
        }
        let step_us = (target - now_us).max(0.01);
        for dev in devs.iter_mut() {
            dev.advance(step_us, &cfg);
        }
    }
}

/// Run an open-loop serving experiment over a cluster of independent GPUs
/// ([`run_serve_devices`] over [`device_builder`] schedulers). A cluster
/// of 0 devices serves nothing: every count is 0, and so is the imbalance.
///
/// ```no_run
/// use chimera::runner::cluster::{run_serve_cluster, ClusterServeConfig, Placement};
/// use chimera::runner::serve::ServeConfig;
/// use gpu_sim::GpuConfig;
/// use workloads::ServeWorkload;
///
/// let cfg = GpuConfig::fermi();
/// let wl = ServeWorkload::standard(&cfg);
/// let ccfg = ClusterServeConfig::new(ServeConfig::paper_default(), 2)
///     .placement(Placement::LeastLoaded);
/// let res = run_serve_cluster(&cfg, &wl, &ccfg);
/// assert_eq!(res.offered, res.admitted + res.shed);
/// ```
pub fn run_serve_cluster(
    cfg: &GpuConfig,
    wl: &ServeWorkload,
    ccfg: &ClusterServeConfig,
) -> ClusterServeResult {
    let gpus = (0..ccfg.devices)
        .map(|d| device_builder(cfg, &ccfg.serve, d).build())
        .collect();
    run_serve_devices(gpus, wl, &ccfg.serve, ccfg.placement).cluster_result()
}

/// Inter-device load imbalance: `(max − min) / mean` of the per-device
/// loads; 0 by convention when there is no load at all.
pub fn imbalance(loads: &[f64]) -> f64 {
    let mean = loads.iter().sum::<f64>() / loads.len() as f64;
    if mean > 0.0 {
        let max = loads.iter().cloned().fold(f64::MIN, f64::max);
        let min = loads.iter().cloned().fold(f64::MAX, f64::min);
        (max - min) / mean
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::serve::{run_serve, ArrivalProcess};

    fn small_cfg() -> (GpuConfig, ServeWorkload, ServeConfig) {
        let cfg = GpuConfig::fermi();
        let wl = ServeWorkload::standard(&cfg);
        let scfg = ServeConfig::paper_default()
            .horizon_us(4_000.0)
            .arrivals(ArrivalProcess::poisson(3.0));
        (cfg, wl, scfg)
    }

    #[test]
    fn one_device_cluster_matches_the_serve_runner() {
        let (cfg, wl, scfg) = small_cfg();
        // `run_serve` is the one-device projection of the serving loop; on
        // one device every placement routes every arrival the same way.
        let serve = run_serve(&cfg, &wl, &scfg);
        for placement in [
            Placement::RoundRobin,
            Placement::LeastLoaded,
            Placement::TenantAffine,
        ] {
            let gpu = device_builder(&cfg, &scfg, 0).build();
            let run = run_serve_devices(vec![gpu], &wl, &scfg, placement);
            assert_eq!(run.serve_result(0), serve);
            let cluster = run.cluster_result();
            assert_eq!(cluster.devices.len(), 1);
            assert_eq!(cluster.imbalance, 0.0);
            assert_eq!(cluster.offered, serve.offered);
            assert_eq!(cluster.completed, serve.completed);
            assert_eq!(cluster.slack_p50_us, serve.slack_p50_us);
            assert_eq!(
                cluster.shed,
                serve.shed_queue_full + serve.shed_infeasible + serve.shed_late
            );
        }
    }

    #[test]
    fn placement_pick_and_imbalance() {
        let loads = [3.0, 1.0, 1.0];
        assert_eq!(Placement::RoundRobin.pick(4, 0, &loads), 1);
        assert_eq!(Placement::LeastLoaded.pick(0, 0, &loads), 1, "ties go low");
        assert_eq!(Placement::TenantAffine.pick(0, 5, &loads), 2);
        assert!((imbalance(&loads) - 2.0 / (5.0 / 3.0)).abs() < 1e-12);
        assert_eq!(imbalance(&[0.0, 0.0]), 0.0);
        assert_eq!(imbalance(&[]), 0.0);
    }

    #[test]
    fn cluster_runs_are_deterministic() {
        let (cfg, wl, scfg) = small_cfg();
        let ccfg = ClusterServeConfig::new(scfg, 2).placement(Placement::LeastLoaded);
        let a = run_serve_cluster(&cfg, &wl, &ccfg);
        let b = run_serve_cluster(&cfg, &wl, &ccfg);
        assert_eq!(a, b);
    }

    #[test]
    fn more_devices_never_serve_less() {
        let (cfg, wl, mut scfg) = small_cfg();
        // Overload one device so extra capacity shows up as goodput.
        scfg.arrivals = ArrivalProcess::poisson(2.0 * wl.saturation_per_ms());
        let one = run_serve_cluster(&cfg, &wl, &ClusterServeConfig::new(scfg.clone(), 1));
        let two = run_serve_cluster(&cfg, &wl, &ClusterServeConfig::new(scfg, 2));
        assert_eq!(one.offered, two.offered, "same front-door stream");
        assert!(
            two.completed >= one.completed,
            "2 devices completed {} < 1 device's {}",
            two.completed,
            one.completed
        );
    }

    #[test]
    fn tenant_affinity_pins_each_tenant_to_one_device() {
        let (cfg, wl, scfg) = small_cfg();
        let nt = wl.tenants.len();
        let ccfg = ClusterServeConfig::new(scfg.clone(), 2).placement(Placement::TenantAffine);
        let res = run_serve_cluster(&cfg, &wl, &ccfg);
        // Count offered per device directly from the routing rule.
        let mut want = vec![0u64; 2];
        for p in materialize_arrivals(&wl, &scfg) {
            assert!(p.tenant < nt);
            want[p.tenant % 2] += 1;
        }
        let got: Vec<u64> = res.devices.iter().map(|d| d.offered).collect();
        assert_eq!(got, want);
    }

    /// Degenerate configs built in code serve nothing and report zero
    /// counts and zero rates, where they used to hang (a NaN or infinite
    /// horizon), panic (no devices, no classes, no tenants) or report 0/0
    /// (a zero horizon); 0 lanes run as the one lane the setter gives.
    #[test]
    fn degenerate_serving_configs_serve_nothing() {
        let (cfg, wl, scfg) = small_cfg();
        let scfg = scfg.horizon_us(2_000.0);
        let assert_nothing_served = |r: &ServeResult, what: &str| {
            let counts = [r.offered, r.admitted, r.completed, r.unfinished];
            assert_eq!(counts, [0; 4], "{what}");
            assert_eq!([r.offered_per_s, r.goodput_per_s], [0.0; 2], "{what}");
            assert_eq!(r.slack_p50_us, None, "{what}");
        };
        for horizon in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
            let s = scfg.clone().horizon_us(horizon);
            assert_nothing_served(&run_serve(&cfg, &wl, &s), &format!("horizon {horizon}"));
            let c = run_serve_cluster(&cfg, &wl, &ClusterServeConfig::new(s, 2));
            assert_eq!(c.offered, 0, "horizon {horizon}");
            assert_eq!([c.goodput_per_s, c.stp, c.imbalance], [0.0; 3]);
            assert!(c.devices.iter().all(|d| d.offered == 0 && d.stp == 0.0));
        }

        let none = run_serve_cluster(&cfg, &wl, &ClusterServeConfig::new(scfg.clone(), 0));
        assert!(none.devices.is_empty());
        let counts = [none.offered, none.admitted, none.shed, none.completed];
        assert_eq!(counts, [0; 4]);
        assert_eq!([none.goodput_per_s, none.stp, none.imbalance], [0.0; 3]);
        assert_eq!((none.antt, none.slack_p50_us), (None, None));

        let mut no_classes = wl.clone();
        no_classes.classes.clear();
        let mut no_tenants = wl.clone();
        no_tenants.tenants.clear();
        for (w, what) in [(no_classes, "no classes"), (no_tenants, "no tenants")] {
            assert_nothing_served(&run_serve(&cfg, &w, &scfg), what);
        }

        let field = ServeConfig {
            lanes: 0,
            ..scfg.clone()
        };
        let res = run_serve(&cfg, &wl, &field);
        assert_eq!(res, run_serve(&cfg, &wl, &scfg.lanes(0)));
        assert!(res.completed > 0, "one lane serves: {res:?}");
    }

    #[test]
    fn placement_parse_round_trips() {
        for p in [
            Placement::RoundRobin,
            Placement::LeastLoaded,
            Placement::TenantAffine,
        ] {
            assert_eq!(Placement::parse(p.name()), Some(p));
        }
        assert_eq!(Placement::parse("rr"), Some(Placement::RoundRobin));
        assert_eq!(Placement::parse("tenant"), Some(Placement::TenantAffine));
        assert_eq!(Placement::parse("nope"), None);
    }
}
