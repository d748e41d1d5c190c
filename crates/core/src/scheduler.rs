//! The Figure 5 two-level GPU scheduler, as a reusable component.
//!
//! The *kernel scheduler* decides which process owns which SMs (via a
//! [`PartitionPolicy`]) and realises
//! ownership changes by issuing preemption requests served by a
//! [`Policy`] — Chimera by default. The *thread block
//! scheduler* is the `gpu-sim` engine, which dispatches and preempts blocks
//! and re-issues preempted ones first.
//!
//! This is the "what a downstream user would adopt" API: build a scheduler
//! ([`GpuScheduler::builder`]), register processes, submit kernels, and
//! drive time forward; multitasking, spatial partitioning and collaborative
//! preemption happen inside. It is the only kernel scheduler in the crate:
//! the serving runners, the multiprogrammed pair runner
//! ([`run_pair`](crate::runner::multiprog::run_pair)) and the periodic
//! runner ([`run_periodic`](crate::runner::periodic::run_periodic)) all
//! drive one.
//!
//! The kernel scheduler keeps five rules:
//! 1. **The first pass splits evenly.** The first scheduling pass that has
//!    processes gives SM `sm` to process `((sm + 1) * P - 1) / num_sms`: a
//!    contiguous even split, with the remainder on the later processes
//!    (for two processes, `sm >= num_sms / 2` on every SM count).
//! 2. **A surplus moves in one request.** When the partition policy's
//!    shares differ from ownership, `n = min(surplus, deficit)` SMs move
//!    from the first over-provisioned to the first under-provisioned
//!    process in one preemption request over all of the source's
//!    candidates: idle SMs first, then the occupied ones the policy picks.
//!    Under Chimera, Algorithm 1 ranks every candidate by overhead and
//!    takes the cheapest that meet the latency limit (§3.3).
//! 3. **A flush-waiting SM follows its process.** Until the flush lands it
//!    keeps running its source process's current kernel; an SM being
//!    preempted is left to the engine.
//! 4. **The caller owns the cadence.** One step advances the engine (at
//!    most 0.5 µs while a flush waits, and never past a held SM's release)
//!    and runs one scheduling pass; [`GpuScheduler::run_for_us`] steps every
//!    5 µs, the pair runner every 10 µs, the periodic runner to its next
//!    request or open deadline.
//! 5. **A priority request holds SMs outside the partition.** It takes `n`
//!    of a process's SMs in one request, as rule 2 does (§3.1's
//!    higher-priority kernel), and holds each from its hand-over for an
//!    execution window or until its task kernel finishes: unassigned (or
//!    running the task), never moved.
//!
//! ```
//! use chimera::scheduler::GpuScheduler;
//! use chimera::policy::Policy;
//! use chimera::partition::PartitionPolicy;
//! use gpu_sim::{GpuConfig, KernelDesc, Program, Segment};
//!
//! let mut gpu = GpuScheduler::builder(GpuConfig::fermi())
//!     .policy(Policy::chimera_us(15.0))
//!     .partition(PartitionPolicy::SmartEven)
//!     .build();
//! let p1 = gpu.add_process();
//! let p2 = gpu.add_process();
//! let kernel = KernelDesc::builder("work")
//!     .grid_blocks(256)
//!     .program(Program::new(vec![Segment::compute(500)]))
//!     .build()?;
//! gpu.submit(p1, kernel.clone());
//! gpu.submit(p2, kernel.with_name("work2"));
//! while !gpu.is_idle() {
//!     gpu.run_for_us(100.0);
//! }
//! assert_eq!(gpu.completed_kernels(p1), 1);
//! assert_eq!(gpu.completed_kernels(p2), 1);
//! # Ok::<(), gpu_sim::KernelError>(())
//! ```

use crate::cost::EstimatorConfig;
use crate::obs::DrainSample;
use crate::partition::{demand, PartitionPolicy};
use crate::policy::Policy;
use crate::preemptor::{InFlight, Preemptor, Taken};
use gpu_sim::{Engine, Event, ExecMode, GpuConfig, KernelDesc, KernelId, ShedReason};
use std::collections::{BTreeMap, VecDeque};

/// Identifies a registered process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(pub usize);

impl std::fmt::Display for ProcId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Scheduler-level events returned by [`GpuScheduler::run_for_us`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedEvent {
    /// A submitted kernel started executing.
    KernelStarted {
        /// Owning process.
        proc: ProcId,
        /// Engine-level kernel instance.
        kernel: KernelId,
    },
    /// A kernel finished.
    KernelFinished {
        /// Owning process.
        proc: ProcId,
        /// Engine-level kernel instance.
        kernel: KernelId,
    },
    /// An SM changed hands.
    SmReassigned {
        /// The SM that moved.
        sm: usize,
        /// New owner.
        to: ProcId,
    },
}

#[derive(Debug, Default)]
struct ProcState {
    queue: VecDeque<gpu_sim::KernelDesc>,
    current: Option<KernelId>,
    /// Completed kernel launches. `u64` like every other progress counter
    /// since the PR 5–6 widenings — a `u32` here silently truncated
    /// long-lived serving processes.
    completed: u64,
    kernels: Vec<KernelId>,
}

/// Builder for [`GpuScheduler`] (see [`GpuScheduler::builder`]).
///
/// All knobs are set up front and [`build`](GpuSchedulerBuilder::build)
/// wires them in the right order, so there is no window where a
/// half-configured scheduler can run.
///
/// ```
/// use chimera::scheduler::GpuScheduler;
/// use chimera::policy::Policy;
/// use chimera::EstimatorConfig;
/// use gpu_sim::GpuConfig;
///
/// let gpu = GpuScheduler::builder(GpuConfig::tiny())
///     .policy(Policy::chimera_us(30.0))
///     .estimator(EstimatorConfig::online(0.9))
///     .seed(7)
///     .event_log(4096)
///     .build();
/// assert_eq!(gpu.estimator(), EstimatorConfig::online(0.9));
/// assert!(gpu.engine().event_log().is_some());
/// ```
#[derive(Debug, Clone)]
pub struct GpuSchedulerBuilder {
    cfg: GpuConfig,
    policy: Policy,
    partition: PartitionPolicy,
    estimator: EstimatorConfig,
    seed: u64,
    event_log_capacity: usize,
    exec_mode: ExecMode,
    race_check: bool,
    sanitize: bool,
    prefer_preempted: bool,
}

impl GpuSchedulerBuilder {
    /// Set the preemption policy (default: Chimera at 15 µs).
    pub fn policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Set the SM partitioning policy (default:
    /// [`PartitionPolicy::SmartEven`]).
    pub fn partition(mut self, partition: PartitionPolicy) -> Self {
        self.partition = partition;
        self
    }

    /// Set the cost estimator (default: static §4.1 bounds). With
    /// [`EstimatorMode::Online`](crate::cost::EstimatorMode::Online) block
    /// completions feed per-kernel quantile sketches and Chimera's drain
    /// bounds use the configured risk quantile.
    pub fn estimator(mut self, estimator: EstimatorConfig) -> Self {
        self.estimator = estimator;
        self
    }

    /// Set the engine's determinism seed (default 42).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enable the engine's observability [event log](gpu_sim::EventLog)
    /// with the given ring capacity (default 0 = disabled). Chimera
    /// decisions made by the kernel scheduler are recorded with their
    /// Algorithm 1 inputs; export with
    /// [`gpu_sim::trace::chrome_trace_json`] via [`GpuScheduler::engine`].
    ///
    /// ```
    /// use chimera::scheduler::GpuScheduler;
    /// use gpu_sim::{GpuConfig, KernelDesc, Program, Segment};
    ///
    /// let mut gpu = GpuScheduler::builder(GpuConfig::tiny())
    ///     .event_log(4096)
    ///     .build();
    /// let p = gpu.add_process();
    /// let kernel = KernelDesc::builder("work")
    ///     .grid_blocks(8)
    ///     .program(Program::new(vec![Segment::compute(200)]))
    ///     .build()?;
    /// gpu.submit(p, kernel);
    /// while !gpu.is_idle() {
    ///     gpu.run_for_us(100.0);
    /// }
    /// let log = gpu.engine().event_log().expect("enabled above");
    /// assert!(!log.is_empty(), "block lifecycle events were recorded");
    /// # Ok::<(), gpu_sim::KernelError>(())
    /// ```
    pub fn event_log(mut self, capacity: usize) -> Self {
        self.event_log_capacity = capacity;
        self
    }

    /// Set the engine's execution mode (default [`ExecMode::Event`]).
    /// Output is byte-identical in every mode; see `PARALLELISM.md`.
    pub fn exec_mode(mut self, mode: ExecMode) -> Self {
        self.exec_mode = mode;
        self
    }

    /// Run the engine in [`ExecMode::Parallel`] with this many SM shards
    /// advanced on worker threads between epoch barriers; `0` selects the
    /// serial [`ExecMode::Event`]. Sets the same mode as
    /// [`exec_mode`](GpuSchedulerBuilder::exec_mode): the later call wins.
    pub fn par_shards(self, shards: usize) -> Self {
        self.exec_mode(if shards > 0 {
            ExecMode::Parallel { shards }
        } else {
            ExecMode::Event
        })
    }

    /// Enable the engine's shard-race sanitizer (default off): shared-state
    /// accesses during the parallel engine's pure Phase A are checked
    /// against a shadow ownership map (see [`gpu_sim::RaceSanitizer`]).
    /// Zero-cost in serial modes; for verification passes, not measurement
    /// runs.
    pub fn race_check(mut self, race_check: bool) -> Self {
        self.race_check = race_check;
        self
    }

    /// Enable the engine's dynamic flush sanitizer (default off).
    pub(crate) fn sanitize(mut self, sanitize: bool) -> Self {
        self.sanitize = sanitize;
        self
    }

    /// Re-dispatch preempted blocks before fresh ones (default on).
    pub(crate) fn prefer_preempted(mut self, prefer: bool) -> Self {
        self.prefer_preempted = prefer;
        self
    }

    /// Build the scheduler over a fresh engine.
    pub fn build(self) -> GpuScheduler {
        let mut engine = Engine::with_seed(self.cfg, self.seed);
        engine.set_break_on_kernel_finish(true);
        if self.policy.is_oracle() {
            engine.set_free_context_moves(true);
        }
        if self.event_log_capacity > 0 {
            engine.enable_event_log(self.event_log_capacity);
        }
        engine.set_exec_mode(self.exec_mode);
        if self.race_check {
            engine.enable_race_sanitizer();
        }
        if self.sanitize {
            engine.enable_sanitizer();
        }
        engine.set_prefer_preempted(self.prefer_preempted);
        let n = engine.config().num_sms;
        GpuScheduler {
            engine,
            pre: Preemptor::new(self.policy, self.estimator),
            partition: self.partition,
            procs: Vec::new(),
            owner: vec![None; n],
            held: BTreeMap::new(),
            requests: Vec::new(),
            events: Vec::new(),
        }
    }
}

/// A priority request (rule 5): `needed` SMs taken from one process at
/// cycle `t`, each held for `exec` cycles from its hand-over or, with a
/// `task` kernel, until that kernel finishes.
#[derive(Debug)]
pub(crate) struct PriorityRequest {
    pub(crate) t: u64,
    pub(crate) needed: usize,
    pub(crate) acquired: usize,
    /// When the `needed`-th SM was handed over.
    pub(crate) completed_at: Option<u64>,
    exec: u64,
    task: Option<KernelDesc>,
    task_kid: Option<KernelId>,
}

/// A multitasking GPU: engine + kernel scheduler (see module docs).
#[derive(Debug)]
pub struct GpuScheduler {
    engine: Engine,
    /// The preemption executor and its in-flight ledger.
    pre: Preemptor,
    partition: PartitionPolicy,
    procs: Vec<ProcState>,
    /// Owning process per SM (`None` until first partition).
    owner: Vec<Option<usize>>,
    /// SM → (priority request, release cycle); `u64::MAX` while the SM is
    /// still being preempted or runs a task kernel. Ordered: the map is
    /// iterated while mutating the engine.
    held: BTreeMap<usize, (usize, u64)>,
    requests: Vec<PriorityRequest>,
    events: Vec<SchedEvent>,
}

impl GpuScheduler {
    /// Start building a scheduler over a fresh engine with the given GPU
    /// configuration. Defaults: Chimera at 15 µs, Smart-Even partitioning,
    /// static estimator, seed 42, event log off.
    pub fn builder(cfg: GpuConfig) -> GpuSchedulerBuilder {
        GpuSchedulerBuilder {
            cfg,
            policy: Policy::chimera_us(15.0),
            partition: PartitionPolicy::SmartEven,
            estimator: EstimatorConfig::default(),
            seed: 42,
            event_log_capacity: 0,
            exec_mode: ExecMode::Event,
            race_check: false,
            sanitize: false,
            prefer_preempted: true,
        }
    }

    /// The active cost-estimator configuration.
    pub fn estimator(&self) -> EstimatorConfig {
        self.pre.estimator()
    }

    /// Predicted-vs-actual latency of every block Chimera decided to drain,
    /// joined live as blocks complete (completion order). Aggregate with
    /// [`crate::obs::accuracy_per_kernel`]; with an event log that dropped
    /// nothing this equals the post-mortem [`crate::obs::drain_accuracy`].
    pub fn drain_samples(&self) -> &[DrainSample] {
        self.pre.drain_samples()
    }

    /// Register a process (a serial stream of kernel launches).
    pub fn add_process(&mut self) -> ProcId {
        self.procs.push(ProcState::default());
        ProcId(self.procs.len() - 1)
    }

    /// Submit a kernel launch for a process; launches run in order.
    pub fn submit(&mut self, proc: ProcId, kernel: gpu_sim::KernelDesc) {
        self.procs[proc.0].queue.push_back(kernel);
    }

    /// Kernels completed by a process so far.
    ///
    /// Widened to `u64`: an open-loop serving run at a few thousand requests
    /// per second over a long horizon overflows a 32-bit counter well within
    /// a simulated day.
    pub fn completed_kernels(&self, proc: ProcId) -> u64 {
        self.procs[proc.0].completed
    }

    /// Number of registered processes.
    pub fn num_processes(&self) -> usize {
        self.procs.len()
    }

    /// Whether every submitted kernel of every process has finished.
    pub fn is_idle(&self) -> bool {
        self.procs
            .iter()
            .all(|p| p.current.is_none() && p.queue.is_empty())
    }

    /// The engine (read access for statistics and snapshots).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Record a serving-request arrival in the event log (no-op when the
    /// log is disabled). `deadline_cycle` is the absolute cycle by which the
    /// request must complete to meet its SLO.
    pub fn record_request_arrival(
        &mut self,
        request: u64,
        tenant: u32,
        class: u32,
        deadline_cycle: u64,
    ) {
        self.engine
            .record_request_arrival(request, tenant, class, deadline_cycle);
    }

    /// Record a request passing admission control, with the tenant's queue
    /// depth after enqueue (no-op when the log is disabled).
    pub fn record_request_admitted(&mut self, request: u64, tenant: u32, queued: u32) {
        self.engine.record_request_admitted(request, tenant, queued);
    }

    /// Record a request being shed by admission control (no-op when the
    /// log is disabled).
    pub fn record_request_shed(&mut self, request: u64, tenant: u32, reason: ShedReason) {
        self.engine.record_request_shed(request, tenant, reason);
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.engine.cycle()
    }

    /// Total useful instructions a process has executed.
    pub fn useful_insts(&self, proc: ProcId) -> u64 {
        self.procs[proc.0]
            .kernels
            .iter()
            .map(|&k| self.engine.kernel_stats(k).useful_insts())
            .sum()
    }

    /// Advance simulated time by `us` microseconds, scheduling as needed:
    /// a loop of the crate-private `step_until` on a 5 µs tick.
    pub fn run_for_us(&mut self, us: f64) -> Vec<SchedEvent> {
        let cfg = self.engine.config();
        let target = self.engine.cycle() + cfg.us_to_cycles(us);
        let tick = cfg.us_to_cycles(5.0).max(1);
        let mut events = Vec::new();
        while self.engine.cycle() < target {
            let until = (self.engine.cycle() + tick).min(target);
            events.append(&mut self.step_until(until));
        }
        events
    }

    /// One scheduling step: advance the engine at least one cycle, to
    /// `until` or the bound of rule 4, then run one kernel-scheduler pass.
    /// Returns the step's scheduler events.
    pub(crate) fn step_until(&mut self, until: u64) -> Vec<SchedEvent> {
        let now = self.engine.cycle();
        let next_release = self.held.values().map(|h| h.1).min();
        let mut until = until.min(next_release.unwrap_or(u64::MAX));
        if self.pre.flush_waiting() {
            until = until.min(now + self.engine.config().us_to_cycles(0.5).max(1));
        }
        for ev in self.engine.run_until(until.max(now + 1)) {
            if let Some(sm) = self.pre.on_event(&mut self.engine, &ev) {
                hand_over(&mut self.engine, &mut self.requests, &mut self.held, sm);
            }
            let Event::KernelFinished { kernel } = ev else {
                continue;
            };
            let is_task = |r: &PriorityRequest| r.task_kid == Some(kernel);
            if let Some(ri) = self.requests.iter().position(is_task) {
                // Its SMs return to their owner; one still being preempted is
                // parked on the finished task at hand-over, to the horizon.
                let pre = &self.pre;
                self.held
                    .retain(|&sm, &mut (r, _)| r != ri || pre.in_flight(sm).is_some());
            } else if let Some(pi) = self.procs.iter().position(|p| p.current == Some(kernel)) {
                self.procs[pi].current = None;
                self.procs[pi].completed += 1;
                self.events.push(SchedEvent::KernelFinished {
                    proc: ProcId(pi),
                    kernel,
                });
            }
        }
        self.schedule();
        std::mem::take(&mut self.events)
    }

    /// One kernel-scheduler pass: launch queued kernels, serve flush waits,
    /// release expired holds, repartition, and keep SM assignments
    /// consistent with ownership.
    fn schedule(&mut self) {
        for pi in 0..self.procs.len() {
            if self.procs[pi].current.is_none() {
                if let Some(desc) = self.procs[pi].queue.pop_front() {
                    let kid = self.engine.launch_kernel(desc);
                    self.procs[pi].current = Some(kid);
                    self.procs[pi].kernels.push(kid);
                    self.events.push(SchedEvent::KernelStarted {
                        proc: ProcId(pi),
                        kernel: kid,
                    });
                }
            }
        }
        if self.procs.is_empty() {
            return;
        }
        let (requests, held) = (&mut self.requests, &mut self.held);
        self.pre.poll_flush_waits(&mut self.engine, |engine, sm| {
            hand_over(engine, requests, held, sm)
        });
        let now = self.engine.cycle();
        self.held.retain(|_, &mut (_, release)| release > now);
        self.repartition();
        // Assignment pass. A flush-waiting SM keeps running its source
        // process's kernel until the flush lands; a preempting or held one
        // is left alone.
        for sm in 0..self.owner.len() {
            let want = match self.pre.in_flight(sm) {
                Some((InFlight::Preempting, _)) => continue,
                Some((InFlight::FlushWait, src)) => self.procs[src].current,
                None if self.held.contains_key(&sm) => continue,
                None => self.owner[sm].and_then(|pi| self.procs[pi].current),
            };
            if !self.engine.sm_is_preempting(sm) && self.engine.sm_assigned(sm) != want {
                self.engine.assign_sm(sm, want);
            }
        }
    }

    /// Bring ownership towards the partition policy's shares. The first
    /// pass splits the SMs contiguously and evenly across the processes;
    /// after that each surplus moves to a deficit in one preemption request.
    fn repartition(&mut self) {
        let n_procs = self.procs.len();
        let n_sms = self.owner.len();
        if self.owner.iter().any(Option::is_none) {
            for (sm, owner) in self.owner.iter_mut().enumerate() {
                let pi = ((sm + 1) * n_procs - 1) / n_sms;
                *owner = Some(pi);
                self.events
                    .push(SchedEvent::SmReassigned { sm, to: ProcId(pi) });
            }
        }
        let demands: Vec<usize> = self
            .procs
            .iter()
            .map(|p| demand(&self.engine, p.current))
            .collect();
        let desired = self.partition.shares(n_sms, &demands);
        let mut counts = vec![0usize; n_procs];
        for &pi in self.owner.iter().flatten() {
            counts[pi] += 1;
        }
        while let (Some(dst), Some(src)) = (
            (0..n_procs).find(|&pi| counts[pi] < desired[pi]),
            (0..n_procs).find(|&pi| counts[pi] > desired[pi]),
        ) {
            let n = (counts[src] - desired[src]).min(desired[dst] - counts[dst]);
            let moved = self.move_sms(src, dst, n);
            counts[src] -= moved;
            counts[dst] += moved;
            if moved < n {
                break;
            }
        }
    }

    /// Move up to `n` SMs from `src` to `dst` in one preemption request:
    /// idle SMs first, then the occupied ones the policy picks (Chimera
    /// ranks every candidate with Algorithm 1). Returns how many SMs
    /// changed owner.
    fn move_sms(&mut self, src: usize, dst: usize, n: usize) -> usize {
        let (cands, victim) = self.candidates(src);
        let owner = &mut self.owner;
        let events = &mut self.events;
        let mut moved = 0;
        self.pre.preempt(
            &mut self.engine,
            &cands,
            n,
            victim,
            true,
            src,
            |_, sm, _| {
                owner[sm] = Some(dst);
                events.push(SchedEvent::SmReassigned {
                    sm,
                    to: ProcId(dst),
                });
                moved += 1;
            },
        );
        moved
    }

    /// `src`'s SMs that may be preempted (owned, not held, not in flight)
    /// in the policy's order, and `src`'s current kernel as the victim.
    fn candidates(&self, src: usize) -> (Vec<usize>, Option<KernelId>) {
        let cands = self.pre.candidates(&self.engine, |sm| {
            self.owner[sm] == Some(src) && !self.held.contains_key(&sm)
        });
        (cands, self.procs[src].current)
    }

    /// Issue a priority request (rule 5) for `n` of `from`'s SMs, held for
    /// `exec` cycles or while `task` runs. Idle SMs are handed over at once,
    /// the others when their preemption completes; a request for 0 SMs is
    /// met at issue. `strict_idem` never flushes a non-idempotent victim.
    pub(crate) fn reserve(
        &mut self,
        from: ProcId,
        n: usize,
        exec: u64,
        task: Option<KernelDesc>,
        strict_idem: bool,
    ) {
        let now = self.engine.cycle();
        let ri = self.requests.len();
        self.requests.push(PriorityRequest {
            t: now,
            needed: n,
            acquired: 0,
            completed_at: (n == 0).then_some(now),
            exec,
            task,
            task_kid: None,
        });
        let (cands, victim) = self.candidates(from.0);
        let flush_allowed = !strict_idem
            || victim.is_none_or(|k| {
                idem::analyze(self.engine.kernel_desc(k).program()).strict_idempotent
            });
        let (requests, held) = (&mut self.requests, &mut self.held);
        self.pre.preempt(
            &mut self.engine,
            &cands,
            n,
            victim,
            flush_allowed,
            from.0,
            |engine, sm, taken| {
                held.insert(sm, (ri, u64::MAX));
                if taken == Taken::Vacated {
                    hand_over(engine, requests, held, sm);
                }
            },
        );
    }

    /// Dismantle the scheduler into its engine, its priority requests (in
    /// issue order) and the drain-accuracy join.
    pub(crate) fn into_parts(self) -> (Engine, Vec<PriorityRequest>, Vec<DrainSample>) {
        (self.engine, self.requests, self.pre.into_drain_samples())
    }
}

/// Hand a vacated SM to the priority request holding it, if any: run the
/// request's task kernel on it (launched at the first hand-over) or leave
/// it empty until its release, and count the acquisition now.
fn hand_over(
    engine: &mut Engine,
    requests: &mut [PriorityRequest],
    held: &mut BTreeMap<usize, (usize, u64)>,
    sm: usize,
) {
    let Some(&(ri, _)) = held.get(&sm) else {
        return;
    };
    let rq = &mut requests[ri];
    let now = engine.cycle();
    let release = if let Some(desc) = &rq.task {
        let kid = *rq
            .task_kid
            .get_or_insert_with(|| engine.launch_kernel(desc.clone()));
        engine.assign_sm(sm, Some(kid));
        u64::MAX
    } else {
        engine.assign_sm(sm, None);
        now.saturating_add(rq.exec)
    };
    held.insert(sm, (ri, release));
    rq.acquired += 1;
    if rq.acquired >= rq.needed && rq.completed_at.is_none() {
        rq.completed_at = Some(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::{select_preemptions, SelectionRequest};
    use gpu_sim::{KernelDesc, Program, Segment};

    fn kernel(name: &str, grid: u32, insts: u32) -> KernelDesc {
        KernelDesc::builder(name)
            .grid_blocks(grid)
            .threads_per_block(128)
            .regs_per_thread(16)
            .program(Program::new(vec![
                Segment::load(4),
                Segment::compute(insts),
                Segment::store(4),
            ]))
            .build()
            .unwrap()
    }

    fn drive_until_idle(gpu: &mut GpuScheduler, max_ms: u32) -> Vec<SchedEvent> {
        let mut all = Vec::new();
        for _ in 0..max_ms * 10 {
            all.extend(gpu.run_for_us(100.0));
            if gpu.is_idle() {
                return all;
            }
        }
        panic!("scheduler did not go idle");
    }

    #[test]
    fn two_processes_share_and_finish() {
        let mut gpu = GpuScheduler::builder(GpuConfig::fermi())
            .policy(Policy::chimera_us(15.0))
            .partition(PartitionPolicy::SmartEven)
            .build();
        let p1 = gpu.add_process();
        let p2 = gpu.add_process();
        gpu.submit(p1, kernel("a", 300, 400));
        gpu.submit(p1, kernel("a2", 300, 400));
        gpu.submit(p2, kernel("b", 300, 400));
        let events = drive_until_idle(&mut gpu, 100);
        assert_eq!(gpu.completed_kernels(p1), 2);
        assert_eq!(gpu.completed_kernels(p2), 1);
        assert!(gpu.useful_insts(p1) > 0);
        let starts = events
            .iter()
            .filter(|e| matches!(e, SchedEvent::KernelStarted { .. }))
            .count();
        assert_eq!(starts, 3);
        let finishes = events
            .iter()
            .filter(|e| matches!(e, SchedEvent::KernelFinished { .. }))
            .count();
        assert_eq!(finishes, 3);
    }

    #[test]
    fn late_arrival_takes_sms_from_running_process() {
        let mut gpu = GpuScheduler::builder(GpuConfig::fermi())
            .policy(Policy::chimera_us(30.0))
            .build();
        let p1 = gpu.add_process();
        let p2 = gpu.add_process();
        gpu.submit(p1, kernel("hog", 4_000, 2_000));
        gpu.run_for_us(300.0);
        // p1 owns the whole GPU by now.
        let owned_by_p1 = gpu.owner.iter().filter(|o| **o == Some(0)).count();
        assert_eq!(owned_by_p1, 30);
        // p2 arrives and must receive its half via preemption.
        gpu.submit(p2, kernel("newcomer", 4_000, 2_000));
        let events = gpu.run_for_us(400.0);
        let reassigned_to_p2 = events
            .iter()
            .filter(|e| matches!(e, SchedEvent::SmReassigned { to, .. } if *to == ProcId(1)))
            .count();
        assert!(reassigned_to_p2 >= 15, "p2 got only {reassigned_to_p2} SMs");
        assert!(
            !gpu.engine().preempt_records().is_empty(),
            "must actually preempt"
        );
        assert!(gpu.useful_insts(p2) > 0);
    }

    #[test]
    fn priority_partition_starves_background_but_not_fully() {
        let mut gpu = GpuScheduler::builder(GpuConfig::fermi())
            .policy(Policy::chimera_us(30.0))
            .partition(PartitionPolicy::Priority(0))
            .build();
        let hi = gpu.add_process();
        let lo = gpu.add_process();
        gpu.submit(hi, kernel("hi", 6_000, 1_000));
        gpu.submit(lo, kernel("lo", 6_000, 1_000));
        gpu.run_for_us(1_000.0);
        let hi_insts = gpu.useful_insts(hi);
        let lo_insts = gpu.useful_insts(lo);
        assert!(
            hi_insts > lo_insts * 3,
            "priority job should dominate: hi={hi_insts}, lo={lo_insts}"
        );
    }

    #[test]
    fn works_with_every_policy() {
        for policy in [
            Policy::Switch,
            Policy::Drain,
            Policy::Flush,
            Policy::chimera_us(30.0),
            Policy::Oracle,
        ] {
            let mut gpu = GpuScheduler::builder(GpuConfig::fermi())
                .policy(policy)
                .build();
            let p1 = gpu.add_process();
            let p2 = gpu.add_process();
            gpu.submit(p1, kernel("x", 240, 300));
            gpu.submit(p2, kernel("y", 240, 300));
            drive_until_idle(&mut gpu, 200);
            assert_eq!(gpu.completed_kernels(p1), 1, "{policy}");
            assert_eq!(gpu.completed_kernels(p2), 1, "{policy}");
            // Semantics intact under every policy.
            for &k in gpu.procs[0].kernels.iter().chain(&gpu.procs[1].kernels) {
                assert_eq!(gpu.engine().output_mismatches(k), 0, "{policy}");
            }
        }
    }

    #[test]
    fn idle_scheduler_reports_idle() {
        let mut gpu = GpuScheduler::builder(GpuConfig::fermi())
            .policy(Policy::Drain)
            .partition(PartitionPolicy::Even)
            .build();
        assert!(gpu.is_idle());
        let p = gpu.add_process();
        assert!(gpu.is_idle());
        gpu.submit(p, kernel("k", 10, 50));
        assert!(!gpu.is_idle());
        drive_until_idle(&mut gpu, 50);
        assert!(gpu.is_idle());
        assert_eq!(gpu.completed_kernels(p), 1);
    }

    #[test]
    fn chimera_moves_the_sms_algorithm_1_ranks_cheapest() {
        let mut gpu = GpuScheduler::builder(GpuConfig::fermi())
            .policy(Policy::chimera_us(30.0))
            .build();
        let p1 = gpu.add_process();
        let p2 = gpu.add_process();
        let hog = KernelDesc::builder("hog")
            .grid_blocks(4_000)
            .threads_per_block(128)
            .regs_per_thread(16)
            .program(Program::new(vec![
                Segment::load(4),
                Segment::compute(2_000),
                Segment::store(4),
            ]))
            .jitter_pct(0.4)
            .build()
            .unwrap();
        gpu.submit(p1, hog.clone());
        gpu.run_for_us(300.0);
        assert!(gpu.owner.iter().all(|&o| o == Some(p1.0)));
        // Rank p1's SMs the way one request for p2's half must.
        let kid = gpu.procs[p1.0].current.expect("hog still runs");
        let cands = gpu.pre.candidates(&gpu.engine, |_| true);
        assert!(cands.iter().all(|&sm| gpu.engine.sm_resident_count(sm) > 0));
        let desc = gpu.engine.kernel_desc(kid);
        let req = SelectionRequest {
            limit_cycles: gpu.engine.config().us_to_cycles(30.0),
            num_preempts: 15,
            ctx_bytes_per_tb: desc.block_context_bytes(),
            obs: gpu.pre.obs().obs(desc.name()),
            flush_allowed: true,
            estimator: gpu.estimator(),
        };
        let snaps: Vec<_> = cands.iter().map(|&sm| gpu.engine.sm_snapshot(sm)).collect();
        let mut want: Vec<usize> = select_preemptions(gpu.engine.config(), &req, &snaps)
            .iter()
            .map(|p| p.sm)
            .collect();
        want.sort_unstable();
        let mut fewest_blocks_first = cands[..15].to_vec();
        fewest_blocks_first.sort_unstable();
        assert_ne!(want, fewest_blocks_first, "the ranking must matter here");
        // One scheduling pass launches p2's kernel and moves the SMs.
        gpu.submit(p2, hog.with_name("newcomer"));
        gpu.schedule();
        let mut moved: Vec<usize> = std::mem::take(&mut gpu.events)
            .into_iter()
            .filter_map(|e| match e {
                SchedEvent::SmReassigned { sm, to } if to == p2 => Some(sm),
                _ => None,
            })
            .collect();
        moved.sort_unstable();
        assert_eq!(moved, want);
    }

    #[test]
    fn two_processes_split_odd_sm_counts_at_the_middle() {
        let n = 15;
        let mut gpu = GpuScheduler::builder(GpuConfig {
            num_sms: n,
            ..GpuConfig::fermi()
        })
        .partition(PartitionPolicy::Even)
        .build();
        let p1 = gpu.add_process();
        let p2 = gpu.add_process();
        gpu.submit(p1, kernel("a", 4_000, 2_000));
        gpu.submit(p2, kernel("b", 4_000, 2_000));
        gpu.run_for_us(5.0);
        let want: Vec<Option<usize>> = (0..n).map(|sm| Some(usize::from(sm >= n / 2))).collect();
        assert_eq!(gpu.owner, want);
    }

    #[test]
    fn priority_requests_hold_their_sms_outside_the_partition() {
        let cfg = GpuConfig {
            num_sms: 4,
            ..GpuConfig::fermi()
        };
        let mut gpu = GpuScheduler::builder(cfg).policy(Policy::Switch).build();
        let p = gpu.add_process();
        gpu.submit(p, kernel("long", 4_000, 20_000));
        gpu.step_until(1);
        let long = gpu.procs[p.0].current.expect("launched");
        let held_by = |gpu: &GpuScheduler, ri: usize| -> Vec<usize> {
            gpu.held
                .iter()
                .filter(|(_, h)| h.0 == ri)
                .map(|(&sm, _)| sm)
                .collect()
        };

        // Nothing is dispatched yet: an idle SM is handed over at issue.
        let (t0, exec) = (gpu.cycle(), 50_000);
        gpu.reserve(p, 1, exec, None, false);
        assert_eq!(gpu.requests[0].completed_at, Some(t0));
        assert_eq!(held_by(&gpu, 0), [0]);
        // It stays unassigned through every pass and returns at its release.
        while gpu.cycle() < t0 + exec {
            assert_eq!(gpu.engine().sm_assigned(0), None);
            gpu.step_until(gpu.cycle() + 7_000);
        }
        assert_eq!(gpu.cycle(), t0 + exec, "a step ends at the release");
        assert_eq!(gpu.engine().sm_assigned(0), Some(long));
        assert!(gpu.held.is_empty());

        // An occupied SM is handed over only when its switch completes.
        gpu.step_until(gpu.cycle() + 2_000);
        assert!((0..4).all(|sm| gpu.engine().sm_resident_count(sm) > 0));
        gpu.reserve(p, 1, exec, None, false);
        let [sm] = held_by(&gpu, 1)[..] else {
            panic!("one SM held")
        };
        while gpu.engine().sm_is_preempting(sm) {
            assert_eq!(gpu.requests[1].acquired, 0);
            gpu.step_until(gpu.cycle() + 500);
        }
        let rq = &gpu.requests[1];
        assert_eq!((rq.acquired, rq.completed_at), (1, Some(gpu.cycle())));
        assert!(rq.t < gpu.cycle());

        // With a task kernel the held SM runs it until it finishes.
        gpu.reserve(p, 1, 0, Some(kernel("task", 8, 200)), false);
        let [task_sm] = held_by(&gpu, 2)[..] else {
            panic!("one SM held")
        };
        while gpu.requests[2].acquired == 0 {
            gpu.step_until(gpu.cycle() + 500);
        }
        let task = gpu.requests[2].task_kid.expect("task launched");
        while !gpu.engine().kernel_stats(task).finished {
            assert_eq!(gpu.engine().sm_assigned(task_sm), Some(task));
            gpu.step_until(gpu.cycle() + 5_000);
        }
        assert!(held_by(&gpu, 2).is_empty());
        assert_eq!(gpu.engine().sm_assigned(task_sm), Some(long));

        // A repartition never takes a held SM.
        gpu.reserve(p, 1, 10_000_000, None, false);
        let [kept] = held_by(&gpu, 3)[..] else {
            panic!("one SM held")
        };
        let q = gpu.add_process();
        gpu.submit(q, kernel("newcomer", 4_000, 20_000));
        let mut moved = Vec::new();
        for _ in 0..200 {
            for ev in gpu.step_until(gpu.cycle() + 1_000) {
                if let SchedEvent::SmReassigned { sm, to } = ev {
                    if to == q {
                        moved.push(sm);
                    }
                }
            }
        }
        assert_eq!(moved.len(), 2, "{moved:?}");
        assert!(!moved.contains(&kept));
        assert_eq!(gpu.owner[kept], Some(p.0));
        assert_eq!(gpu.engine().sm_assigned(kept), None);
    }

    #[test]
    fn online_estimator_updates_reach_the_event_log() {
        let count_updates = |estimator: EstimatorConfig| {
            let mut gpu = GpuScheduler::builder(GpuConfig::fermi())
                .estimator(estimator)
                .event_log(1 << 18)
                .build();
            let p1 = gpu.add_process();
            let p2 = gpu.add_process();
            gpu.submit(p1, kernel("a", 600, 400));
            gpu.submit(p2, kernel("b", 600, 400));
            drive_until_idle(&mut gpu, 100);
            let log = gpu.engine().event_log().expect("log enabled");
            log.iter()
                .filter(|e| e.kind() == "estimator_update")
                .count()
        };
        assert!(count_updates(EstimatorConfig::online(0.9)) > 0);
        assert_eq!(count_updates(EstimatorConfig::default()), 0);
    }
}
