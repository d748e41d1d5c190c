//! A job: one benchmark driven through the engine, launch by launch,
//! restarting from the beginning when a pass completes (§4.4 methodology).

use gpu_sim::{Engine, KernelId};
use workloads::Benchmark;

/// A benchmark being executed: serial kernel launches with wrap-around.
#[derive(Debug, Clone)]
pub struct Job {
    benchmark: Benchmark,
    launch_idx: usize,
    passes: u32,
    current: Option<KernelId>,
    instances: Vec<KernelId>,
    /// Measurement budget in useful warp instructions (`None` = unbounded).
    budget: Option<u64>,
    measured_at: Option<u64>,
}

impl Job {
    /// Create a job for a benchmark with an optional measurement budget.
    pub fn new(benchmark: Benchmark, budget: Option<u64>) -> Self {
        Job {
            benchmark,
            launch_idx: 0,
            passes: 0,
            current: None,
            instances: Vec::new(),
            budget,
            measured_at: None,
        }
    }

    /// The benchmark's name.
    pub fn name(&self) -> &str {
        self.benchmark.name()
    }

    /// The currently running kernel instance, if any.
    pub fn current(&self) -> Option<KernelId> {
        self.current
    }

    /// Completed full passes over the launch sequence.
    pub fn passes(&self) -> u32 {
        self.passes
    }

    /// All kernel instances this job has launched.
    pub fn instances(&self) -> &[KernelId] {
        &self.instances
    }

    /// Ensure a kernel is running: launch the next one if the current
    /// finished (or none was launched yet). Returns `true` when a new kernel
    /// was launched — the scheduler must then (re)assign SMs.
    pub fn ensure_running(&mut self, engine: &mut Engine) -> bool {
        let needs_launch = match self.current {
            None => true,
            Some(k) => engine.kernel_stats(k).finished,
        };
        if !needs_launch {
            return false;
        }
        if self.current.is_some() {
            // Advance past the finished launch.
            self.launch_idx += 1;
            if self.launch_idx >= self.benchmark.launches().len() {
                self.launch_idx = 0;
                self.passes += 1;
            }
        }
        let desc = self.benchmark.launches()[self.launch_idx].clone();
        let kid = engine.launch_kernel(desc);
        self.instances.push(kid);
        self.current = Some(kid);
        true
    }

    /// Useful warp instructions executed so far (issued minus flush-discarded
    /// across every instance).
    pub fn useful_insts(&self, engine: &Engine) -> u64 {
        self.instances
            .iter()
            .map(|&k| engine.kernel_stats(k).useful_insts())
            .sum()
    }

    /// Check whether the measurement target is reached (first full pass, or
    /// the instruction budget) and record the cycle if so. Returns `true`
    /// once measured.
    pub fn check_measured(&mut self, engine: &Engine) -> bool {
        if self.measured_at.is_some() {
            return true;
        }
        let budget_hit = self.budget.is_some_and(|b| self.useful_insts(engine) >= b);
        if self.passes >= 1 || budget_hit {
            self.measured_at = Some(engine.cycle());
            return true;
        }
        false
    }

    /// Cycle at which the measurement target was reached.
    pub fn measured_at(&self) -> Option<u64> {
        self.measured_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{Engine, GpuConfig, KernelDesc, Program, Segment};
    use workloads::Benchmark;

    fn bench() -> Benchmark {
        let k = |name: &str, grid| {
            KernelDesc::builder(name)
                .grid_blocks(grid)
                .threads_per_block(64)
                .regs_per_thread(8)
                .program(Program::new(vec![Segment::compute(100)]))
                .build()
                .unwrap()
        };
        Benchmark::new("T", vec![k("t0", 4), k("t1", 4)])
    }

    #[test]
    fn job_advances_through_launches_and_passes() {
        let mut e = Engine::new(GpuConfig::tiny());
        let mut j = Job::new(bench(), None);
        assert!(j.ensure_running(&mut e));
        let first = j.current().expect("job has a running kernel");
        for sm in 0..2 {
            e.assign_sm(sm, Some(first));
        }
        // Drive to completion of pass 1 (two launches).
        let mut launches = 1;
        for _ in 0..200 {
            e.run_for(100_000);
            if j.ensure_running(&mut e) {
                launches += 1;
                for sm in 0..2 {
                    e.assign_sm(sm, Some(j.current().expect("job has a running kernel")));
                }
            }
            if j.passes() >= 1 {
                break;
            }
        }
        assert!(j.passes() >= 1, "job should wrap around");
        assert!(launches >= 3, "t0, t1, then restart t0");
        assert!(j.useful_insts(&e) > 0);
        assert_eq!(j.instances().len(), launches);
    }

    #[test]
    fn measurement_by_pass_and_by_budget() {
        let mut e = Engine::new(GpuConfig::tiny());
        let mut j = Job::new(bench(), Some(100));
        j.ensure_running(&mut e);
        for sm in 0..2 {
            e.assign_sm(sm, Some(j.current().expect("job has a running kernel")));
        }
        assert!(!j.check_measured(&e));
        e.run_for(2_000_000);
        // 100-inst budget is tiny; the first launch alone exceeds it.
        assert!(j.check_measured(&e));
        assert!(j.measured_at().is_some());
    }
}
