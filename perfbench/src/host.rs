//! Host-side measurement: wall and CPU clocks, the host-speed calibration,
//! peak memory, order statistics, and the in-memory span recorder of traced
//! runs.
//!
//! Every clock read of the benchmark lives here, outside the simulator's
//! source roots, so the simulator's own determinism lint never sees it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// CPU time this thread has spent running, ns (`/proc/thread-self/schedstat`,
/// first field). The benchmark runs every measured call on its main thread.
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Wall and CPU time of one measured interval, seconds.
#[derive(Debug, Clone, Copy)]
pub struct Elapsed {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// CPU seconds of the measuring thread.
    pub cpu_s: f64,
}

/// Run `f` and return its result with the wall and CPU time it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Elapsed) {
    let cpu0 = thread_cpu_ns();
    let t0 = Instant::now();
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = thread_cpu_ns().saturating_sub(cpu0) as f64 / 1e9;
    (out, Elapsed { wall_s, cpu_s })
}

/// Wall time of one calibration unit on the reference host, seconds: about
/// what [`calibration_unit`] takes on the 2-vCPU host the bounds were set
/// on. It only fixes the scale of normalised times.
pub const NOMINAL_UNIT_S: f64 = 0.022;

/// Share of the calibrated runner time spent on calibration units.
const CALIBRATION_SHARE: f64 = 0.4;

/// One step of a 64-bit LCG: the calibration's fixed pseudo-random input.
fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *x >> 20
}

/// A random cyclic permutation of 2^20 slots (4 MB), made in place by
/// Sattolo's algorithm: the pointer chase of the calibration unit. Built
/// once per process, outside any timing, and never freed, so that it
/// leaves the allocator's thresholds as the program alone would set them.
fn chase_ring() -> &'static [u32] {
    static RING: OnceLock<Vec<u32>> = OnceLock::new();
    RING.get_or_init(|| {
        let n = 1u32 << 20;
        let mut ring: Vec<u32> = (0..n).collect();
        let mut x = 12_345u64;
        for i in (1..n as usize).rev() {
            let j = (lcg(&mut x) % i as u64) as usize;
            ring.swap(i, j);
        }
        ring
    })
}

/// A fixed amount of work shaped like the simulator's: ordered-map churn,
/// a dependent pointer chase through 4 MB, a sort, random updates to small
/// heap-owning records, and independent integer chains that keep the core's
/// issue slots busy. It runs no simulator code, so a change to the
/// program leaves it as it is; its time tracks how fast the shared host
/// runs the simulator's kind of work at that moment (co-tenants slow both
/// through shared caches, memory and core resources, not through the
/// clock).
pub fn calibration_unit() -> f64 {
    let ring = chase_ring();
    let t0 = Instant::now();
    let mut x = 7u64;
    let mut acc = 0u64;
    let mut map = BTreeMap::new();
    for i in 0..25_000u64 {
        map.insert(lcg(&mut x), i);
        if map.len() > 4096 {
            acc = acc.wrapping_add(map.pop_first().map_or(0, |(_, v)| v));
        }
    }
    let mut at = 0u32;
    for _ in 0..50_000 {
        at = ring[at as usize];
    }
    // Sorted in a buffer kept for the process: freeing a buffer this large
    // would move the allocator's mmap threshold under the program's feet.
    static KEYS: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let mut keys = KEYS.lock().unwrap_or_else(|e| e.into_inner());
    keys.clear();
    keys.extend((0..150_000).map(|_| lcg(&mut x)));
    keys.sort_unstable();
    #[derive(Clone, Default)]
    struct Record {
        pc: u64,
        regs: [u32; 8],
        queue: Vec<u32>,
    }
    let mut records = vec![Record::default(); 1536];
    for i in 0..600_000u32 {
        let r = &mut records[(lcg(&mut x) % 1536) as usize];
        r.pc += 1;
        r.regs[(r.pc & 7) as usize] ^= i;
        if r.queue.len() < 16 {
            r.queue.push(i);
        } else {
            acc = acc.wrapping_add(r.queue.drain(..8).map(u64::from).sum::<u64>());
        }
    }
    let mut chains = [1u64, 2, 3, 4];
    for i in 0..2_500_000u64 {
        chains[0] = chains[0].wrapping_mul(31).wrapping_add(i);
        chains[1] ^= chains[1] << 13;
        chains[1] ^= chains[1] >> 7;
        chains[2] = chains[2].wrapping_add(chains[0] >> 3);
        chains[3] = chains[3].rotate_left(5) ^ chains[2];
    }
    std::hint::black_box((acc, at, keys[keys.len() / 2], &records, chains));
    t0.elapsed().as_secs_f64()
}

/// Whether [`Calibration::after`] runs units: off until
/// [`start_calibrating`], so that a first pass can run, and be measured for
/// memory, with none of the calibration's buffers resident.
static CALIBRATING: AtomicBool = AtomicBool::new(false);

/// Let [`Calibration::after`] run calibration units from now on.
pub fn start_calibrating() {
    CALIBRATING.store(true, Ordering::Relaxed);
}

/// Wall time of calibration units measured right after timed calls, and
/// what the same units take on the reference host.
#[derive(Debug, Clone, Copy, Default)]
pub struct Calibration {
    /// Measured wall seconds of the units.
    pub measured_s: f64,
    /// [`NOMINAL_UNIT_S`] times the number of units.
    pub nominal_s: f64,
}

impl Calibration {
    /// Calibrate after runner calls that took `call_s` wall seconds:
    /// enough units for [`CALIBRATION_SHARE`] of that, at least one. Runs
    /// none before [`start_calibrating`].
    pub fn after(call_s: f64) -> Calibration {
        if !CALIBRATING.load(Ordering::Relaxed) {
            return Calibration::default();
        }
        let units = (CALIBRATION_SHARE * call_s / NOMINAL_UNIT_S)
            .ceil()
            .max(1.0) as usize;
        Calibration {
            measured_s: (0..units).map(|_| calibration_unit()).sum(),
            nominal_s: units as f64 * NOMINAL_UNIT_S,
        }
    }

    /// Add another calibration's units to this one.
    pub fn add(&mut self, other: Calibration) {
        self.measured_s += other.measured_s;
        self.nominal_s += other.nominal_s;
    }

    /// How much slower than the reference host the units ran (1 when no
    /// unit ran).
    pub fn slowdown(&self) -> f64 {
        if self.nominal_s > 0.0 {
            self.measured_s / self.nominal_s
        } else {
            1.0
        }
    }
}

/// A started wall-clock deadline.
pub struct Budget {
    start: Instant,
    seconds: f64,
}

impl Budget {
    /// A budget of `seconds` starting now.
    pub fn start(seconds: f64) -> Budget {
        Budget {
            start: Instant::now(),
            seconds,
        }
    }

    /// Whether the budget is used up.
    pub fn spent(&self) -> bool {
        self.start.elapsed().as_secs_f64() >= self.seconds
    }

    /// Whether another step of `step_s` seconds would end nearer the
    /// budget's end than stopping now does.
    pub fn room_for(&self, step_s: f64) -> bool {
        self.start.elapsed().as_secs_f64() + step_s / 2.0 < self.seconds
    }
}

/// Median of `xs` (mean of the two middle values for an even count); 0 for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile of `xs` that has at least `beyond` samples above
/// it, as `(percentile, value)`: the value is the sample at rank
/// `len − beyond` of the ascending order. `None` when there are not more
/// than `beyond` samples.
pub fn tail(xs: &[f64], beyond: usize) -> Option<(f64, f64)> {
    if xs.len() <= beyond {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let ix = v.len() - beyond - 1;
    Some((100.0 * (ix + 1) as f64 / v.len() as f64, v[ix]))
}

/// Median time of one call of `f` at reference host speed, seconds, over
/// warm repetitions for about `seconds`. Calls are timed in batches of at
/// least 200 µs, so a path of a few microseconds is not lost in timer
/// resolution. Batches are grouped into samples of about
/// [`NOMINAL_UNIT_S`], each followed by one calibration unit that
/// normalises the sample's median batch time.
pub fn median_call_s<T>(seconds: f64, mut f: impl FnMut() -> T) -> f64 {
    const MIN_SAMPLES: usize = 15;
    let t0 = Instant::now();
    std::hint::black_box(f());
    let one = t0.elapsed().as_secs_f64().max(1e-9);
    let batch = (200e-6 / one).ceil().max(1.0) as usize;
    let budget = Budget::start(seconds);
    let mut samples = Vec::new();
    while samples.len() < MIN_SAMPLES || !budget.spent() {
        let sample = Instant::now();
        let mut batches = Vec::new();
        while batches.is_empty() || sample.elapsed().as_secs_f64() < NOMINAL_UNIT_S {
            let t0 = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            batches.push(t0.elapsed().as_secs_f64() / batch as f64);
        }
        let slowdown = calibration_unit() / NOMINAL_UNIT_S;
        samples.push(median(&batches) / slowdown);
    }
    median(&samples)
}

/// Run `f` inside a span named `name` when the run is traced.
pub fn maybe_span<T>(
    spans: &mut Option<&mut Spans>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    match spans {
        Some(s) => s.span(name, |_| f()),
        None => f(),
    }
}

/// One recorded span: a named interval around a call the benchmark made
/// into a layer, with the span that enclosed it.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// In-memory span recorder for traced runs. Spans stay in memory while the
/// run measures and are written out once, when it ends.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record `f` as a span named `name`, nested in whichever span is open.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        let ix = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(ix);
        let out = f(self);
        self.open.pop();
        self.spans[ix].end_ns = self.now_ns();
        out
    }

    /// Durations of every span named `name`, µs.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Total duration of the spans named `name`, seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_us(name).iter().sum::<f64>() / 1e6
    }

    /// Write every span as one JSON object per line to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
