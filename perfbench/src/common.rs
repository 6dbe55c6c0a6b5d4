//! Shared pieces: the seeded generator, order statistics, the result
//! object, and the in-memory span recorder behind the traced runs.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// SplitMix64: every input the benchmark generates comes from one of
/// these, seeded from `--seed`, so a seed fixes the inputs exactly.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(s = 1) over `n` ranks by inverse-CDF lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / k as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn rank(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Linear-interpolated quantile of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

pub fn micros(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

/// One reported metric: name, value, unit, and the number of samples
/// behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// What one run produced: the checked op counts and its metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Lines describing how the numbers were made (flags, sizes).
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric { name: name.to_string(), value, unit, samples });
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Counts one checked answer.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Windows a timed phase is cut into for [`push_windowed`].
pub const WINDOWS: usize = 5;

/// Throughput and the p50/p99 latency of one op-cost class, each taken
/// per window of `WINDOWS` equal-time windows of the phase, reporting the
/// median across windows: a host stall shorter than two windows then
/// does not set the run's figure. `ops` yields each completed op's
/// finish time (seconds into the phase), its latency (µs), and whether
/// it belongs to the class the percentiles are taken over.
pub fn push_windowed(out: &mut Outcome, seconds: f64, ops: impl Iterator<Item = (f64, f64, bool)>) {
    let width = seconds / WINDOWS as f64;
    let mut counts = [0usize; WINDOWS];
    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); WINDOWS];
    for (at, us, in_class) in ops {
        let w = ((at / width) as usize).min(WINDOWS - 1);
        counts[w] += 1;
        if in_class {
            latencies[w].push(us);
        }
    }
    let total: usize = counts.iter().sum();
    let in_class: usize = latencies.iter().map(Vec::len).sum();
    let rates: Vec<f64> = counts.iter().map(|&c| c as f64 / width).collect();
    let pct = |q: f64| -> f64 {
        let per: Vec<f64> =
            latencies.iter().filter(|l| !l.is_empty()).map(|l| quantile(&sorted(l), q)).collect();
        median(&per)
    };
    out.push("throughput_ops_s", median(&rates), "ops/s", total);
    out.push("latency_p50_us", pct(0.50), "us", in_class);
    out.push("latency_p99_us", pct(0.99), "us", in_class);
}

/// A finished span: `parent` indexes the recorder's span list.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

/// Spans kept in memory and written once, at the end, as Chrome
/// trace-event JSON (loads in Perfetto and `chrome://tracing`).
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Every span's duration by name, µs, kept or not.
    durations: HashMap<&'static str, Vec<f64>>,
}

/// Spans past this many are still timed and aggregated but not kept,
/// so a long traced run writes a bounded file.
const MAX_KEPT_SPANS: usize = 200_000;

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new(), durations: HashMap::new() }
    }

    /// Runs `f` as span `name` under `parent`; returns its result, the
    /// span's index (for children) and its duration in microseconds.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce(&mut Tracer, Option<usize>) -> T,
    ) -> (T, f64) {
        let start = self.epoch.elapsed().as_nanos() as u64;
        let idx = (self.spans.len() < MAX_KEPT_SPANS).then(|| {
            self.spans.push(Span { name, start_ns: start, end_ns: start, parent, request });
            self.spans.len() - 1
        });
        let value = f(self, idx);
        let end = self.epoch.elapsed().as_nanos() as u64;
        if let Some(i) = idx {
            self.spans[i].end_ns = end;
        }
        let us = (end - start) as f64 / 1e3;
        self.durations.entry(name).or_default().push(us);
        (value, us)
    }

    /// A leaf span around `f`.
    pub fn leaf<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        self.span(name, parent, request, |_, _| f())
    }

    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 120 + 2);
        out.push('[');
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"parent\":{parent},\"request\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.request
            );
        }
        out.push(']');
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }

    /// Durations of every span named `name`, µs.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.durations.get(name).cloned().unwrap_or_default()
    }
}

/// Peak resident set (VmHWM) of process `pid`, in MB.
pub fn vm_hwm_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `cpu_set_t` as glibc lays it out: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Pins this process to the highest CPU it may run on, when it may run
/// on more than one. Servers spawned afterwards inherit the pin, so a
/// closed-loop client and its server hand each request over on one
/// core instead of waking each other across cores — the placement the
/// scheduler would otherwise pick anew each run. Returns the CPU.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a live, writable buffer of exactly the size
    // passed, and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) } != 0 {
        return None;
    }
    let allowed: Vec<usize> =
        (0..1024).filter(|bit| mask[bit / 64] & (1u64 << (bit % 64)) != 0).collect();
    let cpu = *allowed.last()?;
    if allowed.len() < 2 {
        return None;
    }
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1u64 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the size passed; the
    // call only reads it.
    (unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } == 0).then_some(cpu)
}
