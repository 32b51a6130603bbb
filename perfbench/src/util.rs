//! Small helpers shared by the workloads: statistics, seeds, process
//! memory, and the result line.

use sops_math::SplitMix64;
use std::fmt::Write as _;
use std::time::Instant;

/// Worker threads the machine offers; every workload keeps its busy
/// threads at or below this.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();

/// Marks program start for [`progress`]; call first thing in `main`.
pub fn mark_start() -> Instant {
    *START.get_or_init(Instant::now)
}

/// A progress line on stderr, stamped with seconds since program start.
pub fn progress(what: &str) {
    let t = START.get().map_or(0.0, |s| s.elapsed().as_secs_f64());
    eprintln!("[{t:7.2} s] {what}");
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The `q`-quantile (0 ≤ q ≤ 1) with linear interpolation between order
/// statistics; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median; 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Mean; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `count` distinct seeds in `1..2³¹`, a pure function of the workload
/// seed and a per-purpose `stream` tag, none of them in `exclude`.
pub fn derive_seeds(workload_seed: u64, stream: u64, count: usize, exclude: &[u64]) -> Vec<u64> {
    let mut rng = SplitMix64::new(sops_math::rng::derive_seed(workload_seed, stream));
    let mut seen: std::collections::HashSet<u64> = exclude.iter().copied().collect();
    let mut out: Vec<u64> = Vec::with_capacity(count);
    while out.len() < count {
        let s = 1 + rng.next_below((1 << 31) - 1);
        if seen.insert(s) {
            out.push(s);
        }
    }
    out
}

/// Peak resident set size (`VmHWM`) of process `pid`, in MB (2²⁰ bytes).
pub fn vm_hwm_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    let line = text
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or_else(|| format!("{path}: no VmHWM line"))?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{path}: unreadable VmHWM line '{line}'"))?;
    Ok(kb / 1024.0)
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run reports: the operation accounting, the checks' verdict
/// and the metrics.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Checks,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The result line: one JSON object, the last line of stdout.
    pub fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                metrics,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.checks.passed(),
            self.attempted,
            self.failed
        )
    }
}

/// Correctness checks of one run; each failure is reported on stderr
/// with its reason.
#[derive(Default)]
pub struct Checks {
    ran: u64,
    failed: usize,
}

impl Checks {
    /// Records one check; `reason` is built only when it fails.
    pub fn check(&mut self, ok: bool, reason: impl FnOnce() -> String) {
        self.ran += 1;
        if !ok {
            eprintln!("CHECK FAILED: {}", reason());
            self.failed += 1;
        }
    }

    pub fn passed(&self) -> bool {
        self.failed == 0 && self.ran > 0
    }

    pub fn ran(&self) -> u64 {
        self.ran
    }

    pub fn failures(&self) -> usize {
        self.failed
    }
}
