//! Small statistics helpers and the result a workload hands back.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::calib;
use crate::trace::Tracer;

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations the closed loop started.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// One line per failed check (printed, capped).
    pub problems: Vec<String>,
    /// Metric values by name; the caller selects the reported set.
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable context lines (sample counts, passes, paths).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Count one operation; `problems` empty means it passed.
    pub fn record(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems.extend(problems);
        }
    }

    /// Record `p`, `p50` and `p90` of a latency sample with its count.
    pub fn latency(&mut self, prefix: &str, ms: &[f64]) {
        self.set(format!("{prefix}.p50"), percentile(ms, 50.0));
        self.set(format!("{prefix}.p90"), percentile(ms, 90.0));
        self.notes.push(format!(
            "{prefix}: n={} (p90 has {} samples beyond it)",
            ms.len(),
            ms.len() / 10
        ));
    }

    /// Per-name call counts, total and self time from the trace, as
    /// human lines.
    pub fn trace_table(&mut self, t: &Tracer) {
        self.notes.push(format!(
            "{:<26} {:>8} {:>12} {:>12}",
            "span", "calls", "total_ms", "self_ms"
        ));
        for (name, st) in t.self_times() {
            self.notes.push(format!(
                "{:<26} {:>8} {:>12.3} {:>12.3}",
                name,
                st.calls,
                st.total_ns as f64 / 1e6,
                st.self_ns as f64 / 1e6
            ));
        }
    }
}

/// Closed-loop bookkeeping shared by the workloads: calibrated latency
/// of every untraced operation, the host slowdown around each, and
/// traced against untraced time.
#[derive(Debug, Default)]
pub struct Timing {
    /// Untraced latencies in reference-host milliseconds.
    pub lat_ms: Vec<f64>,
    /// Host slowdown measured around each operation (both sides).
    pub slowdowns: Vec<f64>,
    pub traced_s: f64,
    pub untraced_s: f64,
    /// The probe taken after the last operation, which is also the
    /// probe before the next one.
    last_probe: Option<f64>,
}

impl Timing {
    /// Run operation `n`: `op` runs once, or in a traced run twice,
    /// traced and untraced in alternating order, so that the tracing
    /// overhead is measured on identical work. Each run is bracketed by
    /// [`calib::slowdown`] probes (the probe after one run is the probe
    /// before the next) and its time divided by their mean.
    /// `done` receives each result, untimed, with whether it was traced
    /// and that slowdown, by which the workload divides the times the
    /// result carries.
    pub fn op<R>(
        &mut self,
        t: &mut Tracer,
        trace_run: bool,
        n: usize,
        mut op: impl FnMut(&mut Tracer) -> R,
        mut done: impl FnMut(R, bool, f64),
    ) {
        let sides: &[bool] = match (trace_run, n % 2) {
            (false, _) => &[false],
            (true, 0) => &[true, false],
            (true, _) => &[false, true],
        };
        for &traced in sides {
            t.set_on(traced);
            t.set_op(n as u64);
            let before = self.last_probe.unwrap_or_else(calib::slowdown);
            let t0 = Instant::now();
            let r = op(t);
            let secs = t0.elapsed().as_secs_f64();
            let after = calib::slowdown();
            self.last_probe = Some(after);
            let slowdown = (before + after) / 2.0;
            self.slowdowns.push(slowdown);
            let secs = secs / slowdown;
            if traced {
                self.traced_s += secs;
            } else {
                self.untraced_s += secs;
                self.lat_ms.push(secs * 1e3);
            }
            done(r, traced, slowdown);
        }
        t.set_on(trace_run);
    }

    /// Median untraced latency in reference-host seconds (0 before the
    /// first one).
    pub fn median_s(&self) -> f64 {
        median(&self.lat_ms) / 1e3
    }

    /// `ops_per_s` (untraced operations per calibrated second spent in
    /// them) and `op_ms.*`, and in a traced run `trace.overhead_frac`.
    pub fn report(&self, trace_run: bool, out: &mut Outcome) {
        out.set(
            "ops_per_s",
            ratio(self.lat_ms.len() as f64, self.untraced_s),
        );
        out.latency("op_ms", &self.lat_ms);
        out.notes.push(format!(
            "host slowdown against the reference host: median {:.3}, range {:.3}..{:.3}",
            median(&self.slowdowns),
            percentile(&self.slowdowns, 0.0),
            percentile(&self.slowdowns, 100.0)
        ));
        if trace_run {
            out.set("trace.overhead_frac", self.traced_s / self.untraced_s - 1.0);
        }
    }
}

/// Median of `rounds` runs of `f`, each in calibrated seconds (divided
/// by the mean of the probes before and after it, the probe after one
/// round being the probe before the next); the result of the last run
/// is returned with it.
pub fn calibrated_rounds<R>(rounds: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut secs = Vec::with_capacity(rounds);
    let mut last = None;
    let mut before = calib::slowdown();
    for _ in 0..rounds {
        let t0 = Instant::now();
        last = Some(f());
        let s = t0.elapsed().as_secs_f64();
        let after = calib::slowdown();
        secs.push(s / ((before + after) / 2.0));
        before = after;
    }
    (median(&secs), last.expect("at least one round"))
}

/// Percentile by linear interpolation between closest ranks; 0 when
/// there are no samples.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = p / 100.0 * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Geometric mean of the positive values; 0 when there are none.
pub fn geomean(v: &[f64]) -> f64 {
    let logs: Vec<f64> = v.iter().filter(|x| **x > 0.0).map(|x| x.ln()).collect();
    if logs.is_empty() {
        return 0.0;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// `num / den`, 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seeded Fisher–Yates permutation of `0..n`.
pub fn permutation(n: usize, rng: &mut simbench_differ::Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 90.0), 4.6);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn permutation_is_a_seeded_shuffle() {
        let a = permutation(50, &mut simbench_differ::Rng::new(1));
        let b = permutation(50, &mut simbench_differ::Rng::new(1));
        let c = permutation(50, &mut simbench_differ::Rng::new(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
