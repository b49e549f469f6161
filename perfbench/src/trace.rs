//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is (name, start, end, parent) plus the id of the operation
//! (matrix cell visit, churn round or fuzz subject) it belongs to. When
//! tracing is off, [`Tracer::span`] only calls its closure, so the
//! untraced run that yields the end-to-end metrics pays one branch per
//! layer call. Spans are written out once, as Chrome trace-event JSON,
//! after the timed phase.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
    op: u64,
}

/// Span recorder shared by every layer call of one run.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

/// Self time and call count of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfTime {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Switch recording on or off between operations (never inside a
    /// span), so one run can interleave traced and untraced operations.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "tracing toggled inside a span");
        self.on = on;
    }

    /// The id stamped on spans recorded from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end = self.now();
        out
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<Duration> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| Duration::from_nanos(s.end - s.start))
            .collect()
    }

    /// [`Tracer::durations`] in milliseconds.
    pub fn millis(&self, name: &str) -> Vec<f64> {
        self.durations(name)
            .iter()
            .map(|d| d.as_secs_f64() * 1e3)
            .collect()
    }

    /// Per-name call count, total and self time. Self time is a span's
    /// duration minus the time its direct children cover (children of
    /// one parent never overlap: every span opens on the calling thread).
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            let dur = s.end - s.start;
            e.calls += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(children);
        }
        out
    }

    /// Chrome trace-event JSON (complete `X` events, microsecond
    /// timestamps), the format the program's own telemetry writes, so
    /// it opens in Perfetto or `chrome://tracing`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"pid\": 1, \"tid\": 1, \
                 \"args\": {{\"span\": {i}, \"parent\": {parent}, \"op\": {}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start as f64 / 1e3,
                (s.end - s.start) as f64 / 1e3,
                s.op
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |_| std::thread::sleep(Duration::from_millis(2)));
        });
        let st = t.self_times();
        let (outer, inner) = (st["outer"], st["inner"]);
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert_eq!(outer.total_ns, outer.self_ns + inner.total_ns);
        assert!(inner.self_ns >= 2_000_000);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.self_times().is_empty());
        assert!(t.chrome_json().contains("traceEvents"));
    }
}
