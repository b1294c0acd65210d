//! Measurement plumbing shared by every workload: order statistics, the
//! process high-water mark, the metric list, and the benchmark's own span
//! recorder.

use std::time::Instant;

/// Sorted copy of `v` (every statistic below starts from one).
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median of `v` (mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    assert!(!s.is_empty(), "median of no samples");
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        0.5 * (s[mid - 1] + s[mid])
    }
}

/// Best of N: the smallest sample. Trials are identical, so what separates
/// them is the machine, and on the box this was sized on that only ever adds
/// time — the minimum repeats from run to run two to three times better than
/// the median (see README, "Protocol").
pub fn best(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "best of no samples");
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Nearest-rank quantile of an already sorted slice: the smallest sample
/// with at least `q` of the samples at or below it.
pub fn quantile_sorted(s: &[f64], q: f64) -> f64 {
    assert!(!s.is_empty(), "quantile of no samples");
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Mean of the slowest tenth (rounded up) of an already sorted slice. It is
/// gated in place of a high percentile: where latencies fall into a cheap and
/// a dear class and the percentile sits near the border between them, a few
/// samples changing sides move the percentile by the distance between the
/// classes, and the mean beyond it hardly at all.
pub fn slowest_tenth_mean(s: &[f64]) -> f64 {
    assert!(!s.is_empty(), "tail of no samples");
    let tail = &s[s.len() - s.len().div_ceil(10)..];
    tail.iter().sum::<f64>() / tail.len() as f64
}

/// Interquartile range over the median — the noise gauge printed as
/// `bench.trial_spread`. Zero for fewer than four samples.
pub fn spread(v: &[f64]) -> f64 {
    if v.len() < 4 {
        return 0.0;
    }
    let s = sorted(v);
    (quantile_sorted(&s, 0.75) - quantile_sorted(&s, 0.25)) / median(&s)
}

/// `num / den`, or 0 where the denominator is: a layer the workload does
/// not exercise has nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set of this process in MB (`VmHWM` of
/// `/proc/self/status`); 0 where the file is missing.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The metrics of one run, in print order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// What a workload hands back to `main`.
pub struct Outcome {
    /// Operations attempted in timed trials plus answers checked outside
    /// them.
    pub attempted: u64,
    /// Errors, rejections, oracle mismatches and determinism violations.
    pub failed: u64,
    pub metrics: Metrics,
    /// The main thread's recorder, holding every span of the run.
    pub rec: Recorder,
}

/// The layer (crate) a span's callee belongs to.
pub type Layer = &'static str;

/// One call into a layer, recorded from outside it.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span within the same recorder, if any.
    pub parent: Option<u32>,
    /// Trial number or request id the span belongs to.
    pub group: u64,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Span recorder owned by one thread. Recording is a timestamp pair and a
/// push into a pre-sized vector; `off()` makes every call a branch.
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

/// Handle returned by [`Recorder::start`].
#[derive(Clone, Copy)]
pub struct Open(Option<u32>);

impl Recorder {
    pub fn new(on: bool, origin: Instant, capacity: usize) -> Self {
        Recorder {
            on,
            origin,
            spans: Vec::with_capacity(if on { capacity } else { 0 }),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn start(&mut self, name: &'static str, layer: Layer, parent: Open, group: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            layer,
            start_ns: now,
            end_ns: now,
            parent: parent.0,
            group,
        });
        Open(Some(self.spans.len() as u32 - 1))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(i) = open.0 {
            self.spans[i as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// Record `f` as one span.
    pub fn call<T>(
        &mut self,
        name: &'static str,
        layer: Layer,
        parent: Open,
        group: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.start(name, layer, parent, group);
        let out = f();
        self.end(open);
        out
    }

    pub fn root() -> Open {
        Open(None)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus what its children cover.
pub fn self_times_s(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::dur_s).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] -= s.dur_s();
        }
    }
    own
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// event per span, `cat` = layer, `args` carrying group, parent and self
/// time.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let own = self_times_s(spans);
    let mut out = String::with_capacity(64 + spans.len() * 160);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"span\":{},\"parent\":{},\"group\":{},\"self_us\":{:.3}}}}}",
            s.name,
            s.layer,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            i,
            parent,
            s.group,
            own[i] * 1e6,
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        let s = sorted(&v);
        assert_eq!(quantile_sorted(&s, 0.95), 5.0);
        assert_eq!(quantile_sorted(&s, 0.5), 3.0);
        assert_eq!(quantile_sorted(&s, 0.0), 1.0);
        assert_eq!(slowest_tenth_mean(&s), 5.0);
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(slowest_tenth_mean(&twenty), 19.5);
        assert!((spread(&v) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn self_time_subtracts_children() {
        let origin = Instant::now();
        let mut rec = Recorder::new(true, origin, 4);
        let outer = rec.start("outer", "bench", Recorder::root(), 0);
        rec.call("inner", "graph", outer, 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.end(outer);
        let own = self_times_s(rec.spans());
        let total = rec.spans()[0].dur_s();
        assert!((own[0] + own[1] - total).abs() < 1e-9);
        assert!(chrome_trace_json(rec.spans()).contains("\"cat\":\"graph\""));
        let mut off = Recorder::new(false, origin, 4);
        off.call("x", "graph", Recorder::root(), 0, || ());
        assert!(off.spans().is_empty());
    }
}
