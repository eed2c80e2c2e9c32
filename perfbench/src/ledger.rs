//! The benchmark's stopwatch, its statistics, and the in-memory span
//! ledger of the traced run.
//!
//! Every timed region is a call into a crate's public API, timed from
//! outside. In an untraced run the ledger is disabled and records
//! nothing; the workloads then time only the end-to-end operations.

use geoplace_bench::json::{object, Value};
use geoplace_dcsim::metrics::percentile;
use std::collections::BTreeMap;
use std::time::Instant;

/// Reads the wall clock.
pub fn now() -> Instant {
    // audit:allow(D2): the benchmark's own stopwatch; no reading feeds simulation state
    Instant::now()
}

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs `f`, returning its result and its wall time in milliseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = now();
    let out = f();
    (out, ms_since(start))
}

/// Quantile `q ∈ [0, 1]` of `samples`, NaN when there are none, so that
/// the finite-value check on the printed metrics flags an empty set.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    percentile(samples, q)
}

/// The median of `samples` (NaN when empty).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// One timed public call.
struct Span {
    metric: &'static str,
    slot: u32,
    ms: f64,
}

/// Spans and per-slot samples of a traced run.
pub struct Ledger {
    enabled: bool,
    slot: u32,
    spans: Vec<Span>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    totals: BTreeMap<&'static str, f64>,
}

impl Ledger {
    /// A ledger that records (`enabled`) or ignores everything.
    pub fn new(enabled: bool) -> Ledger {
        Ledger {
            enabled,
            slot: 0,
            spans: Vec::new(),
            samples: BTreeMap::new(),
            totals: BTreeMap::new(),
        }
    }

    /// Whether this run is traced.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags the following spans with their slot.
    pub fn at(&mut self, slot: u32) {
        self.slot = slot;
    }

    /// Records one timed call of `metric` (`<crate>.<name>_ms` or
    /// `_us`; the sample is converted to the metric's unit).
    pub fn time(&mut self, metric: &'static str, ms: f64) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            metric,
            slot: self.slot,
            ms,
        });
        let value = if metric.ends_with("_us") {
            ms * 1e3
        } else {
            ms
        };
        self.samples.entry(metric).or_default().push(value);
    }

    /// Records one per-slot count or size of `metric`.
    pub fn count(&mut self, metric: &'static str, value: f64) {
        if self.enabled {
            self.samples.entry(metric).or_default().push(value);
        }
    }

    /// Sets a whole-run value of `metric` (not a per-slot median).
    pub fn put(&mut self, metric: &'static str, value: f64) {
        if self.enabled {
            self.totals.insert(metric, value);
        }
    }

    /// Every metric: the median of its per-slot samples, or its
    /// whole-run value.
    pub fn metrics(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = self
            .samples
            .iter()
            .map(|(&name, samples)| (name, median(samples)))
            .collect();
        out.extend(self.totals.iter().map(|(&name, &value)| (name, value)));
        out
    }

    /// The span log plus self time per layer, as one JSON document.
    /// Spans never nest (each times one public call made by the
    /// benchmark), so a layer's self time is the sum of its spans.
    pub fn render_spans(&self, workload: &str, seed: u64) -> String {
        let mut self_ms: BTreeMap<&str, f64> = BTreeMap::new();
        for span in &self.spans {
            let layer = span.metric.split('.').next().unwrap_or(span.metric);
            *self_ms.entry(layer).or_default() += span.ms;
        }
        let spans = self
            .spans
            .iter()
            .map(|s| {
                object(vec![
                    ("call", s.metric.into()),
                    ("slot", s.slot.into()),
                    ("ms", s.ms.into()),
                ])
            })
            .collect();
        let layers = self_ms
            .iter()
            .map(|(&layer, &ms)| object(vec![("layer", layer.into()), ("self_ms", ms.into())]))
            .collect();
        object(vec![
            ("workload", workload.into()),
            ("seed", seed.into()),
            ("layers", Value::Array(layers)),
            ("spans", Value::Array(spans)),
        ])
        .render()
    }
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this
/// process) in MiB, read from `/proc/<pid>/status`.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
