//! The metrics registry: atomic counters, gauges, log₂-bucketed
//! histograms, and scrape-time collectors, rendered in the Prometheus
//! text exposition format.
//!
//! Two registration styles coexist because the codebase has two kinds of
//! signal:
//!
//! * **Live instruments** ([`Registry::counter`], [`Registry::gauge`],
//!   [`Registry::histogram`]) — cheap atomic handles updated on the hot
//!   path. Cloning a handle shares the underlying cell.
//! * **Collectors** ([`Registry::register_collector`]) — closures
//!   invoked at scrape time, the adapter path for the snapshot APIs the
//!   stack already has (`MarketStats`, `TrafficSnapshot`, `ChaosStats`):
//!   the existing subsystems keep their own counters and the collector
//!   re-exports them as named [`Family`] rows, so no subsystem is
//!   rewritten just to be observable.
//!
//! There is deliberately no global registry: a [`Registry`] is a value
//! the caller creates and threads to whoever needs it, so two markets in
//! one process (tests, benches) can never collide in a hidden static.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of log₂ buckets a [`Histogram`] keeps: bucket 0 holds the
/// value 0, bucket `i ≥ 1` holds values in `[2^(i-1), 2^i - 1]`, and the
/// last bucket (index 64) is unbounded above (`+Inf` in the exposition).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotonically increasing counter. Cloning shares the cell.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A free-standing counter (not attached to any registry).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down. Stored as `f64` bits so it
/// can carry seconds, ratios, and counts alike. Cloning shares the cell.
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Default for Gauge {
    fn default() -> Gauge {
        Gauge { cell: Arc::new(AtomicU64::new(0f64.to_bits())) }
    }
}

impl Gauge {
    /// A free-standing gauge (not attached to any registry).
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Set the gauge.
    pub fn set(&self, v: f64) {
        self.cell.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.cell.load(Ordering::Relaxed))
    }
}

/// A log₂-bucketed histogram of `u64` observations.
///
/// Exact-boundary bucketing costs one `leading_zeros` per observation
/// and no allocation, so it is safe on hot paths; the price is bounded
/// resolution: a quantile estimate is the upper bound of the bucket the
/// true quantile falls in, which over-reports by strictly less than 2×
/// (the bucket's lower bound is half its upper bound). Counts are
/// conserved exactly: the sum of all bucket counts is the observation
/// count — both properties are enforced by proptests.
///
/// Cloning shares the cells.
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            inner: Arc::new(HistogramInner {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                sum: AtomicU64::new(0),
                count: AtomicU64::new(0),
            }),
        }
    }
}

/// The bucket index a value lands in: 0 for 0, else `floor(log2 v) + 1`.
fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// The inclusive upper bound of bucket `i` (`u64::MAX` for the last,
/// rendered as `+Inf`).
pub fn bucket_upper_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        64 => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

impl Histogram {
    /// A free-standing histogram (not attached to any registry).
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one observation.
    pub fn observe(&self, v: u64) {
        self.inner.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(v, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of the per-bucket counts (non-cumulative).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.inner.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }

    /// Nearest-rank quantile estimate: the upper bound of the bucket the
    /// true `q`-quantile falls in (0 when nothing was observed). The
    /// estimate `e` satisfies `v ≤ e < 2v` for any true quantile value
    /// `v ≥ 1` — bounded relative error, by construction of the log₂
    /// boundaries.
    pub fn quantile(&self, q: f64) -> u64 {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(HISTOGRAM_BUCKETS - 1)
    }

    /// Expand into exposition samples: cumulative `_bucket{le=...}`
    /// rows, `_sum`, and `_count`, with `extra_labels` on every bucket
    /// row. Empty buckets between occupied ones are kept (cumulative
    /// rows must be monotone) but the long empty tail is collapsed into
    /// the final `+Inf` row to keep scrape output bounded.
    pub fn to_samples(&self, extra_labels: &[(String, String)]) -> Vec<Sample> {
        let counts = self.bucket_counts();
        let last_occupied = counts.iter().rposition(|&c| c > 0).unwrap_or(0);
        let mut samples = Vec::with_capacity(last_occupied + 4);
        let mut cumulative = 0u64;
        for (i, &c) in counts.iter().enumerate().take(last_occupied + 1) {
            cumulative += c;
            let mut labels = extra_labels.to_vec();
            let le = bucket_upper_bound(i);
            labels.push((
                "le".to_string(),
                if le == u64::MAX { "+Inf".to_string() } else { le.to_string() },
            ));
            samples.push(Sample { suffix: "_bucket".into(), labels, value: cumulative as f64 });
        }
        if bucket_upper_bound(last_occupied) != u64::MAX {
            let mut labels = extra_labels.to_vec();
            labels.push(("le".to_string(), "+Inf".to_string()));
            samples.push(Sample { suffix: "_bucket".into(), labels, value: cumulative as f64 });
        }
        samples.push(Sample {
            suffix: "_sum".into(),
            labels: extra_labels.to_vec(),
            value: self.sum() as f64,
        });
        samples.push(Sample {
            suffix: "_count".into(),
            labels: extra_labels.to_vec(),
            value: self.count() as f64,
        });
        samples
    }
}

/// What a metric family is, for the `# TYPE` exposition line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing.
    Counter,
    /// Goes up and down.
    Gauge,
    /// Cumulative `_bucket`/`_sum`/`_count` rows.
    Histogram,
    /// Pre-computed quantiles (`{quantile="0.5"}` rows).
    Summary,
}

impl MetricKind {
    fn exposition(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
            MetricKind::Summary => "summary",
        }
    }
}

/// One exposition row of a family: `name<suffix>{labels} value`.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Appended to the family name (`""`, `"_bucket"`, `"_sum"`,
    /// `"_count"`).
    pub suffix: String,
    /// Label pairs, rendered in order.
    pub labels: Vec<(String, String)>,
    /// The value.
    pub value: f64,
}

impl Sample {
    /// An unlabelled, unsuffixed sample.
    pub fn value(value: f64) -> Sample {
        Sample { suffix: String::new(), labels: Vec::new(), value }
    }

    /// A sample with one label.
    pub fn labelled(key: &str, val: &str, value: f64) -> Sample {
        Sample { suffix: String::new(), labels: vec![(key.to_string(), val.to_string())], value }
    }
}

/// One named metric family: what a collector returns and what the
/// renderer consumes.
#[derive(Debug, Clone)]
pub struct Family {
    /// Family name (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
    pub name: String,
    /// The `# HELP` line.
    pub help: String,
    /// The `# TYPE` line.
    pub kind: MetricKind,
    /// Rows, rendered in order.
    pub samples: Vec<Sample>,
}

impl Family {
    /// A single-sample family — the common case for adapters.
    pub fn single(name: &str, help: &str, kind: MetricKind, value: f64) -> Family {
        Family {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            samples: vec![Sample::value(value)],
        }
    }
}

/// The live instruments a registry owns, in registration order.
enum Instrument {
    Counter { name: String, help: String, handle: Counter },
    Gauge { name: String, help: String, handle: Gauge },
    Histogram { name: String, help: String, handle: Histogram },
}

impl Instrument {
    fn name(&self) -> &str {
        match self {
            Instrument::Counter { name, .. }
            | Instrument::Gauge { name, .. }
            | Instrument::Histogram { name, .. } => name,
        }
    }

    fn family(&self) -> Family {
        match self {
            Instrument::Counter { name, help, handle } => {
                Family::single(name, help, MetricKind::Counter, handle.get() as f64)
            }
            Instrument::Gauge { name, help, handle } => {
                Family::single(name, help, MetricKind::Gauge, handle.get())
            }
            Instrument::Histogram { name, help, handle } => Family {
                name: name.clone(),
                help: help.clone(),
                kind: MetricKind::Histogram,
                samples: handle.to_samples(&[]),
            },
        }
    }
}

type Collector = Box<dyn Fn() -> Vec<Family> + Send + Sync>;

struct RegistryInner {
    instruments: Mutex<Vec<Instrument>>,
    collectors: Mutex<Vec<Collector>>,
}

/// A set of metric families scraped together. Cloning shares the set.
///
/// # Example
///
/// ```
/// use dauctioneer_telemetry::Registry;
///
/// let registry = Registry::new();
/// let requests = registry.counter("requests_total", "Requests served.");
/// requests.inc();
/// let text = registry.render();
/// assert!(text.contains("# TYPE requests_total counter"));
/// assert!(text.contains("requests_total 1"));
/// ```
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Default for RegistryInner {
    fn default() -> RegistryInner {
        RegistryInner { instruments: Mutex::new(Vec::new()), collectors: Mutex::new(Vec::new()) }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("instruments", &self.inner.instruments.lock().expect("registry lock").len())
            .field("collectors", &self.inner.collectors.lock().expect("registry lock").len())
            .finish()
    }
}

/// `true` iff `name` is a legal Prometheus metric name.
fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn register(&self, instrument: Instrument) {
        let mut instruments = self.inner.instruments.lock().expect("registry lock");
        assert!(valid_metric_name(instrument.name()), "invalid metric name {}", instrument.name());
        assert!(
            !instruments.iter().any(|i| i.name() == instrument.name()),
            "duplicate metric name {}",
            instrument.name()
        );
        instruments.push(instrument);
    }

    /// Register and return a counter.
    ///
    /// # Panics
    ///
    /// Panics on an invalid or duplicate name (a local programming
    /// error: metric names are static strings, not operator input).
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        let handle = Counter::new();
        self.register(Instrument::Counter {
            name: name.to_string(),
            help: help.to_string(),
            handle: handle.clone(),
        });
        handle
    }

    /// Register and return a gauge.
    ///
    /// # Panics
    ///
    /// Panics on an invalid or duplicate name.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        let handle = Gauge::new();
        self.register(Instrument::Gauge {
            name: name.to_string(),
            help: help.to_string(),
            handle: handle.clone(),
        });
        handle
    }

    /// Register and return a log₂ histogram.
    ///
    /// # Panics
    ///
    /// Panics on an invalid or duplicate name.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        let handle = Histogram::new();
        self.register(Instrument::Histogram {
            name: name.to_string(),
            help: help.to_string(),
            handle: handle.clone(),
        });
        handle
    }

    /// Register a scrape-time collector: invoked on every
    /// [`Registry::render`], after the live instruments, in registration
    /// order. The adapter path for snapshot-style stats.
    pub fn register_collector(&self, f: impl Fn() -> Vec<Family> + Send + Sync + 'static) {
        self.inner.collectors.lock().expect("registry lock").push(Box::new(f));
    }

    /// Render every family in the Prometheus text exposition format
    /// (version 0.0.4).
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(1024);
        for instrument in self.inner.instruments.lock().expect("registry lock").iter() {
            render_family(&mut out, &instrument.family());
        }
        for collector in self.inner.collectors.lock().expect("registry lock").iter() {
            for family in collector() {
                render_family(&mut out, &family);
            }
        }
        out
    }
}

/// Escape a `# HELP` text: backslash and newline.
fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escape a label value: backslash, double-quote, newline.
fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Format a sample value the way Prometheus expects: integral values
/// without a trailing `.0`, non-finite values as `NaN`/`+Inf`/`-Inf`.
fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 {
            "+Inf".to_string()
        } else {
            "-Inf".to_string()
        }
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn render_family(out: &mut String, family: &Family) {
    out.push_str("# HELP ");
    out.push_str(&family.name);
    out.push(' ');
    out.push_str(&escape_help(&family.help));
    out.push('\n');
    out.push_str("# TYPE ");
    out.push_str(&family.name);
    out.push(' ');
    out.push_str(family.kind.exposition());
    out.push('\n');
    for sample in &family.samples {
        out.push_str(&family.name);
        out.push_str(&sample.suffix);
        if !sample.labels.is_empty() {
            out.push('{');
            for (i, (k, v)) in sample.labels.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(k);
                out.push_str("=\"");
                out.push_str(&escape_label(v));
                out.push('"');
            }
            out.push('}');
        }
        out.push(' ');
        out.push_str(&fmt_value(sample.value));
        out.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
        g.set(-1.0);
        assert_eq!(g.get(), -1.0);
    }

    #[test]
    fn bucket_boundaries_are_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
        // Every value lands in the bucket whose bounds contain it.
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, 1 << 40] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper_bound(i));
            if i > 0 {
                assert!(v > bucket_upper_bound(i - 1));
            }
        }
    }

    #[test]
    fn histogram_observes_and_estimates() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.observe(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        let p50 = h.quantile(0.5);
        // True p50 = 50; the estimate is its bucket's upper bound (63).
        assert!((50..100).contains(&p50), "p50 estimate {p50}");
        assert_eq!(h.quantile(1.0), 127, "p100 bucket holds 64..=127");
        assert_eq!(Histogram::new().quantile(0.5), 0);
    }

    #[test]
    fn histogram_samples_are_cumulative_and_capped() {
        let h = Histogram::new();
        h.observe(0);
        h.observe(5);
        let samples = h.to_samples(&[]);
        // Buckets 0..=3 (last occupied holds 4..=7), one +Inf row, sum, count.
        let buckets: Vec<&Sample> = samples.iter().filter(|s| s.suffix == "_bucket").collect();
        assert_eq!(buckets.last().unwrap().labels.last().unwrap().1, "+Inf");
        assert_eq!(buckets.last().unwrap().value, 2.0);
        let values: Vec<f64> = buckets.iter().map(|s| s.value).collect();
        assert!(values.windows(2).all(|w| w[0] <= w[1]), "cumulative rows must be monotone");
        assert_eq!(samples.iter().find(|s| s.suffix == "_sum").unwrap().value, 5.0);
        assert_eq!(samples.iter().find(|s| s.suffix == "_count").unwrap().value, 2.0);
    }

    #[test]
    fn registry_renders_expositions() {
        let r = Registry::new();
        let c = r.counter("widgets_total", "Widgets made.");
        c.add(3);
        let g = r.gauge("temperature", "Degrees.");
        g.set(21.5);
        r.register_collector(|| {
            vec![Family {
                name: "adapter_value".into(),
                help: "From a snapshot.".into(),
                kind: MetricKind::Gauge,
                samples: vec![Sample::labelled("kind", "x", 7.0)],
            }]
        });
        let text = r.render();
        assert!(text.contains("# HELP widgets_total Widgets made.\n"));
        assert!(text.contains("# TYPE widgets_total counter\nwidgets_total 3\n"));
        assert!(text.contains("temperature 21.5\n"));
        assert!(text.contains("adapter_value{kind=\"x\"} 7\n"));
    }

    #[test]
    #[should_panic(expected = "duplicate metric name")]
    fn duplicate_names_panic() {
        let r = Registry::new();
        let _a = r.counter("dup_total", "a");
        let _b = r.counter("dup_total", "b");
    }

    #[test]
    fn names_are_validated() {
        assert!(valid_metric_name("a_b:c9"));
        assert!(valid_metric_name("_x"));
        assert!(!valid_metric_name("9x"));
        assert!(!valid_metric_name("a-b"));
        assert!(!valid_metric_name(""));
    }

    #[test]
    fn label_values_are_escaped() {
        let mut out = String::new();
        render_family(
            &mut out,
            &Family {
                name: "esc".into(),
                help: "line\nbreak".into(),
                kind: MetricKind::Gauge,
                samples: vec![Sample::labelled("k", "a\"b\\c", 1.0)],
            },
        );
        assert!(out.contains("# HELP esc line\\nbreak\n"));
        assert!(out.contains("esc{k=\"a\\\"b\\\\c\"} 1\n"));
    }
}
