//! Always-on query metrics: atomic counters, log-bucketed
//! histograms, and the [`MetricsRegistry`] aggregating them across
//! queries under stable series names.
//!
//! The tracing recorder ([`crate::Recorder`]) answers "what happened in
//! *this* run"; this module answers "what has been happening across
//! *all* runs" — the aggregation layer a serving harness reports p50/p99
//! from. Everything is dependency-free and lock-free on the hot path:
//!
//! - [`Counter`] is a single relaxed atomic;
//! - [`Histogram`] is a fixed array of atomic bucket counts over
//!   log-spaced bounds (powers of ~1.3 covering 1 ns to minutes), plus
//!   exact `count`/`sum`/`max` atomics. Recording is two relaxed
//!   atomic adds, a relaxed max, and a binary search over a static
//!   bound table; percentile extraction returns the *upper bound* of
//!   the bucket holding the requested rank (≤ ~30 % relative error by
//!   construction) and the exact maximum for the top rank.
//! - [`MetricsRegistry`] is a cheap cloneable handle in the
//!   [`crate::Recorder`] mold: [`MetricsRegistry::disabled`] (the
//!   default everywhere) hands out empty handles whose every probe is
//!   one branch, so instrumented hot paths cost nothing when metrics
//!   are off. Series are interned once (at attach time, not per
//!   increment) and named `layer.noun[.qualifier]` — see the registry
//!   table in `DESIGN.md` §14; `crates/bench/metrics_baseline.txt` pins
//!   the names.
//!
//! Exports: a human table ([`MetricsRegistry::render_table`]) with
//! p50/p90/p99/max per histogram, a Prometheus-style text exposition
//! ([`MetricsRegistry::render_prometheus`]), and a bridge into the
//! trace counter registry ([`MetricsRegistry::publish_to_recorder`])
//! so the Chrome trace `reproduce trace` writes carries the series
//! without any schema change.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::recorder::Recorder;

/// Growth factor between consecutive histogram bucket bounds.
const GROWTH: f64 = 1.3;
/// Highest finite bucket bound: 10 minutes in nanoseconds. Values above
/// land in the overflow bucket (whose percentile is the exact max).
const MAX_BOUND: u64 = 600_000_000_000;

/// The log-spaced bucket upper bounds (inclusive), shared by every
/// histogram: 1, 2, 3, 4, 6, 8, 11, … — each bound is the previous one
/// times ~1.3, rounded up (and forced strictly increasing, so the small
/// bounds are exact consecutive integers until the geometric step
/// exceeds 1).
pub(crate) fn bucket_bounds() -> &'static [u64] {
    static BOUNDS: OnceLock<Vec<u64>> = OnceLock::new();
    BOUNDS.get_or_init(|| {
        let mut bounds = Vec::with_capacity(96);
        let mut b: u64 = 1;
        while b <= MAX_BOUND {
            bounds.push(b);
            b = (b + 1).max((b as f64 * GROWTH).ceil() as u64);
        }
        bounds
    })
}

/// Bucket index of a value: the first bound `>= v`, or the overflow
/// bucket (`bucket_bounds().len()`) for values beyond the last bound.
fn bucket_index(v: u64) -> usize {
    bucket_bounds().partition_point(|&b| b < v)
}

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add a delta.
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A log-bucketed histogram of `u64` samples (nanoseconds, rows, …).
#[derive(Debug)]
pub struct Histogram {
    /// One count per bound in [`bucket_bounds`], plus the overflow
    /// bucket at the end.
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    /// Saturating sum of all samples.
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        let n = bucket_bounds().len() + 1;
        Histogram {
            buckets: (0..n).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one sample. Two relaxed adds, one relaxed max, one binary
    /// search over the static bound table; never panics (values past the
    /// last bound — up to `u64::MAX` — land in the overflow bucket, and
    /// the running sum saturates instead of wrapping).
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        // `fetch_update` with saturation: a sum wrap would silently reset
        // long-lived latency totals.
        let _ = self
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(v))
            });
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Saturating sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Exact maximum sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0 < q <= 1`): the upper bound of the bucket
    /// holding the sample of rank `ceil(q·count)`. Ranks landing in the
    /// overflow bucket — and `q = 1` generally — report the exact
    /// maximum. Returns 0 for an empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        let bounds = bucket_bounds();
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return match bounds.get(i) {
                    // The true sample is <= the bucket bound; never
                    // report past the exact observed maximum.
                    Some(&bound) => bound.min(self.max()),
                    None => self.max(), // overflow bucket
                };
            }
        }
        self.max()
    }

    /// A plain-data snapshot (for rendering and per-query deltas).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
            p50: self.percentile(0.50),
            p90: self.percentile(0.90),
            p99: self.percentile(0.99),
        }
    }

    /// Non-empty `(upper_bound, cumulative_count)` pairs in bound order
    /// (the overflow bucket's bound is `u64::MAX`), for expositions.
    pub(crate) fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let bounds = bucket_bounds();
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                cum += c;
                out.push((bounds.get(i).copied().unwrap_or(u64::MAX), cum));
            }
        }
        out
    }
}

/// Plain-data summary of one histogram.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Saturating sum of all samples.
    pub sum: u64,
    /// Exact maximum sample.
    pub max: u64,
    /// Median (bucket upper bound).
    pub p50: u64,
    /// 90th percentile (bucket upper bound).
    pub p90: u64,
    /// 99th percentile (bucket upper bound).
    pub p99: u64,
}

/// A counter handle: one branch when detached (disabled registry), one
/// relaxed atomic add when live.
#[derive(Debug, Clone, Default)]
pub struct CounterHandle(Option<Arc<Counter>>);

impl CounterHandle {
    /// Add one.
    pub fn inc(&self) {
        if let Some(c) = &self.0 {
            c.inc();
        }
    }

    /// Add a delta.
    pub fn add(&self, delta: u64) {
        if let Some(c) = &self.0 {
            c.add(delta);
        }
    }

    /// Current total (0 when detached).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map(|c| c.get()).unwrap_or(0)
    }
}

/// A histogram handle (see [`CounterHandle`]).
#[derive(Debug, Clone, Default)]
pub struct HistogramHandle(Option<Arc<Histogram>>);

impl HistogramHandle {
    /// Record one sample.
    pub fn record(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.record(v);
        }
    }

    /// Samples recorded (0 when detached).
    pub fn count(&self) -> u64 {
        self.0.as_ref().map(|h| h.count()).unwrap_or(0)
    }
}

/// The named series of one registry. Series are created on first
/// request and never removed, so a name observed once stays in every
/// subsequent export (stable across queries).
#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, Arc<Counter>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// Everything one registry holds, as plain data.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// The metrics registry handle: cheap to clone, shared by every layer,
/// thread-safe (interning takes a mutex; recording is handle-local
/// atomics). [`MetricsRegistry::disabled`] (also `Default`) hands out
/// detached handles whose every probe is one branch.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry(Option<Arc<Mutex<RegistryInner>>>);

/// Take the registry's lock; a poisoned lock (a thread panicked while
/// interning) still yields the data — metrics are diagnostics.
fn lock(inner: &Mutex<RegistryInner>) -> std::sync::MutexGuard<'_, RegistryInner> {
    inner.lock().unwrap_or_else(|e| e.into_inner())
}

impl MetricsRegistry {
    /// An enabled, empty registry.
    pub fn new() -> Self {
        MetricsRegistry(Some(Arc::new(Mutex::new(RegistryInner::default()))))
    }

    /// The no-op registry: every handle it hands out is detached.
    pub fn disabled() -> Self {
        MetricsRegistry(None)
    }

    /// Whether this handle aggregates anything.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Intern (or look up) a counter series.
    pub fn counter(&self, name: &str) -> CounterHandle {
        CounterHandle(
            self.0
                .as_ref()
                .map(|inner| Arc::clone(lock(inner).counters.entry(name.to_string()).or_default())),
        )
    }

    /// Intern (or look up) a histogram series.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        HistogramHandle(
            self.0.as_ref().map(|inner| {
                Arc::clone(lock(inner).histograms.entry(name.to_string()).or_default())
            }),
        )
    }

    /// Every series name, sorted, counters and histograms alike (the
    /// name-stability gate's subject matter).
    pub fn names(&self) -> Vec<String> {
        let Some(inner) = &self.0 else {
            return Vec::new();
        };
        let r = lock(inner);
        let mut names: Vec<String> = r
            .counters
            .keys()
            .chain(r.histograms.keys())
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// Plain-data snapshot of everything.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(inner) = &self.0 else {
            return MetricsSnapshot::default();
        };
        let r = lock(inner);
        MetricsSnapshot {
            counters: r
                .counters
                .iter()
                .map(|(n, c)| (n.clone(), c.get()))
                .collect(),
            histograms: r
                .histograms
                .iter()
                .map(|(n, h)| (n.clone(), h.snapshot()))
                .collect(),
        }
    }

    /// The human table: one counters section, one histogram section
    /// with count, p50/p90/p99, max and mean.
    pub fn render_table(&self) -> String {
        use std::fmt::Write;
        let snap = self.snapshot();
        let mut out = String::new();
        if !snap.counters.is_empty() {
            out.push_str("| counter | total |\n|---|---|\n");
            for (name, v) in &snap.counters {
                let _ = writeln!(out, "| {name} | {v} |");
            }
        }
        if !snap.histograms.is_empty() {
            if !out.is_empty() {
                out.push('\n');
            }
            out.push_str(
                "| histogram | count | p50 | p90 | p99 | max | mean |\n|---|---|---|---|---|---|---|\n",
            );
            for (name, h) in &snap.histograms {
                let mean = if h.count > 0 {
                    h.sum as f64 / h.count as f64
                } else {
                    0.0
                };
                let _ = writeln!(
                    out,
                    "| {name} | {} | {} | {} | {} | {} | {mean:.1} |",
                    h.count, h.p50, h.p90, h.p99, h.max
                );
            }
        }
        out
    }

    /// Prometheus-style text exposition: `# TYPE` lines, `oorq_`-prefixed
    /// sanitized names, cumulative `_bucket{le=…}` samples (non-empty
    /// buckets plus `+Inf`), `_sum` and `_count` per histogram.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write;
        let Some(inner) = &self.0 else {
            return String::new();
        };
        let r = lock(inner);
        let mut out = String::new();
        for (name, c) in &r.counters {
            let p = prom_name(name);
            let _ = writeln!(out, "# TYPE {p} counter\n{p} {}", c.get());
        }
        for (name, h) in &r.histograms {
            let p = prom_name(name);
            let _ = writeln!(out, "# TYPE {p} histogram");
            for (bound, cum) in h.cumulative_buckets() {
                if bound == u64::MAX {
                    continue; // folded into +Inf below
                }
                let _ = writeln!(out, "{p}_bucket{{le=\"{bound}\"}} {cum}");
            }
            let _ = writeln!(out, "{p}_bucket{{le=\"+Inf\"}} {}", h.count());
            let _ = writeln!(out, "{p}_sum {}\n{p}_count {}", h.sum(), h.count());
        }
        out
    }

    /// Publish every series into a trace recorder's counter registry
    /// under a `metrics.` prefix — histograms as their percentile
    /// summaries — so the Chrome trace's `C` counter samples carry the
    /// series with no schema change.
    pub fn publish_to_recorder(&self, rec: &Recorder) {
        if !self.enabled() || !rec.enabled() {
            return;
        }
        let snap = self.snapshot();
        for (name, v) in &snap.counters {
            rec.counter_add(&format!("metrics.{name}"), *v as f64);
        }
        for (name, h) in &snap.histograms {
            for (stat, v) in [
                ("count", h.count),
                ("p50", h.p50),
                ("p90", h.p90),
                ("p99", h.p99),
                ("max", h.max),
            ] {
                rec.counter_add(&format!("metrics.{name}.{stat}"), v as f64);
            }
        }
    }
}

/// Sanitize a series name into the Prometheus grammar:
/// `oorq_` prefix, `[a-zA-Z0-9_]` body.
fn prom_name(name: &str) -> String {
    let body: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    format!("oorq_{body}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_are_strictly_increasing_powers() {
        let bounds = bucket_bounds();
        assert_eq!(bounds[0], 1);
        for w in bounds.windows(2) {
            assert!(w[1] > w[0], "strictly increasing: {} -> {}", w[0], w[1]);
            // Each step is the geometric growth (rounded up), floored at
            // +1 while the step is sub-integral.
            let geo = (w[0] as f64 * GROWTH).ceil() as u64;
            assert_eq!(w[1], geo.max(w[0] + 1), "bound after {}", w[0]);
        }
        let last = *bounds.last().unwrap();
        assert!(last > MAX_BOUND / 2 && last <= MAX_BOUND.saturating_mul(2));
    }

    #[test]
    fn bucket_boundaries_are_inclusive_upper_bounds() {
        let bounds = bucket_bounds();
        for (i, &b) in bounds.iter().enumerate().take(20) {
            assert_eq!(bucket_index(b), i, "bound {b} lands in its own bucket");
            assert_eq!(bucket_index(b + 1), i + 1, "bound+1 lands one up");
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
    }

    #[test]
    fn u64_extremes_saturate_into_overflow_bucket() {
        let h = Histogram::default();
        h.record(u64::MAX);
        h.record(u64::MAX); // sum saturates, no wrap
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.percentile(0.5), u64::MAX, "overflow bucket reports max");
        assert_eq!(bucket_index(u64::MAX), bucket_bounds().len());
    }

    #[test]
    fn empty_histogram_percentiles_are_zero() {
        let h = Histogram::default();
        for q in [0.01, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.percentile(q), 0);
        }
        assert_eq!(h.max(), 0);
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
    }

    #[test]
    fn percentiles_report_bucket_upper_bounds() {
        let h = Histogram::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        let p50 = h.percentile(0.5);
        // Rank 50's true value is 50; its bucket bound is the first
        // bound >= 50.
        let expect = *bucket_bounds().iter().find(|&&b| b >= 50).unwrap();
        assert_eq!(p50, expect);
        assert_eq!(h.percentile(1.0), 100, "top rank is the exact max");
        assert!(h.percentile(0.99) <= h.max());
        // The bound never exceeds the exact observed maximum.
        let one = Histogram::default();
        one.record(5);
        assert_eq!(one.percentile(0.5), 5);
    }

    #[test]
    fn registry_interns_series_by_name() {
        let m = MetricsRegistry::new();
        m.counter("a.hits").add(3);
        m.counter("a.hits").add(2); // same series
        m.counter("b.new").inc();
        m.histogram("a.wall").record(42);
        m.clone().histogram("a.wall").record(58); // same registry

        let snap = m.snapshot();
        assert_eq!(snap.counters["a.hits"], 5);
        assert_eq!(snap.counters["b.new"], 1);
        assert_eq!(snap.histograms["a.wall"].count, 2);
        assert_eq!(
            m.names(),
            vec!["a.hits", "a.wall", "b.new"],
            "sorted stable names"
        );
    }

    #[test]
    fn disabled_registry_hands_out_detached_handles() {
        let m = MetricsRegistry::disabled();
        assert!(!m.enabled());
        let c = m.counter("x");
        c.inc();
        assert_eq!(c.get(), 0);
        m.histogram("y").record(9);
        assert!(m.names().is_empty());
        assert!(m.snapshot().counters.is_empty());
        assert!(m.render_table().is_empty());
        assert!(m.render_prometheus().is_empty());
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let m = MetricsRegistry::new();
        m.counter("storage.page_hits").add(12);
        let h = m.histogram("exec.query.wall_ns");
        h.record(100);
        h.record(2000);
        let text = m.render_prometheus();
        assert!(text.contains("# TYPE oorq_storage_page_hits counter"));
        assert!(text.contains("oorq_storage_page_hits 12"));
        assert!(text.contains("# TYPE oorq_exec_query_wall_ns histogram"));
        assert!(text.contains("oorq_exec_query_wall_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("oorq_exec_query_wall_ns_sum 2100"));
        assert!(text.contains("oorq_exec_query_wall_ns_count 2"));
        // Cumulative bucket counts are monotone.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket{le=\"")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "monotone cumulative counts: {line}");
            last = v;
        }
    }

    #[test]
    fn publish_to_recorder_lands_in_trace_counters() {
        let m = MetricsRegistry::new();
        m.counter("exec.queries").add(4);
        m.histogram("exec.query.wall_ns").record(1234);
        let rec = Recorder::new();
        m.publish_to_recorder(&rec);
        let trace = rec.finish();
        assert_eq!(trace.counters["metrics.exec.queries"], 4.0);
        assert_eq!(trace.counters["metrics.exec.query.wall_ns.count"], 1.0);
        assert!(trace
            .counters
            .contains_key("metrics.exec.query.wall_ns.p99"));
        assert_eq!(trace.counters["metrics.exec.query.wall_ns.max"], 1234.0);
    }

    #[test]
    fn render_table_has_percentile_columns() {
        let m = MetricsRegistry::new();
        m.counter("c").inc();
        m.histogram("h").record(10);
        let t = m.render_table();
        assert!(t.contains("| counter | total |"));
        assert!(t.contains("| histogram | count | p50 | p90 | p99 | max | mean |"));
        assert!(t.contains("| h | 1 | 10 | 10 | 10 | 10 | 10.0 |"));
    }
}
