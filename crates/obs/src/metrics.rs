//! Lock-free metrics: counters, gauges and fixed-bucket histograms behind
//! a global [`Registry`].
//!
//! Instrumentation sites use the [`counter!`](crate::counter!),
//! [`gauge!`](crate::gauge!) and [`histogram!`](crate::histogram!) macros,
//! which cache the registry lookup in a per-site `OnceLock`: the registry
//! mutex is taken once per site per process, after which every update is
//! plain interior atomics — no allocation, no locks on the hot path.
//!
//! Naming convention (DESIGN.md §11.3, checked by this crate's `names`
//! test): `snn_<subsystem>_<name>_<unit>`, e.g. `snn_faultsim_fault_seconds`.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// A monotonically increasing integer metric.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-value-wins float metric.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// A gauge at `0.0`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Default duration buckets (seconds): 1 ms … 60 s, Prometheus-style.
pub const DURATION_BUCKETS: &[f64] =
    &[0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0];

/// Fine duration buckets (seconds) for micro-scale timings such as
/// per-loss evaluation: 1 µs … 1 s.
pub const FINE_DURATION_BUCKETS: &[f64] = &[0.000_001, 0.000_01, 0.000_1, 0.001, 0.01, 0.1, 1.0];

/// A fixed-bucket histogram with Prometheus semantics: bucket bounds are
/// *inclusive* upper edges, plus an implicit `+Inf` overflow bucket.
#[derive(Debug)]
pub struct Histogram {
    /// Ascending inclusive upper bounds, excluding `+Inf`.
    bounds: Vec<f64>,
    /// One slot per bound plus the `+Inf` overflow slot (non-cumulative).
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

impl Histogram {
    /// A histogram over the given ascending inclusive upper bounds.
    pub fn new(bounds: &[f64]) -> Self {
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Self {
            bounds: bounds.to_vec(),
            buckets,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
        }
    }

    /// Records one observation. A value exactly equal to a bucket bound
    /// lands in that bucket (inclusive upper edge); values above every
    /// bound — and NaN — land in the overflow bucket.
    pub fn observe(&self, v: f64) {
        let slot = self.bounds.iter().position(|b| v <= *b).unwrap_or(self.bounds.len());
        self.buckets[slot].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Records a duration in seconds.
    pub fn observe_duration(&self, d: Duration) {
        self.observe(d.as_secs_f64());
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Non-cumulative per-bucket counts (last entry is the overflow
    /// bucket).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }

    /// The inclusive upper bounds this histogram was built with.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

#[derive(Debug, Clone)]
struct Entry {
    help: &'static str,
    metric: Metric,
}

/// A named collection of metrics. Most code uses the process-wide
/// [`global()`] registry through the site macros; tests build their own.
#[derive(Debug, Default)]
pub struct Registry {
    entries: Mutex<BTreeMap<&'static str, Entry>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter registered under `name`, registering it first
    /// if needed. If `name` is already registered as a different metric
    /// kind, a detached (unexported) counter is returned rather than
    /// panicking — the mismatch is a programming error the golden
    /// rendering tests catch.
    #[expect(clippy::disallowed_methods, reason = "looks up or inserts one entry")]
    pub fn counter(&self, name: &'static str, help: &'static str) -> Arc<Counter> {
        let mut entries = self.entries.lock();
        let entry = entries
            .entry(name)
            .or_insert_with(|| Entry { help, metric: Metric::Counter(Arc::new(Counter::new())) });
        match &entry.metric {
            Metric::Counter(c) => c.clone(),
            _ => Arc::new(Counter::new()),
        }
    }

    /// Returns the gauge registered under `name` (see [`Registry::counter`]
    /// for the collision policy).
    #[expect(clippy::disallowed_methods, reason = "looks up or inserts one entry")]
    pub fn gauge(&self, name: &'static str, help: &'static str) -> Arc<Gauge> {
        let mut entries = self.entries.lock();
        let entry = entries
            .entry(name)
            .or_insert_with(|| Entry { help, metric: Metric::Gauge(Arc::new(Gauge::new())) });
        match &entry.metric {
            Metric::Gauge(g) => g.clone(),
            _ => Arc::new(Gauge::new()),
        }
    }

    /// Returns the histogram registered under `name`, creating it with
    /// `bounds` if absent (see [`Registry::counter`] for the collision
    /// policy; an existing histogram keeps its original bounds).
    #[expect(clippy::disallowed_methods, reason = "looks up or inserts one entry")]
    pub fn histogram(
        &self,
        name: &'static str,
        help: &'static str,
        bounds: &[f64],
    ) -> Arc<Histogram> {
        let mut entries = self.entries.lock();
        let entry = entries.entry(name).or_insert_with(|| Entry {
            help,
            metric: Metric::Histogram(Arc::new(Histogram::new(bounds))),
        });
        match &entry.metric {
            Metric::Histogram(h) => h.clone(),
            _ => Arc::new(Histogram::new(bounds)),
        }
    }

    /// A point-in-time snapshot of every registered metric, ordered by
    /// name.
    #[expect(clippy::disallowed_methods, reason = "copies every value out")]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let entries = self.entries.lock();
        let metrics = entries
            .iter()
            .map(|(name, entry)| MetricSample {
                name: (*name).to_string(),
                help: entry.help.to_string(),
                value: match &entry.metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(HistogramSnapshot {
                        bounds: h.bounds().to_vec(),
                        buckets: h.bucket_counts(),
                        count: h.count(),
                        sum: h.sum(),
                    }),
                },
            })
            .collect();
        MetricsSnapshot { metrics }
    }

    /// Renders the registry in Prometheus text format 0.0.4.
    pub fn render_prometheus(&self) -> String {
        render_prometheus(&self.snapshot())
    }
}

/// The process-wide registry used by the site macros.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

// ---------------------------------------------------------------------------
// Snapshot (the wire type) and Prometheus rendering
// ---------------------------------------------------------------------------

/// Serializable snapshot of a [`Registry`] — the payload of the service
/// protocol's `Metrics` response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Every metric, ascending by name.
    pub metrics: Vec<MetricSample>,
}

/// One named metric in a snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricSample {
    /// Metric name (`snn_<subsystem>_<name>_<unit>`).
    pub name: String,
    /// One-line help text.
    pub help: String,
    /// The observed value.
    pub value: MetricValue,
}

/// A snapshot value, by metric kind.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MetricValue {
    /// Monotonic counter value.
    Counter(u64),
    /// Last-set gauge value.
    Gauge(f64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
}

/// Histogram state in a snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Ascending inclusive upper bounds (excluding `+Inf`).
    pub bounds: Vec<f64>,
    /// Non-cumulative bucket counts; one per bound plus the overflow
    /// bucket.
    pub buckets: Vec<u64>,
    /// Total observation count.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
}

/// Renders a snapshot in Prometheus text exposition format 0.0.4.
///
/// Output is deterministic: metrics appear in snapshot (name) order and
/// floats use Rust's shortest `Display` form.
pub fn render_prometheus(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for sample in &snapshot.metrics {
        let name = &sample.name;
        let kind = match &sample.value {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        };
        let _ = writeln!(out, "# HELP {name} {}", sample.help);
        let _ = writeln!(out, "# TYPE {name} {kind}");
        match &sample.value {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "{name} {v}");
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(out, "{name} {v}");
            }
            MetricValue::Histogram(h) => {
                let mut cumulative = 0u64;
                for (bound, bucket) in h.bounds.iter().zip(&h.buckets) {
                    cumulative += bucket;
                    let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
                }
                let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
                let _ = writeln!(out, "{name}_sum {}", h.sum);
                let _ = writeln!(out, "{name}_count {}", h.count);
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Site macros
// ---------------------------------------------------------------------------

/// Returns a `&'static Counter` registered in the global registry under
/// the given name, caching the lookup at the call site.
#[macro_export]
macro_rules! counter {
    ($name:expr, $help:expr) => {{
        static SITE: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Counter>> =
            ::std::sync::OnceLock::new();
        ::std::sync::Arc::as_ref(
            SITE.get_or_init(|| $crate::metrics::global().counter($name, $help)),
        )
    }};
}

/// Returns a `&'static Gauge` registered in the global registry under the
/// given name, caching the lookup at the call site.
#[macro_export]
macro_rules! gauge {
    ($name:expr, $help:expr) => {{
        static SITE: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Gauge>> =
            ::std::sync::OnceLock::new();
        ::std::sync::Arc::as_ref(SITE.get_or_init(|| $crate::metrics::global().gauge($name, $help)))
    }};
}

/// Returns a `&'static Histogram` registered in the global registry under
/// the given name (created with the given bounds), caching the lookup at
/// the call site.
#[macro_export]
macro_rules! histogram {
    ($name:expr, $help:expr, $bounds:expr) => {{
        static SITE: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Histogram>> =
            ::std::sync::OnceLock::new();
        ::std::sync::Arc::as_ref(
            SITE.get_or_init(|| $crate::metrics::global().histogram($name, $help, $bounds)),
        )
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let r = Registry::new();
        let c = r.counter("snn_test_total", "help");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name returns the same counter.
        r.counter("snn_test_total", "help").inc();
        assert_eq!(c.get(), 6);
        let g = r.gauge("snn_test_tau", "help");
        g.set(1.5);
        assert!((g.get() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn kind_collision_returns_detached_metric() {
        let r = Registry::new();
        let c = r.counter("snn_test_total", "help");
        c.inc();
        let g = r.gauge("snn_test_total", "help");
        g.set(9.0);
        // The registry still exports the original counter.
        assert_eq!(c.get(), 1);
        match &r.snapshot().metrics[0].value {
            MetricValue::Counter(v) => assert_eq!(*v, 1),
            other => panic!("expected counter, got {other:?}"),
        }
    }

    #[test]
    fn histogram_bucket_edges_are_inclusive() {
        let h = Histogram::new(&[1.0, 2.0, 5.0]);
        h.observe(1.0); // exactly on the first edge → first bucket
        h.observe(1.0000001); // just above → second bucket
        h.observe(2.0); // exactly on the second edge → second bucket
        h.observe(5.0); // exactly on the last edge → third bucket
        h.observe(5.0000001); // above every edge → overflow
        h.observe(f64::NAN); // NaN → overflow
        assert_eq!(h.bucket_counts(), vec![1, 2, 1, 2]);
        assert_eq!(h.count(), 6);
    }

    #[test]
    fn histogram_sum_accumulates_exactly_for_representable_values() {
        let h = Histogram::new(&[10.0]);
        for _ in 0..8 {
            h.observe(0.25);
        }
        assert!((h.sum() - 2.0).abs() < 1e-12);
        assert_eq!(h.count(), 8);
    }

    #[test]
    fn concurrent_counter_increments_sum_exactly() {
        let r = Registry::new();
        let c = r.counter("snn_test_concurrent_total", "help");
        let threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..per_thread {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), threads * per_thread);
    }

    #[test]
    fn concurrent_histogram_observations_count_exactly() {
        let h = Arc::new(Histogram::new(&[0.5, 1.0]));
        let threads = 8;
        let per_thread = 5_000u64;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let h = h.clone();
                s.spawn(move || {
                    for _ in 0..per_thread {
                        h.observe(0.25);
                    }
                });
            }
        });
        assert_eq!(h.count(), threads * per_thread);
        assert_eq!(h.bucket_counts()[0], threads * per_thread);
        assert!((h.sum() - 0.25 * (threads * per_thread) as f64).abs() < 1e-6);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let r = Registry::new();
        r.counter("snn_a_total", "a").add(3);
        r.gauge("snn_b_value", "b").set(0.5);
        r.histogram("snn_c_seconds", "c", &[1.0]).observe(0.5);
        let snap = r.snapshot();
        let text = serde::json::to_string(&snap);
        let back: MetricsSnapshot = serde::json::from_str(&text).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn snapshot_orders_by_name() {
        let r = Registry::new();
        r.counter("snn_z_total", "z");
        r.counter("snn_a_total", "a");
        let names: Vec<String> = r.snapshot().metrics.into_iter().map(|m| m.name).collect();
        assert_eq!(names, vec!["snn_a_total".to_string(), "snn_z_total".to_string()]);
    }

    #[test]
    fn site_macros_hit_the_global_registry() {
        counter!("snn_obs_selftest_total", "macro self-test").inc();
        let snap = global().snapshot();
        let sample = snap.metrics.iter().find(|m| m.name == "snn_obs_selftest_total").unwrap();
        match &sample.value {
            MetricValue::Counter(v) => assert!(*v >= 1),
            other => panic!("expected counter, got {other:?}"),
        }
        gauge!("snn_obs_selftest_value", "macro self-test").set(2.0);
        histogram!("snn_obs_selftest_seconds", "macro self-test", DURATION_BUCKETS).observe(0.01);
    }
}
