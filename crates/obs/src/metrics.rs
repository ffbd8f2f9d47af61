//! Metric primitives and a registry with a Prometheus-text renderer.
//!
//! [`Counter`] and [`Gauge`] are the workspace's lock-free event count
//! and last-value primitives (`buddy-pool` and `buddy-service` count
//! their events with them); [`Histogram`] completes the set.
//! A [`MetricsRegistry`] names them: registration and rendering lock a
//! mutex, updates through the returned `Arc` handles never do.
//!
//! Snapshot semantics are the workspace-wide statistical contract: a
//! render or sample taken while writers are active may split one logical
//! update; totals are exact once writers are quiescent.

use crate::hist::Histogram;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increments by one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        // Relaxed: pure event count — nothing is published through it and
        // snapshots tolerate staleness (module contract above).
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // Relaxed: monotonic stat, staleness is acceptable to readers.
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-writer-wins instantaneous value (bytes in use, live
/// allocations).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the gauge to an absolute value.
    pub fn set(&self, v: u64) {
        // Relaxed: the gauge is a freestanding sample; no reader infers
        // other memory state from it.
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // Relaxed: instantaneous sample, staleness is acceptable.
        self.0.load(Ordering::Relaxed)
    }
}

/// A registered metric.
#[derive(Debug, Clone)]
enum Registered {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

#[derive(Debug, Clone)]
struct MetricEntry {
    name: String,
    help: String,
    metric: Registered,
}

/// Quantiles a histogram is rendered and sampled at.
const QUANTILES: [(f64, &str); 4] = [
    (0.5, "0.5"),
    (0.95, "0.95"),
    (0.99, "0.99"),
    (0.999, "0.999"),
];

/// A named collection of metrics. Registration and rendering lock;
/// updates through the returned handles are lock-free.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    entries: Mutex<Vec<MetricEntry>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Locks the entry list, recovering from poisoning (entries are plain
    /// data; a panicked registrant leaves the list structurally valid).
    /// Deliberate (ROADMAP 2c): metrics must not take the service down,
    /// whatever poison policy the data plane adopts.
    fn entries(&self) -> std::sync::MutexGuard<'_, Vec<MetricEntry>> {
        match self.entries.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn push(&self, name: &str, help: &str, metric: Registered) {
        self.entries().push(MetricEntry {
            name: name.to_string(),
            help: help.to_string(),
            metric,
        });
    }

    /// Registers a counter and returns its update handle.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        let c = Arc::new(Counter::default());
        self.push(name, help, Registered::Counter(Arc::clone(&c)));
        c
    }

    /// Registers a gauge and returns its update handle.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        let g = Arc::new(Gauge::default());
        self.push(name, help, Registered::Gauge(Arc::clone(&g)));
        g
    }

    /// Registers a histogram and returns its update handle.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        let h = Arc::new(Histogram::new());
        self.push(name, help, Registered::Histogram(Arc::clone(&h)));
        h
    }

    /// Registered metric count.
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    /// Whether nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries().is_empty()
    }

    /// Renders every metric in the Prometheus text exposition format.
    /// Histograms render as summaries (quantile series plus `_sum` and
    /// `_count`), since the log buckets are an implementation detail.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for entry in self.entries().iter() {
            let name = &entry.name;
            let _ = writeln!(out, "# HELP {name} {}", entry.help);
            match &entry.metric {
                Registered::Counter(c) => {
                    let _ = writeln!(out, "# TYPE {name} counter");
                    let _ = writeln!(out, "{name} {}", c.get());
                }
                Registered::Gauge(g) => {
                    let _ = writeln!(out, "# TYPE {name} gauge");
                    let _ = writeln!(out, "{name} {}", g.get());
                }
                Registered::Histogram(h) => {
                    let snap = h.snapshot();
                    let _ = writeln!(out, "# TYPE {name} summary");
                    for (q, label) in QUANTILES {
                        let _ =
                            writeln!(out, "{name}{{quantile=\"{label}\"}} {}", snap.value_at(q));
                    }
                    let _ = writeln!(out, "{name}_sum {}", snap.sum());
                    let _ = writeln!(out, "{name}_count {}", snap.count());
                }
            }
        }
        out
    }

    /// Flattens every metric to `(series name, value)` pairs — one pair
    /// per counter/gauge, `count`/`sum`/quantile series per histogram.
    pub fn sample(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        for entry in self.entries().iter() {
            let name = &entry.name;
            match &entry.metric {
                Registered::Counter(c) => out.push((name.clone(), c.get() as f64)),
                Registered::Gauge(g) => out.push((name.clone(), g.get() as f64)),
                Registered::Histogram(h) => {
                    let snap = h.snapshot();
                    out.push((format!("{name}_count"), snap.count() as f64));
                    out.push((format!("{name}_sum"), snap.sum() as f64));
                    for (q, label) in QUANTILES {
                        out.push((format!("{name}_q{label}"), snap.value_at(q) as f64));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_do_arithmetic() {
        let c = Counter::default();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::default();
        g.set(7);
        assert_eq!(g.get(), 7);
        g.set(3);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn updates_from_many_threads_all_land() {
        let c = Counter::default();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..10_000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.get(), 40_000);
    }

    #[test]
    fn registry_renders_prometheus_text() {
        let r = MetricsRegistry::new();
        let c = r.counter("ops_total", "operations issued");
        let g = r.gauge("used_bytes", "bytes in use");
        let h = r.histogram("latency_ns", "operation latency");
        c.add(3);
        g.set(512);
        h.record(1000);
        h.record(2000);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE ops_total counter"));
        assert!(text.contains("ops_total 3"));
        assert!(text.contains("# TYPE used_bytes gauge"));
        assert!(text.contains("used_bytes 512"));
        assert!(text.contains("# TYPE latency_ns summary"));
        assert!(text.contains("latency_ns{quantile=\"0.5\"}"));
        assert!(text.contains("latency_ns_sum 3000"));
        assert!(text.contains("latency_ns_count 2"));
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
    }

    #[test]
    fn sample_flattens_histograms() {
        let r = MetricsRegistry::new();
        let h = r.histogram("t", "test");
        h.record(5);
        let names: Vec<String> = r.sample().into_iter().map(|(n, _)| n).collect();
        assert!(names.contains(&"t_count".to_string()));
        assert!(names.contains(&"t_sum".to_string()));
        assert!(names.contains(&"t_q0.99".to_string()));
    }
}
