//! Metric primitives and a registry that samples them.
//!
//! [`Counter`] is the workspace's lock-free event count (`buddy-pool`
//! and `buddy-service` count their events with it); [`Histogram`]
//! completes the set. A [`MetricsRegistry`] names them: registration and
//! sampling lock a mutex, updates through the returned `Arc` handles
//! never do.
//!
//! Snapshot semantics are the workspace-wide statistical contract: a
//! sample taken while writers are active may split one logical update;
//! totals are exact once writers are quiescent.

use crate::hist::Histogram;
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

/// A registered metric.
#[derive(Debug, Clone)]
enum Registered {
    Counter(Arc<Counter>),
    Histogram(Arc<Histogram>),
}

/// Quantiles a histogram is sampled at.
const QUANTILES: [(f64, &str); 4] = [
    (0.5, "0.5"),
    (0.95, "0.95"),
    (0.99, "0.99"),
    (0.999, "0.999"),
];

/// A named collection of metrics. Registration and sampling lock;
/// updates through the returned handles are lock-free.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    entries: Mutex<Vec<(String, Registered)>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Locks the entry list, recovering from poisoning (entries are plain
    /// data; a panicked registrant leaves the list structurally valid).
    /// Deliberate: metrics must not take the service down, whatever poison
    /// policy the data plane adopts.
    fn entries(&self) -> std::sync::MutexGuard<'_, Vec<(String, Registered)>> {
        match self.entries.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn push(&self, name: &str, metric: Registered) {
        self.entries().push((name.to_string(), metric));
    }

    /// Registers a counter and returns its update handle. `_help` is the
    /// series' one-line description, for the reader of the call site;
    /// nothing renders it.
    pub fn counter(&self, name: &str, _help: &str) -> Arc<Counter> {
        let c = Arc::new(Counter::default());
        self.push(name, Registered::Counter(Arc::clone(&c)));
        c
    }

    /// Registers a histogram and returns its update handle; `_help` as
    /// for [`Self::counter`].
    pub fn histogram(&self, name: &str, _help: &str) -> Arc<Histogram> {
        let h = Arc::new(Histogram::new());
        self.push(name, Registered::Histogram(Arc::clone(&h)));
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

    /// Flattens every metric to `(series name, value)` pairs — one pair
    /// per counter, `count`/`sum`/quantile series per histogram.
    pub fn sample(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        for (name, metric) in self.entries().iter() {
            match metric {
                Registered::Counter(c) => out.push((name.clone(), c.get() as f64)),
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
    fn counters_do_arithmetic() {
        let c = Counter::default();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
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
    fn sample_flattens_histograms() {
        let r = MetricsRegistry::new();
        let h = r.histogram("t", "test");
        h.record(5);
        let names: Vec<String> = r.sample().into_iter().map(|(n, _)| n).collect();
        assert!(names.contains(&"t_count".to_string()));
        assert!(names.contains(&"t_sum".to_string()));
        assert!(names.contains(&"t_q0.99".to_string()));
        assert_eq!(r.len(), 1);
        assert!(!r.is_empty());
    }
}
