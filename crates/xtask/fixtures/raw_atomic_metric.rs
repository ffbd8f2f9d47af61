//! Known-bad corpus for the `raw-atomic-metric` rule: owning a raw atomic
//! (field declaration or construction) outside the `buddy_obs` metric
//! primitives must be flagged; imports, references and test-module
//! bookkeeping must not.
#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicU64, AtomicUsize};

struct AdHocMetrics {
    hits: AtomicU64, // expect(raw-atomic-metric)
    misses: AtomicU32, // expect(raw-atomic-metric)
}

impl AdHocMetrics {
    fn new() -> Self {
        Self {
            hits: AtomicU64::new(0), // expect(raw-atomic-metric)
            misses: AtomicU32::new(0), // expect(raw-atomic-metric)
        }
    }

    fn observe(counter: &AtomicU64) -> u64 {
        counter.load(std::sync::atomic::Ordering::Acquire)
    }
}

struct RequestRouter {
    // lint-allow(raw-atomic-metric): round-robin routing cursor, not a metric
    next_backend: AtomicUsize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_bookkeeping_atomics_are_fine() {
        static CALLS: AtomicU64 = AtomicU64::new(0);
        let _ = CALLS.load(std::sync::atomic::Ordering::Acquire);
    }
}
