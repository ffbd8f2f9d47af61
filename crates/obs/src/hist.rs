//! Lock-free log-bucketed latency histograms.
//!
//! # Layout
//!
//! A [`Histogram`] is 256 `AtomicU64` buckets (2 KB of counters) plus a
//! `sum` and `max` atomic. Values `0..8` index their own bucket exactly
//! (the *linear region*); from 8 upward each power-of-two octave is split
//! into 8 sub-buckets (3 bits of mantissa), so bucket width is always
//! ⅛ of the bucket's base octave. 248 logarithmic buckets cover octaves
//! 2³..2³⁴; values at or above [`SATURATION_VALUE`] (2³⁴ ns ≈ 17.2 s when
//! recording nanoseconds) saturate into the top bucket, with the exact
//! maximum still tracked separately.
//!
//! # Error bound
//!
//! [`HistogramSnapshot::value_at`] walks the cumulative counts to the
//! nearest-rank bucket and returns the bucket's highest contained value,
//! capped at the recorded maximum. The true nearest-rank order statistic
//! `x` lies in the same bucket, so the estimate `e` satisfies
//! `x ≤ e ≤ bucket_high ≤ bucket_low · (1 + ⅛) ≤ x · 1.125`: estimates
//! are **never below** the exact percentile and at most **12.5 % above**
//! it (exact in the linear region). The bound holds for samples below
//! [`SATURATION_VALUE`]; saturated samples report at most the recorded
//! maximum. `crates/obs/tests/hist_oracle.rs` pins this bound against a
//! sorted-vec oracle by property testing, including merge
//! associativity/commutativity.
//!
//! # Concurrency
//!
//! Recording is wait-free (`fetch_add`/`fetch_max`, no CAS loops). A
//! snapshot taken while writers are active may split an in-flight update
//! across `counts` and `sum`; totals are exact once writers are quiescent
//! — the same contract as the pool's traffic counters.

use std::sync::atomic::{AtomicU64, Ordering};

/// Total bucket count (8 linear + 248 logarithmic).
pub const BUCKET_COUNT: usize = 256;

/// Mantissa bits retained per value: each octave splits into
/// `2^SUB_BITS = 8` sub-buckets.
const SUB_BITS: u32 = 3;

/// Sub-buckets per octave.
const SUB_PER_OCTAVE: u64 = 1 << SUB_BITS;

/// Values below this are recorded exactly (one bucket per value).
const LINEAR_LIMIT: u64 = 8;

/// Smallest value that saturates into the top bucket. With nanosecond
/// samples this is ≈ 17.2 s — far beyond any latency the harnesses
/// measure; saturated samples still update the exact `max`.
pub const SATURATION_VALUE: u64 = 1 << 34;

/// Bucket index of a value.
fn bucket_index(v: u64) -> usize {
    if v < LINEAR_LIMIT {
        return v as usize;
    }
    let exp = u64::from(63 - v.leading_zeros());
    let sub = (v >> (exp - u64::from(SUB_BITS))) & (SUB_PER_OCTAVE - 1);
    let idx = LINEAR_LIMIT + (exp - u64::from(SUB_BITS)) * SUB_PER_OCTAVE + sub;
    (idx as usize).min(BUCKET_COUNT - 1)
}

/// Lowest value mapping to bucket `i`.
fn bucket_low(i: usize) -> u64 {
    let i = i as u64;
    if i < LINEAR_LIMIT {
        return i;
    }
    let octave = (i - LINEAR_LIMIT) / SUB_PER_OCTAVE;
    let sub = (i - LINEAR_LIMIT) % SUB_PER_OCTAVE;
    let exp = u32::try_from(octave).unwrap_or(u32::MAX) + SUB_BITS;
    (1u64 << exp) + sub * (1u64 << (exp - SUB_BITS))
}

/// Highest value mapping to bucket `i`. The top bucket is open-ended
/// (saturation); its reported value is capped at the recorded maximum.
fn bucket_high(i: usize) -> u64 {
    if i + 1 >= BUCKET_COUNT {
        u64::MAX
    } else {
        bucket_low(i + 1) - 1
    }
}

/// A fixed-footprint (~2 KB) lock-free histogram of `u64` samples.
///
/// Threads record concurrently through a shared reference; aggregation
/// happens by taking [`HistogramSnapshot`]s and [`HistogramSnapshot::merge`]-ing
/// them.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKET_COUNT],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample. Wait-free: three `fetch_add`-class operations,
    /// no locks, no allocation.
    pub fn record(&self, v: u64) {
        // Relaxed: independent statistical counters — nothing is published
        // through them and snapshots tolerate in-flight updates (module
        // contract: exact once writers are quiescent).
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        // Relaxed: same statistical-counter contract as the bucket above.
        self.sum.fetch_add(v, Ordering::Relaxed);
        // Relaxed: same statistical-counter contract as the bucket above.
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = [0u64; BUCKET_COUNT];
        for (c, b) in counts.iter_mut().zip(self.buckets.iter()) {
            // Relaxed: statistical read; the snapshot contract tolerates
            // tearing against concurrent writers.
            *c = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            counts,
            // Relaxed: statistical read, see the loop above.
            sum: self.sum.load(Ordering::Relaxed),
            // Relaxed: statistical read, see the loop above.
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A plain (non-atomic) copy of a [`Histogram`]'s counters: mergeable,
/// comparable, and the thing percentiles are computed from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: [u64; BUCKET_COUNT],
    sum: u64,
    max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            counts: [0; BUCKET_COUNT],
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded sample (exact, even for saturated samples).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// Mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        self.sum as f64 / n as f64
    }

    /// Merges another snapshot into this one. Merging is associative and
    /// commutative (bucket-wise addition, max of maxima) — property-tested
    /// in `tests/hist_oracle.rs`.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Nearest-rank quantile estimate: the upper edge of the bucket
    /// containing the rank-`⌈q·n⌉` sample, capped at the recorded
    /// maximum. Never below the exact order statistic, at most 12.5 %
    /// above it (module docs). Returns 0 when empty.
    pub fn value_at(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_high(i).min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_mapping_is_monotone_and_self_consistent() {
        let mut prev = 0usize;
        for v in 0..SATURATION_VALUE.ilog2() {
            let sample = 1u64 << v;
            let idx = bucket_index(sample);
            assert!(idx >= prev, "index must not decrease at 2^{v}");
            assert!(bucket_low(idx) <= sample && sample <= bucket_high(idx));
            prev = idx;
        }
        // Exhaustive over the linear region and the first octaves.
        for v in 0..4096u64 {
            let idx = bucket_index(v);
            assert!(bucket_low(idx) <= v && v <= bucket_high(idx), "v={v}");
        }
        // Bucket edges meet with no gaps.
        for i in 0..BUCKET_COUNT - 1 {
            assert_eq!(bucket_high(i) + 1, bucket_low(i + 1), "gap after {i}");
        }
    }

    #[test]
    fn linear_region_is_exact() {
        let h = Histogram::new();
        for v in 0..8u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 8);
        assert_eq!(s.sum(), 28);
        assert_eq!(s.max(), 7);
        assert_eq!(s.value_at(0.0), 0);
        assert_eq!(s.value_at(1.0), 7);
    }

    #[test]
    fn bound_holds_for_a_known_sample() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v * 1000);
        }
        let s = h.snapshot();
        for q in [0.5f64, 0.95, 0.99, 0.999] {
            let exact = ((q * 1000.0).ceil() as u64).clamp(1, 1000) * 1000;
            let est = s.value_at(q);
            assert!(est >= exact, "q={q}: {est} < exact {exact}");
            assert!(
                est as f64 <= exact as f64 * 1.125,
                "q={q}: {est} above bound for exact {exact}"
            );
        }
        assert_eq!(s.value_at(1.0), 1_000_000, "max is exact");
    }

    #[test]
    fn saturated_samples_report_the_exact_max() {
        let h = Histogram::new();
        h.record(SATURATION_VALUE + 12345);
        let s = h.snapshot();
        assert_eq!(s.max(), SATURATION_VALUE + 12345);
        assert_eq!(s.value_at(1.0), SATURATION_VALUE + 12345);
    }

    #[test]
    fn merge_equals_recording_everything_into_one() {
        let a = Histogram::new();
        let b = Histogram::new();
        let all = Histogram::new();
        for v in 0..500u64 {
            let target = if v % 2 == 0 { &a } else { &b };
            target.record(v * 17);
            all.record(v * 17);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, all.snapshot());
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Histogram::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let h = &h;
                scope.spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1_000_000 + i);
                    }
                });
            }
        });
        assert_eq!(h.snapshot().count(), 40_000);
    }

    #[test]
    fn empty_snapshot_is_all_zeros() {
        let s = HistogramSnapshot::default();
        assert!(s.is_empty());
        assert_eq!(s.value_at(0.99), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s, Histogram::new().snapshot());
    }
}
