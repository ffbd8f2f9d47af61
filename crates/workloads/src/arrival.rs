//! Deterministic open-loop arrival schedules.
//!
//! Closed-loop load generation lets the system under test set the pace: a slow server simply slows its clients down,
//! and overload never shows up as anything worse than reduced throughput.
//! An **open-loop** generator instead fixes the *offered* arrival rate in
//! advance — requests arrive when the schedule says they arrive, whether
//! or not the server has kept up — so overload manifests honestly as
//! queueing delay and shed load (the regime the repo benchmark's
//! `tenant_mixed` queue replay measures; DESIGN.md §11).
//!
//! The schedule itself is pure virtual time: a Poisson process with
//! exponential inter-arrival gaps drawn from splitmix64, yielding absolute
//! arrival offsets in nanoseconds. Nothing here reads a clock — replaying
//! a schedule is the *caller's* job (`benchmark/` replays recorded
//! service times against it in virtual time), so two runs with one seed
//! offer byte-identical arrival sequences no matter what the machine was
//! doing.

use crate::entry_gen::{mix, splitmix64, unit_from_hash};

/// A deterministic Poisson arrival schedule: an infinite iterator of
/// absolute arrival times in **virtual nanoseconds** since the schedule's
/// origin, with exponentially distributed inter-arrival gaps.
///
/// # Example
///
/// ```
/// use workloads::arrival::ArrivalSchedule;
///
/// let times: Vec<u64> = ArrivalSchedule::new(1_000_000.0, 7).take(3).collect();
/// let again: Vec<u64> = ArrivalSchedule::new(1_000_000.0, 7).take(3).collect();
/// assert_eq!(times, again, "schedules replay exactly");
/// assert!(times.windows(2).all(|w| w[0] <= w[1]), "time moves forward");
/// ```
#[derive(Debug, Clone)]
pub struct ArrivalSchedule {
    /// Mean inter-arrival gap in nanoseconds (1e9 / rate).
    mean_gap_ns: f64,
    /// Diffused RNG state.
    state: u64,
    /// Current absolute virtual time in nanoseconds.
    now_ns: u64,
}

impl ArrivalSchedule {
    /// Creates a schedule offering `rate_per_sec` arrivals per second.
    ///
    /// # Panics
    ///
    /// Panics if `rate_per_sec` is not strictly positive and finite.
    pub fn new(rate_per_sec: f64, seed: u64) -> Self {
        assert!(
            rate_per_sec.is_finite() && rate_per_sec > 0.0,
            "arrival rate must be positive and finite, got {rate_per_sec}"
        );
        Self {
            mean_gap_ns: 1e9 / rate_per_sec,
            state: splitmix64(seed),
            now_ns: 0,
        }
    }

    /// The schedule of one tenant in a multi-tenant run: the same offered
    /// rate, driven by a seed derived deterministically from
    /// `(seed, tenant)` — distinct tenants draw statistically independent
    /// processes, and a fixed master seed replays every one of them.
    pub fn per_tenant(rate_per_sec: f64, seed: u64, tenant: u64) -> Self {
        // A fixed salt keeps tenant streams disjoint from the direct
        // `new(rate, seed)` stream even for tenant 0.
        Self::new(rate_per_sec, mix(&[seed, 0xA221_7E00, tenant]))
    }

    /// The configured mean inter-arrival gap in nanoseconds.
    pub fn mean_gap_ns(&self) -> f64 {
        self.mean_gap_ns
    }
}

impl Iterator for ArrivalSchedule {
    /// Absolute arrival offset in virtual nanoseconds.
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        self.state = splitmix64(self.state);
        // Exponential inverse-CDF; `unit_from_hash` is in [0, 1), so the
        // complement is in (0, 1] and the log is finite.
        let u = 1.0 - unit_from_hash(self.state);
        let gap = (-u.ln() * self.mean_gap_ns).max(0.0);
        // Saturate rather than wrap: a schedule that has consumed 2^64 ns
        // (584 years of virtual time) pins to the horizon instead of
        // jumping back to zero.
        self.now_ns = self.now_ns.saturating_add(gap as u64);
        Some(self.now_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_and_monotonic() {
        let a: Vec<u64> = ArrivalSchedule::new(10_000.0, 42).take(1000).collect();
        let b: Vec<u64> = ArrivalSchedule::new(10_000.0, 42).take(1000).collect();
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn mean_gap_matches_the_offered_rate() {
        // 10k arrivals at 1M/s should span ~10 ms of virtual time; the
        // exponential mean converges within a few percent at this count.
        let n = 10_000usize;
        let last = ArrivalSchedule::new(1_000_000.0, 9)
            .take(n)
            .last()
            .expect("schedule is infinite");
        let mean_gap = last as f64 / n as f64;
        assert!(
            (mean_gap - 1_000.0).abs() < 50.0,
            "mean gap {mean_gap} ns should approximate 1000 ns"
        );
    }

    #[test]
    fn gaps_are_dispersed_not_constant() {
        // A Poisson process has gap variance ≈ mean²; a uniform pacing bug
        // would collapse it. Check the coefficient of variation is near 1.
        let times: Vec<u64> = ArrivalSchedule::new(100_000.0, 3).take(5000).collect();
        let gaps: Vec<f64> = times.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
        let n = gaps.len() as f64;
        let mean = gaps.iter().sum::<f64>() / n;
        let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / n;
        let cv = var.sqrt() / mean;
        assert!(
            (cv - 1.0).abs() < 0.1,
            "coefficient of variation {cv} should be ~1 for exponential gaps"
        );
    }

    #[test]
    fn per_tenant_schedules_are_distinct_and_reproducible() {
        let t0: Vec<u64> = ArrivalSchedule::per_tenant(50_000.0, 7, 0)
            .take(100)
            .collect();
        let t0_again: Vec<u64> = ArrivalSchedule::per_tenant(50_000.0, 7, 0)
            .take(100)
            .collect();
        let t1: Vec<u64> = ArrivalSchedule::per_tenant(50_000.0, 7, 1)
            .take(100)
            .collect();
        let direct: Vec<u64> = ArrivalSchedule::new(50_000.0, 7).take(100).collect();
        assert_eq!(t0, t0_again);
        assert_ne!(t0, t1, "tenants must draw independent processes");
        assert_ne!(
            t0, direct,
            "tenant streams are salted away from direct ones"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_panics() {
        ArrivalSchedule::new(0.0, 1);
    }
}
