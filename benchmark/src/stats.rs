//! Exact percentiles, metric estimates, and the virtual-time queue replay.

use crate::json::Value;
use crate::surface::ArrivalSchedule;

/// Exact `q`-quantile (nearest rank: the smallest sample with at least
/// `q·n` samples at or below it) of raw samples. Reorders `samples`.
pub fn percentile<T: Copy + Ord>(samples: &mut [T], q: f64) -> T {
    assert!(!samples.is_empty(), "percentile of no samples");
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    *samples.select_nth_unstable(rank - 1).1
}

/// A reported metric value with its uncertainty.
///
/// For host-time metrics, `value` is the quiet-time estimate over all
/// passes and `lo`/`hi` the same estimate over each interleaved half of them
/// alone (see `quiet.rs`); for the single-layer probes, the minimum over
/// rounds with the rounds' range. For exact metrics all three are the one
/// value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    pub value: f64,
    pub lo: f64,
    pub hi: f64,
    /// Observations behind the estimate (passes, reps or rounds).
    pub n: usize,
}

impl Estimate {
    pub fn exact(value: f64) -> Estimate {
        Estimate {
            value,
            lo: value,
            hi: value,
            n: 1,
        }
    }

    /// `value` with the two half-estimates as its range.
    pub fn with_halves(value: f64, a: f64, b: f64, n: usize) -> Estimate {
        Estimate {
            value,
            lo: a.min(b),
            hi: a.max(b),
            n,
        }
    }

    /// Width of the range as a share of the value.
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.hi - self.lo) / self.value.abs()
        }
    }

    pub fn to_json(self, unit: &str) -> Value {
        Value::obj([
            ("value", Value::Num(self.value)),
            ("unit", Value::str(unit)),
            ("lo", Value::Num(self.lo)),
            ("hi", Value::Num(self.hi)),
            ("n", Value::Num(self.n as f64)),
        ])
    }

    pub fn from_json(v: &Value) -> Option<Estimate> {
        let f = |k: &str| v.get(k).and_then(Value::as_f64);
        let value = f("value")?;
        Some(Estimate {
            value,
            lo: f("lo").unwrap_or(value),
            hi: f("hi").unwrap_or(value),
            n: f("n").unwrap_or(1.0) as usize,
        })
    }
}

/// Latency from due time of every request of one FIFO queue with one
/// server (Lindley recursion): request `i` is due at `arrivals[i]`, starts
/// when it is due and the server is free, and takes `service[i]`. Returns
/// the latencies and the backlog — how long the last request waited.
pub fn fifo_latencies(arrivals: &[f64], service: &[f64]) -> (Vec<f64>, f64) {
    let mut free_at = 0.0f64;
    let mut backlog = 0.0;
    let latencies = arrivals
        .iter()
        .zip(service)
        .map(|(&due, &s)| {
            let start = due.max(free_at);
            backlog = start - due;
            free_at = start + s;
            free_at - due
        })
        .collect();
    (latencies, backlog)
}

/// Recorded per-tenant service times plus unit-rate Poisson schedules,
/// ready to be replayed at any offered rate.
///
/// Real-time pacing on a small shared box measures the scheduler, not the
/// service, so the open loop runs in virtual time: the service times are
/// the ones measured in the closed-loop run, the arrival process is the
/// library's seeded Poisson schedule, and the queue between them is
/// computed exactly.
pub struct Replay {
    /// Per tenant: (arrival offsets at 1 request/s, service times), in ns.
    queues: Vec<(Vec<f64>, Vec<f64>)>,
}

/// Rate the unit schedules are drawn at; arrival times scale as `1/rate`.
const UNIT_RATE: f64 = 1.0;

impl Replay {
    /// `service_ns[t]` are tenant `t`'s service times in op order, repeated
    /// (with fresh arrivals) until the queue has seen at least
    /// `min_arrivals` requests: the p99 of a queue's latencies has far fewer
    /// independent samples behind it than requests, and over one pass's
    /// ~12 000 it moved by 6 % from one arrival seed to the next.
    pub fn new(service_ns: &[Vec<u32>], min_arrivals: usize, seed: u64) -> Self {
        let queues = service_ns
            .iter()
            .enumerate()
            .map(|(t, s)| {
                let service: Vec<f64> = s
                    .iter()
                    .cycle()
                    .take(s.len().max(min_arrivals))
                    .map(|&ns| ns as f64)
                    .collect();
                let arrivals = ArrivalSchedule::per_tenant(UNIT_RATE, seed, t as u64)
                    .take(service.len())
                    .map(|ns| ns as f64)
                    .collect();
                (arrivals, service)
            })
            .collect();
        Self { queues }
    }

    /// Latency from due time of every request, and the worst per-tenant
    /// backlog, in ns, at `rate` requests per second per tenant.
    fn latencies_at(&self, rate: f64) -> (Vec<u64>, f64) {
        let mut all = Vec::new();
        let mut backlog = 0.0f64;
        for (unit_arrivals, service) in &self.queues {
            let arrivals: Vec<f64> = unit_arrivals.iter().map(|a| a * UNIT_RATE / rate).collect();
            let (lat, b) = fifo_latencies(&arrivals, service);
            backlog = backlog.max(b);
            all.extend(lat.into_iter().map(|l| l as u64));
        }
        (all, backlog)
    }

    /// p99 latency from due time and worst per-tenant backlog, in ns, at
    /// `rate` requests per second per tenant.
    pub fn at_rate(&self, rate: f64) -> (f64, f64) {
        let (mut all, backlog) = self.latencies_at(rate);
        if all.is_empty() {
            return (0.0, 0.0);
        }
        (percentile(&mut all, 0.99) as f64, backlog)
    }

    /// Share of the requests offered at `rate` that finish later than
    /// `limit_ns` after they were due.
    pub fn missed_frac(&self, rate: f64, limit_ns: f64) -> f64 {
        let (all, _) = self.latencies_at(rate);
        let missed = all.iter().filter(|&&l| l as f64 > limit_ns).count();
        missed as f64 / all.len().max(1) as f64
    }

    /// Highest offered rate (per tenant) that meets `limit_ns` on both the
    /// p99 from due time and the end-of-run backlog.
    pub fn max_ok_rate(&self, grid_base: f64, limit_ns: f64) -> f64 {
        knee(grid_base, |rate| {
            let (p99, backlog) = self.at_rate(rate);
            p99 <= limit_ns && backlog <= limit_ns
        })
    }
}

/// Steps of the geometric rate grid and its ratio.
const GRID_STEPS: usize = 96;
const GRID_RATIO: f64 = 1.1;

/// Bisection steps inside the bracketing grid interval (2⁻¹⁰ of a 10 %
/// step: the result moves smoothly instead of jumping a grid step).
const REFINE_STEPS: usize = 10;

/// Highest rate for which `ok` holds, assuming `ok` is monotone (true
/// below the knee, false above): bisection over the fixed grid
/// `base · 1.1^k`, then inside the bracketing interval. Returns the lowest
/// grid rate if even that fails, so the result is never zero.
pub fn knee(base: f64, ok: impl Fn(f64) -> bool) -> f64 {
    let grid = |k: usize| base * GRID_RATIO.powi(k as i32);
    if !ok(grid(0)) {
        return grid(0);
    }
    let (mut lo, mut hi) = (0usize, GRID_STEPS);
    // Invariant: ok(grid(lo)); grid(hi) fails or is past the grid.
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if ok(grid(mid)) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let (mut good, mut bad) = (grid(lo), grid(lo + 1));
    for _ in 0..REFINE_STEPS {
        let mid = (good * bad).sqrt();
        if ok(mid) {
            good = mid;
        } else {
            bad = mid;
        }
    }
    good
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::Rng;

    #[test]
    fn percentile_matches_a_sorted_vec_oracle() {
        let mut rng = Rng::new(11);
        for n in [1usize, 2, 3, 10, 99, 100, 101, 1000] {
            let data: Vec<u32> = (0..n).map(|_| rng.below(5000) as u32).collect();
            let mut sorted = data.clone();
            sorted.sort_unstable();
            for q in [0.0, 0.01, 0.5, 0.9, 0.99, 0.999, 1.0] {
                let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
                let mut scratch = data.clone();
                assert_eq!(percentile(&mut scratch, q), sorted[rank - 1], "n={n} q={q}");
            }
        }
    }

    #[test]
    fn lindley_replay_matches_hand_computed_cases() {
        // Idle server: latency is the service time, no backlog.
        let (lat, backlog) = fifo_latencies(&[0.0, 100.0, 200.0], &[10.0, 10.0, 10.0]);
        assert_eq!(lat, vec![10.0, 10.0, 10.0]);
        assert_eq!(backlog, 0.0);
        // A burst queues up: the k-th of three simultaneous requests of 10
        // finishes at 10k.
        let (lat, backlog) = fifo_latencies(&[0.0, 0.0, 0.0], &[10.0, 10.0, 10.0]);
        assert_eq!(lat, vec![10.0, 20.0, 30.0]);
        assert_eq!(backlog, 20.0);
        // A stall delays the requests behind it until the queue drains:
        // due 0/5/12/40, service 20/1/1/1 -> finish 20/21/22/41.
        let (lat, backlog) = fifo_latencies(&[0.0, 5.0, 12.0, 40.0], &[20.0, 1.0, 1.0, 1.0]);
        assert_eq!(lat, vec![20.0, 16.0, 10.0, 1.0]);
        assert_eq!(backlog, 0.0);
    }

    #[test]
    fn knee_bisection_finds_the_threshold_on_and_off_the_grid() {
        // Threshold exactly on a grid point.
        let on_grid = 100.0 * GRID_RATIO.powi(7);
        let found = knee(100.0, |r| r <= on_grid);
        assert!((found / on_grid - 1.0).abs() < 1e-9, "{found} vs {on_grid}");
        // Threshold between grid points: found to within the refinement.
        let found = knee(100.0, |r| r <= 1234.5);
        assert!(found <= 1234.5 && found > 1234.5 * (1.0 - 2e-4), "{found}");
        // Nothing passes: the lowest grid rate, never zero.
        assert_eq!(knee(100.0, |_| false), 100.0);
        // Everything passes: the top of the grid.
        let top = knee(100.0, |_| true);
        assert!(top >= 100.0 * GRID_RATIO.powi(GRID_STEPS as i32 - 1));
    }

    #[test]
    fn replay_latency_rises_with_the_offered_rate() {
        // One tenant, constant 10 µs service: capacity is 100k/s.
        let service = vec![vec![10_000u32; 20_000]];
        let replay = Replay::new(&service, 0, 42);
        let (low, _) = replay.at_rate(10_000.0);
        let (high, _) = replay.at_rate(90_000.0);
        assert!((10_000.0..30_000.0).contains(&low), "{low}");
        assert!(
            high > 2.0 * low,
            "p99 must grow near saturation: {low} -> {high}"
        );
        let knee = replay.max_ok_rate(1_000.0, 1e6);
        assert!((70_000.0..100_000.0).contains(&knee), "{knee}");
        // Far below the knee nothing waits a millisecond; past capacity the
        // queue grows without bound and nearly everything does.
        assert_eq!(replay.missed_frac(10_000.0, 1e6), 0.0);
        assert!(replay.missed_frac(200_000.0, 1e6) > 0.9);
    }
}
