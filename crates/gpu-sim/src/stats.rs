//! Simulation result counters and derived metrics.

use std::fmt;

/// Counters produced by one simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimStats {
    /// Simulated core cycles until the last access completed.
    pub cycles: f64,
    /// Memory accesses simulated.
    pub accesses: u64,
    /// Read accesses.
    pub reads: u64,
    /// Write accesses.
    pub writes: u64,
    /// L2 full hits.
    pub l2_hits: u64,
    /// L2 misses (sector-partial hits count as misses).
    pub l2_misses: u64,
    /// Metadata cache hits (Buddy mode only).
    pub md_hits: u64,
    /// Metadata cache misses (Buddy mode only).
    pub md_misses: u64,
    /// Entry accesses that needed buddy-memory sectors.
    pub buddy_accesses: u64,
    /// 32 B sectors transferred to/from device DRAM.
    pub dram_sectors: u64,
    /// 32 B sectors received over the interconnect (buddy/host reads).
    pub link_sectors_in: u64,
    /// 32 B sectors sent over the interconnect (buddy/host writes).
    pub link_sectors_out: u64,
    /// Accesses that natively targeted host memory.
    pub host_native_accesses: u64,
}

impl SimStats {
    /// Memory accesses retired per simulated cycle (throughput).
    pub fn accesses_per_cycle(&self) -> f64 {
        if self.cycles == 0.0 {
            0.0
        } else {
            self.accesses as f64 / self.cycles
        }
    }

    /// Speedup of this run relative to `baseline` (>1 means faster).
    pub fn speedup_vs(&self, baseline: &SimStats) -> f64 {
        if self.cycles == 0.0 {
            return 1.0;
        }
        // Normalize per access so runs of different lengths compare.
        let own = self.cycles / self.accesses.max(1) as f64;
        let base = baseline.cycles / baseline.accesses.max(1) as f64;
        base / own
    }

    /// L2 hit rate.
    pub fn l2_hit_rate(&self) -> f64 {
        let total = self.l2_hits + self.l2_misses;
        if total == 0 {
            0.0
        } else {
            self.l2_hits as f64 / total as f64
        }
    }

    /// Metadata cache hit rate (Figure 5b).
    pub fn md_hit_rate(&self) -> f64 {
        let total = self.md_hits + self.md_misses;
        if total == 0 {
            0.0
        } else {
            self.md_hits as f64 / total as f64
        }
    }

    /// Fraction of accesses that touched buddy memory (Figures 7–9).
    pub fn buddy_fraction(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.buddy_accesses as f64 / self.accesses as f64
        }
    }
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.0} cycles for {} accesses ({:.3}/cyc); L2 {:.1}% md {:.1}% buddy {:.2}%",
            self.cycles,
            self.accesses,
            self.accesses_per_cycle(),
            100.0 * self.l2_hit_rate(),
            100.0 * self.md_hit_rate(),
            100.0 * self.buddy_fraction()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let s = SimStats {
            cycles: 1000.0,
            accesses: 500,
            l2_hits: 300,
            l2_misses: 100,
            md_hits: 90,
            md_misses: 10,
            buddy_accesses: 5,
            ..Default::default()
        };
        assert!((s.accesses_per_cycle() - 0.5).abs() < 1e-12);
        assert!((s.l2_hit_rate() - 0.75).abs() < 1e-12);
        assert!((s.md_hit_rate() - 0.9).abs() < 1e-12);
        assert!((s.buddy_fraction() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn speedup_normalizes_by_access_count() {
        let baseline = SimStats {
            cycles: 1000.0,
            accesses: 100,
            ..Default::default()
        };
        let half_speed = SimStats {
            cycles: 2000.0,
            accesses: 100,
            ..Default::default()
        };
        assert!((half_speed.speedup_vs(&baseline) - 0.5).abs() < 1e-12);
        // Same per-access cost at twice the length: speedup 1.
        let longer = SimStats {
            cycles: 2000.0,
            accesses: 200,
            ..Default::default()
        };
        assert!((longer.speedup_vs(&baseline) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_division_is_safe() {
        let s = SimStats::default();
        assert_eq!(s.accesses_per_cycle(), 0.0);
        assert_eq!(s.l2_hit_rate(), 0.0);
        assert_eq!(s.md_hit_rate(), 0.0);
        assert_eq!(s.buddy_fraction(), 0.0);
    }

    #[test]
    fn display_is_informative() {
        let s = SimStats {
            cycles: 10.0,
            accesses: 5,
            ..Default::default()
        };
        let text = s.to_string();
        assert!(text.contains("10 cycles"));
        assert!(text.contains("5 accesses"));
    }
}
