//! Target compression ratios — the per-allocation annotation at the heart of
//! Buddy Compression.
//!
//! An allocation annotated with target ratio *r* reserves only `128 / r`
//! bytes of device memory per 128 B memory-entry; the remaining sectors are
//! pre-reserved at a fixed offset in the buddy-memory carve-out (Figure 4).
//! The paper allows 1×, 1.33×, 2× and 4× — "chosen to keep the sector
//! interleaving simple and avoid unaligned sector accesses" (§3.2) — plus an
//! aggressive 16× *zero-page* mode that keeps only 8 B of each entry in
//! device memory (§3.4).

use bpc::{SizeClass, SizeHistogram, SECTOR_BYTES};
use std::fmt;

/// A per-allocation target compression ratio.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TargetRatio {
    /// 1× — uncompressed; all four sectors live in device memory.
    R1,
    /// 1.33× — three sectors in device memory, one reserved in buddy.
    R1_33,
    /// 2× — two sectors in device memory, two reserved in buddy.
    R2,
    /// 4× — one sector in device memory, three reserved in buddy.
    R4,
    /// 16× zero-page mode — 8 B per entry in device memory (§3.4). Entries
    /// that do not compress to 8 B are stored raw in their buddy slot.
    ZeroPage16,
}

impl TargetRatio {
    /// All targets from most to least aggressive (the order the profiler
    /// tries them in).
    pub const DESCENDING: [TargetRatio; 5] = [
        TargetRatio::ZeroPage16,
        TargetRatio::R4,
        TargetRatio::R2,
        TargetRatio::R1_33,
        TargetRatio::R1,
    ];

    /// The four standard targets (no zero-page mode).
    pub const STANDARD_DESCENDING: [TargetRatio; 4] = [
        TargetRatio::R4,
        TargetRatio::R2,
        TargetRatio::R1_33,
        TargetRatio::R1,
    ];

    /// The smallest device reservation any target makes per entry (the
    /// zero-page granule). Every target's device stride is a multiple of
    /// it and every device reservation is aligned to it, so an entry's
    /// metadata nibble is addressed straight from its allocation's device
    /// base — `device_base / MIN_DEVICE_BYTES_PER_ENTRY + i` — the way the
    /// paper's memory controller indexes its metadata region (§3.2):
    /// disjoint device reservations give disjoint nibble ranges, all inside
    /// `device_capacity / MIN_DEVICE_BYTES_PER_ENTRY` states.
    pub(crate) const MIN_DEVICE_BYTES_PER_ENTRY: u64 = 8;

    /// Device bytes reserved per 128 B entry.
    pub fn device_bytes_per_entry(self) -> u32 {
        match self {
            TargetRatio::R1 => 128,
            TargetRatio::R1_33 => 96,
            TargetRatio::R2 => 64,
            TargetRatio::R4 => 32,
            TargetRatio::ZeroPage16 => 8,
        }
    }

    /// Device sectors reserved per entry (zero-page mode reserves a sub-
    /// sector 8 B granule and reports 0 whole sectors).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "compile-time constants; the quotient is at most 4 sectors"
    )]
    pub fn device_sectors(self) -> u8 {
        (self.device_bytes_per_entry() / SECTOR_BYTES as u32) as u8
    }

    /// Buddy bytes reserved per entry in the carve-out.
    ///
    /// The zero-page mode reserves a full 128 B raw slot: an entry that
    /// stops compressing to 8 B is stored uncompressed in buddy memory, so
    /// no reallocation is ever needed (the no-data-movement invariant).
    pub fn buddy_bytes_per_entry(self) -> u32 {
        match self {
            TargetRatio::ZeroPage16 => 128,
            other => 128 - other.device_bytes_per_entry(),
        }
    }

    /// Nominal compression ratio of the device-resident footprint.
    pub fn ratio(self) -> f64 {
        128.0 / self.device_bytes_per_entry() as f64
    }

    /// Whether an entry of the given compressed size class fits entirely in
    /// the device-resident part of its allocation — the fit rule of
    /// Figure 4, and the only copy of it.
    pub fn fits(self, class: SizeClass) -> bool {
        match self {
            TargetRatio::ZeroPage16 => class.bytes() <= 8,
            other => class.sectors() <= other.device_sectors(),
        }
    }

    /// Fraction of the entries counted in `histogram` that do not
    /// [`fit`](Self::fits) this target: the overflow fraction the Buddy
    /// Threshold bounds (§3.4), for an offline profile and a live
    /// [`state_window`](crate::BuddyDevice::state_window) alike. `0` for an
    /// empty histogram.
    pub fn overflow_fraction(self, histogram: &SizeHistogram) -> f64 {
        let total = histogram.total();
        if total == 0 {
            return 0.0;
        }
        let fits: u64 = SizeClass::ALL
            .into_iter()
            .filter(|&class| self.fits(class))
            .map(|class| histogram.count(class))
            .sum();
        1.0 - fits as f64 / total as f64
    }
}

impl fmt::Display for TargetRatio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let label = match self {
            TargetRatio::R1 => "1x",
            TargetRatio::R1_33 => "1.33x",
            TargetRatio::R2 => "2x",
            TargetRatio::R4 => "4x",
            TargetRatio::ZeroPage16 => "16x",
        };
        write!(f, "{label}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_budgets_match_figure_4() {
        assert_eq!(TargetRatio::R1.device_sectors(), 4);
        assert_eq!(TargetRatio::R1_33.device_sectors(), 3);
        assert_eq!(TargetRatio::R2.device_sectors(), 2);
        assert_eq!(TargetRatio::R4.device_sectors(), 1);
        assert_eq!(TargetRatio::ZeroPage16.device_bytes_per_entry(), 8);
    }

    #[test]
    fn every_device_stride_is_a_multiple_of_the_metadata_granule() {
        for t in TargetRatio::DESCENDING {
            let stride = u64::from(t.device_bytes_per_entry());
            assert!(stride >= TargetRatio::MIN_DEVICE_BYTES_PER_ENTRY, "{t}");
            assert_eq!(stride % TargetRatio::MIN_DEVICE_BYTES_PER_ENTRY, 0, "{t}");
        }
    }

    #[test]
    fn buddy_slots_complement_device() {
        for t in TargetRatio::STANDARD_DESCENDING {
            assert_eq!(t.device_bytes_per_entry() + t.buddy_bytes_per_entry(), 128);
        }
        assert_eq!(TargetRatio::ZeroPage16.buddy_bytes_per_entry(), 128);
    }

    #[test]
    fn ratios() {
        assert_eq!(TargetRatio::R1.ratio(), 1.0);
        assert!((TargetRatio::R1_33.ratio() - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(TargetRatio::R2.ratio(), 2.0);
        assert_eq!(TargetRatio::R4.ratio(), 4.0);
        assert_eq!(TargetRatio::ZeroPage16.ratio(), 16.0);
    }

    #[test]
    fn fit_rules() {
        assert!(TargetRatio::R4.fits(SizeClass::B32));
        assert!(!TargetRatio::R4.fits(SizeClass::B64));
        assert!(TargetRatio::R2.fits(SizeClass::B64));
        assert!(!TargetRatio::R2.fits(SizeClass::B80));
        assert!(TargetRatio::R1_33.fits(SizeClass::B96));
        assert!(!TargetRatio::R1_33.fits(SizeClass::B128));
        assert!(TargetRatio::R1.fits(SizeClass::B128));
        assert!(TargetRatio::ZeroPage16.fits(SizeClass::B8));
        assert!(TargetRatio::ZeroPage16.fits(SizeClass::B0));
        assert!(!TargetRatio::ZeroPage16.fits(SizeClass::B16));
        // Zero entries fit every target.
        for t in TargetRatio::DESCENDING {
            assert!(t.fits(SizeClass::B0));
        }
    }

    #[test]
    fn labels_round_trip() {
        // The paper's notation ("1.33x") reads back as the nominal ratio,
        // to the two decimals the label carries.
        for t in TargetRatio::DESCENDING {
            let label = t.to_string();
            let parsed: f64 = label
                .strip_suffix('x')
                .and_then(|r| r.parse().ok())
                .expect("label is a number followed by x");
            assert!(
                (parsed - t.ratio()).abs() < 0.005,
                "{label} vs {}",
                t.ratio()
            );
        }
    }

    #[test]
    fn descending_is_sorted_by_ratio() {
        for w in TargetRatio::DESCENDING.windows(2) {
            assert!(w[0].ratio() > w[1].ratio());
        }
    }
}
