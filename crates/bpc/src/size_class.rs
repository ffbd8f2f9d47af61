//! Capacity size classes for compressed memory-entries.
//!
//! The paper's capacity study (Figure 3) assumes "eight different compressed
//! memory-entry sizes … (0B, 8B, 16B, 32B, 64B, 80B, 96B, and 128B)". A
//! compressed bitstream is charged the smallest class that holds it; anything
//! above 96 B is stored raw at 128 B.

use std::fmt;

/// One of the eight compressed memory-entry sizes of the paper's Figure 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SizeClass {
    /// Tracked-zero entry occupying no data storage.
    B0,
    /// 8 bytes (also the per-entry device budget of the 16× zero-page mode).
    B8,
    /// 16 bytes.
    B16,
    /// 32 bytes — one sector.
    B32,
    /// 64 bytes — two sectors.
    B64,
    /// 80 bytes.
    B80,
    /// 96 bytes — three sectors.
    B96,
    /// 128 bytes — stored uncompressed.
    B128,
}

impl SizeClass {
    /// All classes in increasing size order.
    pub const ALL: [SizeClass; 8] = [
        SizeClass::B0,
        SizeClass::B8,
        SizeClass::B16,
        SizeClass::B32,
        SizeClass::B64,
        SizeClass::B80,
        SizeClass::B96,
        SizeClass::B128,
    ];

    /// The smallest class that can hold a payload of `bits` bits.
    ///
    /// `bits == 0` maps to [`SizeClass::B0`]; anything above 96 B maps to
    /// [`SizeClass::B128`] (stored raw).
    pub fn for_bits(bits: usize) -> Self {
        Self::for_bytes(bits.div_ceil(8))
    }

    /// The smallest class that can hold a payload of `bytes` bytes.
    pub fn for_bytes(bytes: usize) -> Self {
        for class in Self::ALL {
            if bytes <= class.bytes() {
                return class;
            }
        }
        SizeClass::B128
    }

    /// Storage charged to this class, in bytes.
    pub fn bytes(self) -> usize {
        match self {
            SizeClass::B0 => 0,
            SizeClass::B8 => 8,
            SizeClass::B16 => 16,
            SizeClass::B32 => 32,
            SizeClass::B64 => 64,
            SizeClass::B80 => 80,
            SizeClass::B96 => 96,
            SizeClass::B128 => 128,
        }
    }

    /// Number of 32 B sectors this class occupies (0–4).
    ///
    /// Sector counts are what Buddy Compression's fit rule (Figure 4,
    /// `buddy_core`'s `TargetRatio::fits`) compares against a target's
    /// device budget.
    pub fn sectors(self) -> u8 {
        self.bytes().div_ceil(crate::SECTOR_BYTES) as u8
    }

    /// Compression ratio of one entry stored in this class (`128 / bytes`).
    ///
    /// [`SizeClass::B0`] reports the paper's 16× zero-page ratio rather than
    /// infinity, matching the most aggressive target the design supports.
    pub fn ratio(self) -> f64 {
        match self {
            SizeClass::B0 => 16.0,
            other => crate::ENTRY_BYTES as f64 / other.bytes() as f64,
        }
    }
}

impl fmt::Display for SizeClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}B", self.bytes())
    }
}

/// Aggregates size-class observations into an overall compression ratio.
///
/// This implements the paper's capacity accounting: the compression ratio of
/// a memory region is `uncompressed bytes / Σ class bytes`, with tracked-zero
/// entries charged the 8 B zero-page granule so ratios stay below the 16×
/// carve-out bound.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SizeHistogram {
    counts: [u64; 8],
}

impl SizeHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one entry of the given class.
    pub fn record(&mut self, class: SizeClass) {
        self.counts[class as usize] += 1;
    }

    /// Records `n` entries of the given class at once.
    pub fn record_n(&mut self, class: SizeClass, n: u64) {
        self.counts[class as usize] += n;
    }

    /// Number of entries recorded for `class`.
    pub fn count(&self, class: SizeClass) -> u64 {
        self.counts[class as usize]
    }

    /// Total number of entries recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Overall capacity compression ratio under the optimistic Figure 3
    /// accounting (each entry charged exactly its class size; zero entries
    /// charged the 8 B zero-page granule).
    pub fn compression_ratio(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 1.0;
        }
        let mut compressed_bytes = 0u64;
        for class in SizeClass::ALL {
            let charged = match class {
                SizeClass::B0 => 8, // zero-page granule: 8 B of every 128 B
                other => other.bytes() as u64,
            };
            compressed_bytes += self.count(class) * charged;
        }
        (total * crate::ENTRY_BYTES as u64) as f64 / compressed_bytes as f64
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &SizeHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }
}

impl FromIterator<SizeClass> for SizeHistogram {
    fn from_iter<I: IntoIterator<Item = SizeClass>>(iter: I) -> Self {
        let mut hist = SizeHistogram::new();
        for class in iter {
            hist.record(class);
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_cover_bit_ranges() {
        assert_eq!(SizeClass::for_bits(0), SizeClass::B0);
        assert_eq!(SizeClass::for_bits(1), SizeClass::B8);
        assert_eq!(SizeClass::for_bits(64), SizeClass::B8);
        assert_eq!(SizeClass::for_bits(65), SizeClass::B16);
        assert_eq!(SizeClass::for_bits(256), SizeClass::B32);
        assert_eq!(SizeClass::for_bits(257), SizeClass::B64);
        assert_eq!(SizeClass::for_bits(512), SizeClass::B64);
        assert_eq!(SizeClass::for_bits(513), SizeClass::B80);
        assert_eq!(SizeClass::for_bits(641), SizeClass::B96);
        assert_eq!(SizeClass::for_bits(769), SizeClass::B128);
        assert_eq!(SizeClass::for_bits(4096), SizeClass::B128);
    }

    #[test]
    fn sectors_match_figure_4() {
        assert_eq!(SizeClass::B0.sectors(), 0);
        assert_eq!(SizeClass::B8.sectors(), 1);
        assert_eq!(SizeClass::B16.sectors(), 1);
        assert_eq!(SizeClass::B32.sectors(), 1);
        assert_eq!(SizeClass::B64.sectors(), 2);
        assert_eq!(SizeClass::B80.sectors(), 3);
        assert_eq!(SizeClass::B96.sectors(), 3);
        assert_eq!(SizeClass::B128.sectors(), 4);
    }

    #[test]
    fn ratios() {
        assert_eq!(SizeClass::B128.ratio(), 1.0);
        assert_eq!(SizeClass::B64.ratio(), 2.0);
        assert_eq!(SizeClass::B32.ratio(), 4.0);
        assert_eq!(SizeClass::B0.ratio(), 16.0);
    }

    #[test]
    fn display() {
        assert_eq!(SizeClass::B0.to_string(), "0B");
        assert_eq!(SizeClass::B96.to_string(), "96B");
    }

    #[test]
    fn histogram_ratio_uniform_64b() {
        let hist: SizeHistogram = std::iter::repeat_n(SizeClass::B64, 10).collect();
        assert_eq!(hist.compression_ratio(), 2.0);
        assert_eq!(hist.total(), 10);
        assert_eq!(hist.count(SizeClass::B64), 10);
    }

    #[test]
    fn histogram_zero_entries_use_zero_page_granule() {
        let hist: SizeHistogram = std::iter::repeat_n(SizeClass::B0, 4).collect();
        assert_eq!(hist.compression_ratio(), 16.0);
    }

    #[test]
    fn histogram_mixed() {
        let mut hist = SizeHistogram::new();
        hist.record(SizeClass::B128);
        hist.record(SizeClass::B64);
        // (2 * 128) / (128 + 64) = 256/192
        assert!((hist.compression_ratio() - 256.0 / 192.0).abs() < 1e-12);
        assert_eq!(hist.count(SizeClass::B64), 1);
    }

    #[test]
    fn histogram_merge() {
        let mut a = SizeHistogram::new();
        a.record(SizeClass::B8);
        let mut b = SizeHistogram::new();
        b.record(SizeClass::B8);
        b.record(SizeClass::B128);
        a.merge(&b);
        assert_eq!(a.count(SizeClass::B8), 2);
        assert_eq!(a.total(), 3);
    }

    #[test]
    fn empty_histogram_is_neutral() {
        let hist = SizeHistogram::new();
        assert_eq!(hist.compression_ratio(), 1.0);
        assert_eq!(hist.total(), 0);
    }
}
