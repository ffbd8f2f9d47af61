//! Compression metadata: the 4-bit per-entry state array, the Global Buddy
//! Base-address Register (GBBR), and the page-table extension accounting.
//!
//! §3.2: "To know the actual compressed size of each 128B memory-entry,
//! there are 4 bits of metadata per cache block, stored in a dedicated
//! region of device memory, amounting to a 0.4% overhead in storage." The
//! page table carries 24 extra bits per PTE (compressed flag, target ratio,
//! buddy-page offset), and a single GBBR holds the base of the carve-out.

use crate::target::TargetRatio;
use bpc::{SizeClass, SECTOR_BYTES};
use std::fmt;

/// Decoded 4-bit per-entry metadata state.
///
/// The encoding covers everything the memory controller needs on an access:
/// how many device sectors hold the entry, whether the buddy slot is in use,
/// and the two zero-page sub-states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EntryState {
    /// The entry is all zeros — no data sectors need to be read at all.
    Zero,
    /// The entry is stored compressed in `sectors` (1–4) sectors, starting
    /// in device memory and spilling to the buddy slot beyond the target.
    Compressed {
        /// Total 32 B sectors occupied (1–4).
        sectors: u8,
    },
    /// Zero-page-mode entry that fits its 8 B device granule.
    ZeroPageFit,
    /// Zero-page-mode entry that overflowed: the full 128 B raw entry lives
    /// in the buddy slot.
    ZeroPageOverflow,
}

impl EntryState {
    /// The state an entry of compressed size `class` is stored in under
    /// `target` (Figure 4): a zero entry is tracked, not stored; under the
    /// zero-page target an entry either [fits](TargetRatio::fits) its 8 B
    /// granule or lives raw in its buddy slot; any other entry takes its
    /// class's sectors (at least one), device memory first.
    pub fn stored(class: SizeClass, target: TargetRatio) -> Self {
        match (class, target) {
            (SizeClass::B0, _) => EntryState::Zero,
            (_, TargetRatio::ZeroPage16) if target.fits(class) => EntryState::ZeroPageFit,
            (_, TargetRatio::ZeroPage16) => EntryState::ZeroPageOverflow,
            _ => EntryState::Compressed {
                sectors: class.sectors().max(1),
            },
        }
    }

    /// Whether [`stored`](Self::stored) can yield this state under
    /// `target`: the zero-page states exist only under the 16× target, and
    /// sector counts only under the others. A nibble holding any other
    /// state is damage — a zero-page overflow under 4×, say, would read
    /// 128 B out of a 96 B buddy slot.
    pub(crate) fn storable_under(self, target: TargetRatio) -> bool {
        match self {
            EntryState::Zero => true,
            EntryState::Compressed { .. } => target != TargetRatio::ZeroPage16,
            EntryState::ZeroPageFit | EntryState::ZeroPageOverflow => {
                target == TargetRatio::ZeroPage16
            }
        }
    }

    /// Sectors of the entry read from or written to device memory under
    /// `target`. The 8 B zero-page granule still costs one sector access.
    pub fn device_sectors(self, target: TargetRatio) -> u8 {
        match self {
            EntryState::Zero | EntryState::ZeroPageOverflow => 0,
            EntryState::ZeroPageFit => 1,
            EntryState::Compressed { sectors } => sectors.min(target.device_sectors()),
        }
    }

    /// Sectors of the entry that spill to its buddy slot under `target`.
    pub fn buddy_sectors(self, target: TargetRatio) -> u8 {
        match self {
            EntryState::Zero | EntryState::ZeroPageFit => 0,
            EntryState::ZeroPageOverflow => 4,
            EntryState::Compressed { sectors } => sectors.saturating_sub(target.device_sectors()),
        }
    }

    /// The largest size class with this state's stored footprint — how a
    /// live state is counted in a [`DeviceHandle::state_window`] histogram.
    /// A stored sector count does not say whether the entry would also fit
    /// the 8 B granule, and raw zero-page overflow keeps no compressed size
    /// at all, so both bin conservatively: the window never fits the 16×
    /// target better than the data does.
    ///
    /// [`DeviceHandle::state_window`]: crate::DeviceHandle::state_window
    pub(crate) fn footprint_class(self) -> SizeClass {
        match self {
            EntryState::Zero => SizeClass::B0,
            EntryState::ZeroPageFit => SizeClass::B8,
            EntryState::ZeroPageOverflow => SizeClass::B128,
            EntryState::Compressed { sectors } => {
                SizeClass::for_bytes(usize::from(sectors) * SECTOR_BYTES)
            }
        }
    }

    /// Encodes into the 4-bit on-chip representation.
    pub fn encode(self) -> u8 {
        match self {
            EntryState::Zero => 0,
            EntryState::Compressed { sectors } => {
                debug_assert!((1..=4).contains(&sectors));
                sectors
            }
            EntryState::ZeroPageFit => 5,
            EntryState::ZeroPageOverflow => 6,
        }
    }

    /// Decodes the 4-bit representation.
    ///
    /// Returns `None` for the reserved encodings 7–15.
    pub fn decode(nibble: u8) -> Option<Self> {
        match nibble {
            0 => Some(EntryState::Zero),
            s @ 1..=4 => Some(EntryState::Compressed { sectors: s }),
            5 => Some(EntryState::ZeroPageFit),
            6 => Some(EntryState::ZeroPageOverflow),
            _ => None,
        }
    }
}

impl fmt::Display for EntryState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EntryState::Zero => write!(f, "zero"),
            EntryState::Compressed { sectors } => write!(f, "{sectors}s"),
            EntryState::ZeroPageFit => write!(f, "zp-fit"),
            EntryState::ZeroPageOverflow => write!(f, "zp-ovf"),
        }
    }
}

/// Number of 128 B entries covered by one 32 B metadata line: the
/// dedicated device-memory region holds 4 bits per entry, so one line
/// covers 8 KB of data — the prefetch granularity §3.2 describes.
pub const ENTRIES_PER_METADATA_LINE: u64 = 64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn states_round_trip_through_nibbles() {
        let states = [
            EntryState::Zero,
            EntryState::Compressed { sectors: 1 },
            EntryState::Compressed { sectors: 2 },
            EntryState::Compressed { sectors: 3 },
            EntryState::Compressed { sectors: 4 },
            EntryState::ZeroPageFit,
            EntryState::ZeroPageOverflow,
        ];
        for s in states {
            assert_eq!(EntryState::decode(s.encode()), Some(s));
        }
        for reserved in 7..=15u8 {
            assert_eq!(EntryState::decode(reserved), None);
        }
    }

    #[test]
    fn stored_states_split_sectors_per_figure_4() {
        use SizeClass::*;
        use TargetRatio::*;
        let split = |class, target| {
            let state = EntryState::stored(class, target);
            (state.device_sectors(target), state.buddy_sectors(target))
        };
        // Fits: fully device-resident.
        assert_eq!(split(B32, R2), (1, 0));
        assert_eq!(split(B8, R4), (1, 0));
        // Overflows: split at the budget.
        assert_eq!(split(B128, R2), (2, 2));
        assert_eq!(split(B96, R4), (1, 2));
        assert_eq!(split(B80, R1_33), (3, 0));
        // Zero entries are free under every target.
        for t in TargetRatio::DESCENDING {
            assert_eq!(EntryState::stored(B0, t), EntryState::Zero);
            assert_eq!(split(B0, t), (0, 0));
        }
        // Zero-page fit costs one granule access; overflow is raw in buddy.
        assert_eq!(EntryState::stored(B8, ZeroPage16), EntryState::ZeroPageFit);
        assert_eq!(split(B8, ZeroPage16), (1, 0));
        assert_eq!(split(B64, ZeroPage16), (0, 4));
        // An entry spills exactly when it does not fit.
        for class in SizeClass::ALL {
            for t in TargetRatio::DESCENDING {
                assert_eq!(split(class, t).1 == 0, t.fits(class), "{class} at {t}");
            }
        }
    }

    #[test]
    fn footprint_classes_keep_each_states_fit() {
        // Binned to its footprint class, a state fits exactly the standard
        // targets it is stored within.
        for sectors in 1..=4u8 {
            let class = EntryState::Compressed { sectors }.footprint_class();
            assert_eq!(class.sectors(), sectors);
            for t in TargetRatio::STANDARD_DESCENDING {
                assert_eq!(
                    t.fits(class),
                    sectors <= t.device_sectors(),
                    "{class} at {t}"
                );
            }
            assert!(!TargetRatio::ZeroPage16.fits(class));
        }
        assert_eq!(EntryState::Zero.footprint_class(), SizeClass::B0);
        assert_eq!(EntryState::ZeroPageFit.footprint_class(), SizeClass::B8);
        assert_eq!(
            EntryState::ZeroPageOverflow.footprint_class(),
            SizeClass::B128
        );
    }

    #[test]
    fn overhead_is_0_4_percent() {
        // One 32 B metadata line per 64 entries of 128 B: 4 bits / 1024 bits.
        let overhead = 32.0 / (ENTRIES_PER_METADATA_LINE * 128) as f64;
        assert!((overhead - 0.00390625).abs() < 1e-9);
    }

    #[test]
    fn display_forms() {
        assert_eq!(EntryState::Zero.to_string(), "zero");
        assert_eq!(EntryState::Compressed { sectors: 2 }.to_string(), "2s");
        assert_eq!(EntryState::ZeroPageFit.to_string(), "zp-fit");
        assert_eq!(EntryState::ZeroPageOverflow.to_string(), "zp-ovf");
    }
}
