//! Memory-layout oracles: how each 128 B entry is placed between device and
//! buddy memory.
//!
//! The engine is policy-free: it asks a [`MemoryLayout`] how many sectors an
//! entry occupies and where they live. The facade crate implements this
//! trait on top of the workload generators and the buddy-core profiler; the
//! simple implementations here serve tests and micro-benchmarks.

/// Placement of one compressed memory-entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryPlacement {
    /// Sectors fetched from device DRAM on a miss (0–4).
    pub device_sectors: u8,
    /// Sectors fetched from buddy memory over the interconnect (0–4).
    pub buddy_sectors: u8,
}

impl EntryPlacement {
    /// An entry fully resident in device memory.
    pub fn device(sectors: u8) -> Self {
        Self {
            device_sectors: sectors,
            buddy_sectors: 0,
        }
    }

    /// Total compressed sectors.
    pub fn total(&self) -> u8 {
        self.device_sectors + self.buddy_sectors
    }
}

/// Oracle describing the compressed placement of every entry.
///
/// Implementations must be deterministic: the engine may query the same
/// entry repeatedly (fills, evictions) and expects stable answers.
pub trait MemoryLayout {
    /// Number of 128 B entries in the footprint.
    fn total_entries(&self) -> u64;

    /// Placement of `entry` under the Buddy Compression configuration.
    fn placement(&self, entry: u64) -> EntryPlacement;

    /// Compressed sectors of `entry` for bandwidth-only compression (whole
    /// block from device memory, no buddy split). Defaults to the total of
    /// [`placement`](Self::placement), which is correct when the buddy
    /// split does not change the compressed size.
    fn compressed_sectors(&self, entry: u64) -> u8 {
        self.placement(entry).total()
    }
}

/// Every entry identical — the simplest layout, for tests and calibration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniformLayout {
    /// Footprint in entries.
    pub entries: u64,
    /// Placement shared by every entry.
    pub placement: EntryPlacement,
}

impl MemoryLayout for UniformLayout {
    fn total_entries(&self) -> u64 {
        self.entries
    }

    fn placement(&self, _entry: u64) -> EntryPlacement {
        self.placement
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_helpers() {
        let p = EntryPlacement::device(3);
        assert_eq!(p.total(), 3);
        let q = EntryPlacement {
            device_sectors: 2,
            buddy_sectors: 2,
        };
        assert_eq!(q.total(), 4);
    }

    #[test]
    fn uniform_layout() {
        let l = UniformLayout {
            entries: 10,
            placement: EntryPlacement {
                device_sectors: 1,
                buddy_sectors: 0,
            },
        };
        assert_eq!(l.total_entries(), 10);
        assert_eq!(l.placement(7).device_sectors, 1);
        assert_eq!(l.compressed_sectors(7), 1);
    }
}
