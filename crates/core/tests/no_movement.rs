//! Tests for the central design invariant of Buddy Compression (§3.3):
//! *"the compressibility of each memory-entry affects only its own
//! allocation, thereby never having to cause page movement."*
//!
//! We verify this at two levels: storage ranges are fixed functions of
//! (allocation, index) regardless of data, and rewriting any entry with
//! data of any compressibility leaves every other entry byte-identical on
//! read-back.
//!
//! Every property runs on the BPC device the paper builds, and the
//! round-trip properties under all five target ratios.

#[expect(
    dead_code,
    reason = "the equivalence suites' arena and occupancy fingerprint"
)]
mod kit;

use bpc::ENTRY_BYTES;
use buddy_core::{AccessStats, AllocId, BuddyDevice, DeviceConfig, EntryState, TargetRatio};
use kit::{entry_of_kind, read1, write1, Entry};
use proptest::prelude::*;

fn device() -> BuddyDevice {
    BuddyDevice::new(DeviceConfig {
        device_capacity: 1 << 20,
        carve_out_factor: 3,
    })
}

/// The two entry-I/O surfaces over the one batch engine: the device's
/// `&mut self` methods and the lock-free [`buddy_core::DeviceHandle`].
#[derive(Debug, Clone, Copy)]
enum Surface {
    Device,
    Handle,
}

impl Surface {
    /// Writes one batch through this surface; on the handle the batch's
    /// own traffic delta is folded into `delta`.
    fn write(
        self,
        dev: &mut BuddyDevice,
        id: AllocId,
        start: u64,
        entries: &[Entry],
        delta: &mut AccessStats,
    ) {
        match self {
            Surface::Device => dev.write_entries(id, start, entries).unwrap(),
            Surface::Handle => delta.merge(
                &dev.handle()
                    .write_entries_collect(id, start, entries)
                    .unwrap(),
            ),
        }
    }

    /// Reads one batch through this surface (see [`write`](Self::write)).
    fn read(
        self,
        dev: &mut BuddyDevice,
        id: AllocId,
        start: u64,
        out: &mut [Entry],
        delta: &mut AccessStats,
    ) {
        match self {
            Surface::Device => dev.read_entries(id, start, out).unwrap(),
            Surface::Handle => {
                delta.merge(&dev.handle().read_entries_collect(id, start, out).unwrap())
            }
        }
    }
}

#[test]
fn storage_ranges_are_data_independent() {
    let mut dev = device();
    let a = dev.alloc("a", 64, TargetRatio::R2).unwrap();
    let before: Vec<_> = (0..64).map(|i| dev.storage_ranges(a, i).unwrap()).collect();
    // Write wildly different data everywhere.
    for i in 0..64 {
        write1(&mut dev, a, i, &entry_of_kind(i as u8, i)).unwrap();
    }
    let after: Vec<_> = (0..64).map(|i| dev.storage_ranges(a, i).unwrap()).collect();
    assert_eq!(before, after, "storage mapping must not depend on data");
    // Ranges are disjoint and strided.
    for i in 1..64usize {
        let ((d_prev, d_len), (b_prev, b_len)) = before[i - 1];
        let ((d_cur, _), (b_cur, _)) = before[i];
        assert_eq!(d_cur, d_prev + d_len);
        assert_eq!(b_cur, b_prev + b_len);
    }
}

#[test]
fn compressibility_change_never_disturbs_neighbors() {
    for target in TargetRatio::DESCENDING {
        let mut dev = device();
        let a = dev.alloc("a", 32, target).unwrap();
        let initial: Vec<Entry> = (0..32).map(|i| entry_of_kind(i as u8, 1000 + i)).collect();
        dev.write_entries(a, 0, &initial).unwrap();
        // Cycle entry 7 through every compressibility kind.
        for kind in 0..8u8 {
            let update = entry_of_kind(kind, 7777 + kind as u64);
            write1(&mut dev, a, 7, &update).unwrap();
            for (i, e) in initial.iter().enumerate() {
                if i == 7 {
                    assert_eq!(read1(&mut dev, a, 7).unwrap(), update, "{target}: self");
                } else {
                    assert_eq!(
                        read1(&mut dev, a, i as u64).unwrap(),
                        *e,
                        "{target}: entry {i}"
                    );
                }
            }
        }
    }
}

#[test]
fn allocations_do_not_interfere() {
    let mut dev = device();
    let a = dev.alloc("a", 16, TargetRatio::R4).unwrap();
    let b = dev.alloc("b", 16, TargetRatio::R2).unwrap();
    let c = dev.alloc("c", 16, TargetRatio::ZeroPage16).unwrap();
    for i in 0..16u64 {
        write1(&mut dev, a, i, &entry_of_kind(i as u8, i)).unwrap();
        write1(&mut dev, b, i, &entry_of_kind((i + 1) as u8, 100 + i)).unwrap();
        write1(&mut dev, c, i, &entry_of_kind((i + 2) as u8, 200 + i)).unwrap();
    }
    for i in 0..16u64 {
        assert_eq!(read1(&mut dev, a, i).unwrap(), entry_of_kind(i as u8, i));
        assert_eq!(
            read1(&mut dev, b, i).unwrap(),
            entry_of_kind((i + 1) as u8, 100 + i)
        );
        assert_eq!(
            read1(&mut dev, c, i).unwrap(),
            entry_of_kind((i + 2) as u8, 200 + i)
        );
    }
}

#[test]
fn buddy_fraction_tracks_overflow_rate() {
    let mut dev = device();
    let a = dev.alloc("a", 100, TargetRatio::R4).unwrap();
    // Half the entries compress to one sector, half do not.
    for i in 0..100u64 {
        let kind = if i % 2 == 0 { 1 } else { 3 };
        write1(&mut dev, a, i, &entry_of_kind(kind, i)).unwrap();
    }
    dev.reset_stats();
    for i in 0..100u64 {
        read1(&mut dev, a, i).unwrap();
    }
    let frac = dev.stats().buddy_access_fraction();
    assert!(
        (frac - 0.5).abs() < 0.01,
        "expected ~50% buddy accesses, got {frac}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Read-after-write returns the written entry for every target ratio
    /// and any mix of compressibilities, including repeated rewrites.
    #[test]
    fn read_after_write_round_trips(
        target_idx in 0usize..5,
        ops in proptest::collection::vec((0u64..24, 0u8..8, any::<u64>()), 1..80)
    ) {
        let target = TargetRatio::DESCENDING[target_idx];
        let mut dev = device();
        let a = dev.alloc("pt", 24, target).unwrap();
        let mut shadow: Vec<Entry> = vec![[0u8; ENTRY_BYTES]; 24];
        for (idx, kind, seed) in ops {
            let entry = entry_of_kind(kind, seed);
            write1(&mut dev, a, idx, &entry).unwrap();
            shadow[idx as usize] = entry;
        }
        for (i, expect) in shadow.iter().enumerate() {
            prop_assert_eq!(&read1(&mut dev, a, i as u64).unwrap(), expect);
        }
    }

    /// A batch of N is equivalent to N batches of one under every target,
    /// on both the device and the handle surface: same read-back,
    /// same metadata states, same traffic counters (and, on the handle,
    /// the same per-batch deltas), including when batches interleave with
    /// single-entry rewrites.
    #[test]
    fn batched_io_equals_per_entry_io(
        target_idx in 0usize..5,
        start in 0u64..16,
        kinds in proptest::collection::vec((0u8..8, any::<u64>()), 1..16),
        rewrite in (0u64..24, 0u8..8, any::<u64>()),
    ) {
        let target = TargetRatio::DESCENDING[target_idx];
        let len = kinds.len().min((24 - start) as usize);
        let batch: Vec<Entry> = kinds[..len]
            .iter()
            .map(|&(kind, seed)| entry_of_kind(kind, seed))
            .collect();
        let (ri, rk, rs) = rewrite;
        let rewritten = entry_of_kind(rk, rs);

        for via in [Surface::Device, Surface::Handle] {
            let mut batched = device();
            let a = batched.alloc("b", 24, target).unwrap();
            let mut batched_delta = AccessStats::default();
            via.write(&mut batched, a, start, &batch, &mut batched_delta);
            via.write(&mut batched, a, ri, &[rewritten], &mut batched_delta);
            let mut got = vec![[0u8; ENTRY_BYTES]; 24];
            via.read(&mut batched, a, 0, &mut got, &mut batched_delta);

            let mut single = device();
            let b = single.alloc("b", 24, target).unwrap();
            let mut single_delta = AccessStats::default();
            for (i, e) in batch.iter().enumerate() {
                via.write(&mut single, b, start + i as u64, &[*e], &mut single_delta);
            }
            via.write(&mut single, b, ri, &[rewritten], &mut single_delta);
            for (i, slot) in got.iter().enumerate() {
                let mut one = [[0u8; ENTRY_BYTES]];
                via.read(&mut single, b, i as u64, &mut one, &mut single_delta);
                prop_assert_eq!(slot, &one[0],
                    "{} via {:?}: entry {} diverges between batched and single I/O",
                    target, via, i);
                prop_assert_eq!(
                    batched.handle().entry_state(a, i as u64).unwrap(),
                    single.handle().entry_state(b, i as u64).unwrap(),
                    "{} via {:?}: state of entry {}", target, via, i);
            }
            prop_assert_eq!(batched.stats(), single.stats());
            prop_assert_eq!(batched_delta, single_delta);
            if let Surface::Handle = via {
                // The deltas a handle returns are exactly what it folded
                // into the device-wide counters.
                prop_assert_eq!(batched_delta, batched.stats());
            }
        }
    }

    /// Batched I/O boundary behaviour: a batch is accepted iff
    /// `start + len <= entries` — zero-length batches are no-ops anywhere
    /// up to and including the end of the allocation, and out-of-range
    /// runs fail atomically (device bytes and traffic counters untouched).
    #[test]
    fn batched_range_edges_are_exact(
        entries in 1u64..32,
        start in 0u64..40,
        len in 0usize..12,
    ) {
        let mut dev = device();
        let a = dev.alloc("edge", entries, TargetRatio::R2).unwrap();
        let pattern = entry_of_kind(1, 42);
        dev.write_entries(a, 0, &vec![pattern; entries as usize]).unwrap();
        let stats_before = dev.stats();

        let batch = vec![entry_of_kind(3, 7); len];
        let mut out = vec![[0u8; ENTRY_BYTES]; len];
        let in_range = start.checked_add(len as u64).is_some_and(|end| end <= entries);
        let write_result = dev.write_entries(a, start, &batch);
        prop_assert_eq!(
            write_result.is_ok(),
            in_range,
            "write_entries(start={}, len={}) on {} entries", start, len, entries
        );
        if !in_range {
            // Failed batch: no stats movement, no data movement.
            prop_assert_eq!(dev.stats(), stats_before);
            let read_result = dev.read_entries(a, start, &mut out);
            prop_assert!(read_result.is_err());
            prop_assert_eq!(dev.stats(), stats_before);
            for i in 0..entries {
                prop_assert_eq!(&read1(&mut dev, a, i).unwrap(), &pattern);
            }
        } else if len == 0 {
            // Zero-length batches never touch counters, even at the end.
            prop_assert_eq!(dev.stats(), stats_before);
            dev.read_entries(a, start, &mut out).unwrap();
            prop_assert_eq!(dev.stats(), stats_before);
        } else {
            dev.read_entries(a, start, &mut out).unwrap();
            for slot in &out {
                prop_assert_eq!(slot, &entry_of_kind(3, 7));
            }
        }
    }

    /// Metadata state is always consistent with what the entry needs.
    #[test]
    fn metadata_matches_fit(kind in 0u8..8, seed in any::<u64>()) {
        let mut dev = device();
        let a = dev.alloc("m", 4, TargetRatio::R2).unwrap();
        let entry = entry_of_kind(kind, seed);
        let state = write1(&mut dev, a, 0, &entry).unwrap();
        match state {
            EntryState::Zero => prop_assert!(entry.iter().all(|&b| b == 0)),
            EntryState::Compressed { sectors } => prop_assert!((1..=4).contains(&sectors)),
            _ => prop_assert!(false, "zero-page states impossible under R2"),
        }
    }
}
