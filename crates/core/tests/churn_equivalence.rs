//! The allocation lifecycle under churn (DESIGN.md §9).
//!
//! Three guarantees pin the free-list allocator and the generational ids:
//!
//! 1. **Leak freedom.** After any interleaving of alloc/free (including
//!    N full alloc-everything/free-everything cycles), a device with no
//!    live allocations is indistinguishable from a fresh one:
//!    `device_used() == buddy_used() == 0`, fragmentation `0`, and a
//!    subsequent full-capacity allocation succeeds — which is only
//!    possible if freed neighbours coalesced back into one run.
//! 2. **Observation equivalence.** However a live working set was reached
//!    — allocations created, freed, re-allocated into the holes,
//!    re-written, re-targeted — the surviving allocations are observably
//!    identical (bytes, per-entry states, occupancy, read-side traffic,
//!    state windows) to the same allocations created directly on a fresh
//!    device.
//! 3. **Stale ids stay dead.** Every id invalidated by a `free` returns
//!    `BadAllocation` on every path forever, even after its slot has been
//!    recycled by later allocations (generational ids).
//! 4. **Metadata needs no allocator.** Entry `i` of an allocation owns the
//!    state nibble at `device offset / 8 + i` (DESIGN.md §7); after every
//!    step the live allocations' nibble ranges are pairwise disjoint and
//!    inside the `device_capacity / 8` states the device builds up front.

mod kit;

use bpc::ENTRY_BYTES;
use buddy_core::{AllocId, BuddyDevice, DeviceConfig, DeviceError, TargetRatio};
use kit::{entry_of_kind, occupancy, read1, write1, Entry, CONFIG};
use proptest::prelude::*;

/// The shadow model of one live allocation.
struct Shadow {
    id: AllocId,
    name: String,
    target: TargetRatio,
    contents: Vec<Entry>,
}

/// Asserts guarantee 4 for the allocations `ids`, deriving each nibble
/// range from the device offset of the allocation's first entry.
fn assert_nibble_ranges_disjoint(dev: &BuddyDevice, ids: impl Iterator<Item = AllocId>) {
    let mut ranges: Vec<(u64, u64)> = ids
        .map(|id| {
            let ((device_offset, _), _) = dev.storage_ranges(id, 0).unwrap();
            let (_, _, entries) = dev.allocation_info(id).unwrap();
            (device_offset / 8, entries)
        })
        .collect();
    ranges.sort_unstable();
    for pair in ranges.windows(2) {
        assert!(
            pair[0].0 + pair[0].1 <= pair[1].0,
            "nibble ranges {:?} and {:?} overlap",
            pair[0],
            pair[1]
        );
    }
    if let Some(&(first, entries)) = ranges.last() {
        assert!(
            first + entries <= dev.config().device_capacity / 8,
            "nibble range [{first}, +{entries}) leaves the metadata array"
        );
    }
}

/// Asserts that a handle is dead on every path.
fn assert_stale(dev: &mut BuddyDevice, id: AllocId) {
    assert_eq!(read1(dev, id, 0), Err(DeviceError::BadAllocation));
    assert_eq!(
        write1(dev, id, 0, &[1u8; ENTRY_BYTES]),
        Err(DeviceError::BadAllocation)
    );
    assert_eq!(
        dev.retarget(id, TargetRatio::R1),
        Err(DeviceError::BadAllocation)
    );
    assert_eq!(
        dev.handle().state_window(id),
        Err(DeviceError::BadAllocation)
    );
    assert_eq!(dev.free(id), Err(DeviceError::BadAllocation));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The headline property: any alloc/free/write/retarget interleaving
    /// leaves the surviving working set observation-equivalent to a fresh
    /// device, stale ids dead, and — once everything is freed — the
    /// device fully reclaimed.
    #[test]
    fn churn_is_observation_equivalent_and_leak_free(
        ops in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u8>()), 1..100),
    ) {
        let mut dev = BuddyDevice::new(CONFIG);
        let mut live: Vec<Shadow> = Vec::new();
        let mut stale: Vec<AllocId> = Vec::new();
        let mut next_name = 0u64;

        for &(a, b, kind) in &ops {
            match a % 5 {
                // Allocate (twice as likely as each other op).
                0 | 1 => {
                    let entries = b % 24 + 1;
                    let target = TargetRatio::DESCENDING[(b / 24 % 5) as usize];
                    let name = format!("a{next_name}");
                    next_name += 1;
                    match dev.alloc(&name, entries, target) {
                        Ok(id) => live.push(Shadow {
                            id,
                            name,
                            target,
                            contents: vec![[0u8; ENTRY_BYTES]; entries as usize],
                        }),
                        Err(e) => prop_assert!(
                            matches!(
                                e,
                                DeviceError::OutOfDeviceMemory { .. }
                                    | DeviceError::OutOfBuddyMemory { .. }
                            ),
                            "alloc may only fail for capacity: {e:?}"
                        ),
                    }
                }
                // Free a random live allocation.
                2 if !live.is_empty() => {
                    let shadow = live.swap_remove((b % live.len() as u64) as usize);
                    dev.free(shadow.id).unwrap();
                    stale.push(shadow.id);
                }
                // Write one entry of a random live allocation.
                3 if !live.is_empty() => {
                    let pick = (b % live.len() as u64) as usize;
                    let shadow = &mut live[pick];
                    let index = (b / 7) % shadow.contents.len() as u64;
                    let entry = entry_of_kind(kind, b ^ a);
                    write1(&mut dev, shadow.id, index, &entry).unwrap();
                    shadow.contents[index as usize] = entry;
                }
                // Re-target a random live allocation.
                4 if !live.is_empty() => {
                    let pick = (b % live.len() as u64) as usize;
                    let shadow = &mut live[pick];
                    let new_target = TargetRatio::DESCENDING[(kind % 5) as usize];
                    match dev.retarget(shadow.id, new_target) {
                        Ok(_) => shadow.target = new_target,
                        Err(e) => prop_assert!(
                            matches!(
                                e,
                                DeviceError::OutOfDeviceMemory { .. }
                                    | DeviceError::OutOfBuddyMemory { .. }
                            ),
                            "retarget may only fail for capacity: {e:?}"
                        ),
                    }
                }
                _ => {}
            }
            assert_nibble_ranges_disjoint(&dev, live.iter().map(|shadow| shadow.id));
        }

        // (3) Stale ids are dead, even though later allocations may have
        // recycled their slots and their storage.
        for &id in &stale {
            assert_stale(&mut dev, id);
        }

        // (2) The survivors are observation-equivalent to the same working
        // set created directly on a fresh device (same creation order,
        // final targets, final contents).
        let mut fresh = BuddyDevice::new(CONFIG);
        let mut fresh_ids = Vec::new();
        for shadow in &live {
            let id = fresh
                .alloc(&shadow.name, shadow.contents.len() as u64, shadow.target)
                .expect("fresh device holds the churned survivors");
            fresh.write_entries(id, 0, &shadow.contents).unwrap();
            fresh_ids.push(id);
        }
        prop_assert_eq!(dev.allocation_count(), live.len());
        prop_assert_eq!(occupancy(&dev), occupancy(&fresh), "occupancy");
        dev.reset_stats();
        fresh.reset_stats();
        for (shadow, &fresh_id) in live.iter().zip(fresh_ids.iter()) {
            let n = shadow.contents.len();
            let mut from_churned = vec![[9u8; ENTRY_BYTES]; n];
            dev.read_entries(shadow.id, 0, &mut from_churned).unwrap();
            prop_assert_eq!(&from_churned, &shadow.contents, "{}: bytes", &shadow.name);
            for i in 0..n as u64 {
                prop_assert_eq!(
                    dev.handle().entry_state(shadow.id, i).unwrap(),
                    fresh.handle().entry_state(fresh_id, i).unwrap(),
                    "{}: state of entry {}", &shadow.name, i
                );
            }
            let mut sink = vec![[0u8; ENTRY_BYTES]; n];
            fresh.read_entries(fresh_id, 0, &mut sink).unwrap();
            prop_assert_eq!(
                dev.handle().state_window(shadow.id).unwrap(),
                fresh.handle().state_window(fresh_id).unwrap(),
                "{}: state window", &shadow.name
            );
        }
        prop_assert_eq!(dev.stats(), fresh.stats(), "read-side traffic");

        // (1) Leak freedom: free the survivors and the device must be
        // fully reclaimed — one coalesced run hosting a full-capacity
        // allocation.
        for shadow in live.drain(..) {
            dev.free(shadow.id).unwrap();
        }
        prop_assert_eq!(dev.device_used(), 0);
        prop_assert_eq!(dev.buddy_used(), 0);
        prop_assert_eq!(dev.allocation_count(), 0);
        prop_assert_eq!(dev.fragmentation(), 0.0);
        prop_assert_eq!(dev.largest_free_region(), CONFIG.device_capacity);
        let entries = CONFIG.device_capacity / ENTRY_BYTES as u64;
        let big = dev.alloc("big", entries, TargetRatio::R1).unwrap();
        prop_assert_eq!(dev.device_used(), CONFIG.device_capacity);
        prop_assert_eq!(read1(&mut dev, big, entries - 1).unwrap(), [0u8; ENTRY_BYTES]);
    }

    /// Free-then-realloc into the holes round-trips bytes even when the
    /// replacement overlaps several freed regions (coalescing in action).
    #[test]
    fn reallocation_into_coalesced_holes_round_trips(
        kinds in proptest::collection::vec((0u8..8, any::<u64>()), 4..16),
    ) {
        let mut dev = BuddyDevice::new(CONFIG);
        // Carpet the device with equal allocations...
        let per_alloc = 16u64;
        let count = CONFIG.device_capacity / (per_alloc * 64); // all R2
        let ids: Vec<AllocId> = (0..count)
            .map(|i| dev.alloc(&format!("c{i}"), per_alloc, TargetRatio::R2).unwrap())
            .collect();
        // ...free every second one, then every first one, so the arena is
        // rebuilt from interleaved holes.
        for (i, &id) in ids.iter().enumerate() {
            if i % 2 == 1 {
                dev.free(id).unwrap();
            }
        }
        for (i, &id) in ids.iter().enumerate() {
            if i % 2 == 0 {
                dev.free(id).unwrap();
            }
        }
        prop_assert_eq!(dev.device_used(), 0);
        // The whole arena is one hole again: a maximal R2 allocation fits.
        let entries = CONFIG.device_capacity / 64;
        let big = dev.alloc("big", entries, TargetRatio::R2).unwrap();
        let contents: Vec<Entry> = (0..entries as usize)
            .map(|i| {
                let (kind, seed) = kinds[i % kinds.len()];
                entry_of_kind(kind, seed ^ i as u64)
            })
            .collect();
        dev.write_entries(big, 0, &contents).unwrap();
        let mut out = vec![[0u8; ENTRY_BYTES]; entries as usize];
        dev.read_entries(big, 0, &mut out).unwrap();
        prop_assert_eq!(out, contents);
    }
}

/// The acceptance-criteria loop, deterministic: N interleaved alloc/free
/// cycles return the device to `device_used() == 0` with a working
/// full-capacity allocation (coalescing), with no drift in any counter.
#[test]
fn n_cycles_of_churn_return_to_empty() {
    let mut dev = BuddyDevice::new(CONFIG);
    let targets = TargetRatio::DESCENDING;
    for cycle in 0u64..50 {
        let mut ids = Vec::new();
        // A cycle allocates a mixed working set...
        for k in 0..12u64 {
            let entries = (cycle * 7 + k * 13) % 40 + 1;
            let target = targets[((cycle + k) % 5) as usize];
            let id = dev
                .alloc(&format!("c{cycle}-{k}"), entries, target)
                .expect("working set fits");
            write1(&mut dev, id, 0, &[cycle as u8 + 1; ENTRY_BYTES]).unwrap();
            ids.push(id);
        }
        // ...frees half of it in creation order, allocates replacements
        // into the holes, then frees everything (reverse order for odd
        // cycles, so both free orders coalesce).
        for &id in ids.iter().take(6) {
            dev.free(id).unwrap();
        }
        for k in 0..6u64 {
            ids.push(
                dev.alloc(
                    &format!("r{cycle}-{k}"),
                    (k * 11) % 32 + 1,
                    targets[(k % 5) as usize],
                )
                .expect("replacements fit the holes"),
            );
        }
        let survivors = ids.split_off(6);
        if cycle % 2 == 0 {
            for &id in &survivors {
                dev.free(id).unwrap();
            }
        } else {
            for &id in survivors.iter().rev() {
                dev.free(id).unwrap();
            }
        }
        assert_eq!(dev.device_used(), 0, "cycle {cycle}: device leak");
        assert_eq!(dev.buddy_used(), 0, "cycle {cycle}: buddy leak");
        assert_eq!(dev.allocation_count(), 0, "cycle {cycle}");
        assert_eq!(dev.fragmentation(), 0.0, "cycle {cycle}: holes left");
    }
    // After 50 cycles the device still hosts a full-capacity allocation.
    let entries = CONFIG.device_capacity / ENTRY_BYTES as u64;
    dev.alloc("full", entries, TargetRatio::R1).unwrap();
    assert_eq!(dev.device_used(), CONFIG.device_capacity);
}

/// Guarantee 4 on `retarget`'s tight-fit path, for every pair of targets:
/// on a completely full device the migrating allocation is placed over its
/// own old bytes, so its new nibble range overlaps its old one — both
/// shrinking and growing back — while unit-sharing neighbours on either
/// side keep every state and byte.
#[test]
fn tight_fit_retargets_keep_nibble_ranges_disjoint() {
    const MIDDLE: u64 = 100;
    let (left_entries, right_entries) = (5u64, 7u64);
    let targets = TargetRatio::DESCENDING;
    for (s, &small) in targets.iter().enumerate() {
        for &big in &targets[s + 1..] {
            let big_stride = u64::from(big.device_bytes_per_entry());
            let mut dev = BuddyDevice::new(DeviceConfig {
                device_capacity: (left_entries + right_entries) * 8 + MIDDLE * big_stride,
                carve_out_factor: 16,
            });
            let left = dev
                .alloc("left", left_entries, TargetRatio::ZeroPage16)
                .unwrap();
            let middle = dev.alloc("middle", MIDDLE, big).unwrap();
            let right = dev
                .alloc("right", right_entries, TargetRatio::ZeroPage16)
                .unwrap();
            assert_eq!(dev.device_free(), 0, "{big}: the device must be full");
            let contents: Vec<(AllocId, Vec<Entry>)> = [left, middle, right]
                .into_iter()
                .zip([left_entries, MIDDLE, right_entries])
                .map(|(id, entries)| {
                    let data: Vec<Entry> = (0..entries)
                        .map(|i| entry_of_kind((i % 4) as u8, i ^ entries))
                        .collect();
                    dev.write_entries(id, 0, &data).unwrap();
                    (id, data)
                })
                .collect();
            let placed = dev.storage_ranges(middle, 0).unwrap().0 .0;
            for to in [small, big] {
                dev.retarget(middle, to).unwrap();
                assert_eq!(
                    dev.storage_ranges(middle, 0).unwrap().0 .0,
                    placed,
                    "{big} <-> {small}: only the tight-fit path re-places in situ"
                );
                assert_nibble_ranges_disjoint(&dev, contents.iter().map(|(id, _)| *id));
                for (id, data) in &contents {
                    let mut out = vec![[9u8; ENTRY_BYTES]; data.len()];
                    dev.read_entries(*id, 0, &mut out).unwrap();
                    assert_eq!(&out, data, "{big} <-> {small}: bytes after -> {to}");
                }
            }
        }
    }
}
