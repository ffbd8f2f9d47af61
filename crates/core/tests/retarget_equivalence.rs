//! Observation equivalence of online re-targeting (DESIGN.md §8).
//!
//! `retarget` must be invisible to readers: for any contents and any
//! (old target → new target) pair,
//!
//! 1. `write → retarget → read` is byte-identical to `write → read` on a
//!    device that never migrated,
//! 2. every invalid access returns the identical error before and after,
//! 3. occupancy (device/buddy bytes, logical bytes, effective ratio),
//!    per-entry metadata states and read-side traffic counters all match a
//!    fresh device whose allocation was created at the new target in the
//!    first place.
//!
//! The property runs the **full cross product**: all 5 old targets × all 5
//! new targets per generated content vector, so every
//! migration edge (including the zero-page raw-overflow representation
//! changes and the no-op diagonal) is exercised on every case.

mod kit;

use bpc::ENTRY_BYTES;
use buddy_core::{AllocId, BuddyDevice, DeviceError, TargetRatio};
use kit::{entry_of_kind, occupancy, read1, write1, Entry, CONFIG};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline property: full target × target cross product per
    /// content vector.
    #[test]
    fn retarget_is_observation_equivalent(
        kinds in proptest::collection::vec((0u8..8, any::<u64>()), 1..24),
    ) {
        let contents: Vec<Entry> = kinds
            .iter()
            .map(|&(kind, seed)| entry_of_kind(kind, seed))
            .collect();
        let n = contents.len() as u64;

        for old_target in TargetRatio::DESCENDING {
            for new_target in TargetRatio::DESCENDING {
                // Migrated: allocate at the old target, write, migrate.
                let mut migrated = BuddyDevice::new(CONFIG);
                let m = migrated.alloc("x", n, old_target).unwrap();
                migrated.write_entries(m, 0, &contents).unwrap();
                let report = migrated.retarget(m, new_target).unwrap();
                prop_assert_eq!(report.old_target, old_target);
                prop_assert_eq!(report.new_target, new_target);
                prop_assert_eq!(report.entries, n);

                // Direct: allocated at the new target from the start.
                let mut direct = BuddyDevice::new(CONFIG);
                let d = direct.alloc("x", n, new_target).unwrap();
                direct.write_entries(d, 0, &contents).unwrap();

                // Untouched: never migrated off the old target.
                let mut untouched = BuddyDevice::new(CONFIG);
                let u = untouched.alloc("x", n, old_target).unwrap();
                untouched.write_entries(u, 0, &contents).unwrap();

                let combo = format!("{old_target}->{new_target}");

                // (1) Bytes: identical to both references.
                let mut from_migrated = vec![[9u8; ENTRY_BYTES]; contents.len()];
                migrated.read_entries(m, 0, &mut from_migrated).unwrap();
                prop_assert_eq!(&from_migrated, &contents, "{}: bytes", &combo);
                let mut from_untouched = vec![[0u8; ENTRY_BYTES]; contents.len()];
                untouched.read_entries(u, 0, &mut from_untouched).unwrap();
                prop_assert_eq!(&from_migrated, &from_untouched, "{}: vs never-retargeted", &combo);

                // (2) Errors: invalid accesses fail identically.
                prop_assert_eq!(
                    read1(&mut migrated, m, n),
                    read1(&mut direct, d, n),
                    "{}: out-of-range error", &combo
                );
                prop_assert_eq!(
                    migrated.write_entries(m, n, &[contents[0]]),
                    direct.write_entries(d, n, &[contents[0]]),
                    "{}: out-of-range batch error", &combo
                );
                let foreign = foreign_handle();
                prop_assert_eq!(
                    read1(&mut migrated, foreign, 0),
                    read1(&mut direct, foreign, 0),
                    "{}: bad-handle error", &combo
                );
                prop_assert_eq!(
                    migrated.retarget(foreign, new_target),
                    Err(DeviceError::BadAllocation),
                    "{}: bad-handle retarget", &combo
                );

                // (3) Metadata states and occupancy match the
                // directly-allocated device exactly.
                for i in 0..n {
                    prop_assert_eq!(
                        migrated.handle().entry_state(m, i).unwrap(),
                        direct.handle().entry_state(d, i).unwrap(),
                        "{}: state of entry {}", &combo, i
                    );
                }
                prop_assert_eq!(occupancy(&migrated), occupancy(&direct), "{}: occupancy", &combo);

                // (4) Read-side traffic: after a stats reset, a full
                // read pass produces identical counters.
                migrated.reset_stats();
                direct.reset_stats();
                let mut sink = vec![[0u8; ENTRY_BYTES]; contents.len()];
                migrated.read_entries(m, 0, &mut sink).unwrap();
                let migrated_reads = migrated.stats();
                direct.read_entries(d, 0, &mut sink).unwrap();
                prop_assert_eq!(migrated_reads, direct.stats(), "{}: read stats", &combo);

                // (5) State windows agree, so the adaptive policy sees
                // the same allocation either way.
                prop_assert_eq!(
                    migrated.handle().state_window(m).unwrap(),
                    direct.handle().state_window(d).unwrap(),
                    "{}: state window", &combo
                );
            }
        }
    }

    /// Chained migrations through a random walk of targets land in exactly
    /// the state of a single direct allocation at the final target.
    #[test]
    fn chained_retargets_collapse_to_the_last_target(
        kinds in proptest::collection::vec((0u8..8, any::<u64>()), 1..16),
        walk in proptest::collection::vec(0usize..5, 1..6),
    ) {
        let contents: Vec<Entry> = kinds
            .iter()
            .map(|&(kind, seed)| entry_of_kind(kind, seed))
            .collect();
        let n = contents.len() as u64;

        let mut migrated = BuddyDevice::new(CONFIG);
        let m = migrated.alloc("walk", n, TargetRatio::R1).unwrap();
        migrated.write_entries(m, 0, &contents).unwrap();
        let mut last = TargetRatio::R1;
        for &step in &walk {
            last = TargetRatio::DESCENDING[step];
            migrated.retarget(m, last).unwrap();
        }

        let mut direct = BuddyDevice::new(CONFIG);
        let d = direct.alloc("walk", n, last).unwrap();
        direct.write_entries(d, 0, &contents).unwrap();

        let mut out = vec![[0u8; ENTRY_BYTES]; contents.len()];
        migrated.read_entries(m, 0, &mut out).unwrap();
        prop_assert_eq!(&out, &contents);
        prop_assert_eq!(occupancy(&migrated), occupancy(&direct));
        for i in 0..n {
            prop_assert_eq!(
                migrated.handle().entry_state(m, i).unwrap(),
                direct.handle().entry_state(d, i).unwrap()
            );
        }
    }

    /// Writes landing *after* a migration behave exactly as on a direct
    /// device: same states, same counters, same read-back — migration
    /// leaves no residue that could skew later traffic.
    #[test]
    fn post_retarget_writes_are_indistinguishable(
        before in proptest::collection::vec((0u8..8, any::<u64>()), 1..12),
        after in proptest::collection::vec((0u64..12, 0u8..8, any::<u64>()), 1..12),
        old_idx in 0usize..5,
        new_idx in 0usize..5,
    ) {
        let old_target = TargetRatio::DESCENDING[old_idx];
        let new_target = TargetRatio::DESCENDING[new_idx];
        let n = 12u64;

        let initial: Vec<Entry> = (0..n as usize)
            .map(|i| {
                let (kind, seed) = before[i % before.len()];
                entry_of_kind(kind, seed)
            })
            .collect();

        let mut migrated = BuddyDevice::new(CONFIG);
        let m = migrated.alloc("w", n, old_target).unwrap();
        migrated.write_entries(m, 0, &initial).unwrap();
        migrated.retarget(m, new_target).unwrap();

        let mut direct = BuddyDevice::new(CONFIG);
        let d = direct.alloc("w", n, new_target).unwrap();
        direct.write_entries(d, 0, &initial).unwrap();

        migrated.reset_stats();
        direct.reset_stats();
        for &(index, kind, seed) in &after {
            let entry = entry_of_kind(kind, seed);
            prop_assert_eq!(
                write1(&mut migrated, m, index, &entry),
                write1(&mut direct, d, index, &entry)
            );
        }
        prop_assert_eq!(migrated.stats(), direct.stats());
        for i in 0..n {
            prop_assert_eq!(
                read1(&mut migrated, m, i).unwrap(),
                read1(&mut direct, d, i).unwrap(),
                "entry {} after post-migration writes", i
            );
        }
    }
}

/// A handle no single-allocation device in this suite recognizes:
/// `AllocId` has no public constructor, so mint index 7 on a throwaway
/// device with eight allocations.
fn foreign_handle() -> AllocId {
    let mut scratch = BuddyDevice::new(CONFIG);
    let mut last = None;
    for i in 0..8 {
        last = Some(scratch.alloc(&format!("f{i}"), 1, TargetRatio::R1).unwrap());
    }
    last.unwrap()
}
