//! Shadow-state auditing (every debug build): an independent mirror of the
//! device's reservation bookkeeping that re-validates structural invariants
//! after every mutating operation.
//!
//! The auditor never trusts the [`RegionAllocator`]s it audits: it keeps its
//! own `(base, len)` map per region, fed only by the *requests* the device
//! makes (alloc / free / retarget), and after each mutation checks that the
//! allocator's view of the world and the shadow's agree exactly. Metadata
//! has no allocator to mirror — nibble indices are derived from device
//! addresses — so its map holds the derived ranges and checks only that no
//! two live allocations' nibbles overlap, independently of the device map:
//!
//! * **No overlapping reservations** — shadow reservations and the
//!   allocator's free runs must tile `[0, capacity)` with no gap and no
//!   overlap (which also proves `used()` conservation: bytes reserved ==
//!   bytes the allocator believes are in use).
//! * **Canonical free lists** — free runs sorted, non-empty, disjoint and
//!   eagerly coalesced (no two adjacent runs).
//! * **Generation monotonicity** — a slot's generation never goes
//!   backwards, and every free bumps it by exactly one, so a stale
//!   [`AllocId`](crate::AllocId) can never re-validate.
//!
//! Every violation aborts with an assertion naming the region and the
//! offending ranges — the point is to catch a future lock-free or
//! allocator refactor corrupting state *at the mutation that corrupts it*,
//! not at the far-away read that observes it. It is compiled in wherever
//! `debug_assertions` are — so every debug `cargo test` runs audited — and
//! compiled out entirely in release builds.

use crate::region::RegionAllocator;
use crate::target::TargetRatio;
use std::collections::BTreeMap;

/// The auditor's record of one live allocation, mirrored from the alloc
/// request (not read back from the device).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShadowAlloc {
    /// Generation of the handle that owns the slot.
    pub generation: u64,
    /// Target ratio the allocation currently holds.
    pub target: TargetRatio,
    /// Entry count.
    pub entries: u64,
    /// Byte offset in device memory.
    pub device_base: u64,
    /// Byte offset in the buddy carve-out.
    pub buddy_base: u64,
}

impl ShadowAlloc {
    fn device_len(&self) -> u64 {
        self.entries * self.target.device_bytes_per_entry() as u64
    }

    fn buddy_len(&self) -> u64 {
        self.entries * self.target.buddy_bytes_per_entry() as u64
    }

    /// First nibble index of the allocation, derived from its device base
    /// the way the device derives it.
    fn first_nibble(&self) -> u64 {
        self.device_base / TargetRatio::MIN_DEVICE_BYTES_PER_ENTRY
    }
}

/// An independent mirror of one [`RegionAllocator`]'s reservations.
#[derive(Debug, Clone)]
pub struct ShadowRegion {
    /// Region name used in violation messages.
    label: &'static str,
    /// Live reservations, `base -> len`. Zero-length reservations are not
    /// recorded (the allocator hands them offset 0 without reserving).
    reservations: BTreeMap<u64, u64>,
}

impl ShadowRegion {
    /// An empty mirror for the region called `label` in messages.
    pub fn new(label: &'static str) -> Self {
        Self {
            label,
            reservations: BTreeMap::new(),
        }
    }

    /// Records a reservation, asserting it overlaps no existing one.
    pub fn reserve(&mut self, base: u64, len: u64) {
        if len == 0 {
            return;
        }
        if let Some((&prev_base, &prev_len)) = self.reservations.range(..=base).next_back() {
            assert!(
                prev_base + prev_len <= base,
                "{}: new reservation [{base}, +{len}) overlaps live [{prev_base}, +{prev_len})",
                self.label
            );
        }
        if let Some((&next_base, &next_len)) = self.reservations.range(base..).next() {
            assert!(
                base + len <= next_base,
                "{}: new reservation [{base}, +{len}) overlaps live [{next_base}, +{next_len})",
                self.label
            );
        }
        self.reservations.insert(base, len);
    }

    /// Releases a reservation, asserting it matches a live one exactly —
    /// this is the double-free / partial-free detector that does not rely
    /// on the allocator's own panics.
    pub fn release(&mut self, base: u64, len: u64) {
        if len == 0 {
            return;
        }
        let live = self.reservations.get(&base).copied();
        assert_eq!(
            live,
            Some(len),
            "{}: release of [{base}, +{len}) does not match a live reservation \
             (shadow holds {live:?} at this base) — double free or corrupted handle",
            self.label
        );
        self.reservations.remove(&base);
    }

    /// Validates the mirrored reservations against the real allocator:
    /// canonical free list, exact tiling of `[0, capacity)`, and `used()`
    /// conservation.
    pub fn validate(&self, region: &RegionAllocator) {
        let label = self.label;
        let free = region.free_runs();
        let mut prev_end: Option<u64> = None;
        for &(offset, len) in &free {
            assert!(len > 0, "{label}: empty free run at {offset}");
            assert!(
                offset
                    .checked_add(len)
                    .is_some_and(|e| e <= region.capacity()),
                "{label}: free run [{offset}, +{len}) past capacity {}",
                region.capacity()
            );
            if let Some(end) = prev_end {
                assert!(
                    end < offset,
                    "{label}: free list not sorted/coalesced around offset {offset} \
                     (previous run ends at {end})"
                );
            }
            prev_end = Some(offset + len);
        }

        // Merge-walk reservations and free runs: together they must tile
        // [0, capacity) exactly — no gap (a leak: bytes neither live nor
        // free) and no overlap (corruption: bytes both live and free).
        let mut intervals: Vec<(u64, u64, &'static str)> = free
            .iter()
            .map(|&(offset, len)| (offset, len, "free"))
            .chain(
                self.reservations
                    .iter()
                    .map(|(&base, &len)| (base, len, "live")),
            )
            .collect();
        intervals.sort_unstable();
        let mut cursor = 0u64;
        for &(offset, len, kind) in &intervals {
            assert_eq!(
                offset, cursor,
                "{label}: {kind} run [{offset}, +{len}) does not start at the tiling \
                 cursor {cursor} — a gap means leaked units, an overlap means a \
                 reservation and a free run share bytes"
            );
            cursor += len;
        }
        assert_eq!(
            cursor,
            region.capacity(),
            "{label}: reservations + free runs cover {cursor} of {} capacity units",
            region.capacity()
        );

        let shadow_used: u64 = self.reservations.values().sum();
        assert_eq!(
            shadow_used,
            region.used(),
            "{label}: allocator reports {} units used but the shadow holds {shadow_used}",
            region.used()
        );
    }
}

/// The device-level auditor: one [`ShadowRegion`] per region allocator, one
/// for the derived metadata ranges, plus the generation mirror. Owned by
/// `BuddyDevice` behind `cfg(debug_assertions)` and fed by hooks in every
/// mutating operation.
#[derive(Debug, Clone)]
pub struct DeviceAuditor {
    device: ShadowRegion,
    buddy: ShadowRegion,
    metadata: ShadowRegion,
    /// Live allocations by slot.
    live: BTreeMap<u32, ShadowAlloc>,
    /// The generation each slot must carry on its *next* allocation: 0 for
    /// never-used slots, `freed + 1` after a free. Never decreases.
    next_generation: BTreeMap<u32, u64>,
}

impl DeviceAuditor {
    /// A fresh auditor for an empty device.
    pub fn new() -> Self {
        Self {
            device: ShadowRegion::new("device region"),
            buddy: ShadowRegion::new("buddy region"),
            metadata: ShadowRegion::new("metadata ranges"),
            live: BTreeMap::new(),
            next_generation: BTreeMap::new(),
        }
    }

    /// Mirrors a successful `alloc`, checking slot reuse discipline and
    /// reservation disjointness.
    pub fn record_alloc(&mut self, slot: u32, alloc: ShadowAlloc) {
        assert!(
            !self.live.contains_key(&slot),
            "slot {slot} allocated while the shadow still holds it live"
        );
        let expected = self.next_generation.get(&slot).copied().unwrap_or(0);
        assert_eq!(
            alloc.generation, expected,
            "slot {slot}: generation must be exactly the post-free successor \
             (expected {expected}, device handed out {})",
            alloc.generation
        );
        self.device.reserve(alloc.device_base, alloc.device_len());
        self.buddy.reserve(alloc.buddy_base, alloc.buddy_len());
        self.metadata.reserve(alloc.first_nibble(), alloc.entries);
        self.live.insert(slot, alloc);
    }

    /// Mirrors a successful `free`, checking the freed ranges match the
    /// live reservation exactly and bumping the generation floor.
    pub fn record_free(&mut self, slot: u32, generation: u64) {
        #[expect(
            clippy::panic,
            reason = "the auditor's whole job is to abort on divergence"
        )]
        let Some(alloc) = self.live.remove(&slot) else {
            panic!("free of slot {slot} which the shadow does not hold live");
        };
        assert_eq!(
            alloc.generation, generation,
            "slot {slot}: freed generation diverges from the shadow"
        );
        self.device.release(alloc.device_base, alloc.device_len());
        self.buddy.release(alloc.buddy_base, alloc.buddy_len());
        self.metadata.release(alloc.first_nibble(), alloc.entries);
        let next = generation.wrapping_add(1);
        if let Some(&floor) = self.next_generation.get(&slot) {
            assert!(
                next >= floor,
                "slot {slot}: generation moved backwards ({next} < {floor})"
            );
        }
        self.next_generation.insert(slot, next);
    }

    /// Mirrors a successful `retarget`: the old device/buddy reservations
    /// and nibble range are swapped for the new ones; the entry count and
    /// the generation are unchanged (migration is not a free).
    pub fn record_retarget(&mut self, slot: u32, updated: ShadowAlloc) {
        #[expect(
            clippy::panic,
            reason = "the auditor's whole job is to abort on divergence"
        )]
        let Some(old) = self.live.get(&slot).copied() else {
            panic!("retarget of slot {slot} which the shadow does not hold live");
        };
        assert_eq!(
            old.generation, updated.generation,
            "slot {slot}: retarget must not change the handle generation"
        );
        assert_eq!(
            old.entries, updated.entries,
            "slot {slot}: retarget must keep the entry count"
        );
        self.device.release(old.device_base, old.device_len());
        self.buddy.release(old.buddy_base, old.buddy_len());
        self.metadata.release(old.first_nibble(), old.entries);
        self.device
            .reserve(updated.device_base, updated.device_len());
        self.buddy.reserve(updated.buddy_base, updated.buddy_len());
        self.metadata
            .reserve(updated.first_nibble(), updated.entries);
        self.live.insert(slot, updated);
    }

    /// Validates both mirrored regions against the real allocators. Called
    /// by the device after each mutating operation. (The metadata ranges
    /// have no allocator to agree with; their overlap check runs in
    /// `reserve`.)
    pub fn validate(&self, device_region: &RegionAllocator, buddy_region: &RegionAllocator) {
        self.device.validate(device_region);
        self.buddy.validate(buddy_region);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    fn shadow_of(region: &mut RegionAllocator, lens: &[u64]) -> (ShadowRegion, Vec<u64>) {
        let mut shadow = ShadowRegion::new("test region");
        let mut bases = Vec::new();
        for &len in lens {
            let base = region.alloc(len).expect("test region sized for the plan");
            shadow.reserve(base, len);
            bases.push(base);
        }
        (shadow, bases)
    }

    #[test]
    fn shadow_agrees_with_a_healthy_allocator() {
        let mut region = RegionAllocator::new(1000);
        let (mut shadow, bases) = shadow_of(&mut region, &[100, 200, 50]);
        shadow.validate(&region);
        region.free(bases[1], 200);
        shadow.release(bases[1], 200);
        shadow.validate(&region);
        assert_eq!(shadow.reservations.get(&bases[0]), Some(&100));
        assert_eq!(shadow.reservations.get(&bases[1]), None);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn shadow_release_catches_double_free_without_allocator_help() {
        let mut shadow = ShadowRegion::new("test region");
        shadow.reserve(0, 10);
        shadow.release(0, 10);
        shadow.release(0, 10);
    }

    #[test]
    #[should_panic(expected = "overlaps live")]
    fn shadow_reserve_catches_overlap() {
        let mut shadow = ShadowRegion::new("test region");
        shadow.reserve(0, 10);
        shadow.reserve(5, 10);
    }

    #[test]
    #[should_panic(expected = "tiling cursor")]
    fn validate_catches_a_leaked_reservation() {
        let mut region = RegionAllocator::new(100);
        let shadow = ShadowRegion::new("test region");
        // The allocator believes 10 units are used, the shadow knows of
        // nothing — bytes neither live nor free from the shadow's view.
        let _ = region.alloc(10);
        shadow.validate(&region);
    }

    #[test]
    fn generations_march_forward() {
        let mut auditor = DeviceAuditor::new();
        let alloc = ShadowAlloc {
            generation: 0,
            target: TargetRatio::R2,
            entries: 4,
            device_base: 0,
            buddy_base: 0,
        };
        auditor.record_alloc(7, alloc);
        auditor.record_free(7, 0);
        // Reuse must come back at generation 1.
        auditor.record_alloc(
            7,
            ShadowAlloc {
                generation: 1,
                ..alloc
            },
        );
        assert_eq!(auditor.live.len(), 1);
    }

    #[test]
    #[should_panic(expected = "post-free successor")]
    fn stale_generation_reuse_is_rejected() {
        let mut auditor = DeviceAuditor::new();
        let alloc = ShadowAlloc {
            generation: 0,
            target: TargetRatio::R1,
            entries: 1,
            device_base: 0,
            buddy_base: 0,
        };
        auditor.record_alloc(3, alloc);
        auditor.record_free(3, 0);
        // Handing out generation 0 again would revive stale handles.
        auditor.record_alloc(3, alloc);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Interleaved first-fit allocations, targeted reservations and frees
        /// keep the allocator and an independent mirror in exact agreement at
        /// every step.
        #[test]
        fn interleaved_ops_stay_canonical(
            seed in any::<u64>(),
            ops in proptest::collection::vec((0u8..3, 1u64..64), 1..80),
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut region = RegionAllocator::new(1 << 12);
            let mut shadow = ShadowRegion::new("adversarial region");
            let mut live: Vec<(u64, u64)> = Vec::new();

            for (op, len) in ops {
                match op {
                    0 => {
                        if let Some(base) = region.alloc(len) {
                            shadow.reserve(base, len);
                            live.push((base, len));
                        }
                    }
                    1 => {
                        // Target a hole deliberately: reserve_at succeeds iff
                        // the exact range is free, and the shadow must agree
                        // about which ranges those are.
                        let offset = rng.gen_range(0..region.capacity());
                        let fits = offset + len <= region.capacity();
                        if region.reserve_at(offset, len) {
                            prop_assert!(fits, "reserve_at accepted an out-of-range request");
                            shadow.reserve(offset, len);
                            live.push((offset, len));
                        } else if fits {
                            // The allocator refused: the shadow must know at
                            // least one live unit inside the range (otherwise
                            // the range was free and the refusal is a bug).
                            let blocked =
                                live.iter().any(|&(b, l)| b < offset + len && offset < b + l);
                            prop_assert!(
                                blocked,
                                "reserve_at refused [{offset}, +{len}) though the mirror \
                                 shows it free"
                            );
                        }
                    }
                    _ => {
                        if !live.is_empty() {
                            let victim = rng.gen_range(0..live.len());
                            let (base, len) = live.swap_remove(victim);
                            shadow.release(base, len);
                            region.free(base, len);
                        }
                    }
                }
                shadow.validate(&region);
            }

            // Tear down in random order: the mirror must end empty and the
            // allocator fully free.
            while !live.is_empty() {
                let victim = rng.gen_range(0..live.len());
                let (base, len) = live.swap_remove(victim);
                shadow.release(base, len);
                region.free(base, len);
                shadow.validate(&region);
            }
            prop_assert!(shadow.reservations.is_empty());
            prop_assert_eq!(region.used(), 0);
        }
    }

    /// The shadow detects a double free by bookkeeping alone, and its verdict
    /// agrees with the allocator's own panic — checked via `catch_unwind` so
    /// neither detector is trusted blindly.
    #[test]
    fn double_free_detected_by_shadow_and_allocator_alike() {
        let mut region = RegionAllocator::new(256);
        let mut shadow = ShadowRegion::new("double-free probe");
        let base = region.alloc(64).expect("fresh region fits 64");
        shadow.reserve(base, 64);
        region.free(base, 64);
        shadow.release(base, 64);
        shadow.validate(&region);

        // The shadow knows the range is dead without poking the allocator.
        assert!(!shadow.reservations.contains_key(&base));

        // Releasing again must abort the shadow...
        let shadow_verdict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut probe = shadow.clone();
            probe.release(base, 64);
        }));
        assert!(shadow_verdict.is_err(), "shadow missed the double free");

        // ...and the allocator independently panics on the same mistake.
        let allocator_verdict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            region.free(base, 64);
        }));
        assert!(
            allocator_verdict.is_err(),
            "allocator missed the double free"
        );
    }

    /// A partial free (right length, wrong base — or right base, wrong length)
    /// is caught by the shadow's exact-match rule.
    #[test]
    fn misaligned_free_is_rejected() {
        let mut shadow = ShadowRegion::new("misaligned-free probe");
        shadow.reserve(128, 64);
        for (base, len) in [(128u64, 32u64), (160, 32), (96, 64)] {
            let verdict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut probe = shadow.clone();
                probe.release(base, len);
            }));
            assert!(
                verdict.is_err(),
                "shadow accepted a release of [{base}, +{len}) against live [128, +64)"
            );
        }
    }
}
