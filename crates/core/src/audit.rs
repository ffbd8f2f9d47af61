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
#[derive(Debug, Clone, Default)]
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

    /// Number of live reservations.
    pub fn len(&self) -> usize {
        self.reservations.len()
    }

    /// True when nothing is reserved.
    pub fn is_empty(&self) -> bool {
        self.reservations.is_empty()
    }

    /// True when `[base, base+len)` is exactly a live reservation.
    pub fn is_live(&self, base: u64, len: u64) -> bool {
        len > 0 && self.reservations.get(&base) == Some(&len)
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

    /// Number of live allocations the shadow believes exist.
    pub fn live_count(&self) -> usize {
        self.live.len()
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
        let Some(alloc) = self.live.remove(&slot) else {
            panic!("free of slot {slot} which the shadow does not hold live"); // lint-allow(no-unwrap): the auditor's whole job is to abort on divergence
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
        let Some(old) = self.live.get(&slot).copied() else {
            // lint-allow(no-unwrap): the auditor's whole job is to abort on divergence
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

impl Default for DeviceAuditor {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(shadow.is_live(bases[0], 100));
        assert!(!shadow.is_live(bases[1], 200));
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
        assert_eq!(auditor.live_count(), 1);
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
}
