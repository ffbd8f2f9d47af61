//! Adversarial [`RegionAllocator`] exercises, checked through the
//! shadow-state auditor instead of the allocator's own assertions.
//!
//! The churn suite pins leak-freedom from the allocator's *public
//! counters*; these tests attack the allocator with interleaved
//! `alloc` / `reserve_at` / `free` sequences while a
//! [`ShadowRegion`] mirrors every request, and after each step the mirror
//! revalidates the free list from the outside: canonical coalescing, exact
//! tiling of `[0, capacity)`, and `used()` conservation. Double frees are
//! detected by the shadow's own bookkeeping — the allocator's panic is
//! only cross-checked, never relied on.
//!
//! Device-level adversaries run through [`BuddyDevice`] with the auditor
//! hooks active (every debug build): alloc/free/retarget storms where
//! the auditor validates both regions, and that no two allocations' derived
//! nibble ranges overlap, after every mutation.
//!
//! The shadow-state auditor exists only in debug builds, so every item
//! below is `cfg(debug_assertions)`: a release build of this file is an
//! empty, documented test crate.

#[cfg(debug_assertions)]
use buddy_core::{audit::ShadowRegion, BuddyDevice, DeviceConfig, RegionAllocator, TargetRatio};
#[cfg(debug_assertions)]
use proptest::prelude::*;
#[cfg(debug_assertions)]
use rand::{rngs::SmallRng, Rng, SeedableRng};

#[cfg(debug_assertions)]
const CONFIG: DeviceConfig = DeviceConfig {
    device_capacity: 1 << 18,
    carve_out_factor: 3,
};

#[cfg(debug_assertions)]
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
                        let blocked = live.iter().any(|&(b, l)| b < offset + len && offset < b + l);
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
        prop_assert!(shadow.is_empty());
        prop_assert_eq!(region.used(), 0);
    }

    /// Alloc/free/retarget storms on a full device: the auditor hooks
    /// revalidate both regions after every mutation, so a divergence
    /// aborts the test at the operation that caused it.
    #[test]
    fn device_churn_under_audit(
        seed in any::<u64>(),
        rounds in 20usize..120,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut device = BuddyDevice::new(CONFIG);
        let mut handles = Vec::new();
        for round in 0..rounds {
            match rng.gen_range(0u8..4) {
                0 | 1 => {
                    let entries = rng.gen_range(1u64..64);
                    let target = TargetRatio::DESCENDING[rng.gen_range(0usize..5)];
                    if let Ok(id) = device.alloc(&format!("r{round}"), entries, target) {
                        handles.push(id);
                    }
                }
                2 => {
                    if !handles.is_empty() {
                        let id = handles.swap_remove(rng.gen_range(0..handles.len()));
                        device.free(id).expect("live handle frees cleanly");
                    }
                }
                _ => {
                    if !handles.is_empty() {
                        let id = handles[rng.gen_range(0..handles.len())];
                        let target = TargetRatio::DESCENDING[rng.gen_range(0usize..5)];
                        // Tight devices may legitimately refuse; the hook
                        // still validated the rollback path.
                        let _ = device.retarget(id, target);
                    }
                }
            }
        }
        for id in handles {
            device.free(id).expect("teardown frees cleanly");
        }
        assert_eq!(device.device_used(), 0);
        assert_eq!(device.buddy_used(), 0);
    }
}

/// The shadow detects a double free by bookkeeping alone, and its verdict
/// agrees with the allocator's own panic — checked via `catch_unwind` so
/// neither detector is trusted blindly.
#[cfg(debug_assertions)]
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
    assert!(!shadow.is_live(base, 64));

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
#[cfg(debug_assertions)]
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
