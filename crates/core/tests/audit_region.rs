//! A device churn storm: alloc/free/retarget on a tight device, through the
//! public API only.
//!
//! In debug builds every mutation runs under the shadow-state auditor
//! (`core::audit`), which revalidates both regions, and that no two
//! allocations' derived nibble ranges overlap, after each step; release
//! builds run the same storm unaudited and check that teardown returns
//! every byte. The auditor's own region suite (interleaved
//! `alloc`/`reserve_at`/`free` against the mirror, double and misaligned
//! frees) is in `audit.rs`'s unit tests, since the region allocator is
//! private to the crate.

use buddy_core::{BuddyDevice, DeviceConfig, TargetRatio};
use proptest::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};

const CONFIG: DeviceConfig = DeviceConfig {
    device_capacity: 1 << 18,
    carve_out_factor: 3,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

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
