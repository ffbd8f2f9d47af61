//! The allocation lifecycle under churn: a DL-training-style working set
//! allocates and frees activations every iteration, the device's free-list
//! allocator reuses and coalesces the holes, and generational ids keep
//! stale handles from ever aliasing the recycled space.
//!
//! Run with `cargo run --example churn_lifecycle`.

use buddy_compression::buddy_core::{BuddyDevice, DeviceConfig, DeviceError, TargetRatio};
use buddy_compression::workloads::{ChurnConfig, ChurnOp, ChurnTrace, Lifetime};
use std::collections::HashMap;

fn main() {
    let mut dev = BuddyDevice::new(DeviceConfig {
        device_capacity: 1 << 20,
        carve_out_factor: 3,
    });

    // Eight iterations of a 12-layer DL training loop: forward-pass
    // allocations, backward-pass frees (LIFO), per-layer sizes stable.
    let trace = ChurnTrace::new(ChurnConfig {
        live_target: 12,
        min_entries: 64,
        max_entries: 512,
        lifetime: Lifetime::Iteration { layers: 12 },
        seed: 42,
    });
    let mut handles = HashMap::new();
    let mut peak_used = 0u64;
    let mut allocs = 0u64;
    for op in trace.take(8 * 24) {
        match op {
            ChurnOp::Alloc { key, entries } => {
                let id = dev
                    .alloc(&format!("act{key}"), entries, TargetRatio::R2)
                    .expect("working set fits");
                dev.write_entries(id, 0, &[[key as u8 + 1; 128]])
                    .expect("in range");
                handles.insert(key, id);
                allocs += 1;
                peak_used = peak_used.max(dev.device_used());
            }
            ChurnOp::Free { key } => {
                let id = handles.remove(&key).expect("allocated this iteration");
                dev.free(id).expect("live handle");
            }
        }
    }
    println!(
        "churned {allocs} activation allocations over 8 iterations; peak device use {} KiB",
        peak_used >> 10
    );
    println!(
        "after the final backward pass: {} B used, fragmentation {:.1}%, largest free region {} KiB",
        dev.device_used(),
        100.0 * dev.fragmentation(),
        dev.largest_free_region() >> 10
    );
    assert_eq!(dev.device_used(), 0, "leak-free by construction");

    // Stale handles are generational: freed ids stay dead forever, even
    // after their slots and bytes are recycled by new allocations.
    let a = dev.alloc("scratch", 256, TargetRatio::R4).expect("fits");
    dev.free(a).expect("live handle");
    let b = dev.alloc("recycled", 256, TargetRatio::R4).expect("fits");
    assert_eq!(
        dev.read_entries(a, 0, &mut [[0u8; 128]]),
        Err(DeviceError::BadAllocation)
    );
    println!("stale handle after free + slot reuse: BadAllocation (generational ids)");

    // The whole arena is still allocatable in one piece after churn.
    dev.free(b).expect("live handle");
    let entries = dev.config().device_capacity / 128;
    dev.alloc("everything", entries, TargetRatio::R1)
        .expect("coalesced free space hosts a full-capacity allocation");
    println!(
        "full-capacity allocation of {entries} entries succeeded after churn \
         (free space fully coalesced)"
    );
}
