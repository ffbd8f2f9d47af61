//! Online re-targeting on one allocation: a profiling-time target goes
//! stale as the data drifts, the adaptive policy notices from live
//! metadata, and [`BuddyDevice::retarget`] migrates the allocation without
//! changing a single observable byte.
//!
//! Run with `cargo run --example adaptive_retarget`.

use buddy_compression::bpc::SizeClass;
use buddy_compression::buddy_core::{BuddyDevice, DeviceConfig, ProfileConfig, TargetRatio};
use buddy_compression::workloads::entry_gen::{mix, EntryClass};

const ENTRIES: u64 = 4096;

fn main() {
    let mut dev = BuddyDevice::new(DeviceConfig {
        device_capacity: 1 << 20,
        carve_out_factor: 3,
    });

    // Profiling saw highly compressible early-run data: 4x it is.
    let alloc = dev
        .alloc("activations", ENTRIES, TargetRatio::R4)
        .expect("device sized for the allocation");
    let ramp = EntryClass::for_target(SizeClass::B8);
    let early: Vec<_> = (0..ENTRIES).map(|i| ramp.generate(mix(&[1, i]))).collect();
    dev.write_entries(alloc, 0, &early).expect("in-range write");
    println!(
        "allocated {ENTRIES} entries at 4x; early data overflows {:.1}% of entries",
        100.0 * TargetRatio::R4.overflow_fraction(&dev.handle().state_window(alloc).unwrap())
    );

    // Training drifts: 60% of the entries now need two sectors.
    let dense = EntryClass::for_target(SizeClass::B64);
    let late: Vec<_> = (0..ENTRIES)
        .map(|i| {
            if i % 5 < 3 {
                dense.generate(mix(&[2, i]))
            } else {
                early[i as usize]
            }
        })
        .collect();
    dev.write_entries(alloc, 0, &late).expect("in-range write");

    // The profiler's admission rule, run online over the live 4-bit
    // metadata — no profiling rerun — recommends a demotion.
    let window = dev.handle().state_window(alloc).unwrap();
    let next = ProfileConfig::default()
        .recommend(TargetRatio::R4, &window)
        .expect("drifted data demands a demotion");
    println!(
        "policy recommends {next} (observed 4x overflow now {:.1}%)",
        100.0 * TargetRatio::R4.overflow_fraction(&window)
    );

    let report = dev.retarget(alloc, next).expect("capacity for demotion");
    println!(
        "retargeted {} -> {}: {} entries re-encoded, {} sectors moved, device {:+} B",
        report.old_target,
        report.new_target,
        report.entries,
        report.moved_sectors,
        report.device_bytes_delta
    );

    // Migration is invisible to readers: every byte survives.
    dev.reset_stats();
    let mut out = vec![[0u8; 128]; ENTRIES as usize];
    dev.read_entries(alloc, 0, &mut out).expect("in-range read");
    let intact = out.iter().zip(late.iter()).filter(|(a, b)| a == b).count();
    println!("read-back verified: {intact}/{ENTRIES} entries byte-identical");
    println!(
        "effective ratio {:.2}x, buddy fraction of the read pass {:.1}%",
        dev.effective_ratio(),
        100.0 * dev.stats().buddy_access_fraction()
    );
}
