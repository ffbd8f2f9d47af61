//! How a device's two arrays are backed by memory, read from the process's
//! resident set. The device array is written at construction, so no page
//! fault lands on a device access. The buddy carve-out is zero pages that
//! the OS backs on the first write into each, so a carve-out that only a
//! few overflowing entries write costs a few pages, whatever its size.
//!
//! The carve-out policy holds only while the optimiser deletes the in-place
//! collect that builds the array, which debug builds never do, and the
//! resident set is a Linux `/proc` reading. So the test runs only in
//! release builds on Linux, in this file's own process so that no other
//! test's memory moves the reading. It counts 4 KiB pages, so it expects
//! transparent huge pages off or `madvise` (the usual default), not
//! `always`.

#[cfg(all(target_os = "linux", not(debug_assertions)))]
use buddy_core::{BuddyDevice, DeviceConfig, TargetRatio};

/// The process's resident set in bytes: the `Rss:` line of
/// `/proc/self/smaps_rollup`. That sum walks the page tables, so it is
/// exact; `VmRSS` in `/proc/self/status` comes from per-CPU counters that
/// older kernels read up to a few hundred KiB short.
#[cfg(all(target_os = "linux", not(debug_assertions)))]
fn resident_bytes() -> u64 {
    let rollup = std::fs::read_to_string("/proc/self/smaps_rollup").expect("smaps_rollup");
    let kib = rollup
        .lines()
        .find_map(|line| line.strip_prefix("Rss:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse::<u64>().ok())
        .expect("an Rss line in kB");
    kib << 10
}

/// A 1 MiB device with a 1 GiB carve-out costs its device array and under
/// 4 MiB more. Five entries that overflow into the carve-out then back a
/// few pages under their buddy slots, and reading every entry back, buddy
/// slots included, backs nothing more.
#[cfg(all(target_os = "linux", not(debug_assertions)))]
#[test]
fn the_device_array_is_backed_up_front_and_the_carve_out_on_write() {
    const DEVICE: u64 = 1 << 20;
    const PAGE: u64 = 4096;
    let mut lcg = 11u64;
    let mut random = || {
        let mut entry = [0u8; bpc::ENTRY_BYTES];
        for word in entry.chunks_exact_mut(4) {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
            word.copy_from_slice(&((lcg >> 32) as u32).to_le_bytes());
        }
        entry
    };
    let entries: Vec<_> = (0..5).map(|_| random()).collect();
    // Not zeros: a zeroed buffer would be fresh pages that the reads back.
    let mut out = vec![[0xA5u8; bpc::ENTRY_BYTES]; 1024];

    let empty = resident_bytes();
    let mut dev = BuddyDevice::new(DeviceConfig {
        device_capacity: DEVICE,
        carve_out_factor: 1024,
    });
    assert_eq!(dev.config().buddy_capacity(), Some(1 << 30));
    let built = resident_bytes();
    let grown = built - empty;
    assert!(grown >= DEVICE, "the device array is backed: +{grown} B");
    assert!(
        grown < DEVICE + (4 << 20),
        "the carve-out is not: +{grown} B"
    );

    // `R4` first, so its 96 B buddy slots start at offset 0 and entry 42's
    // straddles a page; the `ZeroPage16` slots start 24 pages in.
    let r4 = dev.alloc("r4", 1024, TargetRatio::R4).unwrap();
    let zp = dev.alloc("zp", 1024, TargetRatio::ZeroPage16).unwrap();
    let writes = [(r4, 3), (r4, 42), (r4, 900), (zp, 0), (zp, 517)];
    let mut under_slots = std::collections::BTreeSet::new();
    for ((id, index), entry) in writes.into_iter().zip(&entries) {
        dev.write_entries(id, index, std::slice::from_ref(entry))
            .unwrap();
        let state = dev.handle().entry_state(id, index).unwrap();
        let (_, target, _) = dev.allocation_info(id).unwrap();
        let len = u64::from(state.buddy_sectors(target)) * bpc::SECTOR_BYTES as u64;
        assert!(len > 0, "{state:?} overflows {target}");
        let (_, (off, _)) = dev.storage_ranges(id, index).unwrap();
        under_slots.extend(off / PAGE..=(off + len - 1) / PAGE);
    }
    assert_eq!(under_slots.len(), 5, "{under_slots:?}");
    dev.read_entries(r4, 0, &mut out).unwrap();
    dev.read_entries(zp, 0, &mut out).unwrap();
    let written = resident_bytes() - built;
    assert!(
        written < 32 * PAGE,
        "5 pages under buddy slots, and a few more: +{written} B"
    );
}
