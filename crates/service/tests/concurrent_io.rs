//! Entry I/O against structural churn, through the service.
//!
//! `read_entries` / `write_entries` resolve the handle, call the pool and
//! fold the batch's traffic into the tenant's counters under one shared
//! read lock, while `alloc` / `free` / `retarget` / `transfer` hold the
//! write lock across their own pool call. Both paths then take the pool's
//! slot lock, so the lock order is service lock → slot lock everywhere.
//! This suite runs both sides at once: one thread issues 1-entry and
//! 32-entry reads and writes on its own allocation and checks every byte
//! it reads back, another allocates, writes, retargets, transfers and frees
//! other allocations of the same tenant and of a second one. Both must
//! finish under a timeout (no deadlock), and afterwards the tenants'
//! traffic must sum to the pool's exactly — attribution loses nothing and
//! counts nothing twice.
#![expect(
    clippy::disallowed_types,
    reason = "the deadlock timeout reads the wall clock"
)]

use buddy_service::{
    AccessStats, AdmissionPolicy, BuddyService, DeviceConfig, Entry, PoolConfig, TargetRatio,
    ENTRY_BYTES,
};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const ROUNDS: u64 = 2_000;
const TIMEOUT: Duration = Duration::from_secs(120);
const IO_ENTRIES: u64 = 64;
const BATCH: u64 = 32;

/// Mostly-zero data with constants and noise mixed in, so writes take the
/// zero, compressed and raw paths.
fn entry(seed: u64) -> Entry {
    let mut e = [0u8; ENTRY_BYTES];
    match seed % 4 {
        0 | 1 => {}
        2 => {
            for c in e.chunks_exact_mut(4) {
                c.copy_from_slice(&(seed as u32).to_le_bytes());
            }
        }
        _ => {
            let mut x = seed | 1;
            for b in e.iter_mut() {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *b = (x >> 56) as u8;
            }
        }
    }
    e
}

#[test]
fn io_and_structural_ops_neither_deadlock_nor_lose_traffic() {
    let service = Arc::new(BuddyService::new(PoolConfig {
        shards: 2,
        shard_config: DeviceConfig {
            device_capacity: 1 << 20,
            carve_out_factor: 3,
        },
        ..PoolConfig::default()
    }));
    let a = service
        .register_tenant("a", u64::MAX, AdmissionPolicy::Reject)
        .unwrap();
    let b = service
        .register_tenant("b", u64::MAX, AdmissionPolicy::Reject)
        .unwrap();
    let io_id = service
        .alloc(a, "io", IO_ENTRIES, TargetRatio::R2)
        .unwrap()
        .id;

    // Both threads start their loops together, so the churn overlaps the
    // I/O from the first round.
    let go = Arc::new(Barrier::new(2));
    let io = {
        let (service, go) = (Arc::clone(&service), Arc::clone(&go));
        std::thread::spawn(move || {
            go.wait();
            let mut model = vec![[0u8; ENTRY_BYTES]; IO_ENTRIES as usize];
            for round in 0..ROUNDS {
                let one = round % IO_ENTRIES;
                model[one as usize] = entry(round);
                service
                    .write_entries(a, io_id, one, &model[one as usize..=one as usize])
                    .unwrap();
                let mut out = [[0u8; ENTRY_BYTES]; 1];
                service.read_entries(a, io_id, one, &mut out).unwrap();
                assert_eq!(out[0], model[one as usize], "round {round}: 1-entry read");

                let start = round % (IO_ENTRIES - BATCH + 1);
                let range = start as usize..(start + BATCH) as usize;
                for (i, slot) in model[range.clone()].iter_mut().enumerate() {
                    *slot = entry(round * BATCH + i as u64);
                }
                service
                    .write_entries(a, io_id, start, &model[range.clone()])
                    .unwrap();
                let mut out = vec![[0u8; ENTRY_BYTES]; BATCH as usize];
                service.read_entries(a, io_id, start, &mut out).unwrap();
                assert!(out == model[range], "round {round}: 32-entry read");
            }
        })
    };

    let structural = {
        let (service, go) = (Arc::clone(&service), Arc::clone(&go));
        std::thread::spawn(move || {
            go.wait();
            let mut live = std::collections::VecDeque::new();
            for round in 0..ROUNDS {
                let (owner, other) = if round % 2 == 0 { (a, b) } else { (b, a) };
                let entries = 4 + round % 29;
                let name = format!("churn-{round}");
                let id = service
                    .alloc(owner, &name, entries, TargetRatio::R2)
                    .unwrap()
                    .id;
                // A little data, so the retarget below moves sectors.
                let data: Vec<Entry> = (0..4).map(|i| entry(round + i)).collect();
                service.write_entries(owner, id, 0, &data).unwrap();
                let target = [TargetRatio::R4, TargetRatio::R1][(round / 2 % 2) as usize];
                service.retarget(owner, id, target).unwrap();
                let id = service.transfer(owner, id, other).unwrap();
                live.push_back((other, id));
                if live.len() > 4 {
                    let (owner, id) = live.pop_front().unwrap();
                    service.free(owner, id).unwrap();
                }
            }
            for (owner, id) in live {
                service.free(owner, id).unwrap();
            }
        })
    };

    let deadline = Instant::now() + TIMEOUT;
    while !(io.is_finished() && structural.is_finished()) {
        assert!(
            Instant::now() < deadline,
            "I/O and structural threads still running after {TIMEOUT:?}: deadlock"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    io.join().unwrap();
    structural.join().unwrap();

    let mut tenants = AccessStats::default();
    for tenant in [a, b] {
        tenants.merge(&service.tenant(tenant).unwrap().stats);
    }
    let pool = service.pool().drain();
    assert_eq!(tenants, pool, "tenant traffic must sum to the pool's");
    assert_eq!(pool.retargets, ROUNDS);
    assert!(pool.moved_sectors > 0);
}
