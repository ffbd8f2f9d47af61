//! A one-shard [`BuddyPool`] must be observably identical to a bare
//! [`BuddyDevice`]: same bytes on every read, same error on every invalid
//! access, same traffic counters and occupancy after any operation
//! sequence. This is the pool's correctness anchor — sharding and locking
//! may only ever *distribute* the device semantics, never change them.

use buddy_core::AllocId;
use buddy_pool::{
    AccessStats, BuddyDevice, BuddyPool, DeviceConfig, DeviceError, Entry, EntryState, PoolAllocId,
    PoolConfig, ShardOccupancy, TargetRatio, ENTRY_BYTES,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use workloads::{AccessProfile, TraceGenerator};

const SHARD_CONFIG: DeviceConfig = DeviceConfig {
    device_capacity: 1 << 20,
    carve_out_factor: 3,
};

fn pair() -> (BuddyPool, BuddyDevice) {
    let pool = BuddyPool::new(PoolConfig {
        shards: 1,
        shard_config: SHARD_CONFIG,
        ..PoolConfig::default()
    });
    (pool, BuddyDevice::new(SHARD_CONFIG))
}

/// The occupancy row a one-shard pool must report, read off the bare device.
fn occupancy_of(device: &BuddyDevice) -> ShardOccupancy {
    ShardOccupancy {
        shard: 0,
        allocations: device.allocation_count(),
        device_used: device.device_used(),
        device_capacity: device.config().device_capacity,
        buddy_used: device.buddy_used(),
        logical_bytes: device.logical_bytes(),
        effective_ratio: device.effective_ratio(),
        device_free: device.device_free(),
        largest_free_region: device.largest_free_region(),
        fragmentation: device.fragmentation(),
        stats: device.stats(),
    }
}

/// Single-entry pool write as a batch of one, returning the recorded state.
fn pool_write1(
    pool: &BuddyPool,
    id: PoolAllocId,
    index: u64,
    entry: &Entry,
) -> Result<EntryState, DeviceError> {
    pool.write_entries(id, index, std::slice::from_ref(entry))?;
    pool.entry_state(id, index)
}

/// Single-entry pool read as a batch of one.
fn pool_read1(pool: &BuddyPool, id: PoolAllocId, index: u64) -> Result<Entry, DeviceError> {
    let mut out = [[0u8; ENTRY_BYTES]];
    pool.read_entries(id, index, &mut out)?;
    Ok(out[0])
}

/// [`pool_write1`] on the bare reference device.
fn dev_write1(
    device: &mut BuddyDevice,
    id: AllocId,
    index: u64,
    entry: &Entry,
) -> Result<EntryState, DeviceError> {
    device.write_entries(id, index, std::slice::from_ref(entry))?;
    device.handle().entry_state(id, index)
}

/// [`pool_read1`] on the bare reference device.
fn dev_read1(device: &mut BuddyDevice, id: AllocId, index: u64) -> Result<Entry, DeviceError> {
    let mut out = [[0u8; ENTRY_BYTES]];
    device.read_entries(id, index, &mut out)?;
    Ok(out[0])
}

/// Entries spanning the compressibility spectrum, like the core tests use.
fn entry_of_kind(kind: u8, seed: u64) -> Entry {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut entry = [0u8; ENTRY_BYTES];
    match kind % 4 {
        0 => {}
        1 => {
            let w: u32 = rng.gen();
            for c in entry.chunks_exact_mut(4) {
                c.copy_from_slice(&w.to_le_bytes());
            }
        }
        2 => {
            let base: u32 = rng.gen_range(1 << 28..1 << 29);
            for c in entry.chunks_exact_mut(4) {
                let v = base + rng.gen_range(0u32..1 << 10);
                c.copy_from_slice(&v.to_le_bytes());
            }
        }
        _ => rng.fill(&mut entry[..]),
    }
    entry
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random operation sequences — batched and single-entry reads and
    /// writes, in-range and out-of-range, mid-sequence allocations, plus
    /// interleaved re-target migrations — behave identically on a 1-shard
    /// pool and a bare device, under every target ratio.
    #[test]
    fn one_shard_pool_matches_bare_device(
        target_idx in 0u8..5,
        ops in proptest::collection::vec((0u8..6, any::<u64>(), 0usize..12, any::<u64>()), 1..24),
    ) {
        let target = TargetRatio::DESCENDING[target_idx as usize];
        let (pool, mut device) = pair();

        let mut handles = vec![(
            pool.alloc("base", 48, target).unwrap(),
            device.alloc("base", 48, target).unwrap(),
        )];
        let mut entry_counts = vec![48u64];

        for (op, pos, len, data_seed) in ops {
            let slot = (pos % handles.len() as u64) as usize;
            let (pool_id, dev_id) = handles[slot];
            let entries = entry_counts[slot];
            // Bias starts toward the boundary so zero-length batches at
            // `entries` and out-of-range starts both occur regularly.
            let start = pos % (entries + 4);
            match op {
                0 => {
                    let batch: Vec<Entry> = (0..len)
                        .map(|i| entry_of_kind((data_seed + i as u64) as u8, data_seed ^ i as u64))
                        .collect();
                    prop_assert_eq!(
                        pool.write_entries(pool_id, start, &batch),
                        device.write_entries(dev_id, start, &batch)
                    );
                }
                1 => {
                    let mut from_pool = vec![[0u8; ENTRY_BYTES]; len];
                    let mut from_dev = vec![[1u8; ENTRY_BYTES]; len];
                    let pr = pool.read_entries(pool_id, start, &mut from_pool);
                    let dr = device.read_entries(dev_id, start, &mut from_dev);
                    prop_assert_eq!(pr.clone(), dr);
                    if pr.is_ok() {
                        prop_assert_eq!(&from_pool, &from_dev, "read bytes must match");
                    }
                }
                2 => {
                    let entry = entry_of_kind(data_seed as u8, data_seed);
                    prop_assert_eq!(
                        pool_write1(&pool, pool_id, start, &entry),
                        dev_write1(&mut device, dev_id, start, &entry)
                    );
                }
                3 => {
                    prop_assert_eq!(
                        pool_read1(&pool, pool_id, start),
                        dev_read1(&mut device, dev_id, start)
                    );
                }
                4 => {
                    let n = 8 + pos % 24;
                    let name = format!("alloc{}", handles.len());
                    let pa = pool.alloc(&name, n, target);
                    let da = device.alloc(&name, n, target);
                    prop_assert_eq!(pa.is_ok(), da.is_ok());
                    if let (Ok(p), Ok(d)) = (pa, da) {
                        handles.push((p, d));
                        entry_counts.push(n);
                    }
                }
                _ => {
                    // Live migration, interleaved with the I/O above: the
                    // pool must route it to the same shard state the bare
                    // device holds, reporting the identical outcome.
                    let new_target = TargetRatio::DESCENDING[(data_seed % 5) as usize];
                    prop_assert_eq!(
                        pool.retarget(pool_id, new_target),
                        device.retarget(dev_id, new_target),
                        "retarget to {} diverged", new_target
                    );
                    prop_assert_eq!(
                        pool.state_window(pool_id),
                        device.handle().state_window(dev_id)
                    );
                }
            }
        }

        prop_assert_eq!(pool.stats(), device.stats(), "traffic counters diverged");
        prop_assert_eq!(pool.device_used(), device.device_used());
        prop_assert_eq!(pool.occupancy(), vec![occupancy_of(&device)]);
    }
}

/// The same *workload trace* replayed through a 1-shard pool and a bare
/// device — access-for-access, including batched runs — yields identical
/// read-back bytes and identical stats.
#[test]
fn same_trace_through_pool_and_device() {
    let (pool, mut device) = pair();
    const ENTRIES: u64 = 512;
    const BATCH: usize = 16;
    let pool_id = pool.alloc("trace", ENTRIES, TargetRatio::R2).unwrap();
    let dev_id = device.alloc("trace", ENTRIES, TargetRatio::R2).unwrap();

    let trace = TraceGenerator::per_client(AccessProfile::stencil(), ENTRIES, 0xB0DD7, 0);
    for (i, access) in trace.take(400).enumerate() {
        let start = access.entry.min(ENTRIES - BATCH as u64);
        if access.write {
            let batch: Vec<Entry> = (0..BATCH)
                .map(|j| entry_of_kind((i + j) as u8, (i * 31 + j) as u64))
                .collect();
            pool.write_entries(pool_id, start, &batch).unwrap();
            device.write_entries(dev_id, start, &batch).unwrap();
        } else {
            let mut from_pool = [[0u8; ENTRY_BYTES]; BATCH];
            let mut from_dev = [[0u8; ENTRY_BYTES]; BATCH];
            pool.read_entries(pool_id, start, &mut from_pool).unwrap();
            device.read_entries(dev_id, start, &mut from_dev).unwrap();
            assert_eq!(from_pool, from_dev, "access {i}");
        }
    }

    assert_eq!(pool.stats(), device.stats(), "stats diverged");
    assert_eq!(pool.occupancy(), vec![occupancy_of(&device)]);

    // Final memory images agree entry for entry.
    for index in 0..ENTRIES {
        assert_eq!(
            pool_read1(&pool, pool_id, index).unwrap(),
            dev_read1(&mut device, dev_id, index).unwrap(),
            "final image at {index}"
        );
    }
}

/// Live migration under fire: client threads hammer batched reads and
/// writes while a dedicated thread re-targets the *same* allocations.
/// Every client read must return exactly what that client last wrote (no
/// torn reads — migration holds the shard lock for its whole critical
/// section), every migration the retargeter commits must be visible in the
/// merged stats (lossless merge), and the final images must survive
/// byte-for-byte.
#[test]
fn concurrent_retargets_never_tear_client_reads() {
    const CLIENTS: usize = 4;
    const ENTRIES: u64 = 256;
    const BATCH: usize = 16;
    const ROUNDS: u32 = 24;

    let pool = BuddyPool::new(PoolConfig {
        shards: 2,
        shard_config: SHARD_CONFIG,
        ..PoolConfig::default()
    });
    let handles: Vec<PoolAllocId> = (0..CLIENTS)
        .map(|c| {
            pool.alloc(&format!("client{c}"), ENTRIES, TargetRatio::R2)
                .unwrap()
        })
        .collect();

    let committed_retargets = std::thread::scope(|scope| {
        for (c, &handle) in handles.iter().enumerate() {
            let pool = &pool;
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    let start = (round as u64 * BATCH as u64) % (ENTRIES - BATCH as u64);
                    let batch: Vec<Entry> = (0..BATCH)
                        .map(|i| {
                            entry_of_kind(
                                (c + i + round as usize) as u8,
                                (c as u64) << 32 | (round as u64) << 8 | i as u64,
                            )
                        })
                        .collect();
                    pool.write_entries(handle, start, &batch).unwrap();
                    let mut out = vec![[0u8; ENTRY_BYTES]; BATCH];
                    pool.read_entries(handle, start, &mut out).unwrap();
                    // The client owns this allocation: read-after-write
                    // must hold whatever migrations raced in between.
                    assert_eq!(out, batch, "client {c} round {round}: torn read");
                }
            });
        }
        // The retargeter walks every allocation through every target while
        // the clients run. Capacity is sized so no migration can fail.
        let retargeter = {
            let pool = &pool;
            let handles = handles.clone();
            scope.spawn(move || {
                let mut committed = 0u64;
                for round in 0..10usize {
                    for (i, &handle) in handles.iter().enumerate() {
                        let target = TargetRatio::DESCENDING[(round + i) % 5];
                        let report = pool.retarget(handle, target).unwrap();
                        if report.old_target != report.new_target {
                            committed += 1;
                        }
                    }
                }
                committed
            })
        };
        retargeter.join().expect("retargeter panicked")
    });

    // Stats merged losslessly across shards: every committed migration is
    // accounted exactly once, and the per-shard sum equals the drain.
    let merged = pool.drain();
    assert_eq!(merged.retargets, committed_retargets);
    assert!(merged.moved_sectors > 0);
    let by_hand = pool
        .occupancy()
        .iter()
        .fold(AccessStats::default(), |mut acc, o| {
            acc.merge(&o.stats);
            acc
        });
    assert_eq!(merged, by_hand);
    assert_eq!(
        merged.total_accesses(),
        (CLIENTS as u64) * (ROUNDS as u64) * (BATCH as u64) * 2,
        "migrations must not perturb entry-access accounting"
    );
}

/// The reader-storm harness behind the proptest below: `readers` threads
/// hammer `read_entries` with no lock while one mutator thread loops
/// full-image writes, retargets, and free+realloc cycles on the same
/// allocation. Every phase `k` writes the uniform image `[k; 128]` in one
/// batch (batches publish atomically), every retarget preserves bytes, and
/// every realloc starts zeroed — so *any* legal read is uniform: all
/// entries identical, every byte of every entry identical, and the value
/// is either 0 (a fresh allocation) or a phase fill that was actually
/// written. A read that blends two epochs — half the batch from before a
/// migration, half after, or an entry decoded from a stale metadata
/// nibble against migrated bytes — breaks uniformity and fails the run.
/// A read racing the free/realloc window may instead observe
/// `BadAllocation`; any other error is a failure.
fn reader_storm(shards: usize, readers: usize, seed: u64) {
    const ENTRIES: u64 = 128;
    const BATCH: usize = 32;
    const PHASES: u8 = 12;

    let pool = BuddyPool::new(PoolConfig {
        shards,
        shard_config: SHARD_CONFIG,
        ..PoolConfig::default()
    });
    let current = std::sync::Mutex::new(pool.alloc("storm", ENTRIES, TargetRatio::R2).unwrap());
    let stop = std::sync::atomic::AtomicBool::new(false);

    let reader_failures: Vec<String> = std::thread::scope(|scope| {
        let checkers: Vec<_> = (0..readers)
            .map(|r| {
                let pool = &pool;
                let current = &current;
                let stop = &stop;
                scope.spawn(move || -> Result<(), String> {
                    let mut rng = SmallRng::seed_from_u64(seed ^ (r as u64) << 17);
                    while !stop.load(std::sync::atomic::Ordering::Acquire) {
                        let handle = *current.lock().unwrap();
                        let start = rng.gen_range(0..=ENTRIES - BATCH as u64);
                        let mut out = vec![[0xAAu8; ENTRY_BYTES]; BATCH];
                        match pool.read_entries(handle, start, &mut out) {
                            Ok(()) => {
                                let value = out[0][0];
                                if value > PHASES {
                                    return Err(format!(
                                        "reader {r}: byte {value} was never written"
                                    ));
                                }
                                for (i, entry) in out.iter().enumerate() {
                                    if entry != &[value; ENTRY_BYTES] {
                                        return Err(format!(
                                            "reader {r}: entry {i} of batch at {start} blends \
                                             epochs (batch leads with {value}, entry is {:?}…)",
                                            &entry[..4]
                                        ));
                                    }
                                }
                            }
                            // The handle died under a free+realloc cycle —
                            // the one legal non-success.
                            Err(DeviceError::BadAllocation) => {}
                            Err(other) => {
                                return Err(format!("reader {r}: unexpected error {other:?}"))
                            }
                        }
                    }
                    Ok(())
                })
            })
            .collect();

        // The mutator runs on this thread: full-image write, two byte-
        // preserving migrations, then a free+realloc cycle per phase.
        for phase in 1..=PHASES {
            let handle = *current.lock().unwrap();
            let image = vec![[phase; ENTRY_BYTES]; ENTRIES as usize];
            pool.write_entries(handle, 0, &image).unwrap();
            for target in [TargetRatio::R4, TargetRatio::R1_33] {
                pool.retarget(handle, target).unwrap();
            }
            pool.free(handle).unwrap();
            let fresh = pool
                .alloc(&format!("storm-{phase}"), ENTRIES, TargetRatio::R2)
                .unwrap();
            *current.lock().unwrap() = fresh;
        }
        stop.store(true, std::sync::atomic::Ordering::Release);

        checkers
            .into_iter()
            .filter_map(|c| c.join().expect("reader panicked").err())
            .collect()
    });

    assert!(
        reader_failures.is_empty(),
        "torn reads under the storm: {reader_failures:?}"
    );
    // The barrier drains lock-free readers too; afterwards the last
    // allocation must hold a complete, uniform image.
    let _ = pool.drain();
    let survivor = *current.lock().unwrap();
    let mut final_image = vec![[0u8; ENTRY_BYTES]; ENTRIES as usize];
    pool.read_entries(survivor, 0, &mut final_image).unwrap();
    assert!(final_image.iter().all(|e| e == &[0u8; ENTRY_BYTES]));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Reader storm: concurrent lock-free reads racing writes, retargets
    /// and free+realloc cycles must observe a complete pre-image, a
    /// complete post-image, or `BadAllocation` — never a blend of epochs.
    #[test]
    fn reader_storm_observes_whole_epochs_or_bad_allocation(
        shards in 1usize..3,
        readers in 2usize..5,
        seed in any::<u64>(),
    ) {
        reader_storm(shards, readers, seed);
    }
}

/// Merging per-shard stats is lossless: a multi-shard pool serving disjoint
/// clients reports exactly the sum of what the same clients would have done
/// to private devices.
#[test]
fn multi_shard_stats_merge_is_lossless() {
    let pool = BuddyPool::new(PoolConfig {
        shards: 4,
        shard_config: SHARD_CONFIG,
        ..PoolConfig::default()
    });
    let mut reference = AccessStats::default();
    for c in 0..4u64 {
        let mut device = BuddyDevice::new(SHARD_CONFIG);
        let pool_id = pool.alloc(&format!("c{c}"), 128, TargetRatio::R2).unwrap();
        let dev_id = device
            .alloc(&format!("c{c}"), 128, TargetRatio::R2)
            .unwrap();
        for i in 0..64 {
            let entry = entry_of_kind((c + i) as u8, c * 1000 + i);
            pool_write1(&pool, pool_id, i, &entry).unwrap();
            dev_write1(&mut device, dev_id, i, &entry).unwrap();
            assert_eq!(
                pool_read1(&pool, pool_id, i).unwrap(),
                dev_read1(&mut device, dev_id, i).unwrap()
            );
        }
        reference.merge(&device.stats());
    }
    assert_eq!(pool.drain(), reference);
}
