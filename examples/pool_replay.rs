//! Multi-tenant replay: four concurrent clients drive a sharded
//! [`BuddyPool`] with a workload's access trace and the pool reports
//! merged traffic, per-shard occupancy and throughput.
//!
//! Run with `cargo run --example pool_replay`.
#![expect(
    clippy::disallowed_types,
    reason = "the example prints its own throughput"
)]

use buddy_compression::buddy_core::{DeviceConfig, TargetRatio};
use buddy_compression::buddy_pool::{BuddyPool, CodecKind, PoolConfig, ENTRY_BYTES};
use buddy_compression::workloads::{by_name, EntryClass, TraceGenerator};
use std::time::Instant;

const CLIENTS: u64 = 4;
const BATCHES_PER_CLIENT: u64 = 128;
const BATCH: u64 = 32;
const ENTRIES_PER_CLIENT: u64 = 1024;
const SEED: u64 = 0xB0DD7;

fn main() {
    let bench = by_name("356.sp").expect("356.sp is in the suite");
    let pool = BuddyPool::new(PoolConfig {
        shards: 4,
        shard_config: DeviceConfig {
            device_capacity: 4 << 20,
            carve_out_factor: 3,
        },
        codec: CodecKind::Bpc,
    });

    // Each client owns one allocation and walks its own deterministic
    // trace: every access becomes one batched read or write anchored at
    // the access's entry. Entry I/O takes no shard lock, so the four
    // threads only meet in the allocator.
    let started = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let pool = &pool;
            scope.spawn(move || {
                let name = format!("client-{client}");
                let id = pool
                    .alloc(&name, ENTRIES_PER_CLIENT, TargetRatio::R2)
                    .expect("pool hosts all clients");
                // Every fourth entry is incompressible and overflows its R2
                // slot into buddy memory.
                let classes = [EntryClass::Noisy { noise_bits: 8 }, EntryClass::Random];
                let payload: Vec<_> = (0..BATCH)
                    .map(|i| classes[usize::from(i % 4 == 3)].generate(SEED ^ i))
                    .collect();
                let mut out = vec![[0u8; ENTRY_BYTES]; payload.len()];
                let trace =
                    TraceGenerator::per_client(bench.access, ENTRIES_PER_CLIENT, SEED, client);
                for access in trace.take(BATCHES_PER_CLIENT as usize) {
                    let start = access.entry.min(ENTRIES_PER_CLIENT - BATCH);
                    if access.write {
                        pool.write_entries(id, start, &payload)
                    } else {
                        pool.read_entries(id, start, &mut out)
                    }
                    .expect("batch is in range");
                }
            });
        }
    });
    let secs = started.elapsed().as_secs_f64();
    // Every client has returned from the scope, so the merged counters
    // are exact.
    let stats = pool.drain();

    let batches = CLIENTS * BATCHES_PER_CLIENT;
    let entries = batches * BATCH;
    println!(
        "replayed {entries} entries in {batches} batches from {CLIENTS} clients over {} shards",
        pool.config().shards
    );
    println!(
        "throughput {:.0} entries/s ({:.3} logical GB/s)",
        entries as f64 / secs,
        (entries * ENTRY_BYTES as u64) as f64 / secs / 1e9
    );
    println!(
        "merged traffic: {} accesses, buddy fraction {:.2}%",
        stats.total_accesses(),
        100.0 * stats.buddy_access_fraction()
    );
    for shard in pool.occupancy() {
        println!(
            "  shard {}: {} allocations, {} B device used, ratio {:.2}",
            shard.shard, shard.allocations, shard.device_used, shard.effective_ratio
        );
    }
}
