//! Multi-tenant replay: four concurrent clients drive a sharded
//! [`BuddyPool`] with a workload's access trace and the pool reports
//! merged traffic, per-shard occupancy and throughput.
//!
//! Run with `cargo run --example pool_replay`.

use buddy_compression::buddy_core::{DeviceConfig, TargetRatio};
use buddy_compression::buddy_pool::loadgen::{replay, LoadgenConfig};
use buddy_compression::buddy_pool::{BuddyPool, CodecKind, PoolConfig};
use buddy_compression::workloads::by_name;

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

    let cfg = LoadgenConfig {
        clients: 4,
        batches_per_client: 128,
        batch_entries: 32,
        entries_per_client: 1024,
        target: TargetRatio::R2,
        seed: 0xB0DD7,
        // Between-batch adaptive re-targeting sweep (0 disables); see the
        // adaptive_retarget example for the single-device walkthrough.
        retarget_every: 32,
        // Alloc/free churn every 64 batches: each client turns its whole
        // footprint over mid-replay (see the churn_lifecycle example).
        churn_every: 64,
        // Take the read/write mix from the trace.
        read_pct: None,
    };
    let report = replay(&pool, bench.access, &cfg).expect("pool hosts all clients");

    println!(
        "replayed {} entries in {} batches from {} clients over {} shards",
        report.entries_processed, report.batches, report.clients, report.shards
    );
    println!(
        "throughput {:.0} entries/s ({:.3} logical GB/s); batch latency p50 {:.1} us, p99 {:.1} us",
        report.entries_per_sec,
        report.logical_gb_per_sec,
        report.latency.p50_us,
        report.latency.p99_us
    );
    println!(
        "merged traffic: {} accesses, buddy fraction {:.2}%",
        report.stats.total_accesses(),
        100.0 * report.stats.buddy_access_fraction()
    );
    for shard in pool.occupancy() {
        println!(
            "  shard {}: {} allocations, {} B device used, ratio {:.2}",
            shard.shard, shard.allocations, shard.device_used, shard.effective_ratio
        );
    }
}
