//! Pool replay: the exact traffic of a multi-client trace replay through
//! the sharded pool.
//!
//! The paper's §5 performance model is about *aggregate* traffic — every SM
//! issues entry accesses. This harness replays that regime through a
//! sharded BPC [`BuddyPool`]: four clients replay the same workload trace
//! (same master seed, same per-client splitting rule) over four shards, in
//! three cells (`Mix`) that differ only in what the clients do. Each row
//! reports entries moved, buddy-access fraction, churn cycles and
//! re-targets. The codec comparison is `ablation`'s, and fragmentation
//! under churn is `churn`'s.
//!
//! Nothing here reads a clock or spawns a thread: throughput and latency
//! are `benchmark/`'s `read_heavy` / `write_heavy` workloads, and concurrent
//! churn + retarget + read/write is the pool crate's
//! `tests/{pool_equivalence,linearizability}.rs`.

use crate::report::{pct, print_table, write_csv, RunConfig};
use buddy_compression::bpc::{Entry, ENTRY_BYTES};
use buddy_compression::buddy_core::{DeviceConfig, DeviceError, ProfileConfig, TargetRatio};
use buddy_compression::buddy_pool::{BuddyPool, PoolAllocId, PoolConfig};
use buddy_compression::workloads::entry_gen::splitmix64;
use buddy_compression::workloads::{by_name, TraceGenerator};
use std::io;

/// The benchmark whose access profile drives the replay (a SpecAccel
/// stencil with a realistic read/write mix).
const TRACE_BENCH: &str = "356.sp";

/// Entries per batched operation.
const BATCH: usize = 64;

/// Target compression ratio of every client allocation.
const TARGET: TargetRatio = TargetRatio::R2;

/// Shard count of the pool under test.
const SHARDS: usize = 4;

/// Replaying clients, one allocation each.
const CLIENTS: usize = 4;

/// Churn period of [`Mix::ChurnRetarget`], in batches: the client frees
/// its allocation and takes a fresh, zeroed one of the same size and
/// target (DL-iteration activation turnover, DESIGN.md §9).
const CHURN_EVERY: u64 = 8;

/// Re-targeting period of [`Mix::ChurnRetarget`], in batches: the client
/// applies [`ProfileConfig::recommend`] to its own allocation's state
/// window (DESIGN.md §8).
const RETARGET_EVERY: u64 = 4;

/// Read percentage of [`Mix::ReadHeavy`].
const READ_HEAVY_PCT: u64 = 95;

/// What the clients do in one cell.
#[derive(Debug, Clone, Copy)]
enum Mix {
    /// The trace's own read/write mix.
    Trace,
    /// The trace mix, with a re-targeting sweep every [`RETARGET_EVERY`]
    /// batches and a churn cycle every [`CHURN_EVERY`].
    ChurnRetarget,
    /// Each batch is a read with probability [`READ_HEAVY_PCT`]%: the
    /// serving regime of the lock-free read path.
    ReadHeavy,
}

/// The three cells, in CSV row order.
const MIXES: [Mix; 3] = [Mix::Trace, Mix::ChurnRetarget, Mix::ReadHeavy];

/// A pool sized to the replay footprint: each shard holds one client's
/// allocation with 2× headroom, and at least 1 MiB.
fn sized_pool(entries_per_client: u64) -> BuddyPool {
    let device_need = entries_per_client * u64::from(TARGET.device_bytes_per_entry());
    BuddyPool::new(PoolConfig {
        shards: SHARDS,
        shard_config: DeviceConfig {
            device_capacity: (device_need * 2).max(1 << 20),
            carve_out_factor: 3,
        },
        ..PoolConfig::default()
    })
}

/// The write palette: a ring of entries spanning the compressibility
/// spectrum (zero / constant / ramp / noise), seeded through splitmix64 so
/// adjacent per-client seeds do not collapse to one palette. Sized
/// `RING + BATCH` so any batch is a contiguous window of it.
fn write_palette(seed: u64) -> Vec<Entry> {
    const RING: usize = 256;
    let mut palette = Vec::with_capacity(RING + BATCH);
    let mut state = splitmix64(seed);
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state
    };
    for slot in 0..RING {
        let mut entry = [0u8; ENTRY_BYTES];
        match slot % 4 {
            0 => {} // zero entry
            1 => {
                let word = (slot as u32).wrapping_mul(0x9E37_79B9);
                for c in entry.chunks_exact_mut(4) {
                    c.copy_from_slice(&word.to_le_bytes());
                }
            }
            2 => {
                for (j, c) in entry.chunks_exact_mut(4).enumerate() {
                    let v = 1_000_000u32.wrapping_add((slot * 64 + j * 3) as u32);
                    c.copy_from_slice(&v.to_le_bytes());
                }
            }
            _ => {
                for b in entry.iter_mut() {
                    *b = (next() >> 33) as u8;
                }
            }
        }
        palette.push(entry);
    }
    // Mirror the head onto the tail so window `i` equals window `i % RING`.
    palette.extend_from_within(..BATCH);
    palette
}

/// One replaying client: its allocation and its deterministic streams.
struct Client {
    handle: PoolAllocId,
    palette: Vec<Entry>,
    trace: TraceGenerator,
    current_target: TargetRatio,
}

/// Replays [`CLIENTS`] streams of the [`TRACE_BENCH`] trace against `pool`
/// with `mix`; the pool's traffic counters are the result.
///
/// Each client owns one allocation of `entries_per_client` entries at
/// [`TARGET`] and a [`TraceGenerator::per_client`] stream seeded from
/// `(seed, client)`. Every access becomes one [`BATCH`]-entry write (from
/// the client's palette) or read, anchored at the access's entry. Clients
/// take turns, one batch each, with their structural operations (retarget,
/// then churn) right after their batch, so the work, *placement included*,
/// is exactly reproducible.
///
/// Returns the first [`DeviceError`] any client hits. Panics on a
/// footprint smaller than one batch.
fn replay(
    pool: &BuddyPool,
    mix: Mix,
    entries_per_client: u64,
    batches_per_client: u64,
    seed: u64,
) -> Result<(), DeviceError> {
    assert!(
        BATCH as u64 <= entries_per_client,
        "batch ({BATCH}) must fit entries_per_client ({entries_per_client})"
    );
    #[expect(clippy::expect_used, reason = "356.sp is in the suite")]
    let profile = by_name(TRACE_BENCH).expect("trace benchmark exists").access;

    let mut clients: Vec<Client> = (0..CLIENTS as u64)
        .map(|c| {
            Ok(Client {
                handle: pool.alloc(&format!("loadgen-client-{c}"), entries_per_client, TARGET)?,
                palette: write_palette(seed.wrapping_add(c)),
                trace: TraceGenerator::per_client(profile, entries_per_client, seed, c),
                current_target: TARGET,
            })
        })
        .collect::<Result<_, DeviceError>>()?;

    let mut read_buf = vec![[0u8; ENTRY_BYTES]; BATCH];
    let max_start = entries_per_client - BATCH as u64;
    let policy = ProfileConfig::default();
    let churn = matches!(mix, Mix::ChurnRetarget);

    for op in 0..batches_per_client {
        for (c, client) in (0u64..).zip(clients.iter_mut()) {
            #[expect(clippy::expect_used, reason = "trace generators are infinite")]
            let access = client.trace.next().expect("trace generators are infinite");
            let start = access.entry.min(max_start);
            // The trace decides read-vs-write unless the mix pins it.
            let is_write = match mix {
                Mix::ReadHeavy => {
                    splitmix64(seed ^ (c << 32).wrapping_add(op)) % 100 >= READ_HEAVY_PCT
                }
                Mix::Trace | Mix::ChurnRetarget => access.write,
            };
            if is_write {
                let ring = client.palette.len() - BATCH;
                let window = &client.palette[(op as usize) % ring..][..BATCH];
                pool.write_entries(client.handle, start, window)?;
            } else {
                pool.read_entries(client.handle, start, &mut read_buf)?;
            }
            // After the batch: the re-targeting sweep.
            if churn && (op + 1) % RETARGET_EVERY == 0 {
                let window = pool.state_window(client.handle)?;
                if let Some(next) = policy.recommend(client.current_target, &window) {
                    pool.retarget(client.handle, next)?;
                    client.current_target = next;
                }
            }
            // Then the churn cycle: a fresh allocation, back on the target.
            if churn && (op + 1) % CHURN_EVERY == 0 {
                pool.free(client.handle)?;
                client.handle = pool.alloc(
                    &format!("loadgen-client-{c}-cycle-{}", (op + 1) / CHURN_EVERY),
                    entries_per_client,
                    TARGET,
                )?;
                client.current_target = TARGET;
            }
        }
    }
    Ok(())
}

/// Runs the three cells (`reproduce-all pool-replay`), each on a fresh
/// pool, and writes `results/pool_replay.csv`.
pub fn pool_replay(cfg: &RunConfig) -> io::Result<()> {
    // Equal work per cell so the traffic columns are directly comparable.
    let total_entries = cfg.scaled(2_000_000);
    let entries_per_client = if cfg.quick { 1024 } else { 4096 };
    let batches = (total_entries / (CLIENTS * BATCH) as u64).max(1);

    let header = "shards,clients,read_pct,entries,buddy_access_frac,churn_cycles,retargets";
    let header: Vec<&str> = header.split(',').collect();
    let mut rows = Vec::with_capacity(MIXES.len());
    for mix in MIXES {
        let pool = sized_pool(entries_per_client);
        replay(&pool, mix, entries_per_client, batches, cfg.seed).map_err(io::Error::other)?;
        let stats = pool.stats();
        // Every batch and cycle completed (or errored above): closed forms.
        let (read_pct, churn_cycles) = match mix {
            Mix::Trace => ("trace".into(), 0),
            Mix::ChurnRetarget => ("trace".into(), CLIENTS as u64 * (batches / CHURN_EVERY)),
            Mix::ReadHeavy => (READ_HEAVY_PCT.to_string(), 0),
        };
        rows.push(vec![
            SHARDS.to_string(),
            CLIENTS.to_string(),
            read_pct,
            (CLIENTS as u64 * batches * BATCH as u64).to_string(),
            pct(stats.buddy_access_fraction()),
            churn_cycles.to_string(),
            stats.retargets.to_string(),
        ]);
    }
    let title =
        format!("Pool replay: {SHARDS} shards × {CLIENTS} clients, BPC ({TRACE_BENCH} trace)");
    print_table(&title, &header, &rows);
    write_csv(&cfg.results_dir, "pool_replay", &header, &rows)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 0xB0DD7;

    /// A short replay on a fresh pool over 512-entry footprints.
    fn quick(mix: Mix, batches: u64, seed: u64) -> BuddyPool {
        let pool = sized_pool(512);
        replay(&pool, mix, 512, batches, seed).unwrap();
        pool
    }

    /// Entries written in `mix` over 128 batches per client.
    fn writes(mix: Mix) -> u64 {
        let s = quick(mix, 128, SEED).stats();
        s.writes_device_only + s.writes_with_buddy
    }

    #[test]
    fn replay_accounts_every_entry() {
        // One traffic-counter access per entry moved, in every cell.
        for mix in MIXES {
            let stats = quick(mix, 32, SEED).stats();
            assert_eq!(stats.total_accesses(), (CLIENTS * 32 * BATCH) as u64);
        }
    }

    #[test]
    fn replay_work_is_deterministic() {
        // Same seed on fresh pools ⇒ identical traffic and placement.
        let (a, b) = (quick(Mix::Trace, 32, SEED), quick(Mix::Trace, 32, SEED));
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.fragmentation(), b.fragmentation());
        assert_eq!(a.largest_free_region(), b.largest_free_region());
        // Different seed ⇒ different access mix (with overwhelming odds).
        assert_ne!(a.stats(), quick(Mix::Trace, 32, 7).stats());
    }

    #[test]
    fn undersized_pool_reports_allocation_failure() {
        // 64 Ki entries at 2x need 4 MiB of a shard sized for 512.
        let err = replay(&sized_pool(512), Mix::Trace, 1 << 16, 32, SEED).unwrap_err();
        assert!(matches!(err, DeviceError::OutOfDeviceMemory { .. }));
    }

    #[test]
    fn retarget_sweep_is_deterministic_and_off_by_default() {
        // Decisions and costs replay exactly; only the churn cell migrates.
        let a = quick(Mix::ChurnRetarget, 32, SEED).stats();
        assert_eq!(a, quick(Mix::ChurnRetarget, 32, SEED).stats());
        assert!(a.retargets > 0, "the sweep must actually migrate");
        for mix in [Mix::Trace, Mix::ReadHeavy] {
            let off = quick(mix, 32, SEED).stats();
            assert_eq!((off.retargets, off.moved_sectors), (0, 0), "{mix:?}");
        }
    }

    #[test]
    fn adjacent_seeds_generate_distinct_palettes() {
        // Regression: `state = seed | 1` gave seeds differing only in bit 0
        // — the adjacent per-client seeds — identical palettes and traffic.
        for seed in [0u64, 2, 0xB0DD6, 0xFFFF_FFFF_FFFF_FFFE] {
            assert_ne!(write_palette(seed), write_palette(seed | 1), "seed {seed}");
        }
        assert_eq!(write_palette(42), write_palette(42));
    }

    #[test]
    fn churn_mode_turns_the_footprint_over_without_leaking() {
        // 8 churns per client, the last after its final batch: no batch hit
        // a dead handle, and each client ends with one allocation on TARGET.
        let pool = quick(Mix::ChurnRetarget, 64, SEED);
        let live: usize = pool.occupancy().iter().map(|o| o.allocations).sum();
        assert_eq!(live, CLIENTS);
        let footprint = CLIENTS as u64 * 512 * u64::from(TARGET.device_bytes_per_entry());
        assert_eq!(pool.device_used(), footprint);
    }

    #[test]
    fn churn_and_retarget_activity_reaches_the_report() {
        // The churn column is a closed form; the pool counts the allocations
        // the replay really made (one shard probe each: every shard fits).
        let pool = quick(Mix::ChurnRetarget, 64, SEED);
        let allocs = CLIENTS as u64 * (1 + 64 / CHURN_EVERY);
        assert_eq!(pool.alloc_shard_probes(), allocs);
        assert!(pool.stats().retargets > 0);
    }

    #[test]
    fn churn_replay_is_deterministic() {
        // Re-allocations reach the shard router in the same order, so the
        // churned footprints land in the same places.
        let a = quick(Mix::ChurnRetarget, 32, SEED);
        let b = quick(Mix::ChurnRetarget, 32, SEED);
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.fragmentation(), b.fragmentation());
        assert_eq!(a.largest_free_region(), b.largest_free_region());
    }

    #[test]
    fn read_pct_overrides_the_profile_mix() {
        assert_ne!(writes(Mix::Trace), writes(Mix::ReadHeavy));
    }

    #[test]
    fn read_heavy_cell_completes_every_batch_and_is_read_dominated() {
        // `quick` unwraps, so every batch returned `Ok`; about 5 % write.
        let (w, total) = (writes(Mix::ReadHeavy), (CLIENTS * 128 * BATCH) as u64);
        assert!(w > 0 && w * 10 < total, "{w} of {total} entries written");
    }

    #[test]
    #[should_panic(expected = "batch")]
    fn oversized_batch_is_rejected() {
        let _ = replay(&sized_pool(512), Mix::Trace, BATCH as u64 / 2, 32, SEED);
    }

    #[test]
    fn harness_writes_the_csv_artifact() {
        let dir = std::env::temp_dir().join("buddy-bench-poolfig");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = RunConfig {
            quick: true,
            results_dir: dir.clone(),
            seed: 5,
        };
        pool_replay(&cfg).unwrap();
        let csv = std::fs::read_to_string(dir.join("pool_replay.csv")).unwrap();
        // The replay calls no libm function (integer and basic IEEE
        // arithmetic only), so these literals hold on every host.
        assert_eq!(
            csv.lines().collect::<Vec<_>>(),
            [
                "shards,clients,read_pct,entries,buddy_access_frac,churn_cycles,retargets",
                "4,4,trace,199936,24.21%,0,0",
                "4,4,trace,199936,10.19%,388,392",
                "4,4,95,199936,17.51%,0,0",
            ]
        );
    }
}
