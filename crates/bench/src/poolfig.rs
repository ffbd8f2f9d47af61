//! Pool replay: the exact traffic and placement of a multi-client trace
//! replay through the sharded pool.
//!
//! The paper's §5 performance model is about *aggregate* traffic — every SM
//! issues entry accesses. This harness replays that regime through a
//! sharded BPC [`BuddyPool`]: four clients replay the same workload trace
//! (same master seed, same per-client splitting rule) over four shards.
//! Each cell reports what the replay did — entries moved, buddy-access
//! fraction, churn cycles, re-targets.
//!
//! The three cells differ only in what the clients do: the profile's own
//! read/write mix; that mix with alloc/free churn and online re-targeting;
//! and a forced 95/5 read mix, the serving regime the lock-free
//! epoch-snapshot read path targets. The codec comparison is `ablation`'s,
//! and fragmentation under churn is `churn`'s.
//!
//! Nothing here reads a clock or spawns a thread: throughput and latency
//! are `benchmark/`'s `read_heavy` / `write_heavy` workloads, and concurrent
//! churn + retarget + read/write is the pool crate's
//! `tests/{pool_equivalence,linearizability}.rs`.
//!
//! # The replay driver
//!
//! Each client owns one allocation (its private partition of the replayed
//! footprint) and a [`TraceGenerator::per_client`] stream seeded
//! deterministically from `(seed, client)`. The calling thread drives the
//! clients round-robin — one batch per client per turn, each client's
//! structural operations (retarget, then churn) right after its batch — so
//! a replay's work, *placement included*, is exactly reproducible: every
//! access, every written byte, every traffic counter, and the order in
//! which allocations reach the pool's shard router.

use crate::report::{pct, print_table, write_csv, RunConfig};
use buddy_compression::bpc::{Entry, ENTRY_BYTES};
use buddy_compression::buddy_core::{
    AccessStats, DeviceConfig, DeviceError, ProfileConfig, TargetRatio,
};
use buddy_compression::buddy_pool::{BuddyPool, PoolAllocId, PoolConfig};
use buddy_compression::workloads::entry_gen::splitmix64;
use buddy_compression::workloads::{by_name, AccessProfile, TraceGenerator};
use std::io;

/// The benchmark whose access profile drives the replay (a SpecAccel
/// stencil with a realistic read/write mix).
const TRACE_BENCH: &str = "356.sp";

/// Entries per batched operation.
const BATCH: usize = 64;

/// Target compression ratio of the swept cells' allocations.
const TARGET: TargetRatio = TargetRatio::R2;

/// Read percentage of the read-heavy cells: the serving regime the
/// epoch-snapshot redesign targets (reads dominate, writes trickle).
const READ_HEAVY_PCT: u8 = 95;

/// One point of the sweep grid: the structural axes, the churn/retarget
/// activity knobs, and the read mix.
#[derive(Debug, Clone, Copy)]
struct CellSpec {
    /// Shard count of the pool under test.
    shards: usize,
    /// Replaying clients.
    clients: usize,
    /// Churn period in batches (`0` = off): every `churn_every` batches a
    /// client frees its allocation and allocates a fresh, zeroed one of the
    /// same size and target (DL-iteration activation turnover, DESIGN.md
    /// §9) while the other clients keep their allocations in the same
    /// shards.
    churn_every: u64,
    /// Re-targeting sweep period in batches (`0` = off): every
    /// `retarget_every` batches a client applies the default
    /// [`ProfileConfig::recommend`] to its allocation's state window
    /// (DESIGN.md §8). Decisions depend only on the client's own
    /// write stream and a migration re-encodes only its own allocation.
    retarget_every: u64,
    /// `None` replays the trace's own read/write mix; `Some(p)` forces each
    /// batch to be a read with probability `p`% from a deterministic
    /// per-`(seed, client, batch)` stream.
    read_pct: Option<u8>,
}

impl CellSpec {
    /// A trace-mix cell.
    const fn trace_mix(shards: usize, clients: usize, churn: u64, retarget: u64) -> Self {
        Self {
            shards,
            clients,
            churn_every: churn,
            retarget_every: retarget,
            read_pct: None,
        }
    }

    /// A 95/5 read-heavy cell.
    const fn read_heavy(shards: usize, clients: usize) -> Self {
        Self {
            shards,
            clients,
            churn_every: 0,
            retarget_every: 0,
            read_pct: Some(READ_HEAVY_PCT),
        }
    }
}

/// One replayed cell of the sweep.
#[derive(Debug, Clone)]
struct Cell {
    /// Total 128 B entries moved (reads + writes).
    entries_processed: u64,
    /// Alloc/free churn cycles the clients performed (`0` without churn).
    churn_cycles: u64,
    /// Traffic this replay added to the pool (delta of the merged
    /// counters).
    stats: AccessStats,
}

/// Runs one cell of the sweep: builds a pool sized to the clients'
/// footprint and replays the trace through it with the spec's mix.
fn measure(spec: CellSpec, entries_per_client: u64, batches_per_client: u64, seed: u64) -> Cell {
    #[expect(
        clippy::expect_used,
        reason = "the trace benchmark is compiled into the suite"
    )]
    let profile = by_name(TRACE_BENCH).expect("trace benchmark exists").access;

    // Size shards to the replay footprint (with 2× headroom) instead of a
    // flat multi-MB capacity: the backing arrays are zero-initialized, and
    // a fixed large capacity would spend more time in memset than in
    // compression.
    let clients_per_shard = spec.clients.div_ceil(spec.shards) as u64;
    let device_need =
        clients_per_shard * entries_per_client * TARGET.device_bytes_per_entry() as u64;
    let pool = BuddyPool::new(PoolConfig {
        shards: spec.shards,
        shard_config: DeviceConfig {
            device_capacity: (device_need * 2).max(1 << 20),
            carve_out_factor: 3,
        },
        ..PoolConfig::default()
    });
    #[expect(
        clippy::expect_used,
        reason = "the pool is sized with 2x headroom for every client, and a client only \
                  touches its own live allocation"
    )]
    let cell = replay(
        &pool,
        profile,
        spec,
        TARGET,
        entries_per_client,
        batches_per_client,
        seed,
    )
    .expect("sized pool completes every operation");
    cell
}

/// The write palette: a ring of entries spanning the compressibility
/// spectrum (zero / constant / ramp / noise), generated deterministically
/// from `seed`. Sized `ring + BATCH` so any batch is a contiguous window —
/// write paths borrow straight from the palette with no per-op copying.
/// The seed goes through splitmix64 first, so the adjacent per-client
/// seeds the replay hands out do not collapse to one palette.
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

/// One replaying client: its allocation and the deterministic streams
/// that decide what it does next.
struct Client {
    handle: PoolAllocId,
    palette: Vec<Entry>,
    trace: TraceGenerator,
    current_target: TargetRatio,
    cycle: u64,
}

/// Replays `spec.clients` trace streams with `profile`'s access statistics
/// against `pool`, in [`BATCH`]-entry operations, round-robin from the
/// calling thread.
///
/// Setup: each client gets one private allocation of `entries_per_client`
/// entries at `target`. Replay: every access of the client's trace becomes
/// one batched operation anchored at the access's entry index (clamped to
/// the allocation): writes draw from a seeded compressibility palette,
/// reads decompress into a reusable buffer (read *correctness* is the pool
/// crate's `tests/pool_equivalence.rs`, not re-checked here).
///
/// Returns the first [`DeviceError`] any client hits: the pool is too small
/// for `clients × entries_per_client`, or a batch or a churn/retarget cycle
/// failed. Panics on a degenerate request: zero clients, zero batches, or a
/// footprint smaller than one batch.
fn replay(
    pool: &BuddyPool,
    profile: AccessProfile,
    spec: CellSpec,
    target: TargetRatio,
    entries_per_client: u64,
    batches_per_client: u64,
    seed: u64,
) -> Result<Cell, DeviceError> {
    assert!(spec.clients > 0, "replay needs at least one client");
    assert!(batches_per_client > 0, "replay needs at least one batch");
    assert!(
        BATCH as u64 <= entries_per_client,
        "batch ({BATCH}) must fit entries_per_client ({entries_per_client})"
    );

    let mut clients: Vec<Client> = (0..spec.clients as u64)
        .map(|c| {
            Ok(Client {
                handle: pool.alloc(&format!("loadgen-client-{c}"), entries_per_client, target)?,
                palette: write_palette(seed.wrapping_add(c)),
                trace: TraceGenerator::per_client(profile, entries_per_client, seed, c),
                current_target: target,
                cycle: 0,
            })
        })
        .collect::<Result<_, DeviceError>>()?;

    let mut read_buf = vec![[0u8; ENTRY_BYTES]; BATCH];
    let max_start = entries_per_client - BATCH as u64;
    let policy = ProfileConfig::default();
    let before = pool.stats();

    for op in 0..batches_per_client {
        for (c, client) in clients.iter_mut().enumerate() {
            let c = c as u64;
            #[expect(clippy::expect_used, reason = "trace generators are infinite")]
            let access = client.trace.next().expect("trace generators are infinite");
            let start = access.entry.min(max_start);
            // The profile decides read-vs-write unless `read_pct` pins the
            // mix (deterministic per (seed, client, batch), like everything
            // else).
            let is_write = match spec.read_pct {
                Some(pct) => {
                    let roll = splitmix64(seed ^ (c << 32).wrapping_add(op)) % 100;
                    roll >= u64::from(pct.min(100))
                }
                None => access.write,
            };
            if is_write {
                let ring = client.palette.len() - BATCH;
                let window = &client.palette[(op as usize) % ring..][..BATCH];
                pool.write_entries(client.handle, start, window)?;
            } else {
                pool.read_entries(client.handle, start, &mut read_buf)?;
            }

            // After the batch: the optional re-targeting sweep.
            if spec.retarget_every > 0 && (op + 1) % spec.retarget_every == 0 {
                let window = pool.state_window(client.handle)?;
                if let Some(next) = policy.recommend(client.current_target, &window) {
                    pool.retarget(client.handle, next)?;
                    client.current_target = next;
                }
            }

            // Then the optional churn cycle — the client releases its
            // allocation and takes a fresh one of the same size, back on
            // the configured target.
            if spec.churn_every > 0 && (op + 1) % spec.churn_every == 0 {
                pool.free(client.handle)?;
                client.cycle += 1;
                client.handle = pool.alloc(
                    &format!("loadgen-client-{c}-cycle-{}", client.cycle),
                    entries_per_client,
                    target,
                )?;
                client.current_target = target;
            }
        }
    }

    // Every batch and cycle either completed or surfaced its error above,
    // so both counts are closed forms.
    let clients = spec.clients as u64;
    Ok(Cell {
        entries_processed: clients * batches_per_client * BATCH as u64,
        churn_cycles: batches_per_client
            .checked_div(spec.churn_every)
            .map_or(0, |cycles| clients * cycles),
        stats: pool.stats().since(&before),
    })
}

/// The sweep grid, 4 shards × 4 clients at both scales: the trace mix,
/// the trace mix under churn + retarget, and the read-heavy mix.
const CELLS: [CellSpec; 3] = [
    CellSpec::trace_mix(4, 4, 0, 0),
    CellSpec::trace_mix(4, 4, 8, 4),
    CellSpec::read_heavy(4, 4),
];

/// Runs the replay sweep (`reproduce-all pool-replay`) and writes
/// `results/pool_replay.csv`.
pub fn pool_replay(cfg: &RunConfig) -> io::Result<()> {
    // Equal work per cell so the traffic columns are directly comparable.
    let total_entries = cfg.scaled(2_000_000);
    let entries_per_client = if cfg.quick { 1024 } else { 4096 };

    let header = [
        "shards",
        "clients",
        "read_pct",
        "entries",
        "buddy_access_frac",
        "churn_cycles",
        "retargets",
    ];
    let rows: Vec<Vec<String>> = CELLS
        .iter()
        .map(|&spec| {
            let batches_per_client = (total_entries / (spec.clients as u64 * BATCH as u64)).max(1);
            let r = measure(spec, entries_per_client, batches_per_client, cfg.seed);
            vec![
                spec.shards.to_string(),
                spec.clients.to_string(),
                spec.read_pct
                    .map_or_else(|| "trace".to_string(), |p| p.to_string()),
                r.entries_processed.to_string(),
                pct(r.stats.buddy_access_fraction()),
                r.churn_cycles.to_string(),
                r.stats.retargets.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!("Pool replay: 4 shards × 4 clients, BPC ({TRACE_BENCH} trace)"),
        &header,
        &rows,
    );
    write_csv(&cfg.results_dir, "pool_replay", &header, &rows)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(shards: usize) -> BuddyPool {
        BuddyPool::new(PoolConfig {
            shards,
            shard_config: DeviceConfig {
                device_capacity: 4 << 20,
                carve_out_factor: 3,
            },
            ..PoolConfig::default()
        })
    }

    const SEED: u64 = 0xB0DD7;

    /// A short replay: 32 batches per client over 512-entry footprints at
    /// the sweep's target.
    fn quick(pool: &BuddyPool, profile: AccessProfile, spec: CellSpec) -> Cell {
        replay(pool, profile, spec, TARGET, 512, 32, SEED).unwrap()
    }

    #[test]
    fn replay_accounts_every_entry() {
        let spec = CellSpec::trace_mix(2, 3, 0, 0);
        let report = quick(&pool(2), AccessProfile::streaming_dl(), spec);
        assert_eq!(report.entries_processed, 3 * 32 * BATCH as u64);
        // One traffic-counter access per entry moved.
        assert_eq!(report.stats.total_accesses(), report.entries_processed);
    }

    #[test]
    fn replay_work_is_deterministic() {
        // Same seed on fresh pools ⇒ identical traffic and placement.
        let (sparse, spec) = (
            AccessProfile::random_sparse(),
            CellSpec::trace_mix(4, 4, 0, 0),
        );
        let (pool_a, pool_b) = (pool(4), pool(4));
        let a = quick(&pool_a, sparse, spec);
        let b = quick(&pool_b, sparse, spec);
        assert_eq!(a.stats, b.stats);
        assert_eq!(pool_a.fragmentation(), pool_b.fragmentation());
        assert_eq!(pool_a.largest_free_region(), pool_b.largest_free_region());
        // Different seed ⇒ different access mix (with overwhelming odds).
        let c = replay(&pool(4), sparse, spec, TARGET, 512, 32, 7).unwrap();
        assert_ne!(a.stats, c.stats);
    }

    #[test]
    fn stats_are_a_delta_not_a_total() {
        let pool = pool(1);
        let spec = CellSpec::trace_mix(1, 1, 0, 0);
        let first = quick(&pool, AccessProfile::stencil(), spec);
        let second = quick(&pool, AccessProfile::stencil(), spec);
        // The second replay allocates fresh regions but reports only its
        // own traffic, not the pool's lifetime counters.
        assert_eq!(first.stats.total_accesses(), second.stats.total_accesses());
        assert_eq!(
            pool.stats().total_accesses(),
            first.stats.total_accesses() + second.stats.total_accesses()
        );
    }

    #[test]
    fn undersized_pool_reports_allocation_failure() {
        let tiny = BuddyPool::new(PoolConfig {
            shards: 1,
            shard_config: DeviceConfig {
                device_capacity: 4096,
                carve_out_factor: 3,
            },
            ..PoolConfig::default()
        });
        let spec = CellSpec::trace_mix(1, 2, 0, 0);
        let err = replay(&tiny, AccessProfile::stencil(), spec, TARGET, 512, 32, SEED).unwrap_err();
        assert!(matches!(err, DeviceError::OutOfDeviceMemory { .. }));
    }

    #[test]
    fn retarget_sweep_fixes_mis_targeted_allocations() {
        // Clients start on the 16x zero-page target, but the palette is
        // only ~25% zero entries: the sweep must demote each client's
        // allocation (to a standard target) exactly once and then hold.
        let (dl, spec) = (
            AccessProfile::streaming_dl(),
            CellSpec::trace_mix(2, 3, 0, 4),
        );
        let report = replay(&pool(2), dl, spec, TargetRatio::ZeroPage16, 512, 96, SEED).unwrap();
        assert_eq!(
            report.stats.retargets, 3,
            "each client demotes its zero-page allocation exactly once"
        );
        assert!(report.stats.moved_sectors > 0);
        // Sweeps never lose data: every batch still completed.
        assert_eq!(report.entries_processed, 3 * 96 * BATCH as u64);
    }

    #[test]
    fn retarget_sweep_is_deterministic_and_off_by_default() {
        let sweep = CellSpec::trace_mix(4, 4, 0, 8);
        let a = quick(&pool(4), AccessProfile::stencil(), sweep);
        let b = quick(&pool(4), AccessProfile::stencil(), sweep);
        // Every per-client decision — accesses, states, migration count,
        // and since a migration re-encodes only its own allocation, even
        // `moved_sectors` — replays identically.
        assert_eq!(
            a.stats, b.stats,
            "sweep decisions and costs must replay identically for a fixed seed"
        );
        assert!(a.stats.retargets > 0, "the sweep must actually migrate");
        let plain = CellSpec::trace_mix(4, 4, 0, 0);
        let off = quick(&pool(4), AccessProfile::stencil(), plain);
        assert_eq!(off.stats.retargets, 0, "no sweep without opting in");
        assert_eq!(off.stats.moved_sectors, 0);
    }

    #[test]
    fn adjacent_seeds_generate_distinct_palettes() {
        // Regression: the palette generator used `state = seed | 1`, so
        // seeds differing only in bit 0 — exactly the adjacent per-client
        // seeds `seed + client` hands out — produced byte-identical
        // palettes and two clients replayed identical traffic.
        for seed in [0u64, 2, 0xB0DD6, 0xFFFF_FFFF_FFFF_FFFE] {
            assert_ne!(
                write_palette(seed),
                write_palette(seed | 1),
                "palettes for seeds {seed} and {} must differ",
                seed | 1
            );
        }
        // Still deterministic for a fixed seed.
        assert_eq!(write_palette(42), write_palette(42));
    }

    #[test]
    fn churn_mode_turns_the_footprint_over_without_leaking() {
        let pool = pool(2);
        let (dl, spec) = (
            AccessProfile::streaming_dl(),
            CellSpec::trace_mix(2, 3, 8, 0),
        );
        let report = replay(&pool, dl, spec, TARGET, 512, 64, SEED).unwrap();
        assert_eq!(report.churn_cycles, 3 * (64 / 8));
        // A client only churns its *own* allocation between its own
        // batches, so even under churn no batch hits a dead handle: the
        // replay returned `Ok`.
        assert_eq!(report.entries_processed, 3 * 64 * BATCH as u64);
        // Every client ends with exactly one live allocation: all churned
        // regions were freed, so the pool's footprint is the steady-state
        // 3 × 512 entries, not 3 × (cycles + 1) × 512.
        let live: usize = pool.occupancy().iter().map(|o| o.allocations).sum();
        assert_eq!(live, 3);
        assert_eq!(
            pool.device_used(),
            3 * 512 * TARGET.device_bytes_per_entry() as u64
        );
    }

    #[test]
    fn churn_replay_is_deterministic() {
        let spec = CellSpec::trace_mix(4, 4, 4, 8);
        let (pool_a, pool_b) = (pool(4), pool(4));
        let a = quick(&pool_a, AccessProfile::stencil(), spec);
        let b = quick(&pool_b, AccessProfile::stencil(), spec);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.churn_cycles, b.churn_cycles);
        // Re-allocations reach the shard router in the same order, so the
        // churned footprints land in the same places.
        assert_eq!(pool_a.fragmentation(), pool_b.fragmentation());
        assert_eq!(pool_a.largest_free_region(), pool_b.largest_free_region());
        let plain = CellSpec::trace_mix(4, 4, 0, 0);
        let off = quick(&pool(4), AccessProfile::stencil(), plain);
        assert_eq!(off.churn_cycles, 0, "no churn without opting in");
    }

    #[test]
    fn read_pct_overrides_the_profile_mix() {
        // 100% reads: no write traffic at all, whatever the profile says.
        let all_reads = CellSpec {
            read_pct: Some(100),
            ..CellSpec::read_heavy(2, 2)
        };
        let report = quick(&pool(2), AccessProfile::streaming_dl(), all_reads);
        assert_eq!(report.stats.writes_device_only, 0);
        assert_eq!(report.stats.writes_with_buddy, 0);
        assert_eq!(report.stats.total_accesses(), report.entries_processed);
        // A 95/5 mix produces *some* writes but stays read-dominated.
        let (dl, spec) = (AccessProfile::streaming_dl(), CellSpec::read_heavy(2, 2));
        let report = replay(&pool(2), dl, spec, TARGET, 512, 128, SEED).unwrap();
        let writes = report.stats.writes_device_only + report.stats.writes_with_buddy;
        let reads = report.stats.reads_device_only + report.stats.reads_with_buddy;
        assert!(writes > 0, "a 95/5 mix still writes");
        assert!(
            reads > writes * 8,
            "the mix must be read-dominated: {reads} reads vs {writes} writes"
        );
    }

    #[test]
    #[should_panic(expected = "batch")]
    fn oversized_batch_is_rejected() {
        // A footprint smaller than one batch cannot host any operation.
        let (stencil, spec) = (AccessProfile::stencil(), CellSpec::trace_mix(1, 1, 0, 0));
        let _ = replay(&pool(1), stencil, spec, TARGET, BATCH as u64 / 2, 32, SEED);
    }

    #[test]
    fn measure_cell_is_consistent() {
        let r = measure(CellSpec::trace_mix(2, 2, 0, 0), 256, 16, 11);
        assert_eq!(r.entries_processed, 2 * 16 * BATCH as u64);
        assert_eq!(r.stats.total_accesses(), r.entries_processed);
        assert_eq!(r.churn_cycles, 0);
    }

    #[test]
    fn churn_and_retarget_activity_reaches_the_report() {
        // The grid's churn cell must produce nonzero churn/retarget columns;
        // this is the plumbing the CSV relies on.
        let r = measure(CellSpec::trace_mix(2, 2, 8, 4), 256, 16, 11);
        assert!(r.churn_cycles > 0, "churn_every=8 over 16 batches cycles");
        assert!(r.stats.retargets > 0, "retarget_every=4 migrates");
    }

    #[test]
    fn read_heavy_cell_completes_every_batch_and_is_read_dominated() {
        // `measure` panics if any batch returns an error.
        let cell = measure(CellSpec::read_heavy(2, 2), 256, 16, 11);
        // 95% reads: reads dominate writes in the merged stats.
        let s = &cell.stats;
        let reads = s.reads_device_only + s.reads_with_buddy;
        let writes = s.writes_device_only + s.writes_with_buddy;
        assert!(
            reads > writes,
            "read-heavy mix: {reads} reads vs {writes} writes"
        );
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
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "shards,clients,read_pct,entries,buddy_access_frac,churn_cycles,retargets"
        );
        // The three 4 × 4 cells: trace mix, churn + retarget, read-heavy.
        let rows: Vec<Vec<&str>> = lines.map(|r| r.split(',').collect()).collect();
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert_eq!(row[..2], ["4", "4"], "{row:?}");
        }
        assert_eq!(
            rows.iter().map(|r| r[2]).collect::<Vec<_>>(),
            ["trace", "trace", "95"]
        );
        // Only the churn cell churns and re-targets.
        let active = |r: &Vec<&str>| r[5] != "0" && r[6] != "0";
        assert_eq!(
            rows.iter().map(active).collect::<Vec<_>>(),
            [false, true, false]
        );
    }
}
