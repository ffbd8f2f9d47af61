//! Concurrent trace-replay load generator for [`BuddyPool`].
//!
//! Replays `workloads` access traces from `N` client threads against a
//! pool, the multi-tenant operating regime the paper's §5 performance model
//! aggregates over. Each client owns one allocation (its private partition
//! of the replayed footprint) and drives it with a
//! [`TraceGenerator::per_client`] stream seeded deterministically from
//! `(seed, client)`, so a replay's *work* — every access, every written
//! byte, every traffic counter — is exactly reproducible; only wall-clock
//! timing varies.
//!
//! Throughput is reported as entries/s and logical GB/s. Latency is sampled
//! per **entry-batch** (one batched `write_entries`/`read_entries` call),
//! not per entry: single-entry timings at ~100 ns are dominated by timer
//! and scheduling noise, while a batch is a large enough unit of work for
//! wall-clock percentiles (p50/p95/p99/p99.9) to be meaningful. Each client
//! records into its own fixed-size [`buddy_obs::Histogram`] (no per-sample
//! allocation, no end-of-run sort) and the snapshots are merged, so the
//! replay's memory cost no longer grows with `batches_per_client`;
//! percentile error is bounded by the histogram's documented 12.5 %
//! bucket width.
//!
//! With [`LoadgenConfig::retarget_every`] set, each client additionally
//! runs the adaptive re-targeting sweep between batches (window → policy →
//! [`BuddyPool::retarget`]), so migrations execute concurrently with other
//! clients' reads and writes on the same shards — the harness's standing
//! exercise of live migration under contention (DESIGN.md §8). With
//! [`LoadgenConfig::churn_every`] set, clients also free and re-allocate
//! their footprint mid-replay (DL-iteration activation turnover), driving
//! the shards' free-list allocators concurrently with entry traffic
//! (DESIGN.md §9).
//!
//! # Example
//!
//! ```
//! use buddy_pool::{BuddyPool, PoolConfig};
//! use buddy_pool::loadgen::{replay, LoadgenConfig};
//! use workloads::AccessProfile;
//!
//! let pool = BuddyPool::new(PoolConfig { shards: 2, ..PoolConfig::default() });
//! let cfg = LoadgenConfig {
//!     clients: 2,
//!     batches_per_client: 8,
//!     batch_entries: 16,
//!     entries_per_client: 256,
//!     ..LoadgenConfig::default()
//! };
//! let report = replay(&pool, AccessProfile::streaming_dl(), &cfg)?;
//! assert_eq!(report.entries_processed, 2 * 8 * 16);
//! assert!(report.entries_per_sec > 0.0);
//! # Ok::<(), buddy_pool::DeviceError>(())
//! ```

use crate::{
    AccessStats, AdaptConfig, BuddyPool, DeviceError, Entry, PoolAllocId, RetargetPolicy,
    TargetRatio, ENTRY_BYTES,
};
use buddy_obs::{Histogram, HistogramSnapshot};
use std::time::{Duration, Instant};
use workloads::entry_gen::splitmix64;
use workloads::{AccessProfile, TraceGenerator};

/// Configuration of one replay run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadgenConfig {
    /// Concurrent client threads.
    pub clients: usize,
    /// Batched operations each client issues.
    pub batches_per_client: u64,
    /// Entries per batched operation.
    pub batch_entries: usize,
    /// Footprint (in entries) of each client's private allocation.
    pub entries_per_client: u64,
    /// Target compression ratio of the replayed allocations.
    pub target: TargetRatio,
    /// Master seed; every client derives its own stream from it.
    pub seed: u64,
    /// Re-targeting sweep period in batches (`0` disables the sweep).
    /// Every `retarget_every` batches a client pauses between operations,
    /// reads its allocation's [`StateWindow`](crate::StateWindow) and
    /// applies the default [`RetargetPolicy`]'s recommendation via
    /// [`BuddyPool::retarget`] — so a replay with the sweep enabled
    /// exercises live migration *concurrent* with other clients hammering
    /// the same shards. Decisions depend only on the client's own
    /// deterministic write stream, so each client performs the same
    /// migration sequence on every run, and since a migration re-encodes
    /// only its own allocation (alloc-new/re-encode/free-old — no
    /// neighbour is relocated), **every** counter, including
    /// [`AccessStats::moved_sectors`], replays identically regardless of
    /// thread interleaving.
    pub retarget_every: u64,
    /// Churn period in batches (`0` disables churn). Every `churn_every`
    /// batches a client **frees its allocation and allocates a fresh one**
    /// of the same size at the configured target — the DL-iteration
    /// activation-turnover regime, exercised mid-replay while other
    /// clients keep hammering the same shards. The replacement starts
    /// zeroed (like any fresh allocation) and the freed space returns to
    /// the shard's free lists, so a churning replay holds the pool at a
    /// steady footprint instead of leaking a new region per cycle.
    pub churn_every: u64,
    /// Optional read percentage override in `0..=100`. `None` (default)
    /// takes the read/write decision from the access profile's trace;
    /// `Some(p)` forces each batch to be a read with probability `p`% from
    /// a deterministic per-`(seed, client, batch)` stream — how the bench
    /// harness dials in a 95/5 read-heavy mix independent of the profile.
    pub read_pct: Option<u8>,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            clients: 4,
            batches_per_client: 512,
            batch_entries: 64,
            entries_per_client: 4096,
            target: TargetRatio::R2,
            seed: 0xB0DD7,
            retarget_every: 0,
            churn_every: 0,
            read_pct: None,
        }
    }
}

/// Latency percentiles over per-batch samples, in microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyPercentiles {
    /// Median batch latency.
    pub p50_us: f64,
    /// 95th-percentile batch latency.
    pub p95_us: f64,
    /// 99th-percentile batch latency.
    pub p99_us: f64,
    /// 99.9th-percentile batch latency.
    pub p999_us: f64,
    /// Largest single batch latency (exact, not bucketed).
    pub max_us: f64,
}

impl LatencyPercentiles {
    /// Reads the standard percentile set out of a histogram snapshot.
    /// Every estimate obeys the histogram's one-sided ≤ 12.5 % bound; the
    /// max is exact.
    pub fn from_snapshot(snap: &HistogramSnapshot) -> Self {
        Self {
            p50_us: snap.percentile_us(0.50),
            p95_us: snap.percentile_us(0.95),
            p99_us: snap.percentile_us(0.99),
            p999_us: snap.percentile_us(0.999),
            max_us: snap.max() as f64 / 1_000.0,
        }
    }
}

/// Result of one replay run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Shards in the pool the run drove.
    pub shards: usize,
    /// Client threads that replayed.
    pub clients: usize,
    /// Total 128 B entries moved (reads + writes).
    pub entries_processed: u64,
    /// Total batched operations issued.
    pub batches: u64,
    /// Wall-clock duration of the replay phase (allocations excluded).
    pub elapsed: Duration,
    /// Aggregate throughput in entries per second.
    pub entries_per_sec: f64,
    /// Aggregate logical (uncompressed) throughput in GB/s (10⁹ bytes).
    pub logical_gb_per_sec: f64,
    /// Per-batch latency percentiles across all clients.
    pub latency: LatencyPercentiles,
    /// The merged per-batch latency distribution the percentiles were read
    /// from — harnesses can [`merge`](HistogramSnapshot::merge) it across
    /// runs or absorb it into a `buddy_obs` metrics registry.
    pub latency_hist: HistogramSnapshot,
    /// Alloc/free churn cycles the clients performed
    /// ([`LoadgenConfig::churn_every`]; `0` when churn is disabled).
    pub churn_cycles: u64,
    /// Entry batches that returned a [`DeviceError`] instead of
    /// completing. Errored batches are excluded from the latency
    /// histogram and from `entries_processed`, and the count is surfaced
    /// here so a sweep can *assert* on it — previously such batches were
    /// silently dropped, letting a replay under-count real traffic
    /// regressions. Non-churn sweeps must see zero.
    pub errored_batches: u64,
    /// Traffic this replay added to the pool (delta of the merged
    /// counters, exact — taken after a [`BuddyPool::drain`] barrier).
    pub stats: AccessStats,
}

/// The write palette: a ring of entries spanning the compressibility
/// spectrum (zero / constant / ramp / noise), generated deterministically
/// from `seed`. Sized `ring + batch` so any batch is a contiguous window —
/// write paths borrow straight from the palette with no per-op copying.
///
/// The seed is diffused through splitmix64 before driving the LCG: the
/// previous `seed | 1` initialization collapsed seeds differing only in
/// bit 0 — exactly the adjacent per-client seeds the replay hands out — to
/// byte-identical palettes, so two clients replayed identical traffic.
fn write_palette(seed: u64, batch: usize) -> Vec<Entry> {
    const RING: usize = 256;
    let mut palette = Vec::with_capacity(RING + batch);
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
                let word = (slot as u32).wrapping_mul(0x9E37_79B9); // lint-allow(lossy-cast): intentional low-bit mixing for the synthetic palette
                for c in entry.chunks_exact_mut(4) {
                    c.copy_from_slice(&word.to_le_bytes());
                }
            }
            2 => {
                for (j, c) in entry.chunks_exact_mut(4).enumerate() {
                    let v = 1_000_000u32.wrapping_add((slot * 64 + j * 3) as u32); // lint-allow(lossy-cast): intentional low-bit mixing for the synthetic palette
                    c.copy_from_slice(&v.to_le_bytes());
                }
            }
            _ => {
                for b in entry.iter_mut() {
                    *b = (next() >> 33) as u8; // lint-allow(lossy-cast): intentionally keeps 8 bits of the mixed stream
                }
            }
        }
        palette.push(entry);
    }
    // Mirror the head onto the tail so window `i` equals window `i % RING`.
    for i in 0..batch {
        let e = palette[i];
        palette.push(e);
    }
    palette
}

/// Replays `cfg.clients` concurrent trace streams with `profile`'s access
/// statistics against `pool`.
///
/// Setup (outside the timed window): each client gets one private
/// allocation of `cfg.entries_per_client` entries. Replay (timed): each
/// client walks its own deterministic [`TraceGenerator`] stream; every
/// access becomes one batched operation of `cfg.batch_entries` contiguous
/// entries anchored at the access's entry index (clamped to the
/// allocation): writes draw from a seeded compressibility palette, reads
/// decompress into a reusable buffer (read *correctness* under concurrency
/// is covered by `tests/pool_equivalence.rs`, not re-checked in the timed
/// loop). Latency is sampled per batch; see the module docs for why.
///
/// # Errors
///
/// Returns the first *structural* [`DeviceError`] any client hits
/// (allocation failure when the pool is too small for
/// `clients × entries_per_client`, or a failed churn/retarget cycle).
/// Entry-batch errors do **not** abort the replay: they are counted into
/// [`LoadReport::errored_batches`] and excluded from the latency sample,
/// so a sweep can assert the count instead of silently losing batches.
///
/// # Panics
///
/// Panics if `cfg` is degenerate: zero clients, zero batches, a zero-entry
/// batch, or a batch larger than the per-client footprint.
pub fn replay(
    pool: &BuddyPool,
    profile: AccessProfile,
    cfg: &LoadgenConfig,
) -> Result<LoadReport, DeviceError> {
    assert!(cfg.clients > 0, "loadgen needs at least one client");
    assert!(
        cfg.batches_per_client > 0,
        "loadgen needs at least one batch"
    );
    assert!(
        cfg.batch_entries > 0 && cfg.batch_entries as u64 <= cfg.entries_per_client,
        "batch ({}) must be 1..=entries_per_client ({})",
        cfg.batch_entries,
        cfg.entries_per_client
    );

    let handles: Vec<PoolAllocId> = (0..cfg.clients)
        .map(|c| {
            pool.alloc(
                &format!("loadgen-client-{c}"),
                cfg.entries_per_client,
                cfg.target,
            )
        })
        .collect::<Result<_, _>>()?;

    let before = pool.drain();
    let started = Instant::now();

    let per_client: Vec<Result<(HistogramSnapshot, u64), DeviceError>> =
        std::thread::scope(|scope| {
            let workers: Vec<_> = handles
                .iter()
                .enumerate()
                .map(|(c, &handle)| {
                    let cfg = *cfg;
                    scope.spawn(move || client_run(pool, handle, profile, &cfg, c as u64))
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("loadgen client panicked")) // lint-allow(no-unwrap): a client panic must fail the whole harness run
                .collect()
        });

    let elapsed = started.elapsed();
    let after = pool.drain();

    let mut latency_hist = HistogramSnapshot::default();
    let mut errored_batches = 0u64;
    for result in per_client {
        let (hist, errored) = result?;
        latency_hist.merge(&hist);
        errored_batches += errored;
    }

    let batches = cfg.clients as u64 * cfg.batches_per_client;
    let entries_processed = (batches - errored_batches) * cfg.batch_entries as u64;
    let secs = elapsed.as_secs_f64().max(1e-9);
    // Every cycle either completed or surfaced its error above, so the
    // count is a closed form, not something the clients need to report.
    let churn_cycles = cfg
        .batches_per_client
        .checked_div(cfg.churn_every)
        .map_or(0, |cycles| cfg.clients as u64 * cycles);
    Ok(LoadReport {
        shards: pool.shard_count(),
        clients: cfg.clients,
        entries_processed,
        batches,
        elapsed,
        entries_per_sec: entries_processed as f64 / secs,
        logical_gb_per_sec: (entries_processed * ENTRY_BYTES as u64) as f64 / secs / 1e9,
        latency: LatencyPercentiles::from_snapshot(&latency_hist),
        latency_hist,
        churn_cycles,
        errored_batches,
        stats: stats_delta(&before, &after),
    })
}

/// One client thread: walks its deterministic trace, issuing one batched
/// op per access and timing each batch into a thread-local histogram.
/// Returns the latency snapshot plus the count of batches that errored
/// (counted, skipped from the sample, never silently dropped).
fn client_run(
    pool: &BuddyPool,
    mut handle: PoolAllocId,
    profile: AccessProfile,
    cfg: &LoadgenConfig,
    client: u64,
) -> Result<(HistogramSnapshot, u64), DeviceError> {
    let palette = write_palette(cfg.seed.wrapping_add(client), cfg.batch_entries);
    let ring = palette.len() - cfg.batch_entries;
    let mut trace = TraceGenerator::per_client(profile, cfg.entries_per_client, cfg.seed, client);
    let mut read_buf = vec![[0u8; ENTRY_BYTES]; cfg.batch_entries];
    let latencies = Histogram::new();
    let mut errored_batches = 0u64;
    let max_start = cfg.entries_per_client - cfg.batch_entries as u64;
    let policy = RetargetPolicy::new(AdaptConfig::default());
    let mut current_target = cfg.target;
    let mut cycle = 0u64;

    for op in 0..cfg.batches_per_client {
        let access = trace.next().expect("trace generators are infinite"); // lint-allow(no-unwrap): trace generators are infinite
        let start = access.entry.min(max_start);
        // The profile decides read-vs-write unless `read_pct` pins the mix
        // (deterministic per (seed, client, batch), like everything else).
        let is_write = match cfg.read_pct {
            Some(pct) => {
                let roll = splitmix64(cfg.seed ^ (client << 32).wrapping_add(op)) % 100;
                roll >= u64::from(pct.min(100))
            }
            None => access.write,
        };
        let timer = Instant::now();
        let outcome = if is_write {
            let window = &palette[(op as usize) % ring..][..cfg.batch_entries];
            pool.write_entries(handle, start, window)
        } else {
            pool.read_entries(handle, start, &mut read_buf)
        };
        match outcome {
            Ok(()) => {
                std::hint::black_box(&read_buf);
                latencies.record_duration(timer.elapsed());
            }
            // An errored batch is counted and excluded from the latency
            // sample — not propagated (that would abort the whole replay
            // on a transient race) and not dropped (that silently
            // under-counted real regressions).
            Err(_) => errored_batches += 1,
        }

        // Between batches: the optional re-targeting sweep. Outside the
        // latency sample (migration is a background maintenance cost, not
        // an access), inside the replay window (it contends for the shard
        // lock exactly like production migration would).
        if cfg.retarget_every > 0 && (op + 1) % cfg.retarget_every == 0 {
            let window = pool.state_window(handle)?;
            if let Some(next) = policy.recommend(current_target, &window) {
                pool.retarget(handle, next)?;
                current_target = next;
            }
        }

        // Between batches: the optional churn cycle — the client releases
        // its allocation and takes a fresh one of the same size, the
        // DL-iteration activation turnover. Freed space returns to the
        // shard free lists mid-replay while other clients keep accessing
        // the same shards; the replacement starts zeroed and back on the
        // configured target.
        if cfg.churn_every > 0 && (op + 1) % cfg.churn_every == 0 {
            pool.free(handle)?;
            cycle += 1;
            handle = pool.alloc(
                &format!("loadgen-client-{client}-cycle-{cycle}"),
                cfg.entries_per_client,
                cfg.target,
            )?;
            current_target = cfg.target;
        }
    }
    Ok((latencies.snapshot(), errored_batches))
}

/// Field-wise difference of two monotonically increasing counter sets.
fn stats_delta(before: &AccessStats, after: &AccessStats) -> AccessStats {
    AccessStats {
        reads_device_only: after.reads_device_only - before.reads_device_only,
        reads_with_buddy: after.reads_with_buddy - before.reads_with_buddy,
        writes_device_only: after.writes_device_only - before.writes_device_only,
        writes_with_buddy: after.writes_with_buddy - before.writes_with_buddy,
        device_sectors: after.device_sectors - before.device_sectors,
        buddy_sectors: after.buddy_sectors - before.buddy_sectors,
        retargets: after.retargets - before.retargets,
        moved_sectors: after.moved_sectors - before.moved_sectors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeviceConfig, PoolConfig};

    fn pool(shards: usize) -> BuddyPool {
        BuddyPool::new(PoolConfig {
            shards,
            shard_config: DeviceConfig {
                device_capacity: 4 << 20,
                carve_out_factor: 3,
            },
            codec: crate::CodecKind::Bpc,
        })
    }

    fn quick_cfg(clients: usize) -> LoadgenConfig {
        LoadgenConfig {
            clients,
            batches_per_client: 32,
            batch_entries: 16,
            entries_per_client: 512,
            ..LoadgenConfig::default()
        }
    }

    #[test]
    fn replay_accounts_every_entry() {
        let pool = pool(2);
        let report = replay(&pool, AccessProfile::streaming_dl(), &quick_cfg(3)).unwrap();
        assert_eq!(report.clients, 3);
        assert_eq!(report.shards, 2);
        assert_eq!(report.batches, 3 * 32);
        assert_eq!(report.entries_processed, 3 * 32 * 16);
        assert_eq!(
            report.errored_batches, 0,
            "a non-churn sweep must complete every batch"
        );
        // One traffic-counter access per entry moved.
        assert_eq!(report.stats.total_accesses(), report.entries_processed);
        assert!(report.entries_per_sec > 0.0);
        assert!(report.logical_gb_per_sec > 0.0);
        assert!(report.latency.p50_us <= report.latency.p95_us);
        assert!(report.latency.p95_us <= report.latency.p99_us);
        assert!(report.latency.p99_us <= report.latency.p999_us);
        assert!(report.latency.p999_us <= report.latency.max_us);
        assert!(report.latency.max_us > 0.0);
    }

    #[test]
    fn replay_work_is_deterministic() {
        // Same seed on fresh pools ⇒ identical traffic, whatever the
        // thread interleaving was.
        let a = replay(&pool(4), AccessProfile::random_sparse(), &quick_cfg(4)).unwrap();
        let b = replay(&pool(4), AccessProfile::random_sparse(), &quick_cfg(4)).unwrap();
        assert_eq!(a.stats, b.stats);
        // Different seed ⇒ different access mix (with overwhelming odds).
        let other = LoadgenConfig {
            seed: 7,
            ..quick_cfg(4)
        };
        let c = replay(&pool(4), AccessProfile::random_sparse(), &other).unwrap();
        assert_ne!(a.stats, c.stats);
    }

    #[test]
    fn stats_are_a_delta_not_a_total() {
        let pool = pool(1);
        let first = replay(&pool, AccessProfile::stencil(), &quick_cfg(1)).unwrap();
        let second = replay(&pool, AccessProfile::stencil(), &quick_cfg(1)).unwrap();
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
            codec: crate::CodecKind::Bpc,
        });
        let err = replay(&tiny, AccessProfile::stencil(), &quick_cfg(2)).unwrap_err();
        assert!(matches!(err, DeviceError::OutOfDeviceMemory { .. }));
    }

    #[test]
    fn retarget_sweep_fixes_mis_targeted_allocations() {
        // Clients start on the 16x zero-page target, but the palette is
        // only ~25% zero entries: the sweep must demote each client's
        // allocation (to a standard target) exactly once and then hold.
        let pool = pool(2);
        let cfg = LoadgenConfig {
            target: TargetRatio::ZeroPage16,
            retarget_every: 4,
            batches_per_client: 96,
            ..quick_cfg(3)
        };
        let report = replay(&pool, AccessProfile::streaming_dl(), &cfg).unwrap();
        assert_eq!(
            report.stats.retargets, 3,
            "each client demotes its zero-page allocation exactly once"
        );
        assert!(report.stats.moved_sectors > 0);
        // Sweeps never lose data: each allocation still answers reads and
        // no longer sits on the zero-page target.
        assert_eq!(report.entries_processed, 3 * 96 * 16);
    }

    #[test]
    fn retarget_sweep_is_deterministic_and_off_by_default() {
        let sweep_cfg = LoadgenConfig {
            retarget_every: 8,
            ..quick_cfg(4)
        };
        let a = replay(&pool(4), AccessProfile::stencil(), &sweep_cfg).unwrap();
        let b = replay(&pool(4), AccessProfile::stencil(), &sweep_cfg).unwrap();
        // Every per-client decision — accesses, states, migration count,
        // and since a migration re-encodes only its own allocation, even
        // `moved_sectors` — replays identically whatever the scheduler did.
        assert_eq!(
            a.stats, b.stats,
            "sweep decisions and costs must replay identically for a fixed seed"
        );
        assert!(a.stats.retargets > 0, "the sweep must actually migrate");
        let off = replay(&pool(4), AccessProfile::stencil(), &quick_cfg(4)).unwrap();
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
                write_palette(seed, 16),
                write_palette(seed | 1, 16),
                "palettes for seeds {seed} and {} must differ",
                seed | 1
            );
        }
        // Still deterministic for a fixed seed.
        assert_eq!(write_palette(42, 16), write_palette(42, 16));
    }

    #[test]
    fn churn_mode_turns_the_footprint_over_without_leaking() {
        let pool = pool(2);
        let cfg = LoadgenConfig {
            churn_every: 8,
            batches_per_client: 64,
            ..quick_cfg(3)
        };
        let report = replay(&pool, AccessProfile::streaming_dl(), &cfg).unwrap();
        assert_eq!(report.churn_cycles, 3 * (64 / 8));
        // A client only churns its *own* allocation between its own
        // batches, so even under churn no batch hits a dead handle.
        assert_eq!(report.errored_batches, 0);
        assert_eq!(report.entries_processed, 3 * 64 * 16);
        // Every client ends with exactly one live allocation: all churned
        // regions were freed, so the pool's footprint is the steady-state
        // 3 × 512 entries, not 3 × (cycles + 1) × 512.
        let live: usize = pool.occupancy().iter().map(|o| o.allocations).sum();
        assert_eq!(live, 3);
        assert_eq!(
            pool.device_used(),
            3 * 512 * cfg.target.device_bytes_per_entry() as u64
        );
    }

    #[test]
    fn churn_replay_is_deterministic() {
        let cfg = LoadgenConfig {
            churn_every: 4,
            retarget_every: 8,
            ..quick_cfg(4)
        };
        let a = replay(&pool(4), AccessProfile::stencil(), &cfg).unwrap();
        let b = replay(&pool(4), AccessProfile::stencil(), &cfg).unwrap();
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.churn_cycles, b.churn_cycles);
        let off = replay(&pool(4), AccessProfile::stencil(), &quick_cfg(4)).unwrap();
        assert_eq!(off.churn_cycles, 0, "no churn without opting in");
    }

    #[test]
    fn read_pct_overrides_the_profile_mix() {
        // 100% reads: no write traffic at all, whatever the profile says.
        let all_reads = LoadgenConfig {
            read_pct: Some(100),
            ..quick_cfg(2)
        };
        let report = replay(&pool(2), AccessProfile::streaming_dl(), &all_reads).unwrap();
        assert_eq!(report.errored_batches, 0);
        assert_eq!(report.stats.writes_device_only, 0);
        assert_eq!(report.stats.writes_with_buddy, 0);
        assert_eq!(report.stats.total_accesses(), report.entries_processed);
        // A 95/5 mix produces *some* writes but stays read-dominated.
        let read_heavy = LoadgenConfig {
            read_pct: Some(95),
            batches_per_client: 128,
            ..quick_cfg(2)
        };
        let report = replay(&pool(2), AccessProfile::streaming_dl(), &read_heavy).unwrap();
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
        let cfg = LoadgenConfig {
            batch_entries: 1024,
            entries_per_client: 512,
            ..quick_cfg(1)
        };
        let _ = replay(&pool(1), AccessProfile::stencil(), &cfg);
    }
}
