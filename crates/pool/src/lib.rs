//! A sharded, thread-safe pool of Buddy-Compression devices.
//!
//! The paper's performance story (§5) is about *aggregate* traffic: every SM
//! issues entry reads and writes concurrently, and the compressed data path
//! must serve many simultaneous access streams. This crate scales the
//! functional [`BuddyDevice`] out by sharding — a [`BuddyPool`] owns `N`
//! devices and routes every allocation (with all of its entries) to one
//! shard by hashing — and serves *entry I/O without taking any shard
//! lock*: every read and write resolves a handle against the shard's
//! epoch-published allocation snapshot.
//!
//! # Concurrency model: epoch-published snapshots, locks only for structure
//!
//! Each shard's state is split in two (see DESIGN.md §7):
//!
//! 1. **The published half** — compressed bytes, per-entry metadata
//!    nibbles, and a per-allocation seqlock-protected descriptor table
//!    (target, entry count, region bases, generation). [`read_entries`],
//!    [`read_entries_collect`], [`entry_state`] and
//!    [`state_window`] resolve against one consistent published epoch and
//!    never touch a shard mutex: a read racing a `free` or `retarget`
//!    observes the old epoch in full, the new epoch in full, or
//!    [`DeviceError::BadAllocation`] — never a blend. Entry writes also
//!    bypass the shard mutex, taking turns only on the target allocation's
//!    sequence window.
//! 2. **The mutable half** — region allocators, the name table, and slot
//!    bookkeeping — stays behind the shard's `Mutex<BuddyDevice>`. Only
//!    the structural operations ([`alloc`](BuddyPool::alloc),
//!    [`free`](BuddyPool::free), [`retarget`](BuddyPool::retarget)) and
//!    the stats and occupancy readers take it; each structural change
//!    publishes a new epoch before its storage can be reused.
//!
//! Contention on the structural path is bounded by sharding (allocations
//! hash across shards); the entry data path has no pool-level contention
//! at all — the `read-path-lock` xtask lint pins the read path lock-free,
//! and a unit test holding every shard lock pins the whole entry path,
//! writes included.
//!
//! A pool with **one shard is observably identical to a bare
//! [`BuddyDevice`]**: same bytes on every read, same traffic counters —
//! property-tested in `tests/pool_equivalence.rs`.
//!
//! [`read_entries`]: BuddyPool::read_entries
//! [`read_entries_collect`]: BuddyPool::read_entries_collect
//! [`entry_state`]: BuddyPool::entry_state
//! [`state_window`]: BuddyPool::state_window
//!
//! # Example
//!
//! ```
//! use buddy_pool::{BuddyPool, PoolConfig, TargetRatio};
//!
//! let pool = BuddyPool::new(PoolConfig { shards: 2, ..PoolConfig::default() });
//! let alloc = pool.alloc("tensor", 1024, TargetRatio::R2)?;
//! let entry = [7u8; 128];
//! pool.write_entries(alloc, 0, &[entry, entry])?;
//! let mut out = [[0u8; 128]; 2];
//! pool.read_entries(alloc, 0, &mut out)?;
//! assert_eq!(out, [entry, entry]);
//! assert_eq!(pool.stats().total_accesses(), 4);
//! # Ok::<(), buddy_pool::DeviceError>(())
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

pub use bpc::{CodecKind, Entry, SizeHistogram, ENTRY_BYTES};
pub use buddy_core::{
    AccessStats, BuddyDevice, DeviceConfig, DeviceError, DeviceHandle, EntryState, RetargetReport,
    SharedStats, TargetRatio,
};

use buddy_core::AllocId;
use buddy_obs::Counter;
#[expect(
    clippy::disallowed_types,
    reason = "route_seq is the shard-routing sequence, not a metric"
)]
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Configuration of a [`BuddyPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Number of independent shards (each one full [`BuddyDevice`]).
    pub shards: usize,
    /// Configuration of every shard device. Total pool capacity is
    /// `shards × shard_config.device_capacity`.
    pub shard_config: DeviceConfig,
    /// Always [`CodecKind::Bpc`]: shard devices store BPC streams only.
    /// The field is kept only while the repo benchmark
    /// (`benchmark/src/rungs.rs`) still names it; it goes once the
    /// benchmark stops naming it (ROADMAP item 1c).
    pub codec: CodecKind,
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            shard_config: DeviceConfig::default(),
            codec: CodecKind::Bpc,
        }
    }
}

/// Handle to one allocation in a [`BuddyPool`]: the shard it lives on plus
/// the per-shard allocation id. Every entry of an allocation lives on a
/// single shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PoolAllocId {
    shard: u32,
    inner: AllocId,
}

impl PoolAllocId {
    /// Index of the shard this allocation lives on.
    pub fn shard(&self) -> usize {
        self.shard as usize
    }
}

/// Point-in-time occupancy of one shard (see [`BuddyPool::occupancy`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardOccupancy {
    /// Shard index.
    pub shard: usize,
    /// Allocations resident on this shard.
    pub allocations: usize,
    /// Device bytes consumed by allocations.
    pub device_used: u64,
    /// Usable device bytes.
    pub device_capacity: u64,
    /// Buddy carve-out bytes reserved.
    pub buddy_used: u64,
    /// Uncompressed bytes represented by the shard's allocations.
    pub logical_bytes: u64,
    /// Effective device compression ratio (1.0 when empty).
    pub effective_ratio: f64,
    /// Free device bytes on this shard.
    pub device_free: u64,
    /// Largest contiguous free device region on this shard, in bytes.
    pub largest_free_region: u64,
    /// Device free-space fragmentation of this shard in `[0, 1]`:
    /// `1 − largest_free_region / device_free` (0.0 when nothing is free).
    pub fragmentation: f64,
    /// Traffic counters accumulated by this shard.
    pub stats: AccessStats,
}

/// A sharded, thread-safe pool of Buddy-Compression devices.
///
/// All access methods take `&self` and are safe to call from many threads
/// concurrently; see the crate docs for the locking model.
#[derive(Debug)]
pub struct BuddyPool {
    shards: Vec<Mutex<BuddyDevice>>,
    /// One lock-free [`DeviceHandle`] per shard, in shard order; the entry
    /// data path resolves against these and never locks `shards`.
    handles: Vec<DeviceHandle>,
    config: PoolConfig,
    /// Monotonic allocation sequence number, folded into the shard hash so
    /// repeated allocations under one name still spread across shards.
    #[expect(
        clippy::disallowed_types,
        reason = "allocation sequence for shard routing, not a metric"
    )]
    route_seq: AtomicU64,
    /// Shard locks acquired by [`alloc`](Self::alloc) (home attempt + ring
    /// probes). Pins the probe discipline: a non-capacity home error must
    /// not walk the ring.
    alloc_shard_probes: Counter,
}

// The whole point of the pool: it must be shareable across client threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<BuddyPool>();
    assert_send_sync::<PoolAllocId>();
    assert_send_sync::<ShardOccupancy>();
};

impl BuddyPool {
    /// Creates a pool of `config.shards` identical devices.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards` is zero or exceeds `u32::MAX` (shard
    /// indices travel inside [`PoolAllocId`] as `u32`), or if
    /// `config.codec` is not [`CodecKind::Bpc`].
    pub fn new(config: PoolConfig) -> Self {
        assert!(config.shards > 0, "pool needs at least one shard");
        assert!(
            config.codec == CodecKind::Bpc,
            "shard devices store BPC streams only"
        );
        assert!(
            u32::try_from(config.shards).is_ok(),
            "shard count must fit a u32 handle index"
        );
        let mut shards = Vec::with_capacity(config.shards);
        let mut handles = Vec::with_capacity(config.shards);
        for _ in 0..config.shards {
            let device = BuddyDevice::new(config.shard_config);
            handles.push(device.handle());
            shards.push(Mutex::new(device));
        }
        Self {
            shards,
            handles,
            config,
            #[expect(
                clippy::disallowed_types,
                reason = "shard-routing sequence, not a metric"
            )]
            route_seq: AtomicU64::new(0),
            alloc_shard_probes: Counter::default(),
        }
    }

    /// The pool configuration.
    pub fn config(&self) -> PoolConfig {
        self.config
    }

    /// Locks one shard. A poisoned lock is recovered. The device's
    /// published half changes only inside seqlock windows, which
    /// `SeqWindow` closes on unwind, so no reader spins on a dead writer;
    /// its structural half (region allocators, slot bookkeeping) is
    /// reached only through `&mut BuddyDevice` under this lock. Whether a
    /// structural operation that panics midway leaves that half consistent
    /// is open: no poison policy is chosen yet (fence the shard off behind
    /// a typed error, or make structural operations panic-atomic).
    fn shard(&self, index: usize) -> MutexGuard<'_, BuddyDevice> {
        match self.shards[index].lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Resolves a handle to its shard, rejecting handles from a differently
    /// sized pool. Structural operations only — the entry data path goes
    /// through [`handle_of`](Self::handle_of) and never locks a shard.
    fn guard_of(&self, id: PoolAllocId) -> Result<MutexGuard<'_, BuddyDevice>, DeviceError> {
        if id.shard() >= self.shards.len() {
            return Err(DeviceError::BadAllocation);
        }
        Ok(self.shard(id.shard()))
    }

    /// Resolves a handle to its shard's lock-free [`DeviceHandle`],
    /// rejecting handles from a differently sized pool.
    fn handle_of(&self, id: PoolAllocId) -> Result<&DeviceHandle, DeviceError> {
        self.handles
            .get(id.shard())
            .ok_or(DeviceError::BadAllocation)
    }

    /// Allocates `entries` 128 B memory-entries with the given target ratio
    /// on the shard the allocation hashes to.
    ///
    /// The home shard is `hash(name, sequence) % shards`; if it lacks
    /// *capacity* the remaining shards are probed in ring order, so the
    /// pool only reports out-of-memory when *no* shard can host the
    /// allocation (the error reported is the home shard's). Non-capacity
    /// errors — a [`DeviceError::RequestOverflow`], for instance — are the
    /// request's fault, not the shard's: they surface immediately without
    /// touching (or locking) any other shard. With one shard this
    /// degenerates to exactly [`BuddyDevice::alloc`].
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::EmptyAllocation`] for a zero-entry request
    /// (rejected up front, identically to [`BuddyDevice::alloc`] — no
    /// shard is probed), and [`DeviceError::OutOfDeviceMemory`] /
    /// [`DeviceError::OutOfBuddyMemory`] if every shard is exhausted.
    pub fn alloc(
        &self,
        name: &str,
        entries: u64,
        target: TargetRatio,
    ) -> Result<PoolAllocId, DeviceError> {
        if entries == 0 {
            return Err(DeviceError::EmptyAllocation);
        }
        let seq = self.route_seq.fetch_add(1, Ordering::Relaxed); // Relaxed: the sequence only feeds shard hashing with unique ids; no memory is published through it
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a hash modulo the shard count is below that count"
        )]
        let home = (shard_hash(name, seq) % self.shards.len() as u64) as usize;
        // The home shard is probed first and is the one whose error the
        // pool reports when every shard is exhausted.
        self.alloc_shard_probes.incr();
        let home_error = match self.shard(home).alloc(name, entries, target) {
            Ok(inner) => {
                return Ok(PoolAllocId {
                    #[expect(
                        clippy::cast_possible_truncation,
                        reason = "shard count is validated to fit u32 in BuddyPool::new"
                    )]
                    shard: home as u32,
                    inner,
                });
            }
            Err(e) => e,
        };
        // Ring-probe only on capacity exhaustion: a malformed request
        // fails identically everywhere, and walking the ring for it would
        // take every shard lock for nothing.
        if home_error.is_capacity() {
            for probe in 1..self.shards.len() {
                let index = (home + probe) % self.shards.len();
                self.alloc_shard_probes.incr();
                if let Ok(inner) = self.shard(index).alloc(name, entries, target) {
                    return Ok(PoolAllocId {
                        #[expect(
                            clippy::cast_possible_truncation,
                            reason = "shard count is validated to fit u32 in BuddyPool::new"
                        )]
                        shard: index as u32,
                        inner,
                    });
                }
            }
        }
        Err(home_error)
    }

    /// Total shard locks acquired by [`alloc`](Self::alloc) so far (home
    /// attempts plus capacity ring probes). A successful or failed alloc on
    /// a healthy home shard costs exactly one.
    pub fn alloc_shard_probes(&self) -> u64 {
        self.alloc_shard_probes.get()
    }

    /// Releases an allocation ([`BuddyDevice::free`] semantics), returning
    /// its device/buddy/metadata reservations to the owning shard's free
    /// lists under that shard's lock. The handle — and every copy of it —
    /// is dead afterwards: ids are generational, so later allocations can
    /// reuse the space without a stale handle ever aliasing them.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::BadAllocation`] for foreign, stale or
    /// already-freed handles.
    pub fn free(&self, id: PoolAllocId) -> Result<(), DeviceError> {
        self.guard_of(id)?.free(id.inner)
    }

    /// Writes a contiguous run of entries ([`DeviceHandle::write_entries`]
    /// semantics; the whole batch executes under the allocation's write
    /// lock, so it is atomic with respect to other writers of the same
    /// allocation — no shard lock is taken, so writes to other allocations
    /// of the same shard and all reads proceed concurrently).
    ///
    /// # Errors
    ///
    /// As [`BuddyDevice::write_entries`].
    pub fn write_entries(
        &self,
        id: PoolAllocId,
        start: u64,
        entries: &[Entry],
    ) -> Result<(), DeviceError> {
        self.handle_of(id)?.write_entries(id.inner, start, entries)
    }

    /// [`write_entries`](Self::write_entries), additionally returning the
    /// traffic this batch generated
    /// ([`DeviceHandle::write_entries_collect`] semantics). The delta is
    /// the batch's own traffic, computed from the batch itself rather than
    /// sampled from shared counters, so it is exact even under
    /// concurrency — the basis for per-tenant attribution in the service
    /// layer.
    ///
    /// # Errors
    ///
    /// As [`BuddyDevice::write_entries`].
    pub fn write_entries_collect(
        &self,
        id: PoolAllocId,
        start: u64,
        entries: &[Entry],
    ) -> Result<AccessStats, DeviceError> {
        self.handle_of(id)?
            .write_entries_collect(id.inner, start, entries)
    }

    /// Reads a contiguous run of entries against one consistent published
    /// epoch ([`DeviceHandle::read_entries`] semantics) — lock-free: no
    /// shard mutex is taken. A batch racing a structural operation
    /// observes the old or the new epoch in full, never a blend.
    ///
    /// # Errors
    ///
    /// As [`DeviceHandle::read_entries`] (on error `out` may hold partial
    /// bytes from an abandoned attempt and must not be used).
    pub fn read_entries(
        &self,
        id: PoolAllocId,
        start: u64,
        out: &mut [Entry],
    ) -> Result<(), DeviceError> {
        self.handle_of(id)?.read_entries(id.inner, start, out)
    }

    /// [`read_entries`](Self::read_entries), additionally returning the
    /// traffic this batch generated
    /// ([`DeviceHandle::read_entries_collect`] semantics); see
    /// [`write_entries_collect`](Self::write_entries_collect).
    ///
    /// # Errors
    ///
    /// As [`read_entries`](Self::read_entries).
    pub fn read_entries_collect(
        &self,
        id: PoolAllocId,
        start: u64,
        out: &mut [Entry],
    ) -> Result<AccessStats, DeviceError> {
        self.handle_of(id)?
            .read_entries_collect(id.inner, start, out)
    }

    /// Per-entry state without touching traffic counters — lock-free
    /// ([`DeviceHandle::entry_state`] semantics).
    ///
    /// # Errors
    ///
    /// As [`DeviceHandle::entry_state`].
    pub fn entry_state(&self, id: PoolAllocId, index: u64) -> Result<EntryState, DeviceError> {
        self.handle_of(id)?.entry_state(id.inner, index)
    }

    /// Migrates an allocation to a new target ratio
    /// ([`BuddyDevice::retarget`] semantics). The whole migration executes
    /// under the owning shard's lock: clients of the same shard are
    /// serialized past it and can never observe a half-migrated
    /// allocation, while other shards keep serving (DESIGN.md §8).
    ///
    /// # Errors
    ///
    /// As [`BuddyDevice::retarget`]; on error the shard is unchanged.
    pub fn retarget(
        &self,
        id: PoolAllocId,
        new_target: TargetRatio,
    ) -> Result<RetargetReport, DeviceError> {
        self.guard_of(id)?.retarget(id.inner, new_target)
    }

    /// An allocation's live metadata states as a size-class histogram for
    /// the online re-targeting policy ([`DeviceHandle::state_window`]
    /// semantics; a traffic-free metadata scan against one consistent
    /// published epoch, no shard lock).
    ///
    /// # Errors
    ///
    /// As [`DeviceHandle::state_window`].
    pub fn state_window(&self, id: PoolAllocId) -> Result<SizeHistogram, DeviceError> {
        self.handle_of(id)?.state_window(id.inner)
    }

    /// Pool-wide traffic counters: the merge of every shard's
    /// [`BuddyDevice::stats`]. Shards are sampled one at a time, so counts
    /// from operations racing this call may or may not be included — totals
    /// are exact once the caller's clients have returned.
    pub fn stats(&self) -> AccessStats {
        let mut merged = AccessStats::default();
        for index in 0..self.shards.len() {
            merged.merge(&self.shard(index).stats());
        }
        merged
    }

    /// A merged stats snapshot that no structural operation straddles.
    ///
    /// All shard locks are acquired (in index order — the only multi-lock
    /// path in the crate, so no deadlock) and held together while the
    /// shards' stats are merged, so every `alloc`/`free`/`retarget` lands
    /// wholly before or wholly after the snapshot. Entry I/O takes no shard
    /// lock and is not waited for: as with [`stats`](Self::stats), its
    /// totals are exact once the caller's clients have returned.
    pub fn drain(&self) -> AccessStats {
        let guards: Vec<MutexGuard<'_, BuddyDevice>> =
            (0..self.shards.len()).map(|i| self.shard(i)).collect();
        let mut merged = AccessStats::default();
        for guard in &guards {
            merged.merge(&guard.stats());
        }
        merged
    }

    /// Point-in-time occupancy of every shard, in shard order.
    pub fn occupancy(&self) -> Vec<ShardOccupancy> {
        (0..self.shards.len())
            .map(|index| {
                let guard = self.shard(index);
                ShardOccupancy {
                    shard: index,
                    allocations: guard.allocation_count(),
                    device_used: guard.device_used(),
                    device_capacity: guard.config().device_capacity,
                    buddy_used: guard.buddy_used(),
                    logical_bytes: guard.logical_bytes(),
                    effective_ratio: guard.effective_ratio(),
                    device_free: guard.device_free(),
                    largest_free_region: guard.largest_free_region(),
                    fragmentation: guard.fragmentation(),
                    stats: guard.stats(),
                }
            })
            .collect()
    }

    /// Device bytes consumed across all shards.
    pub fn device_used(&self) -> u64 {
        (0..self.shards.len())
            .map(|i| self.shard(i).device_used())
            .sum()
    }

    /// Largest contiguous free device region on any shard, in bytes.
    ///
    /// This is the largest single allocation the pool could host without
    /// coalescing — allocations never span shards, so the pool-level figure
    /// is the per-shard maximum, not a sum.
    pub fn largest_free_region(&self) -> u64 {
        (0..self.shards.len())
            .map(|i| self.shard(i).largest_free_region())
            .max()
            .unwrap_or(0)
    }

    /// Pool-wide device free-space fragmentation in `[0, 1]`:
    /// `1 − largest_free_region / device_free` (0.0 when nothing is free).
    ///
    /// Mirrors [`BuddyDevice::fragmentation`] but over the pool: free bytes
    /// sum across shards while the largest placeable region does not, so a
    /// pool whose free space is spread evenly over many shards reports
    /// *higher* fragmentation than any single shard — which is exactly the
    /// placement reality a large request faces.
    ///
    /// Each shard's free total and largest free run are sampled under one
    /// acquisition of its lock, so every shard contributes `largest ≤ free`
    /// and the result stays in range while other threads alloc and free.
    pub fn fragmentation(&self) -> f64 {
        let (free, largest) = (0..self.shards.len()).fold((0u64, 0u64), |(free, largest), i| {
            let shard = self.shard(i);
            (
                free + shard.device_free(),
                largest.max(shard.largest_free_region()),
            )
        });
        if free == 0 {
            return 0.0;
        }
        1.0 - largest as f64 / free as f64
    }
}

/// Deterministic shard routing hash: FNV-1a over the allocation name,
/// folded with the pool-wide allocation sequence number.
fn shard_hash(name: &str, seq: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    for b in seq.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_pool(shards: usize) -> BuddyPool {
        BuddyPool::new(PoolConfig {
            shards,
            shard_config: DeviceConfig {
                device_capacity: 1 << 20,
                carve_out_factor: 3,
            },
            ..PoolConfig::default()
        })
    }

    /// Single-entry read as a batch of one.
    fn read1(pool: &BuddyPool, id: PoolAllocId, index: u64) -> Result<Entry, DeviceError> {
        let mut out = [[0u8; ENTRY_BYTES]];
        pool.read_entries(id, index, &mut out)?;
        Ok(out[0])
    }

    fn entry_of_words(mut f: impl FnMut(usize) -> u32) -> Entry {
        let mut e = [0u8; ENTRY_BYTES];
        for (i, c) in e.chunks_exact_mut(4).enumerate() {
            c.copy_from_slice(&f(i).to_le_bytes());
        }
        e
    }

    #[test]
    fn round_trips_across_shards() {
        let pool = small_pool(4);
        let entries: Vec<Entry> = (0..32)
            .map(|i| entry_of_words(|j| i * 131 + j as u32))
            .collect();
        let mut handles = Vec::new();
        for i in 0..8 {
            handles.push(pool.alloc(&format!("a{i}"), 32, TargetRatio::R2).unwrap());
        }
        for &h in &handles {
            pool.write_entries(h, 0, &entries).unwrap();
        }
        for &h in &handles {
            let mut out = vec![[0u8; ENTRY_BYTES]; 32];
            pool.read_entries(h, 0, &mut out).unwrap();
            assert_eq!(out, entries);
        }
    }

    #[test]
    fn allocations_spread_across_shards() {
        let pool = small_pool(4);
        for i in 0..32 {
            pool.alloc(&format!("alloc-{i}"), 64, TargetRatio::R2)
                .unwrap();
        }
        let occupied = pool
            .occupancy()
            .iter()
            .filter(|o| o.allocations > 0)
            .count();
        assert!(
            occupied >= 3,
            "32 hashed allocations should land on ≥3 of 4 shards, got {occupied}"
        );
    }

    #[test]
    fn fragmentation_stays_in_range_while_a_shard_churns() {
        // One shard that a 64-entry R1 allocation all but fills: a `free`
        // landing between a sample of the free total (128 B) and a sample
        // of the largest run (the whole shard) would read as -64.
        let pool = BuddyPool::new(PoolConfig {
            shards: 1,
            shard_config: DeviceConfig {
                device_capacity: 65 * 128,
                carve_out_factor: 3,
            },
            ..PoolConfig::default()
        });
        let start = std::sync::Barrier::new(2);
        let churning = std::sync::atomic::AtomicBool::new(true);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                start.wait();
                for _ in 0..20_000 {
                    let id = pool.alloc("filler", 64, TargetRatio::R1).unwrap();
                    pool.free(id).unwrap();
                }
                churning.store(false, std::sync::atomic::Ordering::SeqCst);
            });
            start.wait();
            while churning.load(std::sync::atomic::Ordering::SeqCst) {
                let f = pool.fragmentation();
                assert!((0.0..=1.0).contains(&f), "fragmentation {f} out of range");
            }
        });
    }

    #[test]
    fn full_home_shard_falls_back_to_a_neighbor() {
        // Shards fit exactly one 64-entry R1 allocation (64 × 128 B).
        let pool = BuddyPool::new(PoolConfig {
            shards: 4,
            shard_config: DeviceConfig {
                device_capacity: 64 * 128,
                carve_out_factor: 3,
            },
            ..PoolConfig::default()
        });
        // Four same-sized allocations must all succeed (one per shard,
        // wherever they hash), and the fifth must fail pool-wide.
        for i in 0..4 {
            pool.alloc(&format!("fill{i}"), 64, TargetRatio::R1)
                .unwrap();
        }
        for o in pool.occupancy() {
            assert_eq!(o.allocations, 1, "shard {} must host exactly one", o.shard);
        }
        let err = pool.alloc("overflow", 64, TargetRatio::R1).unwrap_err();
        assert!(matches!(err, DeviceError::OutOfDeviceMemory { .. }));
    }

    #[test]
    fn merged_stats_match_per_shard_sum() {
        let pool = small_pool(2);
        let a = pool.alloc("a", 16, TargetRatio::R2).unwrap();
        let b = pool.alloc("b", 16, TargetRatio::R2).unwrap();
        let data = [entry_of_words(|j| 7 + j as u32); 8];
        pool.write_entries(a, 0, &data).unwrap();
        pool.write_entries(b, 0, &data).unwrap();
        let mut out = [[0u8; ENTRY_BYTES]; 8];
        pool.read_entries(a, 0, &mut out).unwrap();
        let merged = pool.stats();
        let by_hand = pool
            .occupancy()
            .iter()
            .fold(AccessStats::default(), |mut acc, o| {
                acc.merge(&o.stats);
                acc
            });
        assert_eq!(merged, by_hand);
        assert_eq!(merged.total_accesses(), 24);
        assert_eq!(pool.drain(), merged, "drain sees the same totals");
    }

    #[test]
    fn concurrent_clients_round_trip_their_own_data() {
        let pool = small_pool(4);
        let handles: Vec<PoolAllocId> = (0..4)
            .map(|c| {
                pool.alloc(&format!("client{c}"), 256, TargetRatio::R2)
                    .unwrap()
            })
            .collect();
        std::thread::scope(|scope| {
            for (c, &h) in handles.iter().enumerate() {
                let pool = &pool;
                scope.spawn(move || {
                    for round in 0..16u32 {
                        let batch: Vec<Entry> = (0..32)
                            .map(|i| entry_of_words(|j| c as u32 * 1000 + round + i + j as u32))
                            .collect();
                        pool.write_entries(h, (round as u64 * 16) % 224, &batch)
                            .unwrap();
                        let mut out = vec![[0u8; ENTRY_BYTES]; 32];
                        pool.read_entries(h, (round as u64 * 16) % 224, &mut out)
                            .unwrap();
                        // The client owns its allocation exclusively, so
                        // read-after-write must return its own bytes even
                        // under cross-client concurrency.
                        assert_eq!(out, batch, "client {c} round {round}");
                    }
                });
            }
        });
        let stats = pool.drain();
        assert_eq!(stats.total_accesses(), 4 * 16 * 32 * 2);
    }

    #[test]
    fn empty_pool_reports_neutral_aggregates() {
        let pool = small_pool(3);
        assert_eq!(pool.device_used(), 0);
        assert_eq!(pool.stats(), AccessStats::default());
        for o in pool.occupancy() {
            assert_eq!(o.allocations, 0);
            assert_eq!(o.logical_bytes, 0);
            assert_eq!(o.buddy_used, 0);
            assert_eq!(o.effective_ratio, 1.0);
        }
    }

    #[test]
    fn foreign_handles_are_rejected() {
        let big = small_pool(4);
        let small = small_pool(1);
        let h = big.alloc("x", 16, TargetRatio::R2).unwrap();
        if h.shard() >= small.config().shards {
            assert!(matches!(
                read1(&small, h, 0),
                Err(DeviceError::BadAllocation)
            ));
        }
        // Out-of-range entry index reports through unchanged.
        assert!(matches!(
            read1(&big, h, 16),
            Err(DeviceError::BadIndex { .. })
        ));
    }

    #[test]
    fn retarget_round_trips_under_the_shard_lock() {
        let pool = small_pool(2);
        let a = pool.alloc("drift", 64, TargetRatio::R2).unwrap();
        let entries: Vec<Entry> = (0..64)
            .map(|i| entry_of_words(|j| 77 + i * 19 + j as u32))
            .collect();
        pool.write_entries(a, 0, &entries).unwrap();
        let report = pool.retarget(a, TargetRatio::R4).unwrap();
        assert_eq!(report.old_target, TargetRatio::R2);
        assert_eq!(report.new_target, TargetRatio::R4);
        let mut out = vec![[0u8; ENTRY_BYTES]; 64];
        pool.read_entries(a, 0, &mut out).unwrap();
        assert_eq!(out, entries, "migration must preserve bytes");
        assert_eq!(pool.stats().retargets, 1);
        assert!(pool.stats().moved_sectors > 0);
        // The stored target is R4: retargeting to it again is a no-op.
        assert_eq!(
            pool.retarget(a, TargetRatio::R4).unwrap().old_target,
            TargetRatio::R4
        );
        // The window the policy would consume is served the same way.
        assert_eq!(pool.state_window(a).unwrap().total(), 64);
    }

    #[test]
    fn retarget_rejects_foreign_handles() {
        let big = small_pool(4);
        let small = small_pool(1);
        let h = big.alloc("x", 16, TargetRatio::R2).unwrap();
        if h.shard() >= small.config().shards {
            assert_eq!(
                small.retarget(h, TargetRatio::R4),
                Err(DeviceError::BadAllocation)
            );
            assert_eq!(small.state_window(h), Err(DeviceError::BadAllocation));
        }
    }

    #[test]
    fn free_reclaims_shard_capacity_and_kills_the_handle() {
        // Shards fit exactly one 64-entry R1 allocation.
        let pool = BuddyPool::new(PoolConfig {
            shards: 2,
            shard_config: DeviceConfig {
                device_capacity: 64 * 128,
                carve_out_factor: 3,
            },
            ..PoolConfig::default()
        });
        let ids: Vec<PoolAllocId> = (0..2)
            .map(|i| {
                pool.alloc(&format!("fill{i}"), 64, TargetRatio::R1)
                    .unwrap()
            })
            .collect();
        assert!(pool.alloc("extra", 64, TargetRatio::R1).is_err());
        pool.write_entries(ids[0], 0, &[[9u8; ENTRY_BYTES]])
            .unwrap();
        pool.free(ids[0]).unwrap();
        assert_eq!(pool.device_used(), 64 * 128, "one shard's worth released");
        // The stale handle is dead on every path, even after the slot is
        // reused by the replacement allocation.
        let replacement = pool.alloc("again", 64, TargetRatio::R1).unwrap();
        assert_eq!(read1(&pool, ids[0], 0), Err(DeviceError::BadAllocation));
        assert_eq!(
            pool.retarget(ids[0], TargetRatio::R2),
            Err(DeviceError::BadAllocation)
        );
        assert_eq!(pool.free(ids[0]), Err(DeviceError::BadAllocation));
        // The recycled storage reads as zero, not the freed bytes.
        assert_eq!(read1(&pool, replacement, 0).unwrap(), [0u8; ENTRY_BYTES]);
    }

    #[test]
    fn exhausted_pool_reports_the_home_shards_error() {
        // Two shards; the fill pattern leaves them with *different* free
        // space (one full, one with 32 entries spare), so the error a
        // failing alloc reports identifies which shard produced it. The
        // ring probe must try every shard and then surface the *home*
        // shard's error — over many names both shards' errors must appear,
        // proving the error is not pinned to shard 0 (or to the last shard
        // probed).
        let pool = BuddyPool::new(PoolConfig {
            shards: 2,
            shard_config: DeviceConfig {
                device_capacity: 64 * 128,
                carve_out_factor: 3,
            },
            ..PoolConfig::default()
        });
        pool.alloc("first", 64, TargetRatio::R1).unwrap();
        pool.alloc("second", 32, TargetRatio::R1).unwrap();
        let spare: Vec<u64> = pool
            .occupancy()
            .iter()
            .map(|o| o.device_capacity - o.device_used)
            .collect();
        assert!(spare.contains(&0) && spare.contains(&(32 * 128)));

        let mut seen = std::collections::HashSet::new();
        for i in 0..16 {
            let err = pool
                .alloc(&format!("probe{i}"), 64, TargetRatio::R1)
                .unwrap_err();
            match err {
                DeviceError::OutOfDeviceMemory {
                    requested,
                    available,
                } => {
                    assert_eq!(requested, 64 * 128);
                    assert!(
                        available == 0 || available == 32 * 128,
                        "available {available} matches neither shard"
                    );
                    seen.insert(available);
                }
                other => panic!("expected OutOfDeviceMemory, got {other:?}"),
            }
        }
        assert_eq!(
            seen.len(),
            2,
            "both shards' errors must surface as the home shard rotates"
        );
        // Failed probes leak nothing.
        let total: usize = pool.occupancy().iter().map(|o| o.allocations).sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn zero_entry_allocations_are_rejected_without_probing() {
        let pool = small_pool(3);
        assert_eq!(
            pool.alloc("empty", 0, TargetRatio::R2),
            Err(DeviceError::EmptyAllocation)
        );
        for o in pool.occupancy() {
            assert_eq!(o.allocations, 0, "no shard may host a zero-entry alloc");
        }
        assert_eq!(
            pool.alloc_shard_probes(),
            0,
            "a zero-entry request is rejected before any shard is locked"
        );
    }

    #[test]
    fn non_capacity_alloc_error_touches_exactly_one_shard() {
        let pool = small_pool(4);
        // entries × 128 B overflows u64, so the home shard answers
        // RequestOverflow — a property of the request, not of any shard.
        let err = pool
            .alloc("absurd", u64::MAX / 4, TargetRatio::R1)
            .unwrap_err();
        assert_eq!(err, DeviceError::RequestOverflow);
        assert!(!err.is_capacity());
        assert_eq!(
            pool.alloc_shard_probes(),
            1,
            "a non-capacity error must surface from the home shard alone, \
             not walk (and lock) the whole shard ring"
        );
        // A capacity failure, by contrast, probes every shard once.
        let exhausted = BuddyPool::new(PoolConfig {
            shards: 4,
            shard_config: DeviceConfig {
                device_capacity: 64 * 128,
                carve_out_factor: 3,
            },
            ..PoolConfig::default()
        });
        assert!(exhausted
            .alloc("too-big", 128, TargetRatio::R1)
            .unwrap_err()
            .is_capacity());
        assert_eq!(
            exhausted.alloc_shard_probes(),
            4,
            "capacity exhaustion probes the full ring before reporting"
        );
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        BuddyPool::new(PoolConfig {
            shards: 0,
            ..PoolConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "BPC streams only")]
    fn non_bpc_codec_panics() {
        BuddyPool::new(PoolConfig {
            codec: CodecKind::Bdi,
            ..PoolConfig::default()
        });
    }

    /// The entry path reaches each shard through its lock-free handle, for
    /// writes as well as reads: with every shard lock held by this thread,
    /// another thread still completes every entry operation.
    #[test]
    fn entry_path_takes_no_shard_lock() {
        let pool = small_pool(2);
        let id = pool.alloc("live", 8, TargetRatio::R2).unwrap();
        let entries = [entry_of_words(|j| 5 + j as u32); 8];
        let guards: Vec<_> = (0..2).map(|i| pool.shard(i)).collect();
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let pool = &pool;
            scope.spawn(move || {
                let mut out = [[0u8; ENTRY_BYTES]; 8];
                pool.write_entries(id, 0, &entries).unwrap();
                pool.write_entries_collect(id, 0, &entries).unwrap();
                pool.read_entries(id, 0, &mut out).unwrap();
                pool.read_entries_collect(id, 0, &mut out).unwrap();
                pool.entry_state(id, 0).unwrap();
                pool.state_window(id).unwrap();
                done.send(out == entries).unwrap();
            });
            let finished = finished.recv_timeout(std::time::Duration::from_secs(10));
            // Released before the scope joins, so a run that blocked on a
            // shard lock fails here instead of hanging.
            drop(guards);
            assert_eq!(finished, Ok(true), "the entry path waited on a shard lock");
        });
    }
}
