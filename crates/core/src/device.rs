//! The functional model of a Buddy-Compression GPU device: real compressed
//! storage split between device memory and the buddy carve-out.
//!
//! This module implements the data path of Figures 1 and 4. Every 128 B
//! memory-entry of an allocation with target ratio *r* owns
//! `128/r` bytes of device memory and a fixed, pre-reserved slot in the
//! buddy carve-out. Writes recompress the entry and update only that entry's
//! own storage — the design's central invariant is that compressibility
//! changes never move any *other* data (§3.3, "No Page-Faulting Expense"),
//! which `tests/no_movement.rs` verifies.
//!
//! The device holds nothing twice. An allocation's addressing facts live
//! once, in its published slot cell (`core::shared`), which the device's
//! own paths and its lock-free [`DeviceHandle`]s both read; the device
//! keeps only what is not published — region allocators, the free-slot
//! stack and allocation names. It owns no compression buffer either: one
//! entry's stream is a bounded stack value ([`bpc::CompressedBuf`]).

use crate::metadata::EntryState;
use crate::region::RegionAllocator;
use crate::shared::{self, AllocView, RawSlot, SharedState};
use crate::target::TargetRatio;
use bpc::{DecodeError, Entry, SizeHistogram, ENTRY_BYTES};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// An entry's storage fingerprint: its `(offset, length)` byte range in
/// device memory and in the buddy carve-out.
pub type StorageRanges = ((u64, u64), (u64, u64));

/// Errors returned by allocation and access operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceError {
    /// The requested allocation does not fit in the remaining device memory.
    OutOfDeviceMemory {
        /// Bytes requested from device memory.
        requested: u64,
        /// Bytes still available.
        available: u64,
    },
    /// The requested allocation does not fit in the remaining carve-out.
    OutOfBuddyMemory {
        /// Bytes requested from buddy memory.
        requested: u64,
        /// Bytes still available.
        available: u64,
    },
    /// An allocation id that was never returned by `alloc`.
    BadAllocation,
    /// An entry index beyond the allocation size.
    BadIndex {
        /// Offending index.
        index: u64,
        /// Entries in the allocation.
        entries: u64,
    },
    /// An allocation of zero entries was requested. Zero-entry allocations
    /// are rejected uniformly across every path (`alloc` on devices and
    /// pools alike): they would be unaddressable (every access out of
    /// range) and un-retargetable (no states to observe), so the request
    /// is pinned to an explicit error instead of behaving differently per
    /// layer.
    EmptyAllocation,
    /// The request's byte accounting (`entries × bytes-per-entry`)
    /// overflows `u64`. Pinned to an explicit error so an absurd request
    /// fails cleanly on every build instead of panicking in debug and
    /// wrapping silently in release.
    RequestOverflow,
    /// Entry `index` of the allocation is stored as a metadata nibble its
    /// target cannot hold (a reserved encoding, or a state of the wrong
    /// target mode) or as a stream its codec rejects. Reads, scans and `retarget`
    /// of the allocation fail with this instead of returning made-up bytes;
    /// nothing is mutated and every other allocation is unaffected.
    CorruptEntry {
        /// Index of the damaged entry within its allocation.
        index: u64,
        /// Why the codec rejected the entry's stream; `None` when its
        /// metadata nibble is not a state of its target.
        cause: Option<DecodeError>,
    },
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::OutOfDeviceMemory {
                requested,
                available,
            } => {
                write!(
                    f,
                    "out of device memory: need {requested} B, {available} B free"
                )
            }
            DeviceError::OutOfBuddyMemory {
                requested,
                available,
            } => {
                write!(
                    f,
                    "out of buddy memory: need {requested} B, {available} B free"
                )
            }
            DeviceError::BadAllocation => write!(f, "unknown allocation id"),
            DeviceError::BadIndex { index, entries } => {
                write!(
                    f,
                    "entry index {index} out of range (allocation has {entries})"
                )
            }
            DeviceError::EmptyAllocation => {
                write!(f, "allocations must contain at least one entry")
            }
            DeviceError::RequestOverflow => {
                write!(f, "request size arithmetic overflows u64")
            }
            DeviceError::CorruptEntry { index, cause: None } => {
                write!(f, "entry {index} is stored corrupt: bad metadata state")
            }
            DeviceError::CorruptEntry {
                index,
                cause: Some(cause),
            } => write!(f, "entry {index} is stored corrupt: {cause}"),
        }
    }
}

impl DeviceError {
    /// Whether this error reports *capacity exhaustion* (device or buddy
    /// memory) rather than a caller mistake (bad handle, bad index, bad
    /// request shape).
    ///
    /// The distinction matters to admission control: a capacity error is
    /// eligible for demotion to a lower target ratio or for shedding, while
    /// a validation error must surface to the caller unchanged.
    pub fn is_capacity(&self) -> bool {
        matches!(
            self,
            DeviceError::OutOfDeviceMemory { .. } | DeviceError::OutOfBuddyMemory { .. }
        )
    }
}

impl Error for DeviceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DeviceError::CorruptEntry {
                cause: Some(cause), ..
            } => Some(cause),
            _ => None,
        }
    }
}

/// Handle to one compressed allocation.
///
/// Ids are **generational**: [`free`](BuddyDevice::free) bumps the
/// generation of the slot it vacates, so a handle kept across a `free` is
/// permanently dead — every use returns
/// [`DeviceError::BadAllocation`] even after the slot has been reused by a
/// newer allocation. A stale id can never silently alias live data
/// (generations are 64-bit, so a slot cannot wrap back to a retained
/// stale generation within any physically reachable churn volume).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AllocId {
    pub(crate) slot: u32,
    pub(crate) generation: u64,
}

/// Traffic counters for one device (sector granularity, matching the HBM2
/// access unit).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessStats {
    /// Entry reads served entirely from device memory.
    pub reads_device_only: u64,
    /// Entry reads that needed the buddy memory.
    pub reads_with_buddy: u64,
    /// Entry writes contained in device memory.
    pub writes_device_only: u64,
    /// Entry writes that spilled to buddy memory.
    pub writes_with_buddy: u64,
    /// 32 B sectors moved to/from device DRAM.
    pub device_sectors: u64,
    /// 32 B sectors moved over the interconnect to/from buddy memory.
    pub buddy_sectors: u64,
    /// Completed [`retarget`](BuddyDevice::retarget) migrations.
    pub retargets: u64,
    /// 32 B sectors rewritten by migrations: exactly the re-encoded
    /// entries of the retargeted allocation — no other allocation is ever
    /// relocated. Kept separate from `device_sectors`/`buddy_sectors` so
    /// migration overhead is visible on its own and entry-access
    /// accounting ([`total_accesses`](Self::total_accesses),
    /// [`buddy_access_fraction`](Self::buddy_access_fraction)) is
    /// unaffected.
    pub moved_sectors: u64,
}

impl AccessStats {
    /// Merges another counter set into this one (used by the batched entry
    /// I/O paths, which accumulate locally and fold in once per batch).
    pub fn merge(&mut self, other: &AccessStats) {
        self.reads_device_only += other.reads_device_only;
        self.reads_with_buddy += other.reads_with_buddy;
        self.writes_device_only += other.writes_device_only;
        self.writes_with_buddy += other.writes_with_buddy;
        self.device_sectors += other.device_sectors;
        self.buddy_sectors += other.buddy_sectors;
        self.retargets += other.retargets;
        self.moved_sectors += other.moved_sectors;
    }

    /// Fraction of entry accesses that touched the buddy memory — the
    /// quantity plotted in Figures 7, 8 and 9.
    pub fn buddy_access_fraction(&self) -> f64 {
        let total = self.reads_device_only
            + self.reads_with_buddy
            + self.writes_device_only
            + self.writes_with_buddy;
        if total == 0 {
            return 0.0;
        }
        (self.reads_with_buddy + self.writes_with_buddy) as f64 / total as f64
    }

    /// Total entry accesses recorded.
    pub fn total_accesses(&self) -> u64 {
        self.reads_device_only
            + self.reads_with_buddy
            + self.writes_device_only
            + self.writes_with_buddy
    }

    /// The counters in a fixed field order, for the shared atomic mirror.
    pub(crate) fn to_array(self) -> [u64; 8] {
        [
            self.reads_device_only,
            self.reads_with_buddy,
            self.writes_device_only,
            self.writes_with_buddy,
            self.device_sectors,
            self.buddy_sectors,
            self.retargets,
            self.moved_sectors,
        ]
    }

    /// Inverse of [`to_array`](Self::to_array).
    pub(crate) fn from_array(a: [u64; 8]) -> Self {
        Self {
            reads_device_only: a[0],
            reads_with_buddy: a[1],
            writes_device_only: a[2],
            writes_with_buddy: a[3],
            device_sectors: a[4],
            buddy_sectors: a[5],
            retargets: a[6],
            moved_sectors: a[7],
        }
    }
}

/// Outcome of one online re-targeting migration
/// (see [`BuddyDevice::retarget`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetargetReport {
    /// Target ratio the allocation migrated away from.
    pub old_target: TargetRatio,
    /// Target ratio the allocation now holds.
    pub new_target: TargetRatio,
    /// Entries re-encoded.
    pub entries: u64,
    /// 32 B sectors physically rewritten by this migration (the
    /// re-encoded entry storage of this allocation alone); also
    /// accumulated into [`AccessStats::moved_sectors`].
    pub moved_sectors: u64,
    /// Change in this allocation's device-memory reservation, in bytes
    /// (negative when the migration reclaims device memory).
    pub device_bytes_delta: i64,
    /// Change in this allocation's buddy carve-out reservation, in bytes.
    pub buddy_bytes_delta: i64,
}

/// Configuration of a Buddy-Compression device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceConfig {
    /// Usable device memory in bytes.
    pub device_capacity: u64,
    /// Carve-out size as a multiple of device capacity. The paper uses 3×,
    /// "to support a 4× maximum compression ratio" (§3.5).
    pub carve_out_factor: u64,
}

impl DeviceConfig {
    /// Buddy carve-out size in bytes (`device_capacity × carve_out_factor`),
    /// or `None` when the product overflows `u64` — the construction paths
    /// check this instead of performing an unchecked multiply.
    ///
    /// This is address space, not memory: a device reserves its carve-out
    /// as zero pages that the OS backs on the first write into each page,
    /// and never releases. Only entries that overflow their target write
    /// there, so in release builds the carve-out costs memory for the pages
    /// under those entries' buddy slots. Debug builds write the whole
    /// carve-out at construction.
    pub fn buddy_capacity(&self) -> Option<u64> {
        self.device_capacity.checked_mul(self.carve_out_factor)
    }
}

impl Default for DeviceConfig {
    fn default() -> Self {
        // A scaled-down GPU for tests and harnesses; figure binaries size
        // this from the workload instead.
        Self {
            device_capacity: 64 << 20,
            carve_out_factor: 3,
        }
    }
}

/// A GPU device with Buddy Compression enabled.
///
/// Storage is modeled functionally: compressed bitstreams really live in a
/// device byte array and overflow really lives in a buddy byte array, so
/// read-after-write returns exactly the written entry (property-tested).
///
/// The device stores BPC streams only, the one compressor the paper runs
/// in the memory controller (§2.4). The other codecs are compared without
/// a device: the algorithm ablation classifies their entries with
/// [`EntryState::stored`] instead of storing them.
///
/// # Example
///
/// ```
/// use buddy_core::{BuddyDevice, DeviceConfig, TargetRatio};
///
/// let config = DeviceConfig { device_capacity: 1 << 20, carve_out_factor: 3 };
/// let mut dev = BuddyDevice::new(config);
/// let alloc = dev.alloc("tensor", 1024, TargetRatio::R2)?;
/// let entry = [7u8; 128];
/// dev.write_entries(alloc, 0, &[entry, entry])?;
/// let mut out = [[0u8; 128]; 2];
/// dev.read_entries(alloc, 0, &mut out)?;
/// assert_eq!(out, [entry, entry]);
/// # Ok::<(), buddy_core::DeviceError>(())
/// ```
#[derive(Debug)]
pub struct BuddyDevice {
    config: DeviceConfig,
    /// The epoch-published half: storage bytes, metadata nibbles and the
    /// per-slot addressing seqlocks, shared with every [`DeviceHandle`].
    /// The `&mut self` paths and the lock-free handle paths run the same
    /// engine against this state, so the two are equivalent by
    /// construction. Its slot cells are the only allocation descriptors:
    /// generation, target, entry count and both bases live there once.
    shared: Arc<SharedState>,
    /// Per-slot allocation names, for [`allocation_info`](Self::allocation_info);
    /// the length is the slot high-water mark.
    names: Vec<String>,
    /// Vacated slots, reused before the high-water mark grows. Each one's
    /// cell publishes a bumped generation, so stale [`AllocId`]s stay dead.
    free_slots: Vec<u32>,
    /// Region allocators for the two data arrays, in bytes. First-fit with
    /// coalescing — the full allocation lifecycle runs on these. Metadata
    /// has none: an entry's nibble is addressed from its device offset
    /// ([`AllocView::metadata_index`]).
    device_region: RegionAllocator,
    buddy_region: RegionAllocator,
    /// Shadow-state mirror (debug builds only): independently tracks every
    /// reservation and revalidates structural invariants after each
    /// mutating operation, aborting at the mutation that diverges.
    #[cfg(debug_assertions)]
    auditor: crate::audit::DeviceAuditor,
}

/// A lock-free entry-I/O handle onto one device's published state.
///
/// Cloned from [`BuddyDevice::handle`] and freely shareable across
/// threads, a handle performs entry reads and writes, state scans and
/// traffic accounting against the device's epoch-published allocation
/// table **without ever taking the device's (or, in a pool, the shard's)
/// lock**. Structural operations — `alloc`/`free`/`retarget` — still
/// require `&mut BuddyDevice` and publish a new epoch; a handle racing
/// such an operation observes the old epoch in full, the new epoch in
/// full, or [`DeviceError::BadAllocation`] for a freed slot — never a
/// blend (the per-slot seqlock forces a retry instead).
///
/// Entry *writes* through a handle take turns per allocation through the
/// slot's sequence window, opened with one CAS; writes to different
/// allocations proceed in parallel.
#[derive(Debug, Clone)]
pub struct DeviceHandle {
    shared: Arc<SharedState>,
}

// The device owns its mutable bookkeeping (plain `Vec`s and POD fields)
// and shares the published half through `Arc<SharedState>` (atomics +
// per-slot seqlocks), so both it and its handles can move across worker
// threads — the `buddy-pool` crate shards exactly this way. Checked at
// compile time so a future field cannot silently cost the pool its
// thread-safety.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<BuddyDevice>();
    assert_send_sync::<DeviceHandle>();
    assert_send_sync::<AccessStats>();
    assert_send_sync::<DeviceError>();
    assert_send_sync::<AllocId>();
};

impl BuddyDevice {
    /// Creates a device with the given configuration.
    ///
    /// The device array (`device_capacity` bytes) is backed up front; the
    /// buddy carve-out is only reserved, and a page of it is backed on the
    /// first write into it ([`DeviceConfig::buddy_capacity`]). In release
    /// builds an empty device costs about its device capacity in memory,
    /// whatever its `carve_out_factor`.
    ///
    /// # Panics
    ///
    /// Panics if `device_capacity × carve_out_factor` overflows `u64`
    /// (checked explicitly — such a carve-out cannot be backed anyway).
    pub fn new(config: DeviceConfig) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "the overflow check is this constructor's documented panic contract"
        )]
        let buddy_capacity = config
            .buddy_capacity()
            .expect("device_capacity x carve_out_factor overflows u64");
        Self {
            config,
            shared: Arc::new(SharedState::new(config.device_capacity, buddy_capacity)),
            names: Vec::new(),
            free_slots: Vec::new(),
            device_region: RegionAllocator::new(config.device_capacity),
            buddy_region: RegionAllocator::new(buddy_capacity),
            #[cfg(debug_assertions)]
            auditor: crate::audit::DeviceAuditor::new(),
        }
    }

    /// A lock-free [`DeviceHandle`] onto this device's published state.
    /// Handles stay valid for the device's lifetime (operations on
    /// allocations freed later return [`DeviceError::BadAllocation`]).
    pub fn handle(&self) -> DeviceHandle {
        DeviceHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Revalidates the shadow mirror against both region allocators.
    #[cfg(debug_assertions)]
    fn audit_check(&self) {
        self.auditor
            .validate(&self.device_region, &self.buddy_region);
    }

    /// The device configuration.
    pub fn config(&self) -> DeviceConfig {
        self.config
    }

    /// Device bytes consumed by live allocations.
    pub fn device_used(&self) -> u64 {
        self.device_region.used()
    }

    /// Buddy carve-out bytes reserved by live allocations.
    pub fn buddy_used(&self) -> u64 {
        self.buddy_region.used()
    }

    /// Device bytes currently free (across all holes).
    pub fn device_free(&self) -> u64 {
        self.device_region.free_total()
    }

    /// Largest contiguous free run of device memory — the biggest
    /// allocation (in device bytes) that can currently succeed.
    pub fn largest_free_region(&self) -> u64 {
        self.device_region.largest_free()
    }

    /// External fragmentation of device memory in `[0, 1)`: the fraction
    /// of free device bytes not reachable by one maximal allocation
    /// (`1 − largest_free_region / device_free`; `0` when nothing is
    /// free). The churn harness plots this at steady state.
    pub fn fragmentation(&self) -> f64 {
        self.device_region.fragmentation()
    }

    /// Number of live allocations.
    pub fn allocation_count(&self) -> usize {
        self.names.len() - self.free_slots.len()
    }

    /// Uncompressed bytes represented by all live allocations.
    pub fn logical_bytes(&self) -> u64 {
        self.shared.live_entries() * ENTRY_BYTES as u64
    }

    /// Effective device compression ratio achieved by the current
    /// allocations (logical bytes / device bytes).
    pub fn effective_ratio(&self) -> f64 {
        let used = self.device_region.used();
        if used == 0 {
            return 1.0;
        }
        self.logical_bytes() as f64 / used as f64
    }

    /// Traffic counters accumulated since the last [`reset_stats`].
    ///
    /// [`reset_stats`]: Self::reset_stats
    pub fn stats(&self) -> AccessStats {
        self.shared.stats.snapshot()
    }

    /// Clears the traffic counters.
    pub fn reset_stats(&mut self) {
        self.shared.stats.reset();
    }

    /// Allocates `entries` 128 B memory-entries with the given target ratio.
    ///
    /// Device memory is charged `entries × 128/r` bytes; the buddy carve-out
    /// is charged the complementary slot space. All entries start as zero.
    /// Regions come from a first-fit free-list allocator, so space returned
    /// by [`free`](Self::free) is reused (coalesced with free neighbours).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::EmptyAllocation`] for a zero-entry request,
    /// [`DeviceError::RequestOverflow`] if the byte accounting overflows
    /// `u64`, and [`DeviceError::OutOfDeviceMemory`] /
    /// [`DeviceError::OutOfBuddyMemory`] if no contiguous free run can
    /// host the reservation (`available` reports the largest run).
    pub fn alloc(
        &mut self,
        name: &str,
        entries: u64,
        target: TargetRatio,
    ) -> Result<AllocId, DeviceError> {
        if entries == 0 {
            return Err(DeviceError::EmptyAllocation);
        }
        // All three products are checked up front: an overflow-sized
        // request must fail cleanly, not wrap in release builds.
        let device_need = entries
            .checked_mul(target.device_bytes_per_entry() as u64)
            .ok_or(DeviceError::RequestOverflow)?;
        let buddy_need = entries
            .checked_mul(target.buddy_bytes_per_entry() as u64)
            .ok_or(DeviceError::RequestOverflow)?;
        entries
            .checked_mul(ENTRY_BYTES as u64)
            .ok_or(DeviceError::RequestOverflow)?;
        // A vacated slot, else the next one past the high-water mark —
        // chosen before anything is reserved, so a failure below leaves
        // the slot bookkeeping untouched.
        let slot = match self.free_slots.last() {
            Some(&slot) => slot,
            None => u32::try_from(self.names.len()).map_err(|_| DeviceError::RequestOverflow)?,
        };
        let device_base =
            self.device_region
                .alloc(device_need)
                .ok_or(DeviceError::OutOfDeviceMemory {
                    requested: device_need,
                    available: self.device_region.largest_free(),
                })?;
        let Some(buddy_base) = self.buddy_region.alloc(buddy_need) else {
            self.device_region.free(device_base, device_need);
            return Err(DeviceError::OutOfBuddyMemory {
                requested: buddy_need,
                available: self.buddy_region.largest_free(),
            });
        };
        if self.free_slots.pop().is_none() {
            self.names.push(String::new());
        }
        name.clone_into(&mut self.names[slot as usize]);
        let view = AllocView {
            target,
            entries,
            device_base,
            buddy_base,
        };
        // A recycled device range still carries a dead allocation's
        // nibbles; fresh entries must read as zero.
        self.shared
            .metadata
            .zero_range(view.metadata_index(0), entries);
        // Publish the new epoch: from here on lock-free handles resolve
        // this id against the freshly-cleared regions.
        self.shared.slots.ensure(slot);
        let generation = self.shared.generation(slot);
        self.shared
            .publish(slot, RawSlot::from_view(generation, &view));
        #[cfg(debug_assertions)]
        {
            self.auditor.record_alloc(
                slot,
                crate::audit::ShadowAlloc {
                    generation,
                    target,
                    entries,
                    device_base,
                    buddy_base,
                },
            );
            self.audit_check();
        }
        Ok(AllocId { slot, generation })
    }

    /// Releases an allocation: its device and buddy reservations return to
    /// the free lists (coalescing with adjacent free runs) and
    /// the id's slot generation is bumped, so `id` — and every copy of it —
    /// is dead from here on: any further use returns
    /// [`DeviceError::BadAllocation`], even after the slot is reused.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::BadAllocation`] for unknown, stale or
    /// already-freed handles.
    pub fn free(&mut self, id: AllocId) -> Result<(), DeviceError> {
        let view = self.view(id)?;
        self.names[id.slot as usize].clear();
        self.free_slots.push(id.slot);
        // Publish the tombstone epoch *before* the regions return to the
        // free lists: a lock-free reader that raced this free either fails
        // its final sequence check (and retries into `BadAllocation`) or
        // started after the publication and never resolves the id — so
        // reused bytes can never reach a caller under the stale handle.
        self.shared
            .publish(id.slot, RawSlot::dead(id.generation.wrapping_add(1)));
        self.device_region
            .free(view.device_base, view.entries * view.device_stride());
        self.buddy_region
            .free(view.buddy_base, view.entries * view.buddy_stride());
        #[cfg(debug_assertions)]
        {
            self.auditor.record_free(id.slot, id.generation);
            self.audit_check();
        }
        Ok(())
    }

    /// Resolves a generational id against its published slot cell — the
    /// single validation path every id-taking method goes through (slot
    /// published, generation matches, allocation live). Only structural
    /// operations publish, and they take `&mut self`, so the cell needs no
    /// seqlock retry here.
    fn view(&self, id: AllocId) -> Result<AllocView, DeviceError> {
        self.shared.structural_view(id)
    }

    /// Name and target of an allocation (for reports).
    pub fn allocation_info(&self, id: AllocId) -> Result<(&str, TargetRatio, u64), DeviceError> {
        let view = self.view(id)?;
        Ok((&self.names[id.slot as usize], view.target, view.entries))
    }

    /// Writes a contiguous run of entries starting at `start`: each entry is
    /// compressed and updates only its own device bytes, buddy slot and
    /// metadata nibble, and the traffic counters fold in with a single
    /// stats update.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::BadAllocation`] / [`DeviceError::BadIndex`]
    /// (the latter if the run extends past the allocation); on error no
    /// entry is written.
    pub fn write_entries(
        &mut self,
        id: AllocId,
        start: u64,
        entries: &[Entry],
    ) -> Result<(), DeviceError> {
        self.shared.write_batch(id, start, entries)?;
        // Entry writes must never move reservations — the design's fixed
        // buddy-offset invariant — so the mirror needs no update, only a
        // revalidation.
        #[cfg(debug_assertions)]
        self.audit_check();
        Ok(())
    }

    /// Reads a contiguous run of entries starting at `start` into `out`,
    /// decompressing each from device and (if it overflowed its target)
    /// buddy memory, and folding the traffic counters in with a single
    /// stats update.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::BadAllocation`] / [`DeviceError::BadIndex`]
    /// (the latter if the run extends past the allocation). The contract
    /// is the engine's, shared with [`DeviceHandle::read_entries`]: an
    /// error is detected against a consistent snapshot before that attempt
    /// writes to `out`, so `out` holds partial bytes only if an earlier
    /// attempt was abandoned by the seqlock and a structural operation
    /// then invalidated the id. `&mut self` excludes structural
    /// operations, so here a handle or range error leaves `out` untouched.
    /// [`DeviceError::CorruptEntry`] reports a damaged stored entry in the
    /// run; the entries before it may already have been decoded into `out`.
    pub fn read_entries(
        &mut self,
        id: AllocId,
        start: u64,
        out: &mut [Entry],
    ) -> Result<(), DeviceError> {
        self.shared.read_batch(id, start, out).map(|_| ())
    }

    /// Raw storage fingerprint of an entry: the device and buddy byte ranges
    /// it owns. Used by tests to prove that writes never move other entries.
    pub fn storage_ranges(&self, id: AllocId, index: u64) -> Result<StorageRanges, DeviceError> {
        let view = self.view(id)?;
        shared::check_index(&view, index)?;
        Ok((
            (view.device_offset(index), view.device_stride()),
            (view.buddy_offset(index), view.buddy_stride()),
        ))
    }

    /// Migrates an allocation to a new target ratio by re-encoding it onto
    /// fresh regions: the new device/buddy reservations are allocated, the
    /// preserved bytes are re-encoded into them, and the old reservations
    /// are freed back to the allocator (alloc-new / re-encode / free-old).
    /// **No other allocation is touched**, so migration cost is
    /// proportional to the migrated allocation alone. This is the online
    /// escape hatch from a stale profiling decision (the paper picks
    /// targets once, §3.5; see DESIGN.md §8 and
    /// [`ProfileConfig::recommend`](crate::ProfileConfig::recommend), the
    /// online policy that drives it).
    ///
    /// Migration is **observation-equivalent**: after `retarget`, every
    /// read returns the same bytes, every invalid access the same error,
    /// and occupancy/traffic accounting matches a device whose allocation
    /// was created at `new_target` in the first place
    /// (`tests/retarget_equivalence.rs` proves this across every target ×
    /// target combination). The handle stays valid (migration is not a
    /// `free`), and on a tight device the old reservation is released
    /// before the new one is placed, so any migration whose steady-state
    /// footprint fits will succeed unless the free space is too
    /// fragmented to host it contiguously.
    ///
    /// The cost is accounted in [`AccessStats::retargets`] /
    /// [`AccessStats::moved_sectors`] and in the returned
    /// [`RetargetReport`] — not in the entry-access counters, which keep
    /// their read/write meaning. `moved_sectors` prices exactly the
    /// re-encoded allocation's stored sectors. Re-targeting to the current
    /// target is a free no-op.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::BadAllocation`] for an unknown or stale
    /// handle, [`DeviceError::RequestOverflow`] if the new byte accounting
    /// overflows, [`DeviceError::CorruptEntry`] if an entry fails to decode
    /// (before anything is mutated), and [`DeviceError::OutOfDeviceMemory`] /
    /// [`DeviceError::OutOfBuddyMemory`] if no contiguous free run can
    /// host the new reservation even with the old one released — in which
    /// case the device is left completely unchanged (the old reservation
    /// is restored at its exact offsets).
    pub fn retarget(
        &mut self,
        id: AllocId,
        new_target: TargetRatio,
    ) -> Result<RetargetReport, DeviceError> {
        let view = self.view(id)?;
        let old_target = view.target;
        let entries = view.entries;
        if old_target == new_target {
            return Ok(RetargetReport {
                old_target,
                new_target,
                entries,
                moved_sectors: 0,
                device_bytes_delta: 0,
                buddy_bytes_delta: 0,
            });
        }
        let old_device = entries * old_target.device_bytes_per_entry() as u64;
        let old_buddy = entries * old_target.buddy_bytes_per_entry() as u64;
        let new_device = entries
            .checked_mul(new_target.device_bytes_per_entry() as u64)
            .ok_or(DeviceError::RequestOverflow)?;
        let new_buddy = entries
            .checked_mul(new_target.buddy_bytes_per_entry() as u64)
            .ok_or(DeviceError::RequestOverflow)?;

        // Staging for the decoded contents, allocated and zero-filled
        // before the window opens: it touches no shared state, so readers
        // of this allocation must not spin through it.
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a live allocation's entries already fit in the device's in-memory arrays"
        )]
        let mut contents = vec![[0u8; ENTRY_BYTES]; entries as usize];

        // The migration itself runs inside the slot's publication window
        // (`SharedState::republish`): entry writers and concurrent snapshot
        // readers of this allocation spin until the new epoch is
        // published — required because on a tight device the new
        // regions may overlap the old bytes, so the old epoch stops being
        // readable the moment re-encoding starts.
        let published = Arc::clone(&self.shared);
        let (moved_sectors, new_view) = published.republish(id.slot, || {
            // 1. Decode the allocation's live contents through the old
            //    layout. (Functional model: the real design would stream
            //    this through the compression pipeline sector by sector.)
            //    No entry-access traffic is recorded — migration cost is
            //    `moved_sectors`. Nothing is mutated yet: a corrupt entry
            //    here or a failed placement below leaves the device
            //    byte-for-byte as it was.
            for (i, slot) in contents.iter_mut().enumerate() {
                published.read_one(&view, i as u64, slot)?;
            }

            // 2. Place the new reservations on the allocator. The nibbles
            //    follow the device base, so a failed placement leaves the
            //    old ones untouched; on the tight-fit path the new nibble
            //    range may overlap the old one exactly as the device bytes
            //    may, under this same window. No clear: step 3 stores
            //    every nibble of the new range.
            let (device_base, buddy_base) = self.place_retarget_regions(
                &view,
                (old_device, old_buddy),
                (new_device, new_buddy),
            )?;
            let new_view = AllocView {
                target: new_target,
                entries,
                device_base,
                buddy_base,
            };

            // 3. Re-encode every entry under the new target.
            let mut moved_sectors = 0u64;
            published.write_run(&new_view, 0, &contents, |state| {
                moved_sectors +=
                    u64::from(state.device_sectors(new_target) + state.buddy_sectors(new_target));
            });

            // The new epoch goes back for publication; the slot cell is the
            // only copy of the descriptor, so nothing else changes.
            Ok((
                RawSlot::from_view(id.generation, &new_view),
                (moved_sectors, new_view),
            ))
        })?;

        self.shared.stats.add(&AccessStats {
            retargets: 1,
            moved_sectors,
            ..AccessStats::default()
        });
        #[cfg(debug_assertions)]
        {
            self.auditor.record_retarget(
                id.slot,
                crate::audit::ShadowAlloc {
                    generation: id.generation,
                    target: new_target,
                    entries,
                    device_base: new_view.device_base,
                    buddy_base: new_view.buddy_base,
                },
            );
            self.audit_check();
        }
        #[cfg(not(debug_assertions))]
        let _ = new_view;
        Ok(RetargetReport {
            old_target,
            new_target,
            entries,
            moved_sectors,
            device_bytes_delta: new_device as i64 - old_device as i64,
            buddy_bytes_delta: new_buddy as i64 - old_buddy as i64,
        })
    }

    /// Allocates the new device/buddy regions for a migration and frees
    /// the old ones. Tries alloc-new-first (old reservation still held, no
    /// transient hole); on a tight device it releases the old reservation
    /// before placing the new one, restoring the old regions at their
    /// exact offsets if placement still fails — so an error leaves the
    /// allocator state identical.
    fn place_retarget_regions(
        &mut self,
        view: &AllocView,
        (old_device, old_buddy): (u64, u64),
        (new_device, new_buddy): (u64, u64),
    ) -> Result<(u64, u64), DeviceError> {
        if let Some(device_base) = self.device_region.alloc(new_device) {
            if let Some(buddy_base) = self.buddy_region.alloc(new_buddy) {
                self.device_region.free(view.device_base, old_device);
                self.buddy_region.free(view.buddy_base, old_buddy);
                return Ok((device_base, buddy_base));
            }
            self.device_region.free(device_base, new_device);
        }
        // Tight fit: the steady-state footprint may still fit once the old
        // reservation is released.
        self.device_region.free(view.device_base, old_device);
        self.buddy_region.free(view.buddy_base, old_buddy);
        let restore = |dev: &mut Self| {
            let ok = dev.device_region.reserve_at(view.device_base, old_device)
                && dev.buddy_region.reserve_at(view.buddy_base, old_buddy);
            debug_assert!(ok, "just-freed regions must be restorable");
        };
        let Some(device_base) = self.device_region.alloc(new_device) else {
            restore(self);
            return Err(DeviceError::OutOfDeviceMemory {
                requested: new_device,
                available: self.device_region.largest_free(),
            });
        };
        let Some(buddy_base) = self.buddy_region.alloc(new_buddy) else {
            self.device_region.free(device_base, new_device);
            restore(self);
            return Err(DeviceError::OutOfBuddyMemory {
                requested: new_buddy,
                available: self.buddy_region.largest_free(),
            });
        };
        Ok((device_base, buddy_base))
    }
}

impl DeviceHandle {
    /// Lock-free [`BuddyDevice::read_entries`]: resolves `id` against the
    /// current published epoch without taking any device-wide lock, and
    /// the whole batch lands inside one consistent epoch (old or new
    /// around any racing structural operation, never a blend).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::BadAllocation`] / [`DeviceError::BadIndex`]
    /// for invalid handles; a handle racing a `free` observes
    /// [`DeviceError::BadAllocation`] once the tombstone epoch publishes,
    /// and a damaged stored entry reports [`DeviceError::CorruptEntry`].
    /// A handle or range error is detected against a consistent snapshot
    /// before that attempt writes to `out`, but an earlier attempt
    /// abandoned by the seqlock (a racing write, `retarget` or `free`) may
    /// already have decoded entries into it: on error `out` may hold
    /// partial bytes and must not be used.
    pub fn read_entries(
        &self,
        id: AllocId,
        start: u64,
        out: &mut [Entry],
    ) -> Result<(), DeviceError> {
        self.read_entries_collect(id, start, out).map(|_| ())
    }

    /// [`read_entries`](Self::read_entries), additionally returning the
    /// traffic this batch generated (the same delta that is folded into
    /// the shared [`BuddyDevice::stats`] counters). The batch computes it
    /// locally anyway, so the service layer's per-tenant attribution costs
    /// nothing extra on the hot path.
    ///
    /// # Errors
    ///
    /// Same contract as [`read_entries`](Self::read_entries).
    pub fn read_entries_collect(
        &self,
        id: AllocId,
        start: u64,
        out: &mut [Entry],
    ) -> Result<AccessStats, DeviceError> {
        self.shared.read_batch(id, start, out)
    }

    /// [`BuddyDevice::write_entries`] through the handle. The batch
    /// serializes on the allocation's write
    /// lock only — writes to other allocations and all reads proceed
    /// concurrently, and no device-wide lock is taken.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::BadAllocation`] / [`DeviceError::BadIndex`]
    /// (the latter if the run extends past the allocation); on error no
    /// entry is written.
    pub fn write_entries(
        &self,
        id: AllocId,
        start: u64,
        entries: &[Entry],
    ) -> Result<(), DeviceError> {
        self.write_entries_collect(id, start, entries).map(|_| ())
    }

    /// [`write_entries`](Self::write_entries), additionally returning the
    /// traffic this batch generated (see
    /// [`read_entries_collect`](Self::read_entries_collect)).
    ///
    /// # Errors
    ///
    /// Same contract as [`write_entries`](Self::write_entries).
    pub fn write_entries_collect(
        &self,
        id: AllocId,
        start: u64,
        entries: &[Entry],
    ) -> Result<AccessStats, DeviceError> {
        self.shared.write_batch(id, start, entries)
    }

    /// Per-entry state without touching traffic counters (for analysis).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::BadAllocation`] / [`DeviceError::BadIndex`]
    /// for invalid handles and [`DeviceError::CorruptEntry`] for a damaged
    /// metadata nibble.
    pub fn entry_state(&self, id: AllocId, index: u64) -> Result<EntryState, DeviceError> {
        self.shared.entry_state(id, index)
    }

    /// The live compressed footprint of an allocation as a size-class
    /// histogram, the online counterpart of an
    /// [`AllocationProfile`](crate::AllocationProfile)'s and the input of
    /// [`ProfileConfig::recommend`](crate::ProfileConfig::recommend). Each
    /// entry's state is binned to the largest class with its stored
    /// footprint (`Zero` → `B0`, `ZeroPageFit` → `B8`, 1–4 sectors → `B32`
    /// / `B64` / `B96` / `B128`, raw zero-page overflow → `B128`), so
    /// [`TargetRatio::overflow_fraction`] is exact for the standard
    /// targets and never optimistic for 16×. A pure metadata scan against
    /// one consistent epoch: records no traffic (4 bits per entry — the
    /// information the memory controller already holds).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::BadAllocation`] for invalid handles and
    /// [`DeviceError::CorruptEntry`] for a damaged metadata nibble.
    pub fn state_window(&self, id: AllocId) -> Result<SizeHistogram, DeviceError> {
        self.shared.state_window(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpc::{SizeClass, SECTOR_BYTES};

    fn entry_of_words(mut f: impl FnMut(usize) -> u32) -> Entry {
        let mut e = [0u8; ENTRY_BYTES];
        for (i, c) in e.chunks_exact_mut(4).enumerate() {
            c.copy_from_slice(&f(i).to_le_bytes());
        }
        e
    }

    /// Single-entry write as a batch of one, returning the recorded state.
    fn write1(
        dev: &mut BuddyDevice,
        id: AllocId,
        index: u64,
        entry: &Entry,
    ) -> Result<EntryState, DeviceError> {
        dev.write_entries(id, index, std::slice::from_ref(entry))?;
        dev.handle().entry_state(id, index)
    }

    /// Single-entry read as a batch of one.
    fn read1(dev: &mut BuddyDevice, id: AllocId, index: u64) -> Result<Entry, DeviceError> {
        let mut out = [[0u8; ENTRY_BYTES]];
        dev.read_entries(id, index, &mut out)?;
        Ok(out[0])
    }

    fn small_device() -> BuddyDevice {
        BuddyDevice::new(DeviceConfig {
            device_capacity: 1 << 20,
            carve_out_factor: 3,
        })
    }

    #[test]
    fn zero_entries_cost_nothing_to_read() {
        let mut dev = small_device();
        let a = dev.alloc("a", 16, TargetRatio::R2).unwrap();
        write1(&mut dev, a, 3, &[0u8; 128]).unwrap();
        dev.reset_stats();
        assert_eq!(read1(&mut dev, a, 3).unwrap(), [0u8; 128]);
        let s = dev.stats();
        assert_eq!(s.device_sectors, 0);
        assert_eq!(s.buddy_sectors, 0);
        assert_eq!(s.reads_device_only, 1);
    }

    #[test]
    fn compressible_entry_stays_in_device() {
        let mut dev = small_device();
        let a = dev.alloc("a", 16, TargetRatio::R2).unwrap();
        let entry = entry_of_words(|i| 1000 + i as u32); // ramp → 1 sector
        let state = write1(&mut dev, a, 0, &entry).unwrap();
        assert_eq!(state, EntryState::Compressed { sectors: 1 });
        dev.reset_stats();
        assert_eq!(read1(&mut dev, a, 0).unwrap(), entry);
        assert_eq!(dev.stats().buddy_sectors, 0);
    }

    #[test]
    fn incompressible_entry_overflows_to_buddy() {
        let mut dev = small_device();
        let a = dev.alloc("a", 16, TargetRatio::R2).unwrap();
        let mut state = 1u64;
        let entry = entry_of_words(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 32) as u32
        });
        let st = write1(&mut dev, a, 5, &entry).unwrap();
        assert_eq!(st, EntryState::Compressed { sectors: 4 });
        dev.reset_stats();
        assert_eq!(read1(&mut dev, a, 5).unwrap(), entry);
        let s = dev.stats();
        assert_eq!(s.device_sectors, 2); // target 2x keeps 2 sectors local
        assert_eq!(s.buddy_sectors, 2); // and 2 come over the link
        assert_eq!(s.reads_with_buddy, 1);
        assert!((s.buddy_access_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rewrite_changes_only_own_slot() {
        let mut dev = small_device();
        let a = dev.alloc("a", 8, TargetRatio::R2).unwrap();
        let ramp = entry_of_words(|i| 7 * i as u32);
        for i in 0..8 {
            write1(&mut dev, a, i, &ramp).unwrap();
        }
        // Make entry 4 incompressible; neighbours must read back unchanged.
        let mut x = 99u64;
        let noisy = entry_of_words(|_| {
            x = x
                .wrapping_mul(0x5851_F42D_4C95_7F2D)
                .wrapping_add(0x14057B7EF767814F);
            (x >> 30) as u32
        });
        write1(&mut dev, a, 4, &noisy).unwrap();
        for i in 0..8 {
            let expect = if i == 4 { noisy } else { ramp };
            assert_eq!(read1(&mut dev, a, i).unwrap(), expect, "entry {i}");
        }
    }

    #[test]
    fn zero_page_mode_fit_and_overflow() {
        let mut dev = small_device();
        let a = dev.alloc("zp", 8, TargetRatio::ZeroPage16).unwrap();
        // Constant entry: 41 bits → 6 bytes → fits the 8 B granule.
        let constant = entry_of_words(|_| 0xABCD_1234);
        assert_eq!(
            write1(&mut dev, a, 0, &constant).unwrap(),
            EntryState::ZeroPageFit
        );
        assert_eq!(read1(&mut dev, a, 0).unwrap(), constant);
        // A ramp costs more than 8 B? No — still tiny. Use noisy data.
        let mut x = 3u64;
        let noisy = entry_of_words(|_| {
            x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(13);
            (x >> 24) as u32
        });
        assert_eq!(
            write1(&mut dev, a, 1, &noisy).unwrap(),
            EntryState::ZeroPageOverflow
        );
        assert_eq!(read1(&mut dev, a, 1).unwrap(), noisy);
        // Overflow reads are pure buddy traffic.
        dev.reset_stats();
        read1(&mut dev, a, 1).unwrap();
        assert_eq!(dev.stats().buddy_sectors, 4);
        assert_eq!(dev.stats().device_sectors, 0);
    }

    #[test]
    fn empty_device_reports_neutral_stats() {
        // No allocations: every ratio/fraction must be a defined, neutral
        // value rather than the result of a 0/0 float division.
        let dev = small_device();
        assert_eq!(dev.device_used(), 0);
        assert_eq!(dev.buddy_used(), 0);
        assert_eq!(dev.logical_bytes(), 0);
        assert_eq!(dev.effective_ratio(), 1.0);
        let s = dev.stats();
        assert_eq!(s.total_accesses(), 0);
        assert_eq!(s.buddy_access_fraction(), 0.0);
    }

    #[test]
    fn zero_entry_requests_are_pinned_to_an_explicit_error() {
        // Zero-entry allocations are rejected uniformly: every target,
        // every path, the same explicit variant — not a silent success
        // here and a panic in a harness there.
        let mut dev = small_device();
        for target in TargetRatio::DESCENDING {
            assert_eq!(
                dev.alloc("empty", 0, target),
                Err(DeviceError::EmptyAllocation),
                "{target}"
            );
        }
        assert_eq!(dev.allocation_count(), 0);
        assert_eq!(dev.device_used(), 0);
        // Re-targeting an invalid handle fails the same pinned way.
        assert_eq!(
            dev.retarget(
                AllocId {
                    slot: 3,
                    generation: 0
                },
                TargetRatio::R2
            ),
            Err(DeviceError::BadAllocation)
        );
        assert_eq!(
            DeviceError::EmptyAllocation.to_string(),
            "allocations must contain at least one entry"
        );
    }

    #[test]
    fn capacity_accounting() {
        let mut dev = BuddyDevice::new(DeviceConfig {
            device_capacity: 4096,
            carve_out_factor: 3,
        });
        // 2x target: 64 B device per entry → 64 entries max.
        let a = dev.alloc("a", 32, TargetRatio::R2).unwrap();
        assert_eq!(dev.device_used(), 32 * 64);
        assert_eq!(dev.buddy_used(), 32 * 64);
        assert_eq!(dev.logical_bytes(), 32 * 128);
        assert!((dev.effective_ratio() - 2.0).abs() < 1e-12);
        let err = dev.alloc("too-big", 1000, TargetRatio::R1).unwrap_err();
        assert!(matches!(err, DeviceError::OutOfDeviceMemory { .. }));
        let _ = a;
    }

    #[test]
    fn buddy_exhaustion_detected() {
        // Carve-out factor 0: no buddy at all — only 1x allocations succeed.
        let mut dev = BuddyDevice::new(DeviceConfig {
            device_capacity: 4096,
            carve_out_factor: 0,
        });
        assert!(dev.alloc("plain", 4, TargetRatio::R1).is_ok());
        let err = dev.alloc("compressed", 4, TargetRatio::R2).unwrap_err();
        assert!(matches!(err, DeviceError::OutOfBuddyMemory { .. }));
    }

    #[test]
    fn bad_handles_are_rejected() {
        let mut dev = small_device();
        let a = dev.alloc("a", 4, TargetRatio::R1).unwrap();
        assert!(matches!(
            read1(
                &mut dev,
                AllocId {
                    slot: 7,
                    generation: 0
                },
                0
            ),
            Err(DeviceError::BadAllocation)
        ));
        assert!(matches!(
            read1(&mut dev, a, 4),
            Err(DeviceError::BadIndex {
                index: 4,
                entries: 4
            })
        ));
    }

    #[test]
    fn fresh_allocation_reads_zero() {
        let mut dev = small_device();
        let a = dev.alloc("a", 4, TargetRatio::R4).unwrap();
        assert_eq!(read1(&mut dev, a, 2).unwrap(), [0u8; 128]);
    }

    #[test]
    fn allocation_info() {
        let mut dev = small_device();
        let a = dev.alloc("weights", 10, TargetRatio::R1_33).unwrap();
        let (name, target, entries) = dev.allocation_info(a).unwrap();
        assert_eq!(name, "weights");
        assert_eq!(target, TargetRatio::R1_33);
        assert_eq!(entries, 10);
    }

    #[test]
    fn error_display() {
        let e = DeviceError::OutOfDeviceMemory {
            requested: 10,
            available: 5,
        };
        assert_eq!(e.to_string(), "out of device memory: need 10 B, 5 B free");
    }

    #[test]
    fn batched_io_matches_per_entry_io() {
        let entries: Vec<Entry> = (0..16)
            .map(|i| match i % 3 {
                0 => [0u8; ENTRY_BYTES],
                1 => entry_of_words(|j| 500 + j as u32),
                _ => {
                    let mut s = i as u64 + 1;
                    entry_of_words(|_| {
                        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                        (s >> 32) as u32
                    })
                }
            })
            .collect();

        let mut batched = small_device();
        let a = batched.alloc("a", 16, TargetRatio::R2).unwrap();
        batched.write_entries(a, 0, &entries).unwrap();
        let mut out = vec![[0u8; ENTRY_BYTES]; 16];
        batched.read_entries(a, 0, &mut out).unwrap();
        assert_eq!(out, entries);

        let mut single = small_device();
        let b = single.alloc("a", 16, TargetRatio::R2).unwrap();
        for (i, e) in entries.iter().enumerate() {
            write1(&mut single, b, i as u64, e).unwrap();
        }
        for i in 0..16u64 {
            assert_eq!(read1(&mut single, b, i).unwrap(), entries[i as usize]);
        }
        assert_eq!(
            batched.stats(),
            single.stats(),
            "batched stats must equal the per-entry accounting"
        );
    }

    #[test]
    fn retarget_preserves_bytes_and_resizes_reservations() {
        let mut dev = small_device();
        let a = dev.alloc("t", 32, TargetRatio::R2).unwrap();
        let entries: Vec<Entry> = (0..32)
            .map(|i| {
                if i % 3 == 0 {
                    [0u8; ENTRY_BYTES]
                } else {
                    entry_of_words(|j| 40 + i * 17 + j as u32)
                }
            })
            .collect();
        dev.write_entries(a, 0, &entries).unwrap();
        let report = dev.retarget(a, TargetRatio::R4).unwrap();
        assert_eq!(report.old_target, TargetRatio::R2);
        assert_eq!(report.new_target, TargetRatio::R4);
        assert_eq!(report.entries, 32);
        assert_eq!(report.device_bytes_delta, -(32 * 32));
        assert_eq!(report.buddy_bytes_delta, 32 * 32);
        assert!(report.moved_sectors > 0);
        assert_eq!(dev.device_used(), 32 * 32);
        assert_eq!(dev.buddy_used(), 32 * 96);
        let mut out = vec![[0u8; ENTRY_BYTES]; 32];
        dev.read_entries(a, 0, &mut out).unwrap();
        assert_eq!(out, entries, "migration must preserve every byte");
        let (_, target, _) = dev.allocation_info(a).unwrap();
        assert_eq!(target, TargetRatio::R4);
        let s = dev.stats();
        assert_eq!(s.retargets, 1);
        assert_eq!(s.moved_sectors, report.moved_sectors);
    }

    #[test]
    fn retarget_to_same_target_is_a_free_noop() {
        let mut dev = small_device();
        let a = dev.alloc("t", 8, TargetRatio::R2).unwrap();
        dev.write_entries(a, 0, &[entry_of_words(|j| j as u32); 8])
            .unwrap();
        let before = dev.stats();
        let report = dev.retarget(a, TargetRatio::R2).unwrap();
        assert_eq!(report.moved_sectors, 0);
        assert_eq!(report.device_bytes_delta, 0);
        assert_eq!(dev.stats(), before, "no-op must not move counters");
        assert_eq!(dev.stats().retargets, 0);
    }

    #[test]
    fn retarget_never_disturbs_other_allocations() {
        // Three allocations; the *middle* one migrates both ways. The
        // neighbours' regions are never touched (migration is alloc-new /
        // re-encode / free-old) and their contents must survive
        // byte-for-byte.
        let mut dev = small_device();
        let a = dev.alloc("first", 16, TargetRatio::R4).unwrap();
        let b = dev.alloc("middle", 16, TargetRatio::R2).unwrap();
        let c = dev.alloc("last", 16, TargetRatio::ZeroPage16).unwrap();
        let data = |salt: u32| -> Vec<Entry> {
            (0..16)
                .map(|i| entry_of_words(|j| salt + i * 13 + j as u32))
                .collect()
        };
        let (da, db, dc) = (data(1000), data(2000), data(3000));
        dev.write_entries(a, 0, &da).unwrap();
        dev.write_entries(b, 0, &db).unwrap();
        dev.write_entries(c, 0, &dc).unwrap();
        for new_target in [TargetRatio::R1, TargetRatio::ZeroPage16, TargetRatio::R4] {
            dev.retarget(b, new_target).unwrap();
            for (id, expect, name) in [(a, &da, "first"), (b, &db, "middle"), (c, &dc, "last")] {
                let mut out = vec![[0u8; ENTRY_BYTES]; 16];
                dev.read_entries(id, 0, &mut out).unwrap();
                assert_eq!(&out, expect, "{name} after middle -> {new_target}");
            }
        }
        assert_eq!(dev.stats().retargets, 3);
        // Reservations account for the final targets exactly.
        assert_eq!(dev.device_used(), 16 * (32 + 32 + 8));
        assert_eq!(dev.buddy_used(), 16 * (96 + 96 + 128));
    }

    #[test]
    fn retarget_capacity_failure_leaves_device_untouched() {
        // Device sized so the 2x allocation fits but 1x does not.
        let mut dev = BuddyDevice::new(DeviceConfig {
            device_capacity: 64 * 64 + 16,
            carve_out_factor: 3,
        });
        let a = dev.alloc("tight", 64, TargetRatio::R2).unwrap();
        let entries: Vec<Entry> = (0..64).map(|i| entry_of_words(|j| i + j as u32)).collect();
        dev.write_entries(a, 0, &entries).unwrap();
        let stats_before = dev.stats();
        let err = dev.retarget(a, TargetRatio::R1).unwrap_err();
        assert!(matches!(err, DeviceError::OutOfDeviceMemory { .. }));
        assert_eq!(dev.stats(), stats_before, "failed retarget must not count");
        assert_eq!(dev.device_used(), 64 * 64);
        let (_, target, _) = dev.allocation_info(a).unwrap();
        assert_eq!(target, TargetRatio::R2, "target must be unchanged");
        let mut out = vec![[0u8; ENTRY_BYTES]; 64];
        dev.read_entries(a, 0, &mut out).unwrap();
        assert_eq!(out, entries);

        // Buddy exhaustion is detected the same way (no carve-out at all).
        let mut dev = BuddyDevice::new(DeviceConfig {
            device_capacity: 4096,
            carve_out_factor: 0,
        });
        let a = dev.alloc("plain", 16, TargetRatio::R1).unwrap();
        assert!(matches!(
            dev.retarget(a, TargetRatio::R2),
            Err(DeviceError::OutOfBuddyMemory { .. })
        ));
    }

    #[test]
    fn state_window_reflects_metadata_without_traffic() {
        let mut dev = small_device();
        let a = dev.alloc("w", 16, TargetRatio::R2).unwrap();
        // 8 zeros (untouched), 4 one-sector ramps, 4 incompressible.
        for i in 0..4u64 {
            write1(&mut dev, a, i, &entry_of_words(|j| 500 + j as u32)).unwrap();
        }
        let mut s = 1u64;
        let noisy = entry_of_words(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            (s >> 32) as u32
        });
        for i in 4..8u64 {
            write1(&mut dev, a, i, &noisy).unwrap();
        }
        let before = dev.stats();
        let window = dev.handle().state_window(a).unwrap();
        assert_eq!(dev.stats(), before, "window scans must be traffic-free");
        assert_eq!(window.total(), 16);
        assert_eq!(window.count(SizeClass::B0), 8);
        assert_eq!(window.count(SizeClass::B32), 4);
        assert_eq!(window.count(SizeClass::B128), 4);
        assert!((TargetRatio::R2.overflow_fraction(&window) - 0.25).abs() < 1e-12);
        assert_eq!(dev.allocation_count(), 1);
    }

    #[test]
    fn a_reserved_nibble_fails_typed_and_leaves_the_device_intact() {
        let mut dev = small_device();
        let damaged = dev.alloc("damaged", 16, TargetRatio::R2).unwrap();
        let neighbour = dev.alloc("neighbour", 16, TargetRatio::R2).unwrap();
        let data: Vec<Entry> = (0..16)
            .map(|i| entry_of_words(|j| i * 7 + j as u32))
            .collect();
        dev.write_entries(damaged, 0, &data).unwrap();
        dev.write_entries(neighbour, 0, &data).unwrap();
        // One flipped metadata nibble: entry 5 now holds a reserved state.
        let view = dev.view(damaged).unwrap();
        dev.shared
            .metadata
            .store_nibble(view.metadata_index(5), 0xF);
        let stats = dev.stats();
        let error = DeviceError::CorruptEntry {
            index: 5,
            cause: None,
        };
        let corrupt = Err(error.clone());

        let mut out = vec![[0u8; ENTRY_BYTES]; 16];
        assert_eq!(dev.read_entries(damaged, 0, &mut out), corrupt);
        assert_eq!(
            dev.handle().read_entries(damaged, 4, &mut out[..4]),
            corrupt
        );
        assert_eq!(dev.handle().entry_state(damaged, 5), Err(error.clone()));
        assert_eq!(dev.handle().state_window(damaged), Err(error.clone()));
        assert_eq!(dev.retarget(damaged, TargetRatio::R4).map(|_| ()), corrupt);
        // The failed retarget mutated nothing: same target, reservation and
        // counters, and the undamaged entries still read back.
        assert_eq!(dev.allocation_info(damaged).unwrap().1, TargetRatio::R2);
        assert_eq!(dev.device_used(), 2 * 16 * 64);
        assert_eq!(dev.stats(), stats);
        dev.read_entries(damaged, 6, &mut out[6..]).unwrap();
        assert_eq!(out[6..], data[6..]);
        // The neighbour is byte-identical.
        dev.read_entries(neighbour, 0, &mut out).unwrap();
        assert_eq!(out, data);
        assert_eq!(
            error.to_string(),
            "entry 5 is stored corrupt: bad metadata state"
        );
        assert!(error.source().is_none());
    }

    /// A stream the codec rejects reports the codec's own error, variant
    /// and offset, in every read path; the nibble and the other entries
    /// are untouched.
    #[test]
    fn an_undecodable_stream_fails_with_its_decode_error() {
        let mut dev = small_device();
        let id = dev.alloc("damaged", 8, TargetRatio::R2).unwrap();
        let data: Vec<Entry> = (0..8)
            .map(|i| entry_of_words(|j| 1000 * i + j as u32))
            .collect();
        dev.write_entries(id, 0, &data).unwrap();
        let state = EntryState::Compressed { sectors: 1 };
        assert_eq!(dev.handle().entry_state(id, 3), Ok(state));
        // A zero base, then `00011` + position 31: a single one past the
        // top of a 31-bit plane, invalid once its 10 bits are read.
        let mut sector = [0u8; SECTOR_BYTES];
        sector[..2].copy_from_slice(&[0b0000_1111, 0b1110_0000]);
        let view = dev.view(id).unwrap();
        dev.shared.device.write(view.device_offset(3), &sector);
        let error = DeviceError::CorruptEntry {
            index: 3,
            cause: Some(DecodeError::InvalidCode { bit_offset: 11 }),
        };

        let mut out = vec![[0u8; ENTRY_BYTES]; 8];
        assert_eq!(dev.read_entries(id, 0, &mut out), Err(error.clone()));
        assert_eq!(
            dev.handle().read_entries(id, 3, &mut out[3..4]),
            Err(error.clone())
        );
        assert_eq!(
            dev.retarget(id, TargetRatio::R4).map(|_| ()),
            Err(error.clone())
        );
        assert_eq!(dev.handle().entry_state(id, 3), Ok(state));
        dev.read_entries(id, 4, &mut out[4..]).unwrap();
        assert_eq!(out[4..], data[4..]);
        assert_eq!(
            error.to_string(),
            "entry 3 is stored corrupt: invalid code word at bit offset 11"
        );
        assert_eq!(
            error.source().map(ToString::to_string),
            Some("invalid code word at bit offset 11".to_string())
        );
    }

    /// Which stored array a fault-injection flip lands in.
    #[derive(Debug, Clone, Copy)]
    enum Store {
        Device,
        Buddy,
        Metadata,
    }

    /// Flips bit `bit` of `store` (a second flip restores it).
    fn flip(dev: &BuddyDevice, store: Store, bit: u64) {
        match store {
            Store::Device => dev.shared.device.flip_bit(bit),
            Store::Buddy => dev.shared.buddy.flip_bit(bit),
            Store::Metadata => dev.shared.metadata.flip_bit(bit),
        }
    }

    /// The bits of `store` that hold `view`'s state. For metadata that is
    /// every bit of every storage unit its nibbles touch, so flips also
    /// land in the neighbours' nibbles of a shared edge unit.
    fn bits_of(view: &AllocView, store: Store) -> std::ops::Range<u64> {
        match store {
            Store::Device => {
                view.device_base * 8..(view.device_base + view.entries * view.device_stride()) * 8
            }
            Store::Buddy => {
                view.buddy_base * 8..(view.buddy_base + view.entries * view.buddy_stride()) * 8
            }
            Store::Metadata => {
                let first = view.metadata_index(0);
                first / 16 * 64..(first + view.entries).div_ceil(16) * 64
            }
        }
    }

    /// Whether `bit` of `store` belongs to `view` (for metadata: lies in
    /// one of its own nibbles).
    fn owns(view: &AllocView, store: Store, bit: u64) -> bool {
        match store {
            Store::Metadata => {
                let first = view.metadata_index(0);
                (first..first + view.entries).contains(&(bit / 4))
            }
            _ => bits_of(view, store).contains(&bit),
        }
    }

    /// A single flipped bit anywhere in an allocation's device words,
    /// buddy words or metadata units is contained: every read of the
    /// damaged allocation — batch or single entry, device or handle —
    /// returns `Ok` or [`DeviceError::CorruptEntry`] and never panics, and
    /// every other allocation reads back byte-identical. Run for each
    /// target of the damaged allocation, allocated after two 3-entry 16×
    /// neighbours: 24 device bytes each, so all three allocations' nibbles
    /// share one metadata unit. Device memory ends exactly at the damaged
    /// reservation (and under 4× the carve-out does too), so a flip that
    /// sent a read past its own reservation would run off the end of
    /// storage — as a nibble flipped to zero-page overflow under 4× would,
    /// reading 128 B from a 96 B buddy slot, if reads did not reject
    /// states their target cannot store.
    #[test]
    fn single_bit_flips_stay_inside_the_damaged_allocation() {
        let mut lcg = 7u64;
        let mut random = || {
            entry_of_words(|_| {
                lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
                (lcg >> 32) as u32
            })
        };
        // Zero, zero-page fit, one sector, a few sectors, raw.
        let data: Vec<Entry> = vec![
            [0u8; ENTRY_BYTES],
            entry_of_words(|_| 0x0101_0101),
            entry_of_words(|i| 1000 + i as u32),
            entry_of_words(|i| (i as u32).wrapping_mul(0x9E37_79B9) >> 20),
            random(),
        ];
        let neighbour_data = [random(), entry_of_words(|i| 5 * i as u32), random()];
        for target in TargetRatio::DESCENDING {
            let n = data.len() as u64;
            let device_capacity = 2 * 3 * 8 + n * u64::from(target.device_bytes_per_entry());
            let buddy_need = 2 * 3 * 128 + n * u64::from(target.buddy_bytes_per_entry());
            let mut dev = BuddyDevice::new(DeviceConfig {
                device_capacity,
                carve_out_factor: buddy_need.div_ceil(device_capacity),
            });
            let before = dev.alloc("before", 3, TargetRatio::ZeroPage16).unwrap();
            let after = dev.alloc("after", 3, TargetRatio::ZeroPage16).unwrap();
            let damaged = dev.alloc("damaged", n, target).unwrap();
            dev.write_entries(before, 0, &neighbour_data).unwrap();
            dev.write_entries(after, 0, &neighbour_data).unwrap();
            dev.write_entries(damaged, 0, &data).unwrap();
            let ids = [
                (before, &neighbour_data[..]),
                (after, &neighbour_data[..]),
                (damaged, &data[..]),
            ];
            let views = ids.map(|(id, _)| dev.view(id).unwrap());
            // The shared edge unit: `damaged`'s metadata unit also holds
            // both neighbours' nibbles.
            for neighbour in &views[..2] {
                let mut edge = bits_of(&views[2], Store::Metadata);
                assert!(edge.any(|bit| owns(neighbour, Store::Metadata, bit)));
            }
            let handle = dev.handle();
            for store in [Store::Device, Store::Buddy, Store::Metadata] {
                for bit in bits_of(&views[2], store) {
                    flip(&dev, store, bit);
                    for ((id, expected), view) in ids.iter().zip(&views) {
                        let mut out = vec![[0u8; ENTRY_BYTES]; expected.len()];
                        let whole = dev.read_entries(*id, 0, &mut out);
                        if !owns(view, store, bit) {
                            assert_eq!(whole, Ok(()), "{target} {store:?} bit {bit}");
                            assert_eq!(&out[..], *expected, "{target} {store:?} bit {bit}");
                            continue;
                        }
                        let contained = |r: &Result<(), DeviceError>| {
                            matches!(r, Ok(()) | Err(DeviceError::CorruptEntry { .. }))
                        };
                        assert!(contained(&whole), "{target} {store:?} bit {bit}: {whole:?}");
                        for i in 0..expected.len() {
                            let one = handle.read_entries(*id, i as u64, &mut out[i..=i]);
                            assert!(contained(&one), "{target} {store:?} bit {bit}: {one:?}");
                        }
                    }
                    flip(&dev, store, bit);
                }
            }
            for (id, expected) in ids {
                let mut out = vec![[0u8; ENTRY_BYTES]; expected.len()];
                dev.read_entries(id, 0, &mut out).unwrap();
                assert_eq!(&out[..], expected, "{target}: flips undone");
            }
        }
    }

    #[test]
    fn free_reclaims_both_regions_and_clears_the_nibbles() {
        let mut dev = small_device();
        let data = entry_of_words(|j| 31 * j as u32);
        let ids: Vec<AllocId> = (0..8)
            .map(|i| dev.alloc(&format!("a{i}"), 64, TargetRatio::R2).unwrap())
            .collect();
        for &id in &ids {
            write1(&mut dev, id, 0, &data).unwrap();
        }
        assert_eq!(dev.device_used(), 8 * 64 * 64);
        for &id in &ids {
            dev.free(id).unwrap();
        }
        assert_eq!(dev.device_used(), 0);
        assert_eq!(dev.buddy_used(), 0);
        assert_eq!(dev.allocation_count(), 0);
        assert_eq!(dev.logical_bytes(), 0);
        assert_eq!(dev.fragmentation(), 0.0, "full coalesce after churn");
        // The reclaimed space hosts a full-capacity allocation again.
        let entries = dev.config().device_capacity / 128;
        let big = dev.alloc("big", entries, TargetRatio::R1).unwrap();
        assert_eq!(dev.device_used(), dev.config().device_capacity);
        // Recycled storage reads as zero despite the earlier writes.
        assert_eq!(read1(&mut dev, big, 0).unwrap(), [0u8; ENTRY_BYTES]);
    }

    #[test]
    fn recycled_device_ranges_read_zero_beside_intact_neighbours() {
        // Sixteen 16x / 1x pairs carpet the device, the 1x halves are
        // freed and sixteen more 16x allocations land in their holes: each
        // recycled range needs 4000 nibbles where its dead tenant used 250,
        // all of them addressed from the device offset — nothing to
        // allocate, so nothing to run out of or grow.
        let mut dev = BuddyDevice::new(DeviceConfig {
            device_capacity: 1 << 20,
            carve_out_factor: 16,
        });
        let fit = |salt: u32| vec![entry_of_words(|_| 0xABCD_0000 + salt); 4000];
        let mut x = 7u64;
        let noisy = entry_of_words(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            (x >> 32) as u32
        });
        let mut survivors = Vec::new();
        let mut holes = Vec::new();
        for pair in 0..16u32 {
            let zp = dev.alloc("zp", 4000, TargetRatio::ZeroPage16).unwrap();
            dev.write_entries(zp, 0, &fit(pair)).unwrap();
            survivors.push((zp, pair));
            let r1 = dev.alloc("r1", 250, TargetRatio::R1).unwrap();
            dev.write_entries(r1, 0, &vec![noisy; 250]).unwrap();
            holes.push(r1);
        }
        for r1 in holes {
            dev.free(r1).unwrap();
        }
        for pair in 16..32u32 {
            let zp = dev
                .alloc("recycled", 4000, TargetRatio::ZeroPage16)
                .unwrap();
            let mut out = vec![[9u8; ENTRY_BYTES]; 4000];
            dev.read_entries(zp, 0, &mut out).unwrap();
            assert!(
                out.iter().all(|e| *e == [0u8; ENTRY_BYTES]),
                "placement {pair}: a dead allocation's nibbles leaked through"
            );
            let states = dev.handle().state_window(zp).unwrap();
            assert_eq!(
                states.count(SizeClass::B0),
                4000,
                "placement {pair}: states"
            );
            dev.write_entries(zp, 0, &fit(pair)).unwrap();
            survivors.push((zp, pair));
        }
        assert_eq!(survivors.len(), 32);
        for (zp, salt) in survivors {
            let mut out = vec![[0u8; ENTRY_BYTES]; 4000];
            dev.read_entries(zp, 0, &mut out).unwrap();
            assert_eq!(out, fit(salt), "survivor {salt}");
        }
    }

    #[test]
    fn stale_ids_are_dead_even_after_slot_reuse() {
        let mut dev = small_device();
        let a = dev.alloc("a", 16, TargetRatio::R2).unwrap();
        dev.free(a).unwrap();
        // The slot is recycled by the next allocation; the stale handle
        // must not alias it.
        let b = dev.alloc("b", 16, TargetRatio::R2).unwrap();
        assert_ne!(a, b, "generation must distinguish reused slots");
        assert_eq!(read1(&mut dev, a, 0), Err(DeviceError::BadAllocation));
        assert_eq!(
            write1(&mut dev, a, 0, &[1u8; ENTRY_BYTES]),
            Err(DeviceError::BadAllocation)
        );
        assert_eq!(
            dev.retarget(a, TargetRatio::R4),
            Err(DeviceError::BadAllocation)
        );
        assert_eq!(
            dev.handle().state_window(a),
            Err(DeviceError::BadAllocation)
        );
        assert_eq!(dev.free(a), Err(DeviceError::BadAllocation), "double free");
        // The live handle still works.
        assert_eq!(read1(&mut dev, b, 0).unwrap(), [0u8; ENTRY_BYTES]);
        assert_eq!(dev.allocation_count(), 1);
    }

    #[test]
    fn freed_holes_are_reused_first_fit() {
        // Device sized for exactly four 64-entry R2 allocations.
        let mut dev = BuddyDevice::new(DeviceConfig {
            device_capacity: 4 * 64 * 64,
            carve_out_factor: 3,
        });
        let ids: Vec<AllocId> = (0..4)
            .map(|i| dev.alloc(&format!("a{i}"), 64, TargetRatio::R2).unwrap())
            .collect();
        assert!(dev.alloc("extra", 64, TargetRatio::R2).is_err());
        // Free the two middle allocations: adjacent holes coalesce into
        // one 8 KiB run that hosts a double-size allocation.
        dev.free(ids[1]).unwrap();
        dev.free(ids[2]).unwrap();
        assert_eq!(dev.device_free(), 2 * 64 * 64);
        assert_eq!(dev.largest_free_region(), 2 * 64 * 64);
        assert_eq!(dev.fragmentation(), 0.0);
        let big = dev.alloc("big", 128, TargetRatio::R2).unwrap();
        assert_eq!(dev.device_used(), dev.config().device_capacity);
        let data = entry_of_words(|j| 5 + j as u32);
        write1(&mut dev, big, 127, &data).unwrap();
        assert_eq!(read1(&mut dev, big, 127).unwrap(), data);
        // Neighbours at the edges were never touched.
        assert!(read1(&mut dev, ids[0], 0).is_ok());
        assert!(read1(&mut dev, ids[3], 0).is_ok());
    }

    #[test]
    fn fragmentation_is_observable() {
        // Three allocations, free the first and third: two disjoint holes.
        let mut dev = BuddyDevice::new(DeviceConfig {
            device_capacity: 3 * 64 * 64,
            carve_out_factor: 3,
        });
        let a = dev.alloc("a", 64, TargetRatio::R2).unwrap();
        let b = dev.alloc("b", 64, TargetRatio::R2).unwrap();
        let c = dev.alloc("c", 64, TargetRatio::R2).unwrap();
        dev.free(a).unwrap();
        dev.free(c).unwrap();
        assert_eq!(dev.device_free(), 2 * 64 * 64);
        assert_eq!(dev.largest_free_region(), 64 * 64);
        assert!((dev.fragmentation() - 0.5).abs() < 1e-12);
        // A request larger than the largest hole fails despite enough
        // total free bytes, and reports the largest contiguous run.
        let err = dev.alloc("big", 128, TargetRatio::R2).unwrap_err();
        assert_eq!(
            err,
            DeviceError::OutOfDeviceMemory {
                requested: 128 * 64,
                available: 64 * 64,
            }
        );
        let _ = b;
    }

    #[test]
    fn overflow_sized_requests_fail_cleanly() {
        let mut dev = small_device();
        for target in TargetRatio::DESCENDING {
            assert_eq!(
                dev.alloc("huge", u64::MAX / 2, target),
                Err(DeviceError::RequestOverflow),
                "{target}"
            );
        }
        assert_eq!(dev.allocation_count(), 0);
        assert_eq!(dev.device_used(), 0);
        assert_eq!(
            DeviceError::RequestOverflow.to_string(),
            "request size arithmetic overflows u64"
        );
        // The config product is checked, not wrapped.
        let absurd = DeviceConfig {
            device_capacity: u64::MAX,
            carve_out_factor: 3,
        };
        assert_eq!(absurd.buddy_capacity(), None);
        assert_eq!(
            DeviceConfig::default().buddy_capacity(),
            Some(3 * (64 << 20))
        );
    }

    #[test]
    fn retarget_succeeds_on_a_completely_full_device() {
        // Every device byte is reserved: the alloc-new-first path cannot
        // place the new region, so the migration must fall back to
        // releasing the old reservation first — and still succeed.
        let mut dev = BuddyDevice::new(DeviceConfig {
            device_capacity: 64 * 128,
            carve_out_factor: 3,
        });
        let a = dev.alloc("full", 64, TargetRatio::R1).unwrap();
        assert_eq!(dev.device_free(), 0);
        let entries: Vec<Entry> = (0..64).map(|i| entry_of_words(|j| i + j as u32)).collect();
        dev.write_entries(a, 0, &entries).unwrap();
        let report = dev.retarget(a, TargetRatio::R2).unwrap();
        assert_eq!(report.device_bytes_delta, -(64 * 64));
        let mut out = vec![[0u8; ENTRY_BYTES]; 64];
        dev.read_entries(a, 0, &mut out).unwrap();
        assert_eq!(out, entries);
        assert_eq!(dev.device_used(), 64 * 64);
    }

    /// A batch write loads the device lines of its entries after the
    /// first before it stores them. Here the device array ends 32 B into a
    /// 64 B line, and 32-, 2- and 1-entry batches end at the device's last
    /// entry, under `ZeroPage16` (eight entries to a line) and `R1` (two
    /// lines to an entry): every entry, and the neighbour sharing the
    /// allocation's first line, must read back exactly.
    #[test]
    fn batch_writes_ending_mid_line_at_the_device_end_read_back_exactly() {
        const CAPACITY: u64 = 32 + 42 * 128;
        let mut lcg = 5u64;
        let mut entry = |kind: u64| match kind % 4 {
            0 => [0u8; ENTRY_BYTES],
            1 => entry_of_words(|_| 0x0101_0101),
            2 => entry_of_words(|i| 1000 + i as u32),
            _ => entry_of_words(|_| {
                lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
                (lcg >> 32) as u32
            }),
        };
        for target in [TargetRatio::ZeroPage16, TargetRatio::R1] {
            let mut dev = BuddyDevice::new(DeviceConfig {
                device_capacity: CAPACITY,
                carve_out_factor: 16,
            });
            // A 32 B neighbour first, so the allocation under test spans
            // [32, CAPACITY) and ends mid-line whatever its stride.
            let pad = dev.alloc("pad", 1, TargetRatio::R4).unwrap();
            let pad_entry = entry(3);
            write1(&mut dev, pad, 0, &pad_entry).unwrap();
            let entries = (CAPACITY - 32) / u64::from(target.device_bytes_per_entry());
            let a = dev.alloc("a", entries, target).unwrap();
            assert_eq!(dev.device_free(), 0);
            let mut model = vec![[0u8; ENTRY_BYTES]; entries as usize];
            for (round, len) in [32u64, 2, 1, 32, 2, 1].into_iter().enumerate() {
                let start = entries - len;
                let batch: Vec<Entry> = (0..len).map(|i| entry(i + round as u64)).collect();
                dev.write_entries(a, start, &batch).unwrap();
                model[start as usize..].copy_from_slice(&batch);
                let mut out = vec![[0u8; ENTRY_BYTES]; entries as usize];
                dev.read_entries(a, 0, &mut out).unwrap();
                assert!(out == model, "{target:?}: a {len}-entry batch at {start}");
                assert_eq!(read1(&mut dev, pad, 0).unwrap(), pad_entry);
            }
        }
    }

    #[test]
    fn batched_range_checks() {
        let mut dev = small_device();
        let a = dev.alloc("a", 8, TargetRatio::R2).unwrap();
        let chunk = [[1u8; ENTRY_BYTES]; 4];
        // In-range at the tail is fine; one past is rejected atomically.
        dev.write_entries(a, 4, &chunk).unwrap();
        assert!(matches!(
            dev.write_entries(a, 5, &chunk),
            Err(DeviceError::BadIndex {
                index: 8,
                entries: 8
            })
        ));
        let mut out = [[0u8; ENTRY_BYTES]; 4];
        assert!(matches!(
            dev.read_entries(a, 6, &mut out),
            Err(DeviceError::BadIndex { .. })
        ));
        // Empty batches are no-ops, even at the end of the allocation.
        dev.write_entries(a, 8, &[]).unwrap();
        dev.read_entries(a, 8, &mut []).unwrap();
    }
}
