//! Multi-tenant service layer over the Buddy-Compression pool: per-tenant
//! capacity quotas, admission control, ownership-checked handles, and one
//! per-tenant ledger.
//!
//! Buddy Compression's value is letting a fixed device-memory budget serve
//! more than it physically holds (Choukse et al., ISCA 2020). Once that
//! budget is shared by many users, someone has to decide *who* gets the
//! compressed capacity when demand exceeds supply — this crate is that
//! layer (DESIGN.md §11):
//!
//! * [`BuddyService`] fronts one [`BuddyPool`] for N registered tenants.
//!   Every allocation is charged against its tenant's quota in
//!   **compressed device bytes** (`entries × target bytes-per-entry`) —
//!   the resource that is actually scarce — and every handle is
//!   generational and ownership-checked: a tenant cannot free, read,
//!   write, retarget or transfer another tenant's allocation, and a stale
//!   handle (freed, or invalidated by an ownership transfer) fails every
//!   operation with [`ServiceError::BadHandle`].
//! * [`AdmissionPolicy`] decides what happens on quota breach:
//!   [`Reject`](AdmissionPolicy::Reject) returns a typed
//!   [`ServiceError::QuotaExceeded`], while
//!   [`Demote`](AdmissionPolicy::Demote) walks the
//!   [`TargetRatio::DESCENDING`] ladder toward more aggressive targets —
//!   smaller device reservations, more buddy-memory overflow — and admits
//!   at the least-aggressive target that fits both the quota and the pool.
//!   Demotion trades the tenant's bandwidth for admission, the paper's
//!   target-ratio tradeoff turned into policy.
//! * [`BuddyService::tenants`] reads the ledger: one [`TenantRow`] per
//!   tenant, built from the same state admission charges against. Event
//!   counts and per-batch [`AccessStats`] deltas from the pool's
//!   `*_collect` paths are attributed to the issuing tenant through
//!   lock-free counters, under the shared read lock.
//!
//! # Example
//!
//! ```
//! use buddy_service::{AdmissionPolicy, BuddyService, ServiceError};
//! use buddy_pool::{PoolConfig, TargetRatio};
//!
//! let service = BuddyService::new(PoolConfig::default());
//! let quota = 64 * 1024;
//! let a = service.register_tenant("tenant-a", quota, AdmissionPolicy::Reject)?;
//! let b = service.register_tenant("tenant-b", quota, AdmissionPolicy::Reject)?;
//!
//! let grant = service.alloc(a, "model", 256, TargetRatio::R2)?;
//! // Tenant B cannot touch tenant A's allocation.
//! assert!(matches!(
//!     service.free(b, grant.id),
//!     Err(ServiceError::CrossTenant { .. })
//! ));
//! service.free(a, grant.id)?;
//! # Ok::<(), buddy_service::ServiceError>(())
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub use buddy_pool::{
    AccessStats, CodecKind, DeviceConfig, DeviceError, Entry, PoolConfig, RetargetReport,
    TargetRatio, ENTRY_BYTES,
};

use buddy_obs::Counter;
use buddy_pool::{BuddyPool, PoolAllocId, SharedStats};
use std::error::Error;
use std::fmt;
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

/// What admission control does when a request breaches its tenant's quota
/// (or the pool's capacity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Fail the request with [`ServiceError::QuotaExceeded`].
    Reject,
    /// Walk the [`TargetRatio::DESCENDING`] ladder toward more aggressive
    /// targets (smaller device reservation, more buddy overflow) and admit
    /// at the least-aggressive target that fits; reject only when even the
    /// most aggressive target does not fit.
    Demote,
}

/// Handle to one tenant of a [`BuddyService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TenantId(u32);

/// Handle to one service allocation.
///
/// Ids are **generational** at the service layer (on top of the pool's own
/// generational ids): [`free`](BuddyService::free) and
/// [`transfer`](BuddyService::transfer) bump the slot generation, so a
/// retained copy of the handle fails every later operation with
/// [`ServiceError::BadHandle`] — it can never alias a newer allocation or
/// outlive an ownership change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ServiceAllocId {
    slot: u32,
    generation: u64,
}

/// Outcome of a successful admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocGrant {
    /// The allocation handle.
    pub id: ServiceAllocId,
    /// The target ratio actually granted.
    pub target: TargetRatio,
    /// Whether admission demoted the request below the asked-for target.
    pub demoted: bool,
}

/// Errors of the service layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The request does not fit the tenant's quota (after any demotion
    /// search its policy allows).
    QuotaExceeded {
        /// Compressed device bytes the request needs at the asked target.
        requested: u64,
        /// Compressed device bytes of quota headroom remaining.
        headroom: u64,
    },
    /// The handle names an allocation owned by a different tenant.
    CrossTenant {
        /// The allocation's owner.
        owner: TenantId,
        /// The tenant that attempted the operation.
        caller: TenantId,
    },
    /// The tenant id was never returned by
    /// [`register_tenant`](BuddyService::register_tenant).
    UnknownTenant,
    /// A tenant with this name is already registered.
    DuplicateTenant,
    /// The allocation handle is stale (freed or transferred) or was never
    /// issued by this service.
    BadHandle,
    /// An underlying device/pool error (capacity, bad index, overflow).
    Device(DeviceError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::QuotaExceeded {
                requested,
                headroom,
            } => write!(
                f,
                "quota exceeded: request needs {requested} B compressed, {headroom} B headroom"
            ),
            ServiceError::CrossTenant { owner, caller } => write!(
                f,
                "cross-tenant access denied: allocation owned by tenant {} but used by tenant {}",
                owner.0, caller.0
            ),
            ServiceError::UnknownTenant => write!(f, "unknown tenant id"),
            ServiceError::DuplicateTenant => write!(f, "tenant name already registered"),
            ServiceError::BadHandle => write!(f, "stale or foreign service allocation handle"),
            ServiceError::Device(e) => write!(f, "device error: {e}"),
        }
    }
}

impl Error for ServiceError {}

impl From<DeviceError> for ServiceError {
    fn from(e: DeviceError) -> Self {
        ServiceError::Device(e)
    }
}

/// What is counted per tenant through `&self`: entry I/O folds its traffic
/// in, and denials are counted, under the shared read lock, so these are
/// lock-free counters rather than plain ledger fields.
#[derive(Debug, Default)]
struct TenantCounters {
    allocs: Counter,
    frees: Counter,
    rejections: Counter,
    demotions: Counter,
    transfers: Counter,
    cross_tenant_denials: Counter,
    traffic: SharedStats,
}

/// Per-tenant accounting state (behind the service lock).
#[derive(Debug)]
struct TenantState {
    name: String,
    quota_bytes: u64,
    policy: AdmissionPolicy,
    used_bytes: u64,
    logical_bytes: u64,
    allocations: u64,
    counters: TenantCounters,
}

impl TenantState {
    fn headroom(&self) -> u64 {
        self.quota_bytes.saturating_sub(self.used_bytes)
    }

    /// Charges one allocation to the ledger.
    fn charge(&mut self, alloc: &ServiceAlloc) {
        self.used_bytes += alloc.device_bytes;
        self.logical_bytes += alloc.logical_bytes();
        self.allocations += 1;
    }

    /// Refunds what [`charge`](Self::charge) charged.
    fn refund(&mut self, alloc: &ServiceAlloc) {
        self.used_bytes = self.used_bytes.saturating_sub(alloc.device_bytes);
        self.logical_bytes = self.logical_bytes.saturating_sub(alloc.logical_bytes());
        self.allocations = self.allocations.saturating_sub(1);
    }

    /// The tenant's ledger row; built under the caller's read lock.
    fn row(&self) -> TenantRow {
        TenantRow {
            name: self.name.clone(),
            allocs: self.counters.allocs.get(),
            frees: self.counters.frees.get(),
            rejections: self.counters.rejections.get(),
            demotions: self.counters.demotions.get(),
            transfers: self.counters.transfers.get(),
            cross_tenant_denials: self.counters.cross_tenant_denials.get(),
            used_bytes: self.used_bytes,
            quota_bytes: self.quota_bytes,
            quota_headroom: self.headroom(),
            logical_bytes: self.logical_bytes,
            allocations: self.allocations,
            stats: self.counters.traffic.snapshot(),
        }
    }
}

/// One tenant's line of the ledger, as [`BuddyService::tenants`] and
/// [`BuddyService::tenant`] report it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantRow {
    /// Tenant name.
    pub name: String,
    /// Successful allocations.
    pub allocs: u64,
    /// Successful frees.
    pub frees: u64,
    /// Admission rejections.
    pub rejections: u64,
    /// Demoted admissions.
    pub demotions: u64,
    /// Ownership transfers.
    pub transfers: u64,
    /// Cross-tenant denials.
    pub cross_tenant_denials: u64,
    /// Compressed device bytes charged.
    pub used_bytes: u64,
    /// Quota in compressed device bytes.
    pub quota_bytes: u64,
    /// Quota headroom (`quota − used`, saturating).
    pub quota_headroom: u64,
    /// Uncompressed bytes represented.
    pub logical_bytes: u64,
    /// Live allocations.
    pub allocations: u64,
    /// Traffic counters.
    pub stats: AccessStats,
}

impl TenantRow {
    /// Effective compression ratio of the tenant's live footprint
    /// (`logical / used`; 1.0 when nothing is charged).
    pub fn effective_ratio(&self) -> f64 {
        if self.used_bytes == 0 {
            return 1.0;
        }
        self.logical_bytes as f64 / self.used_bytes as f64
    }
}

/// One live allocation's bookkeeping.
#[derive(Debug, Clone, Copy)]
struct ServiceAlloc {
    owner: u32,
    pool_id: PoolAllocId,
    device_bytes: u64,
    entries: u64,
}

impl ServiceAlloc {
    /// Uncompressed bytes the allocation represents.
    fn logical_bytes(&self) -> u64 {
        self.entries * ENTRY_BYTES as u64
    }
}

/// One entry of the service slot map.
#[derive(Debug, Clone, Copy)]
struct ServiceSlot {
    generation: u64,
    alloc: Option<ServiceAlloc>,
}

/// Tenant ledger + slot map behind one RwLock: reads (entry I/O, held
/// across the pool call) share, writes (alloc/free/retarget/transfer,
/// which move quota charges) exclude.
#[derive(Debug, Default)]
struct ServiceState {
    tenants: Vec<TenantState>,
    slots: Vec<ServiceSlot>,
    free_slots: Vec<u32>,
}

/// A multi-tenant façade over one [`BuddyPool`]; see the crate docs.
///
/// All methods take `&self` and are safe to call from many threads. Entry
/// I/O resolves its handle, runs against the pool and folds its traffic
/// under one shared read lock, so it never races a structural operation
/// on the service's own state; the structural operations hold the write
/// lock across their pool call and so wait out in-flight I/O. The lock
/// order is service lock, then the pool's slot lock, on every path.
#[derive(Debug)]
pub struct BuddyService {
    pool: BuddyPool,
    state: RwLock<ServiceState>,
}

// The whole point of the service: shareable across tenant threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<BuddyService>();
    assert_send_sync::<TenantId>();
    assert_send_sync::<ServiceAllocId>();
};

impl BuddyService {
    /// Creates a service over a fresh pool built from `config`.
    ///
    /// # Panics
    ///
    /// As [`BuddyPool::new`] (zero or oversized shard count).
    pub fn new(config: PoolConfig) -> Self {
        Self {
            pool: BuddyPool::new(config),
            state: RwLock::new(ServiceState::default()),
        }
    }

    /// The underlying pool (occupancy, fragmentation, drain — everything
    /// that is about *capacity*, not tenancy).
    pub fn pool(&self) -> &BuddyPool {
        &self.pool
    }

    /// One row per tenant, in registration order (the `service-report`
    /// data source).
    ///
    /// The rows are built under one read lock from the state admission
    /// itself charges against, so the ledger fields (`used_bytes`,
    /// `quota_bytes`, `quota_headroom`, `logical_bytes`, `allocations`)
    /// are mutually consistent within a row and across rows. The event
    /// counts and `stats` are lock-free counters: they still race
    /// in-flight operations, and are exact once those are quiescent.
    pub fn tenants(&self) -> Vec<TenantRow> {
        self.read().tenants.iter().map(TenantState::row).collect()
    }

    /// One tenant's row, built as [`tenants`](Self::tenants) builds it.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::UnknownTenant`] for a foreign id.
    pub fn tenant(&self, id: TenantId) -> Result<TenantRow, ServiceError> {
        let state = self.read();
        let t = state.tenants.get(id.0 as usize);
        t.map(TenantState::row).ok_or(ServiceError::UnknownTenant)
    }

    /// Read-locks the state, recovering from poisoning: every mutation
    /// keeps the maps structurally valid even if a caller panics (plain
    /// `Vec` state, charges updated only on completed operations).
    fn read(&self) -> RwLockReadGuard<'_, ServiceState> {
        match self.state.read() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Write-locks the state; poisoning recovery as [`read`](Self::read).
    fn write(&self) -> RwLockWriteGuard<'_, ServiceState> {
        match self.state.write() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Registers a tenant with a quota in **compressed device bytes** and
    /// an admission policy. Use `u64::MAX` for an effectively unlimited
    /// quota.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::DuplicateTenant`] if the name is taken.
    pub fn register_tenant(
        &self,
        name: &str,
        quota_bytes: u64,
        policy: AdmissionPolicy,
    ) -> Result<TenantId, ServiceError> {
        let mut state = self.write();
        if state.tenants.iter().any(|t| t.name == name) {
            return Err(ServiceError::DuplicateTenant);
        }
        let id = u32::try_from(state.tenants.len()).map_err(|_| ServiceError::UnknownTenant)?;
        state.tenants.push(TenantState {
            name: name.to_string(),
            quota_bytes,
            policy,
            used_bytes: 0,
            logical_bytes: 0,
            allocations: 0,
            counters: TenantCounters::default(),
        });
        Ok(TenantId(id))
    }

    /// The admission ladder for a request at `asked`: the asked target
    /// first, then every strictly more aggressive target (smaller device
    /// reservation) in decreasing-reservation order. Only consulted under
    /// the [`Demote`](AdmissionPolicy::Demote) policy past the first rung.
    fn admission_ladder(asked: TargetRatio) -> impl Iterator<Item = TargetRatio> {
        let asked_bytes = asked.device_bytes_per_entry();
        std::iter::once(asked).chain(
            TargetRatio::DESCENDING
                .into_iter()
                .rev()
                .filter(move |t| t.device_bytes_per_entry() < asked_bytes),
        )
    }

    /// Allocates `entries` 128 B memory-entries for `tenant`, admission-
    /// controlled against its quota and the pool's capacity.
    ///
    /// Admission charges `entries × device-bytes-per-entry(target)` of
    /// quota. On breach — or on pool-capacity failure — the tenant's
    /// [`AdmissionPolicy`] applies: `Reject` fails immediately, `Demote`
    /// retries down the target ladder and flags the grant
    /// ([`AllocGrant::demoted`]) if admitted below the asked target.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownTenant`] for a foreign tenant id;
    /// [`ServiceError::QuotaExceeded`] when quota (not pool capacity) is
    /// what stopped admission; [`ServiceError::Device`] for pool failures
    /// (capacity exhaustion, zero-entry or overflowing requests).
    pub fn alloc(
        &self,
        tenant: TenantId,
        name: &str,
        entries: u64,
        target: TargetRatio,
    ) -> Result<AllocGrant, ServiceError> {
        let mut state = self.write();
        let tenant_index = tenant.0 as usize;
        let t = state
            .tenants
            .get(tenant_index)
            .ok_or(ServiceError::UnknownTenant)?;
        let policy = t.policy;
        let headroom = t.headroom();

        let asked_bytes = entry_bytes(entries, target)?;
        let mut quota_blocked = false;
        let mut pool_error: Option<DeviceError> = None;
        let mut granted: Option<(PoolAllocId, TargetRatio, u64)> = None;
        for candidate in Self::admission_ladder(target) {
            let candidate_bytes = entry_bytes(entries, candidate)?;
            if candidate_bytes > headroom {
                quota_blocked = true;
            } else {
                match self.pool.alloc(name, entries, candidate) {
                    Ok(pool_id) => {
                        granted = Some((pool_id, candidate, candidate_bytes));
                        break;
                    }
                    Err(e) if e.is_capacity() => pool_error = Some(e),
                    Err(e) => return Err(ServiceError::Device(e)),
                }
            }
            if policy == AdmissionPolicy::Reject {
                break;
            }
        }

        let Some((pool_id, granted_target, device_bytes)) = granted else {
            state.tenants[tenant_index].counters.rejections.incr();
            // Quota is the admission-layer verdict; a pool capacity error
            // surfaces only when quota never blocked any rung.
            return Err(if quota_blocked {
                ServiceError::QuotaExceeded {
                    requested: asked_bytes,
                    headroom,
                }
            } else {
                match pool_error {
                    Some(e) => ServiceError::Device(e),
                    None => ServiceError::QuotaExceeded {
                        requested: asked_bytes,
                        headroom,
                    },
                }
            });
        };

        let demoted = granted_target != target;
        let slot = match state.free_slots.pop() {
            Some(slot) => slot,
            None => {
                let slot = u32::try_from(state.slots.len()).map_err(|_| {
                    // Undo the pool allocation: the slot map is full (2^32
                    // live allocations — unreachable in practice, but the
                    // pool must not leak if it happens).
                    let _ = self.pool.free(pool_id);
                    ServiceError::Device(DeviceError::RequestOverflow)
                })?;
                state.slots.push(ServiceSlot {
                    generation: 0,
                    alloc: None,
                });
                slot
            }
        };
        let alloc = ServiceAlloc {
            owner: tenant.0,
            pool_id,
            device_bytes,
            entries,
        };
        state.slots[slot as usize].alloc = Some(alloc);
        let generation = state.slots[slot as usize].generation;
        let t = &mut state.tenants[tenant_index];
        t.charge(&alloc);
        t.counters.allocs.incr();
        if demoted {
            t.counters.demotions.incr();
        }
        Ok(AllocGrant {
            id: ServiceAllocId { slot, generation },
            target: granted_target,
            demoted,
        })
    }

    /// Resolves a handle to its live allocation, checking generation and
    /// ownership. Returns the allocation's bookkeeping copy.
    fn resolve(
        state: &ServiceState,
        tenant: TenantId,
        id: ServiceAllocId,
    ) -> Result<ServiceAlloc, ServiceError> {
        if state.tenants.get(tenant.0 as usize).is_none() {
            return Err(ServiceError::UnknownTenant);
        }
        let slot = state
            .slots
            .get(id.slot as usize)
            .ok_or(ServiceError::BadHandle)?;
        if slot.generation != id.generation {
            return Err(ServiceError::BadHandle);
        }
        let alloc = slot.alloc.ok_or(ServiceError::BadHandle)?;
        if alloc.owner != tenant.0 {
            // Denials are charged to the *caller*: they are the tenant
            // whose behaviour (or bug) the counter should expose.
            state.tenants[tenant.0 as usize]
                .counters
                .cross_tenant_denials
                .incr();
            return Err(ServiceError::CrossTenant {
                owner: TenantId(alloc.owner),
                caller: tenant,
            });
        }
        Ok(alloc)
    }

    /// Runs one entry-I/O `call` against `id`'s pool allocation and folds
    /// the traffic it returns into `tenant`'s counters. Resolve, pool call
    /// and fold share one read guard: the counters are borrowed from the
    /// guarded state, and a structural op on the same allocation waits.
    fn io(
        &self,
        tenant: TenantId,
        id: ServiceAllocId,
        call: impl FnOnce(PoolAllocId) -> Result<AccessStats, DeviceError>,
    ) -> Result<(), ServiceError> {
        let state = self.read();
        let alloc = Self::resolve(&state, tenant, id)?;
        let delta = call(alloc.pool_id)?;
        state.tenants[tenant.0 as usize]
            .counters
            .traffic
            .add(&delta);
        Ok(())
    }

    /// Releases an allocation and refunds its quota charge.
    ///
    /// # Errors
    ///
    /// [`ServiceError::BadHandle`] for stale handles,
    /// [`ServiceError::CrossTenant`] when `tenant` is not the owner.
    pub fn free(&self, tenant: TenantId, id: ServiceAllocId) -> Result<(), ServiceError> {
        let mut state = self.write();
        let alloc = Self::resolve(&state, tenant, id)?;
        self.pool.free(alloc.pool_id)?;
        let slot = &mut state.slots[id.slot as usize];
        slot.generation += 1;
        slot.alloc = None;
        state.free_slots.push(id.slot);
        let t = &mut state.tenants[tenant.0 as usize];
        t.refund(&alloc);
        t.counters.frees.incr();
        Ok(())
    }

    /// Writes a contiguous run of entries
    /// ([`BuddyPool::write_entries`] semantics), attributing the batch's
    /// traffic to `tenant`.
    ///
    /// # Errors
    ///
    /// Ownership/staleness errors as [`free`](Self::free); I/O errors as
    /// [`BuddyPool::write_entries`].
    pub fn write_entries(
        &self,
        tenant: TenantId,
        id: ServiceAllocId,
        start: u64,
        entries: &[Entry],
    ) -> Result<(), ServiceError> {
        self.io(tenant, id, |pool_id| {
            self.pool.write_entries_collect(pool_id, start, entries)
        })
    }

    /// Reads a contiguous run of entries
    /// ([`BuddyPool::read_entries`] semantics), attributing the batch's
    /// traffic to `tenant`.
    ///
    /// # Errors
    ///
    /// Ownership/staleness errors as [`free`](Self::free); I/O errors as
    /// [`BuddyPool::read_entries`].
    pub fn read_entries(
        &self,
        tenant: TenantId,
        id: ServiceAllocId,
        start: u64,
        out: &mut [Entry],
    ) -> Result<(), ServiceError> {
        self.io(tenant, id, |pool_id| {
            self.pool.read_entries_collect(pool_id, start, out)
        })
    }

    /// Migrates an allocation to a new target ratio
    /// ([`BuddyPool::retarget`] semantics), re-charging the quota to the
    /// new reservation. A retarget that would *grow* the charge past the
    /// quota is rejected up front (no demotion search — the caller asked
    /// for a specific target), leaving the allocation unchanged.
    ///
    /// # Errors
    ///
    /// Ownership/staleness errors as [`free`](Self::free);
    /// [`ServiceError::QuotaExceeded`] when the new reservation does not
    /// fit; migration errors as [`BuddyPool::retarget`].
    pub fn retarget(
        &self,
        tenant: TenantId,
        id: ServiceAllocId,
        new_target: TargetRatio,
    ) -> Result<RetargetReport, ServiceError> {
        let mut state = self.write();
        let alloc = Self::resolve(&state, tenant, id)?;
        let new_bytes = entry_bytes(alloc.entries, new_target)?;
        let t = &state.tenants[tenant.0 as usize];
        let headroom = t.headroom();
        if new_bytes > alloc.device_bytes && new_bytes - alloc.device_bytes > headroom {
            t.counters.rejections.incr();
            return Err(ServiceError::QuotaExceeded {
                requested: new_bytes - alloc.device_bytes,
                headroom,
            });
        }
        let report = self.pool.retarget(alloc.pool_id, new_target)?;
        let slot = &mut state.slots[id.slot as usize];
        if let Some(a) = slot.alloc.as_mut() {
            a.device_bytes = new_bytes;
        }
        let t = &mut state.tenants[tenant.0 as usize];
        t.used_bytes = t.used_bytes.saturating_sub(alloc.device_bytes) + new_bytes;
        // A same-target retarget is a no-op the pool does not count.
        if report.old_target != report.new_target {
            t.counters.traffic.add(&AccessStats {
                retargets: 1,
                moved_sectors: report.moved_sectors,
                ..AccessStats::default()
            });
        }
        Ok(report)
    }

    /// Transfers ownership of an allocation from `from` to `to`,
    /// re-charging the quota (the recipient admits under **Reject** terms —
    /// a transfer never demotes) and invalidating the old handle: the
    /// returned id is the only live handle afterwards, so pins of
    /// stale-id-after-transfer hold by construction.
    ///
    /// A self-transfer (`from == to`) moves no charge, so it always fits
    /// and counts one transfer; it still retires the old handle.
    ///
    /// # Errors
    ///
    /// Ownership/staleness errors as [`free`](Self::free);
    /// [`ServiceError::QuotaExceeded`] when the allocation does not fit
    /// the recipient's headroom (the transfer does not happen).
    pub fn transfer(
        &self,
        from: TenantId,
        id: ServiceAllocId,
        to: TenantId,
    ) -> Result<ServiceAllocId, ServiceError> {
        let mut state = self.write();
        let alloc = Self::resolve(&state, from, id)?;
        let recipient = state
            .tenants
            .get(to.0 as usize)
            .ok_or(ServiceError::UnknownTenant)?;
        let headroom = recipient.headroom();
        if from != to && alloc.device_bytes > headroom {
            recipient.counters.rejections.incr();
            return Err(ServiceError::QuotaExceeded {
                requested: alloc.device_bytes,
                headroom,
            });
        }
        let slot = &mut state.slots[id.slot as usize];
        slot.generation += 1;
        let new_id = ServiceAllocId {
            slot: id.slot,
            generation: slot.generation,
        };
        if let Some(a) = slot.alloc.as_mut() {
            a.owner = to.0;
        }
        state.tenants[from.0 as usize].counters.transfers.incr();
        if from != to {
            state.tenants[to.0 as usize].counters.transfers.incr();
        }
        state.tenants[from.0 as usize].refund(&alloc);
        state.tenants[to.0 as usize].charge(&alloc);
        Ok(new_id)
    }
}

/// `entries × device-bytes-per-entry(target)`, checked.
fn entry_bytes(entries: u64, target: TargetRatio) -> Result<u64, ServiceError> {
    entries
        .checked_mul(target.device_bytes_per_entry() as u64)
        .ok_or(ServiceError::Device(DeviceError::RequestOverflow))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service(device_capacity: u64) -> BuddyService {
        BuddyService::new(PoolConfig {
            shards: 2,
            shard_config: DeviceConfig {
                device_capacity,
                carve_out_factor: 3,
            },
            codec: CodecKind::Bpc,
        })
    }

    #[test]
    fn quota_rejects_with_typed_error() {
        let s = service(1 << 20);
        let quota = 256 * TargetRatio::R2.device_bytes_per_entry() as u64;
        let t = s
            .register_tenant("t", quota, AdmissionPolicy::Reject)
            .unwrap();
        s.alloc(t, "a", 256, TargetRatio::R2).unwrap();
        let err = s.alloc(t, "b", 1, TargetRatio::R2).unwrap_err();
        assert_eq!(
            err,
            ServiceError::QuotaExceeded {
                requested: 64,
                headroom: 0
            }
        );
        assert_eq!(s.tenants()[0].rejections, 1);
    }

    #[test]
    fn demote_admits_at_a_lower_target() {
        let s = service(1 << 20);
        // Quota fits 256 entries at R4 (32 B) but not at R2 (64 B).
        let quota = 256 * 32;
        let t = s
            .register_tenant("t", quota, AdmissionPolicy::Demote)
            .unwrap();
        let grant = s.alloc(t, "a", 256, TargetRatio::R2).unwrap();
        assert!(grant.demoted);
        assert_eq!(grant.target, TargetRatio::R4);
        assert_eq!(s.tenant(t).unwrap().used_bytes, quota);
        let rows = s.tenants();
        assert_eq!(rows[0].demotions, 1);
        assert_eq!(rows[0].rejections, 0);
        // Even ZeroPage16 does not fit zero headroom: now it rejects.
        let err = s.alloc(t, "b", 256, TargetRatio::R2).unwrap_err();
        assert!(matches!(err, ServiceError::QuotaExceeded { .. }));
    }

    #[test]
    fn cross_tenant_operations_are_denied() {
        let s = service(1 << 20);
        let a = s
            .register_tenant("a", u64::MAX, AdmissionPolicy::Reject)
            .unwrap();
        let b = s
            .register_tenant("b", u64::MAX, AdmissionPolicy::Reject)
            .unwrap();
        let grant = s.alloc(a, "data", 64, TargetRatio::R2).unwrap();
        let entry = [1u8; ENTRY_BYTES];
        assert!(matches!(
            s.free(b, grant.id),
            Err(ServiceError::CrossTenant { .. })
        ));
        assert!(matches!(
            s.write_entries(b, grant.id, 0, &[entry]),
            Err(ServiceError::CrossTenant { .. })
        ));
        let mut out = [[0u8; ENTRY_BYTES]; 1];
        assert!(matches!(
            s.read_entries(b, grant.id, 0, &mut out),
            Err(ServiceError::CrossTenant { .. })
        ));
        assert_eq!(s.tenants()[1].cross_tenant_denials, 3);
        // The owner is unaffected.
        s.write_entries(a, grant.id, 0, &[entry]).unwrap();
        s.free(a, grant.id).unwrap();
    }

    #[test]
    fn freed_handles_are_generationally_dead() {
        let s = service(1 << 20);
        let t = s
            .register_tenant("t", u64::MAX, AdmissionPolicy::Reject)
            .unwrap();
        let grant = s.alloc(t, "a", 64, TargetRatio::R2).unwrap();
        s.free(t, grant.id).unwrap();
        assert_eq!(s.free(t, grant.id), Err(ServiceError::BadHandle));
        // Slot reuse cannot resurrect the stale handle.
        let again = s.alloc(t, "b", 64, TargetRatio::R2).unwrap();
        assert_eq!(again.id.slot, grant.id.slot, "slot is recycled");
        assert_eq!(s.free(t, grant.id), Err(ServiceError::BadHandle));
        s.free(t, again.id).unwrap();
    }

    #[test]
    fn transfer_moves_the_charge_and_kills_the_old_handle() {
        let s = service(1 << 20);
        let a = s
            .register_tenant("a", u64::MAX, AdmissionPolicy::Reject)
            .unwrap();
        let b = s
            .register_tenant("b", u64::MAX, AdmissionPolicy::Reject)
            .unwrap();
        let grant = s.alloc(a, "model", 128, TargetRatio::R2).unwrap();
        let charged = s.tenant(a).unwrap().used_bytes;
        let new_id = s.transfer(a, grant.id, b).unwrap();
        assert_eq!(s.tenant(a).unwrap().used_bytes, 0);
        assert_eq!(s.tenant(b).unwrap().used_bytes, charged);
        // The old handle is dead on every path, for both tenants.
        assert_eq!(s.free(a, grant.id), Err(ServiceError::BadHandle));
        assert_eq!(s.free(b, grant.id), Err(ServiceError::BadHandle));
        // The new owner operates through the new handle; the old owner
        // is now a foreign tenant.
        assert!(matches!(
            s.free(a, new_id),
            Err(ServiceError::CrossTenant { .. })
        ));
        s.free(b, new_id).unwrap();
    }

    #[test]
    fn transfer_respects_the_recipient_quota() {
        let s = service(1 << 20);
        let a = s
            .register_tenant("a", u64::MAX, AdmissionPolicy::Reject)
            .unwrap();
        let b = s.register_tenant("b", 64, AdmissionPolicy::Demote).unwrap();
        let grant = s.alloc(a, "big", 128, TargetRatio::R2).unwrap();
        let err = s.transfer(a, grant.id, b).unwrap_err();
        assert!(matches!(err, ServiceError::QuotaExceeded { .. }));
        // Nothing moved: the original owner still owns and can free.
        s.free(a, grant.id).unwrap();
    }

    #[test]
    fn self_transfer_moves_no_charge_and_counts_once() {
        let s = service(1 << 20);
        // `full`'s one allocation is its whole quota: no headroom is left,
        // yet the charge never leaves the tenant, so the transfer fits.
        let quota = 64 * TargetRatio::R2.device_bytes_per_entry() as u64;
        let full = s
            .register_tenant("full", quota, AdmissionPolicy::Reject)
            .unwrap();
        let roomy = s
            .register_tenant("roomy", u64::MAX, AdmissionPolicy::Reject)
            .unwrap();
        for t in [full, roomy] {
            let grant = s.alloc(t, "a", 64, TargetRatio::R2).unwrap();
            let new_id = s.transfer(t, grant.id, t).unwrap();
            assert_eq!(s.tenant(t).unwrap().used_bytes, quota);
            // The old handle still dies; the new one is the live handle.
            assert_eq!(s.free(t, grant.id), Err(ServiceError::BadHandle));
            s.free(t, new_id).unwrap();
        }
        for row in s.tenants() {
            assert_eq!((row.transfers, row.rejections), (1, 0), "{}", row.name);
        }
    }

    #[test]
    fn retarget_recharges_quota_and_enforces_it() {
        let s = service(1 << 20);
        let quota = 64 * TargetRatio::R2.device_bytes_per_entry() as u64;
        let t = s
            .register_tenant("t", quota, AdmissionPolicy::Reject)
            .unwrap();
        let grant = s.alloc(t, "a", 64, TargetRatio::R2).unwrap();
        // Shrinking the reservation refunds quota...
        s.retarget(t, grant.id, TargetRatio::R4).unwrap();
        assert_eq!(s.tenant(t).unwrap().used_bytes, 64 * 32);
        // ...growing it back within quota is fine...
        s.retarget(t, grant.id, TargetRatio::R2).unwrap();
        assert_eq!(s.tenant(t).unwrap().used_bytes, quota);
        // ...but growing past the quota is rejected and changes nothing.
        let err = s.retarget(t, grant.id, TargetRatio::R1).unwrap_err();
        assert!(matches!(err, ServiceError::QuotaExceeded { .. }));
        assert_eq!(s.tenant(t).unwrap().used_bytes, quota);
        s.free(t, grant.id).unwrap();
        assert_eq!(s.tenant(t).unwrap().used_bytes, 0);
    }

    #[test]
    fn same_target_retarget_is_not_counted() {
        let s = service(1 << 20);
        let t = s
            .register_tenant("t", u64::MAX, AdmissionPolicy::Reject)
            .unwrap();
        let grant = s.alloc(t, "a", 8, TargetRatio::R2).unwrap();
        s.write_entries(t, grant.id, 0, &[[3u8; ENTRY_BYTES]; 8])
            .unwrap();
        let report = s.retarget(t, grant.id, TargetRatio::R2).unwrap();
        assert_eq!(report.old_target, report.new_target);
        // The pool records no retarget for a no-op, so neither may the
        // tenant: attribution still sums to the pool's totals.
        assert_eq!(s.tenant(t).unwrap().stats, s.pool().drain());
        assert_eq!(s.pool().drain().retargets, 0);
    }

    #[test]
    fn io_is_attributed_to_the_issuing_tenant() {
        let s = service(1 << 20);
        let a = s
            .register_tenant("a", u64::MAX, AdmissionPolicy::Reject)
            .unwrap();
        let b = s
            .register_tenant("b", u64::MAX, AdmissionPolicy::Reject)
            .unwrap();
        let ga = s.alloc(a, "a", 64, TargetRatio::R2).unwrap();
        let gb = s.alloc(b, "b", 64, TargetRatio::R2).unwrap();
        let batch = [[7u8; ENTRY_BYTES]; 16];
        s.write_entries(a, ga.id, 0, &batch).unwrap();
        s.write_entries(a, ga.id, 16, &batch).unwrap();
        s.write_entries(b, gb.id, 0, &batch).unwrap();
        let sa = s.tenant(a).unwrap().stats;
        let sb = s.tenant(b).unwrap().stats;
        assert_eq!(sa.total_accesses(), 32);
        assert_eq!(sb.total_accesses(), 16);
        // Attribution is exhaustive: tenant stats sum to the pool's.
        let mut merged = AccessStats::default();
        merged.merge(&sa);
        merged.merge(&sb);
        assert_eq!(merged, s.pool().drain());
    }

    #[test]
    fn duplicate_and_unknown_tenants_are_rejected() {
        let s = service(1 << 20);
        let t = s
            .register_tenant("t", u64::MAX, AdmissionPolicy::Reject)
            .unwrap();
        assert_eq!(
            s.register_tenant("t", 0, AdmissionPolicy::Reject),
            Err(ServiceError::DuplicateTenant)
        );
        let ghost = TenantId(42);
        assert_eq!(
            s.alloc(ghost, "x", 1, TargetRatio::R2).unwrap_err(),
            ServiceError::UnknownTenant
        );
        let grant = s.alloc(t, "a", 16, TargetRatio::R2).unwrap();
        assert_eq!(s.free(ghost, grant.id), Err(ServiceError::UnknownTenant));
    }

    #[test]
    fn capacity_errors_pass_through_for_unlimited_quota() {
        let s = service(4096);
        let t = s
            .register_tenant("t", u64::MAX, AdmissionPolicy::Reject)
            .unwrap();
        let err = s.alloc(t, "huge", 1 << 20, TargetRatio::R1).unwrap_err();
        assert!(matches!(
            err,
            ServiceError::Device(DeviceError::OutOfDeviceMemory { .. })
        ));
        assert_eq!(s.tenants()[0].rejections, 1);
    }

    #[test]
    fn snapshot_reports_headroom_and_ratio() {
        let s = service(1 << 20);
        // 1000 B of quota; 8 entries at R2 charge 512 B for 1024 logical.
        let t = s
            .register_tenant("tenant-a", 1000, AdmissionPolicy::Reject)
            .unwrap();
        let grant = s.alloc(t, "a", 8, TargetRatio::R2).unwrap();
        let rows = s.tenants();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].name, "tenant-a");
        assert_eq!(rows[0].quota_headroom, 488);
        assert!((rows[0].effective_ratio() - 2.0).abs() < 1e-9);
        // Nothing charged: the whole quota is headroom and the ratio is 1.
        s.free(t, grant.id).unwrap();
        let rows = s.tenants();
        assert_eq!(rows[0].quota_headroom, 1000);
        assert!((rows[0].effective_ratio() - 1.0).abs() < 1e-9);
    }

    /// One ledger cannot drift: after every step of a script that takes
    /// each path which moves a charge, every `tenants()` row agrees with
    /// `tenant(id)` and with a recount of the live grants.
    #[test]
    fn ledger_rows_agree_with_the_accessors_and_a_recount() {
        let s = service(1 << 20);
        let quota = 64 * 1024;
        let a = s
            .register_tenant("a", quota, AdmissionPolicy::Reject)
            .unwrap();
        let b = s
            .register_tenant("b", 96 * 32, AdmissionPolicy::Demote)
            .unwrap();
        // Live grants as (owner, id, entries), maintained by the script.
        let mut live: Vec<(TenantId, ServiceAllocId, u64)> = Vec::new();
        let check = |live: &[(TenantId, ServiceAllocId, u64)]| {
            let rows = s.tenants();
            assert_eq!(rows.len(), 2);
            for (tenant, row) in [a, b].into_iter().zip(&rows) {
                assert_eq!(*row, s.tenant(tenant).unwrap());
                assert_eq!(row.quota_headroom, row.quota_bytes - row.used_bytes);
                let mine = live.iter().filter(|(owner, ..)| *owner == tenant);
                assert_eq!(row.allocations, mine.clone().count() as u64);
                assert_eq!(
                    row.logical_bytes,
                    mine.map(|(_, _, entries)| entries * ENTRY_BYTES as u64)
                        .sum::<u64>()
                );
            }
            rows
        };

        // Alloc + traffic.
        let first = s.alloc(a, "first", 64, TargetRatio::R2).unwrap();
        live.push((a, first.id, 64));
        s.write_entries(a, first.id, 0, &[[9u8; ENTRY_BYTES]; 8])
            .unwrap();
        let second = s.alloc(a, "second", 32, TargetRatio::R1).unwrap();
        live.push((a, second.id, 32));
        check(&live);
        // Demote: b's quota fits 96 entries at R4 only.
        let demoted = s.alloc(b, "demoted", 96, TargetRatio::R2).unwrap();
        assert!(demoted.demoted);
        live.push((b, demoted.id, 96));
        check(&live);
        // Reject: b is full, at every rung.
        s.alloc(b, "rejected", 96, TargetRatio::R2).unwrap_err();
        check(&live);
        // Free.
        s.free(a, second.id).unwrap();
        live.retain(|(_, id, _)| *id != second.id);
        check(&live);
        // Retarget, granted and refused.
        s.retarget(a, first.id, TargetRatio::R4).unwrap();
        s.retarget(b, demoted.id, TargetRatio::R1).unwrap_err();
        check(&live);
        // Transfer, refused (b has no headroom) and granted (after a free).
        s.transfer(a, first.id, b).unwrap_err();
        s.free(b, demoted.id).unwrap();
        live.retain(|(_, id, _)| *id != demoted.id);
        let moved = s.transfer(a, first.id, b).unwrap();
        live.retain(|(_, id, _)| *id != first.id);
        live.push((b, moved, 64));
        let rows = check(&live);

        let counts = |r: &TenantRow| (r.allocs, r.frees, r.transfers, r.demotions, r.rejections);
        assert_eq!(counts(&rows[0]), (2, 1, 1, 0, 0));
        assert_eq!(counts(&rows[1]), (1, 1, 1, 1, 3));
        assert_eq!(rows[0].stats.retargets, 1);
        assert_eq!(rows[0].used_bytes, 0);
        assert_eq!(rows[1].used_bytes, 64 * 32);
    }

    #[test]
    fn demote_also_rescues_pool_capacity_pressure() {
        // Pool too small for 512 entries at R1 (128 B each per shard) but
        // fine at a more aggressive target; quota is unlimited, so the
        // ladder walk is driven purely by pool capacity.
        let s = BuddyService::new(PoolConfig {
            shards: 1,
            shard_config: DeviceConfig {
                device_capacity: 48 * 1024,
                carve_out_factor: 3,
            },
            codec: CodecKind::Bpc,
        });
        let t = s
            .register_tenant("t", u64::MAX, AdmissionPolicy::Demote)
            .unwrap();
        let grant = s.alloc(t, "a", 512, TargetRatio::R1).unwrap();
        assert!(grant.demoted);
        assert!(grant.target.device_bytes_per_entry() < 128);
    }
}
