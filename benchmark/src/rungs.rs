//! The layer ladder: one `Rung` per layer of the stack, all driven by the
//! same op stream.
//!
//! `codec` → `core.device` → `core.handle` → `pool` → `service`. Each rung is
//! built from the same [`StackConfig`] and holds the same data, so the time
//! a rung adds over the one below is that layer's own cost. Only the
//! service rung enforces quotas; the rungs below allocate at the target the
//! op stream predicted the service would grant, so their reservations match
//! what the service's pool holds underneath.

use crate::surface::{
    AccessStats, AdmissionPolicy, AllocId, BuddyDevice, BuddyPool, BuddyService, Codec, CodecKind,
    CompressedBuf, DeviceConfig, DeviceError, DeviceHandle, Entry, PoolAllocId, PoolConfig,
    ServiceAllocId, ServiceError, SizeClass, TargetRatio, TenantId, ENTRY_BYTES,
};

/// One tenant of the stack.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    pub name: &'static str,
    /// Quota in compressed device bytes.
    pub quota_bytes: u64,
    pub policy: AdmissionPolicy,
}

/// What every rung is built from.
#[derive(Debug, Clone)]
pub struct StackConfig {
    pub shards: usize,
    /// Device bytes per shard; the single-device rungs get `shards ×` this.
    pub shard_capacity: u64,
    pub tenants: Vec<TenantSpec>,
}

impl StackConfig {
    fn pool_config(&self) -> PoolConfig {
        PoolConfig {
            shards: self.shards,
            shard_config: DeviceConfig {
                device_capacity: self.shard_capacity,
                carve_out_factor: 3,
            },
            codec: CodecKind::Bpc,
        }
    }

    fn device_config(&self) -> DeviceConfig {
        DeviceConfig {
            device_capacity: self.shard_capacity * self.shards as u64,
            carve_out_factor: 3,
        }
    }
}

/// Why a rung turned an operation down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Refusal {
    /// Admission control: the tenant's quota.
    Quota,
    /// No contiguous device/buddy run could host the reservation.
    Capacity,
    /// Anything else (bad handle, bad index, ...): always a failure.
    Other(String),
}

impl From<DeviceError> for Refusal {
    fn from(e: DeviceError) -> Self {
        if e.is_capacity() {
            Refusal::Capacity
        } else {
            Refusal::Other(e.to_string())
        }
    }
}

impl From<ServiceError> for Refusal {
    fn from(e: ServiceError) -> Self {
        match e {
            ServiceError::QuotaExceeded { .. } => Refusal::Quota,
            ServiceError::Device(d) => d.into(),
            other => Refusal::Other(other.to_string()),
        }
    }
}

/// Counters a rung exposes after a run (zero where the layer has none).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RungCounters {
    pub stats: AccessStats,
    pub device_used: u64,
    pub device_capacity: u64,
    pub largest_free: u64,
    pub fragmentation: f64,
    pub alloc_probes: u64,
}

/// One layer of the stack behind the operations the op stream uses.
pub trait Rung {
    type Id: Copy;

    /// Metric prefix of this layer (`core.device`, `pool`, ...).
    const LAYER: &'static str;

    /// Whether reads return the bytes that were written (false only for the
    /// codec rung, which keeps no storage), i.e. whether they can be
    /// checked against the shadow map.
    const STORES_DATA: bool = true;

    /// Whether the rung can refuse an allocation at all (false only for the
    /// codec rung, which has no capacity to run out of).
    const CAN_REFUSE: bool = true;

    /// Builds the layer. `palettes` is the data the op stream will write;
    /// only the codec rung (which must know the stored bitstreams) uses it.
    fn build(config: &StackConfig, palettes: &[Vec<Entry>]) -> Self;

    /// Allocates `entries` for `tenant`. The service asks for `asked` and
    /// reports what admission granted; every other rung allocates at
    /// `granted` directly.
    fn alloc(
        &mut self,
        tenant: usize,
        name: &str,
        entries: u64,
        asked: TargetRatio,
        granted: TargetRatio,
    ) -> Result<(Self::Id, TargetRatio), Refusal>;

    fn free(&mut self, tenant: usize, id: Self::Id) -> Result<(), Refusal>;

    fn retarget(&mut self, tenant: usize, id: Self::Id, target: TargetRatio)
        -> Result<(), Refusal>;

    /// Writes `data` at `start`. `palette` and `idx` say which palette
    /// entries `data` holds; only the codec rung, which stores nothing
    /// else, looks at them.
    fn write(
        &mut self,
        tenant: usize,
        id: Self::Id,
        start: u64,
        data: &[Entry],
        palette: usize,
        idx: &[u16],
    ) -> Result<(), Refusal>;

    fn read(
        &mut self,
        tenant: usize,
        id: Self::Id,
        start: u64,
        out: &mut [Entry],
    ) -> Result<(), Refusal>;

    fn counters(&self) -> RungCounters;
}

fn device_counters(device: &BuddyDevice) -> RungCounters {
    let free = device.device_free();
    RungCounters {
        stats: device.stats(),
        device_used: device.device_used(),
        device_capacity: device.device_used() + free,
        largest_free: device.largest_free_region(),
        fragmentation: device.fragmentation(),
        alloc_probes: 0,
    }
}

/// `core.device`: everything through `&mut BuddyDevice`.
pub struct DeviceRung {
    device: BuddyDevice,
}

impl Rung for DeviceRung {
    type Id = AllocId;
    const LAYER: &'static str = "core.device";

    fn build(config: &StackConfig, _palettes: &[Vec<Entry>]) -> Self {
        Self {
            device: BuddyDevice::new(config.device_config()),
        }
    }

    fn alloc(
        &mut self,
        _tenant: usize,
        name: &str,
        entries: u64,
        _asked: TargetRatio,
        granted: TargetRatio,
    ) -> Result<(AllocId, TargetRatio), Refusal> {
        Ok((self.device.alloc(name, entries, granted)?, granted))
    }

    fn free(&mut self, _tenant: usize, id: AllocId) -> Result<(), Refusal> {
        Ok(self.device.free(id)?)
    }

    fn retarget(
        &mut self,
        _tenant: usize,
        id: AllocId,
        target: TargetRatio,
    ) -> Result<(), Refusal> {
        self.device.retarget(id, target)?;
        Ok(())
    }

    fn write(
        &mut self,
        _tenant: usize,
        id: AllocId,
        start: u64,
        data: &[Entry],
        _palette: usize,
        _idx: &[u16],
    ) -> Result<(), Refusal> {
        Ok(self.device.write_entries(id, start, data)?)
    }

    fn read(
        &mut self,
        _tenant: usize,
        id: AllocId,
        start: u64,
        out: &mut [Entry],
    ) -> Result<(), Refusal> {
        Ok(self.device.read_entries(id, start, out)?)
    }

    fn counters(&self) -> RungCounters {
        device_counters(&self.device)
    }
}

/// `core.handle`: structural ops through the device, entry I/O through its
/// lock-free `DeviceHandle` (the seqlock path).
pub struct HandleRung {
    device: BuddyDevice,
    handle: DeviceHandle,
}

impl Rung for HandleRung {
    type Id = AllocId;
    const LAYER: &'static str = "core.handle";

    fn build(config: &StackConfig, _palettes: &[Vec<Entry>]) -> Self {
        let device = BuddyDevice::new(config.device_config());
        let handle = device.handle();
        Self { device, handle }
    }

    fn alloc(
        &mut self,
        _tenant: usize,
        name: &str,
        entries: u64,
        _asked: TargetRatio,
        granted: TargetRatio,
    ) -> Result<(AllocId, TargetRatio), Refusal> {
        Ok((self.device.alloc(name, entries, granted)?, granted))
    }

    fn free(&mut self, _tenant: usize, id: AllocId) -> Result<(), Refusal> {
        Ok(self.device.free(id)?)
    }

    fn retarget(
        &mut self,
        _tenant: usize,
        id: AllocId,
        target: TargetRatio,
    ) -> Result<(), Refusal> {
        self.device.retarget(id, target)?;
        Ok(())
    }

    fn write(
        &mut self,
        _tenant: usize,
        id: AllocId,
        start: u64,
        data: &[Entry],
        _palette: usize,
        _idx: &[u16],
    ) -> Result<(), Refusal> {
        Ok(self.handle.write_entries(id, start, data)?)
    }

    fn read(
        &mut self,
        _tenant: usize,
        id: AllocId,
        start: u64,
        out: &mut [Entry],
    ) -> Result<(), Refusal> {
        Ok(self.handle.read_entries(id, start, out)?)
    }

    fn counters(&self) -> RungCounters {
        device_counters(&self.device)
    }
}

fn pool_counters(pool: &BuddyPool) -> RungCounters {
    let config = pool.config();
    RungCounters {
        stats: pool.stats(),
        device_used: pool.device_used(),
        device_capacity: config.shard_config.device_capacity * config.shards as u64,
        largest_free: pool.largest_free_region(),
        fragmentation: pool.fragmentation(),
        alloc_probes: pool.alloc_shard_probes(),
    }
}

/// `pool`: the sharded pool (hash routing, ring probing, shard mutexes).
pub struct PoolRung {
    pub pool: BuddyPool,
}

impl Rung for PoolRung {
    type Id = PoolAllocId;
    const LAYER: &'static str = "pool";

    fn build(config: &StackConfig, _palettes: &[Vec<Entry>]) -> Self {
        Self {
            pool: BuddyPool::new(config.pool_config()),
        }
    }

    fn alloc(
        &mut self,
        _tenant: usize,
        name: &str,
        entries: u64,
        _asked: TargetRatio,
        granted: TargetRatio,
    ) -> Result<(PoolAllocId, TargetRatio), Refusal> {
        Ok((self.pool.alloc(name, entries, granted)?, granted))
    }

    fn free(&mut self, _tenant: usize, id: PoolAllocId) -> Result<(), Refusal> {
        Ok(self.pool.free(id)?)
    }

    fn retarget(
        &mut self,
        _tenant: usize,
        id: PoolAllocId,
        target: TargetRatio,
    ) -> Result<(), Refusal> {
        self.pool.retarget(id, target)?;
        Ok(())
    }

    fn write(
        &mut self,
        _tenant: usize,
        id: PoolAllocId,
        start: u64,
        data: &[Entry],
        _palette: usize,
        _idx: &[u16],
    ) -> Result<(), Refusal> {
        Ok(self.pool.write_entries(id, start, data)?)
    }

    fn read(
        &mut self,
        _tenant: usize,
        id: PoolAllocId,
        start: u64,
        out: &mut [Entry],
    ) -> Result<(), Refusal> {
        Ok(self.pool.read_entries(id, start, out)?)
    }

    fn counters(&self) -> RungCounters {
        pool_counters(&self.pool)
    }
}

/// `service`: admission control and the quota ledger over the pool.
pub struct ServiceRung {
    pub service: BuddyService,
    tenants: Vec<TenantId>,
}

impl Rung for ServiceRung {
    type Id = ServiceAllocId;
    const LAYER: &'static str = "service";

    fn build(config: &StackConfig, _palettes: &[Vec<Entry>]) -> Self {
        let service = BuddyService::new(config.pool_config());
        let tenants = config
            .tenants
            .iter()
            .map(|t| {
                service
                    .register_tenant(t.name, t.quota_bytes, t.policy)
                    .expect("tenant names in a StackConfig are distinct")
            })
            .collect();
        Self { service, tenants }
    }

    fn alloc(
        &mut self,
        tenant: usize,
        name: &str,
        entries: u64,
        asked: TargetRatio,
        _granted: TargetRatio,
    ) -> Result<(ServiceAllocId, TargetRatio), Refusal> {
        let grant = self
            .service
            .alloc(self.tenants[tenant], name, entries, asked)?;
        Ok((grant.id, grant.target))
    }

    fn free(&mut self, tenant: usize, id: ServiceAllocId) -> Result<(), Refusal> {
        Ok(self.service.free(self.tenants[tenant], id)?)
    }

    fn retarget(
        &mut self,
        tenant: usize,
        id: ServiceAllocId,
        target: TargetRatio,
    ) -> Result<(), Refusal> {
        self.service.retarget(self.tenants[tenant], id, target)?;
        Ok(())
    }

    fn write(
        &mut self,
        tenant: usize,
        id: ServiceAllocId,
        start: u64,
        data: &[Entry],
        _palette: usize,
        _idx: &[u16],
    ) -> Result<(), Refusal> {
        Ok(self
            .service
            .write_entries(self.tenants[tenant], id, start, data)?)
    }

    fn read(
        &mut self,
        tenant: usize,
        id: ServiceAllocId,
        start: u64,
        out: &mut [Entry],
    ) -> Result<(), Refusal> {
        Ok(self
            .service
            .read_entries(self.tenants[tenant], id, start, out)?)
    }

    fn counters(&self) -> RungCounters {
        pool_counters(self.service.pool())
    }
}

/// A palette entry's BPC bitstream, kept so the codec rung can decode
/// exactly what a device would have stored.
#[derive(Debug, Clone)]
struct Encoded {
    data: Vec<u8>,
    bits: usize,
    /// All-zero entries never reach the codec: the device records them in
    /// metadata alone.
    zero: bool,
    /// Incompressible (128 B class) entries are stored raw, so the device
    /// reads them back without decoding.
    raw: bool,
}

fn encode_palette(entries: &[Entry]) -> Vec<Encoded> {
    let mut buf = CompressedBuf::new();
    entries
        .iter()
        .map(|e| {
            CodecKind::Bpc.compress_into(e, &mut buf);
            Encoded {
                data: buf.data().to_vec(),
                bits: buf.bits(),
                zero: e.iter().all(|&b| b == 0),
                raw: buf.size_class() == SizeClass::B128,
            }
        })
        .collect()
}

/// Shadow value of an entry that was never written (it reads as zeros).
pub const NEVER_WRITTEN: u16 = u16::MAX;

/// `bpc`: the codec alone, called exactly when a device would call it for
/// this op stream — a write compresses each non-zero entry, a read
/// decompresses what was last written unless it is zero or stored raw, a
/// retarget re-encodes the allocation. No storage, metadata or locks.
pub struct CodecRung {
    encoded: Vec<Vec<Encoded>>,
    /// Per allocation: the palette it draws from and the palette index each
    /// entry holds.
    allocs: Vec<(usize, Vec<u16>)>,
    buf: CompressedBuf,
}

impl CodecRung {
    fn decode(enc: &Encoded, out: &mut Entry) -> Result<(), Refusal> {
        if enc.zero || enc.raw {
            return Ok(());
        }
        CodecKind::Bpc
            .decompress_into(&enc.data, enc.bits, out)
            .map_err(|e| Refusal::Other(e.to_string()))
    }
}

impl Rung for CodecRung {
    type Id = usize;
    const LAYER: &'static str = "bpc";
    const STORES_DATA: bool = false;
    const CAN_REFUSE: bool = false;

    fn build(_config: &StackConfig, palettes: &[Vec<Entry>]) -> Self {
        Self {
            encoded: palettes.iter().map(|p| encode_palette(p)).collect(),
            allocs: Vec::new(),
            buf: CompressedBuf::new(),
        }
    }

    fn alloc(
        &mut self,
        _tenant: usize,
        _name: &str,
        entries: u64,
        _asked: TargetRatio,
        granted: TargetRatio,
    ) -> Result<(usize, TargetRatio), Refusal> {
        self.allocs.push((0, vec![NEVER_WRITTEN; entries as usize]));
        Ok((self.allocs.len() - 1, granted))
    }

    fn free(&mut self, _tenant: usize, id: usize) -> Result<(), Refusal> {
        self.allocs[id].1 = Vec::new();
        Ok(())
    }

    fn retarget(&mut self, _tenant: usize, id: usize, _target: TargetRatio) -> Result<(), Refusal> {
        let mut out = [0u8; ENTRY_BYTES];
        let (palette, shadow) = &self.allocs[id];
        for &idx in shadow.iter().filter(|&&i| i != NEVER_WRITTEN) {
            let enc = &self.encoded[*palette][idx as usize];
            if enc.zero {
                continue;
            }
            Self::decode(enc, &mut out)?;
            CodecKind::Bpc.compress_into(&out, &mut self.buf);
            std::hint::black_box(self.buf.bits());
        }
        Ok(())
    }

    fn write(
        &mut self,
        _tenant: usize,
        id: usize,
        start: u64,
        data: &[Entry],
        palette: usize,
        idx: &[u16],
    ) -> Result<(), Refusal> {
        for (entry, &i) in data.iter().zip(idx) {
            if !self.encoded[palette][i as usize].zero {
                CodecKind::Bpc.compress_into(entry, &mut self.buf);
                std::hint::black_box(self.buf.bits());
            }
        }
        let alloc = &mut self.allocs[id];
        alloc.0 = palette;
        alloc.1[start as usize..start as usize + idx.len()].copy_from_slice(idx);
        Ok(())
    }

    fn read(
        &mut self,
        _tenant: usize,
        id: usize,
        start: u64,
        out: &mut [Entry],
    ) -> Result<(), Refusal> {
        let (palette, shadow) = &self.allocs[id];
        for (slot, &idx) in out.iter_mut().zip(&shadow[start as usize..]) {
            if idx != NEVER_WRITTEN {
                Self::decode(&self.encoded[*palette][idx as usize], slot)?;
            }
        }
        std::hint::black_box(out);
        Ok(())
    }

    fn counters(&self) -> RungCounters {
        RungCounters::default()
    }
}
