//! Seeded op streams and the session that runs them against a rung.
//!
//! Two generators cover every device workload: [`batch_program`] (uniform
//! random 32-entry reads/writes over a loaded image) and
//! [`control_program`] (allocation churn under quota pressure with
//! single-entry I/O). Both are pure functions of their inputs and the seed;
//! the libraries see only the resulting ops. A [`Session`] executes ops
//! against any [`Rung`], timing each library call on its own, keeping the
//! shadow map, and checking reads against it.

use crate::data::{DataSet, PALETTE_SIZE};
use crate::rungs::{Refusal, Rung, StackConfig, TenantSpec, NEVER_WRITTEN};
use crate::surface::{splitmix64, AdmissionPolicy, Entry, TargetRatio, ENTRY_BYTES};
use crate::trace::Tracer;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// Entries per batch op.
pub const BATCH: usize = 32;

/// Entries loaded per call while populating an image.
const POPULATE_CHUNK: usize = 1024;

/// One read batch in this many is compared with the shadow map inside the
/// run; every entry is compared in the post-run sweep.
const VERIFY_EVERY: u64 = 64;

/// SplitMix64 stream (the workloads crate's mixer, so the benchmark adds no
/// generator of its own).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(splitmix64(seed ^ 0xB0DD_7B0D_D7B0_DD70))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is < 2⁻³² for the
    /// ranges used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One operation of a program. `slot` names an allocation of the program,
/// not a library handle: the session maps slots to each rung's own ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    Alloc {
        slot: u32,
        tenant: u8,
        entries: u32,
        asked: TargetRatio,
        /// The target admission is expected to grant (see
        /// [`control_program`]); rungs below the service allocate at it.
        granted: TargetRatio,
        palette: u8,
    },
    /// A request larger than the tenant's whole quota: the correct outcome
    /// is a quota refusal, and being granted is the failure.
    AllocOverQuota {
        tenant: u8,
        entries: u32,
    },
    Free {
        slot: u32,
    },
    Retarget {
        slot: u32,
        target: TargetRatio,
    },
    /// Writes `len` entries at `start`; entry `j` gets palette index
    /// `(salt + 7 j) mod PALETTE_SIZE`.
    Write {
        slot: u32,
        start: u32,
        len: u16,
        salt: u16,
    },
    Read {
        slot: u32,
        start: u32,
        len: u16,
    },
}

/// Span/metric name of an op, by what the layer is asked to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum OpKind {
    Alloc = 0,
    Refuse,
    Free,
    Retarget,
    Write,
    Read,
    Write1,
    Read1,
}

impl OpKind {
    pub const ALL: [OpKind; 8] = [
        OpKind::Alloc,
        OpKind::Refuse,
        OpKind::Free,
        OpKind::Retarget,
        OpKind::Write,
        OpKind::Read,
        OpKind::Write1,
        OpKind::Read1,
    ];

    pub fn name(self) -> &'static str {
        match self {
            OpKind::Alloc => "alloc",
            OpKind::Refuse => "refuse",
            OpKind::Free => "free",
            OpKind::Retarget => "retarget",
            OpKind::Write => "write",
            OpKind::Read => "read",
            OpKind::Write1 => "write1",
            OpKind::Read1 => "read1",
        }
    }
}

impl Op {
    pub fn kind(&self) -> OpKind {
        match self {
            Op::Alloc { .. } => OpKind::Alloc,
            Op::AllocOverQuota { .. } => OpKind::Refuse,
            Op::Free { .. } => OpKind::Free,
            Op::Retarget { .. } => OpKind::Retarget,
            Op::Write { len: 1, .. } => OpKind::Write1,
            Op::Write { .. } => OpKind::Write,
            Op::Read { len: 1, .. } => OpKind::Read1,
            Op::Read { .. } => OpKind::Read,
        }
    }
}

/// Hash of a program, for "same seed ⇒ same stream" checks.
pub fn program_hash(ops: &[Op]) -> u64 {
    // `DefaultHasher::new()` uses fixed keys, so this is stable in a build.
    let mut h = std::collections::hash_map::DefaultHasher::new();
    ops.hash(&mut h);
    h.finish()
}

/// Initial palette index of entry `index` of allocation `alloc`.
fn initial_index(seed: u64, alloc: usize, index: u64) -> u16 {
    (splitmix64(seed ^ ((alloc as u64) << 40) ^ index) % PALETTE_SIZE as u64) as u16
}

/// Palette index written to the `j`-th entry of a write op.
fn written_index(salt: u16, j: usize) -> u16 {
    ((salt as usize + 7 * j) % PALETTE_SIZE) as u16
}

/// `ops` uniform-random [`BATCH`]-entry reads and writes over the image of
/// `data`: the tenant alternates per op, the allocation is drawn by size
/// (so entries are hit uniformly), the start uniformly within it.
pub fn batch_program(data: &DataSet, read_frac: f64, ops: usize, seed: u64) -> Vec<Op> {
    let tenants = data.stack.tenants.len();
    // Per tenant: (slot, entries) and cumulative entries for the draw.
    let mut per_tenant: Vec<Vec<(u32, u64, u64)>> = vec![Vec::new(); tenants];
    for (slot, a) in data.allocs.iter().enumerate() {
        let list = &mut per_tenant[a.tenant];
        let cum = list.last().map_or(0, |l| l.2) + a.entries;
        list.push((slot as u32, a.entries, cum));
    }
    let mut rng = Rng::new(seed);
    (0..ops)
        .map(|i| {
            let list = &per_tenant[i % tenants];
            let total = list.last().expect("every tenant owns allocations").2;
            let pick = rng.below(total);
            let &(slot, entries, _) = list
                .iter()
                .find(|l| pick < l.2)
                .expect("pick is below the total");
            let start = rng.below(entries - BATCH as u64 + 1) as u32;
            if rng.unit() < read_frac {
                Op::Read {
                    slot,
                    start,
                    len: BATCH as u16,
                }
            } else {
                Op::Write {
                    slot,
                    start,
                    len: BATCH as u16,
                    salt: rng.below(PALETTE_SIZE as u64) as u16,
                }
            }
        })
        .collect()
}

/// Quotas of the `control_plane` tenants, in compressed device bytes.
pub const CONTROL_QUOTAS: [u64; 2] = [2 << 20, 512 << 10];

/// The client keeps each tenant at this share of its quota.
const CONTROL_PRESSURE: f64 = 0.9;

/// Single-entry I/O ops after each allocation.
const CONTROL_IO_PER_CYCLE: usize = 32;

/// The stack the control program runs on: two shards, a `Reject` tenant and
/// a `Demote` tenant whose quota is a quarter the size, so that its larger
/// requests only fit after demotion.
pub fn control_stack() -> StackConfig {
    StackConfig {
        shards: 2,
        shard_capacity: 2 << 20,
        tenants: vec![
            TenantSpec {
                name: "reject",
                quota_bytes: CONTROL_QUOTAS[0],
                policy: AdmissionPolicy::Reject,
            },
            TenantSpec {
                name: "demote",
                quota_bytes: CONTROL_QUOTAS[1],
                policy: AdmissionPolicy::Demote,
            },
        ],
    }
}

/// The admission ladder for a request at `asked`: `asked`, then each
/// strictly smaller reservation in decreasing order.
fn ladder(asked: TargetRatio) -> impl Iterator<Item = TargetRatio> {
    let asked_bytes = asked.device_bytes_per_entry();
    std::iter::once(asked).chain(
        TargetRatio::DESCENDING
            .into_iter()
            .rev()
            .filter(move |t| t.device_bytes_per_entry() < asked_bytes),
    )
}

/// `cycles` rounds of allocation churn for the [`control_stack`] tenants.
///
/// Each cycle (tenants alternate): free seeded victims until the tenant is
/// under [`CONTROL_PRESSURE`] of its quota with room for the new request,
/// allocate 64–1024 entries at a seeded target, do
/// [`CONTROL_IO_PER_CYCLE`] single-entry writes/reads on the new
/// allocation, and every 64th cycle retarget it one step more aggressive
/// (a retarget re-encodes the whole allocation, so it is kept rare). Every
/// 128th cycle the `Reject` tenant also asks for more than its whole quota,
/// which admission must refuse.
///
/// The generator keeps the same ledger the service does (device bytes per
/// granted target), which is what lets it guarantee that no request is
/// refused by surprise: the `Reject` tenant always has room at the asked
/// target, the `Demote` tenant always has room at 16× at least, and
/// `granted` records the rung of the ladder the ledger says will fit.
pub fn control_program(cycles: usize, seed: u64) -> Vec<Op> {
    const ASKED: [TargetRatio; 4] = [
        TargetRatio::R1,
        TargetRatio::R1_33,
        TargetRatio::R2,
        TargetRatio::R4,
    ];
    let policies = [AdmissionPolicy::Reject, AdmissionPolicy::Demote];
    let mut rng = Rng::new(seed);
    let mut ops = Vec::with_capacity(cycles * (CONTROL_IO_PER_CYCLE + 3));
    // Per tenant: live (slot, entries, bytes per entry) and bytes charged.
    let mut live: [Vec<(u32, u64, u64)>; 2] = [Vec::new(), Vec::new()];
    let mut used = [0u64; 2];
    for cycle in 0..cycles {
        let t = cycle % 2;
        let quota = CONTROL_QUOTAS[t];
        let entries = 64 + rng.below(961);
        let asked = ASKED[rng.below(ASKED.len() as u64) as usize];
        let floor = match policies[t] {
            AdmissionPolicy::Reject => asked,
            AdmissionPolicy::Demote => TargetRatio::ZeroPage16,
        };
        let need = entries * floor.device_bytes_per_entry() as u64;
        let cap = (quota as f64 * CONTROL_PRESSURE) as u64;
        while used[t] + need > cap {
            let victim = rng.below(live[t].len() as u64) as usize;
            let (slot, n, bytes) = live[t].swap_remove(victim);
            used[t] -= n * bytes;
            ops.push(Op::Free { slot });
        }
        let headroom = quota - used[t];
        let granted = ladder(asked)
            .find(|c| entries * c.device_bytes_per_entry() as u64 <= headroom)
            .expect("the client freed enough for the most aggressive target");
        // One allocation per cycle: its slot is the cycle's number.
        let slot = cycle as u32;
        ops.push(Op::Alloc {
            slot,
            tenant: t as u8,
            entries: entries as u32,
            asked,
            granted,
            palette: 0,
        });
        for _ in 0..CONTROL_IO_PER_CYCLE {
            let start = rng.below(entries) as u32;
            ops.push(if rng.below(2) == 0 {
                Op::Write {
                    slot,
                    start,
                    len: 1,
                    salt: rng.below(PALETTE_SIZE as u64) as u16,
                }
            } else {
                Op::Read {
                    slot,
                    start,
                    len: 1,
                }
            });
        }
        let mut held = granted;
        if cycle % 64 == 63 {
            if let Some(next) = ladder(granted).nth(1) {
                ops.push(Op::Retarget { slot, target: next });
                held = next;
            }
        }
        let bytes = held.device_bytes_per_entry() as u64;
        used[t] += entries * bytes;
        live[t].push((slot, entries, bytes));
        if cycle % 128 == 127 {
            ops.push(Op::AllocOverQuota {
                tenant: 0,
                entries: (CONTROL_QUOTAS[0] / 8 + 1) as u32,
            });
        }
    }
    ops
}

/// What one run of a program produced.
#[derive(Debug, Default, Clone)]
pub struct RunLog {
    /// Duration of each op's library call, in ns, in op order.
    pub op_ns: Vec<u32>,
    /// `OpKind as u8 | tenant << 4` per op.
    pub op_meta: Vec<u8>,
    /// Wall time of the whole loop, client bookkeeping included.
    pub wall_ns: u64,
    /// The loop's wall time cut into chunks of consecutive ops (the last
    /// chunk may be shorter). A chunk is the unit the quiet-time estimator
    /// compares across repeated passes of the same stream.
    pub chunk_wall_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Logical entries passed to or returned from the rung.
    pub entries: u64,
    pub refused: u64,
    pub demoted: u64,
    /// Over the pass's successful allocations: logical bytes asked for and
    /// device bytes reserved at the granted targets.
    pub granted_logical_bytes: u64,
    pub granted_device_bytes: u64,
    pub alloc_failed: u64,
    /// First few failure descriptions, for the report.
    pub errors: Vec<String>,
}

impl RunLog {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }
}

struct Slot<Id> {
    id: Id,
    tenant: usize,
    palette: usize,
    /// Palette index each entry holds ([`NEVER_WRITTEN`] = zeros).
    shadow: Vec<u16>,
}

/// Where a session's spans go.
pub struct SpanSink<'a> {
    pub tracer: &'a mut Tracer,
    pub lane: u16,
    pub parent: u32,
}

/// A rung plus the client-side state needed to drive and check it.
pub struct Session<'a, R: Rung> {
    pub rung: R,
    palettes: &'a [Vec<Entry>],
    slots: Vec<Option<Slot<R::Id>>>,
    write_buf: Vec<Entry>,
    idx_buf: Vec<u16>,
    read_buf: Vec<Entry>,
    reads_seen: u64,
    /// Duration of each library call `load_image` made, in call order: the
    /// set-up's share of the quiet-time estimate (`run.rs`).
    pub load_ns: Vec<u64>,
}

impl<'a, R: Rung> Session<'a, R> {
    pub fn new(stack: &StackConfig, palettes: &'a [Vec<Entry>]) -> Self {
        Self {
            rung: R::build(stack, palettes),
            palettes,
            slots: Vec::new(),
            write_buf: vec![[0u8; ENTRY_BYTES]; POPULATE_CHUNK],
            idx_buf: vec![0; POPULATE_CHUNK],
            read_buf: vec![[0u8; ENTRY_BYTES]; POPULATE_CHUNK],
            reads_seen: 0,
            load_ns: Vec::new(),
        }
    }

    /// Allocates every allocation of `data` and fills it.
    ///
    /// The contents are the fixed point of `program`: each entry starts out
    /// holding what the program's last write to it stores (entries the
    /// program never writes get a seeded palette entry). A pass of the
    /// program therefore ends in exactly the state it started from, so
    /// every further pass over the same session does identical work —
    /// which is what lets one loaded image be measured many times.
    /// Returns the number of failed calls (0 on a healthy stack).
    pub fn load_image(&mut self, data: &DataSet, seed: u64, program: &[Op]) -> u64 {
        let mut shadows: Vec<Vec<u16>> = data
            .allocs
            .iter()
            .enumerate()
            .map(|(slot, plan)| {
                (0..plan.entries)
                    .map(|i| initial_index(seed, slot, i))
                    .collect()
            })
            .collect();
        for op in program {
            if let Op::Write {
                slot,
                start,
                len,
                salt,
            } = *op
            {
                for j in 0..len as usize {
                    shadows[slot as usize][start as usize + j] = written_index(salt, j);
                }
            }
        }
        let mut failed = 0;
        for (slot, (plan, shadow)) in data.allocs.iter().zip(shadows).enumerate() {
            let t = Instant::now();
            let granted = self.rung.alloc(
                plan.tenant,
                &plan.name,
                plan.entries,
                plan.target,
                plan.target,
            );
            self.load_ns.push(t.elapsed().as_nanos() as u64);
            let id = match granted {
                Ok((id, _)) => id,
                Err(_) => {
                    failed += 1;
                    continue;
                }
            };
            for (chunk, idx) in shadow.chunks(POPULATE_CHUNK).enumerate() {
                for (buf, &i) in self.write_buf.iter_mut().zip(idx) {
                    *buf = self.palettes[plan.palette][i as usize];
                }
                let start = (chunk * POPULATE_CHUNK) as u64;
                let t = Instant::now();
                let wrote = self.rung.write(
                    plan.tenant,
                    id,
                    start,
                    &self.write_buf[..idx.len()],
                    plan.palette,
                    idx,
                );
                self.load_ns.push(t.elapsed().as_nanos() as u64);
                failed += wrote.is_err() as u64;
            }
            self.install(slot, id, plan.tenant, plan.palette, shadow);
        }
        failed
    }

    fn install(&mut self, slot: usize, id: R::Id, tenant: usize, palette: usize, shadow: Vec<u16>) {
        if self.slots.len() <= slot {
            self.slots.resize_with(slot + 1, || None);
        }
        self.slots[slot] = Some(Slot {
            id,
            tenant,
            palette,
            shadow,
        });
    }

    /// Compares `out` with what the shadow map says `start..` holds.
    fn matches_shadow(
        palettes: &[Vec<Entry>],
        slot: &Slot<R::Id>,
        start: usize,
        out: &[Entry],
    ) -> bool {
        out.iter().zip(&slot.shadow[start..]).all(|(got, &idx)| {
            if idx == NEVER_WRITTEN {
                got.iter().all(|&b| b == 0)
            } else {
                *got == palettes[slot.palette][idx as usize]
            }
        })
    }

    /// Runs `ops`, timing each library call separately and every
    /// `chunk_ops` consecutive ops as a chunk, into a fresh `log`. With a
    /// `sink`, also records one span per call.
    pub fn run(
        &mut self,
        ops: &[Op],
        chunk_ops: usize,
        log: &mut RunLog,
        mut sink: Option<SpanSink<'_>>,
    ) {
        let names: Vec<u16> = match sink.as_mut() {
            Some(s) => OpKind::ALL
                .iter()
                .map(|k| s.tracer.name_id(&format!("{}.{}", R::LAYER, k.name())))
                .collect(),
            None => Vec::new(),
        };
        log.op_ns.reserve(ops.len());
        log.op_meta.reserve(ops.len());
        log.chunk_wall_ns.reserve(ops.len() / chunk_ops + 1);
        let loop_start = Instant::now();
        let mut chunk_start = loop_start;
        for (req, op) in ops.iter().enumerate() {
            let kind = op.kind();
            let mut tenant = 0usize;
            let mut units = 0u32;
            let (t0, t1);
            match *op {
                Op::Alloc {
                    slot,
                    tenant: t,
                    entries,
                    asked,
                    granted,
                    palette,
                } => {
                    tenant = t as usize;
                    t0 = Instant::now();
                    let r = self
                        .rung
                        .alloc(tenant, "churn", entries as u64, asked, granted);
                    t1 = Instant::now();
                    match r {
                        Ok((id, got)) => {
                            if got != asked {
                                log.demoted += 1;
                            }
                            log.granted_logical_bytes += entries as u64 * ENTRY_BYTES as u64;
                            log.granted_device_bytes +=
                                entries as u64 * got.device_bytes_per_entry() as u64;
                            self.install(
                                slot as usize,
                                id,
                                tenant,
                                palette as usize,
                                vec![NEVER_WRITTEN; entries as usize],
                            );
                        }
                        Err(e) => {
                            log.alloc_failed += 1;
                            log.fail(format!("op {req}: alloc refused: {e:?}"));
                        }
                    }
                }
                Op::AllocOverQuota { tenant: t, entries } => {
                    tenant = t as usize;
                    t0 = Instant::now();
                    let r = self.rung.alloc(
                        tenant,
                        "over-quota",
                        entries as u64,
                        TargetRatio::R1,
                        TargetRatio::R1,
                    );
                    t1 = Instant::now();
                    match r {
                        Err(Refusal::Quota) | Err(Refusal::Capacity) => log.refused += 1,
                        Err(e) => log.fail(format!("op {req}: over-quota request: {e:?}")),
                        Ok((id, _)) => {
                            // Only the service has quotas; the devices
                            // below it refuse because the request exceeds
                            // their capacity. A rung that cannot refuse is
                            // not expected to.
                            let _ = self.rung.free(tenant, id);
                            if R::CAN_REFUSE {
                                log.fail(format!("op {req}: over-quota request was granted"));
                            }
                        }
                    }
                }
                Op::Free { slot } => match self.slots[slot as usize].take() {
                    Some(s) => {
                        tenant = s.tenant;
                        t0 = Instant::now();
                        let r = self.rung.free(s.tenant, s.id);
                        t1 = Instant::now();
                        if let Err(e) = r {
                            log.fail(format!("op {req}: free: {e:?}"));
                        }
                    }
                    None => {
                        t0 = Instant::now();
                        t1 = t0;
                        log.fail(format!("op {req}: free of a slot that was never granted"));
                    }
                },
                Op::Retarget { slot, target } => match self.slots[slot as usize].as_ref() {
                    Some(s) => {
                        tenant = s.tenant;
                        units = s.shadow.len() as u32;
                        t0 = Instant::now();
                        let r = self.rung.retarget(s.tenant, s.id, target);
                        t1 = Instant::now();
                        if let Err(e) = r {
                            log.fail(format!("op {req}: retarget: {e:?}"));
                        }
                    }
                    None => {
                        t0 = Instant::now();
                        t1 = t0;
                        log.fail(format!("op {req}: retarget of a missing slot"));
                    }
                },
                Op::Write {
                    slot,
                    start,
                    len,
                    salt,
                } => match self.slots[slot as usize].as_mut() {
                    Some(s) => {
                        tenant = s.tenant;
                        let len = len as usize;
                        units = len as u32;
                        for j in 0..len {
                            let idx = written_index(salt, j);
                            self.idx_buf[j] = idx;
                            self.write_buf[j] = self.palettes[s.palette][idx as usize];
                        }
                        t0 = Instant::now();
                        let r = self.rung.write(
                            s.tenant,
                            s.id,
                            start as u64,
                            &self.write_buf[..len],
                            s.palette,
                            &self.idx_buf[..len],
                        );
                        t1 = Instant::now();
                        match r {
                            Ok(()) => s.shadow[start as usize..start as usize + len]
                                .copy_from_slice(&self.idx_buf[..len]),
                            Err(e) => log.fail(format!("op {req}: write: {e:?}")),
                        }
                    }
                    None => {
                        t0 = Instant::now();
                        t1 = t0;
                        log.fail(format!("op {req}: write to a missing slot"));
                    }
                },
                Op::Read { slot, start, len } => match self.slots[slot as usize].as_ref() {
                    Some(s) => {
                        tenant = s.tenant;
                        let len = len as usize;
                        units = len as u32;
                        t0 = Instant::now();
                        let r =
                            self.rung
                                .read(s.tenant, s.id, start as u64, &mut self.read_buf[..len]);
                        t1 = Instant::now();
                        match r {
                            Ok(()) => {
                                self.reads_seen += 1;
                                if R::STORES_DATA
                                    && self.reads_seen.is_multiple_of(VERIFY_EVERY)
                                    && !Self::matches_shadow(
                                        self.palettes,
                                        s,
                                        start as usize,
                                        &self.read_buf[..len],
                                    )
                                {
                                    log.fail(format!("op {req}: read returned wrong bytes"));
                                }
                            }
                            Err(e) => log.fail(format!("op {req}: read: {e:?}")),
                        }
                    }
                    None => {
                        t0 = Instant::now();
                        t1 = t0;
                        log.fail(format!("op {req}: read of a missing slot"));
                    }
                },
            }
            log.op_ns
                .push((t1 - t0).as_nanos().min(u32::MAX as u128) as u32);
            log.op_meta.push(kind as u8 | (tenant as u8) << 4);
            log.entries += units as u64
                * matches!(
                    kind,
                    OpKind::Write | OpKind::Read | OpKind::Write1 | OpKind::Read1
                ) as u64;
            if let Some(s) = sink.as_mut() {
                s.tracer.push(
                    names[kind as usize],
                    s.lane,
                    s.parent,
                    req as u32,
                    units,
                    t0,
                    t1,
                );
            }
            if (req + 1) % chunk_ops == 0 {
                let now = Instant::now();
                log.chunk_wall_ns
                    .push((now - chunk_start).as_nanos() as u64);
                chunk_start = now;
            }
        }
        let end = Instant::now();
        if !ops.len().is_multiple_of(chunk_ops) {
            log.chunk_wall_ns
                .push((end - chunk_start).as_nanos() as u64);
        }
        log.wall_ns += (end - loop_start).as_nanos() as u64;
        log.attempted += ops.len() as u64;
    }

    /// Reads every live entry back and compares it with the shadow map.
    /// Returns `(entries checked, entries wrong)`.
    pub fn verify_all(&mut self) -> (u64, u64) {
        let (mut checked, mut wrong) = (0u64, 0u64);
        if !R::STORES_DATA {
            return (0, 0);
        }
        for s in self.slots.iter().flatten() {
            let mut start = 0usize;
            while start < s.shadow.len() {
                let len = (s.shadow.len() - start).min(POPULATE_CHUNK);
                let out = &mut self.read_buf[..len];
                if self.rung.read(s.tenant, s.id, start as u64, out).is_err() {
                    wrong += len as u64;
                } else {
                    for (j, got) in out.iter().enumerate() {
                        if !Self::matches_shadow(
                            self.palettes,
                            s,
                            start + j,
                            std::slice::from_ref(got),
                        ) {
                            wrong += 1;
                        }
                    }
                }
                checked += len as u64;
                start += len;
            }
        }
        (checked, wrong)
    }

    /// The `(id, start)` of every read op in `ops` whose slot is live, for
    /// probes that replay the reads from several threads.
    pub fn read_targets(&self, ops: &[Op]) -> Vec<(R::Id, u64)> {
        ops.iter()
            .filter_map(|op| match *op {
                Op::Read { slot, start, .. } => self.slots[slot as usize]
                    .as_ref()
                    .map(|s| (s.id, start as u64)),
                _ => None,
            })
            .collect()
    }

    /// Logical bytes of the live allocations, from the client's own books.
    pub fn live_logical_bytes(&self) -> u64 {
        self.slots
            .iter()
            .flatten()
            .map(|s| s.shadow.len() as u64)
            .sum::<u64>()
            * ENTRY_BYTES as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{scaled, zero_heavy_benchmark};
    use crate::rungs::{DeviceRung, ServiceRung};
    use crate::surface::by_name;

    fn small_data(seed: u64) -> DataSet {
        DataSet::build(
            scaled(zero_heavy_benchmark(), 1 << 20),
            &[("only", AdmissionPolicy::Reject)],
            seed,
        )
    }

    #[test]
    fn same_seed_gives_the_same_streams_and_another_seed_does_not() {
        let data = small_data(1);
        let a = batch_program(&data, 0.9, 500, 7);
        assert_eq!(
            program_hash(&a),
            program_hash(&batch_program(&data, 0.9, 500, 7))
        );
        assert_ne!(
            program_hash(&a),
            program_hash(&batch_program(&data, 0.9, 500, 8))
        );
        let c = control_program(300, 7);
        assert_eq!(program_hash(&c), program_hash(&control_program(300, 7)));
        assert_ne!(program_hash(&c), program_hash(&control_program(300, 8)));
    }

    #[test]
    fn control_program_runs_clean_on_the_service_and_demotes_only_the_demote_tenant() {
        let ops = control_program(600, 3);
        let data = small_data(3);
        let mut s = Session::<ServiceRung>::new(&control_stack(), &data.palettes);
        let mut log = RunLog::default();
        s.run(&ops, 1024, &mut log, None);
        assert_eq!(log.failed, 0, "{:?}", log.errors);
        assert_eq!(log.attempted, ops.len() as u64);
        assert!(log.demoted > 0, "the small quota must force demotions");
        assert_eq!(log.refused, 600 / 128);
        // The generator's ledger predicted every grant.
        let predicted = ops
            .iter()
            .filter(|op| matches!(op, Op::Alloc { asked, granted, .. } if asked != granted))
            .count() as u64;
        assert_eq!(log.demoted, predicted);
        assert_eq!(s.verify_all().1, 0);
    }

    #[test]
    fn a_corrupted_read_buffer_is_reported_as_a_failure() {
        // 356.sp has no zero entries, so distinct palette indices hold
        // distinct bytes.
        let data = DataSet::build(
            scaled(by_name("356.sp").unwrap(), 1 << 20),
            &[("only", AdmissionPolicy::Reject)],
            5,
        );
        let mut s = Session::<DeviceRung>::new(&data.stack, &data.palettes);
        assert_eq!(s.load_image(&data, 5, &[]), 0);
        let total: u64 = data.allocs.iter().map(|a| a.entries).sum();
        assert_eq!(s.verify_all(), (total, 0));
        // Flip one byte of what a read returned: the verifier must notice.
        let slot = s.slots[0].as_ref().unwrap();
        let mut out = vec![[0u8; ENTRY_BYTES]; BATCH];
        s.rung.read(0, slot.id, 0, &mut out).unwrap();
        assert!(Session::<DeviceRung>::matches_shadow(
            s.palettes, slot, 0, &out
        ));
        out[17][5] ^= 0x40;
        assert!(!Session::<DeviceRung>::matches_shadow(
            s.palettes, slot, 0, &out
        ));
        // The same disagreement between device and shadow map, met by a
        // run: the post-run sweep counts the entry, and the in-run check
        // (one read batch in 64) fails the ops that read it — which is what
        // turns into a non-zero `failed`, `"correct": false` and a non-zero
        // exit (`run_one` returns `record.correct`).
        s.slots[0].as_mut().unwrap().shadow[3] ^= 1;
        assert_eq!(s.verify_all().1, 1);
        let reads = vec![
            Op::Read {
                slot: 0,
                start: 0,
                len: BATCH as u16,
            };
            2 * VERIFY_EVERY as usize
        ];
        let mut log = RunLog::default();
        s.run(&reads, 64, &mut log, None);
        assert_eq!(log.failed, 2, "{:?}", log.errors);
    }
}
