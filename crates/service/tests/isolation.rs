//! Tenant isolation: the whole point of the service layer is that sharing
//! one pool is *invisible* to well-behaved tenants. The anchor property:
//! an N-tenant [`BuddyService`] over one pool is observation-equivalent —
//! same bytes on every read, same error on every invalid access, same
//! per-tenant traffic counters and quota charges — to N independent
//! single-tenant services, whenever no quota binds and capacity is ample.
//! Plus pins for the deliberate *non*-equivalences: cross-tenant denial,
//! stale handles after ownership transfer, and quota enforcement that
//! punishes only the offender.

use buddy_service::{
    AdmissionPolicy, BuddyService, CodecKind, DeviceConfig, Entry, PoolConfig, ServiceAllocId,
    ServiceError, TargetRatio, TenantId, ENTRY_BYTES,
};
use proptest::prelude::*;

const AMPLE: PoolConfig = PoolConfig {
    shards: 2,
    shard_config: DeviceConfig {
        device_capacity: 8 << 20,
        carve_out_factor: 3,
    },
    codec: CodecKind::Bpc,
};

fn entry_of_kind(kind: u8, seed: u64) -> Entry {
    let mut entry = [0u8; ENTRY_BYTES];
    match kind % 4 {
        0 => {}
        1 => {
            let w = (seed as u32).to_le_bytes();
            for c in entry.chunks_exact_mut(4) {
                c.copy_from_slice(&w);
            }
        }
        2 => {
            for (i, c) in entry.chunks_exact_mut(4).enumerate() {
                let v = (1u32 << 28) + (seed as u32 & 0x3FF) + i as u32;
                c.copy_from_slice(&v.to_le_bytes());
            }
        }
        _ => {
            let mut state = seed | 1;
            for b in entry.iter_mut() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *b = (state >> 56) as u8;
            }
        }
    }
    entry
}

/// Everything a tenant can observe from one operation.
#[derive(Debug, PartialEq)]
enum Observation {
    Alloc(Result<(TargetRatio, bool), ServiceError>),
    Write(Result<(), ServiceError>),
    Read(Result<Vec<Entry>, ServiceError>),
    Free(Result<(), ServiceError>),
    Retarget(Result<(TargetRatio, TargetRatio, u64), ServiceError>),
}

/// Applies one op for `tenant` against `service`, tracking its live
/// handles positionally so paired runs stay aligned.
fn apply(
    service: &BuddyService,
    tenant: TenantId,
    tenant_tag: u64,
    handles: &mut Vec<(ServiceAllocId, u64)>,
    op: (u8, u64, usize, u64),
) -> Observation {
    let (kind, pos, len, seed) = op;
    match kind % 5 {
        0 => {
            let entries = 16 + pos % 48;
            let target = TargetRatio::DESCENDING[(seed % 5) as usize];
            let name = format!("t{tenant_tag}-a{}", handles.len());
            let r = service.alloc(tenant, &name, entries, target);
            if let Ok(grant) = &r {
                handles.push((grant.id, entries));
            }
            Observation::Alloc(r.map(|g| (g.target, g.demoted)))
        }
        1 if !handles.is_empty() => {
            let (id, entries) = handles[(pos % handles.len() as u64) as usize];
            let start = pos % (entries + 2);
            let batch: Vec<Entry> = (0..len)
                .map(|i| entry_of_kind((seed + i as u64) as u8, seed ^ i as u64))
                .collect();
            Observation::Write(service.write_entries(tenant, id, start, &batch))
        }
        2 if !handles.is_empty() => {
            let (id, entries) = handles[(pos % handles.len() as u64) as usize];
            let start = pos % (entries + 2);
            let mut out = vec![[0u8; ENTRY_BYTES]; len];
            let r = service.read_entries(tenant, id, start, &mut out);
            Observation::Read(r.map(|()| out))
        }
        3 if handles.len() > 1 => {
            let slot = (pos % handles.len() as u64) as usize;
            let (id, _) = handles.remove(slot);
            Observation::Free(service.free(tenant, id))
        }
        4 if !handles.is_empty() => {
            let (id, _) = handles[(pos % handles.len() as u64) as usize];
            let new_target = TargetRatio::DESCENDING[(seed % 5) as usize];
            let r = service.retarget(tenant, id, new_target);
            Observation::Retarget(r.map(|rep| (rep.old_target, rep.new_target, rep.entries)))
        }
        _ => {
            // Op not applicable to current handle state: observe a no-op
            // the same way on both sides.
            Observation::Free(Err(ServiceError::BadHandle))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Three tenants multiplexed onto one service observe *exactly* what
    /// each would observe running alone on its own service: every result,
    /// every read byte, every traffic counter, every quota charge.
    #[test]
    fn shared_service_is_observation_equivalent_to_isolated_runs(
        per_tenant in proptest::collection::vec(
            proptest::collection::vec((0u8..5, any::<u64>(), 0usize..10, any::<u64>()), 1..16),
            3..4,
        ),
    ) {
        let shared = BuddyService::new(AMPLE);
        let shared_tenants: Vec<TenantId> = (0..per_tenant.len())
            .map(|i| {
                shared
                    .register_tenant(&format!("tenant-{i}"), u64::MAX, AdmissionPolicy::Reject)
                    .expect("fresh name")
            })
            .collect();

        for (index, ops) in per_tenant.iter().enumerate() {
            let isolated = BuddyService::new(AMPLE);
            let alone = isolated
                .register_tenant("solo", u64::MAX, AdmissionPolicy::Reject)
                .expect("fresh name");
            let mut shared_handles = Vec::new();
            let mut isolated_handles = Vec::new();
            for &op in ops {
                let seen_shared = apply(
                    &shared,
                    shared_tenants[index],
                    index as u64,
                    &mut shared_handles,
                    op,
                );
                let seen_alone =
                    apply(&isolated, alone, index as u64, &mut isolated_handles, op);
                prop_assert_eq!(seen_shared, seen_alone, "tenant {} diverged on {:?}", index, op);
            }
            let row_shared = shared.tenant(shared_tenants[index]).expect("registered");
            let row_alone = isolated.tenant(alone).expect("registered");
            prop_assert_eq!(
                row_shared.stats,
                row_alone.stats,
                "tenant {} traffic counters diverged", index
            );
            prop_assert_eq!(
                row_shared.used_bytes,
                row_alone.used_bytes,
                "tenant {} quota charge diverged", index
            );
        }
    }
}

#[test]
fn cross_tenant_handles_are_rejected_on_every_path() {
    let service = BuddyService::new(AMPLE);
    let owner = service
        .register_tenant("owner", u64::MAX, AdmissionPolicy::Reject)
        .expect("fresh name");
    let intruder = service
        .register_tenant("intruder", u64::MAX, AdmissionPolicy::Reject)
        .expect("fresh name");
    let grant = service
        .alloc(owner, "secret", 64, TargetRatio::R2)
        .expect("ample capacity");
    let payload = [0x5Au8; ENTRY_BYTES];
    service
        .write_entries(owner, grant.id, 0, &[payload])
        .expect("owner writes");

    let denied = |e: &Result<(), ServiceError>| matches!(e, Err(ServiceError::CrossTenant { .. }));
    assert!(denied(&service.free(intruder, grant.id)));
    assert!(denied(&service.write_entries(
        intruder,
        grant.id,
        0,
        &[payload]
    )));
    let mut out = [[0u8; ENTRY_BYTES]; 1];
    assert!(denied(
        &service.read_entries(intruder, grant.id, 0, &mut out)
    ));
    assert!(matches!(
        service.retarget(intruder, grant.id, TargetRatio::R4),
        Err(ServiceError::CrossTenant { .. })
    ));
    assert!(matches!(
        service.transfer(intruder, grant.id, intruder),
        Err(ServiceError::CrossTenant { .. })
    ));
    // Nothing leaked: the read buffer is untouched and the owner's data
    // is intact.
    assert_eq!(out[0], [0u8; ENTRY_BYTES]);
    service
        .read_entries(owner, grant.id, 0, &mut out)
        .expect("owner reads");
    assert_eq!(out[0], payload);
    // Denials were charged to the intruder, not the owner.
    let rows = service.tenants();
    assert_eq!(rows[0].cross_tenant_denials, 0);
    assert_eq!(rows[1].cross_tenant_denials, 5);
}

#[test]
fn stale_ids_after_ownership_transfer_fail_everywhere() {
    let service = BuddyService::new(AMPLE);
    let a = service
        .register_tenant("a", u64::MAX, AdmissionPolicy::Reject)
        .expect("fresh name");
    let b = service
        .register_tenant("b", u64::MAX, AdmissionPolicy::Reject)
        .expect("fresh name");
    let grant = service
        .alloc(a, "moving", 32, TargetRatio::R2)
        .expect("ample capacity");
    let payload = [7u8; ENTRY_BYTES];
    service
        .write_entries(a, grant.id, 0, &[payload])
        .expect("pre-transfer write");

    let new_id = service.transfer(a, grant.id, b).expect("within quota");

    // The pre-transfer handle is dead for everyone, on every path —
    // BadHandle, not CrossTenant: the generation check fires before any
    // ownership question is asked, so the stale id leaks nothing.
    let stale = grant.id;
    for tenant in [a, b] {
        assert_eq!(service.free(tenant, stale), Err(ServiceError::BadHandle));
        assert_eq!(
            service.write_entries(tenant, stale, 0, &[payload]),
            Err(ServiceError::BadHandle)
        );
        let mut out = [[0u8; ENTRY_BYTES]; 1];
        assert_eq!(
            service.read_entries(tenant, stale, 0, &mut out),
            Err(ServiceError::BadHandle)
        );
        assert!(matches!(
            service.retarget(tenant, stale, TargetRatio::R4),
            Err(ServiceError::BadHandle)
        ));
    }
    // The data survived the move and is readable through the new handle.
    let mut out = [[0u8; ENTRY_BYTES]; 1];
    service
        .read_entries(b, new_id, 0, &mut out)
        .expect("new owner reads");
    assert_eq!(out[0], payload);
}

#[test]
fn quota_enforcement_punishes_only_the_offender() {
    // A noisy neighbour exhausting its own quota changes nothing for the
    // victim: same grants, same bytes, same charges as running alone.
    let victim_script = |service: &BuddyService, victim: TenantId| {
        let mut reads = Vec::new();
        let g1 = service
            .alloc(victim, "v1", 64, TargetRatio::R2)
            .expect("victim within quota");
        let g2 = service
            .alloc(victim, "v2", 64, TargetRatio::R2)
            .expect("victim within quota");
        let payload = [0xC3u8; ENTRY_BYTES];
        service
            .write_entries(victim, g1.id, 0, &[payload])
            .expect("victim writes");
        let mut out = [[0u8; ENTRY_BYTES]; 1];
        service
            .read_entries(victim, g1.id, 0, &mut out)
            .expect("victim reads");
        reads.push(out[0]);
        service.free(victim, g2.id).expect("victim frees");
        let row = service.tenant(victim).expect("registered");
        (g1.target, g2.target, reads, row.used_bytes, row.stats)
    };
    let quota = 4 * 64 * TargetRatio::R2.device_bytes_per_entry() as u64;

    // Baseline: victim alone.
    let alone = BuddyService::new(AMPLE);
    let v = alone
        .register_tenant("victim", quota, AdmissionPolicy::Reject)
        .expect("fresh name");
    let baseline = victim_script(&alone, v);

    // Contended: a noisy neighbour burns through its quota first.
    let shared = BuddyService::new(AMPLE);
    let noisy = shared
        .register_tenant("noisy", quota, AdmissionPolicy::Reject)
        .expect("fresh name");
    let v = shared
        .register_tenant("victim", quota, AdmissionPolicy::Reject)
        .expect("fresh name");
    let mut rejections = 0;
    for i in 0..16 {
        match shared.alloc(noisy, &format!("n{i}"), 64, TargetRatio::R2) {
            Ok(_) => {}
            Err(ServiceError::QuotaExceeded { .. }) => rejections += 1,
            Err(e) => panic!("unexpected noisy-neighbour error: {e}"),
        }
    }
    assert_eq!(rejections, 12, "quota fits exactly 4 of the 16 attempts");
    let contended = victim_script(&shared, v);
    assert_eq!(baseline, contended, "victim observed the noisy neighbour");

    // And the ledger says so: only the offender shows rejections.
    let rows = shared.tenants();
    assert_eq!(rows[0].rejections, 12);
    assert_eq!(rows[1].rejections, 0);
    assert_eq!(rows[0].quota_headroom, 0);
}
