//! Multi-tenant service walkthrough: two tenants with different quotas
//! and admission policies share one [`BuddyService`]; the quota-pinched
//! tenant gets demoted down the target-ratio ladder, a cross-tenant poke
//! is denied, an allocation changes owners, and the service's ledger
//! accounts for all of it.
//!
//! Run with `cargo run --example tenant_service`.

use buddy_compression::buddy_service::{
    AdmissionPolicy, BuddyService, CodecKind, DeviceConfig, PoolConfig, ServiceError, TargetRatio,
    ENTRY_BYTES,
};

fn main() {
    let service = BuddyService::new(PoolConfig {
        shards: 2,
        shard_config: DeviceConfig {
            device_capacity: 4 << 20,
            carve_out_factor: 3,
        },
        codec: CodecKind::Bpc,
    });

    // "prod" has room to spare and strict admission; "batch" holds quota
    // for only three full-price R2 allocations but may be demoted to a
    // more aggressive target instead of failing.
    let prod = service
        .register_tenant("prod", 512 * 1024, AdmissionPolicy::Reject)
        .expect("fresh name");
    let batch_quota = 3 * 256 * TargetRatio::R2.device_bytes_per_entry() as u64
        + 256 * TargetRatio::R4.device_bytes_per_entry() as u64;
    let batch = service
        .register_tenant("batch", batch_quota, AdmissionPolicy::Demote)
        .expect("fresh name");

    // Prod allocates and writes normally.
    let model = service
        .alloc(prod, "model", 512, TargetRatio::R2)
        .expect("within quota");
    let payload = vec![[0x42u8; ENTRY_BYTES]; 64];
    service
        .write_entries(prod, model.id, 0, &payload)
        .expect("owner writes");

    // Batch burns through its quota: three grants at the asked target,
    // then the ladder demotes the fourth, then admission fails.
    let mut jobs = Vec::new();
    for i in 0..5 {
        match service.alloc(batch, &format!("job-{i}"), 256, TargetRatio::R2) {
            Ok(grant) if grant.demoted => {
                println!(
                    "job-{i}: demoted to {:?} ({} B/entry instead of {})",
                    grant.target,
                    grant.target.device_bytes_per_entry(),
                    TargetRatio::R2.device_bytes_per_entry()
                );
                jobs.push(grant.id);
            }
            Ok(grant) => {
                println!("job-{i}: granted at {:?}", grant.target);
                jobs.push(grant.id);
            }
            Err(ServiceError::QuotaExceeded {
                requested,
                headroom,
            }) => println!("job-{i}: rejected — needs {requested} B, headroom {headroom} B"),
            Err(e) => println!("job-{i}: {e}"),
        }
    }

    // Tenancy is enforced: batch cannot touch prod's model...
    match service.free(batch, model.id) {
        Err(ServiceError::CrossTenant { .. }) => println!("cross-tenant free denied"),
        other => panic!("expected CrossTenant, got {other:?}"),
    }
    // ...until prod deliberately hands it over. The recipient admits
    // under its quota, so the full batch tenant can't take it — but after
    // a job is freed the transfer goes through and the old handle dies.
    match service.transfer(prod, model.id, batch) {
        Err(ServiceError::QuotaExceeded {
            requested,
            headroom,
        }) => println!("transfer rejected first: needs {requested} B, batch headroom {headroom} B"),
        other => panic!("expected QuotaExceeded, got {other:?}"),
    }
    let rows = service.tenants();
    assert_eq!(
        rows[0].used_bytes,
        512 * 64,
        "rejected transfer moved nothing"
    );
    drop(rows);
    // Make room on the batch side (free the demoted job), shrink the
    // model's reservation, retry — and watch the old handle die.
    if let Some(id) = jobs.pop() {
        service.free(batch, id).expect("owner frees");
    }
    service
        .retarget(prod, model.id, TargetRatio::ZeroPage16)
        .expect("shrinking always fits the owner's quota");
    let new_id = service
        .transfer(prod, model.id, batch)
        .expect("shrunk allocation fits batch's recycled headroom");
    println!("transfer accepted after retargeting the model down");
    assert!(matches!(
        service.write_entries(prod, model.id, 0, &payload),
        Err(ServiceError::BadHandle)
    ));
    assert!(service.write_entries(batch, new_id, 0, &payload).is_ok());

    // The ledger saw everything.
    println!("\ntenant ledger:");
    for row in service.tenants() {
        println!(
            "  {:>5}: allocs {} rejections {} demotions {} denials {} used {} B of {} B \
             (effective ratio {:.2})",
            row.name,
            row.allocs,
            row.rejections,
            row.demotions,
            row.cross_tenant_denials,
            row.used_bytes,
            row.quota_bytes,
            row.effective_ratio()
        );
    }
}
