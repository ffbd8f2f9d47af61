//! The per-tenant ledger (the `service-report` harness): one scripted
//! mixed-tenant scenario against [`buddy_service`], deterministic end to
//! end.
//!
//! Quota reject/demote and isolation are pinned by `buddy-service`'s own
//! suites; the overload knee is measured by `benchmark/`'s `tenant_mixed`
//! queue replay (`max_ok_rate_per_s` / `due_p99_us`).
//!
//! [`buddy_service`]: buddy_compression::buddy_service

use crate::report::{f3, pct, print_table, write_csv, RunConfig};
use buddy_compression::buddy_service::{
    AdmissionPolicy, BuddyService, DeviceConfig, PoolConfig, ServiceError, TargetRatio, ENTRY_BYTES,
};
use std::io;

/// Pool sizing for the scenario: ample for the working sets involved, so
/// pressure manifests as quota enforcement — never as pool capacity
/// exhaustion muddying the attribution.
fn pool() -> PoolConfig {
    PoolConfig {
        shards: 2,
        shard_config: DeviceConfig {
            device_capacity: 4 << 20,
            carve_out_factor: 3,
        },
        ..PoolConfig::default()
    }
}

/// Scripted mixed-tenant scenario behind the `service-report` harness: the
/// service's ledger must account for every alloc, free, rejection,
/// demotion, transfer and denial the script performs.
pub fn service_report(cfg: &RunConfig) -> io::Result<()> {
    let service = BuddyService::new(pool());
    let roomy = 512 * 1024;
    let alpha = service
        .register_tenant("alpha", roomy, AdmissionPolicy::Reject)
        .map_err(other)?;
    // Bravo's quota fits eight full-price R1.33 grants plus exactly one
    // more rung down at R2 — so the ninth admission demotes, the rest of
    // its demand rejects.
    let bravo_quota = 64
        * (8 * TargetRatio::R1_33.device_bytes_per_entry() as u64
            + TargetRatio::R2.device_bytes_per_entry() as u64);
    let bravo = service
        .register_tenant("bravo", bravo_quota, AdmissionPolicy::Demote)
        .map_err(other)?;
    let mallory = service
        .register_tenant("mallory", 4 * 1024, AdmissionPolicy::Reject)
        .map_err(other)?;

    // Alpha: steady well-behaved traffic.
    let mut alpha_ids = Vec::new();
    let batch = vec![[0x2Du8; ENTRY_BYTES]; 16];
    for i in 0..8 {
        let grant = service
            .alloc(alpha, &format!("alpha-{i}"), 64, TargetRatio::R2)
            .map_err(other)?;
        service
            .write_entries(alpha, grant.id, 0, &batch)
            .map_err(other)?;
        alpha_ids.push(grant.id);
    }
    let mut out = vec![[0u8; ENTRY_BYTES]; 16];
    service
        .read_entries(alpha, alpha_ids[0], 0, &mut out)
        .map_err(other)?;
    if let Some(id) = alpha_ids.pop() {
        service.free(alpha, id).map_err(other)?;
    }

    // Bravo: asks for more reservation than its quota affords — the
    // demote ladder kicks in partway through.
    let mut bravo_ids = Vec::new();
    for i in 0..12 {
        if let Ok(grant) = service.alloc(bravo, &format!("bravo-{i}"), 64, TargetRatio::R1_33) {
            bravo_ids.push(grant.id);
        }
    }

    // Mallory: blows through a tiny quota, then pokes at alpha's handle.
    for i in 0..6 {
        let _ = service.alloc(mallory, &format!("m-{i}"), 64, TargetRatio::R2);
    }
    assert!(matches!(
        service.free(mallory, alpha_ids[0]),
        Err(ServiceError::CrossTenant { .. })
    ));
    assert!(matches!(
        service.read_entries(mallory, alpha_ids[0], 0, &mut out),
        Err(ServiceError::CrossTenant { .. })
    ));

    // Bravo frees one full-price grant to make room, then alpha donates
    // an allocation to it (the transfer re-charges bravo's quota).
    if let Some(id) = bravo_ids.pop() {
        service.free(bravo, id).map_err(other)?;
    }
    if let Some(donated) = alpha_ids.pop() {
        service.transfer(alpha, donated, bravo).map_err(other)?;
    }

    let header = [
        "tenant",
        "allocs",
        "frees",
        "rejections",
        "demotions",
        "transfers",
        "cross_tenant_denials",
        "used_kb",
        "quota_kb",
        "headroom_kb",
        "logical_kb",
        "live_allocations",
        "effective_ratio",
        "accesses",
        "buddy_access_frac",
    ];
    let kb = |b: u64| f3(b as f64 / 1024.0);
    let rows: Vec<Vec<String>> = service
        .tenants()
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.allocs.to_string(),
                r.frees.to_string(),
                r.rejections.to_string(),
                r.demotions.to_string(),
                r.transfers.to_string(),
                r.cross_tenant_denials.to_string(),
                kb(r.used_bytes),
                if r.quota_bytes == u64::MAX {
                    "inf".to_string()
                } else {
                    kb(r.quota_bytes)
                },
                kb(r.quota_headroom),
                kb(r.logical_bytes),
                r.allocations.to_string(),
                f3(r.effective_ratio()),
                r.stats.total_accesses().to_string(),
                pct(r.stats.buddy_access_fraction()),
            ]
        })
        .collect();
    print_table("Service report: per-tenant ledger", &header, &rows);
    let path = write_csv(&cfg.results_dir, "service_report", &header, &rows)?;
    println!("  wrote {path:?}");
    Ok(())
}

fn other(e: ServiceError) -> io::Error {
    io::Error::other(e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_report_writes_the_ledger() {
        let cfg = RunConfig {
            quick: true,
            results_dir: std::env::temp_dir().join("tenantfig-report"),
            ..RunConfig::default()
        };
        service_report(&cfg).expect("harness runs");
        let csv = cfg.results_dir.join("service_report.csv");
        let text = std::fs::read_to_string(csv).expect("csv written");
        assert_eq!(text.lines().count(), 4, "header + three tenants");
        // The scripted scenario exercises every ledger column.
        let mallory = text
            .lines()
            .find(|l| l.starts_with("mallory"))
            .expect("mallory row");
        let fields: Vec<&str> = mallory.split(',').collect();
        assert_eq!(fields[6], "2", "two cross-tenant denials");
        let bravo = text
            .lines()
            .find(|l| l.starts_with("bravo"))
            .expect("bravo row");
        let fields: Vec<&str> = bravo.split(',').collect();
        assert!(
            fields[4].parse::<u64>().expect("demotions") > 0,
            "bravo demoted"
        );
    }
}
