//! Multi-tenant service figures: the open-loop overload knee and quota
//! enforcement under a noisy neighbour (the `tenancy` harness), plus the
//! per-tenant telemetry ledger (the `service-report` harness).
//!
//! The tenancy sweep runs three phases against [`buddy_service`]:
//!
//! 1. **Calibrate** — one tenant offered a saturating arrival rate; its
//!    achieved completion rate is this machine's service capacity, making
//!    the rest of the sweep machine-independent.
//! 2. **Overload** — two symmetric tenants offered `ratio × capacity` in
//!    aggregate, sweeping the ratio across the knee. Below 1.0 the p99
//!    queueing delay sits near the timer floor; past 1.0 it rises
//!    superlinearly and shed load appears — the open-loop signature a
//!    closed-loop harness cannot show.
//! 3. **Quota** — a well-behaved victim shares the service with a noisy
//!    neighbour whose quota is deliberately too small for its demand,
//!    once per [`AdmissionPolicy`]. The neighbour's overage is rejected
//!    (or demoted down the target ladder); the victim's grants, effective
//!    compression ratio and queueing delay are compared against an
//!    isolated baseline run of the same victim plan.
//!
//! [`buddy_service`]: buddy_compression::buddy_service

use crate::obsfig::{breakdown_row, MetricsEmitter};
use crate::report::{f3, pct, print_table, write_csv, RunConfig};
use buddy_compression::buddy_obs::trace;
use buddy_compression::buddy_service::loadgen::{
    run, OpenLoopConfig, OpenLoopReport, TenantPlan, TenantReport,
};
use buddy_compression::buddy_service::{
    AdmissionPolicy, BuddyService, DeviceConfig, PoolConfig, ServiceError, TargetRatio, ENTRY_BYTES,
};
use std::io;

/// Pool sizing for every scenario: ample for the working sets involved, so
/// overload manifests as queueing and quota pressure — never as pool
/// capacity exhaustion muddying the attribution.
fn pool(cfg: &RunConfig) -> PoolConfig {
    PoolConfig {
        shards: 2,
        shard_config: DeviceConfig {
            device_capacity: 4 << 20,
            carve_out_factor: 3,
        },
        codec: cfg.codec,
    }
}

fn open_loop(cfg: &RunConfig, tenants: Vec<TenantPlan>) -> OpenLoopConfig {
    OpenLoopConfig {
        pool: pool(cfg),
        tenants,
        queue_depth: 64,
        batch_entries: 16,
        seed: cfg.seed,
    }
}

/// Phase 1: measure this machine's service capacity (completed ops/s of a
/// single tenant offered a rate far past anything it can sustain).
pub fn calibrate_capacity(cfg: &RunConfig) -> (f64, TenantReport) {
    let ops = if cfg.quick { 2_000 } else { 10_000 };
    let plan = TenantPlan::new("calibrate", 50_000_000.0, ops);
    let report = run(&open_loop(cfg, vec![plan]));
    let t = report.tenants[0].clone();
    // Floor the capacity so a degenerate measurement cannot zero out the
    // overload phase's offered rates.
    (t.achieved_per_sec.max(10_000.0), t)
}

/// Offered-load ratios swept in phase 2 (the knee is at 1.0).
fn overload_ratios(quick: bool) -> Vec<f64> {
    if quick {
        vec![0.5, 1.0, 2.0, 4.0]
    } else {
        vec![0.25, 0.5, 1.0, 2.0, 4.0]
    }
}

/// One CSV row of the tenancy sweep.
struct Row {
    phase: &'static str,
    scenario: String,
    tenant: String,
    policy: &'static str,
    offered_ratio: f64,
    rate_per_sec: f64,
    report: TenantReport,
}

fn policy_name(policy: AdmissionPolicy) -> &'static str {
    match policy {
        AdmissionPolicy::Reject => "reject",
        AdmissionPolicy::Demote => "demote",
    }
}

fn rows_of(
    phase: &'static str,
    scenario: &str,
    offered_ratio: f64,
    plans: &[TenantPlan],
    report: &OpenLoopReport,
) -> Vec<Row> {
    plans
        .iter()
        .zip(report.tenants.iter())
        .map(|(plan, t)| Row {
            phase,
            scenario: scenario.to_string(),
            tenant: t.name.clone(),
            policy: policy_name(plan.policy),
            offered_ratio,
            rate_per_sec: plan.rate_per_sec,
            report: t.clone(),
        })
        .collect()
}

/// The victim plan of the quota phase: modest fixed rate (its queueing
/// delay should be timer-dominated with or without a neighbour), ample
/// quota, R2 target.
fn victim_plan(ops: u64) -> TenantPlan {
    let mut plan = TenantPlan::new("victim", 2_000.0, ops);
    plan.quota_bytes = u64::MAX;
    plan
}

/// The noisy neighbour: wants its whole working set at R1 (the largest
/// per-entry reservation) but holds quota for only part of it, at a high
/// arrival rate. Under `Reject` the overage bounces; under `Demote` it is
/// pushed down the target ladder.
fn noisy_plan(ops: u64, policy: AdmissionPolicy) -> TenantPlan {
    let mut plan = TenantPlan::new("noisy", 20_000.0, ops);
    plan.policy = policy;
    plan.target = TargetRatio::R1;
    let alloc_bytes = plan.entries_per_alloc * TargetRatio::R1.device_bytes_per_entry() as u64;
    // 4.5 allocations' worth: four grants at full price, then the ladder
    // decides (reject, or demote into the half-slot of headroom).
    plan.quota_bytes = 4 * alloc_bytes + alloc_bytes / 2;
    plan
}

/// Runs the full tenancy sweep (`reproduce-all tenancy`), writes
/// `results/tenancy.csv` and hands back its span-time breakdown row.
pub fn tenancy(cfg: &RunConfig) -> io::Result<Vec<Vec<String>>> {
    let emitter = MetricsEmitter::start(cfg);
    let offered_counter = emitter.registry().counter(
        "tenancy_offered_total",
        "arrivals offered across all phases",
    );
    let completed_counter = emitter.registry().counter(
        "tenancy_completed_total",
        "arrivals completed across all phases",
    );
    let shed_counter = emitter
        .registry()
        .counter("tenancy_shed_total", "arrivals shed across all phases");
    let capacity_gauge = emitter.registry().gauge(
        "tenancy_capacity_ops_per_sec",
        "calibrated single-tenant service capacity",
    );
    let span_before = trace::totals();
    let mut rows: Vec<Row> = Vec::new();

    // Phase 1: capacity calibration.
    let (capacity, calibration) = calibrate_capacity(cfg);
    rows.push(Row {
        phase: "capacity",
        scenario: "saturate".to_string(),
        tenant: calibration.name.clone(),
        policy: "reject",
        offered_ratio: 0.0,
        rate_per_sec: capacity,
        report: calibration,
    });

    // Phase 2: open-loop overload sweep, two symmetric tenants.
    let ops = if cfg.quick { 600 } else { 3_000 };
    let mut knee: Vec<(f64, f64, f64)> = Vec::new();
    for &ratio in &overload_ratios(cfg.quick) {
        let per_tenant_rate = (ratio * capacity / 2.0).max(100.0);
        let plans = vec![
            TenantPlan::new("tenant-a", per_tenant_rate, ops),
            TenantPlan::new("tenant-b", per_tenant_rate, ops),
        ];
        let report = run(&open_loop(cfg, plans.clone()));
        let p99 = report
            .tenants
            .iter()
            .map(|t| t.queue_delay.p99_us)
            .fold(0.0, f64::max);
        let shed = report.shed() as f64 / report.offered().max(1) as f64;
        knee.push((ratio, p99, shed));
        rows.extend(rows_of(
            "overload",
            &format!("ratio_{ratio:.2}"),
            ratio,
            &plans,
            &report,
        ));
    }

    // Phase 3: quota enforcement, per policy, with an isolated baseline.
    let quota_ops = if cfg.quick { 400 } else { 1_500 };
    let mut enforcement: Vec<(String, TenantReport, TenantReport, TenantReport)> = Vec::new();
    for policy in [AdmissionPolicy::Reject, AdmissionPolicy::Demote] {
        let name = policy_name(policy);
        let baseline_plans = vec![victim_plan(quota_ops)];
        let baseline = run(&open_loop(cfg, baseline_plans.clone()));
        rows.extend(rows_of(
            "quota",
            &format!("{name}_baseline"),
            0.0,
            &baseline_plans,
            &baseline,
        ));
        let contended_plans = vec![victim_plan(quota_ops), noisy_plan(quota_ops, policy)];
        let contended = run(&open_loop(cfg, contended_plans.clone()));
        rows.extend(rows_of("quota", name, 0.0, &contended_plans, &contended));
        enforcement.push((
            name.to_string(),
            baseline.tenants[0].clone(),
            contended.tenants[0].clone(),
            contended.tenants[1].clone(),
        ));
    }

    // Report.
    let header = [
        "phase",
        "scenario",
        "tenant",
        "policy",
        "offered_ratio",
        "rate_per_sec",
        "offered",
        "completed",
        "shed",
        "shed_frac",
        "rejected",
        "demoted",
        "queue_p50_us",
        "queue_p99_us",
        "svc_p50_us",
        "achieved_per_sec",
        "effective_ratio",
    ];
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            let t = &row.report;
            vec![
                row.phase.to_string(),
                row.scenario.clone(),
                row.tenant.clone(),
                row.policy.to_string(),
                f3(row.offered_ratio),
                format!("{:.0}", row.rate_per_sec),
                t.offered.to_string(),
                t.completed.to_string(),
                t.shed.to_string(),
                f3(t.shed_fraction()),
                t.rejected.to_string(),
                t.demoted.to_string(),
                f3(t.queue_delay.p50_us),
                f3(t.queue_delay.p99_us),
                f3(t.service_time.p50_us),
                format!("{:.0}", t.achieved_per_sec),
                f3(t.effective_ratio()),
            ]
        })
        .collect();
    print_table(
        "Tenancy: open-loop overload knee and quota enforcement",
        &header,
        &table,
    );
    println!("  calibrated capacity: {capacity:.0} ops/s");
    for (ratio, p99, shed) in &knee {
        println!(
            "  offered {ratio:.2}x capacity -> p99 queue delay {p99:.0} us, shed {}",
            pct(*shed)
        );
    }
    for (name, baseline, victim, noisy) in &enforcement {
        println!(
            "  {name}: noisy neighbour rejected {} / demoted {} of {} arrivals; victim \
             effective ratio {:.3} (baseline {:.3}), p50 queue delay {:.0} us (baseline {:.0} us)",
            noisy.rejected,
            noisy.demoted,
            noisy.offered,
            victim.effective_ratio(),
            baseline.effective_ratio(),
            victim.queue_delay.p50_us,
            baseline.queue_delay.p50_us,
        );
    }

    let path = write_csv(&cfg.results_dir, &cfg.tagged("tenancy"), &header, &table)?;
    println!("  wrote {path:?}");

    // One breakdown row for the whole sweep: it multiplexes phases over
    // the same 2-shard pool, so per-phase span deltas would mostly
    // re-measure the timer floor. queue_wait is the column this source
    // uniquely exercises.
    capacity_gauge.set(capacity as u64);
    for row in &rows {
        offered_counter.add(row.report.offered);
        completed_counter.add(row.report.completed);
        shed_counter.add(row.report.shed);
    }
    let span_delta = trace::totals().since(&span_before);
    let breakdown = vec![breakdown_row(
        "tenancy",
        &cfg.codec.to_string(),
        2,
        2,
        &span_delta,
    )];
    if let Some((prom, csv)) = emitter.finish()? {
        println!("  metrics -> {prom:?} and {csv:?}");
    }
    Ok(breakdown)
}

/// Scripted mixed-tenant scenario behind the `service-report` harness: the
/// telemetry registry must account for every alloc, free, rejection,
/// demotion, transfer and denial the script performs.
pub fn service_report(cfg: &RunConfig) -> io::Result<()> {
    let service = BuddyService::new(pool(cfg));
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
        .telemetry()
        .snapshot()
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
    print_table(
        "Service report: per-tenant telemetry ledger",
        &header,
        &rows,
    );
    let path = write_csv(
        &cfg.results_dir,
        &cfg.tagged("service_report"),
        &header,
        &rows,
    )?;
    println!("  wrote {path:?}");
    Ok(())
}

fn other(e: ServiceError) -> io::Error {
    io::Error::other(e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(dir: &str) -> RunConfig {
        RunConfig {
            quick: true,
            results_dir: std::env::temp_dir().join(dir),
            ..RunConfig::default()
        }
    }

    #[test]
    fn calibration_reports_a_positive_capacity() {
        let mut cfg = quick_cfg("tenantfig-calibrate");
        cfg.quick = true;
        let (capacity, report) = calibrate_capacity(&cfg);
        assert!(capacity >= 10_000.0);
        assert_eq!(report.offered, 2_000);
        assert_eq!(report.completed + report.shed, report.offered);
    }

    #[test]
    fn noisy_plan_quota_forces_enforcement() {
        // The plan's quota must sit strictly between 4 and 5 R1
        // allocations so the fifth admission is the enforcement point.
        let plan = noisy_plan(100, AdmissionPolicy::Demote);
        let alloc = plan.entries_per_alloc * TargetRatio::R1.device_bytes_per_entry() as u64;
        assert!(plan.quota_bytes > 4 * alloc && plan.quota_bytes < 5 * alloc);
    }

    #[test]
    fn tenancy_harness_writes_the_csv_artifact() {
        let cfg = quick_cfg("tenantfig-tenancy");
        tenancy(&cfg).expect("harness runs");
        let csv = cfg.results_dir.join("tenancy.csv");
        let text = std::fs::read_to_string(csv).expect("csv written");
        let mut lines = text.lines();
        let header = lines.next().expect("header line");
        for column in [
            "phase",
            "offered_ratio",
            "queue_p99_us",
            "shed",
            "rejected",
            "demoted",
        ] {
            assert!(header.contains(column), "missing column {column}");
        }
        // 1 calibration + 2 tenants × 4 ratios + 2 policies × (1 baseline
        // + 2 contended) = 15 data rows in quick mode.
        assert_eq!(lines.count(), 15);
        // Every phase present.
        for phase in ["capacity", "overload", "quota"] {
            assert!(text.contains(phase), "missing phase {phase}");
        }
    }

    #[test]
    fn service_report_writes_the_ledger() {
        let cfg = quick_cfg("tenantfig-report");
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
