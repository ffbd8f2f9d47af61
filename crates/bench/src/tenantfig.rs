//! Multi-tenant service figures: the open-loop overload knee and quota
//! enforcement under a noisy neighbour (the `tenancy` harness), plus the
//! per-tenant ledger (the `service-report` harness).
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
//!
//! # The open-loop driver
//!
//! The pool replay in [`poolfig`](crate::poolfig) is **closed-loop**: each
//! client issues its next batch as soon as the previous one finishes, so
//! under overload the *offered* rate silently collapses to the achieved
//! rate and latency looks fine — the classic coordinated-omission trap.
//! The driver here ([`run`]) is **open-loop**: each tenant's arrivals
//! follow a deterministic Poisson schedule ([`ArrivalSchedule`]) that does
//! not care how the service is doing. Overload therefore shows up where a
//! capacity planner needs it:
//!
//! * **queueing delay** — measured from the *scheduled* arrival time, not
//!   the dequeue time, so producer lateness and queue residence both
//!   count;
//! * **shed load** — each tenant's queue is a bounded [`sync_channel`];
//!   when the consumer cannot keep up the producer's `try_send` fails and
//!   the op is counted as shed instead of silently stretching the
//!   schedule.
//!
//! Only the *schedule* is deterministic (seeded); the measured delays are
//! wall-clock and machine-dependent, which is the point — the sweep
//! normalizes by offering rates as multiples of measured capacity.
//!
//! [`buddy_service`]: buddy_compression::buddy_service

use crate::obsfig::breakdown_row;
use crate::report::{f3, pct, print_table, write_csv, LatencyPercentiles, RunConfig};
use buddy_compression::buddy_obs::{trace, Histogram, MetricsRegistry, SpanKind};
use buddy_compression::buddy_service::{
    AdmissionPolicy, BuddyService, DeviceConfig, Entry, PoolConfig, ServiceAllocId, ServiceError,
    TargetRatio, ENTRY_BYTES,
};
use buddy_compression::workloads::{ArrivalSchedule, EntryClass};
use std::io;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::time::{Duration, Instant};

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

/// One tenant's traffic plan.
#[derive(Debug, Clone)]
pub struct TenantPlan {
    /// Tenant name (must be unique within the run).
    pub name: String,
    /// Quota in compressed device bytes (`u64::MAX` for unlimited).
    pub quota_bytes: u64,
    /// Admission policy on quota breach.
    pub policy: AdmissionPolicy,
    /// Offered arrival rate, operations per second.
    pub rate_per_sec: f64,
    /// Arrivals to schedule (the run ends when every tenant's schedule is
    /// exhausted and its queue drained).
    pub ops: u64,
    /// Entries per allocation.
    pub entries_per_alloc: u64,
    /// Target compression ratio requested for every allocation.
    pub target: TargetRatio,
    /// Live allocations the tenant builds up before switching to writes;
    /// beyond it, every `working_set`-th op frees the oldest allocation
    /// and re-allocates (steady-state churn).
    pub working_set: usize,
}

impl TenantPlan {
    /// A plan with `ops` arrivals at `rate_per_sec`, default shape: 64
    /// entries per allocation at R2, a working set of 8 allocations,
    /// unlimited quota, reject policy.
    pub fn new(name: &str, rate_per_sec: f64, ops: u64) -> Self {
        Self {
            name: name.to_string(),
            quota_bytes: u64::MAX,
            policy: AdmissionPolicy::Reject,
            rate_per_sec,
            ops,
            entries_per_alloc: 64,
            target: TargetRatio::R2,
            working_set: 8,
        }
    }

    /// The tenant's write palette: a deterministic mixed-compressibility
    /// batch (zero / noisy / ramp / random round-robin) so codec work is
    /// realistic without per-op generation cost. Every write op writes the
    /// whole palette: `min(entries_per_alloc, 64)` entries, which is 64 for
    /// the default plan.
    fn batch(&self, seed: u64) -> Vec<Entry> {
        let classes = [
            EntryClass::Zero,
            EntryClass::Noisy { noise_bits: 8 },
            EntryClass::Ramp { stride_bits: 4 },
            EntryClass::Random,
        ];
        (0..self.entries_per_alloc.min(64))
            .map(|i| classes[(i % classes.len() as u64) as usize].generate(seed ^ i))
            .collect()
    }
}

/// Bound of each tenant's arrival queue; a full queue sheds.
const QUEUE_DEPTH: usize = 64;

/// Per-tenant outcome of an open-loop run.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant name.
    pub name: String,
    /// Arrivals the schedule offered.
    pub offered: u64,
    /// Operations that completed (including ones that failed admission —
    /// a rejection is an answered request).
    pub completed: u64,
    /// Arrivals dropped because the tenant's queue was full.
    pub shed: u64,
    /// Allocation attempts denied by quota or capacity.
    pub rejected: u64,
    /// Allocations admitted below the requested target.
    pub demoted: u64,
    /// Uncompressed bytes across all granted allocations (cumulative).
    pub granted_logical_bytes: u64,
    /// Compressed device bytes reserved across all granted allocations
    /// (cumulative, at the granted — possibly demoted — target).
    pub granted_device_bytes: u64,
    /// Queueing delay (scheduled arrival → dequeue), percentiles.
    pub queue_delay: LatencyPercentiles,
    /// Service time (dequeue → completion), percentiles.
    pub service_time: LatencyPercentiles,
    /// Completed operations per second over the tenant's active window.
    pub achieved_per_sec: f64,
}

impl TenantReport {
    /// Fraction of offered arrivals that were shed.
    pub fn shed_fraction(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        self.shed as f64 / self.offered as f64
    }

    /// Effective compression ratio across everything the tenant was
    /// granted (uncompressed bytes over reserved device bytes; demotions
    /// push it up). 1.0 when nothing was granted.
    pub fn effective_ratio(&self) -> f64 {
        if self.granted_device_bytes == 0 {
            return 1.0;
        }
        self.granted_logical_bytes as f64 / self.granted_device_bytes as f64
    }
}

/// What one producer thread hands its consumer: the op's scheduled
/// arrival offset from the run start, in nanoseconds.
type ScheduledNs = u64;

/// Paces one tenant's arrival schedule against the wall clock, pushing
/// scheduled offsets into the bounded queue. Returns (offered, shed).
fn produce(
    plan: &TenantPlan,
    tenant_index: u64,
    seed: u64,
    start: Instant,
    tx: &SyncSender<ScheduledNs>,
) -> (u64, u64) {
    let mut offered = 0u64;
    let mut shed = 0u64;
    let schedule = ArrivalSchedule::per_tenant(plan.rate_per_sec, seed, tenant_index);
    for sched_ns in schedule.take(plan.ops as usize) {
        let deadline = start + Duration::from_nanos(sched_ns);
        // Sleep toward the deadline; spin the tail so sub-millisecond
        // inter-arrival gaps do not collapse into timer granularity.
        loop {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let remaining = deadline - now;
            if remaining > Duration::from_micros(500) {
                std::thread::sleep(remaining - Duration::from_micros(200));
            } else {
                // Yield, don't spin: a hot producer on a small machine
                // would starve its own consumer off the core.
                std::thread::yield_now();
            }
        }
        offered += 1;
        match tx.try_send(sched_ns) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => shed += 1,
            // The consumer is gone (panicked); stop offering.
            Err(TrySendError::Disconnected(_)) => break,
        }
    }
    (offered, shed)
}

/// Drains one tenant's queue against the service: builds up the working
/// set, then alternates writes with periodic churn. Returns the latency
/// histograms and op counts — fixed-size [`Histogram`]s, so the driver's
/// memory cost does not scale with `ops`.
#[derive(Default)]
struct ConsumerOutcome {
    completed: u64,
    rejected: u64,
    demoted: u64,
    granted_logical_bytes: u64,
    granted_device_bytes: u64,
    queue_delay: Histogram,
    service_time: Histogram,
    active: Duration,
}

fn consume(
    service: &BuddyService,
    plan: &TenantPlan,
    seed: u64,
    start: Instant,
    rx: &Receiver<ScheduledNs>,
) -> ConsumerOutcome {
    let tenant = match service.register_tenant(&plan.name, plan.quota_bytes, plan.policy) {
        Ok(t) => t,
        Err(_) => return ConsumerOutcome::default(),
    };
    let batch = plan.batch(seed);
    let mut live: Vec<ServiceAllocId> = Vec::with_capacity(plan.working_set);
    let mut outcome = ConsumerOutcome::default();
    let consumer_start = Instant::now();
    let mut seq = 0u64;
    while let Ok(sched_ns) = rx.recv() {
        let dequeued = Instant::now();
        let deadline = start + Duration::from_nanos(sched_ns);
        let wait = dequeued.saturating_duration_since(deadline);
        trace::record_span(SpanKind::QueueWait, wait);
        outcome.queue_delay.record_duration(wait);
        // Steady-state churn: once warm, recycle the oldest allocation
        // every `working_set`-th op so admission stays exercised.
        let churn = !live.is_empty()
            && live.len() >= plan.working_set
            && seq % plan.working_set as u64 == 0;
        if churn {
            let oldest = live.remove(0);
            let _ = service.free(tenant, oldest);
        }
        if live.len() < plan.working_set {
            match service.alloc(tenant, &plan.name, plan.entries_per_alloc, plan.target) {
                Ok(grant) => {
                    if grant.demoted {
                        outcome.demoted += 1;
                    }
                    outcome.granted_logical_bytes += plan.entries_per_alloc * ENTRY_BYTES as u64;
                    outcome.granted_device_bytes +=
                        plan.entries_per_alloc * grant.target.device_bytes_per_entry() as u64;
                    live.push(grant.id);
                }
                Err(ServiceError::QuotaExceeded { .. }) | Err(ServiceError::Device(_)) => {
                    outcome.rejected += 1;
                }
                Err(_) => {}
            }
        } else {
            let idx = (seq % live.len() as u64) as usize;
            let span = plan.entries_per_alloc.saturating_sub(batch.len() as u64) + 1;
            let begin = (seq * batch.len() as u64) % span;
            let _ = service.write_entries(tenant, live[idx], begin, &batch);
        }
        outcome.service_time.record_duration(dequeued.elapsed());
        outcome.completed += 1;
        seq += 1;
    }
    for id in live {
        let _ = service.free(tenant, id);
    }
    outcome.active = consumer_start.elapsed();
    outcome
}

/// Runs one open-loop experiment: a fresh service over the harness pool,
/// one producer and one consumer thread per tenant plan, a bounded queue
/// in between. Schedules and entry contents derive from `cfg.seed`. Returns
/// one report per plan, in plan order.
pub fn run(cfg: &RunConfig, plans: &[TenantPlan]) -> Vec<TenantReport> {
    let service = BuddyService::new(pool(cfg));
    let service = &service;
    let seed = cfg.seed;
    let run_start = Instant::now();
    let mut reports = Vec::with_capacity(plans.len());
    std::thread::scope(|scope| {
        let mut lanes = Vec::with_capacity(plans.len());
        for (index, plan) in plans.iter().enumerate() {
            let (tx, rx) = sync_channel::<ScheduledNs>(QUEUE_DEPTH);
            let producer = scope.spawn(move || produce(plan, index as u64, seed, run_start, &tx));
            let consumer =
                scope.spawn(move || consume(service, plan, seed ^ index as u64, run_start, &rx));
            lanes.push((plan, producer, consumer));
        }
        for (plan, producer, consumer) in lanes {
            let (offered, shed) = producer.join().unwrap_or((0, 0));
            let outcome = consumer.join().unwrap_or_default();
            reports.push(tenant_report(plan, offered, shed, outcome));
        }
    });
    reports
}

fn tenant_report(
    plan: &TenantPlan,
    offered: u64,
    shed: u64,
    outcome: ConsumerOutcome,
) -> TenantReport {
    let secs = outcome.active.as_secs_f64();
    TenantReport {
        name: plan.name.clone(),
        offered,
        completed: outcome.completed,
        shed,
        rejected: outcome.rejected,
        demoted: outcome.demoted,
        granted_logical_bytes: outcome.granted_logical_bytes,
        granted_device_bytes: outcome.granted_device_bytes,
        queue_delay: LatencyPercentiles::from_snapshot(&outcome.queue_delay.snapshot()),
        service_time: LatencyPercentiles::from_snapshot(&outcome.service_time.snapshot()),
        achieved_per_sec: if secs > 0.0 {
            outcome.completed as f64 / secs
        } else {
            0.0
        },
    }
}

/// Phase 1: measure this machine's service capacity (completed ops/s of a
/// single tenant offered a rate far past anything it can sustain).
pub fn calibrate_capacity(cfg: &RunConfig) -> (f64, TenantReport) {
    let ops = if cfg.quick { 2_000 } else { 10_000 };
    let plan = TenantPlan::new("calibrate", 50_000_000.0, ops);
    let report = run(cfg, &[plan]);
    let t = report[0].clone();
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
    reports: &[TenantReport],
) -> Vec<Row> {
    plans
        .iter()
        .zip(reports)
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
pub fn tenancy(cfg: &RunConfig, metrics: &MetricsRegistry) -> io::Result<Vec<Vec<String>>> {
    let offered_counter = metrics.counter(
        "tenancy_offered_total",
        "arrivals offered across all phases",
    );
    let completed_counter = metrics.counter(
        "tenancy_completed_total",
        "arrivals completed across all phases",
    );
    let shed_counter = metrics.counter("tenancy_shed_total", "arrivals shed across all phases");
    let capacity_gauge = metrics.gauge(
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
        let report = run(cfg, &plans);
        let p99 = report
            .iter()
            .map(|t| t.queue_delay.p99_us)
            .fold(0.0, f64::max);
        let (shed, offered) = report
            .iter()
            .fold((0, 0), |(s, o), t| (s + t.shed, o + t.offered));
        let shed = shed as f64 / offered.max(1) as f64;
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
        let baseline = run(cfg, &baseline_plans);
        rows.extend(rows_of(
            "quota",
            &format!("{name}_baseline"),
            0.0,
            &baseline_plans,
            &baseline,
        ));
        let contended_plans = vec![victim_plan(quota_ops), noisy_plan(quota_ops, policy)];
        let contended = run(cfg, &contended_plans);
        rows.extend(rows_of("quota", name, 0.0, &contended_plans, &contended));
        enforcement.push((
            name.to_string(),
            baseline[0].clone(),
            contended[0].clone(),
            contended[1].clone(),
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
    Ok(breakdown)
}

/// Scripted mixed-tenant scenario behind the `service-report` harness: the
/// service's ledger must account for every alloc, free, rejection,
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
    fn underload_mostly_completes_and_conserves_arrivals() {
        // Gentle offered rate (sub-millisecond service times, 500 µs
        // gaps): virtually everything should complete. Scheduler noise on
        // a loaded single-core runner can still shed a little, so the
        // hard assertions are conservation and a bounded shed fraction,
        // not exact zeros.
        let plans = [
            TenantPlan::new("a", 2_000.0, 100),
            TenantPlan::new("b", 2_000.0, 100),
        ];
        let report = run(&RunConfig::default(), &plans);
        assert_eq!(report.len(), 2);
        for t in &report {
            assert_eq!(t.offered, 100);
            assert_eq!(t.completed + t.shed, 100);
            assert!(
                t.shed_fraction() < 0.25,
                "underloaded tenant shed too much: {t:?}"
            );
            assert_eq!(t.rejected, 0);
            assert!(t.queue_delay.p99_us >= t.queue_delay.p50_us);
            assert!(t.achieved_per_sec > 0.0);
        }
    }

    #[test]
    fn quota_pressure_is_visible_in_the_report() {
        let mut plan = TenantPlan::new("pinched", 200_000.0, 300);
        // Quota fits only half the working set at the requested target.
        plan.quota_bytes = 4 * plan.entries_per_alloc * plan.target.device_bytes_per_entry() as u64;
        let report = run(&RunConfig::default(), &[plan]);
        let t = &report[0];
        assert_eq!(t.completed + t.shed, t.offered);
        assert!(
            t.rejected > 0,
            "quota-pinched tenant must see rejections, got {t:?}"
        );
    }

    #[test]
    fn demote_policy_converts_rejections_into_demotions() {
        let mut plan = TenantPlan::new("flex", 200_000.0, 300);
        plan.policy = AdmissionPolicy::Demote;
        // Quota fits three allocations at the asked R2 plus one more only
        // at R4 — the fourth admission must demote rather than reject.
        plan.quota_bytes = plan.entries_per_alloc
            * (3 * TargetRatio::R2.device_bytes_per_entry() as u64
                + TargetRatio::R4.device_bytes_per_entry() as u64);
        let report = run(&RunConfig::default(), &[plan]);
        let t = &report[0];
        assert!(
            t.demoted > 0,
            "demote policy must admit below target, got {t:?}"
        );
    }

    #[test]
    fn shed_fraction_arithmetic() {
        let r = TenantReport {
            name: "x".into(),
            offered: 100,
            completed: 75,
            shed: 25,
            rejected: 0,
            demoted: 0,
            granted_logical_bytes: 256,
            granted_device_bytes: 128,
            queue_delay: LatencyPercentiles::default(),
            service_time: LatencyPercentiles::default(),
            achieved_per_sec: 0.0,
        };
        assert!((r.shed_fraction() - 0.25).abs() < 1e-12);
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
        tenancy(&cfg, &MetricsRegistry::new()).expect("harness runs");
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
