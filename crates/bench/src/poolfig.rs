//! Pool throughput: multi-tenant scaling of the compressed data path.
//!
//! The paper's §5 performance model is about *aggregate* traffic — every SM
//! issues entry accesses concurrently. This harness measures that regime
//! directly: a sharded [`BuddyPool`] is driven by `N` concurrent client
//! threads replaying the same workload trace (same master seed, same
//! per-client splitting rule), sweeping shard count × client count × codec.
//! Each cell reports aggregate throughput (entries/s, logical GB/s) and
//! per-batch latency percentiles from the `pool::loadgen` replay harness,
//! plus the scaling factor against the 1-shard/1-client cell of the same
//! codec.
//!
//! The sweep carries two kinds of cells. *Trace-mix* cells replay the
//! profile's own read/write decisions; *read-heavy* cells force a 95/5
//! read mix, the serving regime the lock-free epoch-snapshot read path
//! targets.
//!
//! Wall-clock scaling depends on the machine: with `P` hardware threads,
//! the `min(shards, clients, P)` parallel compression streams are where the
//! speedup comes from, so the summary prints the detected parallelism next
//! to the measured scaling factor.

use crate::obsfig::{breakdown_row, MetricsEmitter};
use crate::report::{f3, pct, print_table, write_csv, RunConfig};
use buddy_compression::bpc::CodecKind;
use buddy_compression::buddy_core::{DeviceConfig, TargetRatio};
use buddy_compression::buddy_obs::trace;
use buddy_compression::buddy_pool::loadgen::{replay, LoadReport, LoadgenConfig};
use buddy_compression::buddy_pool::{BuddyPool, PoolConfig};
use buddy_compression::workloads::by_name;
use std::io;

/// The benchmark whose access profile drives the replay (a SpecAccel
/// stencil with a realistic read/write mix).
const TRACE_BENCH: &str = "356.sp";

/// Entries per batched operation.
const BATCH: usize = 64;

/// Read percentage of the read-heavy cells: the serving regime the
/// epoch-snapshot redesign targets (reads dominate, writes trickle).
const READ_HEAVY_PCT: u8 = 95;

/// One point of the sweep grid: the structural axes, the churn/retarget
/// activity knobs, and the read mix.
#[derive(Debug, Clone, Copy)]
pub struct CellSpec {
    /// Shard count of the pool under test.
    pub shards: usize,
    /// Concurrent client threads.
    pub clients: usize,
    /// Churn period in batches (`0` = off), forwarded to [`LoadgenConfig`].
    pub churn_every: u64,
    /// Re-targeting period in batches (`0` = off), forwarded likewise.
    pub retarget_every: u64,
    /// `None` replays the trace's own read/write mix; `Some(p)` forces a
    /// deterministic `p`% read mix.
    pub read_pct: Option<u8>,
}

impl CellSpec {
    /// A trace-mix cell.
    const fn trace_mix(shards: usize, clients: usize, churn: u64, retarget: u64) -> Self {
        Self {
            shards,
            clients,
            churn_every: churn,
            retarget_every: retarget,
            read_pct: None,
        }
    }

    /// A 95/5 read-heavy cell.
    const fn read_heavy(shards: usize, clients: usize) -> Self {
        Self {
            shards,
            clients,
            churn_every: 0,
            retarget_every: 0,
            read_pct: Some(READ_HEAVY_PCT),
        }
    }
}

/// One measured cell of the sweep.
pub struct Cell {
    /// Codec under test.
    pub codec: CodecKind,
    /// Loadgen report for this (shards, clients) point.
    pub report: LoadReport,
    /// End-of-replay pool fragmentation (`BuddyPool::fragmentation`).
    pub fragmentation: f64,
    /// End-of-replay largest contiguous free device region, in bytes.
    pub largest_free_region: u64,
}

/// Runs one cell of the sweep: builds a pool sized to the clients'
/// footprint and replays the trace through it with the spec's mix.
pub fn measure(
    codec: CodecKind,
    spec: CellSpec,
    entries_per_client: u64,
    batches_per_client: u64,
    seed: u64,
) -> Cell {
    let profile = by_name(TRACE_BENCH).expect("trace benchmark exists").access; // lint-allow(no-unwrap): the trace benchmark is compiled into the suite
                                                                                // Size shards to the replay footprint (with 2× headroom) instead of a
                                                                                // flat multi-MB capacity: the backing arrays are zero-initialized, and
                                                                                // across a 24-cell sweep a fixed large capacity would spend more time
                                                                                // in memset than in compression.
    let clients_per_shard = spec.clients.div_ceil(spec.shards) as u64;
    let target = TargetRatio::R2;
    let device_need =
        clients_per_shard * entries_per_client * target.device_bytes_per_entry() as u64;
    let pool = BuddyPool::new(PoolConfig {
        shards: spec.shards,
        shard_config: DeviceConfig {
            device_capacity: (device_need * 2).max(1 << 20),
            carve_out_factor: 3,
        },
        codec,
    });
    let cfg = LoadgenConfig {
        clients: spec.clients,
        batches_per_client,
        batch_entries: BATCH,
        entries_per_client,
        target,
        seed,
        retarget_every: spec.retarget_every,
        churn_every: spec.churn_every,
        read_pct: spec.read_pct,
    };
    let report = replay(&pool, profile, &cfg).expect("sized pool hosts every client"); // lint-allow(no-unwrap): the pool is sized with 2x headroom for every client
    Cell {
        codec,
        report,
        fragmentation: pool.fragmentation(),
        largest_free_region: pool.largest_free_region(),
    }
}

/// The sweep grid: trace-mix scaling cells, one churn + retarget cell, then
/// the read-heavy cells.
fn grid(quick: bool) -> Vec<CellSpec> {
    if quick {
        vec![
            CellSpec::trace_mix(1, 1, 0, 0),
            CellSpec::trace_mix(2, 2, 0, 0),
            CellSpec::trace_mix(4, 4, 0, 0),
            CellSpec::trace_mix(2, 2, 8, 4),
            CellSpec::read_heavy(4, 4),
        ]
    } else {
        vec![
            CellSpec::trace_mix(1, 1, 0, 0),
            CellSpec::trace_mix(1, 4, 0, 0),
            CellSpec::trace_mix(2, 2, 0, 0),
            CellSpec::trace_mix(4, 1, 0, 0),
            CellSpec::trace_mix(4, 4, 0, 0),
            CellSpec::trace_mix(8, 8, 0, 0),
            CellSpec::trace_mix(4, 4, 8, 4),
            CellSpec::read_heavy(4, 4),
            CellSpec::read_heavy(4, 16),
            CellSpec::read_heavy(4, 64),
        ]
    }
}

/// Runs the shard × client × codec throughput sweep (`reproduce-all
/// pool-throughput`) and hands back one span-time breakdown row per cell.
/// With obs-trace off the rows are all-zero (`trace_enabled=false`) but
/// structurally identical — the artifact shape is stable.
pub fn pool_throughput(cfg: &RunConfig) -> io::Result<Vec<Vec<String>>> {
    // Equal work per cell so entries/s columns are directly comparable.
    let total_entries = cfg.scaled(2_000_000);
    let entries_per_client = if cfg.quick { 1024 } else { 4096 };
    let codecs: Vec<CodecKind> = if cfg.quick {
        vec![cfg.codec]
    } else {
        CodecKind::ALL.to_vec()
    };

    let header = [
        "codec",
        "shards",
        "clients",
        "read_pct",
        "entries",
        "errored_batches",
        "elapsed_ms",
        "entries_per_s",
        "logical_gb_per_s",
        "p50_us",
        "p95_us",
        "p99_us",
        "p999_us",
        "max_us",
        "buddy_access_frac",
        "churn_cycles",
        "retargets",
        "fragmentation",
        "largest_free_mb",
        "scaling_vs_1s1c",
    ];
    let emitter = MetricsEmitter::start(cfg);
    let entries_counter = emitter
        .registry()
        .counter("pool_entries_total", "entries moved across all sweep cells");
    let latency_metric = emitter.registry().histogram(
        "pool_batch_latency_ns",
        "per-batch replay latency across all sweep cells",
    );
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut breakdown: Vec<Vec<String>> = Vec::new();
    let mut headline_scaling = None;
    for &codec in &codecs {
        let mut baseline = None;
        for &spec in &grid(cfg.quick) {
            let batches_per_client = (total_entries / (spec.clients as u64 * BATCH as u64)).max(1);
            let span_before = trace::totals();
            let cell = measure(
                codec,
                spec,
                entries_per_client,
                batches_per_client,
                cfg.seed,
            );
            let span_delta = trace::totals().since(&span_before);
            breakdown.push(breakdown_row(
                "pool_throughput",
                &codec.to_string(),
                spec.shards,
                spec.clients,
                &span_delta,
            ));
            let r = &cell.report;
            // Only churn can legitimately error a batch (a freed-and-
            // reallocated handle racing a client); every other cell must
            // complete every batch or the throughput columns lie.
            if spec.churn_every == 0 {
                assert_eq!(
                    r.errored_batches, 0,
                    "non-churn cell {spec:?} dropped batches"
                );
            }
            entries_counter.add(r.entries_processed);
            latency_metric.absorb(&r.latency_hist);
            let baseline_eps = *baseline.get_or_insert(r.entries_per_sec);
            let scaling = r.entries_per_sec / baseline_eps;
            if codec == cfg.codec
                && spec.shards >= 4
                && spec.clients >= 4
                && spec.churn_every == 0
                && spec.read_pct.is_none()
            {
                headline_scaling = Some(scaling);
            }
            rows.push(vec![
                codec.to_string(),
                spec.shards.to_string(),
                spec.clients.to_string(),
                spec.read_pct
                    .map_or_else(|| "trace".to_string(), |p| p.to_string()),
                r.entries_processed.to_string(),
                r.errored_batches.to_string(),
                format!("{:.1}", r.elapsed.as_secs_f64() * 1e3),
                format!("{:.0}", r.entries_per_sec),
                f3(r.logical_gb_per_sec),
                f3(r.latency.p50_us),
                f3(r.latency.p95_us),
                f3(r.latency.p99_us),
                f3(r.latency.p999_us),
                f3(r.latency.max_us),
                pct(r.stats.buddy_access_fraction()),
                r.churn_cycles.to_string(),
                r.stats.retargets.to_string(),
                f3(cell.fragmentation),
                f3(cell.largest_free_region as f64 / (1 << 20) as f64),
                f3(scaling),
            ]);
        }
    }
    print_table(
        &format!("Pool throughput: shards × clients × codec ({TRACE_BENCH} trace)"),
        &header,
        &rows,
    );
    let parallelism = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    if let Some(scaling) = headline_scaling {
        println!(
            "  {} scaling 1 shard/1 client -> >=4 shards/>=4 clients: {scaling:.2}x \
             ({parallelism} hardware threads available)",
            cfg.codec
        );
        println!("  Parallel speedup tracks min(shards, clients, hardware threads); on a");
        println!("  single-core host the sweep still validates the concurrent data path.");
    }
    write_csv(
        &cfg.results_dir,
        &cfg.tagged("pool_throughput"),
        &header,
        &rows,
    )?;
    if let Some((prom, csv)) = emitter.finish()? {
        println!("  metrics -> {prom:?} and {csv:?}");
    }
    Ok(breakdown)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_cell_is_consistent() {
        let cell = measure(CodecKind::Bpc, CellSpec::trace_mix(2, 2, 0, 0), 256, 16, 11);
        let r = &cell.report;
        assert_eq!(r.shards, 2);
        assert_eq!(r.clients, 2);
        assert_eq!(r.entries_processed, 2 * 16 * BATCH as u64);
        assert_eq!(r.stats.total_accesses(), r.entries_processed);
        assert!(r.entries_per_sec > 0.0);
        assert_eq!(r.churn_cycles, 0);
        assert_eq!(r.errored_batches, 0);
        assert!((0.0..=1.0).contains(&cell.fragmentation));
        assert!(cell.largest_free_region > 0, "pool has 2x headroom free");
    }

    #[test]
    fn churn_and_retarget_activity_reaches_the_report() {
        // The grid's churn cell must produce nonzero churn/retarget columns;
        // this is the plumbing the CSV relies on.
        let cell = measure(CodecKind::Bpc, CellSpec::trace_mix(2, 2, 8, 4), 256, 16, 11);
        let r = &cell.report;
        assert!(r.churn_cycles > 0, "churn_every=8 over 16 batches cycles");
        assert!(r.stats.retargets > 0, "retarget_every=4 migrates");
    }

    #[test]
    fn read_heavy_cell_completes_every_batch_and_is_read_dominated() {
        let cell = measure(CodecKind::Bpc, CellSpec::read_heavy(2, 2), 256, 16, 11);
        assert_eq!(cell.report.errored_batches, 0);
        // 95% reads: reads dominate writes in the merged stats.
        let s = &cell.report.stats;
        let reads = s.reads_device_only + s.reads_with_buddy;
        let writes = s.writes_device_only + s.writes_with_buddy;
        assert!(
            reads > writes,
            "read-heavy mix: {reads} reads vs {writes} writes"
        );
    }

    #[test]
    fn harness_writes_the_csv_artifact() {
        let dir = std::env::temp_dir().join("buddy-bench-poolfig");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = RunConfig {
            quick: true,
            results_dir: dir.clone(),
            seed: 5,
            ..Default::default()
        };
        pool_throughput(&cfg).unwrap();
        let csv = std::fs::read_to_string(dir.join("pool_throughput.csv")).unwrap();
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("codec,shards,clients,read_pct,entries"));
        for col in [
            "errored_batches",
            "churn_cycles",
            "retargets",
            "fragmentation",
        ] {
            assert!(header.contains(col), "header is missing {col}");
        }
        // Quick grid: (1,1), (2,2), (4,4), the churn cell, and the
        // read-heavy cell, default codec.
        let rows: Vec<&str> = lines.collect();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows.iter().filter(|r| r.contains(",95,")).count(), 1);
        // Non-churn rows completed every batch.
        for row in &rows {
            let errored = row.split(',').nth(5).unwrap();
            let churn = row.split(',').nth(15).unwrap();
            if churn == "0" {
                assert_eq!(errored, "0", "non-churn row dropped batches: {row}");
            }
        }
    }
}
