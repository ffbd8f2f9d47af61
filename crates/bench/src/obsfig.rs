//! Shared observability wiring for the harnesses: the span-time breakdown
//! artifact (`results/obs_breakdown.csv`) and the `--metrics-out` emitter.
//!
//! The breakdown answers the attribution question the throughput columns
//! cannot: of the wall-clock a sweep cell spent, how much went to waiting
//! on shard locks vs. codec work vs. device/buddy memory I/O? The numbers
//! come from the tracer's per-kind totals ([`trace::totals`]), which are
//! exact regardless of ring wraparound. With the `obs-trace` feature off
//! the columns are all zero and `trace_enabled` says so — the artifact
//! shape is stable either way, so CI can assert on it in both modes.
//!
//! [`MetricsEmitter`] is the `--metrics-out` implementation: one
//! [`MetricsRegistry`] per run, which the `pool-throughput`, `tenancy` and
//! `churn` harnesses register on, plus a background time-series sampler,
//! flushed once to `<base>.prom` (Prometheus text exposition) and
//! `<base>.csv` (one row per sampled metric per tick) when the run
//! finishes.

use crate::report::{f3, write_csv, RunConfig};
use buddy_compression::buddy_obs::metrics::sample_every;
use buddy_compression::buddy_obs::trace;
use buddy_compression::buddy_obs::{MetricsRegistry, SamplerHandle, SpanKind, SpanTotals};
use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Artifact name of the shared span-time breakdown (under `results/`).
pub const BREAKDOWN_NAME: &str = "obs_breakdown";

/// Columns of `obs_breakdown.csv`: one row per measured sweep cell, span
/// time in milliseconds summed over every thread that ran in the cell.
pub const BREAKDOWN_HEADER: [&str; 13] = [
    "source",
    "codec",
    "shards",
    "clients",
    "trace_enabled",
    "shard_lock_wait_ms",
    "epoch_publish_ms",
    "codec_compress_ms",
    "codec_decompress_ms",
    "buddy_io_ms",
    "region_alloc_ms",
    "retarget_migrate_ms",
    "queue_wait_ms",
];

/// Renders one breakdown row from a span-totals delta
/// ([`SpanTotals::since`] across the measured region).
pub fn breakdown_row(
    source: &str,
    codec: &str,
    shards: usize,
    clients: usize,
    delta: &SpanTotals,
) -> Vec<String> {
    let ms = |kind: SpanKind| f3(delta.of(kind).total_ns as f64 / 1e6);
    vec![
        source.to_string(),
        codec.to_string(),
        shards.to_string(),
        clients.to_string(),
        trace::is_enabled().to_string(),
        ms(SpanKind::ShardLockWait),
        ms(SpanKind::EpochPublish),
        ms(SpanKind::CodecCompress),
        ms(SpanKind::CodecDecompress),
        ms(SpanKind::BuddyIo),
        ms(SpanKind::RegionAlloc),
        ms(SpanKind::RetargetMigrate),
        ms(SpanKind::QueueWait),
    ]
}

/// Writes the breakdown artifact; `reproduce_all` calls this once per run
/// with the rows its harnesses handed back.
pub fn write_breakdown(cfg: &RunConfig, rows: &[Vec<String>]) -> io::Result<PathBuf> {
    write_csv(&cfg.results_dir, BREAKDOWN_NAME, &BREAKDOWN_HEADER, rows)
}

/// Sampling interval of the `--metrics-out` time series. Coarse enough to
/// stay invisible next to the measured work, fine enough that even a
/// `--quick` harness run lands several ticks.
const SAMPLE_INTERVAL: Duration = Duration::from_millis(50);

/// The `--metrics-out` half of a run: a registry the harnesses populate,
/// with a background sampler ticking while they work. `reproduce_all`
/// starts it before the first harness and finishes it after the last, so
/// one file pair carries every harness's metrics. When the run
/// configuration carries no `metrics_out` path the sampler never starts
/// and [`finish`](Self::finish) is a no-op.
pub struct MetricsEmitter {
    registry: Arc<MetricsRegistry>,
    sampler: Option<SamplerHandle>,
    out: Option<PathBuf>,
}

impl MetricsEmitter {
    /// Builds the registry and, if `cfg.metrics_out` is set, starts the
    /// deterministic-interval sampler over it.
    pub fn start(cfg: &RunConfig) -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        let sampler = cfg
            .metrics_out
            .as_ref()
            .map(|_| sample_every(Arc::clone(&registry), SAMPLE_INTERVAL));
        Self {
            registry,
            sampler,
            out: cfg.metrics_out.clone(),
        }
    }

    /// The registry the harnesses register their
    /// counters/gauges/histograms on.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Stops the sampler and writes `<base>.prom` + `<base>.csv`. Returns
    /// the written paths, or `None` when `--metrics-out` was not given.
    pub fn finish(self) -> io::Result<Option<(PathBuf, PathBuf)>> {
        let Some(base) = self.out else {
            return Ok(None);
        };
        let series = match self.sampler {
            Some(handle) => handle.stop(),
            None => Default::default(),
        };
        if let Some(dir) = base.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        let prom_path = sibling(&base, "prom");
        let csv_path = sibling(&base, "csv");
        std::fs::write(&prom_path, self.registry.render_prometheus())?;
        std::fs::write(&csv_path, series.to_csv())?;
        Ok(Some((prom_path, csv_path)))
    }
}

/// `<base>.<ext>` next to the base path (extension appended, never
/// replacing part of a dotted filename the user chose).
fn sibling(base: &std::path::Path, ext: &str) -> PathBuf {
    let mut name = base.as_os_str().to_os_string();
    name.push(".");
    name.push(ext);
    PathBuf::from(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_row_shape_matches_the_header() {
        let row = breakdown_row("pool_throughput", "bpc", 4, 4, &SpanTotals::default());
        assert_eq!(row.len(), BREAKDOWN_HEADER.len());
        assert_eq!(row[0], "pool_throughput");
        assert_eq!(row[4], trace::is_enabled().to_string());
        // A zero delta renders as zero milliseconds in every span column.
        for cell in &row[5..] {
            assert_eq!(cell, "0.000");
        }
    }

    #[test]
    fn emitter_without_metrics_out_is_inert() {
        let emitter = MetricsEmitter::start(&RunConfig::default());
        emitter.registry().counter("ops_total", "ops").incr();
        assert!(emitter.finish().unwrap().is_none());
    }

    #[test]
    fn emitter_writes_prom_and_csv_artifacts() {
        let dir = std::env::temp_dir().join("buddy-bench-obsfig-metrics");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = RunConfig {
            metrics_out: Some(dir.join("m")),
            ..Default::default()
        };
        let emitter = MetricsEmitter::start(&cfg);
        emitter.registry().counter("ops_total", "ops issued").add(5);
        let (prom, csv) = emitter.finish().unwrap().expect("paths written");
        let prom_text = std::fs::read_to_string(prom).unwrap();
        assert!(prom_text.contains("# TYPE ops_total counter"));
        assert!(prom_text.contains("ops_total 5"));
        let csv_text = std::fs::read_to_string(csv).unwrap();
        assert!(csv_text.starts_with("tick,elapsed_ms,metric,value"));
        // The sampler takes a final stop-time sample, so even an instant
        // run lands at least one row for the counter.
        assert!(csv_text.contains("ops_total"));
    }
}
