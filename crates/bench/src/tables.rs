//! Tables 1 and 2 of the paper.

use crate::report::{print_table, write_csv, RunConfig};
use buddy_compression::gpu_sim::GpuConfig;
use buddy_compression::workloads::{all_benchmarks, Suite};
use std::io;

/// Table 1: the GPU benchmarks and their memory footprints.
pub fn table1(cfg: &RunConfig) -> io::Result<()> {
    let rows: Vec<Vec<String>> = all_benchmarks()
        .iter()
        .map(|b| {
            let suite = match b.suite {
                Suite::SpecAccel => "HPC SpecAccel",
                Suite::FastForward => "HPC FastForward",
                Suite::DlTraining => "DL Training",
            };
            let footprint = if b.footprint_bytes >= 1 << 30 {
                format!("{:.2}GB", b.footprint_bytes as f64 / (1u64 << 30) as f64)
            } else {
                format!("{:.2}MB", b.footprint_bytes as f64 / (1u64 << 20) as f64)
            };
            vec![
                b.name.to_string(),
                suite.to_string(),
                footprint,
                format!(
                    "{:.1}MB",
                    b.sim_footprint_bytes() as f64 / (1u64 << 20) as f64
                ),
            ]
        })
        .collect();
    let header = [
        "benchmark",
        "suite",
        "footprint (Table 1)",
        "simulated footprint",
    ];
    print_table("Table 1: GPU benchmarks", &header, &rows);
    write_csv(&cfg.results_dir, "table1", &header, &rows)?;
    Ok(())
}

/// Table 2: performance simulation parameters.
pub fn table2(cfg: &RunConfig) -> io::Result<()> {
    let gpu = GpuConfig::p100();
    println!("\n=== Table 2: performance simulation parameters ===");
    println!("{gpu}");
    let rows = vec![
        vec!["sms".to_string(), gpu.sms.to_string()],
        vec!["core_clock_ghz".to_string(), gpu.core_clock_ghz.to_string()],
        vec![
            "max_warps_per_sm".to_string(),
            gpu.max_warps_per_sm.to_string(),
        ],
        vec!["l2_bytes".to_string(), gpu.l2_bytes.to_string()],
        vec!["l2_slices".to_string(), gpu.l2_slices.to_string()],
        vec!["l2_ways".to_string(), gpu.l2_ways.to_string()],
        vec!["line_bytes".to_string(), gpu.line_bytes.to_string()],
        vec!["sector_bytes".to_string(), gpu.sector_bytes.to_string()],
        vec!["dram_channels".to_string(), gpu.dram_channels.to_string()],
        vec![
            "dram_bandwidth_gbps".to_string(),
            gpu.dram_bandwidth_gbps.to_string(),
        ],
        vec![
            "link_bandwidth_gbps".to_string(),
            gpu.link_bandwidth_gbps.to_string(),
        ],
        vec![
            "metadata_cache_bytes_per_slice".to_string(),
            gpu.metadata_cache_bytes_per_slice.to_string(),
        ],
        vec![
            "decompression_latency_cycles".to_string(),
            gpu.decompression_latency_cycles.to_string(),
        ],
    ];
    write_csv(&cfg.results_dir, "table2", &["parameter", "value"], &rows)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_emit_csv() {
        let cfg = RunConfig {
            quick: true,
            results_dir: std::env::temp_dir().join("buddy-bench-tables"),
            seed: 1,
        };
        table1(&cfg).unwrap();
        table2(&cfg).unwrap();
        assert!(cfg.results_dir.join("table1.csv").exists());
        assert!(cfg.results_dir.join("table2.csv").exists());
    }
}
