//! Figure 12: measured overheads of Unified Memory oversubscription.

use crate::report::{f3, print_table, write_csv, RunConfig};
use buddy_compression::unified_memory::{native_baseline, simulate, PageAccess, Policy, UmConfig};
use buddy_compression::workloads::by_name;
use std::io;

/// Entries per 64 KB migration page.
const ENTRIES_PER_PAGE: u64 = (64 << 10) / 128;

/// Figure 12: runtime relative to no oversubscription for UM migration and
/// pinned-host placement, 0–40% forced oversubscription.
///
/// Paper platform: Power9 + V100 over 3 NVLink2 bricks (75 GB/s). Paper
/// shape: UM slowdowns reach 16–64×, often *worse* than simply pinning the
/// data in host memory; Buddy Compression suffers at most 1.67× at 50%
/// oversubscription even with a 50 GB/s link (§4.3).
pub fn fig12(cfg: &RunConfig) -> io::Result<()> {
    let oversubs = [0.0, 0.10, 0.20, 0.30, 0.40];
    let accesses = cfg.scaled(300_000) as usize;
    let mut rows = Vec::new();
    for name in ["360.ilbdc", "356.sp", "351.palm"] {
        let mut bench = by_name(name).expect("benchmark exists"); // lint-allow(no-unwrap): benchmark names are compiled into the suite
        bench.scale = buddy_compression::workloads::Scale {
            divisor: 512.0,
            floor_bytes: 4 << 20,
        };
        let footprint_pages = bench.total_entries() / ENTRIES_PER_PAGE;
        let trace = || {
            bench.trace(cfg.seed).take(accesses).map(|a| PageAccess {
                page: a.entry / ENTRIES_PER_PAGE,
                bytes: a.sector_count() * 32,
                write: a.write,
            })
        };
        let native = native_baseline(trace(), &UmConfig::default());
        let mut um_row = vec![format!("{name} (UM)")];
        let mut pinned_row = vec![format!("{name} (pinned)")];
        for &oversub in &oversubs {
            let device_pages = ((footprint_pages as f64) * (1.0 - oversub)).max(1.0) as u64;
            let config = UmConfig {
                device_bytes: device_pages * (64 << 10),
                ..UmConfig::default()
            };
            let um = simulate(trace(), Policy::UnifiedMemory, &config);
            let pinned = simulate(trace(), Policy::PinnedHost, &config);
            um_row.push(f3(um.slowdown_vs(&native)));
            pinned_row.push(f3(pinned.slowdown_vs(&native)));
        }
        rows.push(um_row);
        rows.push(pinned_row);
    }
    let header = ["configuration", "0%", "10%", "20%", "30%", "40%"];
    print_table(
        "Figure 12: UM oversubscription slowdowns (relative runtime)",
        &header,
        &rows,
    );
    println!("  paper: UM reaches 16-64x and often loses to pinned placement;");
    println!("  Buddy at 50 GB/s stays below 1.67x at 50% oversubscription (Fig. 11).");
    write_csv(&cfg.results_dir, "fig12", &header, &rows)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig12_runs_and_produces_monotone_um_slowdowns() {
        let cfg = RunConfig {
            quick: true,
            results_dir: std::env::temp_dir().join("buddy-bench-um"),
            seed: 5,
        };
        fig12(&cfg).unwrap();
        let csv = std::fs::read_to_string(cfg.results_dir.join("fig12.csv")).unwrap();
        let um_line = csv.lines().find(|l| l.contains("360.ilbdc (UM)")).unwrap();
        let cells: Vec<f64> = um_line
            .split(',')
            .skip(1)
            .map(|c| c.parse().unwrap())
            .collect();
        assert!(
            cells.windows(2).all(|w| w[1] >= w[0] * 0.95),
            "UM not monotone: {cells:?}"
        );
        assert!(
            cells[4] > 3.0,
            "40% oversubscription should slow ilbdc substantially: {cells:?}"
        );
    }
}
