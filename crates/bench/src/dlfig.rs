//! Figure 13: the DL training case study.

use crate::capacity::fig07_points;
use crate::report::{f3, print_table, write_csv, RunConfig};
use buddy_compression::dl_model::{
    batch_size_sweep, capacity_speedup, networks, throughput, GpuPerf,
};
use std::io;

/// Figure 13a: training memory footprint versus mini-batch size.
/// Paper: AlexNet transitions late (batch ~96); the others are
/// activation-dominated by batch 32.
pub fn fig13a(cfg: &RunConfig) -> io::Result<()> {
    let batches = [1u64, 2, 4, 8, 16, 32, 64, 96, 128, 192, 256, 384, 512];
    let mut rows = Vec::new();
    for (net, _, _) in networks::all_networks() {
        let mut row = vec![net.name.to_string()];
        for &b in &batches {
            row.push(f3(net.footprint_bytes(b) as f64 / (1u64 << 30) as f64));
        }
        rows.push(row);
    }
    let mut header = vec!["network"];
    let names: Vec<String> = batches.iter().map(|b| format!("b{b}")).collect();
    header.extend(names.iter().map(|s| s.as_str()));
    print_table(
        "Figure 13a: memory footprint (GB) vs batch size",
        &header,
        &rows,
    );
    write_csv(&cfg.results_dir, "fig13a", &header, &rows)?;
    Ok(())
}

/// Figure 13b: projected training throughput versus mini-batch size,
/// normalized to batch 16. Paper: throughput rises then plateaus once the
/// GPU is fully utilized.
pub fn fig13b(cfg: &RunConfig) -> io::Result<()> {
    let gpu = GpuPerf::default();
    let batches = [16u64, 32, 64, 128, 256, 512];
    let mut rows = Vec::new();
    for (net, _, _) in networks::all_networks() {
        let base = throughput(&net, 16, &gpu);
        let mut row = vec![net.name.to_string()];
        for &b in &batches {
            row.push(f3(throughput(&net, b, &gpu) / base));
        }
        rows.push(row);
    }
    let header = ["network", "b16", "b32", "b64", "b128", "b256", "b512"];
    print_table(
        "Figure 13b: throughput vs batch (normalized to 16)",
        &header,
        &rows,
    );
    write_csv(&cfg.results_dir, "fig13b", &header, &rows)?;
    Ok(())
}

/// Figure 13c: projected speedup from training at the larger batch size
/// that Buddy Compression's capacity allows. Paper: average +14%; BigLSTM
/// +28% and VGG16 +30%.
///
/// Per-network compression ratios come from this reproduction's own
/// Figure 7 results; the 2.2% §4.2 performance overhead is charged to the
/// Buddy configuration.
pub fn fig13c(cfg: &RunConfig) -> io::Result<()> {
    let gpu = GpuPerf::default();
    let fig7 = fig07_points(cfg);
    let ratio_of = |name: &str| {
        fig7.iter()
            .find(|p| p.name == name)
            .map(|p| p.final_design.0)
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("network `{name}` has no Figure 7 point"),
                )
            })
    };
    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    for (net, _, _) in networks::all_networks() {
        let ratio = ratio_of(net.name)?;
        let cs = capacity_speedup(&net, &gpu, ratio, 0.022, 1024);
        speedups.push(cs.speedup());
        rows.push(vec![
            net.name.to_string(),
            f3(ratio),
            cs.baseline_batch.to_string(),
            cs.buddy_batch.to_string(),
            f3(cs.speedup()),
        ]);
    }
    let header = [
        "network",
        "buddy_ratio",
        "baseline_batch",
        "buddy_batch",
        "speedup",
    ];
    print_table(
        "Figure 13c: speedup from Buddy-enabled larger batches",
        &header,
        &rows,
    );
    let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
    println!(
        "  average speedup {:.1}% (paper: 14%; BigLSTM 28%, VGG16 30%)",
        100.0 * (avg - 1.0)
    );
    write_csv(&cfg.results_dir, "fig13c", &header, &rows)?;
    Ok(())
}

/// Figure 13d: validation accuracy versus mini-batch size — a real SGD +
/// batch-norm experiment (see `dl_model::training`). Paper: batches 16/32
/// fail to reach maximum accuracy; 64 reaches it but converges slower than
/// the larger batches.
pub fn fig13d(cfg: &RunConfig) -> io::Result<()> {
    let epochs = if cfg.quick { 30 } else { 100 };
    let batches = [16usize, 32, 64, 128, 256];
    let results = batch_size_sweep(&batches, epochs, cfg.seed);
    // Accuracy curves: one row per epoch checkpoint.
    let checkpoints: Vec<usize> = (0..epochs)
        .step_by((epochs / 10).max(1))
        .chain([epochs - 1])
        .collect();
    let mut rows = Vec::new();
    for &e in &checkpoints {
        let mut row = vec![format!("epoch {}", e + 1)];
        for r in &results {
            row.push(f3(r.val_accuracy[e]));
        }
        rows.push(row);
    }
    let header = ["checkpoint", "b16", "b32", "b64", "b128", "b256"];
    print_table(
        "Figure 13d: validation accuracy vs batch size",
        &header,
        &rows,
    );
    for r in &results {
        println!(
            "  batch {:>3}: plateau {:.3}, epochs-to-90%-of-best {:?}",
            r.batch,
            r.final_plateau(10),
            r.epochs_to_reach(0.9 * r.best())
        );
    }
    println!("  paper: 16/32 below max accuracy; 64 reaches max but converges slower");
    write_csv(&cfg.results_dir, "fig13d", &header, &rows)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use buddy_compression::workloads::dl_benchmarks;

    /// Figure 13c looks each network's ratio up by name among Figure 7's
    /// points, so every network must be one of the suite's DL benchmarks.
    #[test]
    fn every_network_is_a_dl_benchmark_of_the_suite() {
        let dl: Vec<&str> = dl_benchmarks().iter().map(|b| b.name).collect();
        for (net, _, _) in networks::all_networks() {
            assert!(dl.contains(&net.name), "{} is not a DL benchmark", net.name);
        }
    }

    #[test]
    fn fig13_harnesses_run_quick() {
        let cfg = RunConfig {
            quick: true,
            results_dir: std::env::temp_dir().join("buddy-bench-dl"),
            seed: 13,
        };
        fig13a(&cfg).unwrap();
        fig13b(&cfg).unwrap();
        fig13d(&cfg).unwrap();
        for f in ["fig13a.csv", "fig13b.csv", "fig13d.csv"] {
            assert!(cfg.results_dir.join(f).exists(), "{f} missing");
        }
    }
}
