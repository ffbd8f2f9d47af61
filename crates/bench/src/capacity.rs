//! Compression-capacity figures: Figures 3, 6, 7, 8 and 9.
//!
//! All five harnesses capture, profile and choose targets under BPC, the
//! algorithm behind the paper's published numbers; the `ablation` harness
//! is where the other codecs are compared.

use crate::report::{f3, pct, print_table, write_csv, write_text, RunConfig};
use buddy_compression::buddy_core::{best_achievable, choose_naive, choose_targets, ProfileConfig};
use buddy_compression::workloads::snapshot::{capture, heatmap, ten_phases, SnapshotConfig};
use buddy_compression::workloads::{all_benchmarks, geomean, Benchmark};
use buddy_compression::{profile_benchmark, profile_benchmark_at};
use std::io;

fn sample_cap(cfg: &RunConfig) -> u64 {
    if cfg.quick {
        1024
    } else {
        8192
    }
}

/// Figure 3: optimistic BPC capacity compression ratio per benchmark over
/// ten snapshots. Paper: GMEAN ≈ 2.51 (HPC) and ≈ 1.85 (DL).
pub fn fig03(cfg: &RunConfig) -> io::Result<()> {
    let mut rows = Vec::new();
    let mut hpc = Vec::new();
    let mut dl = Vec::new();
    for bench in all_benchmarks() {
        let mut snapshot_bytes = Vec::new();
        for phase in ten_phases() {
            let stats = capture(
                &bench,
                SnapshotConfig {
                    phase,
                    seed: cfg.seed,
                    sample_cap: sample_cap(cfg),
                    ..Default::default()
                },
            );
            snapshot_bytes.push(128.0 / stats.compression_ratio());
        }
        // Whole-run average: mean compressed size across snapshots.
        let mean_bytes = snapshot_bytes.iter().sum::<f64>() / snapshot_bytes.len() as f64;
        let mean_ratio = 128.0 / mean_bytes;
        if bench.suite.is_hpc() {
            hpc.push(mean_ratio);
        } else {
            dl.push(mean_ratio);
        }
        let mut row = vec![bench.name.to_string()];
        row.extend(snapshot_bytes.iter().map(|b| f3(128.0 / b)));
        row.push(f3(mean_ratio));
        row.push(f3(bench.paper_fig3_ratio));
        rows.push(row);
    }
    let gm_hpc = geomean(hpc);
    let gm_dl = geomean(dl);
    let mut header = vec!["benchmark"];
    let snapshot_names: Vec<String> = (1..=10).map(|i| format!("s{i}")).collect();
    header.extend(snapshot_names.iter().map(|s| s.as_str()));
    header.push("mean");
    header.push("paper");
    print_table(
        "Figure 3: BPC capacity compression per snapshot",
        &header,
        &rows,
    );
    println!("  GMEAN_HPC {gm_hpc:.2} (paper 2.51)   GMEAN_DL {gm_dl:.2} (paper 1.85)");
    write_csv(&cfg.results_dir, "fig03", &header, &rows)?;
    Ok(())
}

/// Figure 6: spatial compressibility heat maps (PGM + sector distribution).
pub fn fig06(cfg: &RunConfig) -> io::Result<()> {
    let pages = if cfg.quick { 64 } else { 512 };
    let mut rows = Vec::new();
    for bench in all_benchmarks() {
        let map = heatmap(&bench, cfg.seed, 0.5, pages);
        let file = format!("fig06_{}.pgm", bench.name.replace('.', "_"));
        write_text(&cfg.results_dir, &file, &map.to_pgm())?;
        let dist = map.sector_distribution();
        let mut row = vec![bench.name.to_string()];
        row.extend(dist.iter().map(|d| pct(*d)));
        rows.push(row);
    }
    let header = [
        "benchmark",
        "0-sector",
        "1-sector",
        "2-sector",
        "3-sector",
        "4-sector",
    ];
    print_table(
        "Figure 6: compressibility distribution (heat maps in results/)",
        &header,
        &rows,
    );
    write_csv(&cfg.results_dir, "fig06_distribution", &header, &rows)?;
    Ok(())
}

/// One benchmark's Figure 7 data point.
#[derive(Debug, Clone)]
pub struct Fig7Point {
    /// Benchmark name.
    pub name: String,
    /// Whether it counts into the HPC geomean.
    pub is_hpc: bool,
    /// (ratio, buddy fraction) for naive / per-allocation / final policies.
    pub naive: (f64, f64),
    /// Per-allocation targets without zero-page mode.
    pub per_alloc: (f64, f64),
    /// The final design (per-allocation + zero-page).
    pub final_design: (f64, f64),
}

/// Computes the Figure 7 policy comparison for every benchmark.
pub fn fig07_points(cfg: &RunConfig) -> Vec<Fig7Point> {
    let config = ProfileConfig::default();
    all_benchmarks()
        .iter()
        .map(|bench| {
            let profiles = profile_benchmark(bench, sample_cap(cfg), cfg.seed);
            let naive = choose_naive(&profiles);
            let per_alloc = choose_targets(&profiles, &ProfileConfig::per_allocation_only());
            let final_design = choose_targets(&profiles, &config);
            Fig7Point {
                name: bench.name.to_string(),
                is_hpc: bench.suite.is_hpc(),
                naive: (
                    naive.device_compression_ratio(),
                    naive.static_buddy_fraction(),
                ),
                per_alloc: (
                    per_alloc.device_compression_ratio(),
                    per_alloc.static_buddy_fraction(),
                ),
                final_design: (
                    final_design.device_compression_ratio(),
                    final_design.static_buddy_fraction(),
                ),
            }
        })
        .collect()
}

/// Figure 7: design-optimization sensitivity. Paper: naive 1.57×/1.18× with
/// 8%/32% buddy accesses (HPC/DL); final 1.9×/1.5× with 0.08%/4%.
pub fn fig07(cfg: &RunConfig) -> io::Result<()> {
    let points = fig07_points(cfg);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.name.clone(),
                f3(p.naive.0),
                pct(p.naive.1),
                f3(p.per_alloc.0),
                pct(p.per_alloc.1),
                f3(p.final_design.0),
                pct(p.final_design.1),
            ]
        })
        .collect();
    let header = [
        "benchmark",
        "naive_ratio",
        "naive_buddy",
        "peralloc_ratio",
        "peralloc_buddy",
        "final_ratio",
        "final_buddy",
    ];
    print_table("Figure 7: policy comparison", &header, &rows);
    for (label, pick) in [("naive", 0usize), ("per-alloc", 1), ("final", 2)] {
        let select = |p: &Fig7Point| match pick {
            0 => p.naive,
            1 => p.per_alloc,
            _ => p.final_design,
        };
        let hpc_r = geomean(points.iter().filter(|p| p.is_hpc).map(|p| select(p).0));
        let dl_r = geomean(points.iter().filter(|p| !p.is_hpc).map(|p| select(p).0));
        let hpc_b: f64 = points
            .iter()
            .filter(|p| p.is_hpc)
            .map(|p| select(p).1)
            .sum::<f64>()
            / points.iter().filter(|p| p.is_hpc).count() as f64;
        let dl_b: f64 = points
            .iter()
            .filter(|p| !p.is_hpc)
            .map(|p| select(p).1)
            .sum::<f64>()
            / points.iter().filter(|p| !p.is_hpc).count() as f64;
        println!(
            "  {label:<10} GMEAN ratio HPC {hpc_r:.2} DL {dl_r:.2}; mean buddy HPC {} DL {}",
            pct(hpc_b),
            pct(dl_b)
        );
    }
    println!("  paper: naive 1.57/1.18 @ 8%/32%; final 1.9/1.5 @ 0.08%/4%");
    write_csv(&cfg.results_dir, "fig07", &header, &rows)?;
    Ok(())
}

/// Figure 8: buddy-access fraction over one DL training iteration with
/// fixed targets. Paper: flat lines; ratios 1.49 (SqueezeNet), 1.64
/// (ResNet50).
pub fn fig08(cfg: &RunConfig) -> io::Result<()> {
    let mut rows = Vec::new();
    for name in ["SqueezeNet", "ResNet50"] {
        let bench = all_benchmarks()
            .into_iter()
            .find(|b| b.name == name)
            .expect("benchmark exists"); // lint-allow(no-unwrap): benchmark names are compiled into all_benchmarks()

        // Profile across the run (the paper's static targets), then measure
        // per-snapshot overflow with those targets held fixed.
        let profiles = profile_benchmark(&bench, sample_cap(cfg), cfg.seed);
        let outcome = choose_targets(&profiles, &ProfileConfig::default());
        let mut row = vec![name.to_string(), f3(outcome.device_compression_ratio())];
        for phase in ten_phases() {
            let at_phase = profile_benchmark_at(&bench, phase, sample_cap(cfg), cfg.seed);
            let mut weighted = 0.0;
            let mut total = 0.0;
            for (profile, choice) in at_phase.iter().zip(outcome.choices.iter()) {
                weighted +=
                    profile.entries as f64 * choice.target.overflow_fraction(&profile.histogram);
                total += profile.entries as f64;
            }
            row.push(pct(weighted / total));
        }
        rows.push(row);
    }
    let mut header = vec!["benchmark", "ratio"];
    let names: Vec<String> = (1..=10).map(|i| format!("s{i}")).collect();
    header.extend(names.iter().map(|s| s.as_str()));
    print_table(
        "Figure 8: buddy accesses across a training iteration",
        &header,
        &rows,
    );
    println!("  paper: constant ratios 1.49 (SqueezeNet) / 1.64 (ResNet50), flat access lines");
    write_csv(&cfg.results_dir, "fig08", &header, &rows)?;
    Ok(())
}

/// Figure 9: Buddy Threshold sensitivity (10–40%) plus the best-achievable
/// marker. Paper: 30% balances compression and buddy accesses.
pub fn fig09(cfg: &RunConfig) -> io::Result<()> {
    let thresholds = [0.10, 0.20, 0.30, 0.40];
    let mut rows = Vec::new();
    let benches: Vec<Benchmark> = all_benchmarks();
    for bench in &benches {
        let profiles = profile_benchmark(bench, sample_cap(cfg), cfg.seed);
        let mut row = vec![bench.name.to_string()];
        for &t in &thresholds {
            let outcome = choose_targets(&profiles, &ProfileConfig::with_threshold(t));
            row.push(f3(outcome.device_compression_ratio()));
            row.push(pct(outcome.static_buddy_fraction()));
        }
        row.push(f3(best_achievable(&profiles)));
        rows.push(row);
    }
    let header = [
        "benchmark",
        "r@10%",
        "buddy@10%",
        "r@20%",
        "buddy@20%",
        "r@30%",
        "buddy@30%",
        "r@40%",
        "buddy@40%",
        "best_achievable",
    ];
    print_table("Figure 9: Buddy Threshold sensitivity", &header, &rows);
    write_csv(&cfg.results_dir, "fig09", &header, &rows)?;

    // The one benchmark that cannot reach its best-achievable marker at 30%
    // should be FF_HPGMG (§3.4).
    let dl_30 = geomean(
        benches
            .iter()
            .zip(rows.iter())
            .filter(|(b, _)| !b.suite.is_hpc())
            .map(|(_, r)| r[5].parse::<f64>().unwrap_or(1.0)),
    );
    println!("  DL GMEAN at 30% threshold: {dl_30:.2} (paper chooses 30% as the balance)");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> RunConfig {
        RunConfig {
            quick: true,
            results_dir: std::env::temp_dir().join("buddy-bench-capacity"),
            seed: 9,
        }
    }

    #[test]
    fn fig07_final_dominates_naive_at_suite_level() {
        let points = fig07_points(&quick_cfg());
        assert_eq!(points.len(), 16);
        // The paper's Figure 7 story: the final design achieves a better
        // suite-level ratio at a fraction of the buddy-memory traffic.
        for hpc in [true, false] {
            let subset: Vec<_> = points.iter().filter(|p| p.is_hpc == hpc).collect();
            let naive_r = geomean(subset.iter().map(|p| p.naive.0));
            let final_r = geomean(subset.iter().map(|p| p.final_design.0));
            let naive_b: f64 = subset.iter().map(|p| p.naive.1).sum::<f64>() / subset.len() as f64;
            let final_b: f64 =
                subset.iter().map(|p| p.final_design.1).sum::<f64>() / subset.len() as f64;
            assert!(
                final_r >= naive_r - 0.05,
                "hpc={hpc}: final ratio {final_r:.2} must not lose to naive {naive_r:.2}"
            );
            assert!(
                final_b < naive_b,
                "hpc={hpc}: final buddy {final_b:.3} must undercut naive {naive_b:.3}"
            );
        }
        // Suite-level shape: HPC ≈ 1.9, DL ≈ 1.5 (±0.4/0.3).
        let hpc = geomean(points.iter().filter(|p| p.is_hpc).map(|p| p.final_design.0));
        let dl = geomean(
            points
                .iter()
                .filter(|p| !p.is_hpc)
                .map(|p| p.final_design.0),
        );
        assert!(
            (hpc - 1.9).abs() < 0.4,
            "HPC final geomean {hpc:.2} vs paper 1.9"
        );
        assert!(
            (dl - 1.5).abs() < 0.3,
            "DL final geomean {dl:.2} vs paper 1.5"
        );
    }

    #[test]
    fn fig07_zero_page_helps_vgg_and_ep() {
        let points = fig07_points(&quick_cfg());
        // VGG16's pooled zero region gets the 16x target (§3.4).
        let vgg = points.iter().find(|p| p.name == "VGG16").unwrap();
        assert!(
            vgg.final_design.0 > vgg.per_alloc.0 + 0.05,
            "VGG16: zero-page should raise the ratio ({:.2} vs {:.2})",
            vgg.final_design.0,
            vgg.per_alloc.0
        );
        // 352.ep is dominated by zeros; its ratio presses against the 4x
        // carve-out bound ("the overall compression ratio is still under
        // 4x, limited by the buddy-memory carve-out region", §3.4).
        let ep = points.iter().find(|p| p.name == "352.ep").unwrap();
        assert!(
            ep.final_design.0 >= 3.0,
            "352.ep final {:.2}",
            ep.final_design.0
        );
        assert!(
            ep.final_design.0 <= 4.0 + 1e-9,
            "352.ep capped {:.2}",
            ep.final_design.0
        );
    }
}
