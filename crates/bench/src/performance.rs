//! Performance figures: Figures 5b, 10 and 11.

use crate::report::{correlation, f3, pct, print_table, write_csv, RunConfig};
use buddy_compression::buddy_core::{choose_targets, ProfileConfig, ENTRIES_PER_METADATA_LINE};
use buddy_compression::gpu_sim::{
    metadata_slice, Engine, EntryPlacement, ExecConfig, Fidelity, GpuConfig, Lookup, MemRequest,
    MemoryMode, SectoredCache, SimStats, UniformLayout,
};
use buddy_compression::workloads::entry_gen::splitmix64;
use buddy_compression::workloads::{all_benchmarks, geomean};
use buddy_compression::{benchmark_requests, profile_benchmark, BenchmarkLayout};
use std::io;

/// Total metadata cache capacities swept by Figure 5b, in KB.
const FIG05B_SIZES_KB: [usize; 7] = [8, 16, 32, 64, 128, 256, 512];

/// Figure 5b's hit rates: per benchmark, the metadata cache hit rate at
/// each of [`FIG05B_SIZES_KB`], over one trace replayed through the
/// Table 2 machine's per-slice metadata caches (32 B lines, 4 ways).
fn fig05b_hit_rates(cfg: &RunConfig) -> Vec<(&'static str, Vec<f64>)> {
    let accesses = cfg.scaled(400_000) as usize;
    let slices = GpuConfig::p100().l2_slices;
    all_benchmarks()
        .into_iter()
        .map(|bench| {
            let lines: Vec<u64> = bench
                .trace(cfg.seed)
                .take(accesses)
                .map(|access| access.entry / ENTRIES_PER_METADATA_LINE)
                .collect();
            let rates = FIG05B_SIZES_KB
                .iter()
                .map(|&size_kb| {
                    let lines_per_slice = (size_kb << 10) / 32 / slices as usize;
                    let ways = 4.min(lines_per_slice.max(1));
                    let mut caches: Vec<SectoredCache> = (0..slices)
                        .map(|_| SectoredCache::new(lines_per_slice.max(ways), ways))
                        .collect();
                    let mut hits = 0u64;
                    for &line in &lines {
                        let cache = &mut caches[metadata_slice(line, slices)];
                        match cache.lookup(line, 0b1111) {
                            (Lookup::Hit, _) => hits += 1,
                            (_, mut probe) => {
                                cache.fill(&mut probe, 0b1111, false);
                            }
                        }
                    }
                    hits as f64 / lines.len() as f64
                })
                .collect();
            (bench.name, rates)
        })
        .collect()
}

/// Figure 5b: metadata cache hit rate as a function of total metadata
/// cache capacity. Paper: most benchmarks hit well; 351.palm and
/// 355.seismic are the stragglers.
pub fn fig05b(cfg: &RunConfig) -> io::Result<()> {
    let rows: Vec<Vec<String>> = fig05b_hit_rates(cfg)
        .into_iter()
        .map(|(name, rates)| {
            let mut row = vec![name.to_string()];
            row.extend(rates.into_iter().map(pct));
            row
        })
        .collect();
    let header = [
        "benchmark",
        "8KB",
        "16KB",
        "32KB",
        "64KB",
        "128KB",
        "256KB",
        "512KB",
    ];
    print_table(
        "Figure 5b: metadata cache hit rate vs total size",
        &header,
        &rows,
    );
    println!("  paper: high hit rates except 351.palm and 355.seismic; 64 KB chosen (§3.2)");
    write_csv(&cfg.results_dir, "fig05b", &header, &rows)?;
    Ok(())
}

/// Figure 10: fast-model-vs-reference correlation.
///
/// The paper correlates its dependency-driven simulator against V100
/// silicon (r = 0.989) and shows a two-orders-of-magnitude speed advantage
/// over GPGPU-Sim (the speed of both fidelities here is the repo
/// benchmark's `gpu_sim.fast_ns` / `gpu_sim.detailed_ns`, not a figure
/// output). Silicon is unavailable here, so we correlate the fast
/// block-granular model against the detailed sector/bank-granular mode
/// across a sweep of microbenchmark configurations (see DESIGN.md §3).
pub fn fig10(cfg: &RunConfig) -> io::Result<()> {
    let accesses = cfg.scaled(60_000);
    let mut fast_cycles = Vec::new();
    let mut detailed_cycles = Vec::new();
    let mut rows = Vec::new();
    let gpu = GpuConfig::p100();

    // Microbenchmark grid: footprint × sector pattern × lanes × compression.
    let mut case = 0u64;
    for footprint in [1u64 << 14, 1 << 17, 1 << 20] {
        for mask in [0b1111u8, 0b0001] {
            for lanes in [448u32, 1792, 3584] {
                for device_sectors in [1u8, 2, 4] {
                    case += 1;
                    let layout = UniformLayout {
                        entries: footprint,
                        placement: EntryPlacement::device(device_sectors),
                    };
                    let exec = ExecConfig {
                        lanes,
                        compute_cycles: 24.0,
                        accesses,
                    };
                    let seed = cfg.seed ^ case;
                    let mut trace_a = micro_trace(footprint, mask, seed);
                    let fast = Engine::new(gpu, exec, MemoryMode::Buddy, Fidelity::Fast, &layout)
                        .run(&mut trace_a);
                    let mut trace_b = micro_trace(footprint, mask, seed);
                    let detailed =
                        Engine::new(gpu, exec, MemoryMode::Buddy, Fidelity::Detailed, &layout)
                            .run(&mut trace_b);
                    fast_cycles.push(fast.cycles.ln());
                    detailed_cycles.push(detailed.cycles.ln());
                    rows.push(vec![
                        case.to_string(),
                        footprint.to_string(),
                        format!("{mask:04b}"),
                        lanes.to_string(),
                        device_sectors.to_string(),
                        format!("{:.0}", fast.cycles),
                        format!("{:.0}", detailed.cycles),
                    ]);
                }
            }
        }
    }
    let r = correlation(&fast_cycles, &detailed_cycles);
    let header = [
        "case",
        "footprint",
        "mask",
        "lanes",
        "sectors",
        "fast_cycles",
        "detailed_cycles",
    ];
    print_table("Figure 10: fast vs detailed model", &header, &rows);
    println!(
        "  correlation (log cycles): r = {r:.3} over {} cases (paper: 0.989 vs silicon)",
        rows.len()
    );
    write_csv(&cfg.results_dir, "fig10", &header, &rows)?;
    Ok(())
}

fn micro_trace(entries: u64, mask: u8, seed: u64) -> impl Iterator<Item = MemRequest> {
    (0..).map(move |i| {
        let h = splitmix64(seed ^ i);
        let entry = if mask == 0b1111 {
            // streaming
            (seed.wrapping_add(i * 7)) % entries
        } else {
            h % entries
        };
        MemRequest {
            entry,
            sector_mask: mask,
            write: h.is_multiple_of(5),
            to_host: false,
        }
    })
}

/// One benchmark's Figure 11 row.
#[derive(Debug, Clone)]
pub struct Fig11Point {
    /// Benchmark name.
    pub name: String,
    /// HPC or DL for the geomeans.
    pub is_hpc: bool,
    /// Bandwidth-only compression, normalized performance.
    pub bandwidth_only: f64,
    /// Buddy at 50/100/150/200 GB/s, normalized performance.
    pub buddy: [f64; 4],
}

/// Computes the Figure 11 sweep.
pub fn fig11_points(cfg: &RunConfig) -> Vec<Fig11Point> {
    // Trace length calibrated so the baseline sits near (not past) the DRAM
    // bandwidth wall, matching the paper's ideal-GPU operating point; much
    // longer synthetic traces drive every benchmark fully DRAM-bound and
    // inflate compression gains (see DESIGN.md §5 on calibration).
    let accesses = if cfg.quick { 25_000 } else { 60_000 };
    let link_sweep = [50.0, 100.0, 150.0, 200.0];
    let mut points = Vec::new();
    for bench in all_benchmarks() {
        let profiles = profile_benchmark(&bench, if cfg.quick { 1024 } else { 4096 }, cfg.seed);
        let outcome = choose_targets(&profiles, &ProfileConfig::default());
        let run = |mode: MemoryMode, link: f64| -> SimStats {
            let gpu = GpuConfig::p100().with_link_bandwidth(link);
            let exec = ExecConfig::from_profile(
                &gpu,
                bench.access.mlp,
                bench.access.compute_per_access as f64,
                accesses,
            );
            match mode {
                MemoryMode::Uncompressed => {
                    let layout = BenchmarkLayout::uncompressed(&bench);
                    Engine::new(gpu, exec, mode, Fidelity::Fast, &layout)
                        .run(&mut benchmark_requests(&bench, cfg.seed))
                }
                _ => {
                    // Steady-state window: the paper traces "the dominant
                    // kernel ... at a point in execution that exhibits the
                    // average compression ratio"; transient startup zeros
                    // (355.seismic) are mostly gone by then.
                    let layout = BenchmarkLayout::new(&bench, &outcome, 0.9, cfg.seed);
                    Engine::new(gpu, exec, mode, Fidelity::Fast, &layout)
                        .run(&mut benchmark_requests(&bench, cfg.seed))
                }
            }
        };
        // Baseline: ideal large-memory GPU with a 150 GB/s interconnect.
        let baseline = run(MemoryMode::Uncompressed, 150.0);
        let bandwidth_only = run(MemoryMode::BandwidthCompressed, 150.0).speedup_vs(&baseline);
        let buddy = link_sweep.map(|link| run(MemoryMode::Buddy, link).speedup_vs(&baseline));
        points.push(Fig11Point {
            name: bench.name.to_string(),
            is_hpc: bench.suite.is_hpc(),
            bandwidth_only,
            buddy,
        });
    }
    points
}

/// Figure 11: performance relative to the ideal large-capacity GPU.
/// Paper: bandwidth-only +5.5% average; Buddy within 1% (HPC) / 2.2% (DL)
/// at 150 GB/s; >20% average slowdown at 50 GB/s.
pub fn fig11(cfg: &RunConfig) -> io::Result<()> {
    let points = fig11_points(cfg);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.name.clone(),
                f3(p.bandwidth_only),
                f3(p.buddy[0]),
                f3(p.buddy[1]),
                f3(p.buddy[2]),
                f3(p.buddy[3]),
            ]
        })
        .collect();
    let header = [
        "benchmark",
        "bw_only@150",
        "buddy@50",
        "buddy@100",
        "buddy@150",
        "buddy@200",
    ];
    print_table(
        "Figure 11: performance vs ideal GPU (normalized)",
        &header,
        &rows,
    );
    let gm = |f: &dyn Fn(&Fig11Point) -> f64, hpc: Option<bool>| {
        geomean(
            points
                .iter()
                .filter(|p| hpc.is_none_or(|h| p.is_hpc == h))
                .map(f),
        )
    };
    println!(
        "  bandwidth-only GMEAN: {:.3} (paper ~1.055 overall)",
        gm(&|p| p.bandwidth_only, None)
    );
    println!(
        "  buddy@150 GMEAN: HPC {:.3} (paper ≥0.99) DL {:.3} (paper ≥0.978)",
        gm(&|p| p.buddy[2], Some(true)),
        gm(&|p| p.buddy[2], Some(false))
    );
    println!(
        "  buddy@50 GMEAN: {:.3} (paper <0.8); buddy@200 GMEAN: {:.3} (paper ~1.02)",
        gm(&|p| p.buddy[0], None),
        gm(&|p| p.buddy[3], None)
    );
    write_csv(&cfg.results_dir, "fig11", &header, &rows)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use buddy_compression::workloads::Scale;

    /// The paper's Figure 5b shape at `--quick` scale, with bounds taken
    /// from the paper rather than from a run: the hit rate never falls as
    /// the cache grows (0.5 pt slack), at least 12 of 16 benchmarks gain
    /// ≥ 1 pt from 8 KB to 128 KB, and 351.palm and 355.seismic are the two
    /// lowest at the chosen 64 KB.
    #[test]
    fn fig05b_hit_rate_rises_with_size_and_palm_seismic_trail() {
        let cfg = RunConfig {
            quick: true,
            ..Default::default()
        };
        let rates = fig05b_hit_rates(&cfg);
        assert_eq!(rates.len(), 16);
        let at = |kb: usize| FIG05B_SIZES_KB.iter().position(|&s| s == kb).unwrap();
        let mut rising = 0;
        for (name, r) in &rates {
            for w in r.windows(2) {
                assert!(w[1] >= w[0] - 0.005, "{name}: hit rate falls: {r:?}");
            }
            if r[at(128)] - r[at(8)] >= 0.01 {
                rising += 1;
            }
        }
        assert!(rising >= 12, "only {rising} of 16 rise 8 KB -> 128 KB");
        let mut at_64: Vec<(f64, &str)> = rates.iter().map(|(n, r)| (r[at(64)], *n)).collect();
        at_64.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut lowest = [at_64[0].1, at_64[1].1];
        lowest.sort_unstable();
        assert_eq!(lowest, ["351.palm", "355.seismic"], "{at_64:?}");
    }

    #[test]
    fn microbenchmark_correlation_is_high() {
        // A reduced Figure 10 grid must correlate strongly.
        let gpu = GpuConfig::p100();
        let mut fast = Vec::new();
        let mut detailed = Vec::new();
        for (footprint, lanes) in [(1u64 << 14, 448u32), (1 << 18, 1792), (1 << 18, 3584)] {
            let layout = UniformLayout {
                entries: footprint,
                placement: EntryPlacement::device(2),
            };
            let exec = ExecConfig {
                lanes,
                compute_cycles: 24.0,
                accesses: 20_000,
            };
            let f = Engine::new(gpu, exec, MemoryMode::Buddy, Fidelity::Fast, &layout)
                .run(&mut micro_trace(footprint, 0b1111, 1));
            let d = Engine::new(gpu, exec, MemoryMode::Buddy, Fidelity::Detailed, &layout)
                .run(&mut micro_trace(footprint, 0b1111, 1));
            fast.push(f.cycles.ln());
            detailed.push(d.cycles.ln());
        }
        assert!(
            correlation(&fast, &detailed) > 0.95,
            "fast/detailed correlation too low: {}",
            correlation(&fast, &detailed)
        );
    }

    #[test]
    fn buddy_link_bandwidth_is_monotone_for_dl() {
        // AlexNet has real buddy traffic: its performance must not degrade
        // as the link gets faster.
        let mut bench = buddy_compression::workloads::by_name("AlexNet").unwrap();
        bench.scale = Scale::test();
        let cfg = RunConfig {
            quick: true,
            results_dir: std::env::temp_dir().join("buddy-bench-perf"),
            seed: 3,
        };
        let profiles = profile_benchmark(&bench, 1024, cfg.seed);
        let outcome = choose_targets(&profiles, &ProfileConfig::default());
        let mut perf = Vec::new();
        for link in [50.0, 150.0] {
            let gpu = GpuConfig::p100().with_link_bandwidth(link);
            let exec = ExecConfig::from_profile(&gpu, bench.access.mlp, 40.0, 30_000);
            let layout = BenchmarkLayout::new(&bench, &outcome, 0.5, cfg.seed);
            let stats = Engine::new(gpu, exec, MemoryMode::Buddy, Fidelity::Fast, &layout)
                .run(&mut benchmark_requests(&bench, cfg.seed));
            perf.push(stats.cycles);
        }
        assert!(
            perf[1] <= perf[0] * 1.02,
            "150 GB/s ({:.0}) should not be slower than 50 GB/s ({:.0})",
            perf[1],
            perf[0]
        );
    }
}
