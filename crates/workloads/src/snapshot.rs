//! Memory snapshots: per-allocation compression statistics and Figure 6
//! spatial heat maps.
//!
//! The paper takes ten memory dumps over each benchmark's run and compresses
//! every 128 B entry with BPC (§3.1). We do the same over synthetic
//! allocations, with optional uniform sampling so multi-GB (scaled) images
//! can be characterized in milliseconds; generators are stationary within an
//! allocation, so a uniform sample is an unbiased estimate of the full dump.
//!
//! Capture is codec-parameterized ([`SnapshotConfig::codec`], BPC by
//! default) and runs the zero-allocation [`Codec::compress_into`] path into
//! a stack [`CompressedBuf`], so characterizing a scaled image costs no
//! per-entry heap traffic. [`capture`] takes the whole phase list and
//! compresses each distinct entry once: an entry's phase-independent bytes
//! are compressed once for every phase where it does not drift, and only
//! the entries that drift are compressed per phase.

use crate::suite::Benchmark;
use bpc::{Codec, CodecKind, CompressedBuf, SizeHistogram, ENTRY_BYTES};

/// Number of 128 B entries per 8 KB page — one heat-map row in Figure 6.
pub const ENTRIES_PER_PAGE: u64 = 64;

/// Per-allocation compression statistics from one snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocationStats {
    /// Allocation name from the spec.
    pub name: &'static str,
    /// Total entries in the (scaled) allocation.
    pub entries: u64,
    /// Entries actually compressed (≤ `entries` when sampling).
    pub sampled: u64,
    /// Size-class histogram of the sampled entries.
    pub histogram: SizeHistogram,
}

impl AllocationStats {
    /// Optimistic capacity compression ratio of this allocation (Figure 3
    /// accounting).
    pub fn compression_ratio(&self) -> f64 {
        self.histogram.compression_ratio()
    }

    /// Average compressed bytes per entry.
    pub fn avg_bytes(&self) -> f64 {
        ENTRY_BYTES as f64 / self.compression_ratio()
    }
}

/// Compression statistics for one full-memory snapshot of a benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotStats {
    /// Per-allocation statistics, in allocation order.
    pub allocations: Vec<AllocationStats>,
}

impl SnapshotStats {
    /// Footprint-weighted overall compression ratio of the snapshot.
    pub fn compression_ratio(&self) -> f64 {
        let total_entries: u64 = self.allocations.iter().map(|a| a.entries).sum();
        if total_entries == 0 {
            return 1.0;
        }
        let compressed: f64 = self
            .allocations
            .iter()
            .map(|a| a.entries as f64 * a.avg_bytes())
            .sum();
        total_entries as f64 * ENTRY_BYTES as f64 / compressed
    }
}

/// Configuration for snapshot capture (the phases are [`capture`]'s own
/// argument).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnapshotConfig {
    /// Seed for all data generation.
    pub seed: u64,
    /// Maximum entries to compress per allocation (uniform sampling above
    /// this). `u64::MAX` disables sampling.
    pub sample_cap: u64,
    /// Compression algorithm to characterize with (BPC by default, matching
    /// the paper; the §2.4 ablation sweeps the others).
    pub codec: CodecKind,
}

impl Default for SnapshotConfig {
    fn default() -> Self {
        Self {
            seed: 0xB0DD7,
            sample_cap: 8192,
            codec: CodecKind::Bpc,
        }
    }
}

/// Captures per-allocation compression statistics of `benchmark` at each
/// of `phases` (each in `[0, 1]`; the paper takes ten, [`ten_phases`]),
/// one [`SnapshotStats`] per phase in order.
///
/// Each distinct entry is compressed once. Every sampled entry is visited
/// once: at a phase where [`AllocationSpec::varies_with_phase`] is true
/// it is compressed for that phase, and its phase-independent bytes are
/// compressed at most once and tallied into every other phase's row. A
/// `Stable` allocation is the case where no entry varies. The rows equal
/// one single-phase capture per phase.
///
/// [`AllocationSpec::varies_with_phase`]: crate::spec::AllocationSpec::varies_with_phase
pub fn capture(
    benchmark: &Benchmark,
    phases: &[f64],
    config: SnapshotConfig,
) -> Vec<SnapshotStats> {
    let mut scratch = CompressedBuf::new();
    let layout = benchmark.allocation_layout();
    let mut rows: Vec<SnapshotStats> = phases
        .iter()
        .map(|_| SnapshotStats {
            allocations: Vec::with_capacity(layout.len()),
        })
        .collect();
    let mut histograms = vec![SizeHistogram::new(); phases.len()];
    for (alloc_idx, (spec, entries)) in layout.into_iter().enumerate() {
        let sampled = entries.min(config.sample_cap);
        let alloc_seed = crate::entry_gen::mix(&[config.seed, alloc_idx as u64]);
        histograms.fill(SizeHistogram::new());
        for index in sample_indices(entries, sampled) {
            let mut compress = |phase| {
                config
                    .codec
                    .size_class_into(&spec.entry_at(alloc_seed, index, phase), &mut scratch)
            };
            let mut invariant = None;
            for (histogram, &phase) in histograms.iter_mut().zip(phases) {
                histogram.record(if spec.varies_with_phase(alloc_seed, index, phase) {
                    compress(phase)
                } else {
                    *invariant.get_or_insert_with(|| compress(phase))
                });
            }
        }
        for (row, histogram) in rows.iter_mut().zip(&histograms) {
            row.allocations.push(AllocationStats {
                name: spec.name,
                entries,
                sampled,
                histogram: histogram.clone(),
            });
        }
    }
    rows
}

/// The `sampled` entry indices of an allocation of `entries`: every entry,
/// or a uniform stride across the allocation.
fn sample_indices(entries: u64, sampled: u64) -> impl Iterator<Item = u64> {
    (0..sampled).map(move |k| {
        if sampled == entries {
            k
        } else {
            (k as u128 * entries as u128 / sampled as u128) as u64
        }
    })
}

/// The ten evenly spaced snapshot phases the paper uses.
pub fn ten_phases() -> [f64; 10] {
    std::array::from_fn(|i| (i as f64 + 0.5) / 10.0)
}

/// A Figure 6-style spatial compressibility heat map.
///
/// Each row is one 8 KB page (64 entries); each cell is the sector count
/// (0–4) of the entry's BPC size class — cold (0) means highly compressible,
/// hot (4) means incompressible, matching the paper's blue-to-red scale.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Heatmap {
    /// Benchmark name.
    pub name: &'static str,
    /// Number of page rows.
    pub rows: usize,
    /// Cells, row-major, `rows × 64` sector counts.
    pub cells: Vec<u8>,
}

impl Heatmap {
    /// Renders the map as a PGM (portable graymap) image, 0 = compressible.
    pub fn to_pgm(&self) -> String {
        let mut out = format!("P2\n{} {}\n4\n", ENTRIES_PER_PAGE, self.rows);
        for row in self.cells.chunks(ENTRIES_PER_PAGE as usize) {
            let line: Vec<String> = row.iter().map(|c| c.to_string()).collect();
            out.push_str(&line.join(" "));
            out.push('\n');
        }
        out
    }

    /// Fraction of cells at each sector count 0..=4 (distribution summary).
    pub fn sector_distribution(&self) -> [f64; 5] {
        let mut counts = [0usize; 5];
        for &c in &self.cells {
            counts[c.min(4) as usize] += 1;
        }
        let total = self.cells.len().max(1) as f64;
        counts.map(|c| c as f64 / total)
    }
}

/// Builds the Figure 6-style heat map for a benchmark under BPC, sampling
/// up to `max_pages` pages spread evenly across the whole address space.
pub fn heatmap(benchmark: &Benchmark, seed: u64, phase: f64, max_pages: usize) -> Heatmap {
    let mut scratch = CompressedBuf::new();
    let layout = benchmark.allocation_layout();
    let total_entries: u64 = layout.iter().map(|(_, n)| n).sum();
    let total_pages = (total_entries / ENTRIES_PER_PAGE).max(1);
    let pages = total_pages.min(max_pages as u64);

    let mut cells = Vec::with_capacity((pages * ENTRIES_PER_PAGE) as usize);
    for p in 0..pages {
        let page = p * total_pages / pages;
        let base = page * ENTRIES_PER_PAGE;
        for e in 0..ENTRIES_PER_PAGE {
            let global = base + e;
            // Locate the allocation containing this global entry index.
            let mut offset = global;
            let mut cell = 0u8;
            for (alloc_idx, (spec, n)) in layout.iter().enumerate() {
                if offset < *n {
                    let alloc_seed = crate::entry_gen::mix(&[seed, alloc_idx as u64]);
                    let entry = spec.entry_at(alloc_seed, offset, phase);
                    cell = CodecKind::Bpc
                        .size_class_into(&entry, &mut scratch)
                        .sectors();
                    break;
                }
                offset -= n;
            }
            cells.push(cell);
        }
    }
    Heatmap {
        name: benchmark.name,
        rows: pages as usize,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::Scale;

    fn small_bench() -> Benchmark {
        let mut b = crate::suite::all_benchmarks()
            .into_iter()
            .find(|b| b.name == "370.bt")
            .expect("370.bt exists");
        b.scale = Scale::unit();
        b
    }

    #[test]
    fn capture_is_deterministic() {
        let b = small_bench();
        let cfg = SnapshotConfig {
            seed: 1,
            sample_cap: 512,
            codec: CodecKind::Bpc,
        };
        let a = capture(&b, &[0.3], cfg);
        let c = capture(&b, &[0.3], cfg);
        assert_eq!(a, c);
    }

    #[test]
    fn ratio_matches_nominal_within_tolerance() {
        let b = small_bench();
        let stats = capture(
            &b,
            &[0.5],
            SnapshotConfig {
                seed: 2,
                sample_cap: 4096,
                codec: CodecKind::Bpc,
            },
        );
        let measured = stats[0].compression_ratio();
        let nominal = b.nominal_ratio(0.5);
        let rel = (measured - nominal).abs() / nominal;
        assert!(
            rel < 0.25,
            "370.bt measured {measured:.2} vs nominal {nominal:.2} (rel {rel:.2})"
        );
    }

    #[test]
    fn sampling_approximates_full_capture() {
        let b = small_bench();
        let full = capture(
            &b,
            &[0.5],
            SnapshotConfig {
                seed: 3,
                sample_cap: u64::MAX,
                codec: CodecKind::Bpc,
            },
        );
        let sampled = capture(
            &b,
            &[0.5],
            SnapshotConfig {
                seed: 3,
                sample_cap: 1024,
                codec: CodecKind::Bpc,
            },
        );
        let (full, sampled) = (full[0].compression_ratio(), sampled[0].compression_ratio());
        let rel = (full - sampled).abs() / full;
        assert!(rel < 0.15, "sampled ratio diverges: {rel:.3}");
    }

    #[test]
    fn capture_is_codec_parameterized() {
        let b = small_bench();
        let mut ratios = Vec::new();
        for codec in CodecKind::ALL {
            let stats = capture(
                &b,
                &[0.5],
                SnapshotConfig {
                    seed: 2,
                    sample_cap: 512,
                    codec,
                },
            );
            let ratio = stats[0].compression_ratio();
            assert!(ratio >= 1.0 - 1e-9, "{codec}: ratio {ratio}");
            ratios.push(ratio);
        }
        // BPC (first in ALL) must beat the zero-detector lower bound (last):
        // the codec parameter really reaches the compressor.
        assert!(
            ratios[0] > ratios[3],
            "bpc {} should beat zero-rle {}",
            ratios[0],
            ratios[3]
        );
    }

    /// The brute-force reference for [`capture`]: every sampled entry of
    /// every allocation is generated and compressed at every phase, with
    /// nothing reused between phases.
    fn brute_force_capture(
        benchmark: &Benchmark,
        phases: &[f64],
        config: SnapshotConfig,
    ) -> Vec<SnapshotStats> {
        let mut scratch = CompressedBuf::new();
        let layout = benchmark.allocation_layout();
        phases
            .iter()
            .map(|&phase| SnapshotStats {
                allocations: layout
                    .iter()
                    .enumerate()
                    .map(|(alloc_idx, &(spec, entries))| {
                        let sampled = entries.min(config.sample_cap);
                        let seed = crate::entry_gen::mix(&[config.seed, alloc_idx as u64]);
                        let mut histogram = SizeHistogram::new();
                        for index in sample_indices(entries, sampled) {
                            let entry = spec.entry_at(seed, index, phase);
                            histogram.record(config.codec.size_class_into(&entry, &mut scratch));
                        }
                        AllocationStats {
                            name: spec.name,
                            entries,
                            sampled,
                            histogram,
                        }
                    })
                    .collect(),
            })
            .collect()
    }

    /// A ten-phase capture equals the brute-force reference for every
    /// suite benchmark at each of `seeds`.
    fn assert_capture_matches_brute_force(sample_cap: u64, seeds: &[u64]) {
        let phases = ten_phases();
        for bench in crate::suite::all_benchmarks() {
            for &seed in seeds {
                let cfg = SnapshotConfig {
                    seed,
                    sample_cap,
                    codec: CodecKind::Bpc,
                };
                assert_eq!(
                    capture(&bench, &phases, cfg),
                    brute_force_capture(&bench, &phases, cfg),
                    "{} at seed {seed:#x}",
                    bench.name
                );
            }
        }
    }

    #[test]
    fn capture_equals_brute_force_reference() {
        assert_capture_matches_brute_force(16, &[1, 2, 0xB0DD7]);
    }

    /// The same oracle at the profiling pass's scale (CI runs it in release
    /// with `--ignored`).
    #[test]
    #[ignore = "full profiling scale; run in release with --ignored"]
    fn capture_equals_brute_force_reference_at_full_scale() {
        assert_capture_matches_brute_force(1024, &[0xB0DD7]);
    }

    #[test]
    fn capture_returns_one_row_per_phase() {
        let b = small_bench();
        let cfg = SnapshotConfig {
            seed: 5,
            sample_cap: 64,
            codec: CodecKind::Bpc,
        };
        assert!(capture(&b, &[], cfg).is_empty());
        let rows = capture(&b, &[0.1, 0.1, 0.9], cfg);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], rows[1]);
        for row in &rows {
            assert_eq!(row.allocations.len(), b.allocations.len());
        }
    }

    #[test]
    fn ten_phases_are_in_unit_interval_and_sorted() {
        let phases = ten_phases();
        assert_eq!(phases.len(), 10);
        for w in phases.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert!(phases[0] > 0.0 && phases[9] < 1.0);
    }

    #[test]
    fn heatmap_dimensions_and_range() {
        let b = small_bench();
        let map = heatmap(&b, 4, 0.5, 32);
        assert!(map.rows <= 32);
        assert_eq!(map.cells.len(), map.rows * ENTRIES_PER_PAGE as usize);
        assert!(map.cells.iter().all(|&c| c <= 4));
        let dist = map.sector_distribution();
        assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn heatmap_export_formats() {
        let b = small_bench();
        let map = heatmap(&b, 4, 0.5, 4);
        let pgm = map.to_pgm();
        assert!(pgm.starts_with("P2\n64"));
        assert_eq!(pgm.lines().count(), 3 + map.rows);
    }

    #[test]
    fn empty_snapshot_ratio_is_one() {
        let stats = SnapshotStats {
            allocations: vec![],
        };
        assert_eq!(stats.compression_ratio(), 1.0);
    }
}
