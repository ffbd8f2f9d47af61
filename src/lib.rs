//! Buddy Compression — full reproduction of Choukse et al., *"Buddy
//! Compression: Enabling Larger Memory for Deep Learning and HPC Workloads
//! on GPUs"* (ISCA 2020), in Rust.
//!
//! This facade crate re-exports the component crates and provides the glue
//! that the paper's evaluation pipeline needs:
//!
//! 1. [`workloads`] — synthetic versions of the 16 evaluated benchmarks
//!    (memory images with controlled BPC compressibility + access traces),
//! 2. [`bpc`] — Bit-Plane Compression and baseline compressors,
//! 3. [`buddy_core`] — the Buddy Compression design: target ratios,
//!    metadata, the profiling pass and its online re-targeting twin
//!    ([`ProfileConfig::recommend`]), and a functional compressed device
//!    with live target-ratio migration,
//! 4. [`gpu_sim`] — the dependency-driven performance simulator (Table 2),
//! 5. [`unified_memory`] — the UM oversubscription model (Figure 12),
//! 6. [`dl_model`] — the DL training case study (Figure 13),
//! 7. [`buddy_pool`] — a sharded, thread-safe pool of `BuddyDevice`s whose
//!    entry I/O takes no shard lock (multi-tenant scaling),
//! 8. [`buddy_service`] — the multi-tenant service layer over the pool:
//!    per-tenant quotas, admission control (reject or demote down the
//!    target-ratio ladder), ownership-checked generational handles, and
//!    one per-tenant ledger ([`buddy_service::BuddyService::tenants`]),
//! 9. [`buddy_obs`] — the observability layer: lock-free latency
//!    histograms and the metrics registry with Prometheus-text rendering.
//!
//! The glue items here ([`profile_benchmark`], [`merge_snapshots`],
//! [`BenchmarkLayout`], [`benchmark_requests`]) connect a workload to the profiler and the
//! simulator — the full §3.5 flow: profile on snapshots, choose
//! per-allocation targets under the Buddy Threshold, then run with
//! compression enabled.
//!
//! # Quickstart
//!
//! ```
//! use buddy_compression::{profile_benchmark, ProfileConfig};
//! use buddy_compression::buddy_core::choose_targets;
//!
//! let mut bench = buddy_compression::workloads::by_name("356.sp").unwrap();
//! bench.scale = buddy_compression::workloads::Scale::test();
//! let profiles = profile_benchmark(&bench, 4096, 0xB0DD7);
//! let outcome = choose_targets(&profiles, &ProfileConfig::default());
//! assert!(outcome.device_compression_ratio() > 1.5);
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub use bpc;
pub use buddy_core;
pub use buddy_obs;
pub use buddy_pool;
pub use buddy_service;
pub use dl_model;
pub use gpu_sim;
pub use unified_memory;
pub use workloads;

pub use buddy_core::{ProfileConfig, ProfileOutcome, TargetRatio};

use bpc::CodecKind;
use buddy_core::{AllocationProfile, EntryState};
use gpu_sim::{EntryPlacement, MemRequest, MemoryLayout};
use workloads::snapshot::{capture, ten_phases, SnapshotConfig, SnapshotStats};
use workloads::Benchmark;

/// Runs the paper's profiling pass over a benchmark: ten memory snapshots
/// across the run compressed with BPC, merged into one per-allocation
/// size-class histogram. Shorthand for [`profile_benchmark_with`] with
/// [`CodecKind::Bpc`].
///
/// `sample_cap` bounds the entries compressed per allocation per snapshot
/// (uniform sampling; the generators are stationary so this is unbiased).
pub fn profile_benchmark(bench: &Benchmark, sample_cap: u64, seed: u64) -> Vec<AllocationProfile> {
    profile_benchmark_with(bench, CodecKind::Bpc, sample_cap, seed)
}

/// [`profile_benchmark`] under an arbitrary codec — the §2.4 ablation runs
/// the whole profile → target-choice flow per algorithm through this.
pub fn profile_benchmark_with(
    bench: &Benchmark,
    codec: CodecKind,
    sample_cap: u64,
    seed: u64,
) -> Vec<AllocationProfile> {
    let config = SnapshotConfig {
        seed,
        sample_cap,
        codec,
    };
    merge_snapshots(&capture(bench, &ten_phases(), config))
}

/// Merges the rows of one [`capture`] call into one profile per allocation,
/// each histogram summed over the phases. The rows of one call share its
/// allocation list, so they merge by position.
pub fn merge_snapshots(rows: &[SnapshotStats]) -> Vec<AllocationProfile> {
    let Some((first, rest)) = rows.split_first() else {
        return Vec::new();
    };
    let mut merged: Vec<AllocationProfile> = first
        .allocations
        .iter()
        .map(|a| AllocationProfile {
            name: a.name.to_owned(),
            entries: a.entries,
            histogram: a.histogram.clone(),
        })
        .collect();
    for row in rest {
        for (profile, alloc) in merged.iter_mut().zip(&row.allocations) {
            profile.histogram.merge(&alloc.histogram);
        }
    }
    merged
}

/// A [`gpu_sim::MemoryLayout`] oracle over a benchmark's synthetic memory
/// image and a set of profiler target choices.
///
/// Per-entry compressed sizes come from the entry's *nominal* size class
/// (the class its generator targets, ≥90% accurate per the workloads
/// tests) so the simulator can query placements in O(1) per miss without
/// running the compressor.
#[derive(Debug)]
pub struct BenchmarkLayout {
    /// (end_entry_exclusive, alloc_index) ranges in entry order.
    ranges: Vec<(u64, usize)>,
    allocations: Vec<LayoutAllocation>,
    total_entries: u64,
    phase: f64,
}

#[derive(Debug)]
struct LayoutAllocation {
    spec: workloads::AllocationSpec,
    target: TargetRatio,
    alloc_seed: u64,
}

impl BenchmarkLayout {
    /// Builds the layout for `bench` with the profiler's `outcome` at an
    /// execution phase.
    ///
    /// # Panics
    ///
    /// Panics if `outcome` has a different number of choices than the
    /// benchmark has allocations.
    pub fn new(bench: &Benchmark, outcome: &ProfileOutcome, phase: f64, seed: u64) -> Self {
        let layout = bench.allocation_layout();
        assert_eq!(
            layout.len(),
            outcome.choices.len(),
            "profile outcome must cover every allocation"
        );
        let mut ranges = Vec::with_capacity(layout.len());
        let mut allocations = Vec::with_capacity(layout.len());
        let mut cursor = 0u64;
        for (idx, ((spec, entries), choice)) in
            layout.iter().zip(outcome.choices.iter()).enumerate()
        {
            cursor += entries;
            ranges.push((cursor, idx));
            allocations.push(LayoutAllocation {
                spec: (*spec).clone(),
                target: choice.target,
                alloc_seed: workloads::entry_gen::mix(&[seed, idx as u64]),
            });
        }
        Self {
            ranges,
            allocations,
            total_entries: cursor,
            phase,
        }
    }

    /// An uncompressed layout (every entry 4 sectors, no buddy) for the
    /// ideal-baseline runs.
    pub fn uncompressed(bench: &Benchmark) -> gpu_sim::UniformLayout {
        gpu_sim::UniformLayout {
            entries: bench.total_entries(),
            placement: EntryPlacement::device(4),
        }
    }

    fn locate(&self, entry: u64) -> (usize, u64) {
        assert!(
            !self.allocations.is_empty(),
            "cannot locate entry {entry}: this layout was built from a \
             benchmark with zero allocations"
        );
        let idx = self.ranges.partition_point(|&(end, _)| end <= entry);
        let idx = idx.min(self.allocations.len() - 1);
        let start = if idx == 0 { 0 } else { self.ranges[idx - 1].0 };
        (idx, entry.saturating_sub(start))
    }

    /// The nominal size class of an entry (without compressing).
    pub fn size_class(&self, entry: u64) -> bpc::SizeClass {
        self.class_and_target(entry).0
    }

    /// The entry's nominal size class and its allocation's target, from
    /// one [`locate`](Self::locate).
    fn class_and_target(&self, entry: u64) -> (bpc::SizeClass, TargetRatio) {
        let (idx, local) = self.locate(entry);
        let alloc = &self.allocations[idx];
        let class = alloc
            .spec
            .class_at(alloc.alloc_seed, local, self.phase)
            .nominal_size_class();
        (class, alloc.target)
    }
}

impl MemoryLayout for BenchmarkLayout {
    fn total_entries(&self) -> u64 {
        self.total_entries
    }

    /// The sectors the device would store the entry's nominal class in
    /// ([`EntryState::stored`]).
    fn placement(&self, entry: u64) -> EntryPlacement {
        let (class, target) = self.class_and_target(entry);
        let state = EntryState::stored(class, target);
        EntryPlacement {
            device_sectors: state.device_sectors(target),
            buddy_sectors: state.buddy_sectors(target),
        }
    }

    fn compressed_sectors(&self, entry: u64) -> u8 {
        let class = self.size_class(entry);
        if class == bpc::SizeClass::B0 {
            0
        } else {
            class.sectors().max(1)
        }
    }
}

/// Adapts a workload access trace into simulator requests.
pub fn benchmark_requests(bench: &Benchmark, seed: u64) -> impl Iterator<Item = MemRequest> {
    bench.trace(seed).map(|a| MemRequest {
        entry: a.entry,
        sector_mask: a.sector_mask,
        write: a.write,
        to_host: a.to_host,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_bench(name: &str) -> Benchmark {
        let mut b = workloads::by_name(name).expect("benchmark exists");
        b.scale = workloads::Scale::test();
        b
    }

    #[test]
    fn profiling_produces_one_profile_per_allocation() {
        let bench = test_bench("351.palm");
        let profiles = profile_benchmark(&bench, 512, 1);
        assert_eq!(profiles.len(), bench.allocations.len());
        assert!(profiles.iter().all(|p| p.histogram.total() > 0));
    }

    #[test]
    fn seismic_profiles_conservatively_to_2x() {
        // §3.4: "for 355.seismic, for most allocations, the target ratio
        // used will be 2x, and not 7x or 6x" — profiling across all ten
        // snapshots sees the late, less-compressible data.
        let bench = test_bench("355.seismic");
        let profiles = profile_benchmark(&bench, 2048, 2);
        let outcome = buddy_core::choose_targets(&profiles, &ProfileConfig::default());
        let wavefield = outcome
            .choices
            .iter()
            .find(|c| c.name == "wavefield")
            .expect("wavefield allocation");
        assert_eq!(wavefield.target, TargetRatio::R2);
    }

    #[test]
    fn layout_placements_respect_targets() {
        let bench = test_bench("354.cg");
        let profiles = profile_benchmark(&bench, 1024, 3);
        let outcome = buddy_core::choose_targets(&profiles, &ProfileConfig::default());
        let layout = BenchmarkLayout::new(&bench, &outcome, 0.5, 3);
        for entry in (0..layout.total_entries()).step_by(997) {
            let p = layout.placement(entry);
            let target = layout.allocations[layout.locate(entry).0].target;
            match target {
                TargetRatio::ZeroPage16 => {}
                t => assert!(
                    p.device_sectors <= t.device_sectors(),
                    "device sectors exceed budget at {entry}"
                ),
            }
            assert!(p.total() <= 4);
        }
    }

    #[test]
    fn placement_rules_match_buddy_core() {
        // The simulator's placement of an entry is the device's: a real
        // `BuddyDevice` storing an entry of the same class at the same
        // target moves exactly those sectors on a read. Every allocation
        // is forced to each target in turn, so overflow splits occur too.
        use bpc::Codec;
        let bench = test_bench("FF_Lulesh");
        let profiles = profile_benchmark(&bench, 512, 9);
        let mut outcome = buddy_core::choose_targets(&profiles, &ProfileConfig::default());
        let mut dev = buddy_core::BuddyDevice::new(buddy_core::DeviceConfig {
            device_capacity: 1 << 20,
            carve_out_factor: 3,
        });
        let mut scratch = bpc::CompressedBuf::new();
        let mut checked = std::collections::HashSet::new();
        for target in TargetRatio::DESCENDING {
            outcome.choices.iter_mut().for_each(|c| c.target = target);
            let layout = BenchmarkLayout::new(&bench, &outcome, 0.5, 9);
            for entry in (0..layout.total_entries()).step_by(61) {
                let class = layout.size_class(entry);
                let data = workloads::EntryClass::for_target(class).generate(entry);
                // Once per pair, with an entry that really compresses to it.
                if checked.contains(&(class, target))
                    || CodecKind::Bpc.size_class_into(&data, &mut scratch) != class
                {
                    continue;
                }
                checked.insert((class, target));
                let id = dev.alloc("probe", 1, target).unwrap();
                dev.write_entries(id, 0, &[data]).unwrap();
                dev.reset_stats();
                dev.read_entries(id, 0, &mut [[0u8; bpc::ENTRY_BYTES]])
                    .unwrap();
                let (stats, placement) = (dev.stats(), layout.placement(entry));
                assert_eq!(
                    (stats.device_sectors, stats.buddy_sectors),
                    (
                        u64::from(placement.device_sectors),
                        u64::from(placement.buddy_sectors)
                    ),
                    "{class} at {target}"
                );
                dev.free(id).unwrap();
            }
        }
        assert!(checked.len() >= 20, "{checked:?} misses most placements");
    }

    #[test]
    fn end_to_end_sim_runs_for_buddy_and_baseline() {
        let bench = test_bench("356.sp");
        let profiles = profile_benchmark(&bench, 2048, 5);
        let outcome = buddy_core::choose_targets(&profiles, &ProfileConfig::default());
        assert!(outcome.device_compression_ratio() > 1.0);
        let gpu = gpu_sim::GpuConfig::p100();
        let exec = gpu_sim::ExecConfig::from_profile(
            &gpu,
            bench.access.mlp,
            bench.access.compute_per_access as f64,
            20_000,
        );
        let base_layout = BenchmarkLayout::uncompressed(&bench);
        let base = gpu_sim::Engine::new(
            gpu,
            exec,
            gpu_sim::MemoryMode::Uncompressed,
            gpu_sim::Fidelity::Fast,
            &base_layout,
        )
        .run(&mut benchmark_requests(&bench, 5));
        let buddy_layout = BenchmarkLayout::new(&bench, &outcome, 0.5, 5);
        let buddy = gpu_sim::Engine::new(
            gpu,
            exec,
            gpu_sim::MemoryMode::Buddy,
            gpu_sim::Fidelity::Fast,
            &buddy_layout,
        )
        .run(&mut benchmark_requests(&bench, 5));
        assert_eq!(base.accesses, 20_000);
        assert_eq!(buddy.accesses, 20_000);
        // Compression should be within a sane band of the baseline.
        let speedup = buddy.speedup_vs(&base);
        assert!((0.5..2.0).contains(&speedup), "sp speedup {speedup:.2}");
    }

    #[test]
    #[should_panic(expected = "zero allocations")]
    fn empty_layout_locate_panics_with_message() {
        // A benchmark stripped of its allocations produces an empty layout;
        // querying it must fail with a clear message, not a usize underflow.
        let mut bench = test_bench("356.sp");
        bench.allocations.clear();
        let outcome = ProfileOutcome {
            choices: Vec::new(),
        };
        let layout = BenchmarkLayout::new(&bench, &outcome, 0.5, 1);
        let _ = layout.placement(0);
    }

    #[test]
    fn profiling_empty_benchmark_yields_no_profiles() {
        // The ten-phase merge must not fabricate profiles for a benchmark
        // with no allocations (each phase legitimately reports none).
        let mut bench = test_bench("356.sp");
        bench.allocations.clear();
        assert!(profile_benchmark(&bench, 128, 1).is_empty());
    }

    #[test]
    fn hpgmg_keeps_striped_allocation_uncompressed() {
        let bench = test_bench("FF_HPGMG");
        let profiles = profile_benchmark(&bench, 2048, 7);
        let outcome = buddy_core::choose_targets(&profiles, &ProfileConfig::default());
        let structs = outcome
            .choices
            .iter()
            .find(|c| c.name == "level_structs")
            .expect("level_structs allocation");
        assert_eq!(
            structs.target,
            TargetRatio::R1,
            "the striped struct array needs >80% threshold (§3.4)"
        );
    }
}
