//! Data sets: a paper benchmark turned into allocations, targets and
//! write palettes by the paper's §3.5 flow.
//!
//! `profile_benchmark` (ten BPC snapshots) → `choose_targets` under the
//! paper's final configuration → one allocation per spec at its chosen
//! target. Entry contents come from `AllocationSpec::entry_at`: each
//! allocation gets a *palette* of [`PALETTE_SIZE`] entries sampled across it
//! (so the palette has the allocation's size-class mixture), and every
//! stored entry is one palette entry. The shadow map then needs only a
//! palette index per entry to know what every read must return.

use crate::rungs::{StackConfig, TenantSpec};
use crate::surface::{
    choose_targets, mix, profile_benchmark, AccessProfile, AdmissionPolicy, AllocationSpec,
    Benchmark, Entry, MixtureProfile, ProfileConfig, ProfileOutcome, Scale, SizeClass,
    SizeHistogram, Suite, TargetRatio,
};

/// Entries per allocation palette. A power of two so index arithmetic is a
/// mask; 1024 × 128 B = 128 KiB per allocation, small enough to stay cached
/// so write payloads cost the client little.
pub const PALETTE_SIZE: usize = 1024;

/// Entries the profiler compresses per allocation per snapshot.
pub const PROFILE_SAMPLE_CAP: u64 = 1024;

/// One allocation of a data set.
#[derive(Debug, Clone)]
pub struct AllocPlan {
    pub name: String,
    pub tenant: usize,
    pub entries: u64,
    pub target: TargetRatio,
    /// Index into [`DataSet::palettes`].
    pub palette: usize,
}

/// A benchmark's image, ready to be loaded into any rung.
#[derive(Debug, Clone)]
pub struct DataSet {
    pub bench: Benchmark,
    pub outcome: ProfileOutcome,
    /// BPC capacity ratio measured by the profile (Figure 3's quantity).
    pub measured_ratio: f64,
    pub palettes: Vec<Vec<Entry>>,
    pub allocs: Vec<AllocPlan>,
    pub stack: StackConfig,
}

/// Rescales `bench` so its simulated footprint is `image_bytes`.
pub fn scaled(mut bench: Benchmark, image_bytes: u64) -> Benchmark {
    bench.scale = Scale {
        divisor: bench.footprint_bytes as f64 / image_bytes as f64,
        floor_bytes: 0,
    };
    bench
}

/// The `control_plane` data: mostly all-zero entries, a few constant
/// blocks, and a sliver of incompressible ones so that some accesses need
/// buddy sectors. Expressed as a benchmark so the same profile → targets →
/// palette flow (and the simulator probes) apply to it.
pub fn zero_heavy_benchmark() -> Benchmark {
    Benchmark {
        name: "zero_heavy",
        suite: Suite::SpecAccel,
        footprint_bytes: 1 << 30,
        scale: Scale::default(),
        allocations: vec![AllocationSpec::speckled(
            "churn",
            1.0,
            MixtureProfile::from_class_weights(&[
                (SizeClass::B0, 0.90),
                (SizeClass::B8, 0.09),
                (SizeClass::B128, 0.01),
            ]),
        )],
        access: AccessProfile::streaming_dl(),
        paper_fig3_ratio: 10.0,
    }
}

/// The palette of one allocation: `PALETTE_SIZE` entries at evenly spaced
/// indices, so blocked and striped patterns contribute their classes in
/// proportion.
pub fn palette_of(spec: &AllocationSpec, alloc_seed: u64, entries: u64) -> Vec<Entry> {
    (0..PALETTE_SIZE as u64)
        .map(|k| {
            let index = (k as u128 * entries as u128 / PALETTE_SIZE as u128) as u64;
            spec.entry_at(alloc_seed, index, 0.5)
        })
        .collect()
}

impl DataSet {
    /// Profiles `bench` (already scaled to the image size), chooses
    /// targets, and plans one copy of its allocations per tenant, each
    /// tenant's copy `1/tenants` of the image.
    pub fn build(bench: Benchmark, tenants: &[(&'static str, AdmissionPolicy)], seed: u64) -> Self {
        let profiles = profile_benchmark(&bench, PROFILE_SAMPLE_CAP, seed);
        let outcome = choose_targets(&profiles, &ProfileConfig::paper_final());
        let mut merged = SizeHistogram::new();
        for p in &profiles {
            merged.merge(&p.histogram);
        }

        let layout = bench.allocation_layout();
        let mut palettes = Vec::with_capacity(layout.len());
        let mut allocs = Vec::new();
        let mut need_per_tenant = 0u64;
        let mut largest = 0u64;
        for (idx, ((spec, entries), choice)) in layout.iter().zip(&outcome.choices).enumerate() {
            let alloc_seed = mix(&[seed, idx as u64]);
            palettes.push(palette_of(spec, alloc_seed, *entries));
            let share = (entries / tenants.len() as u64).max(64);
            let bytes = share * choice.target.device_bytes_per_entry() as u64;
            need_per_tenant += bytes;
            largest = largest.max(bytes);
            for (tenant, (tenant_name, _)) in tenants.iter().enumerate() {
                allocs.push(AllocPlan {
                    name: format!("{tenant_name}.{}", spec.name),
                    tenant,
                    entries: share,
                    target: choice.target,
                    palette: idx,
                });
            }
        }

        // Two shards with 50 % headroom over the image, and room for the
        // largest allocation on either; quotas at twice each tenant's need
        // so admission never interferes with loading the image.
        let shards = 2usize;
        let total = need_per_tenant * tenants.len() as u64;
        let mib = 1u64 << 20;
        let shard_capacity = (total * 3 / 2 / shards as u64)
            .max(largest * 5 / 4)
            .div_ceil(mib)
            * mib;
        let stack = StackConfig {
            shards,
            shard_capacity,
            tenants: tenants
                .iter()
                .map(|&(name, policy)| TenantSpec {
                    name,
                    quota_bytes: need_per_tenant * 2,
                    policy,
                })
                .collect(),
        };
        Self {
            measured_ratio: merged.compression_ratio(),
            bench,
            outcome,
            palettes,
            allocs,
            stack,
        }
    }

    /// `|measured − paper| / paper` for this benchmark's BPC capacity
    /// ratio. The reference is a visual digitisation of the paper's
    /// Figure 3, not a table.
    pub fn paper_ratio_err(&self) -> f64 {
        (self.measured_ratio - self.bench.paper_fig3_ratio).abs() / self.bench.paper_fig3_ratio
    }
}
