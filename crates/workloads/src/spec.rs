//! Allocation specifications: how a benchmark's `cudaMalloc` regions are
//! laid out, what data they hold, and how that data evolves over time.
//!
//! The paper observes (Figure 6) that compressibility is spatially
//! structured — HPC benchmarks have large homogeneous regions whose
//! boundaries coincide with `cudaMalloc` boundaries, FF_HPGMG shows stripes
//! caused by arrays of heterogeneous structs, and DL workloads are speckled
//! because frameworks reuse pooled memory. [`SpatialPattern`] reproduces
//! those three shapes. [`TemporalDrift`] reproduces the paper's two temporal
//! observations: 355.seismic starts mostly-zero and asymptotes to 2×
//! (§3.1), and DL entries churn individually while the aggregate ratio stays
//! flat (Figure 8).

use crate::entry_gen::{mix, unit_from_hash, EntryClass, MixtureProfile};
use bpc::Entry;

/// Spatial arrangement of mixture components within an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpatialPattern {
    /// Mixture components occupy contiguous block-sized runs (HPC style:
    /// large mostly-red or mostly-blue regions).
    Blocked {
        /// Run length in 128 B entries (a paper page of 8 KB is 64 entries).
        run_entries: u64,
    },
    /// Every entry draws independently from the mixture (DL style).
    Speckled,
    /// Components repeat in fixed-width stripes (FF_HPGMG struct-array
    /// style); weights define relative stripe widths within the period.
    Striped {
        /// Stripe period in entries.
        period: u64,
    },
}

/// How an allocation's data changes across the run (10 snapshot phases).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TemporalDrift {
    /// Data is written once and stays put.
    Stable,
    /// A fraction of entries is zero, interpolating linearly from
    /// `start_zero` at phase 0 to `end_zero` at phase 1 (355.seismic).
    ZeroFill {
        /// Zero fraction at the start of the run.
        start_zero: f64,
        /// Zero fraction at the end of the run.
        end_zero: f64,
    },
    /// Each snapshot re-randomizes a `rate` fraction of entries (DL memory
    /// pools). The per-entry class changes; the aggregate mixture does not.
    Churn {
        /// Fraction of entries re-drawn per snapshot phase.
        rate: f64,
    },
}

/// One `cudaMalloc`-style allocation inside a benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocationSpec {
    /// Human-readable name (e.g. `"weights_conv"`).
    pub name: &'static str,
    /// Fraction of the benchmark footprint this allocation occupies.
    pub footprint_frac: f64,
    /// Data content as a mixture of entry classes.
    pub profile: MixtureProfile,
    /// Spatial arrangement of the mixture.
    pub pattern: SpatialPattern,
    /// Temporal evolution of the data.
    pub drift: TemporalDrift,
}

impl AllocationSpec {
    /// Convenience constructor for a stable, speckled allocation.
    pub fn speckled(name: &'static str, footprint_frac: f64, profile: MixtureProfile) -> Self {
        Self {
            name,
            footprint_frac,
            profile,
            pattern: SpatialPattern::Speckled,
            drift: TemporalDrift::Stable,
        }
    }

    /// Convenience constructor for a stable, blocked allocation with the
    /// paper's 8 KB-page-scale homogeneity (runs of 16 pages).
    pub fn blocked(name: &'static str, footprint_frac: f64, profile: MixtureProfile) -> Self {
        Self {
            name,
            footprint_frac,
            profile,
            pattern: SpatialPattern::Blocked { run_entries: 1024 },
            drift: TemporalDrift::Stable,
        }
    }

    /// Whether the bytes of `entry_index` at `phase` are chosen by the
    /// phase, rather than being the entry's phase-independent bytes.
    ///
    /// [`entry_at`](Self::entry_at) reads the phase in exactly two places,
    /// and this predicate is true exactly where one of them decides the
    /// entry:
    ///
    /// - under [`TemporalDrift::Churn`], an entry whose churn draw is below
    ///   `rate` takes its class and value seed from the snapshot bucket (at
    ///   every phase);
    /// - under [`TemporalDrift::ZeroFill`], an entry whose zero draw is
    ///   below the phase's zero fraction is zero (see
    ///   [`class_at`](Self::class_at)).
    ///
    /// Otherwise the entry's class and value seed depend on `(seed,
    /// entry_index)` alone, so `entry_at` returns the same bytes at every
    /// phase where this is false. A [`TemporalDrift::Stable`] entry never
    /// varies.
    pub fn varies_with_phase(&self, seed: u64, entry_index: u64, phase: f64) -> bool {
        self.churned(seed, entry_index) || self.zeroed_at(seed, entry_index, phase)
    }

    /// The [`TemporalDrift::Churn`] draw: whether `entry_index` re-draws
    /// its class and value every snapshot.
    fn churned(&self, seed: u64, entry_index: u64) -> bool {
        match self.drift {
            TemporalDrift::Churn { rate } => {
                unit_from_hash(mix(&[seed, entry_index, CHURN_TAG])) < rate
            }
            TemporalDrift::Stable | TemporalDrift::ZeroFill { .. } => false,
        }
    }

    /// The [`TemporalDrift::ZeroFill`] draw: whether `entry_index` is zero
    /// at `phase`.
    fn zeroed_at(&self, seed: u64, entry_index: u64, phase: f64) -> bool {
        match self.drift {
            TemporalDrift::ZeroFill {
                start_zero,
                end_zero,
            } => {
                let zero_frac = start_zero + (end_zero - start_zero) * phase.clamp(0.0, 1.0);
                // Use a stable per-entry draw so entries fill in (or zero
                // out) progressively rather than re-shuffling every phase.
                unit_from_hash(mix(&[seed, entry_index, ZERO_TAG])) < zero_frac
            }
            TemporalDrift::Stable | TemporalDrift::Churn { .. } => false,
        }
    }

    /// Resolves which entry class governs `entry_index` at `phase ∈ [0, 1]`.
    ///
    /// This is the heart of snapshot generation: deterministic in
    /// `(seed, entry_index, phase bucket)`, so snapshots can be sampled
    /// without materializing the allocation.
    pub fn class_at(&self, seed: u64, entry_index: u64, phase: f64) -> EntryClass {
        // Temporal override: ZeroFill forces a phase-dependent zero set
        // (the first of the two phase reads `varies_with_phase` names).
        if self.zeroed_at(seed, entry_index, phase) {
            return EntryClass::Zero;
        }
        let spatial_u = match self.pattern {
            SpatialPattern::Speckled => unit_from_hash(mix(&[seed, entry_index])),
            SpatialPattern::Blocked { run_entries } => {
                let run = entry_index / run_entries.max(1);
                unit_from_hash(mix(&[seed, run]))
            }
            SpatialPattern::Striped { period } => {
                let p = period.max(1);
                (entry_index % p) as f64 / p as f64
            }
        };
        self.profile.pick(spatial_u)
    }

    /// Generates the bytes of `entry_index` at `phase`.
    ///
    /// Under [`TemporalDrift::Churn`], a `rate` fraction of entries derive
    /// their value seed from the snapshot bucket, so their content (and
    /// class, for speckled patterns) changes between snapshots.
    pub fn entry_at(&self, seed: u64, entry_index: u64, phase: f64) -> Entry {
        // The second phase read `varies_with_phase` names: a churned entry
        // takes its class and value seed from the snapshot bucket.
        let bucket = (phase.clamp(0.0, 1.0) * 10.0).round() as u64;
        let churned = self.churned(seed, entry_index);
        let class = if churned {
            // Churned entries re-draw their class each snapshot from the
            // same mixture (per-entry change, stable aggregate).
            let u = unit_from_hash(mix(&[seed, entry_index, bucket, 1]));
            self.profile.pick(u)
        } else {
            self.class_at(seed, entry_index, phase)
        };
        let value_seed = if churned {
            mix(&[seed, entry_index, bucket, 2])
        } else {
            mix(&[seed, entry_index, 3])
        };
        class.generate(value_seed)
    }
}

/// Domain-separation tags so the zero-fill draw, churn draw and value seeds
/// never collide in the hash space.
const ZERO_TAG: u64 = 0x5A45_524F;
const CHURN_TAG: u64 = 0xC4A1_1C4A;

#[cfg(test)]
mod tests {
    use super::*;
    use bpc::SizeClass;

    fn profile() -> MixtureProfile {
        MixtureProfile::from_class_weights(&[(SizeClass::B32, 0.5), (SizeClass::B128, 0.5)])
    }

    #[test]
    fn speckled_is_deterministic() {
        let spec = AllocationSpec::speckled("a", 1.0, profile());
        assert_eq!(spec.entry_at(7, 123, 0.0), spec.entry_at(7, 123, 0.0));
    }

    #[test]
    fn blocked_runs_share_class() {
        let spec = AllocationSpec {
            name: "b",
            footprint_frac: 1.0,
            profile: profile(),
            pattern: SpatialPattern::Blocked { run_entries: 64 },
            drift: TemporalDrift::Stable,
        };
        let c0 = spec.class_at(1, 0, 0.0);
        for i in 1..64 {
            assert_eq!(spec.class_at(1, i, 0.0), c0, "entry {i} left its run");
        }
    }

    #[test]
    fn striped_repeats_with_period() {
        let spec = AllocationSpec {
            name: "s",
            footprint_frac: 1.0,
            profile: profile(),
            pattern: SpatialPattern::Striped { period: 4 },
            drift: TemporalDrift::Stable,
        };
        for i in 0..32 {
            assert_eq!(spec.class_at(9, i, 0.0), spec.class_at(9, i + 4, 0.0));
        }
        // First half of the period is the first component.
        assert_eq!(
            spec.class_at(9, 0, 0.0),
            EntryClass::for_target(SizeClass::B32)
        );
        assert_eq!(spec.class_at(9, 3, 0.0), EntryClass::Random);
    }

    #[test]
    fn zero_fill_interpolates() {
        let spec = AllocationSpec {
            name: "z",
            footprint_frac: 1.0,
            profile: MixtureProfile::from_class_weights(&[(SizeClass::B64, 1.0)]),
            pattern: SpatialPattern::Speckled,
            drift: TemporalDrift::ZeroFill {
                start_zero: 0.9,
                end_zero: 0.1,
            },
        };
        let count_zero = |phase: f64| {
            (0..2000)
                .filter(|&i| spec.class_at(5, i, phase) == EntryClass::Zero)
                .count()
        };
        let early = count_zero(0.0);
        let late = count_zero(1.0);
        assert!(early > 1600, "expected ~90% zeros early, got {early}/2000");
        assert!(late < 400, "expected ~10% zeros late, got {late}/2000");
    }

    #[test]
    fn zero_fill_is_progressive_not_reshuffled() {
        let spec = AllocationSpec {
            name: "z",
            footprint_frac: 1.0,
            profile: MixtureProfile::from_class_weights(&[(SizeClass::B64, 1.0)]),
            pattern: SpatialPattern::Speckled,
            drift: TemporalDrift::ZeroFill {
                start_zero: 1.0,
                end_zero: 0.0,
            },
        };
        // An entry that is non-zero at phase p must stay non-zero at all
        // later phases (monotone fill-in).
        for i in 0..200u64 {
            let mut was_nonzero = false;
            for step in 0..=10 {
                let phase = step as f64 / 10.0;
                let nonzero = spec.class_at(5, i, phase) != EntryClass::Zero;
                if was_nonzero {
                    assert!(nonzero, "entry {i} reverted to zero at phase {phase}");
                }
                was_nonzero |= nonzero;
            }
        }
    }

    #[test]
    fn churn_changes_some_entries_between_snapshots() {
        let spec = AllocationSpec {
            name: "c",
            footprint_frac: 1.0,
            profile: profile(),
            pattern: SpatialPattern::Speckled,
            drift: TemporalDrift::Churn { rate: 0.5 },
        };
        let changed = (0..500)
            .filter(|&i| spec.entry_at(11, i, 0.0) != spec.entry_at(11, i, 1.0))
            .count();
        assert!(
            changed > 150,
            "churn should alter a sizable fraction: {changed}/500"
        );
        assert!(
            changed < 400,
            "churn should not alter everything: {changed}/500"
        );
    }

    /// Runs `check(bench, spec, seed, indices)` on every allocation of the
    /// suite at its profiling seed for `base_seed`, with `n` indices spread
    /// evenly over the allocation.
    fn for_each_suite_allocation(
        base_seed: u64,
        n: u64,
        mut check: impl FnMut(&'static str, &AllocationSpec, u64, &[u64]),
    ) {
        for bench in crate::suite::all_benchmarks() {
            for (alloc_idx, (spec, entries)) in bench.allocation_layout().into_iter().enumerate() {
                let seed = mix(&[base_seed, alloc_idx as u64]);
                let span = entries.max(n);
                let indices: Vec<u64> = (0..n).map(|k| k * span / n).collect();
                check(bench.name, spec, seed, &indices);
            }
        }
    }

    #[test]
    fn varies_with_phase_is_exact() {
        // The ten snapshot phases, both ends, phases between buckets, and
        // two outside [0, 1] that `entry_at` clamps.
        let mut phases = crate::snapshot::ten_phases().to_vec();
        phases.extend([0.0, 1.0, 0.33, 0.5, 0.77, -0.5, 1.5]);
        for base_seed in [1, 0xB0DD7] {
            for_each_suite_allocation(base_seed, 256, |bench, spec, seed, indices| {
                for &i in indices {
                    // Any two phases where the entry does not vary give
                    // equal bytes.
                    let mut invariant = None;
                    for &p in &phases {
                        if spec.varies_with_phase(seed, i, p) {
                            continue;
                        }
                        let entry = spec.entry_at(seed, i, p);
                        assert_eq!(
                            *invariant.get_or_insert(entry),
                            entry,
                            "{bench}/{} entry {i} moves at phase {p} but does not vary",
                            spec.name
                        );
                    }
                }
            });
        }
    }

    #[test]
    fn phase_invariance_holds_and_is_not_vacuous() {
        const N: u64 = 2048;
        let phases = crate::snapshot::ten_phases();
        let (mut stable, mut churn, mut zero_fill) = (0, 0, Vec::new());
        for_each_suite_allocation(0xB0DD7, N, |bench, spec, seed, indices| {
            let varying = |p: f64| {
                indices
                    .iter()
                    .filter(|&&i| spec.varies_with_phase(seed, i, p))
                    .count() as f64
                    / N as f64
            };
            match spec.drift {
                TemporalDrift::Stable => {
                    stable += 1;
                    for p in phases {
                        assert_eq!(varying(p), 0.0, "{bench}/{} is Stable", spec.name);
                    }
                }
                TemporalDrift::Churn { rate } => {
                    churn += 1;
                    // About `rate` of the entries churn, the same ones at
                    // every phase, and they do move between snapshots.
                    for p in phases {
                        let got = varying(p);
                        assert!((got - rate).abs() < 0.05, "{bench}/{}: {got}", spec.name);
                    }
                    for &i in indices {
                        let varies = spec.varies_with_phase(seed, i, phases[0]);
                        assert!(phases
                            .iter()
                            .all(|&p| spec.varies_with_phase(seed, i, p) == varies));
                    }
                    let moved = indices
                        .iter()
                        .filter(|&&i| {
                            spec.entry_at(seed, i, phases[0]) != spec.entry_at(seed, i, phases[9])
                        })
                        .count();
                    assert!(moved > 0, "{bench}/{} is Churn but never moves", spec.name);
                }
                TemporalDrift::ZeroFill {
                    start_zero,
                    end_zero,
                } => {
                    zero_fill.push((bench, spec.name));
                    // An entry varies exactly on its zero draws: about the
                    // phase's zero fraction of the entries, each all-zero.
                    for p in phases {
                        let zero_frac = start_zero + (end_zero - start_zero) * p;
                        let got = varying(p);
                        assert!(
                            (got - zero_frac).abs() < 0.05,
                            "{bench}/{} at {p}: {got}",
                            spec.name
                        );
                        for &i in indices {
                            if spec.varies_with_phase(seed, i, p) {
                                assert_eq!(spec.class_at(seed, i, p), EntryClass::Zero);
                                assert!(bpc::is_zero(&spec.entry_at(seed, i, p)));
                            }
                        }
                    }
                }
            }
        });
        assert!(stable > 0, "no Stable allocation in the suite");
        assert!(churn > 0, "no Churn allocation in the suite");
        assert_eq!(zero_fill, [("355.seismic", "wavefield")]);
    }

    #[test]
    fn stable_entries_do_not_change() {
        let spec = AllocationSpec::speckled("st", 1.0, profile());
        for i in 0..100 {
            assert_eq!(spec.entry_at(3, i, 0.0), spec.entry_at(3, i, 1.0));
        }
    }
}
