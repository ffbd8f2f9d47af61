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

    /// Whether [`entry_at`](Self::entry_at) returns the same bytes at every
    /// phase, so one sample of the allocation stands for every snapshot.
    ///
    /// `entry_at` reads the phase in exactly two places: the zero draw of
    /// [`TemporalDrift::ZeroFill`] (in [`class_at`](Self::class_at)) and
    /// the snapshot bucket of [`TemporalDrift::Churn`]. Every other input
    /// is `(seed, entry_index)`, so a `Stable` allocation is invariant.
    pub fn phase_invariant(&self) -> bool {
        match self.drift {
            TemporalDrift::Stable => true,
            TemporalDrift::ZeroFill { .. } | TemporalDrift::Churn { .. } => false,
        }
    }

    /// Resolves which entry class governs `entry_index` at `phase ∈ [0, 1]`.
    ///
    /// This is the heart of snapshot generation: deterministic in
    /// `(seed, entry_index, phase bucket)`, so snapshots can be sampled
    /// without materializing the allocation.
    pub fn class_at(&self, seed: u64, entry_index: u64, phase: f64) -> EntryClass {
        // Temporal override: ZeroFill forces a phase-dependent zero set.
        if let TemporalDrift::ZeroFill {
            start_zero,
            end_zero,
        } = self.drift
        {
            let zero_frac = start_zero + (end_zero - start_zero) * phase.clamp(0.0, 1.0);
            // Use a stable per-entry draw so entries fill in (or zero out)
            // progressively rather than re-shuffling every phase.
            let u = unit_from_hash(mix(&[seed, entry_index, ZERO_TAG]));
            if u < zero_frac {
                return EntryClass::Zero;
            }
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
        let bucket = (phase.clamp(0.0, 1.0) * 10.0).round() as u64;
        let churned = match self.drift {
            TemporalDrift::Churn { rate } => {
                unit_from_hash(mix(&[seed, entry_index, CHURN_TAG])) < rate
            }
            _ => false,
        };
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

    /// Whether `entry_at` returns different bytes at two of the ten
    /// snapshot phases for some index of `indices`.
    fn varies_with_phase(spec: &AllocationSpec, seed: u64, indices: &[u64]) -> bool {
        let phases = crate::snapshot::ten_phases();
        indices.iter().any(|&i| {
            let first = spec.entry_at(seed, i, phases[0]);
            phases[1..]
                .iter()
                .any(|&p| spec.entry_at(seed, i, p) != first)
        })
    }

    #[test]
    fn phase_invariance_holds_and_is_not_vacuous() {
        let mut invariant = 0;
        let mut zero_fill = None;
        let mut churn = None;
        for bench in crate::suite::all_benchmarks() {
            for (alloc_idx, (spec, entries)) in bench.allocation_layout().into_iter().enumerate() {
                let seed = mix(&[0xB0DD7, alloc_idx as u64]);
                let span = entries.max(256);
                let indices: Vec<u64> = (0..256).map(|k| k * span / 256).collect();
                if spec.phase_invariant() {
                    invariant += 1;
                    assert!(
                        !varies_with_phase(spec, seed, &indices),
                        "{}/{} is phase-invariant but its bytes move",
                        bench.name,
                        spec.name
                    );
                    continue;
                }
                let slot = match spec.drift {
                    TemporalDrift::ZeroFill { .. } => &mut zero_fill,
                    TemporalDrift::Churn { .. } => &mut churn,
                    TemporalDrift::Stable => unreachable!("Stable is phase-invariant"),
                };
                slot.get_or_insert((
                    bench.name,
                    spec.name,
                    varies_with_phase(spec, seed, &indices),
                ));
            }
        }
        assert!(invariant > 0, "no phase-invariant allocation in the suite");
        assert_eq!(
            zero_fill,
            Some(("355.seismic", "wavefield", true)),
            "the ZeroFill allocation must move between phases"
        );
        let churn = churn.expect("the DL suite has a Churn allocation");
        assert!(churn.2, "{}/{} is Churn but never moves", churn.0, churn.1);
    }

    #[test]
    fn stable_entries_do_not_change() {
        let spec = AllocationSpec::speckled("st", 1.0, profile());
        for i in 0..100 {
            assert_eq!(spec.entry_at(3, i, 0.0), spec.entry_at(3, i, 1.0));
        }
    }
}
