//! The profiling pass: choosing per-allocation target compression ratios.
//!
//! §3.4–3.5: the application is first profiled on a representative dataset;
//! the profiler builds a histogram of compressed memory-entry sizes per
//! allocation and picks, for each allocation, the most aggressive target
//! ratio whose *overflow fraction* (entries that would need buddy-memory
//! accesses) stays below the **Buddy Threshold** (default 30%). Allocations
//! that compress almost entirely below 8 B get the 16× zero-page target,
//! subject to the overall ratio staying under the 4× carve-out bound.
//!
//! Three policies from Figure 7 are implemented:
//! * [`choose_naive`] — one conservative whole-program target,
//! * [`choose_targets`] with `zero_page: false` — per-allocation targets,
//! * [`choose_targets`] with `zero_page: true` — the final design.
//!
//! The admission rule — walk the targets from most to least aggressive and
//! take the first whose overflow fraction is at or below its threshold — is
//! written once, in [`ProfileConfig`]. [`choose_targets`] runs it over
//! profiled histograms; [`ProfileConfig::recommend`] runs it online, over
//! [`DeviceHandle::state_window`](crate::DeviceHandle::state_window)
//! histograms of live metadata, feeding
//! [`BuddyDevice::retarget`](crate::BuddyDevice::retarget). The paper picks
//! each target once (§3.5) and observes (§4.2, Figure 8) that
//! compressibility drifts over training; the online half closes that loop.

use crate::target::TargetRatio;
use bpc::{SizeClass, SizeHistogram, ENTRY_BYTES};
use std::fmt;

/// Profiling input for one allocation: its size and the histogram of
/// compressed entry sizes observed during the profiling run.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocationProfile {
    /// Allocation name.
    pub name: String,
    /// Entries in the allocation (at deployment scale).
    pub entries: u64,
    /// Compressed size-class histogram from profiling snapshots.
    pub histogram: SizeHistogram,
}

/// Profiler configuration (§3.5 defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileConfig {
    /// Maximum allowed overflow fraction per allocation (the Buddy
    /// Threshold; the paper settles on 30%).
    pub buddy_threshold: f64,
    /// Whether the 16× zero-page optimization is enabled.
    pub zero_page: bool,
}

impl Default for ProfileConfig {
    fn default() -> Self {
        Self {
            buddy_threshold: 0.30,
            zero_page: true,
        }
    }
}

/// Stricter admission threshold for the zero-page target: the paper
/// applies 16× only to allocations that are "mostly zero, and remain so",
/// so these should essentially never overflow.
const ZERO_PAGE_THRESHOLD: f64 = 0.05;

/// Upper bound on the overall device compression ratio, set by the
/// carve-out size ("the overall compression ratio is still under 4x,
/// limited by the buddy-memory carve-out region", §3.4): the 3× carve-out
/// plus the device's own share.
const MAX_OVERALL_RATIO: f64 = 4.0;

/// Extra headroom a promotion must show below the admission threshold (see
/// [`ProfileConfig::recommend`]).
const PROMOTE_MARGIN: f64 = 0.10;

/// Fewest observed entries [`ProfileConfig::recommend`] acts on; smaller
/// windows get no recommendation.
const MIN_SAMPLES: u64 = 64;

impl ProfileConfig {
    /// The paper's final configuration (30% threshold, zero-page on).
    pub fn paper_final() -> Self {
        Self::default()
    }

    /// Per-allocation targets without the zero-page optimization (the
    /// middle bars of Figure 7).
    pub fn per_allocation_only() -> Self {
        Self {
            zero_page: false,
            ..Self::default()
        }
    }

    /// Same policy with a different Buddy Threshold (Figure 9 sweep).
    pub fn with_threshold(threshold: f64) -> Self {
        Self {
            buddy_threshold: threshold,
            ..Self::default()
        }
    }

    /// The targets the admission walk tries, most aggressive first.
    fn candidates(&self) -> &'static [TargetRatio] {
        if self.zero_page {
            &TargetRatio::DESCENDING
        } else {
            &TargetRatio::STANDARD_DESCENDING
        }
    }

    /// The admission threshold governing target `t`.
    fn admission_threshold(&self, t: TargetRatio) -> f64 {
        if t == TargetRatio::ZeroPage16 {
            ZERO_PAGE_THRESHOLD
        } else {
            self.buddy_threshold
        }
    }

    /// The admission rule (§3.4–3.5): the most aggressive candidate target
    /// whose overflow fraction over `histogram` is at or below its
    /// threshold, with that overflow fraction. 1× never overflows, so the
    /// walk ends on it at the latest.
    fn admit(&self, histogram: &SizeHistogram) -> (TargetRatio, f64) {
        self.candidates()
            .iter()
            .map(|&t| (t, t.overflow_fraction(histogram)))
            .find(|&(t, overflow)| overflow <= self.admission_threshold(t))
            .unwrap_or((TargetRatio::R1, 0.0))
    }

    /// Recommends a new target for an allocation currently annotated
    /// `current`, given the histogram of its live states
    /// ([`DeviceHandle::state_window`](crate::DeviceHandle::state_window)) —
    /// or `None` to keep it. Windows of fewer than 64 entries get no
    /// recommendation.
    ///
    /// # Hysteresis
    ///
    /// Two thresholds separate the decisions:
    ///
    /// * **Demotion** uses the plain admission rule of [`choose_targets`]:
    ///   if the most aggressive admissible target is less aggressive than
    ///   `current`, the current target is overflowing and that target is
    ///   recommended directly. An allocation that has genuinely stopped
    ///   compressing is fixed in one step.
    /// * **Promotion** demands *headroom*: a more aggressive target is
    ///   adopted only if its observed overflow sits below its admission
    ///   threshold minus a 10% margin (never below half the threshold, so
    ///   the tight zero-page 5% is not driven to an unreachable zero).
    ///   Failing that, less aggressive intermediate steps (still above
    ///   `current`) are tried before giving up. An allocation hovering
    ///   inside the band `(threshold − margin, threshold]` keeps its
    ///   current target rather than ping-ponging.
    ///
    /// On a stationary window the policy therefore recommends at most one
    /// change and then goes quiet.
    ///
    /// # What the window can and cannot see
    ///
    /// Metadata states record *stored sector counts*, which is exactly what
    /// the standard targets (1×–4×) need. They do **not** record whether an
    /// entry would compress below the 8 B zero-page granule (a one-sector
    /// entry may be 9 or 32 bytes), so promotion *to* the 16× zero-page
    /// target is only recommended when the observed window is almost
    /// entirely tracked-zero / sub-granule entries — the same "mostly zero,
    /// and remains so" conservatism the paper applies (§3.4). Entries stored
    /// as raw zero-page overflow count as incompressible for the same
    /// reason.
    pub fn recommend(&self, current: TargetRatio, window: &SizeHistogram) -> Option<TargetRatio> {
        if window.total() < MIN_SAMPLES {
            return None;
        }
        let (pick, _) = self.admit(window);
        if pick == current {
            return None;
        }
        if pick.ratio() < current.ratio() {
            // Demotion: the current target is past its admission threshold.
            return Some(pick);
        }
        // Promotion: walk from the aggressive pick back down toward the
        // current target, taking the first step with enough headroom.
        for &t in self.candidates().iter().skip_while(|&&t| t != pick) {
            if t.ratio() <= current.ratio() {
                break;
            }
            let admission = self.admission_threshold(t);
            if t.overflow_fraction(window) <= (admission - PROMOTE_MARGIN).max(admission / 2.0) {
                return Some(t);
            }
        }
        None
    }
}

/// The target chosen for one allocation, with its expected overflow.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetChoice {
    /// Allocation name.
    pub name: String,
    /// Entries in the allocation.
    pub entries: u64,
    /// Chosen target ratio.
    pub target: TargetRatio,
    /// Expected fraction of entries overflowing to buddy memory.
    pub overflow_frac: f64,
}

/// The profiler's output across a whole program.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileOutcome {
    /// Per-allocation choices, in input order.
    pub choices: Vec<TargetChoice>,
}

impl ProfileOutcome {
    /// Overall device compression ratio implied by the choices
    /// (uncompressed bytes / device-resident bytes) — the bar heights of
    /// Figures 7 and 9.
    pub fn device_compression_ratio(&self) -> f64 {
        let logical: u64 = self
            .choices
            .iter()
            .map(|c| c.entries * ENTRY_BYTES as u64)
            .sum();
        let device: u64 = self
            .choices
            .iter()
            .map(|c| c.entries * c.target.device_bytes_per_entry() as u64)
            .sum();
        if device == 0 {
            1.0
        } else {
            logical as f64 / device as f64
        }
    }

    /// Expected fraction of memory-entry accesses that touch buddy memory,
    /// assuming uniform access — the paper's static estimate ("calculated
    /// per target compression ratio, using a histogram of the static memory
    /// snapshots", §3.4).
    pub fn static_buddy_fraction(&self) -> f64 {
        let total: u64 = self.choices.iter().map(|c| c.entries).sum();
        if total == 0 {
            return 0.0;
        }
        self.choices
            .iter()
            .map(|c| c.entries as f64 * c.overflow_frac)
            .sum::<f64>()
            / total as f64
    }
}

impl fmt::Display for ProfileOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in &self.choices {
            writeln!(
                f,
                "{:<24} {:>12} entries  target {:<6} overflow {:5.1}%",
                c.name,
                c.entries,
                c.target.to_string(),
                100.0 * c.overflow_frac
            )?;
        }
        write!(
            f,
            "=> ratio {:.2}x, buddy accesses {:.2}%",
            self.device_compression_ratio(),
            100.0 * self.static_buddy_fraction()
        )
    }
}

/// Runs the per-allocation profiling policy of §3.4 (with or without the
/// zero-page optimization, per `config`).
///
/// After the per-allocation picks, zero-page choices are demoted to 4× one
/// by one (largest allocations first) until the overall ratio respects the
/// carve-out bound.
pub fn choose_targets(profiles: &[AllocationProfile], config: &ProfileConfig) -> ProfileOutcome {
    let mut outcome = ProfileOutcome {
        choices: profiles
            .iter()
            .map(|p| {
                let (target, overflow_frac) = config.admit(&p.histogram);
                TargetChoice {
                    name: p.name.clone(),
                    entries: p.entries,
                    target,
                    overflow_frac,
                }
            })
            .collect(),
    };

    // Enforce the carve-out bound by demoting 16x choices.
    while outcome.device_compression_ratio() > MAX_OVERALL_RATIO {
        let demote = outcome
            .choices
            .iter_mut()
            .filter(|c| c.target == TargetRatio::ZeroPage16)
            .max_by_key(|c| c.entries);
        match demote {
            Some(choice) => {
                choice.target = TargetRatio::R4;
                // Overflow for 4x on a mostly-≤8 B allocation is ~0 but
                // recompute from the histogram for exactness.
                if let Some(p) = profiles.iter().find(|p| p.name == choice.name) {
                    choice.overflow_frac = TargetRatio::R4.overflow_fraction(&p.histogram);
                }
            }
            None => break, // nothing left to demote; 4x everywhere is ≤ 4.
        }
    }
    outcome
}

/// The naive whole-program policy: one conservative target for every
/// allocation (the first bars of Figure 7).
///
/// "Naive Buddy Compression considers a single, conservative target
/// compression ratio for the whole-program" (§3.4). We interpret
/// *conservative* as: the largest allowed ratio that does not exceed the
/// program's whole-memory optimistic compression ratio (the Figure 3
/// number). Without per-allocation knowledge, incompressible regions are
/// forced to the program-wide target — which is exactly what produces the
/// naive policy's high buddy-memory traffic.
pub fn choose_naive(profiles: &[AllocationProfile]) -> ProfileOutcome {
    let mut merged = SizeHistogram::new();
    for p in profiles {
        // Weight each allocation's histogram by its entry count.
        let scale = if p.histogram.total() == 0 {
            0.0
        } else {
            p.entries as f64 / p.histogram.total() as f64
        };
        for class in SizeClass::ALL {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "a non-negative count rounded to whole entries; `as` saturates"
            )]
            merged.record_n(
                class,
                (p.histogram.count(class) as f64 * scale).round() as u64,
            );
        }
    }
    let program_ratio = merged.compression_ratio();
    let target = TargetRatio::STANDARD_DESCENDING
        .into_iter()
        .find(|t| t.ratio() <= program_ratio)
        .unwrap_or(TargetRatio::R1);
    ProfileOutcome {
        choices: profiles
            .iter()
            .map(|p| TargetChoice {
                name: p.name.clone(),
                entries: p.entries,
                target,
                overflow_frac: target.overflow_fraction(&p.histogram),
            })
            .collect(),
    }
}

/// The "best achievable compression ratio" marker of Figure 9: the
/// optimistic per-entry capacity ratio (Figure 3 accounting) capped at the
/// 4× carve-out bound.
pub fn best_achievable(profiles: &[AllocationProfile]) -> f64 {
    let mut logical = 0.0;
    let mut compressed = 0.0;
    for p in profiles {
        if p.histogram.total() == 0 {
            continue;
        }
        logical += p.entries as f64 * ENTRY_BYTES as f64;
        compressed += p.entries as f64 * (ENTRY_BYTES as f64 / p.histogram.compression_ratio());
    }
    if compressed == 0.0 {
        1.0
    } else {
        (logical / compressed).min(4.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile_of(name: &str, entries: u64, classes: &[(SizeClass, u64)]) -> AllocationProfile {
        let mut histogram = SizeHistogram::new();
        for &(class, n) in classes {
            histogram.record_n(class, n);
        }
        AllocationProfile {
            name: name.to_owned(),
            entries,
            histogram,
        }
    }

    #[test]
    fn overflow_fractions() {
        let p = profile_of("a", 100, &[(SizeClass::B32, 70), (SizeClass::B128, 30)]);
        let overflow = |t: TargetRatio| t.overflow_fraction(&p.histogram);
        assert!((overflow(TargetRatio::R4) - 0.30).abs() < 1e-12);
        assert!((overflow(TargetRatio::R2) - 0.30).abs() < 1e-12);
        assert!((overflow(TargetRatio::R1_33) - 0.30).abs() < 1e-12);
        assert_eq!(overflow(TargetRatio::R1), 0.0);
        assert!((overflow(TargetRatio::ZeroPage16) - 1.0).abs() < 1e-12);
        // Empty histograms overflow nothing.
        assert_eq!(
            TargetRatio::R4.overflow_fraction(&SizeHistogram::new()),
            0.0
        );
    }

    #[test]
    fn threshold_gates_aggressiveness() {
        let p = profile_of("a", 100, &[(SizeClass::B32, 60), (SizeClass::B64, 40)]);
        // 40% of entries need 2 sectors: 4x overflows 40%.
        let strict = choose_targets(
            std::slice::from_ref(&p),
            &ProfileConfig::with_threshold(0.10),
        );
        assert_eq!(strict.choices[0].target, TargetRatio::R2);
        let loose = choose_targets(&[p], &ProfileConfig::with_threshold(0.45));
        assert_eq!(loose.choices[0].target, TargetRatio::R4);
    }

    #[test]
    fn zero_page_for_mostly_zero_allocations() {
        let zeros = profile_of(
            "zeros",
            1000,
            &[
                (SizeClass::B0, 970),
                (SizeClass::B8, 20),
                (SizeClass::B64, 10),
            ],
        );
        // A second incompressible allocation keeps the overall ratio under
        // the 4x carve-out bound, so the zero-page pick survives.
        let raw = profile_of("raw", 1000, &[(SizeClass::B128, 100)]);
        let outcome = choose_targets(&[zeros.clone(), raw.clone()], &ProfileConfig::default());
        assert_eq!(outcome.choices[0].target, TargetRatio::ZeroPage16);
        assert_eq!(outcome.choices[1].target, TargetRatio::R1);
        // Disabled zero-page: falls back to 4x.
        let outcome = choose_targets(&[zeros.clone(), raw], &ProfileConfig::per_allocation_only());
        assert_eq!(outcome.choices[0].target, TargetRatio::R4);
        // A lone 16x allocation would exceed the 4x bound and is demoted.
        let outcome = choose_targets(&[zeros], &ProfileConfig::default());
        assert_eq!(outcome.choices[0].target, TargetRatio::R4);
    }

    #[test]
    fn carve_out_cap_demotes_zero_page() {
        // Two all-zero allocations would give 16x overall — over the 4x
        // carve-out bound — so the larger one is demoted first.
        let a = profile_of("a", 3000, &[(SizeClass::B0, 100)]);
        let b = profile_of("b", 1000, &[(SizeClass::B0, 100)]);
        let outcome = choose_targets(&[a, b], &ProfileConfig::default());
        assert!(outcome.device_compression_ratio() <= 4.0 + 1e-9);
        assert_eq!(outcome.choices[0].target, TargetRatio::R4); // demoted (larger)
                                                                // The smaller one may stay 16x if the bound is met.
        let ratio = outcome.device_compression_ratio();
        assert!(ratio > 3.9, "should stay close to the cap, got {ratio}");
    }

    #[test]
    fn naive_policy_uses_single_conservative_target() {
        let a = profile_of("compressible", 500, &[(SizeClass::B32, 100)]);
        let b = profile_of("incompressible", 500, &[(SizeClass::B128, 100)]);
        let outcome = choose_naive(&[a, b]);
        let targets: Vec<_> = outcome.choices.iter().map(|c| c.target).collect();
        assert_eq!(
            targets[0], targets[1],
            "naive must pick one program-wide target"
        );
        // Program-wide optimistic ratio is 1.6x → quantized down to 1.33x.
        assert_eq!(targets[0], TargetRatio::R1_33);
        // The incompressible half overflows entirely: the naive policy's
        // high buddy-access cost (§3.4).
        assert!((outcome.static_buddy_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn per_allocation_beats_naive() {
        let a = profile_of("compressible", 500, &[(SizeClass::B32, 100)]);
        let b = profile_of("incompressible", 500, &[(SizeClass::B128, 100)]);
        let naive = choose_naive(&[a.clone(), b.clone()]);
        let per_alloc = choose_targets(&[a, b], &ProfileConfig::default());
        assert!(
            per_alloc.device_compression_ratio() > naive.device_compression_ratio(),
            "per-allocation targets must dominate the naive policy"
        );
        assert!(
            per_alloc.static_buddy_fraction() < naive.static_buddy_fraction(),
            "per-allocation targets must also cut buddy traffic"
        );
        // Compressible half gets 4x, incompressible 1x: 2*128/(32+128).
        assert!((per_alloc.device_compression_ratio() - 1.6).abs() < 1e-9);
    }

    #[test]
    fn striped_allocation_cannot_compress_at_30_percent() {
        // FF_HPGMG-style: 50% of entries incompressible — no standard target
        // admissible except 1x at a 30% threshold, but an 80% threshold
        // unlocks 4x... (the paper: "requires more than 80% Buddy Threshold").
        let p = profile_of(
            "structs",
            100,
            &[(SizeClass::B16, 50), (SizeClass::B128, 50)],
        );
        let at30 = choose_targets(std::slice::from_ref(&p), &ProfileConfig::default());
        assert_eq!(at30.choices[0].target, TargetRatio::R1);
        let at80 = choose_targets(&[p], &ProfileConfig::with_threshold(0.85));
        assert!(at80.choices[0].target >= TargetRatio::R2);
    }

    #[test]
    fn static_buddy_fraction_weights_by_entries() {
        let a = TargetChoice {
            name: "a".into(),
            entries: 900,
            target: TargetRatio::R2,
            overflow_frac: 0.0,
        };
        let b = TargetChoice {
            name: "b".into(),
            entries: 100,
            target: TargetRatio::R2,
            overflow_frac: 0.5,
        };
        let outcome = ProfileOutcome {
            choices: vec![a, b],
        };
        assert!((outcome.static_buddy_fraction() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn best_achievable_is_capped_at_4x() {
        let p = profile_of("zeros", 100, &[(SizeClass::B0, 100)]);
        assert_eq!(best_achievable(&[p]), 4.0);
        let q = profile_of("half", 100, &[(SizeClass::B64, 100)]);
        assert!((best_achievable(&[q]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn outcome_display_mentions_ratio() {
        let p = profile_of("a", 100, &[(SizeClass::B32, 100)]);
        let outcome = choose_targets(&[p], &ProfileConfig::default());
        let text = outcome.to_string();
        assert!(text.contains("ratio"), "{text}");
        assert!(text.contains("4x"), "{text}");
    }

    #[test]
    fn empty_profiles() {
        let outcome = choose_targets(&[], &ProfileConfig::default());
        assert_eq!(outcome.device_compression_ratio(), 1.0);
        assert_eq!(outcome.static_buddy_fraction(), 0.0);
        assert_eq!(best_achievable(&[]), 1.0);
    }
}
