//! Online adaptive re-targeting: the live analogue of the §3.4 profiling
//! pass.
//!
//! The paper picks each allocation's target ratio once, from an offline
//! profiling run, and observes (§4.2, Figure 8) that DL workloads
//! re-allocate every epoch while compressibility drifts over training. This
//! module closes that loop at run time: a [`StateWindow`] summarizes the
//! *live* compressed footprint of an allocation (read straight from the
//! 4-bit metadata array — exactly the information the memory controller
//! already has), and a [`RetargetPolicy`] recommends promotions or
//! demotions along [`TargetRatio::DESCENDING`] with hysteresis, feeding
//! [`BuddyDevice::retarget`](crate::BuddyDevice::retarget).
//!
//! # Hysteresis
//!
//! Two thresholds separate the decisions:
//!
//! * **Demotion** uses the plain admission rule of `choose_targets`: if the
//!   current target's observed overflow exceeds its threshold, move to the
//!   most aggressive target that is admissible. An allocation that has
//!   genuinely stopped compressing is fixed in one step.
//! * **Promotion** demands *headroom*: a more aggressive target is adopted
//!   only if its observed overflow sits below the admission threshold minus
//!   [`AdaptConfig::promote_margin`] (never below half the threshold). An
//!   allocation hovering inside the band `(threshold − margin, threshold]`
//!   keeps its current target rather than ping-ponging.
//!
//! On a stationary window the policy therefore recommends at most one
//! change and then goes quiet — property `constant_compressibility_never_
//! oscillates` below drives a real device through repeated sweeps to pin
//! this down.
//!
//! # What the window can and cannot see
//!
//! Metadata states record *stored sector counts*, which is exactly what the
//! standard targets (1×–4×) need. They do **not** record whether an entry
//! would compress below the 8 B zero-page granule (a `Compressed {1}`
//! entry may be 9 or 32 bytes), so promotion *to* the 16× zero-page target
//! is only recommended when the observed window is almost entirely
//! tracked-zero / sub-granule entries — the same "mostly zero, and remains
//! so" conservatism the paper applies (§3.4). Entries stored as raw
//! zero-page overflow are counted as incompressible for the same reason.

use crate::metadata::EntryState;
use crate::target::TargetRatio;

/// A summary of the live compressed states of one allocation's entries,
/// bucketed by what they demand from each candidate target ratio.
///
/// Build one with [`BuddyDevice::state_window`](crate::BuddyDevice::state_window)
/// (a metadata-only scan that records no traffic), or feed states in by
/// hand with [`observe`](Self::observe).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StateWindow {
    /// Tracked-zero entries ([`EntryState::Zero`]): free under every target.
    zero: u64,
    /// Entries known to fit the 8 B zero-page granule
    /// ([`EntryState::ZeroPageFit`]).
    le8: u64,
    /// Entries needing exactly 1–4 stored sectors (`sectors[k]` counts
    /// entries needing `k + 1`). Raw zero-page overflow is folded into the
    /// 4-sector bucket: its compressed size is unknown, so the window
    /// treats it as incompressible.
    sectors: [u64; 4],
}

impl StateWindow {
    /// An empty window.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one observed entry state into the window.
    pub fn observe(&mut self, state: EntryState) {
        match state {
            EntryState::Zero => self.zero += 1,
            EntryState::ZeroPageFit => self.le8 += 1,
            EntryState::ZeroPageOverflow => self.sectors[3] += 1,
            EntryState::Compressed { sectors } => {
                self.sectors[usize::from(sectors.clamp(1, 4)) - 1] += 1;
            }
        }
    }

    /// Entries observed.
    pub fn total(&self) -> u64 {
        self.zero + self.le8 + self.sectors.iter().sum::<u64>()
    }

    /// Fraction of observed entries that are tracked zeros.
    pub fn zero_fraction(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        self.zero as f64 / self.total() as f64
    }

    /// Fraction of observed entries that would overflow to buddy memory
    /// under target `t` — the online counterpart of
    /// [`AllocationProfile::overflow_fraction`](crate::AllocationProfile::overflow_fraction).
    pub fn overflow_fraction(&self, t: TargetRatio) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let fits = match t {
            TargetRatio::ZeroPage16 => self.zero + self.le8,
            other => {
                let budget = other.device_sectors() as usize;
                self.zero + self.le8 + self.sectors[..budget].iter().sum::<u64>()
            }
        };
        1.0 - fits as f64 / total as f64
    }
}

/// Configuration of the online re-targeting policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptConfig {
    /// Maximum tolerated overflow fraction for the standard targets — the
    /// online Buddy Threshold (the paper's offline default is 30%).
    pub buddy_threshold: f64,
    /// Extra headroom a *promotion* must demonstrate below the admission
    /// threshold (see the module docs on hysteresis).
    pub promote_margin: f64,
    /// Whether the 16× zero-page target may be recommended at all.
    pub zero_page: bool,
    /// Stricter admission threshold for the zero-page target (§3.4 applies
    /// 16× only to allocations that are "mostly zero, and remain so").
    pub zero_page_threshold: f64,
    /// Minimum observed entries before the policy acts; smaller windows
    /// return no recommendation.
    pub min_samples: u64,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        Self {
            buddy_threshold: 0.30,
            promote_margin: 0.10,
            zero_page: true,
            zero_page_threshold: 0.05,
            min_samples: 64,
        }
    }
}

impl AdaptConfig {
    /// The admission threshold governing target `t` (demotions and the
    /// plain `choose_targets` rule).
    pub fn admission_threshold(&self, t: TargetRatio) -> f64 {
        if t == TargetRatio::ZeroPage16 {
            self.zero_page_threshold
        } else {
            self.buddy_threshold
        }
    }

    /// The stricter threshold a promotion to `t` must clear: admission
    /// minus [`promote_margin`](Self::promote_margin), floored at half the
    /// admission threshold so a tight threshold (the zero-page 5%) is not
    /// driven to an unreachable zero.
    pub fn promotion_threshold(&self, t: TargetRatio) -> f64 {
        let admission = self.admission_threshold(t);
        (admission - self.promote_margin).max(admission / 2.0)
    }
}

/// The online target-ratio policy: consumes per-allocation state windows
/// and recommends migrations along [`TargetRatio::DESCENDING`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RetargetPolicy {
    config: AdaptConfig,
}

impl RetargetPolicy {
    /// Creates a policy with the given configuration.
    pub fn new(config: AdaptConfig) -> Self {
        Self { config }
    }

    /// The policy configuration.
    pub fn config(&self) -> AdaptConfig {
        self.config
    }

    /// Recommends a new target for an allocation currently annotated
    /// `current`, given its observed window — or `None` to keep it.
    ///
    /// The most aggressive target admissible under the plain thresholds is
    /// computed exactly as `choose_targets` would from a profile. If it
    /// equals `current`, nothing happens. If it is *less* aggressive, the
    /// current target is overflowing and the demotion is recommended
    /// directly. If it is *more* aggressive, the promotion must clear the
    /// stricter [`AdaptConfig::promotion_threshold`]; failing that, less
    /// aggressive intermediate steps (still above `current`) are tried
    /// before giving up. See the module docs for why this never
    /// oscillates on stationary data.
    pub fn recommend(&self, current: TargetRatio, window: &StateWindow) -> Option<TargetRatio> {
        if window.total() < self.config.min_samples {
            return None;
        }
        let candidates: &[TargetRatio] = if self.config.zero_page {
            &TargetRatio::DESCENDING
        } else {
            &TargetRatio::STANDARD_DESCENDING
        };
        let pick = candidates
            .iter()
            .copied()
            .find(|&t| window.overflow_fraction(t) <= self.config.admission_threshold(t))
            .unwrap_or(TargetRatio::R1);
        if pick == current {
            return None;
        }
        if pick.ratio() < current.ratio() {
            // Demotion: the current target is past its admission threshold.
            return Some(pick);
        }
        // Promotion: walk from the aggressive pick back down toward the
        // current target, taking the first step with enough headroom.
        for &t in candidates.iter().skip_while(|&&t| t != pick) {
            if t.ratio() <= current.ratio() {
                break;
            }
            if window.overflow_fraction(t) <= self.config.promotion_threshold(t) {
                return Some(t);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{BuddyDevice, DeviceConfig};
    use bpc::ENTRY_BYTES;

    /// A window of `zero` tracked zeros plus `per_sectors[k]` entries
    /// needing `k + 1` sectors.
    fn window(zero: u64, le8: u64, per_sectors: [u64; 4]) -> StateWindow {
        let mut w = StateWindow::new();
        for _ in 0..zero {
            w.observe(EntryState::Zero);
        }
        for _ in 0..le8 {
            w.observe(EntryState::ZeroPageFit);
        }
        for (k, &n) in per_sectors.iter().enumerate() {
            for _ in 0..n {
                w.observe(EntryState::Compressed {
                    sectors: k as u8 + 1,
                });
            }
        }
        w
    }

    #[test]
    fn window_overflow_fractions() {
        let w = window(20, 10, [40, 10, 0, 20]);
        assert_eq!(w.total(), 100);
        assert!((w.zero_fraction() - 0.20).abs() < 1e-12);
        // 1x fits everything.
        assert_eq!(w.overflow_fraction(TargetRatio::R1), 0.0);
        // 2x: the 20 four-sector entries overflow.
        assert!((w.overflow_fraction(TargetRatio::R2) - 0.20).abs() < 1e-12);
        // 4x: the 10 two-sector + 20 four-sector entries overflow.
        assert!((w.overflow_fraction(TargetRatio::R4) - 0.30).abs() < 1e-12);
        // 16x: only zeros and sub-granule entries fit.
        assert!((w.overflow_fraction(TargetRatio::ZeroPage16) - 0.70).abs() < 1e-12);
    }

    #[test]
    fn zero_page_overflow_counts_as_incompressible() {
        let mut w = StateWindow::new();
        for _ in 0..4 {
            w.observe(EntryState::ZeroPageOverflow);
        }
        assert_eq!(w.overflow_fraction(TargetRatio::R1), 0.0);
        assert_eq!(w.overflow_fraction(TargetRatio::R2), 1.0);
        assert_eq!(w.overflow_fraction(TargetRatio::ZeroPage16), 1.0);
    }

    #[test]
    fn small_windows_are_ignored() {
        let policy = RetargetPolicy::new(AdaptConfig {
            min_samples: 64,
            ..AdaptConfig::default()
        });
        let w = window(10, 0, [0, 0, 0, 10]); // 50% overflow under anything
        assert_eq!(policy.recommend(TargetRatio::R4, &w), None);
    }

    #[test]
    fn demotion_is_direct() {
        let policy = RetargetPolicy::new(AdaptConfig::default());
        // 60% of entries need 2 sectors: 4x overflows 60%, 2x fits all.
        let w = window(0, 0, [40, 60, 0, 0]);
        assert_eq!(policy.recommend(TargetRatio::R4, &w), Some(TargetRatio::R2));
        // From zero-page, mostly-nonzero data demotes likewise.
        let w = window(30, 0, [70, 0, 0, 0]);
        assert_eq!(
            policy.recommend(TargetRatio::ZeroPage16, &w),
            Some(TargetRatio::R4)
        );
    }

    #[test]
    fn promotion_requires_headroom() {
        let policy = RetargetPolicy::new(AdaptConfig::default());
        // 25% overflow under 4x: admissible (<= 30%) but inside the
        // hysteresis band (promotion needs <= 20%), so R2 holds.
        let w = window(0, 0, [75, 25, 0, 0]);
        assert_eq!(policy.recommend(TargetRatio::R2, &w), None);
        // 10% overflow: clear headroom, promote.
        let w = window(0, 0, [90, 10, 0, 0]);
        assert_eq!(policy.recommend(TargetRatio::R2, &w), Some(TargetRatio::R4));
    }

    #[test]
    fn promotion_settles_for_an_intermediate_step() {
        let policy = RetargetPolicy::new(AdaptConfig::default());
        // 4x is the admissible pick (28% overflow <= 30%) but lacks
        // promotion headroom; 2x has 10% overflow — promote to 2x instead.
        let w = window(0, 0, [72, 18, 4, 6]);
        assert!((w.overflow_fraction(TargetRatio::R4) - 0.28).abs() < 1e-12);
        assert!((w.overflow_fraction(TargetRatio::R2) - 0.10).abs() < 1e-12);
        assert_eq!(policy.recommend(TargetRatio::R1, &w), Some(TargetRatio::R2));
    }

    #[test]
    fn zero_page_promotion_is_conservative() {
        let policy = RetargetPolicy::new(AdaptConfig::default());
        // 97% zeros: still short of the 16x promotion bar (97.5%).
        let w = window(97, 0, [3, 0, 0, 0]);
        assert_eq!(policy.recommend(TargetRatio::R1, &w), Some(TargetRatio::R4));
        // 99% zeros clears it.
        let w = window(99, 0, [1, 0, 0, 0]);
        assert_eq!(
            policy.recommend(TargetRatio::R4, &w),
            Some(TargetRatio::ZeroPage16)
        );
        // With zero-page disabled the same window stays at 4x.
        let no_zp = RetargetPolicy::new(AdaptConfig {
            zero_page: false,
            ..AdaptConfig::default()
        });
        assert_eq!(no_zp.recommend(TargetRatio::R4, &w), None);
    }

    #[test]
    fn stationary_window_reaches_a_fixed_point_from_every_start() {
        let policy = RetargetPolicy::new(AdaptConfig::default());
        let windows = [
            window(0, 0, [100, 0, 0, 0]),
            window(0, 0, [75, 25, 0, 0]),
            window(50, 0, [25, 0, 0, 25]),
            window(100, 0, [0, 0, 0, 0]),
            window(0, 0, [0, 0, 0, 100]),
        ];
        for w in &windows {
            for start in TargetRatio::DESCENDING {
                let mut current = start;
                let mut changes = 0;
                for _ in 0..10 {
                    if let Some(next) = policy.recommend(current, w) {
                        current = next;
                        changes += 1;
                    }
                }
                assert!(
                    changes <= 1,
                    "window {w:?} from {start}: {changes} changes (oscillation)"
                );
                // Once settled, the recommendation stays quiet.
                assert_eq!(policy.recommend(current, w), None, "from {start}");
            }
        }
    }

    /// End-to-end no-oscillation: a device fed a *constant-compressibility*
    /// data mix, swept repeatedly by the policy, retargets at most once and
    /// then never again (the guarantee the replay sweep relies on).
    #[test]
    fn constant_compressibility_never_oscillates() {
        let mut dev = BuddyDevice::new(DeviceConfig {
            device_capacity: 1 << 20,
            carve_out_factor: 3,
        });
        let a = dev.alloc("steady", 256, TargetRatio::R1).unwrap();
        let policy = RetargetPolicy::new(AdaptConfig::default());
        let mut current = TargetRatio::R1;
        let mut retargets = 0;
        for round in 0..8u64 {
            // The same 90/10 one-sector/incompressible mix every round.
            for i in 0..256u64 {
                let mut e = [0u8; ENTRY_BYTES];
                if i % 10 == 9 {
                    let mut s = round * 1000 + i + 1;
                    for b in e.iter_mut() {
                        s = s
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        *b = (s >> 33) as u8;
                    }
                } else {
                    let w = (1_000_000 + i) as u32;
                    for c in e.chunks_exact_mut(4) {
                        c.copy_from_slice(&w.to_le_bytes());
                    }
                }
                dev.write_entries(a, i, &[e]).unwrap();
            }
            let window = dev.state_window(a).unwrap();
            if let Some(next) = policy.recommend(current, &window) {
                dev.retarget(a, next).unwrap();
                current = next;
                retargets += 1;
            }
        }
        assert_eq!(
            retargets, 1,
            "constant mix must converge in one step (to 4x) and stay"
        );
        assert_eq!(current, TargetRatio::R4);
        assert_eq!(dev.stats().retargets, 1);
    }
}
