//! Tests of the online half of the admission rule:
//! [`ProfileConfig::recommend`](crate::ProfileConfig::recommend) over
//! [`DeviceHandle::state_window`](crate::DeviceHandle::state_window)
//! histograms, driving [`BuddyDevice::retarget`](crate::BuddyDevice::retarget).
//! A test-only module: the policy itself lives in `profile`.

#[cfg(test)]
mod tests {
    use crate::device::{BuddyDevice, DeviceConfig};
    use crate::metadata::EntryState;
    use crate::profile::ProfileConfig;
    use crate::target::TargetRatio;
    use bpc::{Codec, CodecKind, CompressedBuf, Entry, SizeClass, SizeHistogram, ENTRY_BYTES};

    /// A window of `zero` tracked zeros, `le8` zero-page fits, plus
    /// `per_sectors[k]` entries stored in `k + 1` sectors — binned exactly
    /// as `state_window` bins live states.
    fn window(zero: u64, le8: u64, per_sectors: [u64; 4]) -> SizeHistogram {
        let mut w = SizeHistogram::new();
        w.record_n(EntryState::Zero.footprint_class(), zero);
        w.record_n(EntryState::ZeroPageFit.footprint_class(), le8);
        for (k, &n) in per_sectors.iter().enumerate() {
            let sectors = k as u8 + 1;
            w.record_n(EntryState::Compressed { sectors }.footprint_class(), n);
        }
        w
    }

    fn overflow(t: TargetRatio, w: &SizeHistogram) -> f64 {
        t.overflow_fraction(w)
    }

    #[test]
    fn window_overflow_fractions() {
        let w = window(20, 10, [40, 10, 0, 20]);
        assert_eq!(w.total(), 100);
        assert_eq!(w.count(SizeClass::B0), 20);
        // 1x fits everything.
        assert_eq!(overflow(TargetRatio::R1, &w), 0.0);
        // 2x: the 20 four-sector entries overflow.
        assert!((overflow(TargetRatio::R2, &w) - 0.20).abs() < 1e-12);
        // 4x: the 10 two-sector + 20 four-sector entries overflow.
        assert!((overflow(TargetRatio::R4, &w) - 0.30).abs() < 1e-12);
        // 16x: only zeros and sub-granule entries fit.
        assert!((overflow(TargetRatio::ZeroPage16, &w) - 0.70).abs() < 1e-12);
    }

    #[test]
    fn zero_page_overflow_counts_as_incompressible() {
        let mut w = SizeHistogram::new();
        w.record_n(EntryState::ZeroPageOverflow.footprint_class(), 4);
        assert_eq!(overflow(TargetRatio::R1, &w), 0.0);
        assert_eq!(overflow(TargetRatio::R2, &w), 1.0);
        assert_eq!(overflow(TargetRatio::ZeroPage16, &w), 1.0);
    }

    #[test]
    fn small_windows_are_ignored() {
        let policy = ProfileConfig::default();
        let w = window(10, 0, [0, 0, 0, 10]); // 50% overflow under anything
        assert_eq!(policy.recommend(TargetRatio::R4, &w), None);
    }

    #[test]
    fn demotion_is_direct() {
        let policy = ProfileConfig::default();
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
        let policy = ProfileConfig::default();
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
        let policy = ProfileConfig::default();
        // 4x is the admissible pick (28% overflow <= 30%) but lacks
        // promotion headroom; 2x has 10% overflow — promote to 2x instead.
        let w = window(0, 0, [72, 18, 4, 6]);
        assert!((overflow(TargetRatio::R4, &w) - 0.28).abs() < 1e-12);
        assert!((overflow(TargetRatio::R2, &w) - 0.10).abs() < 1e-12);
        assert_eq!(policy.recommend(TargetRatio::R1, &w), Some(TargetRatio::R2));
    }

    #[test]
    fn zero_page_promotion_is_conservative() {
        let policy = ProfileConfig::default();
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
        let no_zp = ProfileConfig::per_allocation_only();
        assert_eq!(no_zp.recommend(TargetRatio::R4, &w), None);
    }

    #[test]
    fn stationary_window_reaches_a_fixed_point_from_every_start() {
        let policy = ProfileConfig::default();
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

    /// `n` seeded entries: zeros, and words carrying 0–32 bits of noise
    /// over a common base, so every stored sector count from 0 to 4
    /// occurs — one-sector entries both under and over the 8 B granule
    /// among them.
    fn seeded_mix(n: u64, mut seed: u64) -> Vec<Entry> {
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 32) as u32
        };
        let noise_bits = [0u32, 1, 2, 4, 8, 12, 32];
        (0..n)
            .map(|_| {
                let mut e = [0u8; ENTRY_BYTES];
                let pick = next() as usize % (noise_bits.len() + 1);
                if let Some(&bits) = noise_bits.get(pick) {
                    let mask = u32::MAX.checked_shr(32 - bits).unwrap_or(0);
                    for c in e.chunks_exact_mut(4) {
                        c.copy_from_slice(&(0x0100_0000 ^ (next() & mask)).to_le_bytes());
                    }
                }
                e
            })
            .collect()
    }

    /// Online ≡ offline: the histogram `state_window` reads back from live
    /// metadata gives every standard target the same overflow fraction as
    /// the profile histogram of the same entries, bit for bit, so the
    /// online and offline pickers cannot disagree. For 16× the window
    /// cannot see sub-granule entries stored in a sector, so it may only
    /// ever be the more pessimistic of the two.
    #[test]
    fn online_window_matches_offline_profile() {
        for seed in [1u64, 7, 0xB0DD7] {
            let entries = seeded_mix(512, seed);
            let mut dev = BuddyDevice::new(DeviceConfig {
                device_capacity: 1 << 20,
                carve_out_factor: 3,
            });
            let a = dev.alloc("mix", 512, TargetRatio::R1).unwrap();
            dev.write_entries(a, 0, &entries).unwrap();
            let online = dev.handle().state_window(a).unwrap();

            let mut scratch = CompressedBuf::new();
            let offline: SizeHistogram = entries
                .iter()
                .map(|e| CodecKind::Bpc.size_class_into(e, &mut scratch))
                .collect();
            assert_eq!(online.total(), offline.total());
            assert!(
                offline.count(SizeClass::B8) > 0 && offline.count(SizeClass::B32) > 0,
                "the mix must hold one-sector entries on both sides of 8 B"
            );
            for t in TargetRatio::STANDARD_DESCENDING {
                assert_eq!(
                    t.overflow_fraction(&online).to_bits(),
                    t.overflow_fraction(&offline).to_bits(),
                    "seed {seed}, {t}"
                );
            }
            let zp = TargetRatio::ZeroPage16;
            assert!(
                zp.overflow_fraction(&online) >= zp.overflow_fraction(&offline),
                "seed {seed}: the window must never fit 16x better than the data"
            );
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
        let policy = ProfileConfig::default();
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
            let window = dev.handle().state_window(a).unwrap();
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
