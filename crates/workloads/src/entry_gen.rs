//! Deterministic generators for 128-byte memory-entries with controllable
//! Bit-Plane-Compression compressibility.
//!
//! The paper's evaluation runs BPC over real memory dumps of 16 GPU
//! benchmarks. Those dumps are not available, so we synthesize entries whose
//! *measured* BPC size class is predictable: a constant base word plus
//! `noise_bits` of white noise per word lands in a known [`SizeClass`]
//! (verified by tests in this module). Benchmarks are then described as
//! mixtures over target size classes — the data is still real bytes pushed
//! through the real compressor.

use bpc::{Entry, SizeClass, ENTRY_BYTES};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// SplitMix64: cheap, high-quality hash used to derive per-entry seeds.
///
/// Every entry of every allocation is generated from
/// `splitmix64(alloc_seed ^ entry_index ...)`, which makes snapshots
/// reproducible, order-independent and cheap to sample.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Combines several seed components into one.
pub fn mix(parts: &[u64]) -> u64 {
    let mut h = 0x243F_6A88_85A3_08D3u64;
    for &p in parts {
        h = splitmix64(h ^ p);
    }
    h
}

/// A family of 128-byte entry values with a characteristic BPC size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EntryClass {
    /// All-zero entry (tracked-zero; [`SizeClass::B0`]).
    Zero,
    /// A constant random base word with `noise_bits` of independent white
    /// noise added to each word. `noise_bits == 0` is a constant block.
    Noisy {
        /// Number of low-order noise bits per 32-bit word (0–31).
        noise_bits: u8,
    },
    /// A linear ramp `base + i * stride`; deltas are constant, so this is
    /// nearly as compressible as a constant block regardless of stride.
    Ramp {
        /// Number of bits in the random stride (1–24).
        stride_bits: u8,
    },
    /// Uniformly random words — incompressible under every algorithm.
    Random,
}

impl EntryClass {
    /// A representative generator whose measured BPC size class is `class`.
    ///
    /// The `noise_bits` choices are verified by the `class_targets_are_met`
    /// test below: BPC on a constant base plus `m`-bit noise costs roughly
    /// `42 + 32 (m + 1)` bits, which quantizes into the desired class.
    pub fn for_target(class: SizeClass) -> Self {
        match class {
            SizeClass::B0 => EntryClass::Zero,
            SizeClass::B8 => EntryClass::Noisy { noise_bits: 0 },
            SizeClass::B16 => EntryClass::Noisy { noise_bits: 1 },
            SizeClass::B32 => EntryClass::Noisy { noise_bits: 4 },
            SizeClass::B64 => EntryClass::Noisy { noise_bits: 10 },
            SizeClass::B80 => EntryClass::Noisy { noise_bits: 15 },
            SizeClass::B96 => EntryClass::Noisy { noise_bits: 19 },
            SizeClass::B128 => EntryClass::Random,
        }
    }

    /// The size class this generator is designed to land in, without
    /// running the compressor (used by the performance simulator, which
    /// needs per-entry sector counts on every cache miss).
    ///
    /// `class_targets_are_met` verifies ≥90% of generated entries measure
    /// exactly this class under real BPC.
    pub fn nominal_size_class(self) -> SizeClass {
        match self {
            EntryClass::Zero => SizeClass::B0,
            EntryClass::Ramp { .. } => SizeClass::B8,
            EntryClass::Random => SizeClass::B128,
            // A constant block costs base (33) + one run code (8) = 41 bits;
            // m-bit noise adds m raw planes plus the sign-boundary plane.
            EntryClass::Noisy { noise_bits: 0 } => SizeClass::for_bits(41),
            EntryClass::Noisy { noise_bits } => {
                let bits = 42 + 32 * (noise_bits as usize + 1);
                SizeClass::for_bits(bits)
            }
        }
    }

    /// Generates the entry for this class from a per-entry seed.
    pub fn generate(self, seed: u64) -> Entry {
        let mut rng = SmallRng::seed_from_u64(splitmix64(seed));
        let mut entry = [0u8; ENTRY_BYTES];
        match self {
            EntryClass::Zero => {}
            EntryClass::Noisy { noise_bits } => {
                let noise_bits = noise_bits.min(31);
                // Keep the base away from wrap-around so deltas stay small.
                let base: u32 = rng.gen_range(1u32 << 28..1u32 << 30);
                let mask = if noise_bits == 0 {
                    0
                } else {
                    (1u32 << noise_bits) - 1
                };
                for chunk in entry.chunks_exact_mut(4) {
                    let v = base.wrapping_add(rng.gen::<u32>() & mask);
                    chunk.copy_from_slice(&v.to_le_bytes());
                }
            }
            EntryClass::Ramp { stride_bits } => {
                let stride_bits = stride_bits.clamp(1, 24);
                let base: u32 = rng.gen_range(0..1u32 << 28);
                let stride: u32 = rng.gen_range(1..1u32 << stride_bits);
                for (i, chunk) in entry.chunks_exact_mut(4).enumerate() {
                    let v = base.wrapping_add(stride.wrapping_mul(i as u32));
                    chunk.copy_from_slice(&v.to_le_bytes());
                }
            }
            EntryClass::Random => {
                rng.fill(&mut entry[..]);
            }
        }
        entry
    }
}

/// A weighted mixture of entry classes describing one allocation's data.
///
/// Weights need not sum to one; they are normalized internally.
#[derive(Debug, Clone, PartialEq)]
pub struct MixtureProfile {
    components: Vec<(f64, EntryClass)>,
}

impl MixtureProfile {
    /// Builds a mixture from `(weight, class)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `components` is empty or any weight is negative or all
    /// weights are zero.
    pub fn new(components: Vec<(f64, EntryClass)>) -> Self {
        assert!(
            !components.is_empty(),
            "mixture needs at least one component"
        );
        assert!(
            components.iter().all(|(w, _)| *w >= 0.0),
            "mixture weights must be non-negative"
        );
        let total: f64 = components.iter().map(|(w, _)| w).sum();
        assert!(total > 0.0, "mixture weights must not all be zero");
        Self { components }
    }

    /// Builds a mixture directly from target size-class weights.
    pub fn from_class_weights(weights: &[(SizeClass, f64)]) -> Self {
        Self::new(
            weights
                .iter()
                .map(|&(class, w)| (w, EntryClass::for_target(class)))
                .collect(),
        )
    }

    /// A mixture that is a single class.
    pub fn uniform(class: EntryClass) -> Self {
        Self::new(vec![(1.0, class)])
    }

    /// The mixture components (weight, class), unnormalized.
    pub fn components(&self) -> &[(f64, EntryClass)] {
        &self.components
    }

    /// Picks a component deterministically from `u` in `[0, 1)`.
    pub fn pick(&self, u: f64) -> EntryClass {
        let total: f64 = self.components.iter().map(|(w, _)| w).sum();
        let mut acc = 0.0;
        for &(w, class) in &self.components {
            acc += w / total;
            if u < acc {
                return class;
            }
        }
        self.components.last().expect("non-empty mixture").1 // lint-allow(no-unwrap): mixtures are constructed non-empty
    }

    /// Expected compressed bytes per entry if every component hit its
    /// nominal target class exactly (zero entries charged the 8 B zero-page
    /// granule). Used for spec-design sanity checks, not for results.
    pub fn nominal_bytes_per_entry(&self) -> f64 {
        let total: f64 = self.components.iter().map(|(w, _)| w).sum();
        self.components
            .iter()
            .map(|&(w, class)| {
                let bytes = match class {
                    EntryClass::Zero => 8.0,
                    EntryClass::Noisy { noise_bits } => {
                        let bits = 42.0 + 32.0 * (noise_bits as f64 + 1.0);
                        SizeClass::for_bits(bits as usize).bytes() as f64
                    }
                    EntryClass::Ramp { .. } => 8.0,
                    EntryClass::Random => 128.0,
                };
                w / total * bytes
            })
            .sum()
    }

    /// Nominal compression ratio of this mixture (`128 / nominal bytes`).
    pub fn nominal_ratio(&self) -> f64 {
        ENTRY_BYTES as f64 / self.nominal_bytes_per_entry()
    }
}

/// Uniform `[0, 1)` value derived from a hash.
pub fn unit_from_hash(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpc::{Codec, CodecKind, CompressedBuf};

    #[test]
    fn splitmix_is_deterministic_and_spreads() {
        assert_eq!(splitmix64(0), splitmix64(0));
        assert_ne!(splitmix64(0), splitmix64(1));
        assert_ne!(mix(&[1, 2]), mix(&[2, 1]));
    }

    #[test]
    fn class_targets_are_met() {
        // The generators target *BPC* size classes (the paper's profiler);
        // classification runs the zero-allocation path the samplers use.
        let codec = CodecKind::Bpc;
        let mut scratch = CompressedBuf::new();
        for target in SizeClass::ALL {
            let class = EntryClass::for_target(target);
            let mut hits = 0;
            let samples = 200;
            for i in 0..samples {
                let entry = class.generate(mix(&[0xC0FFEE, i]));
                let measured = codec.size_class_into(&entry, &mut scratch);
                if measured == target {
                    hits += 1;
                }
            }
            assert!(
                hits * 10 >= samples * 9,
                "{target}: only {hits}/{samples} samples hit the target class"
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let class = EntryClass::Noisy { noise_bits: 8 };
        assert_eq!(class.generate(42), class.generate(42));
        assert_ne!(class.generate(42), class.generate(43));
    }

    #[test]
    fn ramp_is_highly_compressible_even_with_large_stride() {
        // A constant delta produces at most ~20 all-ones plane codes (5 bits
        // each) plus run codes — always within one sector.
        let codec = CodecKind::Bpc;
        let mut scratch = CompressedBuf::new();
        for seed in 0..50 {
            let entry = EntryClass::Ramp { stride_bits: 20 }.generate(seed);
            codec.compress_into(&entry, &mut scratch);
            let bits = scratch.bits();
            assert!(bits <= 32 * 8, "ramp compressed to {bits} bits");
        }
    }

    #[test]
    fn mixture_pick_respects_weights() {
        let m = MixtureProfile::new(vec![(3.0, EntryClass::Zero), (1.0, EntryClass::Random)]);
        assert_eq!(m.pick(0.0), EntryClass::Zero);
        assert_eq!(m.pick(0.74), EntryClass::Zero);
        assert_eq!(m.pick(0.76), EntryClass::Random);
        assert_eq!(m.pick(0.999), EntryClass::Random);
    }

    #[test]
    fn mixture_nominal_ratio() {
        let m = MixtureProfile::from_class_weights(&[(SizeClass::B64, 1.0)]);
        assert!((m.nominal_ratio() - 2.0).abs() < 1e-9);
        let m = MixtureProfile::from_class_weights(&[(SizeClass::B128, 1.0)]);
        assert!((m.nominal_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one component")]
    fn empty_mixture_panics() {
        MixtureProfile::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_panics() {
        MixtureProfile::new(vec![(-1.0, EntryClass::Zero)]);
    }

    #[test]
    fn unit_from_hash_in_range() {
        for i in 0..1000 {
            let u = unit_from_hash(splitmix64(i));
            assert!((0.0..1.0).contains(&u));
        }
    }
}
