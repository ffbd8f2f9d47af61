//! Property-based round-trip tests for every compressor in the crate.
//!
//! The central invariant of a lossless hardware compressor is
//! `decompress(compress(e)) == e` for *every* 128-byte entry. We drive each
//! codec with several adversarial distributions: uniformly random bytes,
//! structured numeric data (where the codecs actually compress), and
//! boundary patterns.

use bpc::{
    BaseDeltaImmediate, BitPlane, Codec, CompressedBuf, FrequentPattern, SizeClass, ZeroRle,
    ENTRY_BYTES,
};
use proptest::prelude::*;

fn assert_round_trip(codec: &dyn Codec, entry: &[u8; ENTRY_BYTES]) {
    let mut compressed = CompressedBuf::new();
    codec.compress_into(entry, &mut compressed);
    let mut restored = [0xFFu8; ENTRY_BYTES];
    codec
        .decompress_into(compressed.data(), compressed.bits(), &mut restored)
        .unwrap_or_else(|e| panic!("{} failed to decode its own output: {e}", codec.name()));
    assert_eq!(&restored, entry, "{} round-trip mismatch", codec.name());
}

fn entry_strategy() -> impl Strategy<Value = [u8; ENTRY_BYTES]> {
    proptest::array::uniform32(any::<u32>()).prop_map(|words| {
        let mut entry = [0u8; ENTRY_BYTES];
        for (chunk, w) in entry.chunks_exact_mut(4).zip(words.iter()) {
            chunk.copy_from_slice(&w.to_le_bytes());
        }
        entry
    })
}

/// Structured data: base + small noise, the regime where BPC/BDI shine.
fn structured_strategy() -> impl Strategy<Value = [u8; ENTRY_BYTES]> {
    (
        any::<u32>(),
        0u32..1024,
        proptest::array::uniform32(0u32..256),
    )
        .prop_map(|(base, stride, noise)| {
            let mut entry = [0u8; ENTRY_BYTES];
            for (i, chunk) in entry.chunks_exact_mut(4).enumerate() {
                let v = base
                    .wrapping_add(stride.wrapping_mul(i as u32))
                    .wrapping_add(noise[i]);
                chunk.copy_from_slice(&v.to_le_bytes());
            }
            entry
        })
}

/// Floating-point-like data: a smooth f32 ramp.
fn float_strategy() -> impl Strategy<Value = [u8; ENTRY_BYTES]> {
    (-1e6f32..1e6f32, -1.0f32..1.0f32).prop_map(|(start, step)| {
        let mut entry = [0u8; ENTRY_BYTES];
        for (i, chunk) in entry.chunks_exact_mut(4).enumerate() {
            let v = start + step * i as f32;
            chunk.copy_from_slice(&v.to_bits().to_le_bytes());
        }
        entry
    })
}

/// Sparse data: mostly zero with a few random words.
fn sparse_strategy() -> impl Strategy<Value = [u8; ENTRY_BYTES]> {
    (proptest::collection::vec((0usize..32, any::<u32>()), 0..6)).prop_map(|spikes| {
        let mut entry = [0u8; ENTRY_BYTES];
        for (pos, val) in spikes {
            entry[pos * 4..pos * 4 + 4].copy_from_slice(&val.to_le_bytes());
        }
        entry
    })
}

macro_rules! round_trip_suite {
    ($name:ident, $codec:expr) => {
        mod $name {
            use super::*;

            proptest! {
                #![proptest_config(ProptestConfig::with_cases(256))]

                #[test]
                fn random(entry in entry_strategy()) {
                    assert_round_trip(&$codec, &entry);
                }

                #[test]
                fn structured(entry in structured_strategy()) {
                    assert_round_trip(&$codec, &entry);
                }

                #[test]
                fn floats(entry in float_strategy()) {
                    assert_round_trip(&$codec, &entry);
                }

                #[test]
                fn sparse(entry in sparse_strategy()) {
                    assert_round_trip(&$codec, &entry);
                }

                #[test]
                fn size_class_is_monotone_bound(entry in entry_strategy()) {
                    let mut compressed = CompressedBuf::new();
                    $codec.compress_into(&entry, &mut compressed);
                    let class = compressed.size_class();
                    // The class always holds the payload...
                    prop_assert!(class.bytes() * 8 >= compressed.bits() || class == SizeClass::B128);
                    // ...and sectors follow the class.
                    prop_assert_eq!(compressed.sectors(), class.sectors().max(1));
                }
            }
        }
    };
}

round_trip_suite!(bitplane, BitPlane::new());
round_trip_suite!(bdi, BaseDeltaImmediate::new());
round_trip_suite!(fpc, FrequentPattern::new());
round_trip_suite!(zero_rle, ZeroRle::new());

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Decoders must never panic on arbitrary bitstreams — they either decode
    /// or report a structured error.
    #[test]
    fn bpc_decoder_total_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..320), bits in 0usize..2600) {
        let _ = BitPlane::new().decompress_into(&data, bits, &mut [0u8; ENTRY_BYTES]);
    }

    #[test]
    fn bdi_decoder_total_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..160), bits in 0usize..1300) {
        let _ = BaseDeltaImmediate::new().decompress_into(&data, bits, &mut [0u8; ENTRY_BYTES]);
    }

    #[test]
    fn fpc_decoder_total_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..160), bits in 0usize..1300) {
        let _ = FrequentPattern::new().decompress_into(&data, bits, &mut [0u8; ENTRY_BYTES]);
    }

    #[test]
    fn zero_decoder_total_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..160), bits in 0usize..1300) {
        let _ = ZeroRle::new().decompress_into(&data, bits, &mut [0u8; ENTRY_BYTES]);
    }

    /// BPC never reports fewer than 9 bits (base flag + minimal plane code)
    /// and is the best of the four algorithms on smooth numeric ramps.
    #[test]
    fn bpc_beats_fpc_on_smooth_ramps(start in 0u32..1_000_000, step in 1u32..64) {
        let mut entry = [0u8; ENTRY_BYTES];
        for (i, chunk) in entry.chunks_exact_mut(4).enumerate() {
            chunk.copy_from_slice(&start.wrapping_add(step * i as u32).to_le_bytes());
        }
        let mut buf = CompressedBuf::new();
        BitPlane::new().compress_into(&entry, &mut buf);
        let bpc_bits = buf.bits();
        FrequentPattern::new().compress_into(&entry, &mut buf);
        let fpc_bits = buf.bits();
        prop_assert!(bpc_bits >= 9);
        prop_assert!(bpc_bits <= fpc_bits,
            "BPC ({bpc_bits}) should beat FPC ({fpc_bits}) on ramps");
    }
}
