//! Bit-Plane Compression (BPC) after Kim, Sullivan, Choukse and Erez,
//! *"Bit-Plane Compression: Transforming Data for Better Compression in
//! Many-Core Architectures"*, ISCA 2016.
//!
//! BPC is the compression algorithm Buddy Compression builds on. It exploits
//! the *homogeneity* of GPU data (large arrays of one numeric type) through a
//! three-step transform followed by variable-length coding:
//!
//! 1. **Delta transform.** The 128 B entry is read as 32 little-endian 32-bit
//!    symbols. The first symbol is the *base*; the remaining 31 symbols are
//!    replaced by their successive differences (33-bit signed deltas).
//! 2. **Bit-plane transform (DBP).** The 31 deltas are transposed into 33
//!    *delta bit-planes*, each 31 bits wide: plane `b` collects bit `b` of
//!    every delta. Homogeneous data concentrates entropy into few planes.
//! 3. **XOR transform (DBX).** Each plane is XORed with its more-significant
//!    neighbor (`DBX[b] = DBP[b] ^ DBP[b+1]`, `DBX[32] = DBP[32]`), turning
//!    runs of identical planes into all-zero planes.
//!
//! The 33 DBX planes are then encoded most-significant-plane first with the
//! prefix-free code of the original paper (Table 3 structure):
//!
//! | pattern                          | code                   | bits |
//! |----------------------------------|------------------------|------|
//! | run of 2–33 all-zero planes      | `001` + 5-bit (len−2)  | 8    |
//! | single all-zero plane            | `01`                   | 2    |
//! | all-ones plane                   | `00000`                | 5    |
//! | DBX ≠ 0 but DBP = 0              | `00001`                | 5    |
//! | two consecutive ones             | `00010` + 5-bit pos    | 10   |
//! | single one                       | `00011` + 5-bit pos    | 10   |
//! | uncompressed plane               | `1` + 31 raw bits      | 32   |
//!
//! The base symbol is coded as `0` when zero, else `1` + 32 raw bits (a minor
//! simplification of the original base encoder, documented in DESIGN.md §2).
//!
//! Decoding inverts every step exactly; round-trip is property-tested.

use crate::bits::{BitReader, BitWriter};
use crate::{from_symbols, to_symbols, Codec, CompressedBuf, DecodeError, Entry};

/// Number of 32-bit symbols in one 128 B entry.
pub const SYMBOLS: usize = 32;
/// Number of deltas (symbols − 1).
pub const DELTAS: usize = SYMBOLS - 1;
/// Number of bit-planes (deltas are 33-bit signed values).
pub const PLANES: usize = 33;
/// Mask selecting the 31 valid bits of one plane.
const PLANE_MASK: u32 = 0x7FFF_FFFF;
/// Mask selecting the 33 valid bits of one delta.
const DELTA_MASK: u64 = 0x1_FFFF_FFFF;

/// The Bit-Plane Compression codec.
///
/// Stateless; construct once and reuse freely (it is `Copy`).
///
/// # Example
///
/// ```
/// use bpc::{BitPlane, Codec, CompressedBuf};
///
/// let codec = BitPlane::new();
/// let zeros = [0u8; 128];
/// let mut buf = CompressedBuf::new();
/// codec.compress_into(&zeros, &mut buf);
/// // base flag (1) + one run code covering all 33 planes (8) = 9 bits.
/// assert_eq!(buf.bits(), 9);
/// let mut out = [0xFFu8; 128];
/// codec.decompress_into(buf.data(), buf.bits(), &mut out).unwrap();
/// assert_eq!(out, zeros);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BitPlane;

impl BitPlane {
    /// Stable algorithm name returned by [`Codec::name`].
    pub const NAME: &'static str = "bpc";

    /// Creates the codec.
    pub fn new() -> Self {
        Self
    }

    /// Computes the 31 successive 33-bit deltas of the symbol stream.
    ///
    /// Each delta is `symbols[i+1] - symbols[i]` in 33-bit two's complement,
    /// stored in the low 33 bits of a `u64`.
    fn deltas(symbols: &[u32; SYMBOLS]) -> [u64; DELTAS] {
        let mut deltas = [0u64; DELTAS];
        for i in 0..DELTAS {
            let d = symbols[i + 1] as i64 - symbols[i] as i64;
            deltas[i] = (d as u64) & DELTA_MASK;
        }
        deltas
    }

    /// Transposes deltas into 33 delta bit-planes of 31 bits each.
    fn delta_bit_planes(deltas: &[u64; DELTAS]) -> [u32; PLANES] {
        let mut planes = [0u32; PLANES];
        for (b, plane) in planes.iter_mut().enumerate() {
            let mut p = 0u32;
            for (i, &d) in deltas.iter().enumerate() {
                p |= (((d >> b) & 1) as u32) << i;
            }
            *plane = p;
        }
        planes
    }

    /// XORs each plane with its more-significant neighbor.
    fn dbx(dbp: &[u32; PLANES]) -> [u32; PLANES] {
        let mut dbx = [0u32; PLANES];
        for b in 0..PLANES - 1 {
            dbx[b] = dbp[b] ^ dbp[b + 1];
        }
        dbx[PLANES - 1] = dbp[PLANES - 1];
        dbx
    }

    /// Encodes the planes (most-significant first) with the BPC code table.
    fn encode_planes(w: &mut BitWriter, dbp: &[u32; PLANES], dbx: &[u32; PLANES]) {
        let mut b = PLANES; // iterate b-1 from 32 down to 0
        while b > 0 {
            b -= 1;
            if dbx[b] == 0 {
                // Count the zero run downward (including plane b).
                let mut run = 1usize;
                while b > 0 && dbx[b - 1] == 0 && run < PLANES {
                    b -= 1;
                    run += 1;
                }
                if run == 1 {
                    w.push_bits(0b01, 2);
                } else {
                    w.push_bits(0b001, 3);
                    w.push_bits((run - 2) as u64, 5);
                }
            } else if dbp[b] == 0 {
                w.push_bits(0b00001, 5);
            } else if dbx[b] == PLANE_MASK {
                w.push_bits(0b00000, 5);
            } else if dbx[b].count_ones() == 1 {
                w.push_bits(0b00011, 5);
                w.push_bits(dbx[b].trailing_zeros() as u64, 5);
            } else if dbx[b].count_ones() == 2 {
                let pos = dbx[b].trailing_zeros();
                if dbx[b] == 0b11 << pos {
                    w.push_bits(0b00010, 5);
                    w.push_bits(pos as u64, 5);
                } else {
                    w.push_bit(true);
                    w.push_bits(dbx[b] as u64, 31);
                }
            } else {
                w.push_bit(true);
                w.push_bits(dbx[b] as u64, 31);
            }
        }
    }

    /// Decodes the 33 DBP planes from the bitstream.
    fn decode_planes(r: &mut BitReader<'_>) -> Result<[u32; PLANES], DecodeError> {
        let mut dbp = [0u32; PLANES];
        let mut prev_dbp = 0u32; // DBP[b+1]; zero above the top plane.
        let mut b = PLANES;
        while b > 0 {
            b -= 1;
            let dbx_val: u32;
            if r.read_bit()? {
                // `1` + 31 raw bits: uncompressed plane.
                dbx_val = r.read_bits(31)? as u32;
            } else if r.read_bit()? {
                // `01`: single all-zero DBX plane.
                dbx_val = 0;
            } else if r.read_bit()? {
                // `001` + 5: run of 2–33 all-zero DBX planes.
                let run = r.read_bits(5)? as usize + 2;
                if run > b + 1 {
                    // Run longer than the planes remaining (plane `b` plus
                    // the `b` planes below it).
                    return Err(DecodeError::InvalidCode {
                        bit_offset: r.bit_offset(),
                    });
                }
                // DBX == 0 means DBP[b] == DBP[b+1] for every plane in the
                // run. Leave `b` at the last plane of the run so the outer
                // loop steps to the next unprocessed plane.
                dbp[b] = prev_dbp;
                for _ in 1..run {
                    b -= 1;
                    dbp[b] = prev_dbp;
                }
                // `prev_dbp` is unchanged; continue with the next code.
                continue;
            } else {
                // `000` + 2 more bits: one of the four 5-bit codes.
                match r.read_bits(2)? {
                    0b00 => dbx_val = PLANE_MASK, // all-ones
                    0b01 => {
                        // DBX != 0 but DBP == 0.
                        dbp[b] = 0;
                        prev_dbp = 0;
                        continue;
                    }
                    0b10 => {
                        let pos = r.read_bits(5)? as u32;
                        if pos > 29 {
                            return Err(DecodeError::InvalidCode {
                                bit_offset: r.bit_offset(),
                            });
                        }
                        dbx_val = 0b11 << pos; // two consecutive ones
                    }
                    _ => {
                        let pos = r.read_bits(5)? as u32;
                        if pos > 30 {
                            return Err(DecodeError::InvalidCode {
                                bit_offset: r.bit_offset(),
                            });
                        }
                        dbx_val = 1 << pos; // single one
                    }
                }
            }
            dbp[b] = dbx_val ^ prev_dbp;
            prev_dbp = dbp[b];
        }
        Ok(dbp)
    }

    /// Rebuilds the deltas from decoded bit-planes.
    fn planes_to_deltas(dbp: &[u32; PLANES]) -> [u64; DELTAS] {
        let mut deltas = [0u64; DELTAS];
        for (b, &plane) in dbp.iter().enumerate() {
            for (i, delta) in deltas.iter_mut().enumerate() {
                *delta |= (((plane >> i) & 1) as u64) << b;
            }
        }
        deltas
    }

    /// Sign-extends a 33-bit two's-complement value to `i64`.
    fn sign_extend_33(v: u64) -> i64 {
        ((v << 31) as i64) >> 31
    }
}

impl Codec for BitPlane {
    fn name(&self) -> &'static str {
        Self::NAME
    }

    fn compress_into(&self, entry: &Entry, out: &mut CompressedBuf) {
        let symbols = to_symbols(entry);
        let deltas = Self::deltas(&symbols);
        let dbp = Self::delta_bit_planes(&deltas);
        let dbx = Self::dbx(&dbp);

        let mut w = out.begin();
        // Base symbol: `0` when zero, else `1` + 32 raw bits.
        if symbols[0] == 0 {
            w.push_bit(false);
        } else {
            w.push_bit(true);
            w.push_bits(symbols[0] as u64, 32);
        }
        Self::encode_planes(&mut w, &dbp, &dbx);
        out.finish(w);
    }

    fn decompress_into(
        &self,
        data: &[u8],
        bits: usize,
        out: &mut Entry,
    ) -> Result<(), DecodeError> {
        let mut r = BitReader::new(data, bits);
        let base = if r.read_bit()? {
            r.read_bits(32)? as u32
        } else {
            0
        };
        let dbp = Self::decode_planes(&mut r)?;
        let deltas = Self::planes_to_deltas(&dbp);

        let mut symbols = [0u32; SYMBOLS];
        symbols[0] = base;
        for i in 0..DELTAS {
            let d = Self::sign_extend_33(deltas[i]);
            symbols[i + 1] = (symbols[i] as i64).wrapping_add(d) as u32;
        }
        *out = from_symbols(&symbols);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry_from_words(mut f: impl FnMut(usize) -> u32) -> Entry {
        let mut symbols = [0u32; SYMBOLS];
        for (i, s) in symbols.iter_mut().enumerate() {
            *s = f(i);
        }
        from_symbols(&symbols)
    }

    fn round_trip(entry: &Entry) -> usize {
        let codec = BitPlane::new();
        let mut c = CompressedBuf::new();
        codec.compress_into(entry, &mut c);
        let mut out = [0xFFu8; 128];
        codec.decompress_into(c.data(), c.bits(), &mut out).unwrap();
        assert_eq!(&out, entry, "round-trip mismatch");
        c.bits()
    }

    #[test]
    fn all_zero_is_nine_bits() {
        let bits = round_trip(&[0u8; 128]);
        assert_eq!(bits, 9); // 1 base flag + 8-bit run code for 33 planes
    }

    #[test]
    fn constant_words_compress_tightly() {
        let entry = entry_from_words(|_| 0x3F80_0000); // 1.0f32 repeated
        let bits = round_trip(&entry);
        // Deltas are all zero: base (33) + run code (8) = 41 bits.
        assert_eq!(bits, 41);
    }

    #[test]
    fn linear_ramp_compresses_tightly() {
        let entry = entry_from_words(|i| 7 + 3 * i as u32);
        let bits = round_trip(&entry);
        // Constant delta of 3: two low planes identical-ones, rest zero.
        assert!(
            bits < 128,
            "ramp should compress far below 128 bits, got {bits}"
        );
    }

    #[test]
    fn smooth_floats_compress() {
        let entry = entry_from_words(|i| (1.0f32 + i as f32 * 1e-4).to_bits());
        let bits = round_trip(&entry);
        assert!(
            bits < 512,
            "smooth floats should compress below 64 B, got {bits}"
        );
    }

    #[test]
    fn random_data_round_trips_and_is_incompressible() {
        // xorshift-style deterministic pseudo-random words.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let entry = entry_from_words(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 16) as u32
        });
        let bits = round_trip(&entry);
        assert!(
            bits > 1024,
            "random data should exceed 128 B, got {bits} bits"
        );
    }

    #[test]
    fn alternating_extremes_round_trip() {
        let entry = entry_from_words(|i| if i % 2 == 0 { u32::MAX } else { 0 });
        round_trip(&entry);
    }

    #[test]
    fn max_negative_deltas_round_trip() {
        let entry = entry_from_words(|i| if i == 0 { u32::MAX } else { 0 });
        round_trip(&entry);
    }

    #[test]
    fn single_one_and_two_ones_codes_exercised() {
        // A single delta of 1 at position 5 produces single-one planes.
        let entry = entry_from_words(|i| if i > 5 { 1 } else { 0 });
        round_trip(&entry);
        // Two adjacent deltas produce two-consecutive-ones planes.
        let entry = entry_from_words(|i| if i > 5 && i < 8 { 1 } else { 0 });
        round_trip(&entry);
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let codec = BitPlane::new();
        let entry = entry_from_words(|i| i as u32 * 977);
        let mut c = CompressedBuf::new();
        codec.compress_into(&entry, &mut c);
        assert!(matches!(
            codec.decompress_into(c.data(), c.bits() / 2, &mut [0u8; 128]),
            Err(DecodeError::Truncated)
        ));
    }

    #[test]
    fn sign_extension_is_correct() {
        assert_eq!(BitPlane::sign_extend_33(0), 0);
        assert_eq!(BitPlane::sign_extend_33(1), 1);
        assert_eq!(BitPlane::sign_extend_33(0x0_FFFF_FFFF), 0x0_FFFF_FFFFi64);
        assert_eq!(BitPlane::sign_extend_33(0x1_0000_0000), -(0x1_0000_0000i64));
        assert_eq!(BitPlane::sign_extend_33(0x1_FFFF_FFFF), -1);
    }

    #[test]
    fn delta_bitplane_transpose_inverts() {
        let symbols: [u32; SYMBOLS] = std::array::from_fn(|i| (i as u32).wrapping_mul(0x1234_5677));
        let deltas = BitPlane::deltas(&symbols);
        let dbp = BitPlane::delta_bit_planes(&deltas);
        assert_eq!(BitPlane::planes_to_deltas(&dbp), deltas);
    }

    #[test]
    fn dbx_inverts() {
        let planes: [u32; PLANES] =
            std::array::from_fn(|i| ((i as u32).wrapping_mul(0x9E37_79B9)) & PLANE_MASK);
        let dbx = BitPlane::dbx(&planes);
        // Reconstruct top-down.
        let mut rebuilt = [0u32; PLANES];
        rebuilt[PLANES - 1] = dbx[PLANES - 1];
        for b in (0..PLANES - 1).rev() {
            rebuilt[b] = dbx[b] ^ rebuilt[b + 1];
        }
        assert_eq!(rebuilt, planes);
    }
}
