//! Base-Delta-Immediate (BDI) compression after Pekhimenko et al.,
//! *"Base-Delta-Immediate Compression: Practical Data Compression for
//! On-Chip Caches"*, PACT 2012.
//!
//! BDI represents a block as one arbitrary base value plus narrow deltas,
//! with a second implicit zero base: every element is either a small
//! immediate (delta from zero) or close to the block's base. We generalize
//! the original 32 B-line scheme to the 128 B GPU memory-entry, keeping the
//! canonical (base size, delta size) pairs.
//!
//! The encoding is: 4-bit scheme id, then for non-trivial schemes a 1-bit
//! mask per element (0 = zero base, 1 = arbitrary base), the 8/4/2-byte base,
//! and one delta per element. This matches the hardware layout described in
//! the paper (the mask is the "immediate" bit vector).

use crate::bits::{BitReader, BitWriter};
use crate::{Codec, CompressedBuf, DecodeError, Entry, ENTRY_BYTES};

/// The canonical BDI (base size, delta size) schemes, in preference order.
const SCHEMES: [(usize, usize); 6] = [(8, 1), (8, 2), (8, 4), (4, 1), (4, 2), (2, 1)];

/// Scheme ids used in the 4-bit header.
const ID_ZEROS: u64 = 0;
const ID_REPEAT: u64 = 1;
const ID_RAW: u64 = 15;

/// The Base-Delta-Immediate codec.
///
/// # Example
///
/// ```
/// use bpc::{BaseDeltaImmediate, Codec, CompressedBuf};
///
/// let codec = BaseDeltaImmediate::new();
/// let mut entry = [0u8; 128];
/// for (i, w) in entry.chunks_exact_mut(8).enumerate() {
///     w.copy_from_slice(&(0x1000_0000u64 + i as u64).to_le_bytes());
/// }
/// let mut buf = CompressedBuf::new();
/// codec.compress_into(&entry, &mut buf);
/// assert!(buf.bytes() < 64);
/// let mut out = [0u8; 128];
/// codec.decompress_into(buf.data(), buf.bits(), &mut out).unwrap();
/// assert_eq!(out, entry);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BaseDeltaImmediate;

impl BaseDeltaImmediate {
    /// Stable algorithm name returned by [`Codec::name`].
    pub const NAME: &'static str = "bdi";

    /// Creates the codec.
    pub fn new() -> Self {
        Self
    }

    /// Reads element `index` of the block viewed as `ENTRY_BYTES / size`
    /// little-endian unsigned values (on the fly — no element buffer).
    fn element_at(entry: &Entry, size: usize, index: usize) -> u64 {
        let mut v = 0u64;
        for (i, &b) in entry[index * size..(index + 1) * size].iter().enumerate() {
            v |= (b as u64) << (8 * i);
        }
        v
    }

    /// Whether `delta` (a two's-complement difference of `base_size`-byte
    /// values) fits in a signed `delta_size`-byte immediate.
    fn fits(delta: u64, base_size: usize, delta_size: usize) -> bool {
        let width = 8 * base_size as u32;
        let sign_extended = if width == 64 {
            delta as i64
        } else {
            ((delta << (64 - width)) as i64) >> (64 - width)
        };
        let bound = 1i64 << (8 * delta_size - 1);
        (-bound..bound).contains(&sign_extended)
    }

    /// Checks whether one (base, delta) scheme covers the block, without
    /// materializing masks or deltas; returns the base value on success.
    ///
    /// The base is the first element that is not itself a small immediate
    /// (zero when every element is an immediate).
    fn try_scheme(entry: &Entry, base_size: usize, delta_size: usize) -> Option<u64> {
        let n = ENTRY_BYTES / base_size;
        let mut base = 0u64;
        let mut have_base = false;
        for i in 0..n {
            let e = Self::element_at(entry, base_size, i);
            if Self::fits(e, base_size, delta_size) {
                continue;
            }
            if !have_base {
                base = e;
                have_base = true;
            }
            let delta = e.wrapping_sub(base) & mask_of(8 * base_size as u32);
            if !Self::fits(delta, base_size, delta_size) {
                return None;
            }
        }
        Some(base)
    }

    /// Serializes the block under scheme `idx` (validated by
    /// [`try_scheme`](Self::try_scheme)): 4-bit id, per-element base mask,
    /// the base, then one delta per element.
    fn encode_scheme(w: &mut BitWriter, entry: &Entry, idx: usize, base: u64) {
        let (base_size, delta_size) = SCHEMES[idx];
        let n = ENTRY_BYTES / base_size;
        let mask_width = 8 * delta_size as u32;
        w.push_bits(2 + idx as u64, 4);
        for i in 0..n {
            let e = Self::element_at(entry, base_size, i);
            w.push_bit(!Self::fits(e, base_size, delta_size));
        }
        w.push_bits(base & mask_of(8 * base_size as u32), 8 * base_size);
        for i in 0..n {
            let e = Self::element_at(entry, base_size, i);
            let delta = if Self::fits(e, base_size, delta_size) {
                e
            } else {
                e.wrapping_sub(base) & mask_of(8 * base_size as u32)
            };
            w.push_bits(delta & mask_of(mask_width), 8 * delta_size);
        }
    }
}

fn mask_of(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

fn sign_extend(v: u64, bits: u32) -> u64 {
    (((v << (64 - bits)) as i64) >> (64 - bits)) as u64
}

impl Codec for BaseDeltaImmediate {
    fn name(&self) -> &'static str {
        Self::NAME
    }

    fn compress_into(&self, entry: &Entry, out: &mut CompressedBuf) {
        let mut w = out.begin();

        if crate::is_zero(entry) {
            w.push_bits(ID_ZEROS, 4);
            w.finish();
            return;
        }

        // Repeated 8-byte value.
        let first = Self::element_at(entry, 8, 0);
        if (1..ENTRY_BYTES / 8).all(|i| Self::element_at(entry, 8, i) == first) {
            w.push_bits(ID_REPEAT, 4);
            w.push_bits(first, 64);
            w.finish();
            return;
        }

        // Try each (base, delta) scheme in order; pick the smallest encoding.
        let mut best: Option<(usize, u64)> = None;
        let mut best_bits = usize::MAX;
        for (idx, &(base_size, delta_size)) in SCHEMES.iter().enumerate() {
            if let Some(base) = Self::try_scheme(entry, base_size, delta_size) {
                let n = ENTRY_BYTES / base_size;
                let bits = 4 + n + 8 * base_size + 8 * delta_size * n;
                if bits < best_bits {
                    best_bits = bits;
                    best = Some((idx, base));
                }
            }
        }

        if let Some((idx, base)) = best {
            if best_bits < 4 + ENTRY_BYTES * 8 {
                Self::encode_scheme(&mut w, entry, idx, base);
                w.finish();
                return;
            }
        }

        // Raw fallback.
        w.push_bits(ID_RAW, 4);
        for &b in entry.iter() {
            w.push_bits(b as u64, 8);
        }
        w.finish();
    }

    fn decompress_into(
        &self,
        data: &[u8],
        bits: usize,
        out: &mut Entry,
    ) -> Result<(), DecodeError> {
        let mut r = BitReader::new(data, bits);
        let id = r.read_bits(4)?;
        *out = [0u8; ENTRY_BYTES];
        match id {
            ID_ZEROS => Ok(()),
            ID_REPEAT => {
                let v = r.read_bits(64)?;
                for chunk in out.chunks_exact_mut(8) {
                    chunk.copy_from_slice(&v.to_le_bytes());
                }
                Ok(())
            }
            ID_RAW => {
                for b in out.iter_mut() {
                    *b = r.read_bits(8)? as u8;
                }
                Ok(())
            }
            scheme if (2..2 + SCHEMES.len() as u64).contains(&scheme) => {
                let (base_size, delta_size) = SCHEMES[(scheme - 2) as usize];
                let n = ENTRY_BYTES / base_size;
                // The widest scheme views the block as 64 two-byte elements.
                let mut mask = [false; ENTRY_BYTES / 2];
                for m in mask.iter_mut().take(n) {
                    *m = r.read_bit()?;
                }
                let base = r.read_bits(8 * base_size)?;
                let elem_mask = mask_of(8 * base_size as u32);
                for (i, &from_base) in mask.iter().take(n).enumerate() {
                    let raw = r.read_bits(8 * delta_size)?;
                    let delta = sign_extend(raw, 8 * delta_size as u32);
                    let value = if from_base {
                        base.wrapping_add(delta)
                    } else {
                        delta
                    } & elem_mask;
                    for (j, byte) in out[i * base_size..(i + 1) * base_size]
                        .iter_mut()
                        .enumerate()
                    {
                        *byte = (value >> (8 * j)) as u8;
                    }
                }
                Ok(())
            }
            _ => Err(DecodeError::InvalidCode {
                bit_offset: r.bit_offset(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(entry: &Entry) -> usize {
        let codec = BaseDeltaImmediate::new();
        let mut c = CompressedBuf::new();
        codec.compress_into(entry, &mut c);
        let mut out = [0xFFu8; 128];
        codec.decompress_into(c.data(), c.bits(), &mut out).unwrap();
        assert_eq!(&out, entry);
        c.bits()
    }

    #[test]
    fn zeros_are_four_bits() {
        assert_eq!(round_trip(&[0u8; 128]), 4);
    }

    #[test]
    fn repeated_word() {
        let mut entry = [0u8; 128];
        for chunk in entry.chunks_exact_mut(8) {
            chunk.copy_from_slice(&0xDEAD_BEEF_CAFE_F00Du64.to_le_bytes());
        }
        assert_eq!(round_trip(&entry), 4 + 64);
    }

    #[test]
    fn near_base_pointers_compress() {
        let mut entry = [0u8; 128];
        for (i, chunk) in entry.chunks_exact_mut(8).enumerate() {
            chunk.copy_from_slice(&(0x7FFF_AB00_0000_0000u64 + 17 * i as u64).to_le_bytes());
        }
        let bits = round_trip(&entry);
        // Deltas up to 17 * 15 = 255 need the (8, 2) scheme:
        // 4-bit id + 16 mask bits + 64-bit base + 16 two-byte deltas.
        assert_eq!(
            bits,
            4 + 16 + 64 + 16 * 16,
            "pointer-like data should use (8,2)"
        );
    }

    #[test]
    fn small_ints_with_outlier_base() {
        let mut entry = [0u8; 128];
        for (i, chunk) in entry.chunks_exact_mut(4).enumerate() {
            let v: u32 = if i % 5 == 0 {
                0x4000_0000 + i as u32
            } else {
                i as u32
            };
            chunk.copy_from_slice(&v.to_le_bytes());
        }
        let bits = round_trip(&entry);
        assert!(
            bits < 128 * 8,
            "mixed immediates/base should compress: {bits}"
        );
    }

    #[test]
    fn random_data_falls_back_to_raw() {
        let mut state = 0x0123_4567_89AB_CDEFu64;
        let mut entry = [0u8; 128];
        for b in entry.iter_mut() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *b = (state >> 33) as u8;
        }
        let bits = round_trip(&entry);
        assert_eq!(bits, 4 + 128 * 8);
    }

    #[test]
    fn fits_checks_signed_ranges() {
        assert!(BaseDeltaImmediate::fits(127, 4, 1));
        assert!(!BaseDeltaImmediate::fits(128, 4, 1));
        // -128 as a 32-bit value.
        assert!(BaseDeltaImmediate::fits(0xFFFF_FF80, 4, 1));
        assert!(!BaseDeltaImmediate::fits(0xFFFF_FF7F, 4, 1));
        assert!(BaseDeltaImmediate::fits(u64::MAX, 8, 1)); // -1
    }

    #[test]
    fn invalid_scheme_rejected() {
        // Scheme id 9 is unused (2..=7 valid, 0, 1, 15 special).
        assert!(matches!(
            BaseDeltaImmediate::new().decompress_into(&[0b1001_0000], 4, &mut [0u8; 128]),
            Err(DecodeError::InvalidCode { .. })
        ));
    }
}
