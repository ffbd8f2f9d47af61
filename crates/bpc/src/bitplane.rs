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
//! Decoding inverts every step exactly; round-trip is property-tested, and
//! the stream is pinned bit for bit to the scalar reference kept under
//! `#[cfg(test)]` at the end of this file (the kernels here work a word at a
//! time; DESIGN.md §2 describes them).
//!
//! The encoder transposes all 32 planes of every entry. The decoder
//! transposes only the planes that differ: homogeneous data has narrow
//! deltas, whose high planes are one plane (the one zero run of the code
//! above), so an entry whose planes 7–31 (or 15–31) are all equal has its
//! deltas rebuilt from planes 0–7 (or 0–15) by a smaller transpose and a
//! sign extension. The decoder reads a slice of at least [`DECODE_BYTES`]
//! in place and copies only shorter ones.

use crate::bits::BitWriter;
use crate::{from_symbols, to_symbols, Codec, CompressedBuf, DecodeError, Entry};

/// Number of 32-bit symbols in one 128 B entry.
pub const SYMBOLS: usize = 32;
/// Number of deltas (symbols − 1).
pub const DELTAS: usize = SYMBOLS - 1;
/// Number of bit-planes (deltas are 33-bit signed values).
pub const PLANES: usize = 33;
/// Mask selecting the 31 valid bits of one plane.
const PLANE_MASK: u32 = 0x7FFF_FFFF;
/// The code word of a constant entry: `001` + 5-bit (33 − 2), one zero run
/// over all 33 planes. Both directions special-case it, because it is the
/// one stream with nothing to transpose.
const ALL_PLANES_ZERO: u32 = 0b001 << 5 | (PLANES as u32 - 2);
/// Bytes the decoder reads of any stream: a slice at least this long is
/// decoded in place, and a shorter one is first copied into a zero-padded
/// buffer of this size. The longest stream is a raw base (`1` + 32 bits)
/// and 33 raw planes (`1` + 31 bits each), 1,089 bits; its last code
/// starts 32 bits before its end, at bit 1,057, and is peeked with one
/// 8-byte load from byte 1,057 / 8 = 132, so the decoder reads up to byte
/// 140. That covers all 137 bytes of the stream too. A caller that loads
/// a stored stream into a zero-padded buffer of this size saves the
/// decoder its copy.
pub const DECODE_BYTES: usize = (1 + 32 + PLANES * 32 - 32) / 8 + 8;

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

    /// Transposes a 32 × 32 bit matrix: bit `i` of row `b` of the result is
    /// bit `b` of `rows[i]`.
    ///
    /// Five stages of masked block swaps (Hacker's Delight fig. 7-3), with
    /// bit 0 as column 0 so that row and bit indices keep their meaning, and
    /// two rows per 64-bit word (row `2k` low, row `2k + 1` high) so that
    /// every step moves 64 matrix bits. Stage `j` (16, 8, 4, 2, 1) pairs the
    /// rows `j` apart and trades the upper row's columns `c + j` for the
    /// lower row's columns `c`, over the `c` that `mask` selects; for
    /// `j = 1` the two rows share a word. The transposition is its own
    /// inverse; encode and decode share it.
    fn transpose32(rows: &[u32; SYMBOLS]) -> [u32; SYMBOLS] {
        const WORDS: usize = SYMBOLS / 2;
        let mut words = [0u64; WORDS];
        for (k, word) in words.iter_mut().enumerate() {
            *word = rows[2 * k] as u64 | (rows[2 * k + 1] as u64) << 32;
        }
        let mut j = SYMBOLS / 2;
        let mut mask = 0x0000_FFFF_0000_FFFFu64;
        while j > 1 {
            let step = j / 2; // rows `j` apart are words `j / 2` apart
            for block in (0..WORDS).step_by(2 * step) {
                for k in block..block + step {
                    let t = ((words[k] >> j) ^ words[k + step]) & mask;
                    words[k] ^= t << j;
                    words[k + step] ^= t;
                }
            }
            j /= 2;
            mask ^= mask << j;
        }
        let mut out = [0u32; SYMBOLS];
        for (k, &word) in words.iter().enumerate() {
            let t = ((word >> 1) ^ (word >> 32)) & 0x5555_5555;
            let word = word ^ (t << 1) ^ (t << 32);
            out[2 * k] = word as u32;
            out[2 * k + 1] = (word >> 32) as u32;
        }
        out
    }

    /// Computes the 33 delta bit-planes of the symbol stream.
    ///
    /// Delta `i` is `symbols[i+1] - symbols[i]` in 33-bit two's complement.
    /// Its low 32 bits are the wrapping `u32` difference, so planes 0–31 are
    /// the transposed difference matrix (row 31 is empty: there are only 31
    /// deltas); its sign bit is the borrow of that subtraction, so plane 32
    /// is the mask of positions where the stream steps down.
    fn delta_bit_planes(symbols: &[u32; SYMBOLS]) -> [u32; PLANES] {
        let mut rows = [0u32; SYMBOLS];
        let mut borrows = 0u32;
        for i in 0..DELTAS {
            rows[i] = symbols[i + 1].wrapping_sub(symbols[i]);
            borrows |= ((symbols[i + 1] < symbols[i]) as u32) << i;
        }
        let mut planes = [0u32; PLANES];
        planes[..SYMBOLS].copy_from_slice(&Self::transpose32(&rows));
        planes[PLANES - 1] = borrows;
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
            let x = dbx[b];
            if x == 0 {
                // Count the zero run downward (including plane b).
                let mut run = 1usize;
                while b > 0 && dbx[b - 1] == 0 {
                    b -= 1;
                    run += 1;
                }
                if run == 1 {
                    w.push_bits(0b01, 2);
                } else {
                    w.push_bits(0b001 << 5 | (run - 2) as u64, 8);
                }
            } else if dbp[b] == 0 {
                w.push_bits(0b00001, 5);
            } else if x == PLANE_MASK {
                w.push_bits(0b00000, 5);
            } else if x & (x - 1) == 0 {
                // A single one.
                w.push_bits(0b00011 << 5 | x.trailing_zeros() as u64, 10);
            } else if x == 0b11 << x.trailing_zeros() {
                // Two consecutive ones.
                w.push_bits(0b00010 << 5 | x.trailing_zeros() as u64, 10);
            } else {
                // `1` + the 31 raw bits.
                w.push_bits(1 << DELTAS | x as u64, 32);
            }
        }
    }

    /// Transposes the 8 × 8 bit matrix held in one word, row `r` in byte
    /// `r` and column `c` at bit `c` of its byte: stages 4, 2 and 1 of
    /// [`transpose32`](Self::transpose32) inside the word, where the rows
    /// `j` apart are `8 * j` bits apart (Hacker's Delight fig. 7-2).
    fn transpose8(x: u64) -> u64 {
        let t = ((x >> 7) ^ x) & 0x00AA_00AA_00AA_00AA;
        let x = x ^ t ^ (t << 7);
        let t = ((x >> 14) ^ x) & 0x0000_CCCC_0000_CCCC;
        let x = x ^ t ^ (t << 14);
        let t = ((x >> 28) ^ x) & 0x0000_0000_F0F0_F0F0;
        x ^ t ^ (t << 28)
    }

    /// Transposes the 16 × 16 bit matrix held in four words, row `r` in
    /// 16-bit lane `r % 4` of word `r / 4`: stages 8 and 4 of
    /// [`transpose32`](Self::transpose32) between the words, stages 2 and
    /// 1 inside each word, where the rows `j` apart are `16 * j` bits
    /// apart.
    fn transpose16(words: &mut [u64]) {
        let mut swap = |k: usize, step: usize, j: u32, mask: u64| {
            let t = ((words[k] >> j) ^ words[k + step]) & mask;
            words[k] ^= t << j;
            words[k + step] ^= t;
        };
        swap(0, 2, 8, 0x00FF_00FF_00FF_00FF);
        swap(1, 2, 8, 0x00FF_00FF_00FF_00FF);
        swap(0, 1, 4, 0x0F0F_0F0F_0F0F_0F0F);
        swap(2, 1, 4, 0x0F0F_0F0F_0F0F_0F0F);
        for x in words.iter_mut() {
            let t = ((*x >> 30) ^ *x) & 0x0000_0000_CCCC_CCCC;
            *x ^= t ^ (t << 30);
            let t = ((*x >> 15) ^ *x) & 0x0000_AAAA_0000_AAAA;
            *x ^= t ^ (t << 15);
        }
    }

    /// Every delta, from DBP planes 0–7 alone: the deltas of an entry whose
    /// planes 7–31 are one plane, i.e. that each fit a signed byte.
    ///
    /// The 8 × 32 corner of the matrix [`transpose32`](Self::transpose32)
    /// turns, as four 8 × 8 blocks in four words. Its stages 16 and 8 only
    /// move whole bytes of the corner, so here they are a pack and an
    /// unpack: the pack is a 4 × 4 byte transpose (planes `r` and `r + 4`
    /// share a word) that leaves byte `m` of plane `r` at byte `r` of word
    /// `m`, the block of deltas `8m..8m + 8`, and after
    /// [`transpose8`](Self::transpose8) byte `c` of word `m` is the low
    /// byte of delta `8m + c`. Plane 7 is its sign bit, and bits 8–31
    /// repeat it, so the unpack sign-extends the byte.
    fn deltas_from_low8(dbp: &[u32; PLANES]) -> [u32; SYMBOLS] {
        let mut blocks: [u64; 4] =
            std::array::from_fn(|j| u64::from(dbp[j]) | u64::from(dbp[j + 4]) << 32);
        // Words `step` apart trade byte columns `c + step` of the first
        // for columns `c` of the second (the `mask` bytes).
        let mut swap = |k: usize, step: usize, mask: u64| {
            let t = ((blocks[k] >> (8 * step)) ^ blocks[k + step]) & mask;
            blocks[k] ^= t << (8 * step);
            blocks[k + step] ^= t;
        };
        swap(0, 2, 0x0000_FFFF_0000_FFFF);
        swap(1, 2, 0x0000_FFFF_0000_FFFF);
        swap(0, 1, 0x00FF_00FF_00FF_00FF);
        swap(2, 1, 0x00FF_00FF_00FF_00FF);
        let mut rows = [0u32; SYMBOLS];
        for (m, block) in blocks.into_iter().enumerate() {
            let bytes = Self::transpose8(block).to_le_bytes();
            for (c, byte) in bytes.into_iter().enumerate() {
                rows[8 * m + c] = byte as i8 as u32;
            }
        }
        rows
    }

    /// Every delta, from DBP planes 0–15 alone: the deltas of an entry
    /// whose planes 15–31 are one plane, i.e. that each fit a signed
    /// 16-bit integer.
    ///
    /// As [`deltas_from_low8`](Self::deltas_from_low8) with 16-bit rows:
    /// stage 16 is the pack, which puts the low and the high half of plane
    /// `r` in lane `r % 4` of word `r / 4` of two 16 × 16 blocks (deltas
    /// 0–15 and 16–31); [`transpose16`](Self::transpose16) runs the other
    /// four stages on the eight words, and the unpack sign-extends each
    /// lane from plane 15.
    fn deltas_from_low16(dbp: &[u32; PLANES]) -> [u32; SYMBOLS] {
        let mut words = [0u64; 8];
        for k in 0..4 {
            let lane = |l: usize, half: u32| u64::from(dbp[4 * k + l] >> half & 0xFFFF) << (16 * l);
            words[k] = lane(0, 0) | lane(1, 0) | lane(2, 0) | lane(3, 0);
            words[k + 4] = lane(0, 16) | lane(1, 16) | lane(2, 16) | lane(3, 16);
        }
        let (low, high) = words.split_at_mut(4);
        Self::transpose16(low);
        Self::transpose16(high);
        let mut rows = [0u32; SYMBOLS];
        for (k, word) in words.into_iter().enumerate() {
            for l in 0..4 {
                rows[4 * k + l] = (word >> (16 * l)) as u16 as i16 as u32;
            }
        }
        rows
    }

    /// Rebuilds the symbols from the base and the decoded bit-planes.
    ///
    /// Transposing planes 0–31 back gives the low 32 bits of every delta,
    /// and symbols are 32-bit, so a wrapping prefix sum restores them; the
    /// sign plane only ever selected between `+d` and `+d - 2^32`.
    ///
    /// Narrow deltas take a shorter transpose. When planes 7–31 are all
    /// one plane, every delta fits a signed byte whose sign bit is plane
    /// 7, and only planes 0–7 are transposed
    /// ([`deltas_from_low8`](Self::deltas_from_low8)); when planes 15–31
    /// are, only planes 0–15 ([`deltas_from_low16`](Self::deltas_from_low16)).
    /// Any other entry takes [`transpose32`](Self::transpose32). The choice
    /// reads the planes alone, and every path yields the same deltas.
    fn planes_to_symbols(base: u32, dbp: &[u32; PLANES]) -> [u32; SYMBOLS] {
        // Nonzero when a plane in `from + 1..to` differs from plane `from`.
        let differ = |from: usize, to: usize| {
            dbp[from + 1..to]
                .iter()
                .fold(0, |acc, &plane| acc | (plane ^ dbp[from]))
        };
        let rows = if differ(15, SYMBOLS) != 0 {
            let mut rows = [0u32; SYMBOLS];
            rows.copy_from_slice(&dbp[..SYMBOLS]);
            Self::transpose32(&rows)
        } else if differ(7, 16) != 0 {
            Self::deltas_from_low16(dbp)
        } else {
            Self::deltas_from_low8(dbp)
        };
        let mut symbols = [0u32; SYMBOLS];
        symbols[0] = base;
        for i in 0..DELTAS {
            symbols[i + 1] = symbols[i].wrapping_add(rows[i]);
        }
        symbols
    }
}

impl Codec for BitPlane {
    fn name(&self) -> &'static str {
        Self::NAME
    }

    fn compress_into(&self, entry: &Entry, out: &mut CompressedBuf) {
        let symbols = to_symbols(entry);
        let mut w = out.begin();
        // Base symbol: `0` when zero, else `1` + 32 raw bits.
        if symbols[0] == 0 {
            w.push_bit(false);
        } else {
            w.push_bit(true);
            w.push_bits(symbols[0] as u64, 32);
        }
        if symbols.iter().all(|&s| s == symbols[0]) {
            // A constant entry has no deltas: one run code covers all 33
            // planes, and there is nothing to transpose.
            w.push_bits(ALL_PLANES_ZERO as u64, 8);
        } else {
            let dbp = Self::delta_bit_planes(&symbols);
            Self::encode_planes(&mut w, &dbp, &Self::dbx(&dbp));
        }
        w.finish();
    }

    /// Decodes the 33 DBP planes most-significant first and rebuilds the
    /// symbols.
    ///
    /// Every code word is classified from one unconditional 8-byte load
    /// (no code is longer than 32 bits), and the bit position lives in a
    /// local. The loads stay inside the first [`DECODE_BYTES`] of the
    /// stream: a slice at least that long is read in place, and a shorter
    /// one is copied into a zero-padded buffer of that size first. Each
    /// code is then consumed at its full width against the declared
    /// length, so a stream that ends inside a code is `Truncated` before
    /// the code's payload is judged; bits past the length, whatever the
    /// slice or the buffer holds there, never decide the outcome.
    fn decompress_into(
        &self,
        data: &[u8],
        bits: usize,
        out: &mut Entry,
    ) -> Result<(), DecodeError> {
        let mut copy = [0u8; DECODE_BYTES];
        let stream: &[u8; DECODE_BYTES] = match data.first_chunk() {
            Some(stream) => stream,
            None => {
                copy[..data.len()].copy_from_slice(data);
                &copy
            }
        };
        let bits = bits.min(data.len() * 8);
        // The 64 bits from bit `pos` on, left-aligned.
        let window = |pos: usize| {
            let mut word = [0u8; 8];
            word.copy_from_slice(&stream[pos / 8..pos / 8 + 8]);
            u64::from_be_bytes(word) << (pos % 8)
        };
        // The next 32 bits: the code word at `pos` and whatever follows it.
        let peek = |pos: usize| (window(pos) >> 32) as u32;
        // The position after an `n`-bit code at `pos`.
        let skip = |pos: usize, n: usize| {
            if bits - pos < n {
                Err(DecodeError::Truncated)
            } else {
                Ok(pos + n)
            }
        };

        let head = window(0);
        let (base, mut pos) = if head >> 63 == 1 {
            ((head >> 31) as u32, skip(0, 33)?)
        } else {
            (0, skip(0, 1)?)
        };
        if peek(pos) >> 24 == ALL_PLANES_ZERO {
            // No deltas: the entry repeats its base.
            skip(pos, 8)?;
            *out = from_symbols(&[base; SYMBOLS]);
            return Ok(());
        }

        let mut dbp = [0u32; PLANES];
        let mut prev_dbp = 0u32; // DBP[b+1]; zero above the top plane.
        let mut b = PLANES;
        while b > 0 {
            b -= 1;
            let code = peek(pos);
            // The 5-bit field behind a 3- or 5-bit prefix.
            let field = |prefix: u32| (code >> (27 - prefix)) & 0b11111;
            let dbx_val = if code >> 31 == 1 {
                // `1` + 31 raw bits: uncompressed plane.
                pos = skip(pos, 32)?;
                code & PLANE_MASK
            } else if code >> 30 == 0b01 {
                // `01`: single all-zero DBX plane.
                pos = skip(pos, 2)?;
                0
            } else if code >> 29 == 0b001 {
                // `001` + 5: run of 2–33 all-zero DBX planes.
                pos = skip(pos, 8)?;
                let run = field(3) as usize + 2;
                if run > b + 1 {
                    // Run longer than the planes remaining (plane `b` plus
                    // the `b` planes below it).
                    return Err(DecodeError::InvalidCode { bit_offset: pos });
                }
                // DBX == 0 means DBP[b] == DBP[b+1] for every plane in the
                // run. Leave `b` at the last plane of the run so the outer
                // loop steps to the next unprocessed plane.
                b -= run - 1;
                dbp[b..b + run].fill(prev_dbp);
                // `prev_dbp` is unchanged; continue with the next code.
                continue;
            } else {
                // `000` + 2 more bits: one of the four 5-bit codes.
                match (code >> 27) & 0b11 {
                    0b00 => {
                        pos = skip(pos, 5)?;
                        PLANE_MASK // all-ones
                    }
                    0b01 => {
                        // DBX != 0 but DBP == 0.
                        pos = skip(pos, 5)?;
                        dbp[b] = 0;
                        prev_dbp = 0;
                        continue;
                    }
                    two_ones_or_one => {
                        pos = skip(pos, 10)?;
                        // `00010`: two consecutive ones; `00011`: a single one.
                        let (ones, last) = if two_ones_or_one == 0b10 {
                            (0b11, 29)
                        } else {
                            (0b1, 30)
                        };
                        let shift = field(5);
                        if shift > last {
                            return Err(DecodeError::InvalidCode { bit_offset: pos });
                        }
                        ones << shift
                    }
                }
            };
            dbp[b] = dbx_val ^ prev_dbp;
            prev_dbp = dbp[b];
        }
        *out = from_symbols(&Self::planes_to_symbols(base, &dbp));
        Ok(())
    }
}

/// The scalar codec this module used before its kernels went word-parallel,
/// kept verbatim (one bit per step, byte-at-a-time bit I/O) as the oracle:
/// the codec above must produce and accept the bit-identical stream. A
/// mirrored transpose would still round-trip, so the tests compare against
/// this, not only against themselves.
#[cfg(test)]
mod reference {
    use super::{DELTAS, PLANES, PLANE_MASK, SYMBOLS};
    use crate::bits::reference::{ByteReader, ByteWriter};
    use crate::{from_symbols, to_symbols, DecodeError, Entry};

    const DELTA_MASK: u64 = 0x1_FFFF_FFFF;

    pub(super) fn deltas(symbols: &[u32; SYMBOLS]) -> [u64; DELTAS] {
        let mut deltas = [0u64; DELTAS];
        for i in 0..DELTAS {
            let d = symbols[i + 1] as i64 - symbols[i] as i64;
            deltas[i] = (d as u64) & DELTA_MASK;
        }
        deltas
    }

    pub(super) fn delta_bit_planes(deltas: &[u64; DELTAS]) -> [u32; PLANES] {
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

    fn dbx(dbp: &[u32; PLANES]) -> [u32; PLANES] {
        let mut dbx = [0u32; PLANES];
        for b in 0..PLANES - 1 {
            dbx[b] = dbp[b] ^ dbp[b + 1];
        }
        dbx[PLANES - 1] = dbp[PLANES - 1];
        dbx
    }

    fn encode_planes(w: &mut ByteWriter, dbp: &[u32; PLANES], dbx: &[u32; PLANES]) {
        let mut b = PLANES;
        while b > 0 {
            b -= 1;
            if dbx[b] == 0 {
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

    fn decode_planes(r: &mut ByteReader<'_>) -> Result<[u32; PLANES], DecodeError> {
        let mut dbp = [0u32; PLANES];
        let mut prev_dbp = 0u32;
        let mut b = PLANES;
        while b > 0 {
            b -= 1;
            let dbx_val: u32;
            if r.read_bit()? {
                dbx_val = r.read_bits(31)? as u32;
            } else if r.read_bit()? {
                dbx_val = 0;
            } else if r.read_bit()? {
                let run = r.read_bits(5)? as usize + 2;
                if run > b + 1 {
                    return Err(DecodeError::InvalidCode {
                        bit_offset: r.bit_offset(),
                    });
                }
                dbp[b] = prev_dbp;
                for _ in 1..run {
                    b -= 1;
                    dbp[b] = prev_dbp;
                }
                continue;
            } else {
                match r.read_bits(2)? {
                    0b00 => dbx_val = PLANE_MASK,
                    0b01 => {
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
                        dbx_val = 0b11 << pos;
                    }
                    _ => {
                        let pos = r.read_bits(5)? as u32;
                        if pos > 30 {
                            return Err(DecodeError::InvalidCode {
                                bit_offset: r.bit_offset(),
                            });
                        }
                        dbx_val = 1 << pos;
                    }
                }
            }
            dbp[b] = dbx_val ^ prev_dbp;
            prev_dbp = dbp[b];
        }
        Ok(dbp)
    }

    pub(super) fn planes_to_deltas(dbp: &[u32; PLANES]) -> [u64; DELTAS] {
        let mut deltas = [0u64; DELTAS];
        for (b, &plane) in dbp.iter().enumerate() {
            for (i, delta) in deltas.iter_mut().enumerate() {
                *delta |= (((plane >> i) & 1) as u64) << b;
            }
        }
        deltas
    }

    pub(super) fn sign_extend_33(v: u64) -> i64 {
        ((v << 31) as i64) >> 31
    }

    /// The reference encoder: the packed stream and its bit length.
    pub(super) fn compress(entry: &Entry) -> (Vec<u8>, usize) {
        let symbols = to_symbols(entry);
        let dbp = delta_bit_planes(&deltas(&symbols));
        let dbx = dbx(&dbp);
        let mut w = ByteWriter::default();
        if symbols[0] == 0 {
            w.push_bit(false);
        } else {
            w.push_bit(true);
            w.push_bits(symbols[0] as u64, 32);
        }
        encode_planes(&mut w, &dbp, &dbx);
        w.into_parts()
    }

    /// The reference decoder.
    pub(super) fn decompress(data: &[u8], bits: usize) -> Result<Entry, DecodeError> {
        let mut r = ByteReader::new(data, bits);
        let base = if r.read_bit()? {
            r.read_bits(32)? as u32
        } else {
            0
        };
        let deltas = planes_to_deltas(&decode_planes(&mut r)?);
        let mut symbols = [0u32; SYMBOLS];
        symbols[0] = base;
        for i in 0..DELTAS {
            let d = sign_extend_33(deltas[i]);
            symbols[i + 1] = (symbols[i] as i64).wrapping_add(d) as u32;
        }
        Ok(from_symbols(&symbols))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SizeClass, ENTRY_BYTES};
    use proptest::prelude::*;

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

    /// Codes whose payload is invalid — a zero run longer than the planes
    /// left, a one or a pair of ones past the top of the plane — are
    /// `InvalidCode` after the whole code, and `Truncated` when the stream
    /// ends inside the code, whatever the bytes past the end hold.
    #[test]
    fn a_stream_that_ends_inside_an_invalid_code_is_truncated() {
        use crate::bits::reference::ByteWriter;
        // (code words after a zero base, total bits)
        let cases: [&[(u64, usize)]; 3] = [
            // `01`, then a run of 33 with 32 planes left.
            &[(0b01, 2), (0b001, 3), (31, 5)],
            // A single one at bit 31.
            &[(0b00011, 5), (31, 5)],
            // Two ones at bits 30 and 31.
            &[(0b00010, 5), (30, 5)],
        ];
        for codes in cases {
            let mut w = ByteWriter::default();
            w.push_bit(false);
            for &(value, n) in codes {
                w.push_bits(value, n);
            }
            let (data, bits) = w.into_parts();
            for len in [bits - 4, bits - 1, bits] {
                let expect = if len == bits {
                    Err(DecodeError::InvalidCode { bit_offset: bits })
                } else {
                    Err(DecodeError::Truncated)
                };
                let got = BitPlane::new().decompress_into(&data, len, &mut [0u8; ENTRY_BYTES]);
                assert_eq!(got, expect, "{codes:?} cut to {len} bits");
                assert_eq!(reference::decompress(&data, len).map(|_| ()), expect);
            }
        }
    }

    #[test]
    fn sign_extension_is_correct() {
        use reference::sign_extend_33;
        assert_eq!(sign_extend_33(0), 0);
        assert_eq!(sign_extend_33(1), 1);
        assert_eq!(sign_extend_33(0x0_FFFF_FFFF), 0x0_FFFF_FFFFi64);
        assert_eq!(sign_extend_33(0x1_0000_0000), -(0x1_0000_0000i64));
        assert_eq!(sign_extend_33(0x1_FFFF_FFFF), -1);
    }

    #[test]
    fn delta_bitplane_transpose_inverts() {
        let symbols: [u32; SYMBOLS] = std::array::from_fn(|i| (i as u32).wrapping_mul(0x1234_5677));
        let deltas = reference::deltas(&symbols);
        let dbp = BitPlane::delta_bit_planes(&symbols);
        // Bit for bit the planes of the scalar transposition, not a mirror.
        assert_eq!(dbp, reference::delta_bit_planes(&deltas));
        assert_eq!(reference::planes_to_deltas(&dbp), deltas);
        assert_eq!(BitPlane::planes_to_symbols(symbols[0], &dbp), symbols);
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

    /// The nine generators of `workloads::entry_gen` (one per size class,
    /// plus the ramp), rebuilt here because that crate sits above this one:
    /// zeros, a base in `2^28..2^30` plus 0/1/4/10/15/19 bits of per-word
    /// noise, random words, and `base + i * stride`.
    fn palette_entry(class: usize, a: u32, words: &[u32; SYMBOLS]) -> Entry {
        const NOISE_BITS: [u32; 6] = [0, 1, 4, 10, 15, 19];
        match class {
            0 => [0u8; ENTRY_BYTES],
            1..=6 => {
                let base = (1 << 28) + a % (3 << 28);
                let mask = (1u32 << NOISE_BITS[class - 1]) - 1;
                entry_from_words(|i| base.wrapping_add(words[i] & mask))
            }
            7 => entry_from_words(|i| words[i]),
            _ => {
                let stride = 1 + words[0] % ((1 << 24) - 1);
                entry_from_words(|i| (a % (1 << 28)).wrapping_add(stride.wrapping_mul(i as u32)))
            }
        }
    }

    /// Random, structured, float, sparse and palette entries (the families
    /// of `tests/roundtrip.rs` plus the palette above), one family per draw.
    fn oracle_entry() -> impl Strategy<Value = Entry> {
        (
            0usize..5,
            proptest::array::uniform32(any::<u32>()),
            any::<u32>(),
            any::<u32>(),
        )
            .prop_map(|(family, words, a, b)| match family {
                0 => entry_from_words(|i| words[i]),
                1 => entry_from_words(|i| {
                    a.wrapping_add((b % 1024).wrapping_mul(i as u32))
                        .wrapping_add(words[i] % 256)
                }),
                2 => {
                    let start = (a as f32 / u32::MAX as f32 - 0.5) * 2e6;
                    let step = b as f32 / u32::MAX as f32 * 2.0 - 1.0;
                    entry_from_words(|i| (start + step * i as f32).to_bits())
                }
                3 => entry_from_words(|i| if words[i] % 8 == 0 { words[31 - i] } else { 0 }),
                _ => palette_entry(b as usize % 9, a, &words),
            })
    }

    /// Encodes with the codec under test and checks `(data, bits)` against
    /// the reference; decodes the stream with both in three shapes: bare;
    /// as the device loads it, zero-padded to at least [`DECODE_BYTES`]
    /// with its whole sectors declared valid (read in place); and followed
    /// by garbage in a slice longer than that, with the whole slice
    /// declared valid.
    fn assert_matches_reference(entry: &Entry) -> usize {
        let codec = BitPlane::new();
        let mut c = CompressedBuf::new();
        codec.compress_into(entry, &mut c);
        let (data, bits) = reference::compress(entry);
        assert_eq!((c.data(), c.bits()), (&data[..], bits), "stream differs");

        let sectors = data.len().div_ceil(crate::SECTOR_BYTES);
        let mut padded = data.clone();
        padded.resize(DECODE_BYTES.max(sectors * crate::SECTOR_BYTES), 0);
        let mut long = data.clone();
        long.extend((0..2 * DECODE_BYTES - data.len()).map(|i| (i as u8).wrapping_mul(0x9D) | 1));
        for (data, bits) in [
            (&data, bits),
            (&padded, sectors * 8 * crate::SECTOR_BYTES),
            (&long, long.len() * 8),
        ] {
            let mut out = [0xFFu8; ENTRY_BYTES];
            codec.decompress_into(data, bits, &mut out).unwrap();
            assert_eq!(&out, entry);
            assert_eq!(reference::decompress(data, bits).as_ref(), Ok(entry));
        }
        bits
    }

    #[test]
    fn palette_matches_reference_in_all_eight_size_classes() {
        let codec = BitPlane::new();
        let mut scratch = CompressedBuf::new();
        let mut seen = Vec::new();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for round in 0..64 {
            let words: [u32; SYMBOLS] = std::array::from_fn(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 16) as u32
            });
            let entry = palette_entry(round % 9, words[1], &words);
            assert_matches_reference(&entry);
            seen.push(codec.size_class_into(&entry, &mut scratch));
        }
        for class in SizeClass::ALL {
            assert!(seen.contains(&class), "palette never produced {class:?}");
        }
    }

    /// Which decode transpose `entry`'s planes select: the width of the
    /// planes below the ones that are all equal (8, 16 or 32).
    fn decode_width(entry: &Entry) -> usize {
        let dbp = BitPlane::delta_bit_planes(&crate::to_symbols(entry));
        let shared_from = |w: usize| dbp[w..SYMBOLS].iter().all(|&p| p == dbp[w]);
        if shared_from(7) {
            8
        } else if shared_from(15) {
            16
        } else {
            32
        }
    }

    /// Sign patterns of [`width_entry`]'s deltas.
    #[derive(Debug, Clone, Copy)]
    enum Signs {
        Positive,
        Negative,
        Mixed,
        Alternating,
    }

    impl Signs {
        const ALL: [Signs; 4] = [
            Signs::Positive,
            Signs::Negative,
            Signs::Mixed,
            Signs::Alternating,
        ];
    }

    /// An entry whose deltas need exactly `width` bits (0–32): the largest
    /// magnitude is in `2^(width-1)..2^width`, the others below `2^width`,
    /// signed by `signs`. No symbol wraps, so the 33-bit deltas are the
    /// ones drawn: where the walk would leave the `u32` range, every
    /// magnitude but the largest is halved until it fits.
    fn width_entry(width: u32, signs: Signs, seed: u64) -> Entry {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(width) << 56 | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let limit = 1u64 << width;
        let widest = (next() % DELTAS as u64) as usize;
        let mut magnitudes: [u64; DELTAS] = std::array::from_fn(|_| next() % limit);
        if width > 0 {
            magnitudes[widest] = limit / 2 + next() % (limit / 2);
        }
        let negative: [bool; DELTAS] = std::array::from_fn(|i| match signs {
            Signs::Positive => false,
            Signs::Negative => true,
            Signs::Mixed => next() % 2 == 1,
            Signs::Alternating => i % 2 == 1,
        });
        let walk = |magnitudes: &[u64; DELTAS]| {
            let mut sums = [0i64; SYMBOLS];
            for i in 0..DELTAS {
                let d = magnitudes[i] as i64;
                sums[i + 1] = sums[i] + if negative[i] { -d } else { d };
            }
            sums
        };
        let mut sums = walk(&magnitudes);
        let span = |sums: &[i64; SYMBOLS]| {
            let (lo, hi) = (sums.iter().min(), sums.iter().max());
            (*lo.unwrap_or(&0), *hi.unwrap_or(&0))
        };
        while span(&sums).1 - span(&sums).0 > i64::from(u32::MAX) {
            for (i, m) in magnitudes.iter_mut().enumerate() {
                if i != widest {
                    *m /= 2;
                }
            }
            sums = walk(&magnitudes);
        }
        let (lo, hi) = span(&sums);
        let room = (i64::from(u32::MAX) - (hi - lo)) as u64 + 1;
        let offset = if seed.is_multiple_of(4) {
            0
        } else {
            next() % room
        };
        entry_from_words(|i| (sums[i] - lo + offset as i64) as u32)
    }

    /// Every width in `widths`, every sign pattern, seeds `0..seeds`,
    /// each held to the reference in all three decode shapes; each of the
    /// three decode transposes must be taken.
    fn sweep_widths(widths: impl IntoIterator<Item = u32>, seeds: u64) {
        let mut paths = [0; 3];
        for width in widths {
            for signs in Signs::ALL {
                for seed in 0..seeds {
                    let entry = width_entry(width, signs, seed);
                    assert_matches_reference(&entry);
                    paths[decode_width(&entry).trailing_zeros() as usize - 3] += 1;
                }
            }
        }
        assert!(
            paths.iter().all(|&n| n > 0),
            "decode transposes taken: {paths:?}"
        );
    }

    #[test]
    fn width_entries_need_exactly_their_width() {
        for width in 0..=32 {
            for signs in Signs::ALL {
                for seed in 0..16 {
                    let symbols = crate::to_symbols(&width_entry(width, signs, seed));
                    let widest = reference::deltas(&symbols)
                        .iter()
                        .map(|&d| reference::sign_extend_33(d).unsigned_abs())
                        .max();
                    let bits = widest.map_or(0, |m| 64 - m.leading_zeros());
                    assert_eq!(bits, width, "{signs:?} seed {seed}");
                }
            }
        }
    }

    /// The widths around each decode transpose's boundary (a signed byte
    /// holds magnitudes up to 7 bits, and 8 only for -128), all-positive,
    /// all-negative and mixed: bare, device-padded and garbage-followed.
    #[test]
    fn width_boundaries_match_reference() {
        sweep_widths([0, 1, 7, 8, 9, 15, 16, 17, 31], 64);
    }

    /// Tier-1's slice of the exhaustive sweep below: every width 0–32.
    #[test]
    fn width_sweep_slice_matches_reference() {
        sweep_widths(0..=32, 16);
    }

    /// Every width 0–32, four sign patterns, 4,096 seeds each, in all three
    /// decode shapes. Run in release builds:
    /// `cargo test --release -p bpc -- --ignored width_sweep_matches_reference_exhaustively`.
    #[test]
    #[ignore = "540,672 entries against the scalar reference; run in release"]
    fn width_sweep_matches_reference_exhaustively() {
        sweep_widths(0..=32, 4096);
    }

    /// A delta of magnitude `2^31` or more: its bit 31 and its sign (the
    /// borrow plane) differ.
    #[test]
    fn a_delta_of_2_pow_31_or_more_sets_the_borrow_plane_apart() {
        // (low, high, decode width): a delta of `2^32 - 32` is -32 in its
        // low 32 bits, which is all the decoder rebuilds.
        for (low, high, width) in [
            (0, 0x8000_0000, 32),
            (0x7FFF_FFFF, u32::MAX, 32),
            (0x10, 0xFFFF_FFF0, 8),
        ] {
            let entry = entry_from_words(|i| if i % 3 == 1 { high } else { low });
            let dbp = BitPlane::delta_bit_planes(&crate::to_symbols(&entry));
            assert_ne!(dbp[PLANES - 1], dbp[PLANES - 2]);
            assert_eq!(decode_width(&entry), width, "{high:#x} after {low:#x}");
            assert_matches_reference(&entry);
        }
    }

    /// Planes `from`–31 all one plane while the sign plane is not: deltas
    /// that alternate between `+(2^32 - k)` and `-(2^32 - k)`, whose low
    /// 32 bits are `-k` and `k`.
    #[test]
    fn equal_high_planes_under_a_different_sign_plane_match_reference() {
        // (k, first of the equal planes, decode width)
        for (k, from, width) in [
            (0x80, 8, 16),
            (0x40, 7, 8),
            (0x8000, 16, 32),
            (0x4000, 15, 16),
        ] {
            let entry = entry_from_words(|i| if i % 2 == 1 { 0u32.wrapping_sub(k) } else { 0 });
            let dbp = BitPlane::delta_bit_planes(&crate::to_symbols(&entry));
            assert!(dbp[from..SYMBOLS].iter().all(|&p| p == dbp[from]));
            assert_ne!(dbp[from - 1], dbp[from]);
            assert_ne!(dbp[PLANES - 1], dbp[PLANES - 2]);
            assert_eq!(decode_width(&entry), width, "k = {k:#x}");
            assert_matches_reference(&entry);
        }
    }

    /// Both narrow transposes equal the full one on arbitrary planes whose
    /// planes 7–31 (or 15–31) are all one plane, random or not.
    #[test]
    fn narrow_transposes_equal_the_full_one() {
        let mut state = 0x0123_4567_89AB_CDEFu64;
        let mut plane = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 20) as u32 & PLANE_MASK
        };
        for round in 0..256 {
            let mut dbp: [u32; PLANES] = std::array::from_fn(|_| plane());
            let from = if round % 2 == 0 { 7 } else { 15 };
            let shared = match round % 8 {
                0 | 1 => 0,
                2 | 3 => PLANE_MASK,
                _ => dbp[from],
            };
            dbp[from..SYMBOLS].fill(shared);
            let mut rows = [0u32; SYMBOLS];
            rows.copy_from_slice(&dbp[..SYMBOLS]);
            let full = BitPlane::transpose32(&rows);
            if from == 7 {
                assert_eq!(BitPlane::deltas_from_low8(&dbp), full, "round {round}");
            }
            assert_eq!(BitPlane::deltas_from_low16(&dbp), full, "round {round}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn encoder_matches_reference(entry in oracle_entry()) {
            assert_matches_reference(&entry);
        }

        /// Same `Ok(bytes)`, same error variant, same offset — on streams
        /// that are mostly invalid, on lengths beyond the data, and on data
        /// and lengths past the [`DECODE_BYTES`] the decoder reads (slices
        /// shorter than that are copied, longer ones read in place).
        #[test]
        fn decoder_matches_reference_on_garbage(
            data in proptest::collection::vec(any::<u8>(), 0..320),
            bits in 0usize..2600,
        ) {
            let mut out = [0xFFu8; ENTRY_BYTES];
            let got = BitPlane::new().decompress_into(&data, bits, &mut out).map(|()| out);
            prop_assert_eq!(got, reference::decompress(&data, bits));
        }

        /// Valid streams cut short or with one bit flipped: the error paths
        /// next to the streams the device actually stores.
        #[test]
        fn decoder_matches_reference_on_damaged_streams(
            entry in oracle_entry(),
            cut in any::<usize>(),
            flip in any::<usize>(),
        ) {
            let (mut data, bits) = reference::compress(&entry);
            let flip = flip % bits;
            data[flip / 8] ^= 0x80 >> (flip % 8);
            for bits in [bits, cut % (bits + 1)] {
                let mut out = [0xFFu8; ENTRY_BYTES];
                let got = BitPlane::new().decompress_into(&data, bits, &mut out).map(|()| out);
                prop_assert_eq!(got, reference::decompress(&data, bits));
            }
        }
    }
}
