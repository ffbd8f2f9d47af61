//! Frequent Pattern Compression (FPC) after Alameldeen and Wood,
//! *"Frequent Pattern Compression: A Significance-Based Compression Scheme
//! for L2 Caches"*, UW-Madison CS TR 1500, 2004.
//!
//! FPC scans the block as 32-bit words and encodes each with a 3-bit prefix
//! selecting one of eight patterns:
//!
//! | prefix | pattern                                   | payload bits |
//! |--------|-------------------------------------------|--------------|
//! | 000    | run of 1–8 all-zero words                 | 3 (run−1)    |
//! | 001    | 4-bit sign-extended                       | 4            |
//! | 010    | 8-bit sign-extended                       | 8            |
//! | 011    | 16-bit sign-extended                      | 16           |
//! | 100    | 16-bit padded with zeros (low half zero)  | 16           |
//! | 101    | two half-words, each a sign-extended byte | 16           |
//! | 110    | word of four repeated bytes               | 8            |
//! | 111    | uncompressed word                         | 32           |

use crate::bits::BitReader;
use crate::{from_symbols, to_symbols, Codec, CompressedBuf, DecodeError, Entry};

/// The Frequent Pattern Compression codec.
///
/// # Example
///
/// ```
/// use bpc::{Codec, CompressedBuf, FrequentPattern};
///
/// let codec = FrequentPattern::new();
/// let entry = [0u8; 128];
/// let mut buf = CompressedBuf::new();
/// codec.compress_into(&entry, &mut buf);
/// // 32 zero words collapse into 4 zero-run codes of 8 words each.
/// assert_eq!(buf.bits(), 4 * 6);
/// let mut out = [0xFFu8; 128];
/// codec.decompress_into(buf.data(), buf.bits(), &mut out).unwrap();
/// assert_eq!(out, entry);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrequentPattern;

fn fits_signed(v: u32, bits: u32) -> bool {
    let s = v as i32;
    let bound = 1i64 << (bits - 1);
    ((s as i64) >= -bound) && ((s as i64) < bound)
}

impl FrequentPattern {
    /// Stable algorithm name returned by [`Codec::name`].
    pub const NAME: &'static str = "fpc";

    /// Creates the codec.
    pub fn new() -> Self {
        Self
    }
}

impl Codec for FrequentPattern {
    fn name(&self) -> &'static str {
        Self::NAME
    }

    fn compress_into(&self, entry: &Entry, out: &mut CompressedBuf) {
        let words = to_symbols(entry);
        let mut w = out.begin();
        let mut i = 0;
        while i < words.len() {
            let word = words[i];
            if word == 0 {
                let mut run = 1;
                while i + run < words.len() && words[i + run] == 0 && run < 8 {
                    run += 1;
                }
                w.push_bits(0b000, 3);
                w.push_bits(run as u64 - 1, 3);
                i += run;
                continue;
            }
            if fits_signed(word, 4) {
                w.push_bits(0b001, 3);
                w.push_bits((word & 0xF) as u64, 4);
            } else if fits_signed(word, 8) {
                w.push_bits(0b010, 3);
                w.push_bits((word & 0xFF) as u64, 8);
            } else if fits_signed(word, 16) {
                w.push_bits(0b011, 3);
                w.push_bits((word & 0xFFFF) as u64, 16);
            } else if word & 0xFFFF == 0 {
                w.push_bits(0b100, 3);
                w.push_bits((word >> 16) as u64, 16);
            } else if fits_signed(word & 0xFFFF, 8) && fits_signed(word >> 16, 8) {
                w.push_bits(0b101, 3);
                w.push_bits(((word >> 16) & 0xFF) as u64, 8);
                w.push_bits((word & 0xFF) as u64, 8);
            } else if word
                .to_le_bytes()
                .iter()
                .all(|&b| b == word.to_le_bytes()[0])
            {
                w.push_bits(0b110, 3);
                w.push_bits((word & 0xFF) as u64, 8);
            } else {
                w.push_bits(0b111, 3);
                w.push_bits(word as u64, 32);
            }
            i += 1;
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
        let mut words = [0u32; 32];
        let mut i = 0;
        while i < words.len() {
            let prefix = r.read_bits(3)?;
            match prefix {
                0b000 => {
                    let run = r.read_bits(3)? as usize + 1;
                    if i + run > words.len() {
                        return Err(DecodeError::InvalidCode {
                            bit_offset: r.bit_offset(),
                        });
                    }
                    i += run;
                    continue;
                }
                0b001 => {
                    let v = r.read_bits(4)? as u32;
                    words[i] = ((v << 28) as i32 >> 28) as u32;
                }
                0b010 => {
                    let v = r.read_bits(8)? as u32;
                    words[i] = ((v << 24) as i32 >> 24) as u32;
                }
                0b011 => {
                    let v = r.read_bits(16)? as u32;
                    words[i] = ((v << 16) as i32 >> 16) as u32;
                }
                0b100 => {
                    let v = r.read_bits(16)? as u32;
                    words[i] = v << 16;
                }
                0b101 => {
                    let hi = r.read_bits(8)? as u32;
                    let lo = r.read_bits(8)? as u32;
                    let hi = ((hi << 24) as i32 >> 24) as u32 & 0xFFFF;
                    let lo = ((lo << 24) as i32 >> 24) as u32 & 0xFFFF;
                    words[i] = (hi << 16) | lo;
                }
                0b110 => {
                    let b = r.read_bits(8)? as u32;
                    words[i] = b * 0x0101_0101;
                }
                _ => {
                    words[i] = r.read_bits(32)? as u32;
                }
            }
            i += 1;
        }
        *out = from_symbols(&words);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry_from_words(f: impl Fn(usize) -> u32) -> Entry {
        let mut words = [0u32; 32];
        for (i, w) in words.iter_mut().enumerate() {
            *w = f(i);
        }
        from_symbols(&words)
    }

    fn round_trip(entry: &Entry) -> usize {
        let codec = FrequentPattern::new();
        let mut c = CompressedBuf::new();
        codec.compress_into(entry, &mut c);
        let mut out = [0xFFu8; 128];
        codec.decompress_into(c.data(), c.bits(), &mut out).unwrap();
        assert_eq!(&out, entry);
        c.bits()
    }

    #[test]
    fn zeros() {
        assert_eq!(round_trip(&[0u8; 128]), 24);
    }

    #[test]
    fn small_positive_and_negative_ints() {
        let entry = entry_from_words(|i| if i % 2 == 0 { 3 } else { (-4i32) as u32 });
        assert_eq!(round_trip(&entry), 32 * 7); // all 4-bit sign-extended
    }

    #[test]
    fn eight_bit_values() {
        let entry = entry_from_words(|i| 90 + i as u32); // 90..121 all fit signed 8 bits
        assert_eq!(round_trip(&entry), 32 * 11);
    }

    #[test]
    fn sixteen_bit_values() {
        let entry = entry_from_words(|i| 30_000 + i as u32);
        assert_eq!(round_trip(&entry), 32 * 19);
    }

    #[test]
    fn high_half_words() {
        let entry = entry_from_words(|i| (0x4000 + i as u32) << 16);
        assert_eq!(round_trip(&entry), 32 * 19);
    }

    #[test]
    fn halfword_pairs() {
        // i == 0 yields 0x30 (an 8-bit immediate, 11 bits); the remaining 31
        // words are genuine half-word pairs (19 bits each).
        let entry = entry_from_words(|i| ((i as u32 & 0x7F) << 16) | 0x30);
        assert_eq!(round_trip(&entry), 11 + 31 * 19);
    }

    #[test]
    fn repeated_bytes() {
        let entry = entry_from_words(|_| 0xABAB_ABAB);
        assert_eq!(round_trip(&entry), 32 * 11);
    }

    #[test]
    fn incompressible_words() {
        let entry = entry_from_words(|i| 0x1234_5601 + (i as u32) * 0x0101_0733);
        let bits = round_trip(&entry);
        assert!(
            bits >= 32 * 32,
            "random-ish words should mostly be raw: {bits}"
        );
    }

    #[test]
    fn mixed_patterns_round_trip() {
        let entry = entry_from_words(|i| match i % 5 {
            0 => 0,
            1 => 7,
            2 => 0xFFFF_FF00,
            3 => 0x7F31_0000,
            _ => 0xDEAD_BEEF,
        });
        round_trip(&entry);
    }

    #[test]
    fn zero_run_overflow_rejected() {
        // Five zero-run codes of 7 words each claim 35 > 32 words; the fifth
        // code overruns the block.
        let mut buf = CompressedBuf::new();
        let mut w = buf.begin();
        for _ in 0..5 {
            w.push_bits(0b000, 3);
            w.push_bits(6, 3);
        }
        w.finish();
        assert!(matches!(
            FrequentPattern::new().decompress_into(buf.data(), buf.bits(), &mut [0u8; 128]),
            Err(DecodeError::InvalidCode { .. })
        ));
    }
}
