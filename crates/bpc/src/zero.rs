//! Trivial zero-detection "compression", the lower bound among the compared
//! algorithms: an entry is either entirely zero (1-bit code) or stored raw.
//!
//! The paper notes that many discarded benchmarks "seemed to have large
//! portions of their working sets be zero" (§2.1); this codec quantifies how
//! much of a workload's compressibility is explained by zeros alone, which
//! the ablation benches use to contextualize BPC's advantage.

use crate::bits::BitReader;
use crate::{Codec, CompressedBuf, DecodeError, Entry, ENTRY_BYTES};

/// The zero-run codec: 1 bit for an all-zero entry, `1 + 1024` bits otherwise.
///
/// # Example
///
/// ```
/// use bpc::{Codec, CompressedBuf, ZeroRle};
///
/// let codec = ZeroRle::new();
/// let mut buf = CompressedBuf::new();
/// codec.compress_into(&[0u8; 128], &mut buf);
/// assert_eq!(buf.bits(), 1);
/// codec.compress_into(&[1u8; 128], &mut buf);
/// assert_eq!(buf.bits(), 1 + 1024);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ZeroRle;

impl ZeroRle {
    /// Stable algorithm name returned by [`Codec::name`].
    pub const NAME: &'static str = "zero";

    /// Creates the codec.
    pub fn new() -> Self {
        Self
    }
}

impl Codec for ZeroRle {
    fn name(&self) -> &'static str {
        Self::NAME
    }

    fn compress_into(&self, entry: &Entry, out: &mut CompressedBuf) {
        let mut w = out.begin();
        if crate::is_zero(entry) {
            w.push_bit(false);
        } else {
            w.push_bit(true);
            for &b in entry.iter() {
                w.push_bits(b as u64, 8);
            }
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
        *out = [0u8; ENTRY_BYTES];
        if r.read_bit()? {
            for b in out.iter_mut() {
                *b = r.read_bits(8)? as u8;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(entry: &Entry) -> usize {
        let codec = ZeroRle::new();
        let mut c = CompressedBuf::new();
        codec.compress_into(entry, &mut c);
        let mut out = [0xFFu8; 128];
        codec.decompress_into(c.data(), c.bits(), &mut out).unwrap();
        assert_eq!(&out, entry);
        c.bits()
    }

    #[test]
    fn zero_round_trip() {
        assert_eq!(round_trip(&[0u8; 128]), 1);
    }

    #[test]
    fn nonzero_round_trip() {
        let mut entry = [0u8; 128];
        entry[127] = 1;
        assert_eq!(round_trip(&entry), 1025);
    }

    #[test]
    fn truncated_rejected() {
        assert!(matches!(
            ZeroRle::new().decompress_into(&[], 0, &mut [0u8; 128]),
            Err(DecodeError::Truncated)
        ));
    }
}
