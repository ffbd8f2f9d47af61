//! Hardware memory-compression algorithms for 128-byte GPU memory-entries.
//!
//! This crate implements the compression substrate of the *Buddy Compression*
//! reproduction (Choukse et al., ISCA 2020):
//!
//! * [`BitPlane`] — Bit-Plane Compression (BPC) after Kim, Sullivan, Choukse
//!   and Erez (ISCA 2016). This is the algorithm the paper selects for Buddy
//!   Compression after "comparing several algorithms" (§2.4).
//! * [`BaseDeltaImmediate`] — BDI after Pekhimenko et al. (PACT 2012), one of
//!   the compared baselines.
//! * [`FrequentPattern`] — FPC after Alameldeen and Wood (UW-Madison TR 1500),
//!   another compared baseline.
//! * [`ZeroRle`] — the trivial all-zero detector, a lower bound used for
//!   ablation.
//!
//! All algorithms operate on one 128 B *memory-entry* — the compression
//! granularity the paper chooses for GPUs (§2.4) — and round-trip losslessly.
//! Compressed sizes are quantized by [`SizeClass`] into the eight capacity
//! classes the paper's Figure 3 assumes (0, 8, 16, 32, 64, 80, 96, 128 bytes)
//! and into 32 B *sectors*, the GPU DRAM access granularity that Buddy
//! Compression stripes entries by (Figure 4).
//!
//! Every algorithm is exposed through the object-safe, zero-allocation
//! [`Codec`] API: [`Codec::compress_into`] encodes into a
//! [`CompressedBuf`], a fixed inline buffer sized for the longest stream
//! any codec writes, and the [`CodecKind`] handle selects an algorithm at
//! runtime. [`is_zero`] is the one all-zero test every zero-aware path
//! shares.
//!
//! # Example
//!
//! ```
//! use bpc::{BitPlane, Codec, CompressedBuf, ENTRY_BYTES};
//!
//! // A smooth ramp of 32-bit integers compresses extremely well under BPC.
//! let mut entry = [0u8; ENTRY_BYTES];
//! for (i, w) in entry.chunks_exact_mut(4).enumerate() {
//!     w.copy_from_slice(&(1000u32 + 3 * i as u32).to_le_bytes());
//! }
//! let codec = BitPlane::new();
//! let mut buf = CompressedBuf::new();
//! codec.compress_into(&entry, &mut buf);
//! assert!(buf.bits() < 8 * ENTRY_BYTES);
//! let mut restored = [0u8; ENTRY_BYTES];
//! codec.decompress_into(buf.data(), buf.bits(), &mut restored).unwrap();
//! assert_eq!(restored, entry);
//!
//! assert!(buf.size_class().bytes() <= 32);
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod bdi;
pub mod bitplane;
pub mod bits;
pub mod codec;
pub mod fpc;
pub mod size_class;
pub mod zero;

pub use bdi::BaseDeltaImmediate;
pub use bitplane::BitPlane;
pub use codec::{Codec, CodecKind, CompressedBuf};
pub use fpc::FrequentPattern;
pub use size_class::{SizeClass, SizeHistogram};
pub use zero::ZeroRle;

use std::error::Error;
use std::fmt;

/// Size in bytes of one memory-entry, the compression granularity.
///
/// The paper fixes this to 128 B following the micro-benchmark study of Jia
/// et al. and the GPU cache-line size (§2.4).
pub const ENTRY_BYTES: usize = 128;

/// Size in bytes of one sector, the GPU DRAM access granularity.
///
/// 32 B matches GDDR5/GDDR5X/GDDR6/HBM2 access granularity (§3.2).
pub const SECTOR_BYTES: usize = 32;

/// Number of sectors per memory-entry (4).
pub const SECTORS_PER_ENTRY: usize = ENTRY_BYTES / SECTOR_BYTES;

/// One uncompressed 128-byte memory-entry.
pub type Entry = [u8; ENTRY_BYTES];

/// Error returned when a compressed bitstream cannot be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The bitstream ended before the decoder finished.
    Truncated,
    /// The bitstream contained an invalid code word.
    InvalidCode {
        /// Bit offset at which the invalid code was encountered.
        bit_offset: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "bitstream ended before decoding finished"),
            DecodeError::InvalidCode { bit_offset } => {
                write!(f, "invalid code word at bit offset {bit_offset}")
            }
        }
    }
}

impl Error for DecodeError {}

/// Whether every byte of `entry` is zero: sixteen 64-bit words ORed
/// together, where a byte-wise scan of an all-zero entry takes 128 steps.
/// The one all-zero test of the workspace: the zero-aware codecs, the
/// `B0` size class and the device's untracked-zero write path all ask it.
pub fn is_zero(entry: &Entry) -> bool {
    let any = entry.chunks_exact(8).fold(0u64, |acc, chunk| {
        let mut word = [0u8; 8];
        word.copy_from_slice(chunk);
        acc | u64::from_ne_bytes(word)
    });
    any == 0
}

/// Interprets a 128-byte entry as 32 little-endian 32-bit symbols.
#[expect(
    clippy::expect_used,
    reason = "chunks_exact(4) yields exactly 4-byte slices"
)]
pub(crate) fn to_symbols(entry: &Entry) -> [u32; 32] {
    let mut symbols = [0u32; 32];
    for (symbol, chunk) in symbols.iter_mut().zip(entry.chunks_exact(4)) {
        *symbol = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
    }
    symbols
}

/// Reassembles 32 little-endian 32-bit symbols into a 128-byte entry.
pub(crate) fn from_symbols(symbols: &[u32; 32]) -> Entry {
    let mut entry = [0u8; ENTRY_BYTES];
    for (chunk, symbol) in entry.chunks_exact_mut(4).zip(symbols.iter()) {
        chunk.copy_from_slice(&symbol.to_le_bytes());
    }
    entry
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbols_round_trip() {
        let mut entry = [0u8; ENTRY_BYTES];
        for (i, byte) in entry.iter_mut().enumerate() {
            *byte = (i * 7 + 3) as u8;
        }
        assert_eq!(from_symbols(&to_symbols(&entry)), entry);
    }

    #[test]
    fn one_nonzero_byte_anywhere_is_nonzero() {
        assert!(is_zero(&[0u8; ENTRY_BYTES]));
        for position in 0..ENTRY_BYTES {
            let mut entry = [0u8; ENTRY_BYTES];
            entry[position] = 1 << (position % 8);
            assert!(!is_zero(&entry), "byte {position}");
        }
    }

    #[test]
    fn compressed_accessors() {
        let mut c = CompressedBuf::new();
        let mut w = c.begin();
        w.push_bits(0xABC, 12);
        w.finish();
        assert_eq!(c.bits(), 12);
        assert_eq!(c.bytes(), 2);
        assert_eq!(c.data(), [0xAB, 0xC0]);
        assert_eq!(c.size_class(), SizeClass::B8);
        assert_eq!(c.sectors(), 1);
    }

    #[test]
    fn decode_error_display() {
        assert_eq!(
            DecodeError::Truncated.to_string(),
            "bitstream ended before decoding finished"
        );
        assert_eq!(
            DecodeError::InvalidCode { bit_offset: 5 }.to_string(),
            "invalid code word at bit offset 5"
        );
    }
}
