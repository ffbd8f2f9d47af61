//! The codec-agnostic compression API: an object-safe [`Codec`] trait with a
//! zero-allocation encode path, the fixed inline [`CompressedBuf`] it
//! encodes into, and [`CodecKind`], the `Copy` handle that selects one
//! algorithm.
//!
//! The paper picks BPC only after "comparing several algorithms" (§2.4);
//! this layer lets the rest of the system — the functional `BuddyDevice`,
//! the snapshot profiler and the figure harnesses — run *any* of the
//! implemented algorithms through the same pipeline. Related designs treat
//! the compressor as a swappable pipeline stage the same way (e.g. the
//! Compressing DMA Engine of Rhu et al., MICRO 2017).
//!
//! [`Codec::compress_into`] encodes into a caller-owned [`CompressedBuf`]:
//! a bit length plus a fixed array sized for the longest stream any codec
//! writes, so it is an ordinary stack value and no encode ever touches the
//! heap. Hot loops (the device write path, the snapshot samplers, the
//! figure harnesses) declare one where they need it.
//!
//! # Example
//!
//! ```
//! use bpc::{Codec, CodecKind, CompressedBuf, ENTRY_BYTES};
//!
//! // CodecKind is the Copy-able handle the device model stores.
//! let codec = CodecKind::Bdi;
//! assert_eq!(codec.to_string(), "bdi");
//! let entry = [0u8; ENTRY_BYTES];
//! let mut buf = CompressedBuf::new();
//! codec.compress_into(&entry, &mut buf);
//!
//! let mut restored = [0xFFu8; ENTRY_BYTES];
//! codec.decompress_into(buf.data(), buf.bits(), &mut restored).unwrap();
//! assert_eq!(restored, entry);
//! ```

use crate::bits::BitWriter;
use crate::{
    BaseDeltaImmediate, BitPlane, DecodeError, Entry, FrequentPattern, SizeClass, ZeroRle,
};
use std::fmt;

/// One compressed entry: its bit length and the bitstream, held inline.
///
/// The buffer is a fixed array sized for the longest stream any codec in
/// this crate writes, so it lives on the stack and encoding never touches
/// the heap. The bitstream is only meaningful to the codec that produced
/// it.
#[derive(Debug, Clone)]
pub struct CompressedBuf {
    pub(crate) bits: usize,
    pub(crate) data: [u8; Self::CAPACITY],
}

impl CompressedBuf {
    /// Bytes of inline storage. The longest stream any codec writes is
    /// FPC's 32 unmatched words, 32 × (3 + 32) = 1120 bits (BPC's is
    /// 33 + 33 × 32 = 1089, BDI's 4 + 1024, the zero codec's 1 + 1024);
    /// 144 bytes is that rounded up to whole 8-byte words, the unit
    /// [`BitWriter`] stores.
    pub const CAPACITY: usize = 144;

    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self {
            bits: 0,
            data: [0; Self::CAPACITY],
        }
    }

    /// Exact compressed size in bits.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Compressed size rounded up to whole bytes.
    pub fn bytes(&self) -> usize {
        self.bits.div_ceil(8)
    }

    /// The encoded bitstream (MSB-first within each byte), exactly
    /// [`bytes`](Self::bytes) long; the unused low bits of the last byte
    /// are zero.
    pub fn data(&self) -> &[u8] {
        &self.data[..self.bytes()]
    }

    /// The stream followed by zero bytes, `len` bytes in all: what a
    /// `len`-byte store holding the stream (a sector-aligned slot, say)
    /// must contain. Every byte past the stream is zero however long a
    /// stream the buffer held before ([`BitWriter::finish`]), so this is a
    /// view of the buffer, not a copy.
    ///
    /// # Panics
    ///
    /// Panics if `len` is shorter than [`bytes`](Self::bytes) or longer
    /// than [`CAPACITY`](Self::CAPACITY).
    pub fn padded(&self, len: usize) -> &[u8] {
        assert!(len >= self.bytes(), "padding cannot cut the stream");
        &self.data[..len]
    }

    /// The capacity size class of the held bitstream.
    pub fn size_class(&self) -> SizeClass {
        SizeClass::for_bits(self.bits)
    }

    /// Number of 32 B sectors needed to store this block, between 1 and 4.
    pub fn sectors(&self) -> u8 {
        self.size_class().sectors().max(1)
    }

    /// Starts a fresh encode into this buffer; [`BitWriter::finish`]
    /// completes it. A writer dropped before `finish` leaves the buffer
    /// empty but keeps the bytes it stored, so the zeros that
    /// [`padded`](Self::padded) promises hold only while every encode
    /// into the buffer is finished, as every [`Codec`] here does.
    ///
    /// Codec implementations use this; callers normally only pass the buffer
    /// to [`Codec::compress_into`].
    pub fn begin(&mut self) -> BitWriter<'_> {
        BitWriter::new(self)
    }
}

impl Default for CompressedBuf {
    fn default() -> Self {
        Self::new()
    }
}

/// An object-safe, allocation-free lossless compressor for 128-byte
/// memory-entries.
///
/// Implementations must satisfy the round-trip law: for every entry `e` and
/// buffer `b`, `compress_into(&e, &mut b)` followed by
/// `decompress_into(b.data(), b.bits(), &mut out)` must succeed with
/// `out == e`. This is property-tested for every codec in this crate.
///
/// Decoders must also be *total* on garbage: any `(data, bits)` input either
/// decodes or returns a structured [`DecodeError`] — never a panic.
///
/// `Sync` is a supertrait: concurrent clients (e.g. the `buddy-pool`
/// shards) call one codec from many threads at once. All implementations
/// are stateless unit structs, so this costs nothing.
pub trait Codec: Sync {
    /// Short stable name of the algorithm (used in reports and as
    /// [`CodecKind`]'s `Display`).
    fn name(&self) -> &'static str;

    /// Compresses one entry into `out`, replacing what it held.
    ///
    /// On return `out` holds the full bitstream and its exact bit length.
    /// The path performs no heap allocation: `out` is a fixed inline
    /// buffer.
    fn compress_into(&self, entry: &Entry, out: &mut CompressedBuf);

    /// Decodes a bitstream previously produced by this codec into `out`.
    ///
    /// `bits` bounds how many bits of `data` are valid; decoders may read
    /// fewer (trailing padding, e.g. from sector-aligned storage, is
    /// ignored). Streams carry no algorithm tag: the caller owns the
    /// association between stored streams and the codec that wrote them,
    /// as `BuddyDevice` does.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if the bitstream is malformed or truncated.
    fn decompress_into(&self, data: &[u8], bits: usize, out: &mut Entry)
        -> Result<(), DecodeError>;

    /// The capacity size class of `entry` under this codec. A nonzero
    /// entry's stream is left in `scratch`.
    ///
    /// All-zero entries map to [`SizeClass::B0`]: the paper's capacity
    /// study (Figure 3) counts tracked-zero entries as occupying no data
    /// storage.
    fn size_class_into(&self, entry: &Entry, scratch: &mut CompressedBuf) -> SizeClass {
        if crate::is_zero(entry) {
            SizeClass::B0
        } else {
            self.compress_into(entry, scratch);
            scratch.size_class()
        }
    }
}

/// The four implemented compression algorithms, as a `Copy` handle.
///
/// `CodecKind` itself implements [`Codec`] by dispatching to the selected
/// algorithm, so it can be stored inside `Clone`-able structures (the
/// functional `BuddyDevice` keeps one) and passed across threads freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodecKind {
    /// Bit-Plane Compression ([`BitPlane`]) — the paper's choice.
    Bpc,
    /// Base-Delta-Immediate ([`BaseDeltaImmediate`]).
    Bdi,
    /// Frequent Pattern Compression ([`FrequentPattern`]).
    Fpc,
    /// The zero-detector lower bound ([`ZeroRle`]).
    Zero,
}

impl CodecKind {
    /// All four codecs, BPC first (the default everywhere).
    pub const ALL: [CodecKind; 4] = [
        CodecKind::Bpc,
        CodecKind::Bdi,
        CodecKind::Fpc,
        CodecKind::Zero,
    ];
}

// Concurrent clients share codecs across threads (each `buddy-pool` shard
// compresses through its own `CodecKind` copy), so both the trait object
// and the `Copy` handle must be `Send + Sync`. Checked at compile time.
const _: () = {
    const fn assert_sync<T: Sync + ?Sized>() {}
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_sync::<dyn Codec>();
    assert_send_sync::<CodecKind>();
};

impl Codec for CodecKind {
    fn name(&self) -> &'static str {
        match self {
            CodecKind::Bpc => BitPlane.name(),
            CodecKind::Bdi => BaseDeltaImmediate.name(),
            CodecKind::Fpc => FrequentPattern.name(),
            CodecKind::Zero => ZeroRle.name(),
        }
    }

    fn compress_into(&self, entry: &Entry, out: &mut CompressedBuf) {
        match self {
            CodecKind::Bpc => BitPlane.compress_into(entry, out),
            CodecKind::Bdi => BaseDeltaImmediate.compress_into(entry, out),
            CodecKind::Fpc => FrequentPattern.compress_into(entry, out),
            CodecKind::Zero => ZeroRle.compress_into(entry, out),
        }
    }

    fn decompress_into(
        &self,
        data: &[u8],
        bits: usize,
        out: &mut Entry,
    ) -> Result<(), DecodeError> {
        match self {
            CodecKind::Bpc => BitPlane.decompress_into(data, bits, out),
            CodecKind::Bdi => BaseDeltaImmediate.decompress_into(data, bits, out),
            CodecKind::Fpc => FrequentPattern.decompress_into(data, bits, out),
            CodecKind::Zero => ZeroRle.decompress_into(data, bits, out),
        }
    }
}

impl fmt::Display for CodecKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ENTRY_BYTES;

    /// The trait must stay object-safe: callers such as the round-trip
    /// suite take `&dyn Codec`.
    fn _object_safe(codec: &dyn Codec, entry: &Entry, buf: &mut CompressedBuf) {
        codec.compress_into(entry, buf);
    }

    fn entry_of_words(words: [u32; 32]) -> Entry {
        let mut e = [0u8; ENTRY_BYTES];
        for (c, w) in e.chunks_exact_mut(4).zip(words) {
            c.copy_from_slice(&w.to_le_bytes());
        }
        e
    }

    fn ramp_entry() -> Entry {
        entry_of_words(std::array::from_fn(|i| 1000 + 3 * i as u32))
    }

    /// Every codec leaves zeros past its stream in a buffer that held a
    /// longer one, so `padded` is the stream and zeros at any length.
    #[test]
    fn a_reused_buffer_is_zero_past_a_shorter_stream() {
        let mut lcg = 1u64;
        let noise = entry_of_words(std::array::from_fn(|_| {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
            (lcg >> 32) as u32
        }));
        for kind in CodecKind::ALL {
            for short in [ramp_entry(), entry_of_words([7; 32])] {
                let mut reused = CompressedBuf::new();
                kind.compress_into(&noise, &mut reused);
                kind.compress_into(&short, &mut reused);
                let mut fresh = CompressedBuf::new();
                kind.compress_into(&short, &mut fresh);
                assert_eq!(reused.bits(), fresh.bits(), "{kind}");
                let mut expected = fresh.data().to_vec();
                expected.resize(CompressedBuf::CAPACITY, 0);
                assert_eq!(
                    reused.padded(CompressedBuf::CAPACITY),
                    &expected[..],
                    "{kind}"
                );
            }
        }
    }

    #[test]
    fn kind_dispatches_to_its_codec() {
        let codecs: [&dyn Codec; 4] = [&BitPlane, &BaseDeltaImmediate, &FrequentPattern, &ZeroRle];
        let entry = ramp_entry();
        for (kind, codec) in CodecKind::ALL.into_iter().zip(codecs) {
            assert_eq!(kind.name(), codec.name());
            assert_eq!(kind.to_string(), codec.name());
            let (mut via_kind, mut direct) = (CompressedBuf::new(), CompressedBuf::new());
            kind.compress_into(&entry, &mut via_kind);
            codec.compress_into(&entry, &mut direct);
            assert_eq!(via_kind.data(), direct.data(), "{kind}");
        }
    }

    /// BPC's worst case: a nonzero base (1 + 32 bits) and 33 DBX planes
    /// that each take the 32-bit raw code. Delta `i` sets its even bits
    /// where bit `i` of `A` is set and its odd bits where bit `i` of `B`
    /// is, so the delta bit-planes alternate `A`, `B`, `A`, … and every
    /// DBX plane below the top two is `A ^ B`, which matches no short
    /// code; the sign plane and its neighbour come out raw for these
    /// constants too, as the bit count checks.
    fn bpc_worst_case() -> Entry {
        const A: u32 = 0x1234_5678;
        const B: u32 = 0x0F0F_0F0F;
        let mut words = [0x1234_5678u32; 32];
        for i in 0..31 {
            let even = if A >> i & 1 == 1 { 0x5555_5555 } else { 0 };
            let odd = if B >> i & 1 == 1 { 0xAAAA_AAAA } else { 0 };
            words[i + 1] = words[i].wrapping_add(even | odd);
        }
        entry_of_words(words)
    }

    #[test]
    fn worst_case_streams_fit_the_buffer() {
        let mut noise = [0u8; ENTRY_BYTES];
        let mut s = 1u64;
        for b in noise.iter_mut() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            *b = (s >> 33) as u8;
        }
        let cases = [
            // Base flag + raw base, then 33 raw planes.
            (CodecKind::Bpc, bpc_worst_case(), 33 + 33 * 32),
            // A word no pattern matches costs its 3-bit prefix + 32 bits.
            (CodecKind::Fpc, entry_of_words([0x1234_5678; 32]), 32 * 35),
            // No base-delta scheme fits noise: 4-bit raw id + the entry.
            (CodecKind::Bdi, noise, 4 + 1024),
            (CodecKind::Zero, noise, 1 + 1024),
        ];
        let mut buf = CompressedBuf::new();
        for (kind, entry, max_bits) in cases {
            kind.compress_into(&entry, &mut buf);
            assert_eq!(buf.bits(), max_bits, "{kind}: worst-case stream length");
            assert!(buf.bytes() <= CompressedBuf::CAPACITY, "{kind}: fits");
            let mut out = [0u8; ENTRY_BYTES];
            kind.decompress_into(buf.data(), buf.bits(), &mut out)
                .expect("worst case decodes");
            assert_eq!(out, entry, "{kind}: worst-case round-trip");
        }
    }

    #[test]
    fn decompress_into_ignores_trailing_padding() {
        // Sector-aligned storage pads streams with zero bytes; decoders must
        // decode the prefix and ignore the rest, as the device relies on.
        let entry = ramp_entry();
        let mut buf = CompressedBuf::new();
        for kind in CodecKind::ALL {
            kind.compress_into(&entry, &mut buf);
            let mut padded = buf.data().to_vec();
            padded.resize(padded.len() + 32, 0);
            let mut out = [0u8; ENTRY_BYTES];
            kind.decompress_into(&padded, padded.len() * 8, &mut out)
                .expect("padded stream decodes");
            assert_eq!(out, entry, "{kind}: padded round-trip");
        }
    }

    #[test]
    fn size_class_into_special_cases_zero() {
        let mut buf = CompressedBuf::new();
        assert_eq!(
            CodecKind::Zero.size_class_into(&[0u8; ENTRY_BYTES], &mut buf),
            SizeClass::B0
        );
        let entry = ramp_entry();
        for kind in CodecKind::ALL {
            let class = kind.size_class_into(&entry, &mut buf);
            assert_eq!(
                class,
                SizeClass::for_bits(buf.bits()),
                "{kind}: class must be that of the stream left in scratch"
            );
        }
    }

    #[test]
    fn empty_buffer_reports_neutral_state() {
        let buf = CompressedBuf::new();
        assert_eq!(buf.bits(), 0);
        assert_eq!(buf.bytes(), 0);
        assert!(buf.data().is_empty());
        assert_eq!(buf.size_class(), SizeClass::B0);
    }
}
