//! The codec-agnostic compression API: an object-safe [`Codec`] trait with a
//! zero-allocation encode path, a reusable [`CompressedBuf`] scratch buffer,
//! and [`CodecKind`], the `Copy` handle that selects one algorithm.
//!
//! The paper picks BPC only after "comparing several algorithms" (§2.4);
//! this layer lets the rest of the system — the functional `BuddyDevice`,
//! the snapshot profiler and the figure harnesses — run *any* of the
//! implemented algorithms through the same pipeline. Related designs treat
//! the compressor as a swappable pipeline stage the same way (e.g. the
//! Compressing DMA Engine of Rhu et al., MICRO 2017).
//!
//! [`Codec::compress_into`] encodes into a caller-owned [`CompressedBuf`].
//! After the first call the buffer's capacity is reused, so hot loops (the
//! device write path, the snapshot samplers, the figure harnesses) compress
//! millions of entries without touching the heap.
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

/// A reusable buffer holding one compressed entry.
///
/// The byte buffer's capacity survives across [`Codec::compress_into`]
/// calls, so a loop that compresses many entries allocates at most once.
/// The bitstream is only meaningful to the codec that produced it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompressedBuf {
    bits: usize,
    data: Vec<u8>,
}

impl CompressedBuf {
    /// Creates an empty buffer. The first compression into it allocates.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a buffer with room for `bytes` bytes of bitstream, enough to
    /// avoid any allocation if sized a little above
    /// [`ENTRY_BYTES`](crate::ENTRY_BYTES).
    pub fn with_capacity(bytes: usize) -> Self {
        Self {
            bits: 0,
            data: Vec::with_capacity(bytes),
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

    /// The encoded bitstream (MSB-first within each byte).
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// The capacity size class of the held bitstream.
    pub fn size_class(&self) -> SizeClass {
        SizeClass::for_bits(self.bits)
    }

    /// Number of 32 B sectors needed to store this block, between 1 and 4.
    pub fn sectors(&self) -> u8 {
        self.size_class().sectors().max(1)
    }

    /// Starts a fresh encode, handing out a [`BitWriter`] that reuses this
    /// buffer's backing storage. Pair with [`finish`](Self::finish).
    ///
    /// Codec implementations use this; callers normally only pass the buffer
    /// to [`Codec::compress_into`].
    pub fn begin(&mut self) -> BitWriter {
        self.bits = 0;
        BitWriter::reusing(std::mem::take(&mut self.data))
    }

    /// Completes an encode started with [`begin`](Self::begin), taking the
    /// bitstream back.
    ///
    /// # Panics
    ///
    /// Panics if the writer's bitstream is shorter than its declared bit
    /// length (impossible for streams produced via [`BitWriter`]).
    pub fn finish(&mut self, writer: BitWriter) {
        let (data, bits) = writer.into_parts();
        assert!(
            data.len() * 8 >= bits,
            "bitstream shorter than declared: {} bytes for {bits} bits",
            data.len()
        );
        self.bits = bits;
        self.data = data;
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
/// `Sync` is a supertrait: the registry hands out `&'static dyn Codec`
/// references that concurrent clients (e.g. the `buddy-pool` shards) share
/// across threads, so every codec must be safe to call from many threads at
/// once. All implementations are stateless unit structs, so this costs
/// nothing.
pub trait Codec: Sync {
    /// Short stable name of the algorithm (used in reports and as
    /// [`CodecKind`]'s `Display`).
    fn name(&self) -> &'static str;

    /// Compresses one entry into `out`, reusing `out`'s backing storage.
    ///
    /// On return `out` holds the full bitstream and its exact bit length.
    /// Steady-state this path performs no heap allocation (the buffer grows
    /// once to its high-water mark).
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

    /// The capacity size class of `entry` under this codec, using `scratch`
    /// so repeated classification allocates nothing.
    ///
    /// All-zero entries map to [`SizeClass::B0`]: the paper's capacity
    /// study (Figure 3) counts tracked-zero entries as occupying no data
    /// storage.
    fn size_class_into(&self, entry: &Entry, scratch: &mut CompressedBuf) -> SizeClass {
        if entry.iter().all(|&b| b == 0) {
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
    /// All registered codecs, BPC first (the default everywhere).
    pub const ALL: [CodecKind; 4] = [
        CodecKind::Bpc,
        CodecKind::Bdi,
        CodecKind::Fpc,
        CodecKind::Zero,
    ];

    /// The static codec instance this handle selects.
    pub fn as_codec(self) -> &'static dyn Codec {
        match self {
            CodecKind::Bpc => &BitPlane,
            CodecKind::Bdi => &BaseDeltaImmediate,
            CodecKind::Fpc => &FrequentPattern,
            CodecKind::Zero => &ZeroRle,
        }
    }
}

// The registry's static codec instances are shared by reference across
// threads (each `buddy-pool` shard compresses concurrently through the same
// `&'static dyn Codec`), so both the trait object and the `Copy` handle must
// be `Send + Sync`. Checked at compile time.
const _: () = {
    const fn assert_sync<T: Sync + ?Sized>() {}
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_sync::<dyn Codec>();
    assert_send_sync::<CodecKind>();
};

impl Codec for CodecKind {
    fn name(&self) -> &'static str {
        self.as_codec().name()
    }

    fn compress_into(&self, entry: &Entry, out: &mut CompressedBuf) {
        self.as_codec().compress_into(entry, out)
    }

    fn decompress_into(
        &self,
        data: &[u8],
        bits: usize,
        out: &mut Entry,
    ) -> Result<(), DecodeError> {
        self.as_codec().decompress_into(data, bits, out)
    }
}

impl fmt::Display for CodecKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_codec().name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ENTRY_BYTES;

    /// The trait must stay object-safe: the registry and the device model
    /// both hand out `&dyn Codec`.
    fn _object_safe(codec: &dyn Codec, entry: &Entry, buf: &mut CompressedBuf) {
        codec.compress_into(entry, buf);
    }

    fn ramp_entry() -> Entry {
        let mut e = [0u8; ENTRY_BYTES];
        for (i, c) in e.chunks_exact_mut(4).enumerate() {
            c.copy_from_slice(&(1000u32 + 3 * i as u32).to_le_bytes());
        }
        e
    }

    #[test]
    fn registry_resolves_all_names() {
        for kind in CodecKind::ALL {
            let name = kind.name();
            assert_eq!(kind.as_codec().name(), name);
            assert_eq!(kind.to_string(), name);
        }
    }

    #[test]
    fn buffer_capacity_is_reused() {
        let mut buf = CompressedBuf::new();
        let mut random = [0u8; ENTRY_BYTES];
        let mut s = 1u64;
        for b in random.iter_mut() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            *b = (s >> 33) as u8;
        }
        // First encode of an incompressible entry grows to the high-water
        // mark; later (smaller) encodes must not reallocate.
        CodecKind::Bpc.compress_into(&random, &mut buf);
        let cap = buf.data.capacity();
        for _ in 0..8 {
            CodecKind::Bpc.compress_into(&ramp_entry(), &mut buf);
            CodecKind::Bpc.compress_into(&random, &mut buf);
            assert_eq!(buf.data.capacity(), cap, "scratch capacity must persist");
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
        let buf = CompressedBuf::with_capacity(160);
        assert_eq!(buf.bits(), 0);
        assert_eq!(buf.bytes(), 0);
        assert!(buf.data().is_empty());
        assert_eq!(buf.size_class(), SizeClass::B0);
    }
}
