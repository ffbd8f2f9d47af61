//! MSB-first bitstream writer used by every encoder in this crate, and the
//! reader the BDI, FPC and zero-RLE decoders use. The BPC decoder reads
//! its stream with its own 8-byte loads instead (see `bitplane`).

use crate::{CompressedBuf, DecodeError};

/// An append-only bit writer over one [`CompressedBuf`]. Bits are packed
/// MSB-first within each byte, matching how hardware serializers are
/// usually drawn in the compression literature.
///
/// Bits accumulate in a 64-bit word that is stored into the buffer's
/// inline array whole (big-endian, so the byte order is the MSB-first bit
/// order); [`finish`](Self::finish) flushes the partial last word, zeroes
/// what is left of the previous stream and records the bit length.
/// Nothing here touches the heap.
#[derive(Debug)]
pub struct BitWriter<'a> {
    out: &'a mut CompressedBuf,
    /// Bytes of whole words already stored.
    len: usize,
    /// End of the words the previous stream stored: the bytes that may be
    /// nonzero before this stream's words overwrite them.
    stale: usize,
    /// Pending bits, left-aligned: the next bit lands at bit `63 - fill`.
    acc: u64,
    /// Number of pending bits in `acc`, always below 64.
    fill: usize,
}

impl<'a> BitWriter<'a> {
    /// Starts an empty bitstream in `out`, discarding what it held
    /// ([`CompressedBuf::begin`]).
    pub(crate) fn new(out: &'a mut CompressedBuf) -> Self {
        let stale = out.bits.div_ceil(64) * 8;
        out.bits = 0;
        Self {
            out,
            len: 0,
            stale,
            acc: 0,
            fill: 0,
        }
    }

    /// Appends the low `n` bits of `value`, most-significant bit first.
    /// Bits of `value` above bit `n` are ignored.
    ///
    /// This is the inner loop of every encoder: one shift-or into the
    /// pending word, and one 8-byte store each time it fills.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`, or if the stream outgrows
    /// [`CompressedBuf::CAPACITY`] bytes (no codec's worst case comes
    /// near it).
    pub fn push_bits(&mut self, value: u64, n: usize) {
        assert!(n <= 64, "cannot push more than 64 bits at once");
        if n == 0 {
            return;
        }
        let value = value & (u64::MAX >> (64 - n));
        let free = 64 - self.fill;
        if n < free {
            self.acc |= value << (free - n);
            self.fill += n;
        } else {
            // The top `free` bits complete the pending word; the `spill`
            // bits below them start the next one.
            let spill = n - free;
            self.store(self.acc | (value >> spill));
            self.acc = if spill == 0 { 0 } else { value << (64 - spill) };
            self.fill = spill;
        }
    }

    /// Appends one bit.
    pub fn push_bit(&mut self, bit: bool) {
        self.push_bits(bit as u64, 1);
    }

    /// Number of bits written so far.
    pub fn len_bits(&self) -> usize {
        self.len * 8 + self.fill
    }

    /// Whether no bits have been written.
    pub fn is_empty(&self) -> bool {
        self.len_bits() == 0
    }

    /// Completes the stream: flushes the pending bits, zeroes the bytes
    /// of the previous stream past this one's last word, and records the
    /// bit length in the buffer. Every byte past the stream is then zero:
    /// the unused low bits of the last byte, and the rest of the buffer
    /// ([`CompressedBuf::padded`]).
    pub fn finish(mut self) {
        let bits = self.len_bits();
        if self.fill > 0 {
            self.store(self.acc);
        }
        if self.stale > self.len {
            self.out.data[self.len..self.stale].fill(0);
        }
        self.out.bits = bits;
    }

    /// Stores one whole word at the end of the stream.
    fn store(&mut self, word: u64) {
        self.out.data[self.len..self.len + 8].copy_from_slice(&word.to_be_bytes());
        self.len += 8;
    }
}

/// Reads bits MSB-first from a byte slice produced by [`BitWriter`].
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    data: &'a [u8],
    pos: usize,
    len_bits: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `data`, limited to `len_bits` valid bits.
    pub fn new(data: &'a [u8], len_bits: usize) -> Self {
        Self {
            data,
            pos: 0,
            len_bits: len_bits.min(data.len() * 8),
        }
    }

    /// Current read position in bits from the start of the stream.
    pub fn bit_offset(&self) -> usize {
        self.pos
    }

    /// Number of unread bits remaining.
    pub fn remaining(&self) -> usize {
        self.len_bits - self.pos
    }

    /// The eight bytes starting at `byte` as one big-endian word, padded
    /// with zeros past the end of `data` (the 8-byte granule and the tail
    /// of the last sector take the same path as everything else).
    fn window(&self, byte: usize) -> u64 {
        if let Some(full) = self.data.get(byte..byte + 8) {
            let mut word = [0u8; 8];
            word.copy_from_slice(full);
            return u64::from_be_bytes(word);
        }
        self.data[byte..]
            .iter()
            .enumerate()
            .fold(0, |acc, (i, &b)| acc | (b as u64) << (56 - 8 * i))
    }

    /// Reads one bit.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Truncated`] at end of stream.
    pub fn read_bit(&mut self) -> Result<bool, DecodeError> {
        Ok(self.read_bits(1)? == 1)
    }

    /// Reads `n` bits MSB-first into the low bits of the result.
    ///
    /// One 64-bit window load and a shift, mirroring
    /// [`BitWriter::push_bits`]; a read of more than 57 bits that starts
    /// mid-byte takes its last few bits from a ninth byte.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Truncated`] if fewer than `n` bits remain; the
    /// read position does not move.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    pub fn read_bits(&mut self, n: usize) -> Result<u64, DecodeError> {
        assert!(n <= 64, "cannot read more than 64 bits at once");
        if self.remaining() < n {
            return Err(DecodeError::Truncated);
        }
        if n == 0 {
            return Ok(0);
        }
        let (byte, shift) = (self.pos / 8, self.pos % 8);
        let mut value = (self.window(byte) << shift) >> (64 - n);
        if shift + n > 64 {
            // `remaining() >= n` puts the ninth byte inside `data`.
            value |= (self.data[byte + 8] as u64) >> (72 - shift - n);
        }
        self.pos += n;
        Ok(value)
    }
}

/// The byte-at-a-time bit I/O this module used before it went word-wide,
/// kept verbatim as the oracle the tests hold [`BitWriter`] and
/// [`BitReader`] to: same bytes, same values, same errors, same offsets.
#[cfg(test)]
pub(crate) mod reference {
    use crate::DecodeError;

    #[derive(Debug, Default)]
    pub(crate) struct ByteWriter {
        buf: Vec<u8>,
        len_bits: usize,
    }

    impl ByteWriter {
        pub(crate) fn push_bits(&mut self, value: u64, n: usize) {
            assert!(n <= 64, "cannot push more than 64 bits at once");
            let mut remaining = n;
            while remaining > 0 {
                let bit_pos = self.len_bits % 8;
                if bit_pos == 0 {
                    self.buf.push(0);
                }
                let byte_idx = self.len_bits / 8;
                let space = 8 - bit_pos;
                let take = space.min(remaining);
                // The top `take` of the `remaining` unwritten bits, aligned to
                // the byte's free space.
                let chunk = ((value >> (remaining - take)) as u8) & ((1u16 << take) - 1) as u8;
                self.buf[byte_idx] |= chunk << (space - take);
                self.len_bits += take;
                remaining -= take;
            }
        }

        pub(crate) fn push_bit(&mut self, bit: bool) {
            let byte_idx = self.len_bits / 8;
            if byte_idx == self.buf.len() {
                self.buf.push(0);
            }
            if bit {
                self.buf[byte_idx] |= 0x80 >> (self.len_bits % 8);
            }
            self.len_bits += 1;
        }

        pub(crate) fn into_parts(self) -> (Vec<u8>, usize) {
            (self.buf, self.len_bits)
        }
    }

    #[derive(Debug)]
    pub(crate) struct ByteReader<'a> {
        data: &'a [u8],
        pos: usize,
        len_bits: usize,
    }

    impl<'a> ByteReader<'a> {
        pub(crate) fn new(data: &'a [u8], len_bits: usize) -> Self {
            Self {
                data,
                pos: 0,
                len_bits: len_bits.min(data.len() * 8),
            }
        }

        pub(crate) fn bit_offset(&self) -> usize {
            self.pos
        }

        pub(crate) fn read_bit(&mut self) -> Result<bool, DecodeError> {
            if self.pos >= self.len_bits {
                return Err(DecodeError::Truncated);
            }
            let bit = (self.data[self.pos / 8] >> (7 - self.pos % 8)) & 1 == 1;
            self.pos += 1;
            Ok(bit)
        }

        pub(crate) fn read_bits(&mut self, n: usize) -> Result<u64, DecodeError> {
            assert!(n <= 64, "cannot read more than 64 bits at once");
            if self.len_bits - self.pos < n {
                return Err(DecodeError::Truncated);
            }
            let mut value = 0u64;
            let mut remaining = n;
            while remaining > 0 {
                let bit_pos = self.pos % 8;
                let avail = 8 - bit_pos;
                let take = avail.min(remaining);
                let byte = self.data[self.pos / 8];
                let chunk = (byte >> (avail - take)) & ((1u16 << take) - 1) as u8;
                value = (value << take) | chunk as u64;
                self.pos += take;
                remaining -= take;
            }
            Ok(value)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `f` on a writer over a fresh buffer and returns the stream it
    /// left: the bytes [`CompressedBuf::data`] exposes and the bit length.
    fn written(f: impl FnOnce(&mut BitWriter<'_>)) -> (Vec<u8>, usize) {
        let mut buf = CompressedBuf::new();
        rewritten(&mut buf, f)
    }

    /// [`written`] into an existing buffer.
    fn rewritten(buf: &mut CompressedBuf, f: impl FnOnce(&mut BitWriter<'_>)) -> (Vec<u8>, usize) {
        let mut w = buf.begin();
        f(&mut w);
        w.finish();
        (buf.data().to_vec(), buf.bits())
    }

    #[test]
    fn round_trip_mixed_widths() {
        let (bytes, bits) = written(|w| {
            w.push_bits(0b101, 3);
            w.push_bits(0xDEAD_BEEF, 32);
            w.push_bit(true);
            w.push_bits(0x1_FFFF_FFFF, 33);
        });
        assert_eq!(bits, 3 + 32 + 1 + 33);

        let mut r = BitReader::new(&bytes, bits);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(32).unwrap(), 0xDEAD_BEEF);
        assert!(r.read_bit().unwrap());
        assert_eq!(r.read_bits(33).unwrap(), 0x1_FFFF_FFFF);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn msb_first_packing() {
        let (bytes, bits) = written(|w| {
            w.push_bit(true); // 1000_0000
            w.push_bits(0b01, 2); // 1010_0000
        });
        assert_eq!(bits, 3);
        assert_eq!(bytes, vec![0b1010_0000]);
    }

    #[test]
    fn read_past_end_is_truncated() {
        let mut r = BitReader::new(&[0xFF], 3);
        assert_eq!(r.read_bits(3).unwrap(), 0b111);
        assert_eq!(r.read_bit(), Err(DecodeError::Truncated));
        assert_eq!(r.read_bits(1), Err(DecodeError::Truncated));
    }

    #[test]
    fn reader_tracks_offset() {
        let mut r = BitReader::new(&[0xAA, 0xAA], 16);
        assert_eq!(r.bit_offset(), 0);
        r.read_bits(5).unwrap();
        assert_eq!(r.bit_offset(), 5);
        assert_eq!(r.remaining(), 11);
    }

    /// A fixed byte pattern with no two equal neighbours.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(0x9D) ^ 0x5A)
            .collect()
    }

    /// A reader and the reference reader, both `start` bits into `data`.
    fn readers_at(
        data: &[u8],
        len_bits: usize,
        start: usize,
    ) -> (BitReader<'_>, reference::ByteReader<'_>) {
        let mut r = BitReader::new(data, len_bits);
        let mut oracle = reference::ByteReader::new(data, len_bits);
        let mut left = start;
        while left > 0 {
            let n = left.min(64);
            assert_eq!(r.read_bits(n), oracle.read_bits(n));
            left -= n;
        }
        (r, oracle)
    }

    #[test]
    fn every_width_at_every_alignment_writes_the_reference_bytes() {
        // All 64 bits set: whatever lies above bit `n` must be ignored.
        let garbage = 0xF0F1_F2F3_F4F5_F6F7u64 | 1 << 63;
        for align in 0..8 {
            for n in 0..=64 {
                let mut oracle = reference::ByteWriter::default();
                oracle.push_bits(0b010_1101, align);
                oracle.push_bits(garbage, n);
                oracle.push_bit(true);
                oracle.push_bits(garbage, 64);
                let stream = written(|w| {
                    w.push_bits(0b010_1101, align);
                    w.push_bits(garbage, n);
                    assert_eq!(w.len_bits(), align + n);
                    w.push_bit(true);
                    w.push_bits(garbage, 64);
                });
                assert_eq!(stream, oracle.into_parts(), "align {align} width {n}");
            }
        }
    }

    #[test]
    fn long_mixed_stream_writes_the_reference_bytes() {
        // As long a stream as the buffer holds.
        let mut oracle = reference::ByteWriter::default();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut pushes = Vec::new();
        while pushes.iter().map(|&(_, n)| n).sum::<usize>() < CompressedBuf::CAPACITY * 8 - 64 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let n = (state >> 58) as usize + (state & 1) as usize; // 0..=64
            pushes.push((state, n));
            oracle.push_bits(state, n);
        }
        let stream = written(|w| {
            for &(value, n) in &pushes {
                w.push_bits(value, n);
            }
        });
        assert_eq!(stream, oracle.into_parts());
    }

    #[test]
    fn every_read_matches_the_reference_reader() {
        // Every data length around the 8-byte window, every start bit
        // (so every alignment, and every start inside the last 7 bytes),
        // every width — including the ones that overrun the stream.
        for len in 0..=18 {
            let data = pattern(len);
            for len_bits in [len * 8, (len * 8).saturating_sub(5), len * 8 + 100] {
                let valid = len_bits.min(len * 8);
                for start in 0..=valid {
                    for n in 0..=64 {
                        let (mut r, mut oracle) = readers_at(&data, len_bits, start);
                        let got = r.read_bits(n);
                        assert_eq!(
                            got,
                            oracle.read_bits(n),
                            "len {len} start {start} width {n}"
                        );
                        assert_eq!(got.is_err(), n > valid - start);
                        assert_eq!(r.bit_offset(), oracle.bit_offset());
                        assert_eq!(r.remaining(), valid - r.bit_offset());
                    }
                    let (mut r, mut oracle) = readers_at(&data, len_bits, start);
                    assert_eq!(r.read_bit(), oracle.read_bit());
                    assert_eq!(r.bit_offset(), oracle.bit_offset());
                }
            }
        }
    }

    #[test]
    fn declared_length_clamps_to_the_data() {
        let mut r = BitReader::new(&[0xAB, 0xCD], 1000);
        assert_eq!(r.remaining(), 16);
        assert_eq!(r.read_bits(17), Err(DecodeError::Truncated));
        assert_eq!(r.bit_offset(), 0);
        assert_eq!(r.read_bits(16).unwrap(), 0xABCD);
        assert_eq!(r.read_bit(), Err(DecodeError::Truncated));
        assert_eq!(r.bit_offset(), 16);
    }

    #[test]
    fn into_parts_pads_the_last_byte_with_zeros() {
        let mut buf = CompressedBuf::new();
        let (bytes, bits) = rewritten(&mut buf, |w| {
            w.push_bits(u64::MAX, 64);
            w.push_bits(u64::MAX, 13);
        });
        assert_eq!(bits, 77);
        assert_eq!(bytes.len(), 10, "no more bytes than the bits need");
        assert_eq!(bytes[8..], [0xFF, 0xF8]);
        // A rewritten buffer full of ones leaves nothing behind the new
        // bits: the device stores the padded bytes and decodes them again.
        let stream = rewritten(&mut buf, |w| w.push_bit(true));
        assert_eq!(stream, (vec![0x80u8], 1));
    }

    #[test]
    fn empty_writer() {
        let mut buf = CompressedBuf::new();
        let (bytes, bits) = rewritten(&mut buf, |w| {
            assert!(w.is_empty());
            assert_eq!(w.len_bits(), 0);
        });
        assert!(bytes.is_empty());
        assert_eq!(bits, 0);
    }
}
