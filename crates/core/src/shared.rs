//! The epoch-published half of a [`BuddyDevice`](crate::device::BuddyDevice):
//! storage and per-slot addressing state that concurrent readers resolve
//! against a consistent snapshot without taking any device-wide lock.
//!
//! # Split
//!
//! A device's state is split into two halves:
//!
//! * The **mutable half** stays inside `BuddyDevice` behind `&mut self`:
//!   only what is not published — the two region allocators, the
//!   free-slot stack and the per-slot allocation names. Only the
//!   structural operations `alloc`/`free`/`retarget` touch it, and the
//!   pool keeps serializing those behind the shard mutex.
//! * The **published half** lives here, in one [`SharedState`] per device,
//!   reachable through `Arc` from both the device and any number of
//!   [`DeviceHandle`](crate::device::DeviceHandle)s: the data arrays as
//!   atomic words, the per-entry metadata nibbles packed sixteen to an
//!   atomic word ([`AtomicNibbles`], written a range at a time), and a
//!   [`SlotCell`] per allocation slot carrying the addressing facts
//!   (generation, entry count, target ratio, device and buddy base — what
//!   the paper's page-table extension holds) behind a per-slot
//!   **seqlock**. The cell is the only copy of those facts: the device
//!   reads its own allocations back through
//!   [`SharedState::structural_view`], the same validation the locked
//!   write path uses.
//!
//! Encoding needs no buffer from either half: the write engine declares
//! one stack [`CompressedBuf`] per run of entries, on its first nonzero
//! entry, and stores each stream's sectors straight from it, and the read
//! engine loads an entry's sectors into one stack buffer the decoder reads
//! in place.
//!
//! # Publication protocol
//!
//! Structural mutations publish a new *epoch* for a slot by bumping the
//! slot's sequence word to odd, storing the new addressing facts, and
//! bumping it back to even ([`SeqWindow`]). Readers snapshot the sequence
//! word, copy the addressing facts, read the referenced bytes/nibbles, and
//! re-validate the sequence word; any overlap with a publication window or
//! an entry write forces a retry, so a read observes the old epoch in
//! full, the new epoch in full, or (for a freed slot) a generation
//! mismatch — never a blend. Storage regions are returned to the free
//! lists only *after* the publication that unlinks them, so a reader that
//! raced the reuse of its bytes always fails its final sequence check.
//!
//! Entry writes do not change the addressing facts: they wrap the
//! byte/nibble stores in the same odd/even sequence window, so concurrent
//! readers of the same allocation retry instead of tearing. The window is
//! also the slot's only writer lock: a writer opens it with one CAS from
//! the even sequence its snapshot was validated at, so entry writes and
//! structural publications on one slot take turns, and a writer that finds
//! the window taken waits in the readers' spin loop.
//!
//! # The metadata plane is range-granular
//!
//! Metadata is addressed, not allocated: entry `i` of an allocation owns
//! nibble `device_base / 8 + i` ([`AllocView::metadata_index`]), so
//! disjoint device reservations have disjoint nibble ranges inside the
//! `device_capacity / 8` states the device builds up front, and nothing
//! records where an allocation's metadata lives. Data ranges are
//! word-aligned per allocation, so no two allocations ever share a data
//! word. Metadata units are not exclusive: a 64-bit unit holds the nibbles
//! of 128 device bytes, so wherever two reservations meet inside such a
//! span — `ZeroPage16` neighbours whose entry counts are not multiples of
//! sixteen, or any allocation smaller than 128 device bytes — the first
//! or last unit of a metadata range also holds a *neighbour's* nibbles,
//! written concurrently inside a different slot's window. Every metadata write
//! is therefore a range operation ([`AtomicNibbles::zero_range`] for `alloc`,
//! [`AtomicNibbles::store_run`] for entry batches and `retarget`) that
//! overwrites the units wholly inside the range with one plain store each
//! — they belong to exactly one allocation, whose writers take turns —
//! and touches only the at most two shared edge units with one masked
//! atomic XOR each. There is no per-nibble write path.
//!
//! # Ordering evidence
//!
//! Every ordering below is either the canonical seqlock set (via the
//! [`SeqWord`] methods in [`crate::sync`] — each justified by a
//! model-checker mutation in `crates/check`) or carries a `Relaxed:`
//! comment naming the edge that makes it safe. No ordering here is sequentially consistent:
//! the seqlock is the only reader protocol. The distilled protocol models
//! and their counterexample-producing mutations live in
//! `crates/check/src/models.rs`; DESIGN.md §13 maps each model back to
//! the code here.

#![expect(
    clippy::disallowed_types,
    reason = "every atomic here is protocol state (generations, published bases, byte and \
              nibble storage) or the device stats mirror reported through stats()"
)]

use crate::device::{AccessStats, AllocId, DeviceError};
use crate::metadata::EntryState;
use crate::sync::SeqWord;
use crate::target::TargetRatio;
use bpc::bitplane::DECODE_BYTES;
use bpc::{
    BitPlane, Codec, CompressedBuf, DecodeError, Entry, SizeHistogram, ENTRY_BYTES, SECTOR_BYTES,
};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;

/// The `Copy`-able addressing facts of one allocation — the per-epoch
/// snapshot every access resolves against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AllocView {
    pub(crate) target: TargetRatio,
    pub(crate) entries: u64,
    /// Byte offset of this allocation's region in device memory.
    pub(crate) device_base: u64,
    /// Byte offset of this allocation's slots in the buddy carve-out.
    pub(crate) buddy_base: u64,
}

impl AllocView {
    pub(crate) fn device_stride(&self) -> u64 {
        self.target.device_bytes_per_entry() as u64
    }

    pub(crate) fn buddy_stride(&self) -> u64 {
        self.target.buddy_bytes_per_entry() as u64
    }

    pub(crate) fn device_offset(&self, index: u64) -> u64 {
        self.device_base + index * self.device_stride()
    }

    pub(crate) fn buddy_offset(&self, index: u64) -> u64 {
        self.buddy_base + index * self.buddy_stride()
    }

    /// Index of entry `index`'s state nibble in the device's metadata
    /// array, derived from the device address (see
    /// [`TargetRatio::MIN_DEVICE_BYTES_PER_ENTRY`] for why it cannot
    /// collide with another allocation's).
    pub(crate) fn metadata_index(&self, index: u64) -> u64 {
        self.device_base / TargetRatio::MIN_DEVICE_BYTES_PER_ENTRY + index
    }
}

/// Bytes of an entry's zero-page granule: the whole device reservation of
/// [`TargetRatio::ZeroPage16`], which holds a stream of up to 64 bits.
const ZERO_PAGE_GRANULE: usize = 8;

/// Entry `index` of the allocation loaded as a metadata nibble its target
/// cannot store ([`SharedState::state`], `cause` `None`) or a stream its
/// codec rejects (`cause` the codec's error). Under a moved slot sequence
/// that is a racing mutation's torn value, and the caller retries. Under a
/// stable sequence it is the stored bits themselves, reported as
/// [`DeviceError::CorruptEntry`].
pub(crate) struct TornRead {
    pub(crate) index: u64,
    pub(crate) cause: Option<DecodeError>,
}

impl TornRead {
    /// A nibble that is not a state of its target.
    pub(crate) fn nibble(index: u64) -> Self {
        Self { index, cause: None }
    }
}

impl From<TornRead> for DeviceError {
    fn from(TornRead { index, cause }: TornRead) -> Self {
        DeviceError::CorruptEntry { index, cause }
    }
}

/// Byte-range validation shared by every access path.
pub(crate) fn check_index(view: &AllocView, index: u64) -> Result<(), DeviceError> {
    if index >= view.entries {
        Err(DeviceError::BadIndex {
            index,
            entries: view.entries,
        })
    } else {
        Ok(())
    }
}

/// Checks that `[start, start + len)` lies inside the allocation.
pub(crate) fn check_range(view: &AllocView, start: u64, len: u64) -> Result<(), DeviceError> {
    match start.checked_add(len) {
        Some(end) if end <= view.entries => Ok(()),
        _ => Err(DeviceError::BadIndex {
            index: start.saturating_add(len.saturating_sub(1)),
            entries: view.entries,
        }),
    }
}

pub(crate) fn record_read(stats: &mut AccessStats, target: TargetRatio, state: EntryState) {
    let buddy = u64::from(state.buddy_sectors(target));
    stats.device_sectors += u64::from(state.device_sectors(target));
    stats.buddy_sectors += buddy;
    if buddy > 0 {
        stats.reads_with_buddy += 1;
    } else {
        stats.reads_device_only += 1;
    }
}

pub(crate) fn record_write(stats: &mut AccessStats, target: TargetRatio, state: EntryState) {
    let buddy = u64::from(state.buddy_sectors(target));
    stats.device_sectors += u64::from(state.device_sectors(target));
    stats.buddy_sectors += buddy;
    if buddy > 0 {
        stats.writes_with_buddy += 1;
    } else {
        stats.writes_device_only += 1;
    }
}

/// `len` zeroed atomic words on pages nobody has touched yet.
///
/// `vec![0; len]` always allocates zeroed (`alloc_zeroed`: fresh mmap pages
/// for any size that matters), and re-wrapping each `u64` in place is an
/// identity the optimiser deletes, so the words cost no memory until
/// something stores to their page. The deletion is only reliable while
/// this is the one instantiation of the collect, hence `inline(never)` and
/// one helper for every atomic array here. Debug builds never delete it
/// and write every word. `crates/core/tests/backing.rs` pins both the
/// deletion and the device array's up-front backing in release builds.
#[inline(never)]
fn zeroed_words(len: usize) -> Box<[AtomicU64]> {
    vec![0u64; len].into_iter().map(AtomicU64::new).collect()
}

/// Byte storage as an array of atomic 64-bit words.
///
/// Every storage range the device hands out is 8-byte aligned with an
/// 8-byte-multiple length (strides are 8/32/64/96/128 and sectors are
/// 32 B), so all access happens in whole words; the single sub-word case —
/// the ≤ 8 B zero-page granule — composes one padded word in the caller.
pub(crate) struct AtomicBytes {
    words: Box<[AtomicU64]>,
}

impl AtomicBytes {
    /// Storage backed up front: one word of every 4 KiB (the smallest page
    /// size) is stored here, so no page fault lands on an access. The
    /// device array is built this way.
    pub(crate) fn new(len_bytes: u64) -> Self {
        let bytes = Self::reserved(len_bytes);
        for word in bytes.words.iter().step_by(4096 / 8) {
            // Relaxed: nothing else can see the array yet.
            word.store(0, Ordering::Relaxed);
        }
        bytes
    }

    /// Storage that is address space until written: a page is backed by
    /// the first store into it, and a page never written reads as zeros
    /// without being backed. The buddy carve-out is built this way, since
    /// only overflowing entries store there.
    pub(crate) fn reserved(len_bytes: u64) -> Self {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "one word per 8 B of an array the caller wants in memory"
        )]
        let words = zeroed_words(len_bytes.div_ceil(8) as usize);
        Self { words }
    }

    /// Copies `out.len()` bytes starting at `byte_off` out of storage.
    pub(crate) fn read(&self, byte_off: u64, out: &mut [u8]) {
        debug_assert_eq!(byte_off % 8, 0);
        debug_assert_eq!(out.len() % 8, 0);
        let base = (byte_off / 8) as usize;
        let words = &self.words[base..base + out.len() / 8];
        for (word, chunk) in words.iter().zip(out.chunks_exact_mut(8)) {
            // Relaxed: the seqlock reader re-validates the slot sequence
            // (with fences) after these loads; torn values force a retry.
            let w = word.load(Ordering::Relaxed);
            chunk.copy_from_slice(&w.to_le_bytes());
        }
    }

    /// Stores `data` starting at `byte_off`.
    pub(crate) fn write(&self, byte_off: u64, data: &[u8]) {
        debug_assert_eq!(byte_off % 8, 0);
        debug_assert_eq!(data.len() % 8, 0);
        let base = (byte_off / 8) as usize;
        let words = &self.words[base..base + data.len() / 8];
        for (word, chunk) in words.iter().zip(data.chunks_exact(8)) {
            let mut w = [0u8; 8];
            w.copy_from_slice(chunk);
            // Relaxed: bracketed by the writer's odd/even sequence window,
            // which publishes these stores to re-validating readers.
            word.store(u64::from_le_bytes(w), Ordering::Relaxed);
        }
    }

    /// Loads one word of every 64 B line that `[from, to)` overlaps, so a
    /// writer about to store there takes the lines' cache misses together
    /// instead of one store at a time. The words are folded into one value
    /// that goes to [`std::hint::black_box`], which keeps the loads.
    ///
    /// Each load starts at its line's first word, so rounding `from` down
    /// to the start of its line may load a word of a neighbouring
    /// allocation. That load is sound: its value is only folded and
    /// discarded, and it writes nothing.
    pub(crate) fn touch(&self, from: u64, to: u64) {
        debug_assert_eq!(from % 8, 0);
        debug_assert_eq!(to % 8, 0);
        if from >= to {
            return;
        }
        let first = (from / 64) as usize * 8;
        let mut fold = 0;
        for word in self.words[first..(to / 8) as usize].iter().step_by(8) {
            // Relaxed: the value is only folded and discarded, so no
            // ordering can change what any thread computes.
            fold ^= word.load(Ordering::Relaxed);
        }
        std::hint::black_box(fold);
    }
}

impl fmt::Debug for AtomicBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AtomicBytes")
            .field("bytes", &(self.words.len() * 8))
            .finish()
    }
}

/// Number of lazily-published chunk slots in [`SlotTable`]. Chunk `k`
/// doubles the covered capacity, so a few dozen slots cover any physically
/// reachable size.
const SLOT_CHUNKS: usize = 28;
const SLOT_CHUNK0: u32 = 64;

/// State nibbles per [`AtomicNibbles`] storage unit: one 64-bit word holds
/// the metadata of 16 entries, so the paper's 32 B metadata line (64
/// entries, [`ENTRIES_PER_METADATA_LINE`](crate::metadata::ENTRIES_PER_METADATA_LINE))
/// is four units.
const UNIT_NIBBLES: u64 = 16;

/// The bits of nibbles `[lo, hi)` of one storage unit
/// (`lo < hi ≤ UNIT_NIBBLES`).
fn unit_mask(lo: u64, hi: u64) -> u64 {
    debug_assert!(lo < hi && hi <= UNIT_NIBBLES);
    (u64::MAX >> ((UNIT_NIBBLES - (hi - lo)) * 4)) << (lo * 4)
}

/// The 4-bit-per-entry metadata array as one flat slice of atomic 64-bit
/// words, sized once for the whole device (`device_capacity / 8` states).
///
/// # Range granularity
///
/// Metadata is written a range at a time ([`zero_range`](Self::zero_range),
/// [`store_run`](Self::store_run)), the way the paper's memory controller
/// moves it a line at a time, not a nibble at a time. A range
/// distinguishes two kinds of storage unit:
///
/// * **Interior units** lie wholly inside the range. A range is always a
///   sub-range of one allocation's nibbles, so every nibble of an interior
///   unit belongs to that one allocation: its entry writers and
///   structural publications take turns through the slot's
///   [`SeqWindow`], and a range being cleared by `alloc` is not
///   published yet. Nobody else stores to the unit, so it is overwritten
///   with one plain `Relaxed` store.
/// * **Edge units** (at most two per range: the first and the last) also
///   hold nibbles outside the range, which may belong to a *neighbouring*
///   allocation whose writers run concurrently inside a different slot's
///   window. They take one `fetch_xor` of `(current ^ new) & mask` — the
///   caller's own nibbles, loaded `Relaxed`, are current because nobody
///   else writes them — and no RMW at all when nothing changes. The XOR
///   never alters a bit outside the mask; a plain store there would be a
///   lost update (`crates/check`'s `edge_unit` model, `PlainEdgeStore`).
///
/// Readers need no distinction: every load is re-validated by the slot
/// seqlock, exactly as for the data bytes.
pub(crate) struct AtomicNibbles {
    units: Box<[AtomicU64]>,
}

impl AtomicNibbles {
    /// The metadata of a device that has no allocation yet: all
    /// [`EntryState::Zero`], on pages backed only where an allocation's
    /// nibbles are written ([`zeroed_words`]).
    pub(crate) fn new(entries: u64) -> Self {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "one unit per 16 nibbles of a device whose bytes are in memory"
        )]
        let units = zeroed_words(entries.div_ceil(UNIT_NIBBLES) as usize);
        Self { units }
    }

    /// Reads the state nibble of entry `index`. `None` when the nibble is
    /// not a state encoding or `index` lies past the array — neither
    /// happens under a stable slot sequence, so callers re-validate it and
    /// retry.
    pub(crate) fn get(&self, index: u64) -> Option<EntryState> {
        let cell = self.units.get((index / UNIT_NIBBLES) as usize)?;
        // Relaxed: the seqlock reader re-validates the slot sequence after
        // this load; a racing write forces a retry.
        let word = cell.load(Ordering::Relaxed);
        let shifted = word >> ((index % UNIT_NIBBLES) * 4);
        EntryState::decode(shifted.to_le_bytes()[0] & 0x0F)
    }

    /// Resets `[start, start + len)` to [`EntryState::Zero`] — what `alloc`
    /// does to the nibbles of a recycled device range, at the cost of a
    /// memset rather than an RMW per entry.
    pub(crate) fn zero_range(&self, start: u64, len: u64) {
        self.write_units(start, len, |_, _| 0);
    }

    /// Stores `state_of(i)` as the state of every entry `i` in
    /// `[start, start + len)`. `state_of` runs exactly once per entry, in
    /// ascending order — the write path compresses and stores the entry's
    /// bytes inside it, so a unit's sixteen states are gathered in a
    /// register and land in one store. The caller owns the range: it holds
    /// the open sequence window of the allocation the range belongs to.
    pub(crate) fn store_run(
        &self,
        start: u64,
        len: u64,
        mut state_of: impl FnMut(u64) -> EntryState,
    ) {
        self.write_units(start, len, |lo, hi| {
            (lo..hi).fold(0u64, |word, i| {
                word | u64::from(state_of(i).encode()) << ((i % UNIT_NIBBLES) * 4)
            })
        });
    }

    /// The one range writer behind [`zero_range`](Self::zero_range) and
    /// [`store_run`](Self::store_run): walks the storage units overlapping
    /// nibbles `[start, start + len)`. `word_of(lo, hi)` returns the
    /// unit's new nibbles `[lo, hi)` (global indices, all inside one
    /// unit), already shifted into place. See the type docs for why
    /// interior units take a plain store and edge units one masked XOR.
    fn write_units(&self, start: u64, len: u64, mut word_of: impl FnMut(u64, u64) -> u64) {
        if len == 0 {
            return;
        }
        let end = start + len;
        let first = (start / UNIT_NIBBLES) as usize;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a nibble run ends inside the metadata array, so its unit index is a usize"
        )]
        let last = end.div_ceil(UNIT_NIBBLES) as usize;
        let mut lo = start;
        for cell in &self.units[first..last] {
            let unit_base = lo - lo % UNIT_NIBBLES;
            let hi = end.min(unit_base + UNIT_NIBBLES);
            let word = word_of(lo, hi);
            if hi - lo == UNIT_NIBBLES {
                // Relaxed: bracketed by the owner's odd/even sequence
                // window (entry writes, retarget) or ahead of the
                // publication that first exposes the range (alloc). A
                // plain store, not an RMW: every nibble of this unit
                // belongs to the one allocation whose window (or, for
                // `alloc`, `&mut`) the caller holds, so there is no
                // concurrent store to lose.
                cell.store(word, Ordering::Relaxed);
            } else {
                let mask = unit_mask(lo - unit_base, hi - unit_base);
                // Relaxed: bracketed as above. The caller owns the masked
                // nibbles (same ownership argument as the interior store),
                // so its own last store to them happens-before this load
                // and neighbours never touch them: the masked bits loaded
                // are current.
                let flip = (cell.load(Ordering::Relaxed) ^ word) & mask;
                if flip != 0 {
                    // Relaxed: as above. One XOR of bits inside `mask`
                    // never alters a bit outside it, so it commutes with a
                    // neighbouring allocation's concurrent XORs on this
                    // unit, and these nibbles go from old to new in one
                    // step. Model: `edge_unit`; a plain load-merge-store
                    // instead (`PlainEdgeStore`) loses an update.
                    cell.fetch_xor(flip, Ordering::Relaxed);
                }
            }
            lo = hi;
        }
    }
}

impl fmt::Debug for AtomicNibbles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AtomicNibbles")
            .field("entries", &(self.units.len() as u64 * UNIT_NIBBLES))
            .finish()
    }
}

/// Encodes a [`TargetRatio`] into the slot cell's atomic byte; `0` means
/// "never published".
fn encode_target(t: TargetRatio) -> u8 {
    match t {
        TargetRatio::R1 => 1,
        TargetRatio::R1_33 => 2,
        TargetRatio::R2 => 3,
        TargetRatio::R4 => 4,
        TargetRatio::ZeroPage16 => 5,
    }
}

fn decode_target(b: u8) -> Option<TargetRatio> {
    match b {
        1 => Some(TargetRatio::R1),
        2 => Some(TargetRatio::R1_33),
        3 => Some(TargetRatio::R2),
        4 => Some(TargetRatio::R4),
        5 => Some(TargetRatio::ZeroPage16),
        _ => None,
    }
}

/// The published addressing facts of one allocation slot behind a seqlock.
///
/// `seq` is even when the cell is stable and odd while a mutation is in
/// flight — the odd value is the slot's writer lock, held by exactly one
/// [`SeqWindow`]; `generation`/`entries` encode liveness (a live
/// allocation always has `entries ≥ 1`, a freed or never-used slot
/// publishes `entries == 0`).
pub(crate) struct SlotCell {
    seq: SeqWord,
    generation: AtomicU64,
    entries: AtomicU64,
    device_base: AtomicU64,
    buddy_base: AtomicU64,
    target: AtomicU8,
}

impl SlotCell {
    fn new() -> Self {
        Self {
            seq: SeqWord::default(),
            generation: AtomicU64::new(0),
            entries: AtomicU64::new(0),
            device_base: AtomicU64::new(0),
            buddy_base: AtomicU64::new(0),
            target: AtomicU8::new(0),
        }
    }

    /// Spins until the cell is outside any mutation window and returns the
    /// (even) sequence value the caller must re-validate against — or, as
    /// a writer, open its window from.
    fn begin_read(&self) -> u64 {
        let mut spins = 0u32;
        loop {
            // Acquire: pairs with `SeqWord::release`'s closing bump —
            // observing an even sequence inherits every store of that
            // window, so the Relaxed field loads that follow cannot be
            // older than this epoch. Model: `seqlock` passes
            // exhaustively with Acquire; `CloseRelaxed` (breaking the
            // pairing) has a counterexample.
            let s = self.seq.acquire();
            if s.is_multiple_of(2) {
                return s;
            }
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(256) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// True when the sequence still matches `seen` — everything loaded
    /// since `begin_read` returned `seen` is a consistent snapshot.
    ///
    /// Acquire fence + Relaxed re-load: the fence upgrades the Relaxed
    /// data loads since `begin_read`, so any value written inside a later
    /// window drags that window's odd sequence into view and the re-load
    /// must see it — the happens-before edge is data-store → (writer
    /// release fence) → (this acquire fence) → sequence re-load. Model:
    /// removing the fence (`NoReaderFence`) lets a torn snapshot validate;
    /// the Acquire version passes exhaustively.
    fn still(&self, seen: u64) -> bool {
        self.seq.revalidate() == seen
    }

    /// The published fields as of one even sequence, and that sequence:
    /// `begin_read`, `load_raw`, `still`, retried until nothing moved
    /// across the copy.
    fn snapshot(&self) -> (u64, RawSlot) {
        loop {
            let seen = self.begin_read();
            let raw = self.load_raw();
            if self.still(seen) {
                return (seen, raw);
            }
        }
    }

    /// Copies the published fields (caller brackets with `begin_read` /
    /// `still`).
    fn load_raw(&self) -> RawSlot {
        // Relaxed: these loads sit between `begin_read`'s acquire of the
        // sequence and `still`'s re-validation — a stale
        // value here either predates the acquired epoch (impossible, the
        // close-bump published it) or belongs to a later window, whose
        // odd sequence then fails `still`. Model: the `seqlock` and
        // `retarget` models run their field loads Relaxed and pass
        // exhaustively.
        let ld = |field: &AtomicU64| field.load(Ordering::Relaxed);
        RawSlot {
            generation: ld(&self.generation),
            entries: ld(&self.entries),
            target: self.target.load(Ordering::Relaxed), // Relaxed: same
            device_base: ld(&self.device_base),
            buddy_base: ld(&self.buddy_base),
        }
    }

    /// Stores new addressing facts. Caller holds an open [`SeqWindow`].
    fn store_raw(&self, raw: &RawSlot) {
        // Relaxed: bracketed by the open window — `SeqWord::open`'s
        // release fence attaches the odd sequence to each of these stores
        // (readers that see one re-validate and retry) and
        // `SeqWord::release` publishes them wholesale to readers of the
        // closed sequence.
        // Model: `NoWriterFence` / `CloseRelaxed` are the mutations that
        // would make Relaxed here unsound, and both have counterexamples.
        let st = |field: &AtomicU64, value: u64| field.store(value, Ordering::Relaxed);
        st(&self.generation, raw.generation);
        st(&self.entries, raw.entries);
        self.target.store(raw.target, Ordering::Relaxed); // Relaxed: same
        st(&self.device_base, raw.device_base);
        st(&self.buddy_base, raw.buddy_base);
    }
}

impl fmt::Debug for SlotCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SlotCell")
            .field("seq", &self.seq.acquire())
            // Relaxed: diagnostic snapshot only; torn values are acceptable
            // in debug output and nothing is synchronized through it.
            .field("generation", &self.generation.load(Ordering::Relaxed))
            .field("entries", &self.entries.load(Ordering::Relaxed)) // Relaxed: same
            .finish()
    }
}

/// A raw copy of a [`SlotCell`]'s published fields.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RawSlot {
    pub(crate) generation: u64,
    pub(crate) entries: u64,
    target: u8,
    pub(crate) device_base: u64,
    pub(crate) buddy_base: u64,
}

impl RawSlot {
    pub(crate) fn from_view(generation: u64, view: &AllocView) -> Self {
        Self {
            generation,
            entries: view.entries,
            target: encode_target(view.target),
            device_base: view.device_base,
            buddy_base: view.buddy_base,
        }
    }

    /// A published tombstone: the slot is dead at `generation` (freed, or
    /// never allocated).
    pub(crate) fn dead(generation: u64) -> Self {
        Self {
            generation,
            entries: 0,
            target: 0,
            device_base: 0,
            buddy_base: 0,
        }
    }

    /// Validates a consistent snapshot against a handle: generation must
    /// match and the slot must be live.
    fn validate(&self, id: AllocId) -> Result<AllocView, DeviceError> {
        if self.generation != id.generation || self.entries == 0 {
            return Err(DeviceError::BadAllocation);
        }
        let target = decode_target(self.target).ok_or(DeviceError::BadAllocation)?;
        Ok(AllocView {
            target,
            entries: self.entries,
            device_base: self.device_base,
            buddy_base: self.buddy_base,
        })
    }
}

/// RAII odd/even sequence window and the slot's writer lock in one:
/// opening CASes the slot sequence from even to odd, dropping stores it
/// plus one again (even) — panic-safe, so an unwinding writer cannot leave
/// readers spinning forever or the slot locked.
pub(crate) struct SeqWindow<'a> {
    seq: &'a SeqWord,
}

impl<'a> SeqWindow<'a> {
    /// Opens the window from `even`, the sequence the caller's view was
    /// taken at. `None`, with the word untouched, when a writer moved it
    /// since: the caller starts again from `begin_read`. A window exists
    /// only once opened, so only an opened window is ever closed.
    fn open(cell: &'a SlotCell, even: u64) -> Option<Self> {
        // CAS (Acquire) + Release fence: the CAS is the writer lock and
        // inherits the previous window's stores; the fence orders the odd
        // bump before every store inside the window, so a reader that
        // observes any of them cannot re-validate against the old even
        // sequence. Model: `SkipOddBump` (no odd marker), `NoWriterFence`
        // (no fence) and `UnserializedWriters` (a load-and-store bump, no
        // CAS) each have a counterexample; two CAS writers pass
        // exhaustively.
        cell.seq.open(even).then(|| Self { seq: &cell.seq })
    }
}

impl Drop for SeqWindow<'_> {
    fn drop(&mut self) {
        // Release store, no fence: a single Release store already orders
        // every store inside the window before the closing bump, which is
        // the edge `begin_read`'s Acquire pairs with. Model: downgrading
        // this to Relaxed (`CloseRelaxed`) has a counterexample; Release
        // alone passes exhaustively.
        self.seq.release();
    }
}

/// The allocation slot table, grown by publishing power-of-two chunks so
/// published cells never move while the table grows.
pub(crate) struct SlotTable {
    chunks: Box<[OnceLock<Box<[SlotCell]>>]>,
}

impl SlotTable {
    fn new() -> Self {
        Self {
            chunks: (0..SLOT_CHUNKS).map(|_| OnceLock::new()).collect(),
        }
    }

    #[expect(
        clippy::cast_possible_truncation,
        reason = "an offset inside one chunk is below that chunk's u32-sized length"
    )]
    fn locate(slot: u32) -> (usize, usize) {
        if slot < SLOT_CHUNK0 {
            (0, slot as usize)
        } else {
            let k = (slot / SLOT_CHUNK0).ilog2() as usize + 1;
            let start = (SLOT_CHUNK0 as u64) << (k - 1);
            (k, (slot as u64 - start) as usize)
        }
    }

    fn chunk_len(k: usize) -> u64 {
        if k == 0 {
            SLOT_CHUNK0 as u64
        } else {
            (SLOT_CHUNK0 as u64) << (k - 1)
        }
    }

    /// Publishes chunks until `slot` is addressable (structural-lock only).
    pub(crate) fn ensure(&self, slot: u32) {
        let (last, _) = Self::locate(slot);
        for k in 0..=last {
            let len = Self::chunk_len(k);
            self.chunks[k].get_or_init(|| (0..len).map(|_| SlotCell::new()).collect());
        }
    }

    /// The cell of `slot`, or `None` when the slot was never published —
    /// which means no allocation ever existed there, so any handle naming
    /// it is bad.
    pub(crate) fn cell(&self, slot: u32) -> Option<&SlotCell> {
        let (k, off) = Self::locate(slot);
        self.chunks[k].get()?.get(off)
    }

    /// Every cell published so far, used or not.
    fn cells(&self) -> impl Iterator<Item = &SlotCell> {
        self.chunks
            .iter()
            .filter_map(OnceLock::get)
            .flat_map(|chunk| chunk.iter())
    }
}

impl fmt::Debug for SlotTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ready = self.chunks.iter().filter(|c| c.get().is_some()).count();
        f.debug_struct("SlotTable")
            .field("chunks_ready", &ready)
            .finish()
    }
}

/// An [`AccessStats`] made of atomics, so concurrent accesses fold their
/// per-batch deltas in through `&self`: a device's traffic counters, and
/// the per-tenant ones `buddy-service` attributes on top. The only atomic
/// `AccessStats` in the workspace.
///
/// A [`snapshot`](Self::snapshot) taken while writers are active may split
/// one delta across its fields; totals are exact once writers are
/// quiescent.
pub struct SharedStats {
    counters: [AtomicU64; 8],
}

impl Default for SharedStats {
    fn default() -> Self {
        Self {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl SharedStats {
    /// Adds `delta` to the counters.
    pub fn add(&self, delta: &AccessStats) {
        for (c, v) in self.counters.iter().zip(delta.to_array()) {
            if v != 0 {
                // Relaxed: statistical counters; exact totals are read only
                // once the clients have returned (joined threads).
                c.fetch_add(v, Ordering::Relaxed);
            }
        }
    }

    /// The counters as a plain value.
    pub fn snapshot(&self) -> AccessStats {
        let mut out = [0u64; 8];
        for (o, c) in out.iter_mut().zip(self.counters.iter()) {
            // Relaxed: statistical snapshot; exact once writers are
            // quiescent.
            *o = c.load(Ordering::Relaxed);
        }
        AccessStats::from_array(out)
    }

    pub(crate) fn reset(&self) {
        for c in self.counters.iter() {
            // Relaxed: reset happens at quiescent points only.
            c.store(0, Ordering::Relaxed);
        }
    }
}

impl fmt::Debug for SharedStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("SharedStats")
            .field(&self.snapshot())
            .finish()
    }
}

/// The published half of one device. See the module docs for the protocol.
pub(crate) struct SharedState {
    pub(crate) device: AtomicBytes,
    pub(crate) buddy: AtomicBytes,
    pub(crate) metadata: AtomicNibbles,
    pub(crate) slots: SlotTable,
    pub(crate) stats: SharedStats,
}

impl fmt::Debug for SharedState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedState")
            .field("device", &self.device)
            .field("buddy", &self.buddy)
            .field("metadata", &self.metadata)
            .field("slots", &self.slots)
            .finish()
    }
}

impl SharedState {
    pub(crate) fn new(device_capacity: u64, buddy_capacity: u64) -> Self {
        let state = Self {
            device: AtomicBytes::new(device_capacity),
            buddy: AtomicBytes::reserved(buddy_capacity),
            metadata: AtomicNibbles::new(device_capacity / TargetRatio::MIN_DEVICE_BYTES_PER_ENTRY),
            slots: SlotTable::new(),
            stats: SharedStats::default(),
        };
        state.slots.ensure(0);
        state
    }

    /// The cell a structural operation publishes through.
    #[expect(
        clippy::expect_used,
        reason = "alloc calls SlotTable::ensure before any publish"
    )]
    fn structural_cell(&self, slot: u32) -> &SlotCell {
        self.slots
            .cell(slot)
            .expect("structural ops ensure the slot before publishing")
    }

    /// The published view of `id`, loaded without the seqlock's retry: the
    /// structural operations' read. Sound only where no publication can
    /// race the loads — under `&mut BuddyDevice`, the only publisher
    /// (entry writes store no descriptor field).
    pub(crate) fn structural_view(&self, id: AllocId) -> Result<AllocView, DeviceError> {
        let cell = self.slots.cell(id.slot).ok_or(DeviceError::BadAllocation)?;
        cell.load_raw().validate(id)
    }

    /// The generation `slot` publishes: 0 for a fresh slot, else its
    /// tombstone's, which the slot's next allocation takes. Structural
    /// callers only, after [`SlotTable::ensure`].
    pub(crate) fn generation(&self, slot: u32) -> u64 {
        self.structural_cell(slot).load_raw().generation
    }

    /// Entries of all live allocations: dead and never-used cells publish
    /// zero. Structural callers only, as [`structural_view`](Self::structural_view).
    pub(crate) fn live_entries(&self) -> u64 {
        self.slots.cells().map(|cell| cell.load_raw().entries).sum()
    }

    /// Publishes new addressing facts for a slot inside its sequence window.
    pub(crate) fn publish(&self, slot: u32, raw: RawSlot) {
        // Cannot fail: the closure only hands `raw` over.
        let _ = self.republish(slot, || Ok((raw, ())));
    }

    /// Runs `mutate` inside the slot's sequence window (which also keeps
    /// the slot's entry writers out), then publishes the returned
    /// [`RawSlot`] before closing it. This is the only way slot contents
    /// change, so readers see epochs, never blends. `retarget` migrates
    /// inside this: its re-encode may write into regions that overlap the
    /// old reservation (tight-fit placement), so concurrent readers of this
    /// one allocation must spin through the whole migration instead of
    /// sampling half-rewritten bytes under an unchanged sequence. On error
    /// the window closes with the cell unchanged (readers retry once and
    /// see the old epoch).
    pub(crate) fn republish<R>(
        &self,
        slot: u32,
        mutate: impl FnOnce() -> Result<(RawSlot, R), DeviceError>,
    ) -> Result<R, DeviceError> {
        let cell = self.structural_cell(slot);
        let window = loop {
            if let Some(window) = SeqWindow::open(cell, cell.begin_read()) {
                break window;
            }
        };
        let (raw, result) = mutate()?;
        cell.store_raw(&raw);
        drop(window);
        Ok(result)
    }

    /// The metadata state of `view`'s entry `index`. `None` for a reserved
    /// encoding or a state [`EntryState::stored`] cannot yield under the
    /// view's target ([`EntryState::storable_under`]): such a nibble is
    /// torn or damaged, and following it could read past the entry's
    /// reservation.
    fn state(&self, view: &AllocView, index: u64) -> Option<EntryState> {
        self.metadata
            .get(view.metadata_index(index))
            .filter(|state| state.storable_under(view.target))
    }

    /// Loads and decompresses one entry into `out` against a consistent
    /// view; the caller records traffic and re-validates the sequence.
    /// A [`TornRead`] when the nibble is not a [state](Self::state) or the
    /// codec rejects the stream. A raw entry loads straight into `out`.
    pub(crate) fn read_one(
        &self,
        view: &AllocView,
        index: u64,
        out: &mut Entry,
    ) -> Result<EntryState, TornRead> {
        let state = self.state(view, index).ok_or(TornRead::nibble(index))?;
        match state {
            EntryState::Zero => *out = [0u8; ENTRY_BYTES],
            EntryState::ZeroPageFit => {
                self.decode_loaded(index, ZERO_PAGE_GRANULE, out, |granule| {
                    self.device.read(view.device_offset(index), granule)
                })?
            }
            EntryState::ZeroPageOverflow => {
                self.buddy.read(view.buddy_offset(index), out);
            }
            // Raw storage.
            EntryState::Compressed { sectors: 4 } => self.load_sectors(view, index, 4, out),
            EntryState::Compressed { sectors } => {
                let total = sectors as usize * SECTOR_BYTES;
                self.decode_loaded(index, total, out, |data| {
                    self.load_sectors(view, index, sectors, data)
                })?
            }
        }
        Ok(state)
    }

    /// Decodes entry `index`'s stored stream, which `load` writes into the
    /// first `len` bytes of a zero-padded [`DECODE_BYTES`] buffer: the BPC
    /// decoder reads that buffer in place and ignores the zeros past the
    /// `len * 8` bits declared.
    fn decode_loaded(
        &self,
        index: u64,
        len: usize,
        out: &mut Entry,
        load: impl FnOnce(&mut [u8]),
    ) -> Result<(), TornRead> {
        let mut stream = [0u8; DECODE_BYTES];
        load(&mut stream[..len]);
        BitPlane
            .decompress_into(&stream, len * 8, out)
            .map_err(|cause| TornRead {
                index,
                cause: Some(cause),
            })
    }

    /// Compresses one entry's bytes through `stream` and stores them, and
    /// returns the state its metadata nibble must take
    /// ([`EntryState::stored`]); [`write_run`](Self::write_run) stores
    /// those a unit at a time. The stored granule or sectors come straight
    /// from `stream`, whose bytes past the stream are zero whatever it
    /// held before ([`CompressedBuf::padded`]). `stream` is built on the
    /// first nonzero entry, so a run of zero entries zeroes no buffer.
    fn write_one(
        &self,
        view: &AllocView,
        index: u64,
        entry: &Entry,
        stream: &mut Option<CompressedBuf>,
    ) -> EntryState {
        if bpc::is_zero(entry) {
            return EntryState::Zero;
        }
        let stream = stream.get_or_insert_with(CompressedBuf::new);
        BitPlane.compress_into(entry, stream);
        let state = EntryState::stored(stream.size_class(), view.target);
        match state {
            EntryState::ZeroPageFit => self
                .device
                .write(view.device_offset(index), stream.padded(ZERO_PAGE_GRANULE)),
            EntryState::ZeroPageOverflow => self.buddy.write(view.buddy_offset(index), entry),
            // Incompressible: store the raw entry across the four sectors.
            EntryState::Compressed { sectors: 4 } => self.store_sectors(view, index, entry, 4),
            EntryState::Compressed { sectors } => {
                let stored = stream.padded(sectors as usize * SECTOR_BYTES);
                self.store_sectors(view, index, stored, sectors);
            }
            // BPC spends at least one bit on a nonzero entry, so its class
            // is never `B0`: nothing to store.
            EntryState::Zero => {}
        }
        state
    }

    /// Compresses and stores a contiguous run of entries and their states,
    /// handing each state to `record`. Metadata moves a range at a time:
    /// the states land through one [`AtomicNibbles::store_run`], a whole
    /// unit per store. The caller holds the slot's open sequence window.
    pub(crate) fn write_run(
        &self,
        view: &AllocView,
        start: u64,
        entries: &[Entry],
        mut record: impl FnMut(EntryState),
    ) {
        let first = view.metadata_index(start);
        let mut stream = None;
        self.metadata
            .store_run(first, entries.len() as u64, |nibble| {
                let offset = nibble - first;
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "offset < entries.len(), which is a usize"
                )]
                let state =
                    self.write_one(view, start + offset, &entries[offset as usize], &mut stream);
                record(state);
                state
            });
    }

    /// Stores `sectors` sectors of `data`, the first `device_sectors` in
    /// device memory and the remainder in the entry's buddy slot.
    fn store_sectors(&self, view: &AllocView, index: u64, data: &[u8], sectors: u8) {
        let device_sectors = view.target.device_sectors().min(sectors);
        let split = device_sectors as usize * SECTOR_BYTES;
        self.device.write(view.device_offset(index), &data[..split]);
        if (sectors as usize) * SECTOR_BYTES > split {
            let rest = &data[split..sectors as usize * SECTOR_BYTES];
            self.buddy.write(view.buddy_offset(index), rest);
        }
    }

    /// Gathers an entry's sectors into `out` (device-resident first, then
    /// any buddy overflow). `out` must be exactly `sectors × 32` bytes.
    fn load_sectors(&self, view: &AllocView, index: u64, sectors: u8, out: &mut [u8]) {
        let device_sectors = view.target.device_sectors().min(sectors);
        let split = device_sectors as usize * SECTOR_BYTES;
        let total = sectors as usize * SECTOR_BYTES;
        debug_assert_eq!(out.len(), total);
        self.device
            .read(view.device_offset(index), &mut out[..split]);
        if total > split {
            self.buddy
                .read(view.buddy_offset(index), &mut out[split..total]);
        }
    }

    /// The seqlock read protocol, said once: runs `body` against one
    /// consistent epoch of `id`'s entries `[start, start + len)`, retrying
    /// until the slot sequence is unchanged across the descriptor copy
    /// *and* everything `body` loaded. `body` must be repeatable — an
    /// abandoned attempt's result is dropped — and reports a load it could
    /// not make sense of as [`TornRead`]: a moved sequence explains it and
    /// retries, a stable one reports [`DeviceError::CorruptEntry`].
    fn read_epoch<R>(
        &self,
        id: AllocId,
        start: u64,
        len: u64,
        mut body: impl FnMut(&AllocView) -> Result<R, TornRead>,
    ) -> Result<R, DeviceError> {
        let cell = self.slots.cell(id.slot).ok_or(DeviceError::BadAllocation)?;
        loop {
            let (seen, raw) = cell.snapshot();
            // The snapshot is consistent from here on: errors are the
            // truthful observation of this epoch, not torn state.
            let view = raw.validate(id)?;
            check_range(&view, start, len)?;
            let result = body(&view);
            if !cell.still(seen) {
                continue;
            }
            // Under a stable snapshot a load that made no sense is not a
            // race: the stored bits are damaged.
            return result.map_err(DeviceError::from);
        }
    }

    /// Reads a contiguous run of entries against one consistent epoch.
    /// Lock-free: retries through the slot seqlock until a full batch
    /// lands inside a stable snapshot.
    pub(crate) fn read_batch(
        &self,
        id: AllocId,
        start: u64,
        out: &mut [Entry],
    ) -> Result<AccessStats, DeviceError> {
        let stats = self.read_epoch(id, start, out.len() as u64, |view| {
            let mut stats = AccessStats::default();
            for (i, slot_out) in out.iter_mut().enumerate() {
                let index = start + i as u64;
                let state = self.read_one(view, index, slot_out)?;
                record_read(&mut stats, view.target, state);
            }
            Ok(stats)
        })?;
        self.stats.add(&stats);
        Ok(stats)
    }

    /// Writes a contiguous run of entries inside the slot's sequence window,
    /// opened from the snapshot the run was validated against. Takes no
    /// device-wide lock; a rejected run leaves the sequence untouched.
    pub(crate) fn write_batch(
        &self,
        id: AllocId,
        start: u64,
        entries: &[Entry],
    ) -> Result<AccessStats, DeviceError> {
        let cell = self.slots.cell(id.slot).ok_or(DeviceError::BadAllocation)?;
        let (view, window) = loop {
            let (seen, raw) = cell.snapshot();
            // A consistent snapshot: its errors are this epoch's truth.
            let view = raw.validate(id)?;
            check_range(&view, start, entries.len() as u64)?;
            // Opening from `seen` fails if any writer moved the sequence
            // since the snapshot, so inside the window `view` is still the
            // published one.
            if let Some(window) = SeqWindow::open(cell, seen) {
                break (view, window);
            }
        };
        // The device lines of the entries after the first are loaded up
        // front, so their misses overlap each other and the first entry's
        // encode instead of stalling the stores one line at a time. The
        // first entry's own line is left alone, so a 1-entry write touches
        // nothing: there a load miss would stall where its store miss (or,
        // for a zero entry, no store at all) does not.
        self.device.touch(
            view.device_offset(start + 1),
            view.device_offset(start + entries.len() as u64),
        );
        let mut stats = AccessStats::default();
        self.write_run(&view, start, entries, |state| {
            record_write(&mut stats, view.target, state)
        });
        drop(window);
        self.stats.add(&stats);
        Ok(stats)
    }

    /// Per-entry state against a consistent epoch, without touching the
    /// traffic counters.
    pub(crate) fn entry_state(&self, id: AllocId, index: u64) -> Result<EntryState, DeviceError> {
        self.read_epoch(id, index, 1, |view| {
            self.state(view, index).ok_or(TornRead::nibble(index))
        })
    }

    /// Bins the live metadata states of an allocation by
    /// [`EntryState::footprint_class`] against one consistent epoch.
    pub(crate) fn state_window(&self, id: AllocId) -> Result<SizeHistogram, DeviceError> {
        self.read_epoch(id, 0, 0, |view| {
            let mut window = SizeHistogram::new();
            for i in 0..view.entries {
                let state = self.state(view, i).ok_or(TornRead::nibble(i))?;
                window.record(state.footprint_class());
            }
            Ok(window)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn shared_stats_adds_like_merge() {
        let delta = AccessStats {
            reads_device_only: 1,
            reads_with_buddy: 2,
            writes_device_only: 3,
            writes_with_buddy: 4,
            device_sectors: 5,
            buddy_sectors: 6,
            retargets: 7,
            moved_sectors: 8,
        };
        let shared = SharedStats::default();
        shared.add(&delta);
        shared.add(&delta);
        let mut twice = AccessStats::default();
        twice.merge(&delta);
        twice.merge(&delta);
        assert_eq!(shared.snapshot(), twice);
    }

    #[test]
    fn atomic_bytes_round_trip_words() {
        let bytes = AtomicBytes::new(64);
        let data: Vec<u8> = (0..32).collect();
        bytes.write(16, &data);
        let mut out = vec![0u8; 32];
        bytes.read(16, &mut out);
        assert_eq!(out, data);
        // Neighbouring words untouched.
        let mut head = vec![0u8; 16];
        bytes.read(0, &mut head);
        assert_eq!(head, vec![0u8; 16]);
    }

    impl AtomicBytes {
        /// Flips bit `bit` of the byte array (byte `bit / 8`) — the fault
        /// injector of the bit-flip tests.
        pub(crate) fn flip_bit(&self, bit: u64) {
            self.words[(bit / 64) as usize].fetch_xor(1 << (bit % 64), Ordering::Relaxed);
        }
    }

    /// Unwritten ranges of the buddy carve-out read as zeros: whole pages,
    /// a range that straddles a page boundary and the last word. A write
    /// that straddles a boundary lands on both sides and nowhere else, and
    /// a read changes nothing. That neither backs a page it need not is a
    /// resident-set reading, taken by `crates/core/tests/backing.rs`.
    #[test]
    fn unwritten_buddy_ranges_read_zero_and_back_nothing() {
        let bytes = AtomicBytes::reserved(1 << 20);
        for (off, len) in [(0u64, 128usize), (4096 - 48, 96), ((1 << 20) - 8, 8)] {
            let mut out = vec![0xFFu8; len];
            bytes.read(off, &mut out);
            assert_eq!(out, vec![0u8; len], "[{off}, +{len})");
        }
        bytes.write(2 * 4096 - 32, &[7u8; 96]);
        let mut out = [0xFFu8; 160];
        bytes.read(2 * 4096 - 64, &mut out);
        assert_eq!(out[..32], [0u8; 32]);
        assert_eq!(out[32..128], [7u8; 96]);
        assert_eq!(out[128..], [0u8; 32]);
        let mut out = [0xFFu8; 128];
        bytes.read(3 * 4096 - 64, &mut out);
        assert_eq!(out, [0u8; 128]);
    }

    /// A buddy range that starts inside the carve-out's last page and ends
    /// past the carve-out is an index past its words, and panics.
    #[test]
    #[should_panic(expected = "out of range")]
    fn a_read_past_the_carve_out_panics_inside_the_last_chunk() {
        let bytes = AtomicBytes::reserved(4096 + 96);
        let mut out = [0u8; 16];
        bytes.read(4096 + 88, &mut out);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn an_atomic_read_past_the_array_panics() {
        let bytes = AtomicBytes::new(64);
        let mut out = [0u8; 16];
        bytes.read(56, &mut out);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random 8 B-aligned writes and reads of 8–128 B, and touches of
        /// arbitrary ranges, leave the device store equal to a flat
        /// `Vec<u8>` model: a write changes its own words and no neighbour,
        /// a read returns exactly its range, and a touch of any range
        /// inside the array neither panics nor changes a byte. The array
        /// ends in the middle of a 64 B line, and a third of the touches
        /// end at its last word.
        #[test]
        fn atomic_bytes_match_a_flat_model(
            ops in proptest::collection::vec((0u8..3, 1u64..17, any::<u64>(), any::<u64>()), 1..64),
        ) {
            const LEN: u64 = 1024 + 40;
            let bytes = AtomicBytes::new(LEN);
            let mut model = vec![0u8; LEN as usize];
            for (kind, words, a, seed) in ops {
                let len = words * 8;
                let off = 8 * (a % ((LEN - len) / 8 + 1));
                let range = off as usize..(off + len) as usize;
                if kind == 2 {
                    // Any word start, mid-line or not, to any word end up
                    // to the array's, empty ranges included.
                    let to = if seed % 3 == 0 {
                        LEN
                    } else {
                        (off + seed / 3 % 64 * 8).min(LEN)
                    };
                    bytes.touch(off, to);
                } else if kind == 1 {
                    let data: Vec<u8> = (0..len)
                        .map(|i| seed.rotate_left((i % 64) as u32).to_le_bytes()[0])
                        .collect();
                    bytes.write(off, &data);
                    model[range].copy_from_slice(&data);
                } else {
                    let mut out = vec![0xA5u8; len as usize];
                    bytes.read(off, &mut out);
                    prop_assert_eq!(&out[..], &model[range]);
                }
                let mut all = vec![0xA5u8; LEN as usize];
                bytes.read(0, &mut all);
                prop_assert_eq!(&all, &model);
            }
        }

        /// Random 8 B-aligned writes and reads of 8–128 B leave the buddy
        /// carve-out, a reserved array, equal to a flat `Vec<u8>` model:
        /// unwritten words read as zeros. Half the ranges are placed to
        /// straddle a page boundary. The store is 3 pages plus 96 B, so the
        /// last page is partial.
        #[test]
        fn lazy_bytes_match_a_flat_model(
            ops in proptest::collection::vec(
                (0u8..4, 1u64..17, any::<u64>(), any::<u64>()),
                1..64,
            ),
        ) {
            const LEN: u64 = 3 * 4096 + 96;
            let bytes = AtomicBytes::reserved(LEN);
            let mut model = vec![0u8; LEN as usize];
            for (kind, words, a, seed) in ops {
                let (write, straddle) = (kind & 1 == 1, kind & 2 == 2);
                let len = words * 8;
                let off = if straddle {
                    // Boundary 1, 2 or 3, with at least one word each side.
                    let boundary = (1 + a % 3) * 4096;
                    let before = 8 * (1 + (a / 3) % (words.max(2) - 1));
                    (boundary - before).min(LEN - len)
                } else {
                    8 * (a % ((LEN - len) / 8 + 1))
                };
                let range = off as usize..(off + len) as usize;
                if write {
                    let data: Vec<u8> = (0..len)
                        .map(|i| seed.rotate_left((i % 64) as u32).to_le_bytes()[0])
                        .collect();
                    bytes.write(off, &data);
                    model[range].copy_from_slice(&data);
                } else {
                    let mut out = vec![0xA5u8; len as usize];
                    bytes.read(off, &mut out);
                    prop_assert_eq!(&out[..], &model[range]);
                }
            }
            for off in (0..LEN).step_by(128) {
                let mut out = vec![0u8; 128.min(LEN - off) as usize];
                bytes.read(off, &mut out);
                prop_assert_eq!(&out[..], &model[off as usize..off as usize + out.len()]);
            }
        }
    }

    /// The per-nibble implementation the range primitives replaced, kept
    /// as their oracle: one masked RMW pair per entry.
    impl AtomicNibbles {
        /// Stores any 4-bit value, reserved encodings included — the fault
        /// injector of the corruption tests.
        pub(crate) fn store_nibble(&self, index: u64, nibble: u8) {
            let cell = &self.units[(index / UNIT_NIBBLES) as usize];
            let shift = (index % UNIT_NIBBLES) * 4;
            cell.fetch_and(!(0xF << shift), Ordering::Relaxed);
            cell.fetch_or(u64::from(nibble & 0xF) << shift, Ordering::Relaxed);
        }

        /// Flips bit `bit` of the nibble array (nibble `bit / 4`) — the
        /// fault injector of the bit-flip tests.
        pub(crate) fn flip_bit(&self, bit: u64) {
            self.units[(bit / 64) as usize].fetch_xor(1 << (bit % 64), Ordering::Relaxed);
        }

        fn set(&self, index: u64, state: EntryState) {
            self.store_nibble(index, state.encode());
        }

        fn clear_range(&self, start: u64, len: u64) {
            for i in start..start + len {
                self.set(i, EntryState::Zero);
            }
        }
    }

    #[test]
    fn unit_masks_cover_exactly_their_nibbles() {
        assert_eq!(unit_mask(0, 16), u64::MAX);
        assert_eq!(unit_mask(0, 1), 0xF);
        assert_eq!(unit_mask(15, 16), 0xF << 60);
        assert_eq!(unit_mask(3, 5), 0xFF << 12);
    }

    /// Every nibble of `nibbles` and of the per-nibble `oracle` equals the
    /// plain model.
    fn assert_matches_model(nibbles: &AtomicNibbles, oracle: &AtomicNibbles, model: &[u8]) {
        for (i, &want) in model.iter().enumerate() {
            let want = EntryState::decode(want);
            assert_eq!(nibbles.get(i as u64), want, "range path, nibble {i}");
            assert_eq!(oracle.get(i as u64), want, "per-nibble oracle, nibble {i}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any sequence of range-zero / range-store ops leaves every nibble
        /// equal to a plain `Vec<u8>` model — so nibbles outside each range
        /// are untouched — and equal to the per-nibble oracle applied to a
        /// second array. Starts and lengths are drawn so that odd starts,
        /// odd ends, `len` 0/1/2, whole-unit runs and runs to the very end
        /// of the array all occur. Two op kinds aim at the edge-unit XOR:
        /// same-state rewrites of a range (the no-RMW skip path) and
        /// single-nibble runs at all sixteen offsets of one unit, each
        /// stored twice (a change, then the skip path).
        #[test]
        fn range_primitives_match_the_per_nibble_oracle(
            ops in proptest::collection::vec(
                (0u8..4, any::<u64>(), any::<u64>(), any::<u64>()),
                1..48,
            ),
        ) {
            const NIBBLES: u64 = 2048;
            let nibbles = AtomicNibbles::new(NIBBLES);
            let oracle = AtomicNibbles::new(NIBBLES);
            let mut model = vec![0u8; NIBBLES as usize];
            let state_of = |seed: u64, i: u64| {
                let code = (seed.rotate_left((i % 61) as u32).wrapping_add(i) % 7) as u8;
                EntryState::decode(code).expect("codes 0..7 are states")
            };
            for (kind, a, b, seed) in ops {
                let limit = NIBBLES;
                let start = a % limit;
                // Short runs half the time, anything up to the end otherwise.
                let len = if b % 2 == 0 {
                    (b / 2) % 4
                } else {
                    (b / 2) % (limit - start + 1)
                }
                .min(limit - start);
                let range = start as usize..(start + len) as usize;
                let states: Vec<EntryState> = match kind {
                    // Same-state rewrite: what the range already holds.
                    2 => model[range.clone()]
                        .iter()
                        .map(|&code| EntryState::decode(code).expect("model holds states"))
                        .collect(),
                    _ => (0..len).map(|i| state_of(seed, i)).collect(),
                };
                match kind {
                    0 => {
                        nibbles.zero_range(start, len);
                        oracle.clear_range(start, len);
                        model[range].fill(0);
                    }
                    3 => {
                        let unit = start / UNIT_NIBBLES;
                        for offset in 0..UNIT_NIBBLES {
                            let index = unit * UNIT_NIBBLES + offset;
                            let state = state_of(seed, offset);
                            for _ in 0..2 {
                                nibbles.store_run(index, 1, |_| state);
                            }
                            oracle.set(index, state);
                            model[index as usize] = state.encode();
                        }
                    }
                    _ => {
                        nibbles.store_run(start, len, |i| states[(i - start) as usize]);
                        for (i, state) in states.iter().enumerate() {
                            oracle.set(start + i as u64, *state);
                            model[start as usize + i] = state.encode();
                        }
                    }
                }
                assert_matches_model(&nibbles, &oracle, &model);
            }
        }
    }

    #[test]
    fn slot_locate_is_contiguous() {
        let mut seen = std::collections::HashSet::new();
        for slot in 0..10_000u32 {
            let (k, off) = SlotTable::locate(slot);
            assert!(seen.insert((k, off)), "slot {slot} collides");
            assert!((off as u64) < SlotTable::chunk_len(k));
        }
        // The last chunk still covers u32::MAX.
        let (k, _) = SlotTable::locate(u32::MAX);
        assert!(k < SLOT_CHUNKS);
    }

    #[test]
    fn dead_cells_reject_every_generation() {
        let state = SharedState::new(1 << 16, 3 << 16);
        let id = AllocId {
            slot: 0,
            generation: 0,
        };
        let mut out = [[0u8; ENTRY_BYTES]; 1];
        assert_eq!(
            state.read_batch(id, 0, &mut out),
            Err(DeviceError::BadAllocation)
        );
        // A slot that was never ensured is equally dead.
        let forged = AllocId {
            slot: 9_999,
            generation: 7,
        };
        assert_eq!(
            state.read_batch(forged, 0, &mut out),
            Err(DeviceError::BadAllocation)
        );
    }

    /// An entry whose words are `base` plus `noise` low bits of an LCG.
    fn noisy_entry(seed: u64, base: u32, noise: u32) -> Entry {
        let mut lcg = seed;
        let mut entry = [0u8; ENTRY_BYTES];
        for word in entry.chunks_exact_mut(4) {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
            let bits = (lcg >> 32) as u32 & ((1u64 << noise) - 1) as u32;
            word.copy_from_slice(&base.wrapping_add(bits).to_le_bytes());
        }
        entry
    }

    /// The write path stores a stream's granule or sectors straight from
    /// its encode buffer. A buffer that held a longer stream before must
    /// still leave zeros past the shorter one: the stored bytes equal a
    /// fresh encode's stream padded with zeros, under every target.
    #[test]
    fn a_reused_stream_buffer_stores_zeros_past_a_shorter_stream() {
        let state = SharedState::new(1 << 12, 1 << 12);
        let long = noisy_entry(1, 0, 32);
        let mut seen = Vec::new();
        for target in TargetRatio::DESCENDING {
            let view = AllocView {
                target,
                entries: 1,
                device_base: 0,
                buddy_base: 0,
            };
            for noise in [0, 1, 4, 10, 15] {
                let short = noisy_entry(2, 0x0101_0101, noise);
                let mut stream = CompressedBuf::new();
                BitPlane.compress_into(&long, &mut stream);
                assert!(stream.bytes() > 3 * SECTOR_BYTES);
                let stored = state.write_one(&view, 0, &short, &mut Some(stream));
                let mut fresh = CompressedBuf::new();
                BitPlane.compress_into(&short, &mut fresh);
                let len = match stored {
                    EntryState::ZeroPageFit => ZERO_PAGE_GRANULE,
                    EntryState::Compressed { sectors } if sectors < 4 => {
                        sectors as usize * SECTOR_BYTES
                    }
                    // Stored raw: the entry's bytes, not its stream.
                    _ => continue,
                };
                let mut raw = [0xAAu8; ENTRY_BYTES];
                if stored == EntryState::ZeroPageFit {
                    state.device.read(0, &mut raw[..len]);
                } else if let EntryState::Compressed { sectors } = stored {
                    state.load_sectors(&view, 0, sectors, &mut raw[..len]);
                }
                let mut expected = fresh.data().to_vec();
                expected.resize(len, 0);
                assert_eq!(raw[..len], expected, "{target} noise {noise}");
                let mut out = [0u8; ENTRY_BYTES];
                BitPlane
                    .decompress_into(&raw[..len], len * 8, &mut out)
                    .unwrap();
                assert_eq!(out, short, "{target} noise {noise}");
                seen.push(stored);
            }
        }
        assert!(seen.contains(&EntryState::ZeroPageFit));
        assert!(seen.contains(&EntryState::Compressed { sectors: 3 }));
    }

    /// A state with one live 8-entry R2 allocation published in slot 0.
    fn published() -> (SharedState, AllocId) {
        let state = SharedState::new(1 << 16, 3 << 16);
        let view = AllocView {
            target: TargetRatio::R2,
            entries: 8,
            device_base: 0,
            buddy_base: 0,
        };
        state.publish(0, RawSlot::from_view(1, &view));
        let id = AllocId {
            slot: 0,
            generation: 1,
        };
        (state, id)
    }

    fn seq_of(state: &SharedState, slot: u32) -> u64 {
        state.structural_cell(slot).seq.acquire()
    }

    #[test]
    fn publish_then_read_round_trips() {
        let (state, id) = published();
        let entry = [0xA5u8; ENTRY_BYTES];
        state.write_batch(id, 2, &[entry, entry]).expect("in range");
        let mut out = [[0u8; ENTRY_BYTES]; 2];
        state.read_batch(id, 2, &mut out).expect("in range");
        assert_eq!(out, [entry, entry]);
        // Stale generation pins to BadAllocation after a re-publish.
        state.publish(0, RawSlot::dead(2));
        assert_eq!(
            state.read_batch(id, 2, &mut out),
            Err(DeviceError::BadAllocation)
        );
    }

    #[test]
    fn a_panic_inside_an_open_window_closes_it() {
        let (state, id) = published();
        let before = seq_of(&state, 0);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = state.republish(0, || -> Result<(RawSlot, ()), DeviceError> {
                panic!("publisher dies inside its window")
            });
        }));
        assert!(unwound.is_err());
        assert_eq!(seq_of(&state, 0), before + 2, "closed, even again");
        // The slot is neither locked nor torn: a write and a read complete.
        let entry = [0x5Au8; ENTRY_BYTES];
        state.write_batch(id, 3, &[entry]).expect("slot unlocked");
        let mut out = [[0u8; ENTRY_BYTES]; 1];
        state.read_batch(id, 3, &mut out).expect("slot readable");
        assert_eq!(out, [entry]);
    }

    #[test]
    fn an_open_from_a_stale_sequence_fails_and_stores_nothing() {
        let (state, _) = published();
        let cell = state.structural_cell(0);
        let current = seq_of(&state, 0);
        assert!(current >= 2, "the publish moved the word");
        assert!(SeqWindow::open(cell, current - 2).is_none());
        assert_eq!(seq_of(&state, 0), current, "no window was built or closed");
        let window = SeqWindow::open(cell, current).expect("current sequence opens");
        assert!(
            SeqWindow::open(cell, current).is_none(),
            "one writer at a time"
        );
        drop(window);
        assert_eq!(seq_of(&state, 0), current + 2);
    }

    #[test]
    fn a_rejected_write_leaves_the_sequence_unchanged() {
        let (state, id) = published();
        let before = seq_of(&state, 0);
        let entry = [0x5Au8; ENTRY_BYTES];
        let stale = AllocId {
            generation: id.generation + 1,
            ..id
        };
        assert_eq!(
            state.write_batch(stale, 0, &[entry]),
            Err(DeviceError::BadAllocation)
        );
        assert_eq!(seq_of(&state, 0), before, "stale id");
        assert!(matches!(
            state.write_batch(id, 7, &[entry, entry]),
            Err(DeviceError::BadIndex { .. })
        ));
        assert_eq!(seq_of(&state, 0), before, "out-of-range run");
        state.write_batch(id, 6, &[entry, entry]).expect("in range");
        assert_eq!(seq_of(&state, 0), before + 2, "one window per batch");
    }
}
