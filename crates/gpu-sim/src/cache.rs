//! A sectored, set-associative cache model used for both the shared L2 and
//! the per-slice metadata caches.
//!
//! The L2 follows the paper's description (§4.1): 128 B lines divided into
//! 32 B sectors, banked/sliced, LRU within a set. Sector valid bits let the
//! uncompressed baseline fill individual sectors while the compressed
//! configurations always fill whole lines (compression granularity).

use crate::splitmix64;

/// Outcome of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Line present with every requested sector valid.
    Hit,
    /// Line present but some requested sectors missing (sector miss).
    Partial {
        /// The requested sectors that are not valid.
        missing: u8,
    },
    /// Line absent entirely.
    Miss,
}

/// A dirty line pushed out by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Line tag (the caller's line address).
    pub tag: u64,
    /// Dirty sectors that must be written back.
    pub dirty_mask: u8,
}

/// Set-associative sectored cache with LRU replacement.
///
/// The ways of set `s` are the contiguous indices `s * ways .. (s + 1) *
/// ways` of four flat per-way arrays, so a lookup compares one set's tags
/// side by side. A set fills its ways in order and never empties:
/// `filled[s]` ways hold lines, and the rest are never read.
#[derive(Debug, Clone)]
pub struct SectoredCache {
    tags: Vec<u64>,
    valid: Vec<u8>,
    dirty: Vec<u8>,
    last_use: Vec<u64>,
    filled: Vec<u32>,
    /// Set count − 1: a power-of-two set count makes the set index a mask.
    set_mask: u64,
    ways: usize,
    tick: u64,
}

impl SectoredCache {
    /// Creates a cache with `lines` total lines and `ways` associativity,
    /// i.e. `lines / ways` sets. A line's set is its hashed tag masked to
    /// the set count, so the set count must be a power of two. The ways
    /// of all sets are allocated up front and every set starts empty.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is zero, `ways` is zero, `ways` exceeds `lines`,
    /// or `lines / ways` is not a power of two.
    pub fn new(lines: usize, ways: usize) -> Self {
        assert!(lines > 0 && ways > 0, "cache must have lines and ways");
        assert!(ways <= lines, "ways cannot exceed total lines");
        let sets = lines / ways;
        assert!(
            sets.is_power_of_two(),
            "set count {sets} ({lines} lines / {ways} ways) must be a power of two"
        );
        Self {
            tags: vec![0; sets * ways],
            valid: vec![0; sets * ways],
            dirty: vec![0; sets * ways],
            last_use: vec![0; sets * ways],
            filled: vec![0; sets],
            set_mask: sets as u64 - 1,
            ways,
            tick: 0,
        }
    }

    fn set_of(&self, tag: u64) -> usize {
        (splitmix64(tag) & self.set_mask) as usize
    }

    /// Where `tag` lives: its set, and its way if it is resident. Hashes
    /// the tag and scans the set once; touches nothing.
    fn locate(&self, tag: u64) -> Probe {
        let set = self.set_of(tag);
        let base = set * self.ways;
        let filled = self.filled[set] as usize;
        let way = self.tags[base..base + filled]
            .iter()
            .position(|&t| t == tag)
            .map(|way| base + way);
        Probe { tag, set, way }
    }

    /// Looks up `tag` asking for the sectors in `mask`; updates LRU. The
    /// returned [`Probe`] hands the tag's set and way to a following
    /// [`fill`](Self::fill) or [`mark_dirty`](Self::mark_dirty), so one
    /// access hashes the tag and scans its set once.
    pub fn lookup(&mut self, tag: u64, mask: u8) -> (Lookup, Probe) {
        self.tick += 1;
        let probe = self.locate(tag);
        let Some(way) = probe.way else {
            return (Lookup::Miss, probe);
        };
        self.last_use[way] = self.tick;
        let lookup = match mask & !self.valid[way] {
            0 => Lookup::Hit,
            missing => Lookup::Partial { missing },
        };
        (lookup, probe)
    }

    /// Inserts (or merges) sectors for the probed tag, optionally marking
    /// them dirty, and points `probe` at the way that now holds it.
    /// Returns the evicted dirty line, if the fill displaced one.
    ///
    /// `probe` must come from the [`lookup`](Self::lookup) of the same
    /// access, with no other fill of this cache in between (debug builds
    /// assert it still describes the tag).
    pub fn fill(&mut self, probe: &mut Probe, mask: u8, dirty: bool) -> Option<Eviction> {
        debug_assert_eq!(self.locate(probe.tag), *probe, "stale probe");
        self.tick += 1;
        let dirty_mask = if dirty { mask } else { 0 };
        if let Some(way) = probe.way {
            self.valid[way] |= mask;
            self.dirty[way] |= dirty_mask;
            self.last_use[way] = self.tick;
            return None;
        }
        let set = probe.set;
        let base = set * self.ways;
        let filled = self.filled[set] as usize;
        let (way, evicted) = if filled < self.ways {
            self.filled[set] += 1;
            (base + filled, None)
        } else {
            let mut victim = base;
            for way in base + 1..base + self.ways {
                if self.last_use[way] < self.last_use[victim] {
                    victim = way;
                }
            }
            let evicted = (self.dirty[victim] != 0).then(|| Eviction {
                tag: self.tags[victim],
                dirty_mask: self.dirty[victim],
            });
            (victim, evicted)
        };
        self.tags[way] = probe.tag;
        self.valid[way] = mask;
        self.dirty[way] = dirty_mask;
        self.last_use[way] = self.tick;
        probe.way = Some(way);
        evicted
    }

    /// Marks sectors of the probed line dirty (a store). No-op if the
    /// line is absent: the probe found no line and no fill placed one.
    ///
    /// **Invariant: fill before mark.** The engine only marks sectors it
    /// has already made valid (a write hit marks requested sectors that the
    /// hit proved valid; a write miss/partial [`fill`](Self::fill)s first —
    /// the full line under compression, the written sectors uncompressed).
    /// Dirtiness for a not-yet-resident sector would otherwise be dropped
    /// by the `valid` intersection below and the store silently lost at
    /// eviction, so the intersection is a release-mode backstop, not a
    /// semantic: marking an invalid sector is a caller bug, and debug
    /// builds assert it.
    pub fn mark_dirty(&mut self, probe: &Probe, mask: u8) {
        debug_assert_eq!(self.locate(probe.tag), *probe, "stale probe");
        if let Some(way) = probe.way {
            let valid = self.valid[way];
            debug_assert_eq!(
                mask & !valid,
                0,
                "fill before mark: marking sectors {mask:#06b} of line {} dirty, \
                 but only {valid:#06b} are valid",
                probe.tag,
            );
            self.dirty[way] |= mask & valid;
        }
    }
}

/// Where a [`SectoredCache::lookup`] found its tag (or where a fill of it
/// will go): the tag's set, and its way once resident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Probe {
    tag: u64,
    set: usize,
    way: Option<usize>,
}

/// The `Vec<Vec<Slot>>` cache the flat arrays above replaced, as the
/// oracle: the flat cache must return the same [`Lookup`] and the same
/// eviction for every operation of any stream. Its replacement code is
/// kept verbatim; the unread hit counters and the geometry checks are
/// gone, and `valid_mask` lets a test mark only valid sectors.
#[cfg(test)]
mod reference {
    use super::{Eviction, Lookup};
    use crate::splitmix64;

    #[derive(Debug, Clone, Copy)]
    struct Slot {
        tag: u64,
        valid_mask: u8,
        dirty_mask: u8,
        last_use: u64,
    }

    #[derive(Debug, Clone)]
    pub(super) struct SectoredCache {
        sets: Vec<Vec<Slot>>,
        set_mask: u64,
        ways: usize,
        tick: u64,
    }

    impl SectoredCache {
        pub(super) fn new(lines: usize, ways: usize) -> Self {
            let sets = lines / ways;
            Self {
                sets: vec![Vec::new(); sets],
                set_mask: sets as u64 - 1,
                ways,
                tick: 0,
            }
        }

        fn set_of(&self, tag: u64) -> usize {
            (splitmix64(tag) & self.set_mask) as usize
        }

        /// `tag`'s valid sectors if it is resident; touches nothing.
        pub(super) fn valid_mask(&self, tag: u64) -> Option<u8> {
            self.sets[self.set_of(tag)]
                .iter()
                .find(|s| s.tag == tag)
                .map(|s| s.valid_mask)
        }

        pub(super) fn lookup(&mut self, tag: u64, mask: u8) -> Lookup {
            self.tick += 1;
            let set = self.set_of(tag);
            for slot in &mut self.sets[set] {
                if slot.tag == tag {
                    slot.last_use = self.tick;
                    let missing = mask & !slot.valid_mask;
                    return if missing == 0 {
                        Lookup::Hit
                    } else {
                        Lookup::Partial { missing }
                    };
                }
            }
            Lookup::Miss
        }

        pub(super) fn fill(&mut self, tag: u64, mask: u8, dirty: bool) -> Option<Eviction> {
            self.tick += 1;
            let tick = self.tick;
            let ways = self.ways;
            let set_idx = self.set_of(tag);
            let set = &mut self.sets[set_idx];
            if let Some(slot) = set.iter_mut().find(|s| s.tag == tag) {
                slot.valid_mask |= mask;
                if dirty {
                    slot.dirty_mask |= mask;
                }
                slot.last_use = tick;
                return None;
            }
            let new_slot = Slot {
                tag,
                valid_mask: mask,
                dirty_mask: if dirty { mask } else { 0 },
                last_use: tick,
            };
            if set.len() < ways {
                set.push(new_slot);
                return None;
            }
            let victim_idx = set
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.last_use)
                .map(|(i, _)| i)
                .expect("set is full, victim exists");
            let victim = std::mem::replace(&mut set[victim_idx], new_slot);
            if victim.dirty_mask != 0 {
                Some(Eviction {
                    tag: victim.tag,
                    dirty_mask: victim.dirty_mask,
                })
            } else {
                None
            }
        }

        pub(super) fn mark_dirty(&mut self, tag: u64, mask: u8) {
            let set = self.set_of(tag);
            if let Some(slot) = self.sets[set].iter_mut().find(|s| s.tag == tag) {
                debug_assert_eq!(
                    mask & !slot.valid_mask,
                    0,
                    "fill before mark: marking sectors {:#06b} of line {tag} dirty, \
                     but only {:#06b} are valid",
                    mask,
                    slot.valid_mask
                );
                slot.dirty_mask |= mask & slot.valid_mask;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Tag-addressed `fill` and `mark_dirty` for streams that fill or mark
    /// without a lookup first. `locate` does not tick, so neither costs LRU
    /// time, as in the reference.
    impl SectoredCache {
        fn fill_tag(&mut self, tag: u64, mask: u8, dirty: bool) -> Option<Eviction> {
            let mut probe = self.locate(tag);
            self.fill(&mut probe, mask, dirty)
        }

        fn mark_dirty_tag(&mut self, tag: u64, mask: u8) {
            let probe = self.locate(tag);
            self.mark_dirty(&probe, mask);
        }
    }

    #[test]
    fn one_metadata_slice_spreads_over_its_sets() {
        // One slice of Figure 5b's 128 KB point: 32 slices of 128 lines in
        // 4 ways, so 32 sets. The lines routed to one slice must not crowd
        // into the few sets their slice hash happens to agree on.
        let slices = 32;
        let cache = SectoredCache::new(128, 4);
        let mut used = [false; 32];
        for line in (0..)
            .filter(|&line| crate::metadata_slice(line, slices) == 0)
            .take(1024)
        {
            used[cache.set_of(line)] = true;
        }
        let used = used.iter().filter(|&&u| u).count();
        assert!(used >= 16, "slice 0's lines use {used} of 32 sets");
    }

    #[test]
    fn hit_after_fill() {
        let mut c = SectoredCache::new(64, 4);
        assert_eq!(c.lookup(42, 0b1111).0, Lookup::Miss);
        c.fill_tag(42, 0b1111, false);
        assert_eq!(c.lookup(42, 0b0110).0, Lookup::Hit);
    }

    #[test]
    fn sector_miss_reports_missing() {
        let mut c = SectoredCache::new(64, 4);
        c.fill_tag(42, 0b0011, false);
        assert_eq!(c.lookup(42, 0b0111).0, Lookup::Partial { missing: 0b0100 });
        // Fill the missing sector: now a full hit.
        c.fill_tag(42, 0b0100, false);
        assert_eq!(c.lookup(42, 0b0111).0, Lookup::Hit);
    }

    #[test]
    fn lru_evicts_oldest_and_reports_dirty() {
        let mut c = SectoredCache::new(2, 2); // one set, two ways
        assert!(c.fill_tag(1, 0b1111, true).is_none());
        assert!(c.fill_tag(2, 0b1111, false).is_none());
        // Touch line 1 so line 2 is LRU.
        assert_eq!(c.lookup(1, 0b0001).0, Lookup::Hit);
        let evicted = c.fill_tag(3, 0b1111, false);
        assert_eq!(evicted, None, "line 2 was clean");
        // Now 1 (dirty) is LRU after touching 3.
        assert_eq!(c.lookup(3, 0b0001).0, Lookup::Hit);
        let evicted = c.fill_tag(4, 0b1111, false);
        assert_eq!(
            evicted,
            Some(Eviction {
                tag: 1,
                dirty_mask: 0b1111
            })
        );
    }

    #[test]
    fn mark_dirty_records_exactly_the_marked_valid_sectors() {
        // Fill two sectors, dirty one of them, and observe the dirty mask
        // through an eviction (1-set cache so capacity pressure evicts).
        let mut c1 = SectoredCache::new(2, 2);
        c1.fill_tag(9, 0b0011, false);
        c1.mark_dirty_tag(9, 0b0001);
        c1.fill_tag(10, 0b1111, false);
        c1.lookup(10, 1);
        let ev = c1.fill_tag(11, 0b1111, false);
        assert_eq!(
            ev,
            Some(Eviction {
                tag: 9,
                dirty_mask: 0b0001
            })
        );
        // Marking an absent line is a silent no-op (the store went
        // elsewhere), not an error: it neither makes the line resident nor
        // leaves dirtiness behind for a later clean fill of it.
        let mut c2 = SectoredCache::new(2, 2);
        c2.mark_dirty_tag(77, 0b1111);
        assert_eq!(c2.lookup(77, 0b1111).0, Lookup::Miss);
        c2.fill_tag(77, 0b1111, false);
        assert_eq!(c2.fill_tag(78, 0b1111, false), None);
        assert_eq!(c2.fill_tag(79, 0b1111, false), None, "line 77 left clean");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "fill before mark")]
    fn marking_unfilled_sectors_is_a_caller_bug() {
        // The engine's invariant: dirtiness may only be recorded for
        // sectors the cache already holds — marking a not-yet-filled
        // sector would silently drop the store at eviction time.
        let mut c = SectoredCache::new(4, 2);
        c.fill_tag(9, 0b0011, false);
        c.mark_dirty_tag(9, 0b1111);
    }

    #[test]
    fn hit_rate_accounting() {
        let mut c = SectoredCache::new(16, 4);
        c.fill_tag(1, 0b0011, false);
        let got = [
            c.lookup(1, 0b0011).0,
            c.lookup(2, 0b0001).0,
            c.lookup(1, 0b0111).0,
            c.lookup(1, 0b0001).0,
        ];
        let hits = got.iter().filter(|&&l| l == Lookup::Hit).count();
        let misses = got.iter().filter(|&&l| l == Lookup::Miss).count();
        assert_eq!((hits, misses), (2, 1));
        assert_eq!(got[2], Lookup::Partial { missing: 0b0100 });
    }

    #[test]
    fn capacity_behavior_streaming_vs_reuse() {
        // Streaming through 4x the capacity yields ~0% reuse hits.
        let mut c = SectoredCache::new(256, 8);
        let mut hits = 0;
        for tag in 0..1024u64 {
            hits += usize::from(c.lookup(tag, 0b1111).0 == Lookup::Hit);
            c.fill_tag(tag, 0b1111, false);
        }
        assert_eq!(hits, 0);
        // Re-walking a small working set hits every time.
        let mut c = SectoredCache::new(256, 8);
        for round in 0..4 {
            for tag in 0..64u64 {
                let res = c.lookup(tag, 0b1111).0;
                if round == 0 {
                    assert_eq!(res, Lookup::Miss);
                    c.fill_tag(tag, 0b1111, false);
                } else {
                    assert_eq!(res, Lookup::Hit, "round {round} tag {tag}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "ways cannot exceed")]
    fn invalid_geometry_panics() {
        SectoredCache::new(2, 4);
    }

    #[test]
    #[should_panic(expected = "must be a power of two")]
    fn non_power_of_two_set_count_panics() {
        SectoredCache::new(12, 4); // three sets
    }

    /// The oracle geometries: one set of two ways, a metadata-cache-sized
    /// 32 × 4, and the Table 2 L2's 2048 × 16.
    const GEOMETRIES: [(usize, usize); 3] = [(2, 2), (128, 4), (32768, 16)];

    /// What one oracle stream exercised.
    #[derive(Debug, Default)]
    struct Exercised {
        hits: u64,
        partials: u64,
        dirty_evictions: u64,
    }

    /// Drives the flat cache and the reference through the same `ops`
    /// operations drawn from `seed`, over tags from three times the
    /// capacity, and asserts every `Lookup` and eviction agrees. A
    /// `mark_dirty` marks only sectors the reference holds valid (fill
    /// before mark), or any sectors of an absent line. One operation in
    /// five is an engine-style access, which hands its lookup's probe to
    /// the fill and the dirty mark; the others fill and mark by tag.
    fn assert_matches_reference(lines: usize, ways: usize, seed: u64, ops: u64) -> Exercised {
        let mut flat = SectoredCache::new(lines, ways);
        let mut reference = reference::SectoredCache::new(lines, ways);
        let mut seen = Exercised::default();
        for op in 0..ops {
            let h = splitmix64(seed ^ splitmix64(op));
            let tag = h % (3 * lines as u64);
            let mask = (h >> 32) as u8 & 0b1111;
            let dirty = h >> 48 & 1 == 1;
            let mut lookup = Lookup::Miss;
            let mut eviction = None;
            match (h >> 40) % 5 {
                0 => {
                    lookup = flat.lookup(tag, mask).0;
                    assert_eq!(lookup, reference.lookup(tag, mask), "op {op}: lookup {tag}");
                }
                1 => {
                    // A write marks what it wrote; a miss fills it first.
                    let (got, mut probe) = flat.lookup(tag, mask);
                    assert_eq!(got, reference.lookup(tag, mask), "op {op}: access {tag}");
                    lookup = got;
                    if got != Lookup::Hit {
                        eviction = flat.fill(&mut probe, mask, false);
                        assert_eq!(eviction, reference.fill(tag, mask, false), "op {op}: {tag}");
                    }
                    if dirty {
                        flat.mark_dirty(&probe, mask);
                        reference.mark_dirty(tag, mask);
                    }
                }
                2 | 3 => {
                    eviction = flat.fill_tag(tag, mask, dirty);
                    assert_eq!(
                        eviction,
                        reference.fill(tag, mask, dirty),
                        "op {op}: fill {tag}"
                    );
                }
                _ => {
                    let mask = mask & reference.valid_mask(tag).unwrap_or(0b1111);
                    flat.mark_dirty_tag(tag, mask);
                    reference.mark_dirty(tag, mask);
                }
            }
            seen.hits += u64::from(lookup == Lookup::Hit);
            seen.partials += u64::from(matches!(lookup, Lookup::Partial { .. }));
            seen.dirty_evictions += u64::from(eviction.is_some());
        }
        seen
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn flat_cache_matches_reference(
            geometry in 0usize..3,
            seed in any::<u64>(),
            passes in 1u64..5,
        ) {
            let (lines, ways) = GEOMETRIES[geometry];
            assert_matches_reference(lines, ways, seed, passes * lines as u64 + 64);
        }
    }

    #[test]
    fn oracle_streams_reach_hits_partials_and_dirty_evictions() {
        for (lines, ways) in GEOMETRIES {
            let seen = assert_matches_reference(lines, ways, 0xB0DD7, 4 * lines as u64 + 64);
            assert!(
                seen.hits > 0 && seen.partials > 0 && seen.dirty_evictions > 0,
                "{lines} lines × {ways} ways: {seen:?}"
            );
        }
    }

    /// The Table 2 L2 geometry over 4 M operations; run in release by CI.
    #[test]
    #[ignore = "4 M cache operations; run in release"]
    fn flat_cache_matches_reference_at_full_geometry() {
        for seed in 0..4 {
            let seen = assert_matches_reference(32768, 16, seed, 1 << 20);
            assert!(
                seen.hits > 0 && seen.partials > 0 && seen.dirty_evictions > 0,
                "seed {seed}: {seen:?}"
            );
        }
    }
}
