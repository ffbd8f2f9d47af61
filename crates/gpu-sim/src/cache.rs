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

#[derive(Debug, Clone, Copy)]
struct Slot {
    tag: u64,
    valid_mask: u8,
    dirty_mask: u8,
    last_use: u64,
}

/// Set-associative sectored cache with LRU replacement.
#[derive(Debug, Clone)]
pub struct SectoredCache {
    sets: Vec<Vec<Slot>>,
    /// `sets.len() - 1`: a power-of-two set count makes the set index a mask.
    set_mask: u64,
    ways: usize,
    tick: u64,
    hits: u64,
    partial_hits: u64,
    misses: u64,
}

impl SectoredCache {
    /// Creates a cache with `lines` total lines and `ways` associativity,
    /// i.e. `lines / ways` sets. A line's set is its hashed tag masked to
    /// the set count, so the set count must be a power of two. Every set
    /// starts empty and grows to `ways` slots as it fills.
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
            sets: vec![Vec::new(); sets],
            set_mask: sets as u64 - 1,
            ways,
            tick: 0,
            hits: 0,
            partial_hits: 0,
            misses: 0,
        }
    }

    fn set_of(&self, tag: u64) -> usize {
        (splitmix64(tag) & self.set_mask) as usize
    }

    /// Looks up `tag` asking for the sectors in `mask`; updates LRU and hit
    /// statistics.
    pub fn lookup(&mut self, tag: u64, mask: u8) -> Lookup {
        self.tick += 1;
        let set = self.set_of(tag);
        for slot in &mut self.sets[set] {
            if slot.tag == tag {
                slot.last_use = self.tick;
                let missing = mask & !slot.valid_mask;
                return if missing == 0 {
                    self.hits += 1;
                    Lookup::Hit
                } else {
                    self.partial_hits += 1;
                    Lookup::Partial { missing }
                };
            }
        }
        self.misses += 1;
        Lookup::Miss
    }

    /// Inserts (or merges) sectors for `tag`, optionally marking them dirty.
    /// Returns the evicted dirty line, if the fill displaced one.
    pub fn fill(&mut self, tag: u64, mask: u8, dirty: bool) -> Option<Eviction> {
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
        #[expect(clippy::expect_used, reason = "the set was just checked to be full")]
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

    /// Marks sectors of a resident line dirty (store hit). No-op if absent.
    ///
    /// **Invariant: fill before mark.** The engine only marks sectors it
    /// has already made valid (a write hit marks requested sectors that the
    /// hit proved valid; a write miss/partial [`fill`](Self::fill)s first —
    /// the full line under compression, the written sectors uncompressed).
    /// Dirtiness for a not-yet-resident sector would otherwise be dropped
    /// by the `valid_mask` intersection below and the store silently lost
    /// at eviction, so the intersection is a release-mode backstop, not a
    /// semantic: marking an invalid sector is a caller bug, and debug
    /// builds assert it.
    pub fn mark_dirty(&mut self, tag: u64, mask: u8) {
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

    /// (hits, partial hits, misses) counters.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.partial_hits, self.misses)
    }

    /// Clears the statistics counters (not the contents).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.partial_hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(c.lookup(42, 0b1111), Lookup::Miss);
        c.fill(42, 0b1111, false);
        assert_eq!(c.lookup(42, 0b0110), Lookup::Hit);
    }

    #[test]
    fn sector_miss_reports_missing() {
        let mut c = SectoredCache::new(64, 4);
        c.fill(42, 0b0011, false);
        assert_eq!(c.lookup(42, 0b0111), Lookup::Partial { missing: 0b0100 });
        // Fill the missing sector: now a full hit.
        c.fill(42, 0b0100, false);
        assert_eq!(c.lookup(42, 0b0111), Lookup::Hit);
    }

    #[test]
    fn lru_evicts_oldest_and_reports_dirty() {
        let mut c = SectoredCache::new(2, 2); // one set, two ways
        assert!(c.fill(1, 0b1111, true).is_none());
        assert!(c.fill(2, 0b1111, false).is_none());
        // Touch line 1 so line 2 is LRU.
        assert_eq!(c.lookup(1, 0b0001), Lookup::Hit);
        let evicted = c.fill(3, 0b1111, false);
        assert_eq!(evicted, None, "line 2 was clean");
        // Now 1 (dirty) is LRU after touching 3.
        assert_eq!(c.lookup(3, 0b0001), Lookup::Hit);
        let evicted = c.fill(4, 0b1111, false);
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
        c1.fill(9, 0b0011, false);
        c1.mark_dirty(9, 0b0001);
        c1.fill(10, 0b1111, false);
        c1.lookup(10, 1);
        let ev = c1.fill(11, 0b1111, false);
        assert_eq!(
            ev,
            Some(Eviction {
                tag: 9,
                dirty_mask: 0b0001
            })
        );
        // Marking an absent line is a silent no-op (the store went
        // elsewhere), not an error.
        let mut c2 = SectoredCache::new(4, 2);
        c2.mark_dirty(77, 0b1111);
        assert_eq!(c2.stats(), (0, 0, 0));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "fill before mark")]
    fn marking_unfilled_sectors_is_a_caller_bug() {
        // The engine's invariant: dirtiness may only be recorded for
        // sectors the cache already holds — marking a not-yet-filled
        // sector would silently drop the store at eviction time.
        let mut c = SectoredCache::new(4, 2);
        c.fill(9, 0b0011, false);
        c.mark_dirty(9, 0b1111);
    }

    #[test]
    fn hit_rate_accounting() {
        let mut c = SectoredCache::new(16, 4);
        c.fill(1, 0b1111, false);
        c.lookup(1, 0b1111); // hit
        c.lookup(2, 0b0001); // miss
        c.lookup(1, 0b1111); // hit
        let (h, p, m) = c.stats();
        assert_eq!((h, p, m), (2, 0, 1));
        c.reset_stats();
        assert_eq!(c.stats(), (0, 0, 0));
    }

    #[test]
    fn capacity_behavior_streaming_vs_reuse() {
        // Streaming through 4x the capacity yields ~0% reuse hits.
        let mut c = SectoredCache::new(256, 8);
        for tag in 0..1024u64 {
            c.lookup(tag, 0b1111);
            c.fill(tag, 0b1111, false);
        }
        let (h, _, _) = c.stats();
        assert_eq!(h, 0);
        // Re-walking a small working set hits every time.
        let mut c = SectoredCache::new(256, 8);
        for round in 0..4 {
            for tag in 0..64u64 {
                let res = c.lookup(tag, 0b1111);
                if round == 0 {
                    assert_eq!(res, Lookup::Miss);
                    c.fill(tag, 0b1111, false);
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
}
