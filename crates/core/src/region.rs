//! A first-fit free-list region allocator with neighbour coalescing.
//!
//! The device's two storage regions (device memory and the buddy
//! carve-out) both hand out contiguous runs that are later returned by
//! [`BuddyDevice::free`](crate::BuddyDevice::free). The per-entry metadata
//! array needs no allocator: a nibble's index is derived from its entry's
//! device address. A bump cursor cannot reclaim anything, so each region is
//! managed by one of these allocators instead: allocation is a first-fit
//! scan of the sorted free list, and freeing merges the returned run with
//! adjacent free neighbours immediately — after every live run is freed,
//! the free list collapses back to one capacity-sized region, which the
//! churn suite pins as the leak-freedom property.
//!
//! Offsets and lengths are plain `u64`s in whatever unit the caller uses
//! (bytes, for both storage arrays).

/// One contiguous free run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FreeRun {
    offset: u64,
    len: u64,
}

/// First-fit free-list allocator over a `[0, capacity)` range.
///
/// Invariants maintained by every operation: the free list is sorted by
/// offset, runs never overlap, and no two runs are adjacent (coalescing is
/// eager). `used() + free_total()` always equals the managed range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionAllocator {
    capacity: u64,
    free: Vec<FreeRun>,
    used: u64,
}

impl RegionAllocator {
    /// An allocator over `[0, capacity)`, initially fully free.
    pub fn new(capacity: u64) -> Self {
        let free = if capacity > 0 {
            vec![FreeRun {
                offset: 0,
                len: capacity,
            }]
        } else {
            Vec::new()
        };
        Self {
            capacity,
            free,
            used: 0,
        }
    }

    /// Total managed range (the auditor's tiling bound).
    #[cfg(debug_assertions)]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Units currently allocated.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Units currently free (across all runs).
    pub fn free_total(&self) -> u64 {
        self.capacity - self.used
    }

    /// Length of the largest contiguous free run — the biggest single
    /// allocation that can currently succeed.
    pub fn largest_free(&self) -> u64 {
        self.free.iter().map(|r| r.len).max().unwrap_or(0)
    }

    /// The free list as `(offset, len)` pairs, in offset order. Exposed for
    /// the shadow-state auditor, which revalidates the canonical-free-list
    /// invariants from the outside.
    #[cfg(debug_assertions)]
    pub fn free_runs(&self) -> Vec<(u64, u64)> {
        self.free.iter().map(|r| (r.offset, r.len)).collect()
    }

    /// External fragmentation in `[0, 1)`: the fraction of free space that
    /// is *not* reachable by one maximal allocation
    /// (`1 − largest_free / free_total`; `0` when nothing is free).
    pub fn fragmentation(&self) -> f64 {
        let free = self.free_total();
        if free == 0 {
            return 0.0;
        }
        1.0 - self.largest_free() as f64 / free as f64
    }

    /// Allocates a contiguous run of `len` units, first-fit. Returns its
    /// offset, or `None` if no free run is large enough. Zero-length
    /// requests always succeed at offset 0 without reserving anything.
    pub fn alloc(&mut self, len: u64) -> Option<u64> {
        if len == 0 {
            return Some(0);
        }
        let slot = self.free.iter().position(|r| r.len >= len)?;
        let run = &mut self.free[slot];
        let offset = run.offset;
        if run.len == len {
            self.free.remove(slot);
        } else {
            run.offset += len;
            run.len -= len;
        }
        self.used += len;
        Some(offset)
    }

    /// Carves the exact run `[offset, offset + len)` out of the free list
    /// (used to restore a just-freed reservation when a migration fails
    /// mid-way). Returns `false` — changing nothing — unless the entire
    /// range is currently free; a range whose end overflows `u64` is past
    /// capacity and never free.
    pub fn reserve_at(&mut self, offset: u64, len: u64) -> bool {
        if len == 0 {
            return true;
        }
        let Some(end) = offset.checked_add(len) else {
            return false;
        };
        let Some(slot) = self
            .free
            .iter()
            .position(|r| r.offset <= offset && end <= r.offset + r.len)
        else {
            return false;
        };
        let run = self.free[slot];
        let before = FreeRun {
            offset: run.offset,
            len: offset - run.offset,
        };
        let after = FreeRun {
            offset: end,
            len: (run.offset + run.len) - end,
        };
        match (before.len > 0, after.len > 0) {
            (false, false) => {
                self.free.remove(slot);
            }
            (true, false) => self.free[slot] = before,
            (false, true) => self.free[slot] = after,
            (true, true) => {
                self.free[slot] = before;
                self.free.insert(slot + 1, after);
            }
        }
        self.used += len;
        true
    }

    /// Returns the run `[offset, offset + len)` to the free list, merging
    /// with adjacent free neighbours. Freeing a zero-length run is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if the run extends past capacity or overlaps a free run —
    /// both indicate a double free or a corrupted reservation, which must
    /// never be absorbed silently.
    pub fn free(&mut self, offset: u64, len: u64) {
        if len == 0 {
            return;
        }
        assert!(
            offset
                .checked_add(len)
                .is_some_and(|end| end <= self.capacity),
            "free of [{offset}, +{len}) past capacity {}",
            self.capacity
        );
        // Insertion point: first free run at or after the returned range.
        let slot = self.free.partition_point(|r| r.offset < offset);
        if let Some(prev) = slot.checked_sub(1).map(|i| self.free[i]) {
            assert!(
                prev.offset + prev.len <= offset,
                "free of [{offset}, +{len}) overlaps free run [{}, +{})",
                prev.offset,
                prev.len
            );
        }
        if let Some(next) = self.free.get(slot) {
            assert!(
                offset + len <= next.offset,
                "free of [{offset}, +{len}) overlaps free run [{}, +{})",
                next.offset,
                next.len
            );
        }
        let merges_prev = slot
            .checked_sub(1)
            .is_some_and(|i| self.free[i].offset + self.free[i].len == offset);
        let merges_next = self
            .free
            .get(slot)
            .is_some_and(|next| offset + len == next.offset);
        match (merges_prev, merges_next) {
            (true, true) => {
                let next_len = self.free[slot].len;
                self.free[slot - 1].len += len + next_len;
                self.free.remove(slot);
            }
            (true, false) => self.free[slot - 1].len += len,
            (false, true) => {
                self.free[slot].offset = offset;
                self.free[slot].len += len;
            }
            (false, false) => self.free.insert(slot, FreeRun { offset, len }),
        }
        self.used -= len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Checks the structural invariants after every mutation in the tests.
    fn check(r: &RegionAllocator) {
        let mut free = 0;
        for w in r.free.windows(2) {
            assert!(
                w[0].offset + w[0].len < w[1].offset,
                "free list must stay sorted, disjoint and coalesced: {:?}",
                r.free
            );
        }
        for run in &r.free {
            assert!(run.len > 0, "no empty runs");
            assert!(run.offset + run.len <= r.capacity);
            free += run.len;
        }
        assert_eq!(free, r.free_total());
        assert_eq!(r.used() + r.free_total(), r.capacity);
    }

    #[test]
    fn first_fit_and_exhaustion() {
        let mut r = RegionAllocator::new(100);
        assert_eq!(r.alloc(40), Some(0));
        assert_eq!(r.alloc(60), Some(40));
        assert_eq!(r.alloc(1), None);
        assert_eq!(r.used(), 100);
        assert_eq!(r.largest_free(), 0);
        check(&r);
    }

    #[test]
    fn free_coalesces_with_both_neighbours() {
        let mut r = RegionAllocator::new(120);
        let a = r.alloc(40).unwrap();
        let b = r.alloc(40).unwrap();
        let c = r.alloc(40).unwrap();
        r.free(a, 40);
        r.free(c, 40);
        check(&r);
        assert_eq!(r.largest_free(), 40, "two separate 40-unit holes");
        assert!(r.fragmentation() > 0.0);
        // Freeing the middle run merges everything back into one region.
        r.free(b, 40);
        check(&r);
        assert_eq!(r.used(), 0);
        assert_eq!(r.largest_free(), 120);
        assert_eq!(r.fragmentation(), 0.0);
        assert_eq!(r.alloc(120), Some(0), "full-capacity alloc after churn");
    }

    #[test]
    fn holes_are_reused_first_fit() {
        let mut r = RegionAllocator::new(100);
        let a = r.alloc(30).unwrap();
        let _b = r.alloc(30).unwrap();
        r.free(a, 30);
        // 30-unit hole at 0, 40 free at the tail: a 20-unit request takes
        // the hole (first fit), not the tail.
        assert_eq!(r.alloc(20), Some(0));
        // A 35-unit request skips the remaining 10-unit hole.
        assert_eq!(r.alloc(35), Some(60));
        check(&r);
    }

    #[test]
    fn zero_length_requests_are_free() {
        let mut r = RegionAllocator::new(10);
        assert_eq!(r.alloc(0), Some(0));
        assert_eq!(r.used(), 0);
        r.free(0, 0);
        assert!(r.reserve_at(5, 0));
        check(&r);
    }

    #[test]
    fn reserve_at_restores_an_exact_range() {
        let mut r = RegionAllocator::new(100);
        let a = r.alloc(60).unwrap();
        r.free(a, 60);
        // Middle of the free run: splits it in two.
        assert!(r.reserve_at(20, 10));
        check(&r);
        assert_eq!(r.used(), 10);
        assert_eq!(r.alloc(20), Some(0), "head fragment is allocatable");
        // A range that is partially allocated cannot be reserved.
        assert!(!r.reserve_at(25, 10));
        assert!(!r.reserve_at(90, 20), "past capacity");
        check(&r);
    }

    #[test]
    fn reserve_at_refuses_a_range_whose_end_overflows() {
        let mut r = RegionAllocator::new(1024);
        assert!(!r.reserve_at(u64::MAX, 2));
        assert!(!r.reserve_at(1, u64::MAX));
        assert_eq!(r.used(), 0);
        assert_eq!(r.largest_free(), 1024);
        assert_eq!(r.fragmentation(), 0.0);
        check(&r);
    }

    #[test]
    #[should_panic(expected = "overlaps free run")]
    fn double_free_panics() {
        let mut r = RegionAllocator::new(10);
        let a = r.alloc(4).unwrap();
        r.free(a, 4);
        r.free(a, 4);
    }

    #[test]
    #[should_panic(expected = "past capacity")]
    fn out_of_range_free_panics() {
        let mut r = RegionAllocator::new(10);
        r.free(8, 4);
    }

    #[test]
    fn interleaved_churn_always_returns_to_empty() {
        // Deterministic pseudo-random alloc/free churn; every allocation is
        // eventually freed and the allocator must collapse to one run.
        let mut r = RegionAllocator::new(1 << 16);
        let mut live: Vec<(u64, u64)> = Vec::new();
        let mut x = 0x9E3779B97F4A7C15u64;
        let mut step = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..4000 {
            if step() % 3 != 0 || live.is_empty() {
                let len = step() % 512 + 1;
                if let Some(off) = r.alloc(len) {
                    live.push((off, len));
                }
            } else {
                let idx = (step() % live.len() as u64) as usize;
                let (off, len) = live.swap_remove(idx);
                r.free(off, len);
            }
            check(&r);
        }
        for (off, len) in live.drain(..) {
            r.free(off, len);
        }
        check(&r);
        assert_eq!(r.used(), 0);
        assert_eq!(r.fragmentation(), 0.0);
        assert_eq!(r.alloc(1 << 16), Some(0));
    }
}
