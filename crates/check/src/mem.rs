//! The checker's weak-memory model: per-location store **histories** plus
//! per-thread **views**, approximating C11 release/acquire/fence semantics
//! closely enough that insufficiently-ordered loads can observe stale
//! values instead of silently assuming sequential consistency.
//!
//! # Model
//!
//! Every atomic location carries the full history of values ever stored to
//! it (its modification order). Every model thread carries a *view*: for
//! each location, the lowest history index it is still allowed to observe
//! (its coherence floor). The rules:
//!
//! * **Any load** may return any history entry at or above the thread's
//!   floor for that location — which entry is a *scheduler decision*, so
//!   the explorer branches over every observable stale value. Reading
//!   entry `i` raises the floor to `i` (coherence: a thread never travels
//!   back in time on one location).
//! * **RMWs** (`fetch_xor` and `compare_exchange`, the ones the models
//!   use) always read the latest entry — C11 requires read-modify-writes
//!   to bind to the head of the modification order. A `compare_exchange`
//!   whose expected value is not the head stores nothing and acts as a
//!   load of the head with its failure ordering.
//! * A **release store** attaches the writer's entire current view to the
//!   history entry (its *message*). An **acquire load** that returns such
//!   an entry joins the message into the reader's view, raising floors —
//!   this is the happens-before edge.
//! * A **release fence** snapshots the thread's view; every subsequent
//!   store (any ordering) attaches that snapshot as a *fence message*. An
//!   **acquire fence** joins the fence/release messages of every entry the
//!   thread has loaded since its last acquire fence — upgrading earlier
//!   relaxed loads, which is exactly the seqlock reader's re-validation
//!   edge.
//! * **SeqCst** operations additionally join with (and publish to) one
//!   global SC view, making them totally ordered against each other. This
//!   is slightly *stronger* than C11's `seq_cst` (it implies
//!   acquire/release against every prior SC op, not just same-location
//!   ones); the approximation direction means a protocol that passes here
//!   could in principle still hide a bug behind mixed SC/non-SC subtleties,
//!   but every counterexample the checker prints is a real interleaving.
//!
//! There is no load-buffering / out-of-thin-air modelling: a thread's own
//! operations execute in program order, and weak behaviour appears only as
//! *staleness* of loaded values. That covers every ordering bug a seqlock /
//! epoch protocol can have (torn reads, lost publications, reordered
//! tombstones) without the full C11 axiomatics — see DESIGN.md §13 for the
//! scope discussion.

use std::collections::HashMap;
use std::sync::atomic::Ordering;

/// A thread- or message-view: location → lowest observable history index.
pub(crate) type View = HashMap<usize, usize>;

/// Joins `other` into `view`, keeping the higher floor per location.
pub(crate) fn join(view: &mut View, other: &View) {
    for (&loc, &idx) in other {
        let e = view.entry(loc).or_insert(idx);
        *e = (*e).max(idx);
    }
}

/// One entry in a location's modification order.
#[derive(Debug, Clone)]
pub(crate) struct HistEntry {
    /// The stored value (all shim atomics widen to `u64`).
    pub value: u64,
    /// Release message: the writer's view at the store, when the store was
    /// `Release`/`AcqRel`/`SeqCst`.
    pub msg: Option<View>,
    /// Fence message: the writer's view at its latest preceding release
    /// fence, attached to every later store regardless of ordering.
    pub fmsg: Option<View>,
}

/// The modification order of one atomic location.
#[derive(Debug, Default)]
pub(crate) struct Location {
    pub history: Vec<HistEntry>,
}

/// Mutable memory-model state of one execution.
#[derive(Debug, Default)]
pub(crate) struct Memory {
    /// Locations keyed by the shim atomic's address (stable for the
    /// lifetime of one execution: models keep their atomics alive end to
    /// end).
    locations: HashMap<usize, Location>,
    /// Per-thread views (floors).
    views: Vec<View>,
    /// Per-thread: messages collected by loads since the last acquire
    /// fence, joined in bulk when an acquire fence runs.
    pending_acquire: Vec<View>,
    /// Per-thread: view snapshot taken by the latest release fence.
    fence_release: Vec<Option<View>>,
    /// The global SeqCst view.
    sc: View,
}

fn is_release(o: Ordering) -> bool {
    matches!(o, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

fn is_acquire(o: Ordering) -> bool {
    matches!(o, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

impl Memory {
    /// Ensures per-thread state exists for thread `tid`.
    pub fn ensure_thread(&mut self, tid: usize) {
        while self.views.len() <= tid {
            self.views.push(View::new());
            self.pending_acquire.push(View::new());
            self.fence_release.push(None);
        }
    }

    /// Registers a location on first touch with its initial value (one
    /// history entry visible to everybody).
    pub fn ensure_location(&mut self, loc: usize, initial: u64) {
        self.locations.entry(loc).or_insert_with(|| Location {
            history: vec![HistEntry {
                value: initial,
                msg: None,
                fmsg: None,
            }],
        });
    }

    /// The thread-inherits-parent-view edge of `spawn` (and symmetrically
    /// `join`): everything the parent saw, the child sees.
    pub fn inherit_view(&mut self, from: usize, to: usize) {
        self.ensure_thread(from.max(to));
        let v = self.views[from].clone();
        join(&mut self.views[to], &v);
    }

    /// Number of observable history entries for `tid` at `loc`: the
    /// candidates are indices `floor(tid, loc) ..= latest`. The scheduler
    /// turns this count into a decision.
    pub fn candidates(&self, tid: usize, loc: usize) -> usize {
        let latest = self.locations[&loc].history.len() - 1;
        latest - self.floor(tid, loc) + 1
    }

    fn floor(&self, tid: usize, loc: usize) -> usize {
        self.views[tid].get(&loc).copied().unwrap_or(0)
    }

    /// Executes a load that observes candidate `choice` (0 = the oldest
    /// observable entry, `candidates - 1` = the latest). Returns
    /// `(value, stale)` where `stale` is true when an older-than-latest
    /// entry was read.
    pub fn load(
        &mut self,
        tid: usize,
        loc: usize,
        ordering: Ordering,
        choice: usize,
    ) -> (u64, bool) {
        let base = self.floor(tid, loc);
        let idx = base + choice;
        let latest = self.locations[&loc].history.len() - 1;
        let entry = self.locations[&loc].history[idx].clone();
        // Coherence: this thread can never again see anything older.
        self.views[tid].insert(loc, idx);
        // Collect the entry's messages for a later acquire fence …
        if let Some(m) = &entry.msg {
            join(&mut self.pending_acquire[tid], m);
        }
        if let Some(m) = &entry.fmsg {
            join(&mut self.pending_acquire[tid], m);
        }
        // … and join them now if the load itself is acquire-or-stronger.
        if is_acquire(ordering) {
            if let Some(m) = &entry.msg {
                let m = m.clone();
                join(&mut self.views[tid], &m);
            }
            if let Some(m) = &entry.fmsg {
                let m = m.clone();
                join(&mut self.views[tid], &m);
            }
        }
        if ordering == Ordering::SeqCst {
            self.sc_sync(tid);
        }
        (entry.value, idx < latest)
    }

    /// Executes a store of `value`; appends to the modification order and
    /// publishes messages per `ordering`.
    pub fn store(&mut self, tid: usize, loc: usize, ordering: Ordering, value: u64) {
        if ordering == Ordering::SeqCst {
            self.sc_sync(tid);
        }
        let fmsg = self.fence_release[tid].clone();
        let new_idx = self.locations[&loc].history.len();
        // The writer observes its own store.
        self.views[tid].insert(loc, new_idx);
        let msg = if is_release(ordering) {
            Some(self.views[tid].clone())
        } else {
            None
        };
        self.locations
            .get_mut(&loc)
            // lint-allow(no-unwrap): ensure_location precedes every store;
            // inside the checker a broken invariant should abort the run
            .expect("location registered before store")
            .history
            .push(HistEntry { value, msg, fmsg });
    }

    /// Executes a read-modify-write: reads the **latest** entry (C11 binds
    /// RMWs to the head of the modification order), applies `f`, stores the
    /// result. Returns the previous value.
    pub fn rmw(
        &mut self,
        tid: usize,
        loc: usize,
        ordering: Ordering,
        f: impl FnOnce(u64) -> u64,
    ) -> u64 {
        let latest = self.locations[&loc].history.len() - 1;
        let entry = self.locations[&loc].history[latest].clone();
        self.views[tid].insert(loc, latest);
        if let Some(m) = &entry.msg {
            join(&mut self.pending_acquire[tid], m);
            if is_acquire(ordering) {
                let m = m.clone();
                join(&mut self.views[tid], &m);
            }
        }
        if let Some(m) = &entry.fmsg {
            join(&mut self.pending_acquire[tid], m);
            if is_acquire(ordering) {
                let m = m.clone();
                join(&mut self.views[tid], &m);
            }
        }
        self.store(tid, loc, ordering, f(entry.value));
        entry.value
    }

    /// Executes a compare-and-exchange against the **latest** entry: an
    /// [`rmw`](Self::rmw) storing `new` with `success` when it holds
    /// `current`, else a load of it with `failure`. Returns the value read,
    /// `Ok` when the exchange happened.
    pub fn compare_exchange(
        &mut self,
        tid: usize,
        loc: usize,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        if self.locations[&loc].history.last().map(|e| e.value) == Some(current) {
            Ok(self.rmw(tid, loc, success, |_| new))
        } else {
            let head = self.candidates(tid, loc) - 1;
            Err(self.load(tid, loc, failure, head).0)
        }
    }

    /// Executes a fence.
    pub fn fence(&mut self, tid: usize, ordering: Ordering) {
        if is_acquire(ordering) {
            let pending = std::mem::take(&mut self.pending_acquire[tid]);
            join(&mut self.views[tid], &pending);
        }
        if is_release(ordering) {
            self.fence_release[tid] = Some(self.views[tid].clone());
        }
        if ordering == Ordering::SeqCst {
            self.sc_sync(tid);
            // An SC fence also republishes the (now larger) view.
            self.fence_release[tid] = Some(self.views[tid].clone());
        }
    }

    /// Two-way join with the global SeqCst view.
    fn sc_sync(&mut self, tid: usize) {
        let sc = self.sc.clone();
        join(&mut self.views[tid], &sc);
        let v = self.views[tid].clone();
        join(&mut self.sc, &v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const L: usize = 0x1000;
    const F: usize = 0x2000;

    fn mem() -> Memory {
        let mut m = Memory::default();
        m.ensure_thread(1);
        m.ensure_location(L, 0);
        m.ensure_location(F, 0);
        m
    }

    #[test]
    fn relaxed_loads_see_stale_values_until_coherence_floor_rises() {
        let mut m = mem();
        m.store(0, L, Ordering::Relaxed, 1);
        m.store(0, L, Ordering::Relaxed, 2);
        // Thread 1 has floor 0: initial, 1 and 2 are all observable.
        assert_eq!(m.candidates(1, L), 3);
        let (v, stale) = m.load(1, L, Ordering::Relaxed, 1);
        assert_eq!((v, stale), (1, true));
        // Coherence: after observing index 1, index 0 is gone.
        assert_eq!(m.candidates(1, L), 2);
        let (v, _) = m.load(1, L, Ordering::Relaxed, 0);
        assert_eq!(v, 1);
    }

    #[test]
    fn release_acquire_pair_raises_floors() {
        let mut m = mem();
        m.store(0, F, Ordering::Relaxed, 7); // data
        m.store(0, L, Ordering::Release, 1); // flag publishes the data
                                             // Acquire-loading the latest flag entry forbids stale data.
        let (v, _) = m.load(1, L, Ordering::Acquire, m.candidates(1, L) - 1);
        assert_eq!(v, 1);
        assert_eq!(m.candidates(1, F), 1, "stale data no longer observable");
        // A relaxed flag load would not have synchronized: fresh thread.
        let mut m2 = mem();
        m2.store(0, F, Ordering::Relaxed, 7);
        m2.store(0, L, Ordering::Release, 1);
        let (v, _) = m2.load(1, L, Ordering::Relaxed, m2.candidates(1, L) - 1);
        assert_eq!(v, 1);
        assert_eq!(
            m2.candidates(1, F),
            2,
            "relaxed load leaves data stale-readable"
        );
    }

    #[test]
    fn fence_to_fence_synchronization() {
        let mut m = mem();
        // Writer: store flag relaxed, release fence, store data relaxed.
        m.store(0, L, Ordering::Relaxed, 1);
        m.fence(0, Ordering::Release);
        m.store(0, F, Ordering::Relaxed, 7);
        // Reader: relaxed-load the data (latest), acquire fence, then the
        // flag floor must have risen to the post-store index.
        let (v, _) = m.load(1, F, Ordering::Relaxed, m.candidates(1, F) - 1);
        assert_eq!(v, 7);
        assert_eq!(
            m.candidates(1, L),
            2,
            "before the fence the flag may be stale"
        );
        m.fence(1, Ordering::Acquire);
        assert_eq!(m.candidates(1, L), 1, "after the fence the flag is current");
    }

    #[test]
    fn rmw_reads_the_latest_entry() {
        let mut m = mem();
        m.store(0, L, Ordering::Relaxed, 10);
        let prev = m.rmw(1, L, Ordering::Relaxed, |v| v + 1);
        assert_eq!(prev, 10);
        let (v, stale) = m.load(0, L, Ordering::Relaxed, m.candidates(0, L) - 1);
        assert_eq!((v, stale), (11, false));
    }

    #[test]
    fn compare_exchange_binds_to_the_latest_entry() {
        let mut m = mem();
        m.store(0, F, Ordering::Relaxed, 7); // data
        m.store(0, L, Ordering::Release, 1);
        // Thread 1 could load the stale 0, but a CAS expecting it fails
        // against the head and stores nothing.
        assert_eq!(m.candidates(1, L), 2);
        let failed = m.compare_exchange(1, L, 0, 5, Ordering::Acquire, Ordering::Relaxed);
        assert_eq!(failed, Err(1));
        assert_eq!(m.candidates(1, L), 1, "a failed CAS still reads the head");
        assert_eq!(
            m.candidates(1, F),
            2,
            "a Relaxed failure does not synchronize"
        );
        // Expecting the head succeeds, and its Acquire inherits the data.
        let opened = m.compare_exchange(1, L, 1, 2, Ordering::Acquire, Ordering::Relaxed);
        assert_eq!(opened, Ok(1));
        assert_eq!(m.candidates(1, F), 1, "stale data no longer observable");
        let (v, stale) = m.load(0, L, Ordering::Relaxed, m.candidates(0, L) - 1);
        assert_eq!((v, stale), (2, false));
    }

    #[test]
    fn seqcst_ops_are_globally_ordered() {
        let mut m = mem();
        m.store(0, F, Ordering::Relaxed, 7);
        m.store(0, L, Ordering::SeqCst, 1);
        // An SC load on another thread joins the SC view published above.
        let (v, _) = m.load(1, L, Ordering::SeqCst, m.candidates(1, L) - 1);
        assert_eq!(v, 1);
        assert_eq!(m.candidates(1, F), 1);
    }
}
