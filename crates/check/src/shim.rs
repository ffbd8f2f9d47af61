//! Model-aware drop-in replacements for the `std::sync` primitives the
//! protocol models use: `AtomicU64` (load, store, `fetch_xor`,
//! `compare_exchange`), `fence`, and `spawn`/`JoinHandle`.
//!
//! Outside a checker execution (no scheduler context on the current
//! thread) every shim delegates straight to its `std` counterpart. Inside
//! [`crate::sched::explore`], every operation becomes a scheduling point
//! and atomics route through the weak-memory model in the crate's private
//! `mem` module: `Relaxed`/`Acquire` loads branch over every observable
//! stale value, and release/acquire edges and fences propagate views.
//!
//! Atomics mirror every model store into their real `std` atomic so the
//! fallback value, the registered initial value, and the latest history
//! entry always agree. A thread unwinding out of an aborted execution
//! (through a `Drop` that closes a window) is not scheduled again: its
//! ops act on the `std` mirror alone.

// lint-allow-file(raw-atomic-metric): the shim `AtomicU64` owns the `std`
// mirror of a model-checked protocol word; nothing here is a metric.

use crate::sched::{ctx, Exec, ExecState};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Address of a shim object, used as its stable location key for one
/// execution (models keep their atomics alive end to end).
fn loc_of<T>(x: &T) -> usize {
    x as *const T as usize
}

/// One shim object's identity for a model operation: its location key,
/// optional trace label, and construction-time value (seeds the model's
/// history the first time the location is touched).
struct Site {
    loc: usize,
    label: Option<&'static str>,
    initial: u64,
}

/// Loads weaker than `SeqCst` may observe stale history entries; `SeqCst`
/// loads always read the latest (the model's global SC order is a little
/// stronger than C11 — see `mem`'s module docs).
fn injectable(ordering: Ordering) -> bool {
    ordering != Ordering::SeqCst
}

fn register_label(st: &mut ExecState, loc: usize, label: Option<&'static str>) {
    if let Some(name) = label {
        st.set_label(loc, name);
    }
}

fn model_load(exec: &Arc<Exec>, tid: usize, site: Site, ordering: Ordering) -> Option<u64> {
    let Site {
        loc,
        label,
        initial,
    } = site;
    exec.op(tid, |st, tid| {
        register_label(st, loc, label);
        st.mem.ensure_location(loc, initial);
        let total = st.mem.candidates(tid, loc);
        let n = if injectable(ordering) { total } else { 1 };
        // Decision choice 0 = the *latest* value (the SC-like default
        // schedule), later choices = progressively staler entries; a
        // SeqCst load has no choice and always reads the latest.
        let pick = st.decide(n);
        let (value, stale) = st.mem.load(tid, loc, ordering, total - 1 - pick);
        let name = st.label_of(loc);
        let suffix = if stale { " [stale]" } else { "" };
        (
            value,
            format!("load {name} ({ordering:?}) -> {value}{suffix}"),
        )
    })
}

fn model_store(
    exec: &Arc<Exec>,
    tid: usize,
    site: Site,
    ordering: Ordering,
    value: u64,
) -> Option<()> {
    let Site {
        loc,
        label,
        initial,
    } = site;
    exec.op(tid, |st, tid| {
        register_label(st, loc, label);
        st.mem.ensure_location(loc, initial);
        st.mem.store(tid, loc, ordering, value);
        let name = st.label_of(loc);
        ((), format!("store {name} = {value} ({ordering:?})"))
    })
}

fn model_xor(
    exec: &Arc<Exec>,
    tid: usize,
    site: Site,
    ordering: Ordering,
    operand: u64,
) -> Option<u64> {
    let Site {
        loc,
        label,
        initial,
    } = site;
    exec.op(tid, |st, tid| {
        register_label(st, loc, label);
        st.mem.ensure_location(loc, initial);
        let prev = st.mem.rmw(tid, loc, ordering, |prev| prev ^ operand);
        let name = st.label_of(loc);
        (
            prev,
            format!("fetch_xor {name}, {operand} ({ordering:?}) -> prev {prev}"),
        )
    })
}

fn model_compare_exchange(
    exec: &Arc<Exec>,
    tid: usize,
    site: Site,
    (current, new): (u64, u64),
    (success, failure): (Ordering, Ordering),
) -> Option<Result<u64, u64>> {
    let Site {
        loc,
        label,
        initial,
    } = site;
    exec.op(tid, |st, tid| {
        register_label(st, loc, label);
        st.mem.ensure_location(loc, initial);
        let result = st
            .mem
            .compare_exchange(tid, loc, current, new, success, failure);
        let name = st.label_of(loc);
        let desc = match result {
            Ok(_) => format!("cas {name}: {current} -> {new} ({success:?})"),
            Err(seen) => format!("cas {name}: {current} failed, saw {seen} ({failure:?})"),
        };
        (result, desc)
    })
}

/// Model-aware atomic; see the module docs.
#[derive(Debug)]
pub struct AtomicU64 {
    std: std::sync::atomic::AtomicU64,
    label: Option<&'static str>,
}

impl AtomicU64 {
    /// Creates an atomic with the given initial value.
    pub fn new(value: u64) -> Self {
        Self {
            std: std::sync::atomic::AtomicU64::new(value),
            label: None,
        }
    }

    /// Creates an atomic whose counterexample traces show `label`
    /// instead of a raw address.
    pub fn labelled(label: &'static str, value: u64) -> Self {
        Self {
            std: std::sync::atomic::AtomicU64::new(value),
            label: Some(label),
        }
    }

    fn site(&self) -> Site {
        Site {
            loc: loc_of(self),
            label: self.label,
            // Relaxed: reads the construction-time value to seed the
            // model's history; ordering is modeled in `mem`, not here.
            initial: self.std.load(Ordering::Relaxed),
        }
    }

    /// Atomic load; under the checker, weaker-than-`SeqCst` orderings
    /// branch over every observable stale value.
    pub fn load(&self, ordering: Ordering) -> u64 {
        match ctx().and_then(|(exec, tid)| model_load(&exec, tid, self.site(), ordering)) {
            Some(value) => value,
            None => self.std.load(ordering),
        }
    }

    /// Atomic store. The `std` mirror takes it too, modelled or not: it
    /// holds the value for reads after the run.
    pub fn store(&self, value: u64, ordering: Ordering) {
        if let Some((exec, tid)) = ctx() {
            let _ = model_store(&exec, tid, self.site(), ordering, value);
        }
        self.std.store(value, ordering);
    }

    /// Atomic bitwise XOR, returning the previous value. RMWs always read
    /// the latest entry (C11 modification-order head).
    pub fn fetch_xor(&self, value: u64, ordering: Ordering) -> u64 {
        match ctx().and_then(|(exec, tid)| model_xor(&exec, tid, self.site(), ordering, value)) {
            None => self.std.fetch_xor(value, ordering),
            Some(prev) => {
                // Relaxed: shadow mirror kept for reads that happen after
                // the run; all ordering lives in the model.
                self.std.store(prev ^ value, Ordering::Relaxed);
                prev
            }
        }
    }

    /// Atomic compare-and-exchange. Like every RMW it reads the latest
    /// entry; on a mismatch it stores nothing and acts as a load of that
    /// entry with the `failure` ordering.
    pub fn compare_exchange(
        &self,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        let modelled = ctx().and_then(|(exec, tid)| {
            model_compare_exchange(&exec, tid, self.site(), (current, new), (success, failure))
        });
        match modelled {
            None => self.std.compare_exchange(current, new, success, failure),
            Some(result) => {
                if result.is_ok() {
                    // Relaxed: shadow mirror, as in `fetch_xor`.
                    self.std.store(new, Ordering::Relaxed);
                }
                result
            }
        }
    }
}

/// Model-aware memory fence; under the checker, release fences snapshot
/// the thread view for later stores and acquire fences join the messages
/// of every load since the previous acquire fence.
pub fn fence(ordering: Ordering) {
    let modelled = ctx().and_then(|(exec, tid)| {
        exec.op(tid, |st, tid| {
            st.mem.fence(tid, ordering);
            ((), format!("fence({ordering:?})"))
        })
    });
    if modelled.is_none() {
        std::sync::atomic::fence(ordering);
    }
}

/// Handle to a model (or real) thread; [`JoinHandle::join`] establishes
/// the child-to-joiner happens-before edge.
pub struct JoinHandle {
    std: Option<std::thread::JoinHandle<()>>,
    model: Option<(Arc<Exec>, usize)>,
}

/// Model-aware `thread::spawn` (unit-returning: protocol models share
/// state through atomics, not return values).
pub fn spawn(f: impl FnOnce() + Send + 'static) -> JoinHandle {
    match ctx() {
        None => JoinHandle {
            std: Some(std::thread::spawn(f)),
            model: None,
        },
        Some((exec, tid)) => {
            let child = exec.spawn_thread(tid, Box::new(f));
            JoinHandle {
                std: None,
                model: Some((exec, child)),
            }
        }
    }
}

impl JoinHandle {
    /// Waits for the thread to finish (panics in real threads propagate as
    /// in `std`; in model threads they become counterexamples instead).
    pub fn join(self) {
        if let Some(h) = self.std {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
        if let Some((exec, child)) = self.model {
            let (_, tid) = match ctx() {
                Some(c) => c,
                None => return,
            };
            exec.join_thread(tid, child);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shims_behave_like_std_outside_the_checker() {
        let a = AtomicU64::new(5);
        assert_eq!(a.load(Ordering::Acquire), 5);
        a.store(0b1011, Ordering::Release);
        assert_eq!(a.fetch_xor(0b0110, Ordering::Relaxed), 0b1011);
        assert_eq!(a.load(Ordering::SeqCst), 0b1101);
        let (acq, rlx) = (Ordering::Acquire, Ordering::Relaxed);
        assert_eq!(a.compare_exchange(0b1101, 2, acq, rlx), Ok(0b1101));
        assert_eq!(a.compare_exchange(0b1101, 3, acq, rlx), Err(2));
        fence(Ordering::SeqCst);

        let t = spawn(|| {});
        t.join();
    }
}
