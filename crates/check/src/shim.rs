//! Model-aware drop-in replacements for the `std::sync` primitives the
//! protocol uses: `AtomicU64`, `AtomicU8` (load, store, `fetch_add`,
//! `fetch_and`, `fetch_or`, `fetch_xor`), `fence`, `Mutex`, `OnceLock`,
//! and `spawn`/`JoinHandle`.
//!
//! Outside a checker execution (no scheduler context on the current
//! thread) every shim delegates straight to its `std` counterpart, so
//! `buddy-core` compiled with `--features model-sync` still passes its
//! ordinary test suite. Inside [`crate::sched::explore`], every operation
//! becomes a scheduling point and atomics route through the weak-memory
//! model in the crate's private `mem` module: `Relaxed`/`Acquire` loads branch over every
//! observable stale value, release/acquire edges and fences propagate
//! views, and `Mutex` blocking is modelled (and deadlocks detected)
//! without ever OS-blocking while holding the scheduler baton.
//!
//! Atomics mirror every model store into their real `std` atomic so the
//! fallback value, the registered initial value, and the latest history
//! entry always agree. A thread unwinding out of an aborted execution
//! (through a `Drop` that closes a window or releases a guard) is not
//! scheduled again: its ops act on the `std` mirror alone.

use crate::sched::{ctx, Exec, ExecState};
use std::sync::atomic::Ordering;
use std::sync::{Arc, LockResult, PoisonError, TryLockError};

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

fn model_rmw(
    exec: &Arc<Exec>,
    tid: usize,
    site: Site,
    ordering: Ordering,
    opname: &str,
    operand: u64,
    f: impl FnOnce(u64) -> u64,
) -> Option<u64> {
    let Site {
        loc,
        label,
        initial,
    } = site;
    exec.op(tid, |st, tid| {
        register_label(st, loc, label);
        st.mem.ensure_location(loc, initial);
        let prev = st.mem.rmw(tid, loc, ordering, f);
        let name = st.label_of(loc);
        (
            prev,
            format!("{opname} {name}, {operand} ({ordering:?}) -> prev {prev}"),
        )
    })
}

macro_rules! atomic_shim {
    ($name:ident, $std:ty, $raw:ty) => {
        /// Model-aware atomic; see the module docs.
        #[derive(Debug)]
        pub struct $name {
            std: $std,
            label: Option<&'static str>,
        }

        impl $name {
            /// Creates an atomic with the given initial value.
            pub fn new(value: $raw) -> Self {
                Self {
                    std: <$std>::new(value),
                    label: None,
                }
            }

            /// Creates an atomic whose counterexample traces show `label`
            /// instead of a raw address.
            pub fn labelled(label: &'static str, value: $raw) -> Self {
                Self {
                    std: <$std>::new(value),
                    label: Some(label),
                }
            }

            fn initial(&self) -> u64 {
                // Relaxed: reads the construction-time value to seed the
                // model's history; ordering is modeled in `mem`, not here.
                self.std.load(Ordering::Relaxed) as u64
            }

            fn site(&self) -> Site {
                Site {
                    loc: loc_of(self),
                    label: self.label,
                    initial: self.initial(),
                }
            }

            /// Atomic load; under the checker, weaker-than-`SeqCst`
            /// orderings branch over every observable stale value.
            pub fn load(&self, ordering: Ordering) -> $raw {
                match ctx().and_then(|(exec, tid)| model_load(&exec, tid, self.site(), ordering)) {
                    Some(value) => value as $raw,
                    None => self.std.load(ordering),
                }
            }

            /// Atomic store. The `std` mirror takes it too, modelled or
            /// not: it holds the value for reads after the run.
            pub fn store(&self, value: $raw, ordering: Ordering) {
                if let Some((exec, tid)) = ctx() {
                    let _ = model_store(&exec, tid, self.site(), ordering, value as u64);
                }
                self.std.store(value, ordering);
            }

            /// Atomic add, returning the previous value. RMWs always read
            /// the latest entry (C11 modification-order head).
            pub fn fetch_add(&self, value: $raw, ordering: Ordering) -> $raw {
                self.rmw("fetch_add", value, ordering, |prev| {
                    (prev as $raw).wrapping_add(value) as u64
                })
            }

            /// Atomic bitwise AND, returning the previous value.
            pub fn fetch_and(&self, value: $raw, ordering: Ordering) -> $raw {
                self.rmw("fetch_and", value, ordering, |prev| {
                    ((prev as $raw) & value) as u64
                })
            }

            /// Atomic bitwise OR, returning the previous value.
            pub fn fetch_or(&self, value: $raw, ordering: Ordering) -> $raw {
                self.rmw("fetch_or", value, ordering, |prev| {
                    ((prev as $raw) | value) as u64
                })
            }

            /// Atomic bitwise XOR, returning the previous value.
            pub fn fetch_xor(&self, value: $raw, ordering: Ordering) -> $raw {
                self.rmw("fetch_xor", value, ordering, |prev| {
                    ((prev as $raw) ^ value) as u64
                })
            }

            fn rmw(
                &self,
                opname: &str,
                operand: $raw,
                ordering: Ordering,
                f: impl FnOnce(u64) -> u64,
            ) -> $raw {
                let modelled = ctx().and_then(|(exec, tid)| {
                    model_rmw(&exec, tid, self.site(), ordering, opname, operand as u64, f)
                });
                match modelled {
                    None => match opname {
                        "fetch_add" => self.std.fetch_add(operand, ordering),
                        "fetch_and" => self.std.fetch_and(operand, ordering),
                        "fetch_xor" => self.std.fetch_xor(operand, ordering),
                        _ => self.std.fetch_or(operand, ordering),
                    },
                    Some(prev) => {
                        let mirrored = f_apply(prev, operand as u64, opname) as $raw;
                        // Relaxed: shadow mirror kept for reads that happen
                        // after the run; all ordering lives in the model.
                        self.std.store(mirrored, Ordering::Relaxed);
                        prev as $raw
                    }
                }
            }
        }
    };
}

/// Recomputes an RMW result for the mirror store (the model consumed the
/// closure).
fn f_apply(prev: u64, operand: u64, opname: &str) -> u64 {
    match opname {
        "fetch_add" => prev.wrapping_add(operand),
        "fetch_and" => prev & operand,
        "fetch_xor" => prev ^ operand,
        _ => prev | operand,
    }
}

atomic_shim!(AtomicU64, std::sync::atomic::AtomicU64, u64);
atomic_shim!(AtomicU8, std::sync::atomic::AtomicU8, u8);

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

/// Model-aware mutex. Under the checker, contention blocks the model
/// thread (a schedule decision), never the OS thread holding the baton,
/// lock-order deadlocks become counterexamples, and each lock inherits
/// the view of the previous unlock (the happens-before edge a
/// lock-serialized writer relies on).
#[derive(Debug, Default)]
pub struct Mutex<T> {
    std: std::sync::Mutex<T>,
    label: Option<&'static str>,
}

/// Guard for [`Mutex`]; releases the model lock (waking blocked model
/// threads) when dropped.
#[derive(Debug)]
pub struct MutexGuard<'a, T> {
    std: Option<std::sync::MutexGuard<'a, T>>,
    model: Option<(Arc<Exec>, usize, usize)>,
}

impl<T> Mutex<T> {
    /// Creates a mutex guarding `value`.
    pub fn new(value: T) -> Self {
        Self {
            std: std::sync::Mutex::new(value),
            label: None,
        }
    }

    /// Creates a mutex whose counterexample traces show `label`.
    pub fn labelled(label: &'static str, value: T) -> Self {
        Self {
            std: std::sync::Mutex::new(value),
            label: Some(label),
        }
    }

    /// Acquires the mutex, with `std`-compatible poison semantics.
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        let loc = loc_of(self);
        // Takes the model lock; a skipped acquire (an unwinding thread in
        // an aborted execution) falls back to the std lock alone.
        let modelled = ctx().filter(|(exec, tid)| {
            if let Some(name) = self.label {
                let _ = exec.op(*tid, |st, _| {
                    st.set_label(loc, name);
                    ((), format!("lock {name}: request"))
                });
            }
            exec.lock_mutex(*tid, loc)
        });
        match modelled {
            None => match self.std.lock() {
                Ok(g) => Ok(MutexGuard {
                    std: Some(g),
                    model: None,
                }),
                Err(poisoned) => Err(PoisonError::new(MutexGuard {
                    std: Some(poisoned.into_inner()),
                    model: None,
                })),
            },
            Some((exec, tid)) => {
                // The model grants exclusivity, so the real lock is free;
                // WouldBlock cannot happen, but fall back defensively.
                let std_guard = match self.std.try_lock() {
                    Ok(g) => Ok(g),
                    Err(TryLockError::Poisoned(poisoned)) => Err(poisoned.into_inner()),
                    Err(TryLockError::WouldBlock) => match self.std.lock() {
                        Ok(g) => Ok(g),
                        Err(poisoned) => Err(poisoned.into_inner()),
                    },
                };
                let wrap = |g| MutexGuard {
                    std: Some(g),
                    model: Some((exec, tid, loc)),
                };
                match std_guard {
                    Ok(g) => Ok(wrap(g)),
                    Err(g) => Err(PoisonError::new(wrap(g))),
                }
            }
        }
    }

    /// Consumes the mutex, returning the value.
    pub fn into_inner(self) -> LockResult<T> {
        self.std.into_inner()
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        match &self.std {
            Some(g) => g,
            None => unreachable!("guard is only taken in Drop"),
        }
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match &mut self.std {
            Some(g) => g,
            None => unreachable!("guard is only taken in Drop"),
        }
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the real lock *before* the model unlock: the model
        // unlock may schedule a woken waiter, which will immediately
        // try_lock the real mutex.
        drop(self.std.take());
        if let Some((exec, tid, loc)) = self.model.take() {
            exec.unlock_mutex(tid, loc);
        }
    }
}

/// Passthrough `OnceLock`. Not instrumented: the protocol only writes
/// these under structural serialization (chunk-table growth behind a
/// mutex), so there is nothing for the scheduler to branch on.
#[derive(Debug, Default)]
pub struct OnceLock<T> {
    std: std::sync::OnceLock<T>,
}

impl<T> OnceLock<T> {
    /// Creates an empty cell.
    pub fn new() -> Self {
        Self {
            std: std::sync::OnceLock::new(),
        }
    }

    /// Returns the value, if set.
    pub fn get(&self) -> Option<&T> {
        self.std.get()
    }

    /// Sets the value if the cell was empty.
    pub fn set(&self, value: T) -> Result<(), T> {
        self.std.set(value)
    }

    /// Returns the value, initializing it with `f` if empty.
    pub fn get_or_init(&self, f: impl FnOnce() -> T) -> &T {
        self.std.get_or_init(f)
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
        assert_eq!(a.fetch_add(3, Ordering::SeqCst), 5);
        assert_eq!(a.load(Ordering::Acquire), 8);
        assert_eq!(a.fetch_and(0b1100, Ordering::Relaxed), 8);
        assert_eq!(a.fetch_or(0b0011, Ordering::Relaxed), 8);
        assert_eq!(a.load(Ordering::SeqCst), 0b1011);
        assert_eq!(a.fetch_xor(0b0110, Ordering::Relaxed), 0b1011);
        assert_eq!(a.load(Ordering::SeqCst), 0b1101);
        let b = AtomicU8::new(250);
        b.store(7, Ordering::Release);
        assert_eq!(b.load(Ordering::Relaxed), 7);
        fence(Ordering::SeqCst);

        let m = Mutex::new(41);
        {
            let mut g = match m.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            *g += 1;
        }
        assert_eq!(m.into_inner().unwrap_or_default(), 42);

        let once: OnceLock<u32> = OnceLock::new();
        assert_eq!(*once.get_or_init(|| 9), 9);
        assert_eq!(once.set(10), Err(10));

        let t = spawn(|| {});
        t.join();
    }
}
