//! A Wing & Gong–style linearizability checker for pool histories.
//!
//! The tests drive a multi-shard [`BuddyPool`] from several threads, record
//! each operation as an *invocation/response interval* on a shared logical
//! clock, and then ask this module whether the completed history has a
//! **legal sequential witness**: a total order of the operations that
//!
//! 1. respects real time — if operation `a` responded before operation `b`
//!    was invoked, `a` comes first — and
//! 2. produces exactly the recorded outcomes when replayed, one operation
//!    at a time, against the single-device oracle (a bare [`BuddyDevice`]
//!    with the shard's configuration).
//!
//! If every concurrent history the pool can produce has such a witness, the
//! pool is linearizable with respect to the sequential device semantics —
//! the formal version of the equivalence suite's "sharding and locking may
//! only distribute the semantics, never change them".
//!
//! Pure `std`: no vendored dependencies, no wall-clock time (intervals come
//! from an `AtomicU64` the test advances), fully deterministic for a given
//! history.
//!
//! Operations address allocations by a small *name* index rather than by
//! handle, because the concurrent run and the sequential replay mint
//! different [`AllocId`]s. A name is allocated **at most once per history**
//! (never recycled), so "the handle for name `n`" is unambiguous in every
//! replay order and a use-after-free deterministically reports
//! `BadAllocation` rather than resurrecting under a recycled name.

use buddy_core::AllocId;
use buddy_pool::{
    BuddyDevice, CodecKind, DeviceConfig, DeviceError, Entry, TargetRatio, ENTRY_BYTES,
};
use std::mem::discriminant;

/// One recorded call against the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `alloc(name, entries, target)`.
    Alloc {
        name: usize,
        entries: u64,
        target: TargetRatio,
    },
    /// `free(name)`.
    Free { name: usize },
    /// `write_entries(name, index, [fill])` — entries are single-byte fills so
    /// outcomes are compact and self-describing.
    Write { name: usize, index: u64, fill: u8 },
    /// `read_entries(name, index, [_])`.
    Read { name: usize, index: u64 },
    /// `retarget(name, target)`.
    Retarget { name: usize, target: TargetRatio },
}

/// What a call observably produced. Errors are compared by *kind* only:
/// capacity errors carry `available` payloads that legitimately depend on
/// the replay order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Success with no interesting payload (alloc/free/write).
    Ok,
    /// A successful read and the entry it returned.
    Value(Entry),
    /// A successful retarget (old target, new target).
    Retargeted(TargetRatio, TargetRatio),
    /// Any error, by variant.
    Failed(ErrorKind),
}

/// [`DeviceError`] stripped to its variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ErrorKind(std::mem::Discriminant<DeviceError>);

impl ErrorKind {
    /// The kind of `error`.
    pub fn of(error: &DeviceError) -> Self {
        Self(discriminant(error))
    }
}

/// One completed operation: a call, its outcome, and the half-open logical
/// time interval `[invoke, response]` it occupied.
#[derive(Debug, Clone, Copy)]
pub struct Operation {
    /// Logical timestamp taken immediately before the pool call.
    pub invoke: u64,
    /// Logical timestamp taken immediately after it returned.
    pub response: u64,
    /// The call.
    pub call: Call,
    /// What it returned.
    pub outcome: Outcome,
}

/// The sequential specification: a bare device plus the name → handle map.
///
/// [`BuddyDevice`] is not `Clone` (its storage is shared with lock-free
/// handles), so the oracle records every call it has applied and `clone`
/// replays them onto a fresh device — the model is deterministic, so the
/// replay reconstructs the exact state, and histories are small enough
/// that the extra work never matters.
#[derive(Debug)]
struct Oracle {
    config: DeviceConfig,
    codec: CodecKind,
    device: BuddyDevice,
    handles: Vec<Option<AllocId>>,
    applied: Vec<Call>,
}

impl Clone for Oracle {
    fn clone(&self) -> Self {
        let mut fresh = Oracle::new(self.config, self.codec, self.handles.len());
        for &call in &self.applied {
            fresh.apply(call);
        }
        fresh
    }
}

impl Oracle {
    fn new(config: DeviceConfig, codec: CodecKind, names: usize) -> Self {
        Self {
            config,
            codec,
            device: BuddyDevice::with_codec(config, codec),
            handles: vec![None; names],
            applied: Vec::new(),
        }
    }

    /// Applies one call to the sequential model and reports its outcome.
    /// A call on a never-allocated name behaves like a stale handle
    /// (`BadAllocation`), matching what the concurrent run observes once
    /// the allocation is freed.
    fn apply(&mut self, call: Call) -> Outcome {
        self.applied.push(call);
        let stale = Outcome::Failed(ErrorKind::of(&DeviceError::BadAllocation));
        match call {
            Call::Alloc {
                name,
                entries,
                target,
            } => match self.device.alloc(&format!("n{name}"), entries, target) {
                Ok(id) => {
                    self.handles[name] = Some(id);
                    Outcome::Ok
                }
                Err(e) => Outcome::Failed(ErrorKind::of(&e)),
            },
            Call::Free { name } => match self.handles[name].take() {
                Some(id) => match self.device.free(id) {
                    Ok(()) => Outcome::Ok,
                    Err(e) => Outcome::Failed(ErrorKind::of(&e)),
                },
                None => stale,
            },
            Call::Write { name, index, fill } => match self.handles[name] {
                Some(id) => match self.device.write_entries(id, index, &[[fill; ENTRY_BYTES]]) {
                    Ok(()) => Outcome::Ok,
                    Err(e) => Outcome::Failed(ErrorKind::of(&e)),
                },
                None => stale,
            },
            Call::Read { name, index } => match self.handles[name] {
                Some(id) => {
                    let mut out = [[0u8; ENTRY_BYTES]];
                    match self.device.read_entries(id, index, &mut out) {
                        Ok(()) => Outcome::Value(out[0]),
                        Err(e) => Outcome::Failed(ErrorKind::of(&e)),
                    }
                }
                None => stale,
            },
            Call::Retarget { name, target } => match self.handles[name] {
                Some(id) => match self.device.retarget(id, target) {
                    Ok(report) => Outcome::Retargeted(report.old_target, report.new_target),
                    Err(e) => Outcome::Failed(ErrorKind::of(&e)),
                },
                None => stale,
            },
        }
    }
}

/// Why a history was rejected.
#[derive(Debug)]
pub struct Counterexample {
    /// The longest legal prefix the search constructed before exhausting
    /// every real-time-consistent extension (operation indices into the
    /// history).
    pub longest_prefix: Vec<usize>,
}

/// Searches for a legal sequential witness of `history` against a fresh
/// single-device oracle. Returns the witness as history indices, or the
/// longest legal prefix found if no total order works.
///
/// Wing & Gong's algorithm: at each step every *minimal* operation (one
/// invoked before all other remaining operations' responses) is tried
/// against a clone of the model; mismatches prune that branch. Histories
/// here are small (tens of operations, ≤ thread-count concurrency), so the
/// exponential worst case never bites.
pub fn linearize(
    history: &[Operation],
    config: DeviceConfig,
    codec: CodecKind,
) -> Result<Vec<usize>, Counterexample> {
    let oracle = Oracle::new(config, codec, name_count(history));
    let mut taken = vec![false; history.len()];
    let mut witness = Vec::with_capacity(history.len());
    let mut best_prefix = Vec::new();
    if dfs(history, &oracle, &mut taken, &mut witness, &mut best_prefix) {
        Ok(witness)
    } else {
        Err(Counterexample {
            longest_prefix: best_prefix,
        })
    }
}

fn dfs(
    history: &[Operation],
    oracle: &Oracle,
    taken: &mut [bool],
    witness: &mut Vec<usize>,
    best_prefix: &mut Vec<usize>,
) -> bool {
    if witness.len() == history.len() {
        return true;
    }
    if witness.len() > best_prefix.len() {
        best_prefix.clear();
        best_prefix.extend_from_slice(witness);
    }
    // An operation is schedulable next only if no other remaining
    // operation finished before it began.
    let min_response = history
        .iter()
        .enumerate()
        .filter(|(i, _)| !taken[*i])
        .map(|(_, op)| op.response)
        .min()
        .unwrap_or(u64::MAX);
    for i in 0..history.len() {
        if taken[i] || history[i].invoke > min_response {
            continue;
        }
        let mut model = oracle.clone();
        if model.apply(history[i].call) != history[i].outcome {
            continue;
        }
        taken[i] = true;
        witness.push(i);
        if dfs(history, &model, taken, witness, best_prefix) {
            return true;
        }
        witness.pop();
        taken[i] = false;
    }
    false
}

/// Replays a witness order from scratch and asserts it is really legal —
/// total, real-time-consistent, and outcome-exact. The checker's own
/// self-check: the tests run every accepted witness through this so a DFS
/// bug cannot silently accept a bad history.
pub fn verify_witness(
    history: &[Operation],
    witness: &[usize],
    config: DeviceConfig,
    codec: CodecKind,
) {
    assert_eq!(
        witness.len(),
        history.len(),
        "witness must be a total order"
    );
    // Real-time order: if a responded before b was invoked, a must be
    // scheduled before b.
    for (pos, &later) in witness.iter().enumerate() {
        for &earlier in &witness[..pos] {
            assert!(
                history[later].response > history[earlier].invoke,
                "witness schedules operation {later} after {earlier}, but {later} \
                 responded (t={}) before {earlier} was invoked (t={})",
                history[later].response,
                history[earlier].invoke
            );
        }
    }
    let mut oracle = Oracle::new(config, codec, name_count(history));
    for &i in witness {
        assert_eq!(
            oracle.apply(history[i].call),
            history[i].outcome,
            "witness replay diverged at history index {i}"
        );
    }
}

/// One past the highest name an operation in `history` addresses.
fn name_count(history: &[Operation]) -> usize {
    1 + history
        .iter()
        .map(|op| match op.call {
            Call::Alloc { name, .. }
            | Call::Free { name }
            | Call::Write { name, .. }
            | Call::Read { name, .. }
            | Call::Retarget { name, .. } => name,
        })
        .max()
        .unwrap_or(0)
}
