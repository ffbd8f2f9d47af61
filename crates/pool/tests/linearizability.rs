//! Linearizability of the sharded pool against the single-device
//! sequential specification.
//!
//! Four client threads hammer one [`BuddyPool`] with allocs, frees,
//! reads, writes and live migrations; every call is recorded as an
//! invocation/response interval on a shared logical clock. The
//! [`checker`] module then searches for a legal sequential witness —
//! a total order respecting real time whose replay against a bare
//! [`BuddyDevice`] reproduces every recorded outcome. Histories are
//! generated from proptest-seeded scripts, so a failing case shrinks and
//! replays deterministically.
//!
//! The suite also pins the checker's own teeth with hand-built histories:
//! overlapping free/read intervals must be accepted in either commit
//! order, and a *stale read* — a read that returns data strictly after the
//! free responded — must be rejected.
//!
//! CI runs this target with `RUST_TEST_THREADS=1` so the recorded
//! intervals reflect genuine pool contention rather than test-runner
//! scheduling.

#[path = "linearizability/checker.rs"]
mod checker;

use checker::{linearize, verify_witness, Call, ErrorKind, Operation, Outcome};

use buddy_pool::{
    BuddyPool, CodecKind, DeviceConfig, DeviceError, PoolAllocId, PoolConfig, TargetRatio,
    ENTRY_BYTES,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

const SHARD_CONFIG: DeviceConfig = DeviceConfig {
    device_capacity: 1 << 16,
    carve_out_factor: 3,
};
const THREADS: usize = 4;
/// Names 0..SHARED are allocated up front and contended by every thread;
/// name `SHARED + t` is thread `t`'s private allocation. A name is never
/// allocated twice in one history (the checker's addressing contract).
const SHARED: usize = 3;
const ENTRIES_PER_ALLOC: u64 = 8;

/// One scripted step: `(op selector, name selector, fill, misc)`.
type Step = (u8, u8, u8, u64);

/// Records one pool call as an interval on the logical clock.
fn record(clock: &AtomicU64, call: Call, run: impl FnOnce() -> Outcome) -> Operation {
    let invoke = clock.fetch_add(1, Ordering::SeqCst);
    let outcome = run();
    let response = clock.fetch_add(1, Ordering::SeqCst);
    Operation {
        invoke,
        response,
        call,
        outcome,
    }
}

fn fail(e: &DeviceError) -> Outcome {
    Outcome::Failed(ErrorKind::of(e))
}

fn ok_or_fail<T>(r: Result<T, DeviceError>) -> Outcome {
    match r {
        Ok(_) => Outcome::Ok,
        Err(e) => fail(&e),
    }
}

/// Runs the scripted threads against a real pool and returns the merged
/// completed history.
fn run_history(scripts: &[Vec<Step>; THREADS], shards: usize) -> Vec<Operation> {
    let pool = BuddyPool::new(PoolConfig {
        shards,
        shard_config: SHARD_CONFIG,
        codec: CodecKind::Bpc,
    });
    let clock = AtomicU64::new(0);
    let registry: Vec<OnceLock<PoolAllocId>> =
        (0..SHARED + THREADS).map(|_| OnceLock::new()).collect();

    // Shared allocations come first, sequentially, so every thread starts
    // with a live handle for each contended name.
    let mut history: Vec<Operation> = (0..SHARED)
        .map(|name| {
            record(
                &clock,
                Call::Alloc {
                    name,
                    entries: ENTRIES_PER_ALLOC,
                    target: TargetRatio::R2,
                },
                || {
                    ok_or_fail(
                        pool.alloc(&format!("n{name}"), ENTRIES_PER_ALLOC, TargetRatio::R2)
                            .map(|id| {
                                registry[name].set(id).expect("names allocate once");
                            }),
                    )
                },
            )
        })
        .collect();

    let per_thread: Vec<Vec<Operation>> = std::thread::scope(|scope| {
        let workers: Vec<_> = scripts
            .iter()
            .enumerate()
            .map(|(t, script)| {
                let pool = &pool;
                let clock = &clock;
                let registry = &registry;
                scope.spawn(move || {
                    let own = SHARED + t;
                    let mut ops = Vec::new();
                    for &(op, name_sel, fill, misc) in script {
                        let name = (name_sel as usize) % SHARED;
                        let index = misc % (ENTRIES_PER_ALLOC + 2);
                        let target = TargetRatio::DESCENDING[(misc % 5) as usize];
                        // Handles are published through the registry after
                        // the alloc *responds*, so every use is invoked
                        // after the alloc in real time.
                        let shared_id = registry[name].get().copied();
                        let own_id = registry[own].get().copied();
                        let recorded = match op % 6 {
                            0 => shared_id.map(|id| {
                                record(clock, Call::Write { name, index, fill }, || {
                                    ok_or_fail(pool.write_entries(
                                        id,
                                        index,
                                        &[[fill; ENTRY_BYTES]],
                                    ))
                                })
                            }),
                            1 => shared_id.map(|id| {
                                record(clock, Call::Read { name, index }, || {
                                    let mut out = [[0u8; ENTRY_BYTES]];
                                    match pool.read_entries(id, index, &mut out) {
                                        Ok(()) => Outcome::Value(out[0]),
                                        Err(e) => fail(&e),
                                    }
                                })
                            }),
                            2 => shared_id.map(|id| {
                                record(clock, Call::Free { name }, || ok_or_fail(pool.free(id)))
                            }),
                            3 => shared_id.map(|id| {
                                record(clock, Call::Retarget { name, target }, || {
                                    match pool.retarget(id, target) {
                                        Ok(r) => Outcome::Retargeted(r.old_target, r.new_target),
                                        Err(e) => fail(&e),
                                    }
                                })
                            }),
                            4 if own_id.is_none() => Some(record(
                                clock,
                                Call::Alloc {
                                    name: own,
                                    entries: ENTRIES_PER_ALLOC,
                                    target: TargetRatio::R4,
                                },
                                || {
                                    ok_or_fail(
                                        pool.alloc(
                                            &format!("n{own}"),
                                            ENTRIES_PER_ALLOC,
                                            TargetRatio::R4,
                                        )
                                        .map(|id| {
                                            registry[own].set(id).expect("names allocate once");
                                        }),
                                    )
                                },
                            )),
                            _ => own_id.map(|id| {
                                record(clock, Call::Read { name: own, index }, || {
                                    let mut out = [[0u8; ENTRY_BYTES]];
                                    match pool.read_entries(id, index, &mut out) {
                                        Ok(()) => Outcome::Value(out[0]),
                                        Err(e) => fail(&e),
                                    }
                                })
                            }),
                        };
                        ops.extend(recorded);
                    }
                    ops
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("scripted worker panicked"))
            .collect()
    });
    history.extend(per_thread.into_iter().flatten());
    history
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every history a real multi-shard pool produces under contended
    /// reads, writes, frees and migrations has a legal sequential witness,
    /// and the witness survives an independent from-scratch replay.
    #[test]
    fn four_thread_pool_histories_linearize(
        scripts in proptest::collection::vec(
            proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u64>()), 1..7),
            4..5,
        ),
        shards in 1usize..4,
    ) {
        let scripts: [Vec<Step>; THREADS] =
            scripts.try_into().expect("strategy draws exactly 4 scripts");
        let history = run_history(&scripts, shards);
        match linearize(&history, SHARD_CONFIG, CodecKind::Bpc) {
            Ok(witness) => verify_witness(&history, &witness, SHARD_CONFIG, CodecKind::Bpc),
            Err(counterexample) => panic!(
                "no sequential witness for a {}-op history; longest legal prefix \
                 has {} ops: {:?}",
                history.len(),
                counterexample.longest_prefix.len(),
                history
            ),
        }
    }
}

/// Builds the shared fixture prefix: alloc name 0 (8 entries, R2) and fill
/// entry 0 with `7`, sequentially.
fn fixture_prefix() -> Vec<Operation> {
    vec![
        Operation {
            invoke: 0,
            response: 1,
            call: Call::Alloc {
                name: 0,
                entries: ENTRIES_PER_ALLOC,
                target: TargetRatio::R2,
            },
            outcome: Outcome::Ok,
        },
        Operation {
            invoke: 2,
            response: 3,
            call: Call::Write {
                name: 0,
                index: 0,
                fill: 7,
            },
            outcome: Outcome::Ok,
        },
    ]
}

/// A free and a read whose intervals overlap may commit in either order:
/// the read may return the data (linearized before the free) or a stale
/// handle error (linearized after). Both histories must be accepted.
#[test]
fn overlapping_free_and_read_linearize_in_either_order() {
    for (read_outcome, description) in [
        (Outcome::Value([7u8; ENTRY_BYTES]), "read commits first"),
        (
            Outcome::Failed(ErrorKind::of(&DeviceError::BadAllocation)),
            "free commits first",
        ),
    ] {
        let mut history = fixture_prefix();
        history.push(Operation {
            invoke: 4,
            response: 7,
            call: Call::Free { name: 0 },
            outcome: Outcome::Ok,
        });
        history.push(Operation {
            invoke: 5,
            response: 6,
            call: Call::Read { name: 0, index: 0 },
            outcome: read_outcome,
        });
        let witness = linearize(&history, SHARD_CONFIG, CodecKind::Bpc)
            .unwrap_or_else(|_| panic!("{description}: overlapping ops must linearize"));
        verify_witness(&history, &witness, SHARD_CONFIG, CodecKind::Bpc);
    }
}

/// The seeded non-linearizable fixture: the read is invoked strictly
/// *after* the free responded, yet still returns the freed allocation's
/// data. No sequential order can explain that — real time forces the free
/// first, and the specification then demands `BadAllocation`. The checker
/// must reject it.
#[test]
fn stale_read_after_free_is_rejected() {
    let mut history = fixture_prefix();
    history.push(Operation {
        invoke: 4,
        response: 5,
        call: Call::Free { name: 0 },
        outcome: Outcome::Ok,
    });
    history.push(Operation {
        invoke: 6,
        response: 7,
        call: Call::Read { name: 0, index: 0 },
        outcome: Outcome::Value([7u8; ENTRY_BYTES]),
    });
    let counterexample = linearize(&history, SHARD_CONFIG, CodecKind::Bpc)
        .expect_err("a stale read past a completed free must not linearize");
    // Everything up to the impossible read is explainable.
    assert_eq!(counterexample.longest_prefix.len(), history.len() - 1);
}

/// A double free must linearize with exactly one `Ok`: the loser observes
/// the bumped generation. A history claiming both frees succeeded is
/// rejected.
#[test]
fn double_free_linearizes_only_once() {
    let bad_alloc = Outcome::Failed(ErrorKind::of(&DeviceError::BadAllocation));
    for (second_outcome, accepted) in [(bad_alloc, true), (Outcome::Ok, false)] {
        let mut history = fixture_prefix();
        history.push(Operation {
            invoke: 4,
            response: 6,
            call: Call::Free { name: 0 },
            outcome: Outcome::Ok,
        });
        history.push(Operation {
            invoke: 5,
            response: 7,
            call: Call::Free { name: 0 },
            outcome: second_outcome,
        });
        let result = linearize(&history, SHARD_CONFIG, CodecKind::Bpc);
        match (accepted, result) {
            (true, Ok(witness)) => {
                verify_witness(&history, &witness, SHARD_CONFIG, CodecKind::Bpc);
            }
            (true, Err(_)) => panic!("one-Ok double free must linearize"),
            (false, Ok(witness)) => {
                panic!("two-Ok double free wrongly accepted via {witness:?}")
            }
            (false, Err(_)) => {}
        }
    }
}
