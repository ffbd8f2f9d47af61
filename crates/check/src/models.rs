//! Protocol models: the `core::shared` seqlock/epoch protocol distilled
//! to its synchronization skeleton, one model per invariant.
//!
//! Each model is a closure for [`crate::explore`] that builds its state,
//! runs model threads against each other, and asserts the protocol
//! invariant whenever the reader's validation accepts a snapshot (the
//! `edge_unit` model has writers only and asserts on the joined state). Each
//! model also takes a *mutation*: a seeded protocol bug (dropped
//! tombstone, skipped odd-seq bump, downgraded `Release`, removed fence,
//! writers opening with a plain load and store instead of a CAS) that the
//! checker must turn into a counterexample schedule — the
//! integration suite (`tests/protocol.rs`) fails if any mutation goes
//! undetected, which is how the checker itself is kept honest.
//!
//! The orderings in the unmutated models are exactly the ones
//! `core::sync::SeqWord`'s `open`/`release`/`acquire`/`revalidate`
//! methods implement — every writer opens its window with one CAS
//! (`open`) and closes it with a load and a `Release` store (`bump`) —
//! and `shared.rs` cites these models as evidence for its fence choices.

use crate::shim::{fence, spawn, AtomicU64};
use std::sync::atomic::Ordering::{self, Acquire, Relaxed, Release};
use std::sync::Arc;

/// Retry budget of a reader's validation and of a writer's open: enough
/// to ride out the other side's epochs; on exhaustion the thread gives up
/// without asserting or writing (a valid outcome — liveness is out of
/// scope, see DESIGN.md §13).
const RETRIES: usize = 3;

/// One sequence bump the way `core::sync::SeqWord::release` closes a window: a
/// `Relaxed` load of the current value and a store of the next, with
/// `ordering` on the store. Sound only for the window's holder
/// ([`WritersMutation::UnserializedWriters`] opens with it, too, and is
/// caught).
fn bump(seq: &AtomicU64, ordering: Ordering) {
    let current = seq.load(Relaxed);
    seq.store(current + 1, ordering);
}

/// A writer's open the way `write_batch` and `republish` take it: an
/// `Acquire` load until the sequence is even (`SlotCell::begin_read`),
/// then `core::sync::SeqWord::open` — one CAS from that even value to odd,
/// `Acquire` on success — and, when `fenced`, its `Release` fence. A
/// failed CAS starts again at the load. False when [`RETRIES`] attempts
/// all found the window taken.
fn open(seq: &AtomicU64, fenced: bool) -> bool {
    for _ in 0..RETRIES {
        let even = seq.load(Acquire);
        if even % 2 == 1 {
            continue;
        }
        if seq
            .compare_exchange(even, even + 1, Acquire, Relaxed)
            .is_ok()
        {
            if fenced {
                fence(Release);
            }
            return true;
        }
    }
    false
}

/// The reader half every seqlock model shares (`SlotCell::begin_read` /
/// `load_raw` / `still`): up to [`RETRIES`] attempts at an even
/// `seq`, then `load` (whose `Relaxed` loads the acquire fence upgrades,
/// unless `fenced` is false), then re-validation; `check` sees a snapshot
/// only if the sequence did not move.
fn read_validated<T>(seq: &AtomicU64, fenced: bool, load: impl Fn() -> T, check: impl Fn(u64, T)) {
    for _ in 0..RETRIES {
        let s1 = seq.load(Acquire);
        if s1 % 2 == 1 {
            continue;
        }
        let snap = load();
        if fenced {
            fence(Acquire);
        }
        let s2 = seq.load(Relaxed);
        if s1 == s2 {
            check(s1, snap);
            break;
        }
    }
}

/// Seeded bugs for [`seqlock`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqlockMutation {
    /// The correct protocol.
    None,
    /// Writer does not open the window (no CAS to odd) before writing —
    /// readers cannot tell a write is in flight.
    SkipOddBump,
    /// Writer's closing `seq` bump is `Relaxed` instead of `Release` —
    /// a reader that validates against the closed `seq` no longer
    /// inherits the data written inside the window.
    CloseRelaxed,
    /// Reader omits the acquire fence between its data loads and its
    /// validating `seq` re-load — stale data can slip past validation.
    NoReaderFence,
    /// Writer omits the release fence after the opening CAS — the data
    /// stores no longer carry the open window, so a reader can observe
    /// them and still validate against the old even sequence.
    NoWriterFence,
}

/// Seqlock read vs. batched write (`SlotCell::begin_read`/`still` vs.
/// `SeqWindow`): a validated snapshot must never span two write epochs.
///
/// The writer publishes two epochs; each stores the epoch number to both
/// data words inside a seq window. A reader whose `s1 == s2` (both even)
/// validation passes must see `a == b`.
pub fn seqlock(mutation: SeqlockMutation) -> impl Fn() + Send + Sync + Clone + 'static {
    move || {
        let seq = Arc::new(AtomicU64::labelled("seq", 0));
        let a = Arc::new(AtomicU64::labelled("a", 0));
        let b = Arc::new(AtomicU64::labelled("b", 0));

        let (wseq, wa, wb) = (Arc::clone(&seq), Arc::clone(&a), Arc::clone(&b));
        let writer = spawn(move || {
            for epoch in 1..=2u64 {
                if mutation == SeqlockMutation::SkipOddBump {
                    fence(Release);
                } else {
                    // The only writer: its open never fails.
                    open(&wseq, mutation != SeqlockMutation::NoWriterFence);
                }
                wa.store(epoch, Relaxed);
                wb.store(epoch, Relaxed);
                let close = if mutation == SeqlockMutation::CloseRelaxed {
                    Relaxed
                } else {
                    Release
                };
                bump(&wseq, close);
            }
        });

        read_validated(
            &seq,
            mutation != SeqlockMutation::NoReaderFence,
            || (a.load(Relaxed), b.load(Relaxed)),
            |s1, (va, vb)| assert_eq!(va, vb, "torn descriptor: a={va} b={vb} under seq {s1}"),
        );
        writer.join();
    }
}

/// Seeded bugs for [`seqlock_writers`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritersMutation {
    /// The correct protocol.
    None,
    /// The writers open with a plain `Relaxed` load and store of the
    /// sequence instead of a CAS — two such bumps interleave, so one
    /// writer's close can make the other's open window look even (or a
    /// bump is lost) while its stores are in flight.
    UnserializedWriters,
}

/// Two writers vs. a reader on one slot (`write_batch` and `republish`
/// both open their `SeqWindow` by CAS): the CAS is the slot's writer
/// lock — only one writer turns a given even value odd, nobody opens an
/// odd one — and its `Acquire` on the previous close makes the next
/// writer's `Relaxed` close load see the word's latest value.
///
/// Writer `e` (1 or 2) stores `e` to both data words inside its window. A
/// reader whose validation passes must see `a == b`.
pub fn seqlock_writers(mutation: WritersMutation) -> impl Fn() + Send + Sync + Clone + 'static {
    move || {
        let seq = Arc::new(AtomicU64::labelled("seq", 0));
        let a = Arc::new(AtomicU64::labelled("a", 0));
        let b = Arc::new(AtomicU64::labelled("b", 0));

        let writers = [1u64, 2].map(|epoch| {
            let (wseq, wa, wb) = (Arc::clone(&seq), Arc::clone(&a), Arc::clone(&b));
            spawn(move || {
                if mutation == WritersMutation::UnserializedWriters {
                    bump(&wseq, Relaxed);
                    fence(Release);
                } else if !open(&wseq, true) {
                    return;
                }
                wa.store(epoch, Relaxed);
                wb.store(epoch, Relaxed);
                bump(&wseq, Release);
            })
        });

        read_validated(
            &seq,
            true,
            || (a.load(Relaxed), b.load(Relaxed)),
            |s1, (va, vb)| assert_eq!(va, vb, "torn descriptor: a={va} b={vb} under seq {s1}"),
        );
        for writer in writers {
            writer.join();
        }
    }
}

/// Seeded bugs for [`tombstone`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TombstoneMutation {
    /// The correct protocol.
    None,
    /// Free recycles the bytes without first publishing the dead
    /// generation — a stale handle can read recycled bytes while the
    /// generation still looks live.
    DropTombstone,
}

/// Free-tombstone vs. stale reader (`SlotTable` generation protocol): a
/// validated read that sees a live generation must never see recycled
/// bytes.
pub fn tombstone(mutation: TombstoneMutation) -> impl Fn() + Send + Sync + Clone + 'static {
    const LIVE: u64 = 2;
    const DEAD: u64 = 1;
    const PAYLOAD: u64 = 7;
    const RECYCLED: u64 = 99;
    move || {
        let seq = Arc::new(AtomicU64::labelled("seq", 0));
        let gen = Arc::new(AtomicU64::labelled("gen", LIVE));
        let data = Arc::new(AtomicU64::labelled("data", PAYLOAD));

        let (fseq, fgen, fdata) = (Arc::clone(&seq), Arc::clone(&gen), Arc::clone(&data));
        let freer = spawn(move || {
            open(&fseq, true);
            if mutation != TombstoneMutation::DropTombstone {
                fgen.store(DEAD, Relaxed);
            }
            fdata.store(RECYCLED, Relaxed);
            bump(&fseq, Release);
        });

        // Reader holding a handle minted while the slot was live.
        read_validated(
            &seq,
            true,
            || (gen.load(Relaxed), data.load(Relaxed)),
            |_, (g, v)| {
                if g == LIVE {
                    assert_eq!(v, PAYLOAD, "recycled bytes ({v}) under live generation");
                }
            },
        );
        freer.join();
    }
}

/// Seeded bugs for [`retarget`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetargetMutation {
    /// The correct protocol.
    None,
    /// Republish closes the seq window right after the target switch and
    /// rewrites the bases outside it — readers can observe the new target
    /// with the old bases.
    EarlyClose,
}

/// Retarget republish vs. concurrent read (`SharedState::republish`): a
/// validated read sees the old tier triple or the new one, never a blend
/// of target and bases.
pub fn retarget(mutation: RetargetMutation) -> impl Fn() + Send + Sync + Clone + 'static {
    const OLD: (u64, u64, u64) = (0, 10, 20);
    const NEW: (u64, u64, u64) = (1, 11, 21);
    move || {
        let seq = Arc::new(AtomicU64::labelled("seq", 0));
        let target = Arc::new(AtomicU64::labelled("target", OLD.0));
        let base_a = Arc::new(AtomicU64::labelled("base_a", OLD.1));
        let base_b = Arc::new(AtomicU64::labelled("base_b", OLD.2));

        let (wseq, wt, wa, wb) = (
            Arc::clone(&seq),
            Arc::clone(&target),
            Arc::clone(&base_a),
            Arc::clone(&base_b),
        );
        let writer = spawn(move || {
            open(&wseq, true);
            wt.store(NEW.0, Relaxed);
            if mutation == RetargetMutation::EarlyClose {
                bump(&wseq, Release);
                wa.store(NEW.1, Relaxed);
                wb.store(NEW.2, Relaxed);
            } else {
                wa.store(NEW.1, Relaxed);
                wb.store(NEW.2, Relaxed);
                bump(&wseq, Release);
            }
        });

        read_validated(
            &seq,
            true,
            || {
                (
                    target.load(Relaxed),
                    base_a.load(Relaxed),
                    base_b.load(Relaxed),
                )
            },
            |_, snap| {
                assert!(
                    snap == OLD || snap == NEW,
                    "blended republish: observed {snap:?}, expected {OLD:?} or {NEW:?}"
                );
            },
        );
        writer.join();
    }
}

/// Seeded bugs for [`edge_unit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeUnitMutation {
    /// The correct protocol.
    None,
    /// The owner of the first nibble writes the shared edge unit the way
    /// it writes an interior one — load, merge, plain store — so a
    /// neighbour's XOR landing in between is overwritten.
    PlainEdgeStore,
}

/// One edge-unit write the way `AtomicNibbles::write_units` makes it: a
/// `Relaxed` load of the unit, then a single `fetch_xor` flipping the
/// owner's nibbles (`mask`) from what they hold to `state` — or nothing
/// at all when they already hold it.
fn edge_write(unit: &AtomicU64, mask: u64, state: u64) {
    let flip = (unit.load(Relaxed) ^ state) & mask;
    if flip != 0 {
        unit.fetch_xor(flip, Relaxed);
    }
}

/// Shared metadata edge unit vs. its neighbouring owners
/// (`AtomicNibbles::write_units`): two allocations whose metadata ranges
/// meet inside one storage unit each store their own nibble inside their
/// own slot's window, while `alloc` zeroes the abutting recycled range in the
/// same unit. Every nibble must end as its owner's last write.
///
/// Nibble 0 belongs to allocation A (the main thread), nibble 1 to
/// allocation B, nibbles 2.. to the range being cleared; all start out
/// holding stale states. B then rewrites its nibble unchanged, which takes
/// the skip path (a load, no RMW). Each owner's `Relaxed` load of its own
/// nibbles is current whatever the neighbours did, and a masked XOR never
/// alters a bit outside its mask, so the three owners commute.
pub fn edge_unit(mutation: EdgeUnitMutation) -> impl Fn() + Send + Sync + Clone + 'static {
    const STALE: u64 = 0x6666_6666_6666_6611;
    const A_MASK: u64 = 0x0F;
    const A_STATE: u64 = 0x03;
    const B_MASK: u64 = 0xF0;
    const B_STATE: u64 = 0x50;
    move || {
        let unit = Arc::new(AtomicU64::labelled("edge_unit", STALE));

        let b_unit = Arc::clone(&unit);
        let writer_b = spawn(move || {
            edge_write(&b_unit, B_MASK, B_STATE);
            edge_write(&b_unit, B_MASK, B_STATE);
        });
        let c_unit = Arc::clone(&unit);
        let clearer = spawn(move || {
            edge_write(&c_unit, !(A_MASK | B_MASK), 0);
        });

        if mutation == EdgeUnitMutation::PlainEdgeStore {
            let seen = unit.load(Relaxed);
            unit.store((seen & !A_MASK) | A_STATE, Relaxed);
        } else {
            edge_write(&unit, A_MASK, A_STATE);
        }

        writer_b.join();
        clearer.join();
        let end = unit.load(Relaxed);
        assert_eq!(
            end,
            A_STATE | B_STATE,
            "lost update in a shared edge unit: {end:#x}"
        );
    }
}
