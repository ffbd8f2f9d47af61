//! The seqlock sequence word: the four ordering roles of the
//! `core::shared` seqlock protocol, each named once, as the only methods
//! of [`SeqWord`].
//!
//! The sequence word is also its slot's only writer lock:
//! [`SeqWord::open`] takes it with one CAS from an even value to odd, and
//! [`SeqWord::release`] hands it back by storing the next even value.
//!
//! The atomic inside a [`SeqWord`] is private to this module, so
//! `shared.rs` cannot reach a sequence word except through these four
//! methods: a raw ordering on a `seq` word does not compile. The
//! orderings are the canonical seqlock set (Boehm, *Can seqlocks get
//! along with programming language memory models?*, MSPC '12), and each
//! is backed by model-checker evidence in `crates/check/tests/protocol.rs`:
//! the unmutated `seqlock` model passes exhaustively, and downgrading or
//! removing any one method's ordering is a seeded mutation with a
//! counterexample schedule. The models are distilled from `core::shared`,
//! not run over it; DESIGN.md §13 maps each back to the code.
#![expect(
    clippy::disallowed_types,
    reason = "the seqlock word is protocol state, not a metric"
)]

use std::sync::atomic::{fence, AtomicU64, Ordering};

/// One slot's seqlock sequence word: even while the slot is stable, odd
/// while a writer holds its window open.
#[derive(Default)]
pub(crate) struct SeqWord(AtomicU64);

impl SeqWord {
    /// Reader entry: loads the sequence word with `Acquire`.
    ///
    /// Pairs with [`release`](Self::release): a reader that observes a
    /// closed (even) sequence inherits every store made inside that
    /// window, so the `Relaxed` field loads that follow cannot see values
    /// older than the observed epoch. Model evidence:
    /// `SeqlockMutation::CloseRelaxed` (breaking the pairing) yields a
    /// counterexample.
    #[inline]
    pub(crate) fn acquire(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }

    /// Reader re-validation: an `Acquire` fence, then a `Relaxed` re-load
    /// of the sequence word.
    ///
    /// The fence upgrades the `Relaxed` data loads made since
    /// [`acquire`](Self::acquire): any data value written inside a later
    /// window drags the writer's odd sequence into view, so the re-load
    /// cannot confirm the old sequence and the reader retries. Model
    /// evidence: `SeqlockMutation::NoReaderFence` (dropping the fence) lets
    /// stale data slip past validation.
    #[inline]
    pub(crate) fn revalidate(&self) -> u64 {
        fence(Ordering::Acquire);
        // Relaxed: the fence above supplies the ordering; see the doc comment.
        self.0.load(Ordering::Relaxed)
    }

    /// Writer open: one `compare_exchange` of the sequence word from
    /// `even` to `even + 1` (odd), `Acquire` on success, then a `Release`
    /// fence. True when this caller opened the window; false, with the
    /// word untouched, when `even` is no longer current.
    ///
    /// The CAS is the slot's writer lock: only the caller whose `even` is
    /// the word's latest value turns it odd, and nobody else can open it
    /// again until [`release`](Self::release) closes it. Its `Acquire`
    /// inherits everything the previous window stored, so the new
    /// writer's `Relaxed` loads of the data it owns are current. The fence
    /// attaches the odd sequence to every store made inside the window,
    /// which is what forces a concurrent reader's re-validation to fail if
    /// it saw any of them. Model evidence: `SeqlockMutation::SkipOddBump`
    /// and `SeqlockMutation::NoWriterFence` each yield a counterexample,
    /// and `WritersMutation::UnserializedWriters` (a plain load-and-store
    /// bump) shows the open must be one RMW.
    #[inline]
    pub(crate) fn open(&self, even: u64) -> bool {
        // Relaxed: the failure ordering — a failed open stores nothing and
        // publishes nothing; the caller re-reads through `acquire`.
        let on_failure = Ordering::Relaxed;
        let opened = self
            .0
            .compare_exchange(even, even.wrapping_add(1), Ordering::Acquire, on_failure)
            .is_ok();
        if opened {
            fence(Ordering::Release);
        }
        opened
    }

    /// Writer close: stores the sequence plus one (even again) with
    /// `Release`.
    ///
    /// Publishes everything stored inside the window to the next
    /// [`acquire`](Self::acquire) that observes the new even value. A load
    /// and a store, not an RMW: no [`open`](Self::open) succeeds on an odd
    /// word, so the caller is the word's only writer and its own `Relaxed`
    /// load is current. Model evidence: `SeqlockMutation::CloseRelaxed`
    /// yields a counterexample.
    #[inline]
    pub(crate) fn release(&self) {
        // Relaxed: the caller's own open is the latest store to the word.
        let odd = self.0.load(Ordering::Relaxed);
        self.0.store(odd.wrapping_add(1), Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_helpers_implement_the_odd_even_discipline() {
        let seq = SeqWord::default();
        assert_eq!(seq.acquire(), 0);
        assert!(seq.open(0));
        assert_eq!(seq.revalidate(), 1, "open window is odd");
        assert!(!seq.open(0), "an open window cannot be opened again");
        assert_eq!(seq.revalidate(), 1, "a failed open stores nothing");
        seq.release();
        assert_eq!(seq.acquire(), 2, "closed window is even again");
        assert_eq!(seq.revalidate(), 2);
    }
}
