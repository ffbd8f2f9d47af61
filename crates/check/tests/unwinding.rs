//! A thread the step budget prunes unwinds through its destructors, and a
//! destructor may touch a shim atomic — `core::shared::SeqWindow` closes
//! its window that way. The scheduler must not raise a second panic inside
//! that `Drop`: it would abort the whole test binary instead of pruning
//! one path.

use buddy_check::shim::{self, AtomicU64};
use buddy_check::{explore, Config, Outcome};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Stores an even sequence on drop, the shape of a closing `SeqWindow`.
struct Window<'a>(&'a AtomicU64);

impl Drop for Window<'_> {
    fn drop(&mut self) {
        self.0.store(2, Ordering::Release);
    }
}

#[test]
fn a_pruned_thread_unwinds_through_a_drop_that_stores_to_a_shim_atomic() {
    let config = Config {
        max_steps: 6,
        ..Config::default()
    };
    let outcome = explore("unwinding-drop", config, || {
        let seq = Arc::new(AtomicU64::labelled("seq", 0));
        let reader_seq = Arc::clone(&seq);
        // A reader spinning for an even sequence, pruned while it waits.
        let reader = shim::spawn(move || while reader_seq.load(Ordering::Acquire) % 2 == 1 {});
        // A writer whose window never closes before the budget runs out.
        seq.store(1, Ordering::Relaxed);
        let _window = Window(&seq);
        while seq.load(Ordering::Relaxed) != 2 {}
        reader.join();
    });
    match outcome {
        Outcome::Pass { pruned, .. } => assert!(pruned > 0, "the budget must prune the spin"),
        Outcome::Counterexample(report) => panic!("unexpected counterexample:\n{report}"),
    }
}
