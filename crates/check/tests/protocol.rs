//! The protocol suite: every model green as written, every seeded
//! mutation caught with a replayable counterexample schedule.
//!
//! This is both the protocol's correctness evidence (the unmutated
//! models encode exactly the orderings `core::sync`'s seqlock helpers
//! use) and the checker's own validation: a checker that cannot catch a
//! dropped tombstone or a downgraded `Release` would pass everything,
//! so each mutation test demands a counterexample and replays it.

use buddy_check::models::{
    edge_unit, retarget, seqlock, seqlock_writers, tombstone, EdgeUnitMutation, RetargetMutation,
    SeqlockMutation, TombstoneMutation, WritersMutation,
};
use buddy_check::{explore, Config, Outcome};

/// Exploration budget for the suite: generous enough that every model
/// here is fully exhausted (asserted for the unmutated ones), small
/// enough that the suite stays quick in debug builds.
fn budget() -> Config {
    Config {
        max_preemptions: 3,
        max_steps: 400,
        max_executions: 3_000_000,
        replay: None,
    }
}

/// The unmutated protocol must survive the *entire* bounded schedule
/// space — a budget-capped pass would weaken the evidence.
fn assert_protocol_holds(name: &str, model: impl Fn() + Send + Sync + 'static) {
    match explore(name, budget(), model) {
        Outcome::Pass {
            executions,
            exhausted,
            ..
        } => {
            assert!(
                exhausted,
                "{name}: exploration not exhausted after {executions} executions; raise the budget"
            );
            println!("{name}: {executions} schedules explored, all pass");
        }
        Outcome::Counterexample(report) => {
            panic!("{name}: unmutated protocol has a counterexample:\n{report}")
        }
    }
}

/// A seeded bug must produce a counterexample; print it (the
/// thread-by-thread trace is the artifact this suite exists for) and
/// prove it replays: rerunning the recorded decision vector alone must
/// reproduce the violation.
fn assert_mutation_caught(name: &str, model: impl Fn() + Send + Sync + 'static + Clone) {
    let outcome = explore(name, budget(), model.clone());
    let report = match outcome.counterexample() {
        Some(r) => r.clone(),
        None => panic!("{name}: seeded mutation was NOT caught — checker is blind to this bug"),
    };
    println!("{report}");
    assert!(
        !report.trace.is_empty(),
        "{name}: empty counterexample trace"
    );
    let replayed = explore(name, Config::replay(report.choices.clone()), model);
    assert!(
        replayed.counterexample().is_some(),
        "{name}: recorded schedule did not replay to the same violation"
    );
}

#[test]
fn seqlock_protocol_holds() {
    assert_protocol_holds("seqlock", seqlock(SeqlockMutation::None));
}

#[test]
fn seqlock_mutation_skip_odd_bump_is_caught() {
    assert_mutation_caught(
        "seqlock[skip-odd-bump]",
        seqlock(SeqlockMutation::SkipOddBump),
    );
}

#[test]
fn seqlock_mutation_close_relaxed_is_caught() {
    assert_mutation_caught(
        "seqlock[close-relaxed]",
        seqlock(SeqlockMutation::CloseRelaxed),
    );
}

#[test]
fn seqlock_mutation_no_reader_fence_is_caught() {
    assert_mutation_caught(
        "seqlock[no-reader-fence]",
        seqlock(SeqlockMutation::NoReaderFence),
    );
}

#[test]
fn seqlock_mutation_no_writer_fence_is_caught() {
    assert_mutation_caught(
        "seqlock[no-writer-fence]",
        seqlock(SeqlockMutation::NoWriterFence),
    );
}

#[test]
fn seqlock_writers_protocol_holds() {
    assert_protocol_holds("seqlock-writers", seqlock_writers(WritersMutation::None));
}

#[test]
fn seqlock_writers_mutation_unserialized_writers_is_caught() {
    assert_mutation_caught(
        "seqlock-writers[unserialized-writers]",
        seqlock_writers(WritersMutation::UnserializedWriters),
    );
}

#[test]
fn tombstone_protocol_holds() {
    assert_protocol_holds("tombstone", tombstone(TombstoneMutation::None));
}

#[test]
fn tombstone_mutation_drop_tombstone_is_caught() {
    assert_mutation_caught(
        "tombstone[drop-tombstone]",
        tombstone(TombstoneMutation::DropTombstone),
    );
}

#[test]
fn retarget_protocol_holds() {
    assert_protocol_holds("retarget", retarget(RetargetMutation::None));
}

#[test]
fn retarget_mutation_early_close_is_caught() {
    assert_mutation_caught(
        "retarget[early-close]",
        retarget(RetargetMutation::EarlyClose),
    );
}

#[test]
fn edge_unit_protocol_holds() {
    assert_protocol_holds("edge-unit", edge_unit(EdgeUnitMutation::None));
}

#[test]
fn edge_unit_mutation_plain_edge_store_is_caught() {
    assert_mutation_caught(
        "edge-unit[plain-edge-store]",
        edge_unit(EdgeUnitMutation::PlainEdgeStore),
    );
}
