//! Known-bad corpus for the `seqlock-discipline` rule: touching a seqlock
//! sequence word with raw atomic methods must be flagged — every ordering
//! on `seq` carries model-checker evidence only through the named
//! `core::sync` helpers (`seq_acquire`/`seq_revalidate`/`seq_open`/
//! `seq_release`).
#![forbid(unsafe_code)]

use crate::sync::{seq_acquire, seq_open};
use std::sync::atomic::{AtomicU64, Ordering};

fn raw_reads_are_caught(seq: &AtomicU64) -> u64 {
    seq.load(Ordering::Acquire) // expect(seqlock-discipline)
}

fn raw_writes_are_caught(seq: &AtomicU64) {
    seq.fetch_add(1, Ordering::Release); // expect(seqlock-discipline)
    seq.store(2, Ordering::Release); // expect(seqlock-discipline)
}

fn split_over_lines_is_still_a_raw_access(seq: &AtomicU64) -> u64 {
    seq
        .swap(0, Ordering::AcqRel) // expect(seqlock-discipline)
}

fn helpers_are_the_required_shape(seq: &AtomicU64) -> u64 {
    seq_open(seq, 0);
    seq_acquire(seq)
}

fn other_fields_are_out_of_scope(generation: &AtomicU64, sequence: &AtomicU64) -> u64 {
    generation.load(Ordering::Acquire) + sequence.load(Ordering::Acquire)
}

fn waived(seq: &AtomicU64) -> u64 {
    // lint-allow(seqlock-discipline): fixture demonstrates that a reasoned waiver suppresses
    seq.load(Ordering::Acquire)
}
