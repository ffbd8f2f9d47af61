//! Known-bad corpus for file-scoped waivers: a well-placed, reasoned
//! `lint-allow-file` suppresses every finding of its rule in the file; a
//! reasonless, unknown-rule or mid-file one suppresses nothing and is a
//! deny finding itself.
// lint-allow-file(raw-atomic-metric): fixture demonstrates one file waiver covering many findings
// lint-allow-file(relaxed-ordering)
// lint-allow-file(not-a-rule): typo'd ids must never silently waive anything

// The two malformed leading waivers above, and the misplaced one below:
// expect-file(waiver-without-reason)
// expect-file(unknown-waiver)
// expect-file(misplaced-file-waiver)

static COVERED_ONCE: AtomicU64 = AtomicU64::new(0);

struct CoveredAgain {
    hits: AtomicU32,
}

fn reasonless_file_waivers_do_not_suppress(c: &AtomicU64) -> u64 {
    c.load(Ordering::Relaxed) // expect(relaxed-ordering)
}

// lint-allow-file(relaxed-ordering): arriving after code has started, this is misplaced
fn misplaced_file_waivers_do_not_suppress_either(c: &AtomicU64) -> u64 {
    c.swap(0, Ordering::Relaxed) // expect(relaxed-ordering)
}
