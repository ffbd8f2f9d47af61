//! Known-bad corpus for the `relaxed-ordering` rule: `Ordering::Relaxed`
//! without an adjacent `Relaxed: ...` justification must be flagged.

fn bad(c: &AtomicU64) -> u64 {
    c.fetch_add(1, Ordering::Relaxed) // expect(relaxed-ordering)
}

fn justified_above(c: &AtomicU64) -> u64 {
    // Relaxed: the counter is a pure id source; no other memory is
    // published through it, so only atomicity is required.
    c.fetch_add(1, Ordering::Relaxed)
}

fn justified_same_line(c: &AtomicU64) -> u64 {
    c.load(Ordering::Relaxed) // Relaxed: monotonic stat, staleness is acceptable
}

fn stronger_orderings_need_no_comment(c: &AtomicU64) -> u64 {
    c.load(Ordering::Acquire) + c.swap(0, Ordering::SeqCst)
}
