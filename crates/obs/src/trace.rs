//! Span tracing over a static taxonomy, feature-gated to a true no-op.
//!
//! # Taxonomy
//!
//! Spans come from the fixed [`SpanKind`] set — the eight operations the
//! pool/service hot paths decompose into (lock waits, codec work, buddy
//! I/O, allocator work, migration, queue waits, epoch publication). A
//! static taxonomy keeps recording allocation-free and lets totals live
//! in a flat array.
//!
//! # Gating
//!
//! Without the `obs-trace` feature (the default), [`span`],
//! [`span_with_arg`] and [`record_span`] are inlined no-ops and
//! [`SpanGuard`] is a unit struct **without a `Drop` impl** — an
//! instrumented hot path compiles to exactly the uninstrumented code, so
//! the instrumentation hooks in `buddy-core`/`buddy-pool`/`buddy-service`
//! are unconditional call sites, not `cfg` forests.
//!
//! # Recording (feature enabled)
//!
//! Each thread owns a single-writer ring of [`ring_capacity`] completed
//! spans: the owning thread stores the span fields with relaxed ordering
//! and publishes them with one release store of the ring head; recording
//! never blocks and never allocates after the ring exists. When the ring
//! wraps, the **oldest events are silently dropped** — the rings feed the
//! Chrome-trace export, which is a window, not an audit log. Per-kind
//! *totals* (sum of durations + count) are kept in separate atomics and
//! are **immune to wraparound** — they are what the `results/`
//! breakdown reports are built from.
//!
//! # Export
//!
//! [`export_chrome_trace`] renders every event still resident in the
//! rings as Chrome trace-event JSON (`"X"` complete-span events,
//! microsecond timestamps relative to the tracer epoch, one `tid` per
//! recording thread). Load the file at `chrome://tracing` or
//! <https://ui.perfetto.dev>.

/// The static span taxonomy. `repr` order is the index into totals and
/// the Chrome-trace name table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Waiting to acquire a pool shard mutex.
    ShardLockWait,
    /// Compressing one entry in the codec.
    CodecCompress,
    /// Decompressing one entry in the codec.
    CodecDecompress,
    /// Moving sector bytes to/from device and buddy carve-out storage.
    BuddyIo,
    /// Region allocator work (alloc/free/placement search).
    RegionAlloc,
    /// Re-encoding an allocation onto a new target ratio.
    RetargetMigrate,
    /// Time between an operation's scheduled arrival and its dequeue.
    QueueWait,
    /// A structural mutation's snapshot-publication window: the seqlock
    /// write-side interval during which concurrent snapshot readers
    /// retry instead of observing a half-applied table.
    EpochPublish,
}

impl SpanKind {
    /// Every kind, in index order.
    pub const ALL: [SpanKind; 8] = [
        SpanKind::ShardLockWait,
        SpanKind::CodecCompress,
        SpanKind::CodecDecompress,
        SpanKind::BuddyIo,
        SpanKind::RegionAlloc,
        SpanKind::RetargetMigrate,
        SpanKind::QueueWait,
        SpanKind::EpochPublish,
    ];

    /// Number of kinds.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable snake_case name (CSV columns, Chrome-trace event names).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::ShardLockWait => "shard_lock_wait",
            SpanKind::CodecCompress => "codec_compress",
            SpanKind::CodecDecompress => "codec_decompress",
            SpanKind::BuddyIo => "buddy_io",
            SpanKind::RegionAlloc => "region_alloc",
            SpanKind::RetargetMigrate => "retarget_migrate",
            SpanKind::QueueWait => "queue_wait",
            SpanKind::EpochPublish => "epoch_publish",
        }
    }

    /// Index into [`SpanTotals::kinds`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// The kind at `index()` position `i` (modulo the taxonomy size).
    pub fn from_index(i: usize) -> SpanKind {
        Self::ALL[i % Self::COUNT]
    }
}

/// Accumulated time and event count of one [`SpanKind`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindTotal {
    /// Sum of span durations, nanoseconds.
    pub total_ns: u64,
    /// Completed spans.
    pub count: u64,
}

/// Per-kind totals — exact regardless of ring wraparound.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// One slot per [`SpanKind`], indexed by [`SpanKind::index`].
    pub kinds: [KindTotal; SpanKind::COUNT],
}

impl SpanTotals {
    /// The total for one kind.
    pub fn of(&self, kind: SpanKind) -> KindTotal {
        self.kinds[kind.index()]
    }

    /// Field-wise difference against an earlier reading (saturating), the
    /// per-phase delta the breakdown reports are built from.
    pub fn since(&self, earlier: &SpanTotals) -> SpanTotals {
        let mut out = SpanTotals::default();
        for (o, (now, then)) in out
            .kinds
            .iter_mut()
            .zip(self.kinds.iter().zip(earlier.kinds.iter()))
        {
            o.total_ns = now.total_ns.saturating_sub(then.total_ns);
            o.count = now.count.saturating_sub(then.count);
        }
        out
    }
}

pub use imp::{
    export_chrome_trace, is_enabled, record_span, ring_capacity, span, span_with_arg, totals,
    SpanGuard,
};

/// Disabled mode: unit types and inlined no-ops. `SpanGuard` has no
/// `Drop` impl, so guards vanish entirely at compile time.
#[cfg(not(feature = "obs-trace"))]
mod imp {
    use super::{SpanKind, SpanTotals};
    use std::time::Duration;

    /// Completion handle of an open span; a unit no-op in disabled mode.
    #[derive(Debug)]
    #[must_use = "the span ends when the guard drops"]
    pub struct SpanGuard;

    /// Opens a span; no-op in disabled mode.
    #[inline(always)]
    pub fn span(_kind: SpanKind) -> SpanGuard {
        SpanGuard
    }

    /// Opens a span carrying an argument; no-op in disabled mode.
    #[inline(always)]
    pub fn span_with_arg(_kind: SpanKind, _arg: u64) -> SpanGuard {
        SpanGuard
    }

    /// Records an already-measured span; no-op in disabled mode.
    #[inline(always)]
    pub fn record_span(_kind: SpanKind, _elapsed: Duration) {}

    /// Per-kind totals; all zero in disabled mode.
    pub fn totals() -> SpanTotals {
        SpanTotals::default()
    }

    /// Chrome trace-event JSON of the rings; empty in disabled mode.
    pub fn export_chrome_trace() -> String {
        "{\"traceEvents\":[]}".to_string()
    }

    /// Whether span tracing is compiled in.
    pub fn is_enabled() -> bool {
        false
    }

    /// Events each thread's ring can hold; 0 in disabled mode.
    pub fn ring_capacity() -> usize {
        0
    }
}

/// Enabled mode: per-thread single-writer rings + global per-kind totals.
#[cfg(feature = "obs-trace")]
mod imp {
    use super::{SpanKind, SpanTotals};
    use std::fmt::Write as _;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex, OnceLock};
    use std::time::{Duration, Instant};

    /// Completed spans each thread's ring holds before overwriting the
    /// oldest.
    const RING_CAPACITY: usize = 4096;

    /// One completed span. Fields are plain atomics so the (single)
    /// writer and the export reader never need a lock; validity is
    /// governed by the ring head (release store / acquire load).
    struct Slot {
        kind_arg: AtomicU64,
        start_ns: AtomicU64,
        dur_ns: AtomicU64,
    }

    /// A single-writer ring: only the owning thread stores, any thread
    /// may read during export.
    struct ThreadRing {
        tid: u64,
        head: AtomicU64,
        slots: Vec<Slot>,
    }

    impl ThreadRing {
        fn push(&self, kind: SpanKind, arg: u64, start_ns: u64, dur_ns: u64) {
            // Relaxed: single-writer ring — only the owning thread stores
            // the head, so its own prior value needs no synchronization.
            let seq = self.head.load(Ordering::Relaxed);
            let slot = &self.slots[(seq % RING_CAPACITY as u64) as usize];
            // Relaxed: the release store of `head` below publishes these
            // three field stores to export readers.
            slot.kind_arg.store(pack(kind, arg), Ordering::Relaxed);
            // Relaxed: published by the release store of `head` below.
            slot.start_ns.store(start_ns, Ordering::Relaxed);
            // Relaxed: published by the release store of `head` below.
            slot.dur_ns.store(dur_ns, Ordering::Relaxed);
            self.head.store(seq + 1, Ordering::Release);
        }
    }

    fn pack(kind: SpanKind, arg: u64) -> u64 {
        (arg << 3) | kind.index() as u64
    }

    fn unpack(word: u64) -> (SpanKind, u64) {
        (SpanKind::from_index((word & 7) as usize), word >> 3)
    }

    struct Tracer {
        epoch: Instant,
        rings: Mutex<Vec<Arc<ThreadRing>>>,
        /// `(sum_ns, count)` per kind — exact regardless of ring wrap.
        totals: [(AtomicU64, AtomicU64); SpanKind::COUNT],
        next_tid: AtomicU64,
    }

    fn tracer() -> &'static Tracer {
        static TRACER: OnceLock<Tracer> = OnceLock::new();
        TRACER.get_or_init(|| Tracer {
            epoch: Instant::now(),
            rings: Mutex::new(Vec::new()),
            totals: std::array::from_fn(|_| (AtomicU64::new(0), AtomicU64::new(0))),
            next_tid: AtomicU64::new(1),
        })
    }

    /// Recovers from poison deliberately (ROADMAP 2c): the ring list is
    /// append-only plain data and tracing must not take the service down.
    fn rings_of(t: &Tracer) -> std::sync::MutexGuard<'_, Vec<Arc<ThreadRing>>> {
        match t.rings.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    thread_local! {
        static RING: Arc<ThreadRing> = {
            let t = tracer();
            let ring = Arc::new(ThreadRing {
                // Relaxed: a unique-id source, not a synchronization point.
                tid: t.next_tid.fetch_add(1, Ordering::Relaxed),
                head: AtomicU64::new(0),
                slots: (0..RING_CAPACITY)
                    .map(|_| Slot {
                        kind_arg: AtomicU64::new(0),
                        start_ns: AtomicU64::new(0),
                        dur_ns: AtomicU64::new(0),
                    })
                    .collect(),
            });
            rings_of(t).push(Arc::clone(&ring));
            ring
        };
    }

    fn ns(d: Duration) -> u64 {
        u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
    }

    fn commit(kind: SpanKind, arg: u64, start_ns: u64, dur_ns: u64) {
        let t = tracer();
        let (sum, count) = &t.totals[kind.index()];
        // Relaxed: statistical totals — readers take snapshots and
        // tolerate in-flight updates.
        sum.fetch_add(dur_ns, Ordering::Relaxed);
        // Relaxed: statistical totals, as above.
        count.fetch_add(1, Ordering::Relaxed);
        RING.with(|ring| ring.push(kind, arg, start_ns, dur_ns));
    }

    /// Completion handle of an open span: records on drop.
    #[derive(Debug)]
    #[must_use = "the span ends when the guard drops"]
    pub struct SpanGuard {
        kind: SpanKind,
        arg: u64,
        start: Instant,
    }

    impl Drop for SpanGuard {
        fn drop(&mut self) {
            let dur_ns = ns(self.start.elapsed());
            let start_ns = ns(self.start.saturating_duration_since(tracer().epoch));
            commit(self.kind, self.arg, start_ns, dur_ns);
        }
    }

    /// Opens a span of `kind`; it ends (and is recorded) when the
    /// returned guard drops.
    #[inline]
    pub fn span(kind: SpanKind) -> SpanGuard {
        span_with_arg(kind, 0)
    }

    /// As [`span`], carrying a numeric argument (e.g. a shard index)
    /// into the exported event.
    #[inline]
    pub fn span_with_arg(kind: SpanKind, arg: u64) -> SpanGuard {
        SpanGuard {
            kind,
            arg,
            start: Instant::now(),
        }
    }

    /// Records a span whose duration the caller already measured (e.g. a
    /// queue delay computed from a scheduled deadline). The event is
    /// back-dated so it ends "now".
    pub fn record_span(kind: SpanKind, elapsed: Duration) {
        let end_ns = ns(tracer().epoch.elapsed());
        let dur_ns = ns(elapsed);
        commit(kind, 0, end_ns.saturating_sub(dur_ns), dur_ns);
    }

    /// A point-in-time copy of the per-kind totals.
    pub fn totals() -> SpanTotals {
        let t = tracer();
        let mut out = SpanTotals::default();
        for (slot, (sum, count)) in out.kinds.iter_mut().zip(t.totals.iter()) {
            // Relaxed: statistical snapshot; exact once writers are
            // quiescent.
            slot.total_ns = sum.load(Ordering::Relaxed);
            // Relaxed: statistical snapshot, as above.
            slot.count = count.load(Ordering::Relaxed);
        }
        out
    }

    /// Renders every event still resident in the rings as Chrome
    /// trace-event JSON (`ph: "X"` complete spans, microsecond units).
    pub fn export_chrome_trace() -> String {
        let t = tracer();
        let rings: Vec<Arc<ThreadRing>> = rings_of(t).iter().map(Arc::clone).collect();
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        for ring in &rings {
            // Acquire: pairs with the writer's release store — everything
            // below `h1` is fully written.
            let h1 = ring.head.load(Ordering::Acquire);
            let lo = h1.saturating_sub(RING_CAPACITY as u64);
            let mut events = Vec::new();
            for seq in lo..h1 {
                let slot = &ring.slots[(seq % RING_CAPACITY as u64) as usize];
                events.push((
                    seq,
                    // Relaxed: validity is re-checked against the head
                    // re-read below; torn slots are discarded there.
                    slot.kind_arg.load(Ordering::Relaxed),
                    // Relaxed: as above.
                    slot.start_ns.load(Ordering::Relaxed),
                    // Relaxed: as above.
                    slot.dur_ns.load(Ordering::Relaxed),
                ));
            }
            // Acquire: slots the writer lapped while we were reading are
            // below this watermark; drop them instead of emitting torn
            // events.
            let h2 = ring.head.load(Ordering::Acquire);
            let valid_lo = h2.saturating_sub(RING_CAPACITY as u64);
            for (seq, word, start_ns, dur_ns) in events {
                if seq < valid_lo {
                    continue;
                }
                let (kind, arg) = unpack(word);
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"cat\":\"buddy\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"arg\":{}}}}}",
                    kind.name(),
                    start_ns as f64 / 1_000.0,
                    dur_ns as f64 / 1_000.0,
                    ring.tid,
                    arg
                );
            }
        }
        out.push_str("]}");
        out
    }

    /// Whether span tracing is compiled in.
    pub fn is_enabled() -> bool {
        true
    }

    /// Events each thread's ring can hold before wrapping.
    pub fn ring_capacity() -> usize {
        RING_CAPACITY
    }
}

/// Times `f` and records it as one completed span of `kind`.
pub fn timed<T>(kind: SpanKind, f: impl FnOnce() -> T) -> T {
    let _span = imp::span(kind);
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taxonomy_is_stable() {
        assert_eq!(SpanKind::COUNT, 8);
        for (i, kind) in SpanKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i);
            assert_eq!(SpanKind::from_index(i), *kind);
            assert!(!kind.name().is_empty());
        }
        assert_eq!(SpanKind::ShardLockWait.name(), "shard_lock_wait");
        assert_eq!(SpanKind::QueueWait.name(), "queue_wait");
        assert_eq!(SpanKind::EpochPublish.name(), "epoch_publish");
        // `pack` keeps the kind in the low 3 bits; index 7 is the last
        // one that fits, so the COUNT == 8 pin above is also the "growing
        // past 8 kinds needs a wider field" guard.
    }

    #[test]
    fn totals_delta_saturates() {
        let mut now = SpanTotals::default();
        now.kinds[0] = KindTotal {
            total_ns: 100,
            count: 3,
        };
        let mut earlier = SpanTotals::default();
        earlier.kinds[0] = KindTotal {
            total_ns: 40,
            count: 1,
        };
        let d = now.since(&earlier);
        assert_eq!(
            d.of(SpanKind::ShardLockWait),
            KindTotal {
                total_ns: 60,
                count: 2
            }
        );
        // Reversed order saturates to zero instead of wrapping.
        let r = earlier.since(&now);
        assert_eq!(r.of(SpanKind::ShardLockWait), KindTotal::default());
    }

    #[test]
    fn timed_runs_the_closure() {
        let out = timed(SpanKind::CodecCompress, || 41 + 1);
        assert_eq!(out, 42);
    }
}
