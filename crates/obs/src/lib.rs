//! Observability layer for the Buddy Compression workspace: lock-free
//! latency histograms, a feature-gated span tracer with Chrome-trace
//! export, and a metrics registry with a Prometheus-text renderer.
//!
//! The crate deliberately has **no dependency** on any other workspace
//! crate so every layer — `buddy-core`'s device hot paths, `buddy-pool`'s
//! shard locks, `buddy-service`'s tenant ledger — can instrument itself
//! without dependency cycles. Three building blocks:
//!
//! * [`Histogram`] — an HdrHistogram-style log-bucketed latency histogram
//!   in a fixed ~2 KB footprint: 256 atomic buckets, 8 sub-buckets per
//!   octave, recording is wait-free (`fetch_add`), snapshots are mergeable
//!   across threads, and percentile estimates carry a one-sided ≤ 12.5 %
//!   relative error bound (see [`hist`] for the derivation). It replaces
//!   the unbounded collect-sort-index percentile paths the load drivers
//!   started with.
//! * [`trace`] — a span tracer over a static taxonomy ([`SpanKind`]).
//!   Behind the `obs-trace` feature flag: when disabled (the default)
//!   every entry point is an inlined no-op and [`SpanGuard`] has no `Drop`
//!   impl, so instrumented hot paths compile to exactly the uninstrumented
//!   code; when enabled, spans land in per-thread single-writer ring
//!   buffers plus always-exact per-kind totals, and
//!   [`trace::export_chrome_trace`] renders everything still in the rings
//!   as Chrome trace-event JSON loadable in Perfetto.
//! * [`metrics`] — [`Counter`] / [`Gauge`] / [`Histogram`] behind a
//!   [`MetricsRegistry`] with a Prometheus-text renderer. This crate is
//!   the only one in the workspace allowed to own raw atomics for metrics
//!   (enforced by the `raw-atomic-metric` xtask lint).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hist;
pub mod metrics;
pub mod trace;

pub use hist::{Histogram, HistogramSnapshot};
pub use metrics::{Counter, Gauge, MetricsRegistry};
pub use trace::{KindTotal, SpanGuard, SpanKind, SpanTotals};
