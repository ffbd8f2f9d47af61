//! Observability layer for the Buddy Compression workspace: lock-free
//! latency histograms, event counters and a metrics registry. It reads
//! no clock: "where did the time go" is answered by
//! the repo benchmark's tracer (`benchmark -- run --trace 1`).
//!
//! The crate deliberately has **no dependency** on any other workspace
//! crate so any layer — `buddy-pool`'s placement counters,
//! `buddy-service`'s tenant ledger — can use it without dependency
//! cycles. Two building blocks:
//!
//! * [`Histogram`] — an HdrHistogram-style log-bucketed latency histogram
//!   in a fixed ~2 KB footprint: 256 atomic buckets, 8 sub-buckets per
//!   octave, recording is wait-free (`fetch_add`), snapshots are mergeable
//!   across threads, and percentile estimates carry a one-sided ≤ 12.5 %
//!   relative error bound (see [`hist`] for the derivation). It replaces
//!   the unbounded collect-sort-index percentile paths the load drivers
//!   started with.
//! * [`metrics`] — [`Counter`] / [`Histogram`] behind a
//!   [`MetricsRegistry`] that samples them by name. This crate is
//!   the only one in the workspace allowed to own raw atomics for metrics:
//!   `clippy.toml` disallows the atomic integer types everywhere else.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![expect(
    clippy::disallowed_types,
    reason = "this crate owns the metric primitives the workspace counts with"
)]

pub mod hist;
pub mod metrics;
pub mod trace;

pub use hist::{Histogram, HistogramSnapshot};
pub use metrics::{Counter, MetricsRegistry};
