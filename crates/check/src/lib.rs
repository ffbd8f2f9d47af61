//! `buddy-check`: a vendored mini-loom for the Buddy Compression
//! seqlock/epoch protocol.
//!
//! The crate has three layers:
//!
//! * `mem` (private) — a weak-memory model: per-location store histories and
//!   per-thread views, so insufficiently-ordered loads can observe stale
//!   values (the bug class `SeqCst`-assuming stress tests never hit).
//! * [`sched`] — a controlled scheduler that runs model threads one at a
//!   time and depth-first-explores every bounded interleaving and every
//!   observable stale value, printing failing schedules as replayable
//!   thread-by-thread traces.
//! * [`shim`] — drop-in `std::sync` replacements (`AtomicU64`, `fence`,
//!   `spawn`) that route through the scheduler inside
//!   [`sched::explore`] and degrade to plain `std` outside it. Only the
//!   models below use them; the shipped `core::shared` code uses `std`.
//!
//! [`models`] holds the five protocol models distilled from `core::shared`
//! (seqlock read vs. batched write, two writers opening by CAS vs. a
//! reader, free-tombstone vs. stale reader, retarget republish vs.
//! concurrent read, shared metadata edge unit vs. its neighbouring
//! owners), each with seeded mutations that the integration suite requires
//! the checker to catch — the checker is itself checked.
//!
//! See DESIGN.md §13 for scope, limits, and how to read a counterexample.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod mem;
pub mod models;
pub mod sched;
pub mod shim;

pub use sched::{explore, fail, Config, Outcome, Report, TraceStep};
