//! Synthetic GPU workload suite for the Buddy Compression reproduction.
//!
//! The paper evaluates Buddy Compression on 16 workloads (Table 1): eight
//! SpecAccel HPC benchmarks, two DOE FastForward proxy apps, and six
//! deep-learning training workloads. The original evaluation used memory
//! dumps and instruction traces captured from real GPUs; neither is
//! available here, so this crate synthesizes both:
//!
//! * **Memory images** ([`snapshot`]) — per-allocation mixtures of entry
//!   generators ([`entry_gen`]) whose *measured* Bit-Plane-Compression size
//!   classes are predictable, arranged with the spatial patterns of
//!   Figure 6 ([`spec`]) and the temporal behaviour of §3.1/Figure 8.
//!   [`AllocationSpec::varies_with_phase`] says exactly which entries drift
//!   at a phase, so a multi-phase [`capture`] compresses the others once.
//! * **Access traces** ([`trace`]) — deterministic streams with the
//!   coalescing, locality, read/write and host-traffic statistics the paper
//!   reports per benchmark.
//!
//! Everything is seeded and deterministic: two runs with the same seed
//! produce bit-identical figures.
//!
//! # Example
//!
//! ```
//! use workloads::{by_name, snapshot};
//!
//! let mut bench = by_name("352.ep").expect("known benchmark");
//! bench.scale = workloads::Scale::test();
//! // One snapshot row per phase; the paper's profile takes ten. Each
//! // distinct entry is compressed once across the ten.
//! let rows = snapshot::capture(
//!     &bench,
//!     &snapshot::ten_phases(),
//!     snapshot::SnapshotConfig {
//!         seed: 1,
//!         sample_cap: 2048,
//!         ..Default::default() // codec: BPC, as the paper profiles
//!     },
//! );
//! assert_eq!(rows.len(), 10);
//! // 352.ep is dominated by zero pages: ratio is far above 2x.
//! assert!(rows.iter().all(|s| s.compression_ratio() > 2.0));
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod arrival;
pub mod churn;
pub mod drift;
pub mod entry_gen;
pub mod snapshot;
pub mod spec;
pub mod suite;
pub mod trace;

pub use arrival::ArrivalSchedule;
pub use churn::{ChurnConfig, ChurnOp, ChurnTrace, Lifetime};
pub use drift::{drift_allocations, DRIFT_PHASES};
pub use entry_gen::{EntryClass, MixtureProfile};
pub use snapshot::{capture, heatmap, Heatmap, SnapshotConfig, SnapshotStats};
pub use spec::{AllocationSpec, SpatialPattern, TemporalDrift};
pub use suite::{
    all_benchmarks, by_name, dl_benchmarks, geomean, hpc_benchmarks, Benchmark, Scale, Suite,
};
pub use trace::{Access, AccessProfile, TraceGenerator};
