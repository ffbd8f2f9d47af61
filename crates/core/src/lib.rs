//! Buddy Compression — a functional and analytical model of the ISCA 2020
//! design by Choukse et al.
//!
//! Buddy Compression increases effective GPU memory capacity by compressing
//! each 128 B *memory-entry* with Bit-Plane Compression and splitting its
//! storage between device memory and a larger-but-slower *buddy memory*
//! reached over a high-bandwidth interconnect:
//!
//! * Each allocation is annotated with a [`TargetRatio`] (1×, 1.33×, 2×, 4×
//!   or the 16× zero-page mode), reserving `128/r` bytes of device memory
//!   per entry and the complement in the buddy carve-out.
//! * An entry that compresses within its device budget is served entirely
//!   from device memory; otherwise the overflow sectors sit at a *fixed*
//!   pre-reserved buddy offset — compressibility changes never move any
//!   other data (the design's key invariant, §3.3).
//! * 4 bits of metadata per entry ([`EntryState`]) record the compressed
//!   size; translation is a trivial base+offset (the paper's GBBR-offset
//!   addressing).
//! * A profiling pass ([`profile`]) picks per-allocation targets subject to
//!   the **Buddy Threshold** — the maximum tolerated fraction of entries
//!   that overflow to buddy memory. The paper's two rules each have one
//!   home: the fit rule is [`TargetRatio::fits`] (with
//!   [`TargetRatio::overflow_fraction`] and [`EntryState::stored`] built
//!   on it), the admission rule is [`ProfileConfig`]'s target walk.
//! * Targets are not frozen at allocation time: [`BuddyDevice::retarget`]
//!   migrates a live allocation to a new ratio (byte-preserving,
//!   observation-equivalent), and [`ProfileConfig::recommend`] runs the
//!   same admission walk online, over [`DeviceHandle::state_window`]'s
//!   histogram of live metadata, with hysteresis.
//!
//! The [`BuddyDevice`] here is a *functional* model with real compressed
//! storage (reads return exactly what was written); the companion `gpu-sim`
//! crate models the performance of the same design. The device stores
//! BPC by default. [`BuddyDevice::with_codec`] still takes any
//! `bpc::CodecKind`; it serves the codec round-trip tests and
//! `buddy_pool::PoolConfig::codec`, the last non-BPC entry point. It
//! offers batched
//! [`BuddyDevice::write_entries`] / [`BuddyDevice::read_entries`] paths
//! that move a whole run of entries with one stats update.
//!
//! # Example: profile, annotate, run
//!
//! ```
//! use buddy_core::{choose_targets, AllocationProfile, ProfileConfig};
//! use bpc::{SizeClass, SizeHistogram};
//!
//! // Profiling found this allocation compresses to one sector 80% of the
//! // time and is incompressible otherwise.
//! let mut histogram = SizeHistogram::new();
//! histogram.record_n(SizeClass::B32, 80);
//! histogram.record_n(SizeClass::B128, 20);
//! let profiles = vec![AllocationProfile {
//!     name: "activations".into(),
//!     entries: 1 << 20,
//!     histogram,
//! }];
//!
//! let outcome = choose_targets(&profiles, &ProfileConfig::default());
//! // 20% overflow is below the 30% Buddy Threshold: 4x is admissible.
//! assert_eq!(outcome.choices[0].target.to_string(), "4x");
//! assert!((outcome.device_compression_ratio() - 4.0).abs() < 1e-9);
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

#[cfg(test)]
mod adapt;
#[cfg(debug_assertions)]
mod audit;
pub mod device;
pub mod metadata;
pub mod profile;
mod region;
mod shared;
mod sync;
pub mod target;

pub use device::{
    AccessStats, AllocId, BuddyDevice, DeviceConfig, DeviceError, DeviceHandle, RetargetReport,
    StorageRanges,
};
pub use metadata::{EntryState, ENTRIES_PER_METADATA_LINE};
pub use profile::{
    best_achievable, choose_naive, choose_targets, AllocationProfile, ProfileConfig,
    ProfileOutcome, TargetChoice,
};
pub use shared::SharedStats;
pub use target::TargetRatio;
