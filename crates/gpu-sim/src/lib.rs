//! Dependency-driven GPU memory-hierarchy performance simulator.
//!
//! This crate is the performance substrate of the Buddy Compression
//! reproduction. The original paper evaluates on a proprietary NVIDIA
//! trace-driven simulator (§4.1, Figure 10); this is a from-scratch
//! equivalent with the paper's Table 2 configuration:
//!
//! * P100-class machine: 56 SMs at 1.3 GHz, sectored 4 MB / 32-slice L2
//!   with 128 B lines and 32 B sectors ([`GpuConfig`]),
//! * 32 HBM2 channels totalling 900 GB/s, modeled as bandwidth-latency
//!   queues,
//! * an NVLink2-class interconnect (150 GB/s full-duplex, sweepable),
//! * per-slice 4 KB metadata caches and an 11-cycle (de)compression
//!   pipeline for the Buddy configurations.
//!
//! Execution follows the paper's dependency-driven approach: warps are
//! modeled as *lanes* — bounded streams of dependent memory requests — and
//! all timing emerges from queueing at the shared resources. Three memory
//! modes reproduce the Figure 11 configurations: the ideal uncompressed
//! baseline, bandwidth-only compression, and full Buddy Compression.
//!
//! A [`Fidelity::Detailed`] mode adds sector-granular DRAM bank timing and
//! stands in for the cycle-accurate reference simulator in the Figure 10
//! correlation study (the real study correlated against V100 silicon, which
//! is unavailable here; see DESIGN.md §3).
//!
//! # Example
//!
//! ```
//! use gpu_sim::{
//!     Engine, ExecConfig, Fidelity, GpuConfig, MemRequest, MemoryMode,
//!     EntryPlacement, UniformLayout,
//! };
//!
//! let layout = UniformLayout { entries: 1 << 16, placement: EntryPlacement::device(2) };
//! let cfg = GpuConfig::p100();
//! let exec = ExecConfig { lanes: 256, compute_cycles: 20.0, accesses: 10_000 };
//! let mut trace = (0..).map(|i| MemRequest {
//!     entry: i % (1 << 16),
//!     sector_mask: 0b1111,
//!     write: false,
//!     to_host: false,
//! });
//! let stats = Engine::new(cfg, exec, MemoryMode::Buddy, Fidelity::Fast, &layout)
//!     .run(&mut trace);
//! assert_eq!(stats.accesses, 10_000);
//! assert!(stats.cycles > 0.0);
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod cache;
pub mod config;
pub mod engine;
pub mod layout;
pub mod stats;

pub use cache::{Eviction, Lookup, SectoredCache};
pub use config::GpuConfig;
pub use engine::{Engine, ExecConfig, Fidelity, MemRequest, MemoryMode};
pub use layout::{EntryPlacement, MemoryLayout, UniformLayout};
pub use stats::SimStats;

/// SplitMix64 finalizer: the hash spreading entries over channels, banks,
/// L2 slices and cache sets.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Domain-separation tag for the metadata-line slice hash.
pub(crate) const METADATA_HASH_TAG: u64 = 0x4D44_4D44;

/// The L2 slice, out of `slices` (a power of two), whose metadata cache
/// holds metadata line `md_line` (an entry index divided by
/// `buddy_core::ENTRIES_PER_METADATA_LINE`).
///
/// The hash is tagged so that it is independent of the set hash a
/// [`SectoredCache`] applies to the same line: with the untagged hash,
/// every line of one slice would agree in the low bits that also pick its
/// set, and crowd into one set until a slice has more sets than there are
/// slices.
pub fn metadata_slice(md_line: u64, slices: u32) -> usize {
    debug_assert!(slices.is_power_of_two(), "{slices} slices");
    (splitmix64(md_line ^ METADATA_HASH_TAG) & (slices as u64 - 1)) as usize
}
