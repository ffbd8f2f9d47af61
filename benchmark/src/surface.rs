//! The one place that names library items.
//!
//! Every other module of the benchmark imports the library through
//! `crate::surface`, and this module reaches it only through the facade
//! crate's re-exports (`buddy_compression::{bpc, buddy_core, buddy_pool,
//! buddy_service, buddy_obs, workloads, gpu_sim, unified_memory, dl_model}`
//! and the facade glue functions). A PR that collapses or renames an API
//! can read this file to see exactly what has to keep compiling.
//!
//! # Deliberately not used
//!
//! ROADMAP open item 2 schedules these for deletion or merging, so the
//! benchmark must not depend on them:
//!
//! - `BuddyPool::read_entries_collect_locked` (the locked read baseline),
//! - the `*_collect` twins of `read_entries` / `write_entries` at every
//!   level, and the single-entry `read_entry` / `write_entry` forms
//!   (single-entry calls here are batches of one),
//! - `bpc::BlockCompressor` (the PR 2 compatibility shim; `Codec` is used),
//! - `buddy_pool::loadgen` and `buddy_service::loadgen`,
//! - `buddy_service::telemetry` internals (`AllocGrant::demoted` and the
//!   benchmark's own refusal count stand in for the tenant counters),
//! - anything in `crates/bench`.
//!
//! `run_performance_sim` is not called either: it profiles internally on
//! every call, so a Buddy/Uncompressed pair would profile each benchmark
//! three times. `pipeline.rs` runs the same sequence (`profile_benchmark` →
//! `choose_targets` → `BenchmarkLayout` → `Engine::run` over
//! `benchmark_requests`) with one profile per benchmark and a span per stage.

// Codec layer.
pub use buddy_compression::bpc::{
    Codec, CodecKind, CompressedBuf, Entry, SizeClass, SizeHistogram, ENTRY_BYTES,
};

// Device layer: structural plane (`BuddyDevice`), lock-free I/O plane
// (`DeviceHandle`), the §3.5 profiler.
pub use buddy_compression::buddy_core::{
    choose_targets, AccessStats, AllocId, BuddyDevice, DeviceConfig, DeviceError, DeviceHandle,
    ProfileConfig, ProfileOutcome, TargetRatio,
};

// Sharded pool.
pub use buddy_compression::buddy_pool::{BuddyPool, PoolAllocId, PoolConfig};

// Multi-tenant service.
pub use buddy_compression::buddy_service::{
    AdmissionPolicy, BuddyService, ServiceAllocId, ServiceError, TenantId,
};

// Observability primitives priced by the `obs.*` probes.
pub use buddy_compression::buddy_obs::{trace as obs_trace, Counter, Histogram, MetricsRegistry};

// Workload suite and generators.
pub use buddy_compression::workloads::entry_gen::{mix, splitmix64};
pub use buddy_compression::workloads::{
    all_benchmarks, by_name, AccessProfile, AllocationSpec, ArrivalSchedule, Benchmark, EntryClass,
    MixtureProfile, Scale, Suite,
};

// Performance simulator.
pub use buddy_compression::gpu_sim::{
    Engine, EntryPlacement, ExecConfig, Fidelity, GpuConfig, MemRequest, MemoryMode, SimStats,
    UniformLayout,
};

// Unified-memory and DL models.
pub use buddy_compression::dl_model::networks::all_networks;
pub use buddy_compression::dl_model::{capacity_speedup, GpuPerf, Network};
pub use buddy_compression::unified_memory::{
    simulate as um_simulate, PageAccess, Policy, UmConfig,
};

// Facade glue.
pub use buddy_compression::{benchmark_requests, profile_benchmark, BenchmarkLayout};
