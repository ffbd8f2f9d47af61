//! Unified Memory oversubscription model (the paper's Figure 12).
//!
//! The paper measures UM oversubscription on real hardware: a Power9 host
//! connected to a V100 over three NVLink2 bricks (75 GB/s full-duplex),
//! with an interposer hogging GPU memory to force 0–40% oversubscription.
//! That hardware is unavailable, so this crate models the mechanism the
//! measurements expose:
//!
//! * **UM migration** — non-resident pages fault; the driver's fault
//!   handling is "remote and non-distributed" (§3.3), so faults serialize
//!   through a single handler that pays a fault-handling latency plus the
//!   page migration transfer, evicting LRU pages once the device is full
//!   (which is what produces thrashing).
//! * **Pinned host memory** — the compiler flag the paper compares against
//!   (dotted lines): every access to the oversubscribed region crosses the
//!   interconnect, turning the workload bandwidth-bound on the link but
//!   avoiding faults entirely.
//!
//! The headline observation to reproduce: *"UM migration heuristics often
//! perform worse than running applications completely pinned in host
//! memory"*, with slowdowns of up to 16–64× at modest oversubscription,
//! while Buddy Compression at 50 GB/s suffers at most 1.67× (§4.3).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::HashMap;
use std::fmt;

/// One access in a page-granular trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageAccess {
    /// Page index within the workload footprint.
    pub page: u64,
    /// Bytes touched by the access (for bandwidth accounting).
    pub bytes: u32,
    /// Whether the access dirties the page.
    pub write: bool,
}

/// Management policy for the oversubscribed region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Fault-driven page migration with LRU eviction (CUDA Unified Memory).
    UnifiedMemory,
    /// All allocations pinned in host memory, accessed over the link.
    PinnedHost,
    /// Everything resident in device memory from the start — the original
    /// application without oversubscription (the figure's denominator).
    DeviceResident,
}

/// System and cost parameters.
///
/// Defaults model the paper's measurement platform: V100 (900 GB/s HBM2)
/// attached to a Power9 by three NVLink2 bricks (75 GB/s full-duplex), 64 KB
/// migration granularity, and a 25 µs GPU fault-handling round trip (within
/// the 20–50 µs range reported for Pascal/Volta UM).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UmConfig {
    /// Migration/page granularity in bytes.
    pub page_bytes: u64,
    /// Device memory available to the workload, in bytes (reduced by the
    /// oversubscription interposer).
    pub device_bytes: u64,
    /// Device DRAM bandwidth in GB/s.
    pub device_bandwidth_gbps: f64,
    /// Interconnect bandwidth in GB/s (per direction).
    pub link_bandwidth_gbps: f64,
    /// Driver fault-handling latency per fault batch, in microseconds.
    pub fault_latency_us: f64,
    /// GPU-side minimum per-access issue cost in nanoseconds (keeps the
    /// native runtime from degenerating to zero for tiny traces).
    pub access_issue_ns: f64,
}

impl Default for UmConfig {
    fn default() -> Self {
        Self {
            page_bytes: 64 << 10,
            device_bytes: 0, // caller sets from footprint × (1 − oversub)
            device_bandwidth_gbps: 900.0,
            link_bandwidth_gbps: 75.0,
            fault_latency_us: 25.0,
            // Memory-bound GPU kernels sustain ~10 accesses/ns chip-wide;
            // the issue floor only guards degenerate tiny traces.
            access_issue_ns: 0.1,
        }
    }
}

/// Simulation result for one policy/oversubscription point.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UmStats {
    /// Estimated runtime in microseconds.
    pub runtime_us: f64,
    /// Page faults taken (UM policy only).
    pub faults: u64,
    /// Pages migrated device→host (evictions).
    pub evictions: u64,
    /// Bytes moved over the interconnect.
    pub link_bytes: u64,
    /// Bytes served from device DRAM.
    pub device_bytes_touched: u64,
    /// Accesses simulated.
    pub accesses: u64,
}

impl UmStats {
    /// Slowdown of this run relative to `native` (no oversubscription).
    pub fn slowdown_vs(&self, native: &UmStats) -> f64 {
        if native.runtime_us == 0.0 {
            1.0
        } else {
            self.runtime_us / native.runtime_us
        }
    }
}

impl fmt::Display for UmStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.0} us, {} faults / {} accesses, {} MB over link",
            self.runtime_us,
            self.faults,
            self.accesses,
            self.link_bytes >> 20
        )
    }
}

/// LRU page set with O(1) amortized touch/evict (clock-style second chance
/// would also do; exactness is irrelevant at this scale).
#[derive(Debug, Default)]
struct PageSet {
    // page -> (last_use, dirty)
    resident: HashMap<u64, (u64, bool)>,
    tick: u64,
}

impl PageSet {
    fn touch(&mut self, page: u64, write: bool) -> bool {
        self.tick += 1;
        match self.resident.get_mut(&page) {
            Some((t, dirty)) => {
                *t = self.tick;
                *dirty |= write;
                true
            }
            None => false,
        }
    }

    fn insert(&mut self, page: u64, write: bool) {
        self.tick += 1;
        self.resident.insert(page, (self.tick, write));
    }

    fn evict_lru(&mut self) -> Option<(u64, bool)> {
        let (&page, &(_, dirty)) = self.resident.iter().min_by_key(|(_, (t, _))| *t)?;
        self.resident.remove(&page);
        Some((page, dirty))
    }

    fn len(&self) -> usize {
        self.resident.len()
    }
}

/// Runs the model over a page-access trace under the given policy.
///
/// Pass `device_bytes >= footprint` for the native (no oversubscription)
/// baseline; the returned stats of that run are the denominator for
/// [`UmStats::slowdown_vs`].
pub fn simulate(
    trace: impl IntoIterator<Item = PageAccess>,
    policy: Policy,
    config: &UmConfig,
) -> UmStats {
    let mut stats = UmStats::default();
    let device_pages = (config.device_bytes / config.page_bytes.max(1)).max(1);
    let mut resident = PageSet::default();

    let link_us_per_byte = 1.0 / (config.link_bandwidth_gbps * 1e3); // GB/s → B/us
    let device_us_per_byte = 1.0 / (config.device_bandwidth_gbps * 1e3);
    let page_migrate_us = config.page_bytes as f64 * link_us_per_byte;

    // Runtime components: device-bandwidth time, link-bandwidth time, and
    // the serialized fault-handler time. The observed runtime is the max of
    // the parallel components plus the serial fault time — faults stall the
    // faulting warps *and* occupy the single driver handler (§3.3).
    let mut device_time_us = 0.0f64;
    let mut link_time_us = 0.0f64;
    let mut fault_time_us = 0.0f64;
    let mut issue_time_us = 0.0f64;

    for access in trace {
        stats.accesses += 1;
        issue_time_us += config.access_issue_ns * 1e-3;
        match policy {
            Policy::PinnedHost => {
                // Every byte crosses the link; no faults, no migrations.
                stats.link_bytes += access.bytes as u64;
                link_time_us += access.bytes as f64 * link_us_per_byte;
            }
            Policy::DeviceResident => {
                stats.device_bytes_touched += access.bytes as u64;
                device_time_us += access.bytes as f64 * device_us_per_byte;
            }
            Policy::UnifiedMemory => {
                if resident.touch(access.page, access.write) {
                    stats.device_bytes_touched += access.bytes as u64;
                    device_time_us += access.bytes as f64 * device_us_per_byte;
                } else {
                    // Page fault: driver round trip + migration in; evict
                    // (and write back if dirty) once the device is full.
                    stats.faults += 1;
                    fault_time_us += config.fault_latency_us + page_migrate_us;
                    stats.link_bytes += config.page_bytes;
                    if resident.len() as u64 >= device_pages {
                        if let Some((_, dirty)) = resident.evict_lru() {
                            stats.evictions += 1;
                            if dirty {
                                fault_time_us += page_migrate_us;
                                stats.link_bytes += config.page_bytes;
                            }
                        }
                    }
                    resident.insert(access.page, access.write);
                    stats.device_bytes_touched += access.bytes as u64;
                    device_time_us += access.bytes as f64 * device_us_per_byte;
                }
            }
        }
    }

    stats.runtime_us = device_time_us.max(link_time_us).max(issue_time_us) + fault_time_us;
    stats
}

/// Convenience: runtime of the native run (everything device-resident,
/// copied up-front as the original non-UM application would).
pub fn native_baseline(trace: impl IntoIterator<Item = PageAccess>, config: &UmConfig) -> UmStats {
    simulate(trace, Policy::DeviceResident, config)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cyclic sweep over `pages` pages, `len` accesses.
    fn sweep(pages: u64, len: u64) -> impl Iterator<Item = PageAccess> {
        (0..len).map(move |i| PageAccess {
            page: i % pages,
            bytes: 4096,
            write: i % 3 == 0,
        })
    }

    fn config_with_device(bytes: u64) -> UmConfig {
        UmConfig {
            device_bytes: bytes,
            ..UmConfig::default()
        }
    }

    #[test]
    fn no_oversubscription_no_faults_after_warmup() {
        let cfg = config_with_device(100 * (64 << 10));
        let stats = simulate(sweep(50, 5000), Policy::UnifiedMemory, &cfg);
        assert_eq!(stats.faults, 50, "only cold faults");
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn cyclic_working_set_thrashes_lru() {
        // 100 pages cycled through 90 device pages: LRU evicts exactly the
        // page about to be used — the classic UM thrashing pathology.
        let cfg = config_with_device(90 * (64 << 10));
        let stats = simulate(sweep(100, 10_000), Policy::UnifiedMemory, &cfg);
        assert!(
            stats.faults > 9_000,
            "cyclic access through an over-full LRU must thrash: {} faults",
            stats.faults
        );
    }

    #[test]
    fn um_slowdown_grows_with_oversubscription() {
        let footprint_pages = 200u64;
        let native = native_baseline(sweep(footprint_pages, 20_000), &UmConfig::default());
        let mut last = 1.0;
        for oversub in [0.0, 0.1, 0.2, 0.3, 0.4] {
            let device = ((footprint_pages as f64) * (1.0 - oversub)) as u64 * (64 << 10);
            let cfg = config_with_device(device);
            let stats = simulate(sweep(footprint_pages, 20_000), Policy::UnifiedMemory, &cfg);
            let slowdown = stats.slowdown_vs(&native);
            assert!(
                slowdown >= last * 0.99,
                "slowdown should be monotone in oversubscription: {slowdown} after {last}"
            );
            last = slowdown;
        }
        assert!(
            last > 4.0,
            "40% oversubscription should hurt badly: {last:.1}x"
        );
    }

    #[test]
    fn pinned_is_flat_in_oversubscription() {
        let native = native_baseline(sweep(200, 20_000), &UmConfig::default());
        let mut slowdowns = Vec::new();
        for oversub in [0.1, 0.4] {
            let device = (200.0 * (1.0 - oversub)) as u64 * (64 << 10);
            let cfg = config_with_device(device);
            let stats = simulate(sweep(200, 20_000), Policy::PinnedHost, &cfg);
            slowdowns.push(stats.slowdown_vs(&native));
        }
        assert!(
            (slowdowns[0] - slowdowns[1]).abs() < 1e-9,
            "pinned runtime does not depend on device capacity: {slowdowns:?}"
        );
        assert!(
            slowdowns[0] > 1.0,
            "link-bound must be slower than device-bound"
        );
    }

    #[test]
    fn um_worse_than_pinned_under_thrashing() {
        // The paper's headline: thrashing UM loses to simply pinning.
        let device = 90 * (64 << 10);
        let cfg = config_with_device(device);
        let um = simulate(sweep(100, 20_000), Policy::UnifiedMemory, &cfg);
        let pinned = simulate(sweep(100, 20_000), Policy::PinnedHost, &cfg);
        assert!(
            um.runtime_us > pinned.runtime_us,
            "thrashing UM ({:.0} us) should lose to pinned ({:.0} us)",
            um.runtime_us,
            pinned.runtime_us
        );
    }

    #[test]
    fn dirty_evictions_double_migration_traffic() {
        let cfg = config_with_device(10 * (64 << 10));
        let mut all_writes = (0..10_000u64).map(|i| PageAccess {
            page: i % 50,
            bytes: 4096,
            write: true,
        });
        let writes = simulate(
            &mut all_writes as &mut dyn Iterator<Item = _>,
            Policy::UnifiedMemory,
            &cfg,
        );
        let mut all_reads = (0..10_000u64).map(|i| PageAccess {
            page: i % 50,
            bytes: 4096,
            write: false,
        });
        let reads = simulate(
            &mut all_reads as &mut dyn Iterator<Item = _>,
            Policy::UnifiedMemory,
            &cfg,
        );
        assert!(
            writes.link_bytes > reads.link_bytes,
            "dirty pages must be written back"
        );
        assert!(writes.runtime_us > reads.runtime_us);
    }

    #[test]
    fn stats_helpers() {
        let native = UmStats {
            runtime_us: 100.0,
            ..Default::default()
        };
        let slow = UmStats {
            runtime_us: 450.0,
            faults: 30,
            accesses: 3000,
            ..Default::default()
        };
        assert!((slow.slowdown_vs(&native) - 4.5).abs() < 1e-12);
        assert!(slow.to_string().contains("faults"));
    }
}
