//! Simulator configuration — the paper's Table 2.
//!
//! The values model an NVIDIA P100-class GPU with Volta-class interconnect:
//! 1.3 GHz cores, a 4 MB sectored L2 in 32 slices, 32 HBM2 channels totaling
//! 900 GB/s, six NVLink2 bricks totaling 150 GB/s full-duplex, a 4 KB
//! 4-way metadata cache per L2 slice, and an 11-cycle (de)compression
//! latency.

use std::fmt;

/// GPU machine configuration (Table 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuConfig {
    /// Streaming multiprocessors.
    pub sms: u32,
    /// Core clock in GHz (all latencies below are in core cycles).
    pub core_clock_ghz: f64,
    /// Maximum resident 32-thread warps per SM.
    pub max_warps_per_sm: u32,
    /// Shared L2 capacity in bytes.
    pub l2_bytes: u64,
    /// L2 slice count (one metadata cache per slice).
    pub l2_slices: u32,
    /// L2 associativity.
    pub l2_ways: u32,
    /// Cache line size in bytes (also the compression granularity).
    pub line_bytes: u32,
    /// Sector size in bytes (DRAM access granularity).
    pub sector_bytes: u32,
    /// HBM2 channel count.
    pub dram_channels: u32,
    /// Aggregate DRAM bandwidth in GB/s.
    pub dram_bandwidth_gbps: f64,
    /// DRAM access latency in core cycles.
    pub dram_latency_cycles: f64,
    /// Interconnect (NVLink2-class) bandwidth in GB/s, per direction
    /// (full-duplex). 150 GB/s models six NVLink2 bricks; the Figure 11
    /// sweep varies this from 50 to 200.
    pub link_bandwidth_gbps: f64,
    /// Interconnect round-trip latency in core cycles.
    pub link_latency_cycles: f64,
    /// L2 hit latency in core cycles.
    pub l2_hit_latency_cycles: f64,
    /// Compression/decompression pipeline latency in cycles (the paper
    /// conservatively models 11 DRAM cycles, after Kim et al.).
    pub decompression_latency_cycles: f64,
    /// Metadata cache capacity per L2 slice, in bytes (default 4 KB).
    pub metadata_cache_bytes_per_slice: u32,
    /// Metadata cache associativity.
    pub metadata_cache_ways: u32,
}

impl GpuConfig {
    /// The paper's P100-class configuration (Table 2).
    pub fn p100() -> Self {
        Self {
            sms: 56,
            core_clock_ghz: 1.3,
            max_warps_per_sm: 64,
            l2_bytes: 4 << 20,
            l2_slices: 32,
            l2_ways: 16,
            line_bytes: 128,
            sector_bytes: 32,
            dram_channels: 32,
            dram_bandwidth_gbps: 900.0,
            dram_latency_cycles: 300.0,
            link_bandwidth_gbps: 150.0,
            link_latency_cycles: 400.0,
            l2_hit_latency_cycles: 120.0,
            decompression_latency_cycles: 11.0,
            metadata_cache_bytes_per_slice: 4096,
            metadata_cache_ways: 4,
        }
    }

    /// The same machine with a different interconnect bandwidth (the
    /// Figure 11 sweep: 50, 100, 150, 200 GB/s full-duplex).
    pub fn with_link_bandwidth(self, gbps: f64) -> Self {
        Self {
            link_bandwidth_gbps: gbps,
            ..self
        }
    }

    /// Core cycles one 32 B sector occupies one DRAM channel.
    pub fn dram_sector_cycles(&self) -> f64 {
        let per_channel_bps = self.dram_bandwidth_gbps * 1e9 / self.dram_channels as f64;
        self.sector_bytes as f64 / per_channel_bps * self.core_clock_ghz * 1e9
    }

    /// Core cycles one 32 B sector occupies the interconnect (per
    /// direction; the link is modeled as one aggregate full-duplex queue).
    pub fn link_sector_cycles(&self) -> f64 {
        self.sector_bytes as f64 / (self.link_bandwidth_gbps * 1e9) * self.core_clock_ghz * 1e9
    }

    /// Number of L2 cache lines.
    pub fn l2_lines(&self) -> usize {
        (self.l2_bytes / self.line_bytes as u64) as usize
    }

    /// Lines in one metadata cache slice (32 B metadata lines).
    pub fn metadata_cache_lines_per_slice(&self) -> usize {
        (self.metadata_cache_bytes_per_slice / 32) as usize
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::p100()
    }
}

impl fmt::Display for GpuConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Core      {} SMs @ {:.1} GHz; max {} warps/SM",
            self.sms, self.core_clock_ghz, self.max_warps_per_sm
        )?;
        writeln!(
            f,
            "Caches    {} MB shared L2, {} slices, {} B lines ({} B sectors), {} ways",
            self.l2_bytes >> 20,
            self.l2_slices,
            self.line_bytes,
            self.sector_bytes,
            self.l2_ways
        )?;
        writeln!(
            f,
            "Off-chip  {} HBM2 channels ({:.0} GB/s); interconnect {:.0} GB/s full-duplex",
            self.dram_channels, self.dram_bandwidth_gbps, self.link_bandwidth_gbps
        )?;
        write!(
            f,
            "Buddy     {} KB metadata cache per L2 slice, {}-way; +{:.0}-cycle (de)compression",
            self.metadata_cache_bytes_per_slice >> 10,
            self.metadata_cache_ways,
            self.decompression_latency_cycles
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p100_matches_table_2() {
        let c = GpuConfig::p100();
        assert_eq!(c.sms, 56);
        assert_eq!(c.l2_bytes, 4 << 20);
        assert_eq!(c.l2_slices, 32);
        assert_eq!(c.dram_channels, 32);
        assert_eq!(c.dram_bandwidth_gbps, 900.0);
        assert_eq!(c.link_bandwidth_gbps, 150.0);
        assert_eq!(c.metadata_cache_bytes_per_slice, 4096);
        assert_eq!(c.decompression_latency_cycles, 11.0);
    }

    #[test]
    fn sector_service_times() {
        let c = GpuConfig::p100();
        // 32 B / (900/32 GB/s) * 1.3 GHz = 1.479 cycles.
        assert!((c.dram_sector_cycles() - 1.4791).abs() < 1e-3);
        // 32 B / 150 GB/s * 1.3 GHz = 0.277 cycles.
        assert!((c.link_sector_cycles() - 0.2773).abs() < 1e-3);
        // Halving the link bandwidth doubles the service time.
        let slow = c.with_link_bandwidth(75.0);
        assert!((slow.link_sector_cycles() - 2.0 * c.link_sector_cycles()).abs() < 1e-9);
    }

    #[test]
    fn derived_geometry() {
        let c = GpuConfig::p100();
        assert_eq!(c.l2_lines(), 32768);
        assert_eq!(c.metadata_cache_lines_per_slice(), 128);
    }

    #[test]
    fn display_prints_table() {
        let text = GpuConfig::p100().to_string();
        assert!(text.contains("56 SMs"));
        assert!(text.contains("4 MB shared L2"));
        assert!(text.contains("900 GB/s"));
        assert!(text.contains("metadata cache"));
    }
}
