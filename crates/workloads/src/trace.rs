//! Synthetic memory access traces with per-benchmark characteristics.
//!
//! The paper drives its performance simulator with traces of 1–9 billion
//! warp instructions collected from real runs (§4.1). We cannot collect
//! those, so each benchmark carries an [`AccessProfile`] describing the
//! memory behaviour the paper reports — coalescing (DL workloads stream
//! full cache blocks; 354.cg and 360.ilbdc issue random single-sector
//! accesses), locality, read/write mix, memory-level parallelism, and native
//! host traffic (FF_HPGMG) — and the generator emits a deterministic access
//! stream with those statistics.

use crate::entry_gen::{mix, splitmix64, unit_from_hash};

/// Statistical description of a benchmark's memory access behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessProfile {
    /// Fraction of accesses that touch all four 32 B sectors (fully
    /// coalesced warp accesses, e.g. DL matrix multiplication).
    pub coalesced_frac: f64,
    /// Fraction of accesses that touch two adjacent sectors; the remainder
    /// touch a single random sector.
    pub two_sector_frac: f64,
    /// Fraction of accesses that are writes.
    pub write_frac: f64,
    /// Fraction of accesses that follow a sequential stream; the remainder
    /// jump to pseudo-random entries.
    pub stream_frac: f64,
    /// Fraction of the footprint that forms the hot set.
    pub hot_footprint_frac: f64,
    /// Fraction of *random* accesses directed at the hot set.
    pub hot_access_frac: f64,
    /// Outstanding memory requests each warp sustains (memory-level
    /// parallelism; low values make the benchmark latency-sensitive, as the
    /// paper observes for FF_Lulesh).
    pub mlp: u8,
    /// Compute cycles a warp spends between dependent memory accesses.
    pub compute_per_access: u32,
    /// Fraction of accesses that natively target host memory over the
    /// interconnect (FF_HPGMG's synchronous host copies, §4.2).
    pub host_traffic_frac: f64,
    /// Fraction of the footprint (at the end of the address space) that is
    /// effectively cold — allocated but rarely touched, like result buffers
    /// that stay zero until the end of the run (352.ep) or pooled zero
    /// regions (VGG16). Cold entries receive ~2% of accesses.
    pub cold_tail_frac: f64,
}

impl AccessProfile {
    /// A streaming, fully coalesced profile (DL training kernels).
    pub fn streaming_dl() -> Self {
        Self {
            coalesced_frac: 0.90,
            two_sector_frac: 0.06,
            write_frac: 0.30,
            stream_frac: 0.90,
            hot_footprint_frac: 0.08,
            hot_access_frac: 0.55,
            mlp: 6,
            compute_per_access: 70,
            host_traffic_frac: 0.0,
            cold_tail_frac: 0.0,
        }
    }

    /// A random, single-sector profile (sparse linear algebra).
    pub fn random_sparse() -> Self {
        Self {
            coalesced_frac: 0.10,
            two_sector_frac: 0.10,
            write_frac: 0.10,
            stream_frac: 0.15,
            hot_footprint_frac: 0.05,
            hot_access_frac: 0.40,
            mlp: 4,
            compute_per_access: 60,
            host_traffic_frac: 0.0,
            cold_tail_frac: 0.0,
        }
    }

    /// A regular stencil/grid profile.
    pub fn stencil() -> Self {
        Self {
            coalesced_frac: 0.75,
            two_sector_frac: 0.15,
            write_frac: 0.35,
            stream_frac: 0.80,
            hot_footprint_frac: 0.10,
            hot_access_frac: 0.50,
            mlp: 6,
            compute_per_access: 35,
            host_traffic_frac: 0.0,
            cold_tail_frac: 0.0,
        }
    }
}

/// One memory access in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Global 128 B entry index within the benchmark footprint.
    pub entry: u64,
    /// Bitmask of the 32 B sectors touched (bits 0–3).
    pub sector_mask: u8,
    /// Whether this is a store.
    pub write: bool,
    /// Whether the access natively targets host memory (bypasses device
    /// DRAM and rides the interconnect).
    pub to_host: bool,
}

impl Access {
    /// Number of sectors touched.
    pub fn sector_count(&self) -> u32 {
        self.sector_mask.count_ones()
    }
}

/// Deterministic access-stream generator implementing [`AccessProfile`].
///
/// The generator models `streams` independent warp streams round-robin, each
/// with its own sequential cursor, matching how SM warp schedulers interleave
/// many strided streams in real kernels.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    profile: AccessProfile,
    footprint_entries: u64,
    active_entries: u64,
    seed: u64,
    cursors: Vec<u64>,
    next_stream: usize,
    issued: u64,
}

impl TraceGenerator {
    /// Number of interleaved sequential streams.
    pub const STREAMS: usize = 32;

    /// Creates a generator over `footprint_entries` 128 B entries.
    ///
    /// # Panics
    ///
    /// Panics if `footprint_entries` is zero.
    pub fn new(profile: AccessProfile, footprint_entries: u64, seed: u64) -> Self {
        assert!(footprint_entries > 0, "footprint must be non-empty");
        let active_entries =
            ((footprint_entries as f64 * (1.0 - profile.cold_tail_frac.clamp(0.0, 0.99))) as u64)
                .max(1);
        let cursors = (0..Self::STREAMS as u64)
            .map(|s| splitmix64(mix(&[seed, s])) % active_entries)
            .collect();
        Self {
            profile,
            footprint_entries,
            active_entries,
            seed,
            cursors,
            next_stream: 0,
            issued: 0,
        }
    }

    /// Creates the trace of one client in an `N`-client replay of this
    /// profile: the same access statistics over a per-client footprint,
    /// driven by a seed derived deterministically from `(seed, client)`.
    ///
    /// Multi-client replays (the `pool-replay` driver in `buddy-bench`)
    /// give each client its own generator this way: runs are reproducible for a fixed
    /// master seed and client count, while distinct clients explore
    /// statistically independent streams.
    ///
    /// # Panics
    ///
    /// Panics if `footprint_entries` is zero.
    pub fn per_client(
        profile: AccessProfile,
        footprint_entries: u64,
        seed: u64,
        client: u64,
    ) -> Self {
        // A fixed salt keeps client streams disjoint from the direct
        // `new(profile, n, seed)` stream even for client 0.
        Self::new(
            profile,
            footprint_entries,
            mix(&[seed, 0xC11E_7001, client]),
        )
    }

    /// The profile driving this generator.
    pub fn profile(&self) -> &AccessProfile {
        &self.profile
    }

    /// Total entries addressable by this trace.
    pub fn footprint_entries(&self) -> u64 {
        self.footprint_entries
    }

    fn draw(&mut self, tag: u64) -> f64 {
        let h = mix(&[self.seed, self.issued, tag]);
        unit_from_hash(h)
    }
}

impl Iterator for TraceGenerator {
    type Item = Access;

    fn next(&mut self) -> Option<Access> {
        let p = self.profile;
        self.issued += 1;

        // Address: a rare cold-tail touch, a sequential stream, or a
        // random jump within the active region.
        let cold_span = self.footprint_entries - self.active_entries;
        let entry = if cold_span > 0 && self.draw(9) < 0.02 {
            self.active_entries + mix(&[self.seed, self.issued, 10]) % cold_span
        } else if self.draw(1) < p.stream_frac {
            let stream = self.next_stream;
            self.next_stream = (self.next_stream + 1) % Self::STREAMS;
            let e = self.cursors[stream];
            self.cursors[stream] = (e + 1) % self.active_entries;
            e
        } else {
            let hot_entries = ((self.active_entries as f64 * p.hot_footprint_frac) as u64).max(1);
            let h = mix(&[self.seed, self.issued, 2]);
            if self.draw(3) < p.hot_access_frac {
                h % hot_entries
            } else {
                h % self.active_entries
            }
        };

        // Sector footprint of the access.
        let shape = self.draw(4);
        let sector_mask = if shape < p.coalesced_frac {
            0b1111
        } else if shape < p.coalesced_frac + p.two_sector_frac {
            let start = (mix(&[self.seed, self.issued, 5]) % 3) as u8;
            0b11 << start
        } else {
            1 << (mix(&[self.seed, self.issued, 6]) % 4) as u8
        };

        let write = self.draw(7) < p.write_frac;
        let to_host = self.draw(8) < p.host_traffic_frac;

        Some(Access {
            entry,
            sector_mask,
            write,
            to_host,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(profile: AccessProfile, n: usize) -> (f64, f64, f64, f64) {
        let gen = TraceGenerator::new(profile, 100_000, 42);
        let accesses: Vec<Access> = gen.take(n).collect();
        let coalesced =
            accesses.iter().filter(|a| a.sector_mask == 0b1111).count() as f64 / n as f64;
        let writes = accesses.iter().filter(|a| a.write).count() as f64 / n as f64;
        let host = accesses.iter().filter(|a| a.to_host).count() as f64 / n as f64;
        let single = accesses.iter().filter(|a| a.sector_count() == 1).count() as f64 / n as f64;
        (coalesced, writes, host, single)
    }

    #[test]
    fn streaming_profile_statistics() {
        let (coalesced, writes, host, _) = stats(AccessProfile::streaming_dl(), 20_000);
        assert!((coalesced - 0.90).abs() < 0.02, "coalesced {coalesced}");
        assert!((writes - 0.30).abs() < 0.02, "writes {writes}");
        assert_eq!(host, 0.0);
    }

    #[test]
    fn sparse_profile_is_mostly_single_sector() {
        let (coalesced, _, _, single) = stats(AccessProfile::random_sparse(), 20_000);
        assert!(coalesced < 0.13, "coalesced {coalesced}");
        assert!(single > 0.7, "single {single}");
    }

    #[test]
    fn trace_is_deterministic() {
        let p = AccessProfile::stencil();
        let a: Vec<Access> = TraceGenerator::new(p, 1000, 7).take(500).collect();
        let b: Vec<Access> = TraceGenerator::new(p, 1000, 7).take(500).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn per_client_traces_are_deterministic_and_distinct() {
        let p = AccessProfile::stencil();
        let a: Vec<Access> = TraceGenerator::per_client(p, 1000, 7, 0)
            .take(200)
            .collect();
        let b: Vec<Access> = TraceGenerator::per_client(p, 1000, 7, 0)
            .take(200)
            .collect();
        assert_eq!(a, b, "same (seed, client) must replay identically");
        let c: Vec<Access> = TraceGenerator::per_client(p, 1000, 7, 1)
            .take(200)
            .collect();
        assert_ne!(a, c, "distinct clients must explore distinct streams");
        // Client streams are also disjoint from the direct seed stream.
        let direct: Vec<Access> = TraceGenerator::new(p, 1000, 7).take(200).collect();
        assert_ne!(a, direct);
        for access in &a {
            assert!(access.entry < 1000);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let p = AccessProfile::stencil();
        let a: Vec<Access> = TraceGenerator::new(p, 1000, 7).take(100).collect();
        let b: Vec<Access> = TraceGenerator::new(p, 1000, 8).take(100).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn addresses_stay_in_footprint() {
        let p = AccessProfile::random_sparse();
        for access in TraceGenerator::new(p, 123, 9).take(5000) {
            assert!(access.entry < 123);
        }
    }

    #[test]
    fn streams_advance_sequentially() {
        let p = AccessProfile {
            stream_frac: 1.0,
            ..AccessProfile::streaming_dl()
        };
        let accesses: Vec<Access> = TraceGenerator::new(p, 1_000_000, 3)
            .take(TraceGenerator::STREAMS * 2)
            .collect();
        // The same stream is revisited after STREAMS accesses, one entry on.
        for i in 0..TraceGenerator::STREAMS {
            assert_eq!(
                accesses[i + TraceGenerator::STREAMS].entry,
                accesses[i].entry + 1
            );
        }
    }

    #[test]
    fn host_traffic_fraction_respected() {
        let p = AccessProfile {
            host_traffic_frac: 0.08,
            ..AccessProfile::stencil()
        };
        let gen = TraceGenerator::new(p, 10_000, 11);
        let n = 20_000;
        let host = gen.take(n).filter(|a| a.to_host).count() as f64 / n as f64;
        assert!((host - 0.08).abs() < 0.01, "host {host}");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_footprint_panics() {
        TraceGenerator::new(AccessProfile::stencil(), 0, 1);
    }

    #[test]
    fn sector_masks_are_valid() {
        let p = AccessProfile {
            coalesced_frac: 0.3,
            two_sector_frac: 0.4,
            ..AccessProfile::stencil()
        };
        for access in TraceGenerator::new(p, 1000, 13).take(5000) {
            assert!(access.sector_mask != 0 && access.sector_mask <= 0b1111);
            let count = access.sector_count();
            assert!(count == 1 || count == 2 || count == 4);
        }
    }
}
