//! Cross-version golden test for the simulation engine.
//!
//! `same_seed_runs_yield_equal_stats` only proves that one build is
//! deterministic. This suite pins the exact `SimStats` of a fixed seeded
//! run as literals, so a rewrite of the event loop or of the cache/channel
//! indexing that changes the order in which lanes issue, or where a line
//! lands, fails here even if the new build is self-consistent.
//!
//! Every `MemoryMode` × `Fidelity` runs over one trace mixing reads,
//! writes, partial sector masks and native host traffic, on a layout whose
//! placement varies per entry. The lane counts cover one lane, a count
//! that is not a power of two, and more lanes than accesses (lanes that
//! retire before they ever issue).

use gpu_sim::{
    Engine, EntryPlacement, ExecConfig, Fidelity, GpuConfig, MemRequest, MemoryLayout, MemoryMode,
    SimStats,
};

const ENTRIES: u64 = 1 << 18;
const ACCESSES: u64 = 4000;
const LANES: [u32; 3] = [1, 300, 6000];
const MODES: [MemoryMode; 3] = [
    MemoryMode::Uncompressed,
    MemoryMode::BandwidthCompressed,
    MemoryMode::Buddy,
];
const FIDELITIES: [Fidelity; 2] = [Fidelity::Fast, Fidelity::Detailed];

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Per-entry placements from 0 to 4 sectors with a varying buddy share,
/// and a bandwidth-only size that differs from the Buddy split's total.
struct MixedLayout;

impl MemoryLayout for MixedLayout {
    fn total_entries(&self) -> u64 {
        ENTRIES
    }

    fn placement(&self, entry: u64) -> EntryPlacement {
        let h = mix(entry ^ 0x1A70);
        let total = (h % 5) as u8;
        let device = total.min(1 + (h >> 8) as u8 % 3);
        EntryPlacement {
            device_sectors: device,
            buddy_sectors: total - device,
        }
    }

    fn compressed_sectors(&self, entry: u64) -> u8 {
        (mix(entry ^ 0xC0DE) % 5) as u8
    }
}

/// Half the accesses stream through a small hot region (L2 hits and
/// partial hits), the rest scatter over the footprint; 30 % are stores,
/// 3 % native host traffic, and sector masks take every non-empty value.
fn trace() -> impl Iterator<Item = MemRequest> {
    (0u64..).map(|i| {
        let h = mix(0xB0DD7 ^ i);
        let entry = if h & 1 == 0 {
            (h >> 1) % 512
        } else {
            (h >> 1) % ENTRIES
        };
        MemRequest {
            entry,
            sector_mask: 1 + (h >> 24) as u8 % 15,
            write: (h >> 32) % 10 < 3,
            to_host: (h >> 40) % 100 < 3,
        }
    })
}

/// Every `SimStats` field, `cycles` as its bit pattern. The exhaustive
/// destructuring makes a new field a compile error here.
fn fingerprint(s: &SimStats) -> [u64; 13] {
    let SimStats {
        cycles,
        accesses,
        reads,
        writes,
        l2_hits,
        l2_misses,
        md_hits,
        md_misses,
        buddy_accesses,
        dram_sectors,
        link_sectors_in,
        link_sectors_out,
        host_native_accesses,
    } = *s;
    [
        cycles.to_bits(),
        accesses,
        reads,
        writes,
        l2_hits,
        l2_misses,
        md_hits,
        md_misses,
        buddy_accesses,
        dram_sectors,
        link_sectors_in,
        link_sectors_out,
        host_native_accesses,
    ]
}

/// Rows in `LANES` × `MODES` × `FIDELITIES` order, recorded from an
/// engine whose event queue was a binary heap: any correct queue pops the
/// same `(time, lane)` sequence and must reproduce them bit for bit.
#[rustfmt::skip]
const GOLDEN: [[u64; 13]; 18] = [
    // 1 lane, Uncompressed, Fast
    [4697409764880551016, 4000, 2842, 1158, 897, 2997, 0, 0, 0, 4153, 167, 62, 106],
    // 1 lane, Uncompressed, Detailed
    [4697537523848184658, 4000, 2842, 1158, 897, 2997, 0, 0, 0, 4153, 167, 62, 106],
    // 1 lane, BandwidthCompressed, Fast
    [4697884497091430165, 4000, 2842, 1158, 1453, 2441, 0, 0, 0, 5316, 167, 62, 106],
    // 1 lane, BandwidthCompressed, Detailed
    [4698029758970872317, 4000, 2842, 1158, 1453, 2441, 0, 0, 0, 5316, 167, 62, 106],
    // 1 lane, Buddy, Fast
    [4698849265119228230, 4000, 2842, 1158, 1453, 2441, 878, 1514, 974, 4735, 1795, 62, 106],
    // 1 lane, Buddy, Detailed
    [4698963365877066485, 4000, 2842, 1158, 1453, 2441, 878, 1514, 974, 4735, 1795, 62, 106],
    // 300 lanes, Uncompressed, Fast
    [4660750588654876536, 4000, 2842, 1158, 897, 2997, 0, 0, 0, 4153, 167, 62, 106],
    // 300 lanes, Uncompressed, Detailed
    [4661088431927704509, 4000, 2842, 1158, 897, 2997, 0, 0, 0, 4153, 167, 62, 106],
    // 300 lanes, BandwidthCompressed, Fast
    [4661419691569241275, 4000, 2842, 1158, 1453, 2441, 0, 0, 0, 5316, 167, 62, 106],
    // 300 lanes, BandwidthCompressed, Detailed
    [4661597522670543088, 4000, 2842, 1158, 1453, 2441, 0, 0, 0, 5316, 167, 62, 106],
    // 300 lanes, Buddy, Fast
    [4662577453368369509, 4000, 2842, 1158, 1453, 2441, 878, 1514, 974, 4735, 1795, 62, 106],
    // 300 lanes, Buddy, Detailed
    [4662761873476352708, 4000, 2842, 1158, 1453, 2441, 878, 1514, 974, 4735, 1795, 62, 106],
    // 6000 lanes, Uncompressed, Fast
    [4651914209037954990, 4000, 2842, 1158, 897, 2997, 0, 0, 0, 4153, 167, 62, 106],
    // 6000 lanes, Uncompressed, Detailed
    [4655365125482112382, 4000, 2842, 1158, 897, 2997, 0, 0, 0, 4153, 167, 62, 106],
    // 6000 lanes, BandwidthCompressed, Fast
    [4652326158417151394, 4000, 2842, 1158, 1453, 2441, 0, 0, 0, 5316, 167, 62, 106],
    // 6000 lanes, BandwidthCompressed, Detailed
    [4655598221947200894, 4000, 2842, 1158, 1453, 2441, 0, 0, 0, 5316, 167, 62, 106],
    // 6000 lanes, Buddy, Fast
    [4654058354446485102, 4000, 2842, 1158, 1453, 2441, 878, 1514, 974, 4735, 1795, 62, 106],
    // 6000 lanes, Buddy, Detailed
    [4658215655312274111, 4000, 2842, 1158, 1453, 2441, 878, 1514, 974, 4735, 1795, 62, 106],
];

#[test]
fn engine_stats_match_the_recorded_golden_values() {
    let mut row = 0;
    for lanes in LANES {
        for mode in MODES {
            for fidelity in FIDELITIES {
                let exec = ExecConfig {
                    lanes,
                    compute_cycles: 20.0,
                    accesses: ACCESSES,
                };
                let stats = Engine::new(GpuConfig::p100(), exec, mode, fidelity, &MixedLayout)
                    .run(&mut trace());
                assert_eq!(
                    fingerprint(&stats),
                    GOLDEN[row],
                    "lanes {lanes}, {mode:?}, {fidelity:?}"
                );
                row += 1;
            }
        }
    }
}
