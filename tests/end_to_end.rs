//! Cross-crate integration tests: the full paper pipeline from synthetic
//! workload data through BPC, the profiler, the functional device and the
//! performance simulator.

use buddy_compression::bpc::{BitPlane, Codec, CodecKind, CompressedBuf, ENTRY_BYTES};
use buddy_compression::buddy_core::{
    choose_naive, choose_targets, BuddyDevice, DeviceConfig, ProfileConfig, TargetRatio,
};
use buddy_compression::gpu_sim::{Engine, ExecConfig, Fidelity, GpuConfig, MemoryMode};
use buddy_compression::workloads::snapshot::{capture, SnapshotConfig};
use buddy_compression::workloads::{all_benchmarks, by_name, entry_gen, geomean, Scale};
use buddy_compression::{
    benchmark_requests, profile_benchmark, profile_benchmark_with, BenchmarkLayout,
};

fn test_bench(name: &str) -> buddy_compression::workloads::Benchmark {
    let mut b = by_name(name).expect("benchmark exists");
    b.scale = Scale::test();
    b
}

/// The full §3.5 flow on a real workload image, ending with lossless
/// read-back from the functional device.
#[test]
fn profile_allocate_write_read_round_trip() {
    let bench = test_bench("356.sp");
    let profiles = profile_benchmark(&bench, 512, 3);
    let outcome = choose_targets(&profiles, &ProfileConfig::default());

    let mut device = BuddyDevice::new(DeviceConfig {
        device_capacity: 64 << 20,
        carve_out_factor: 3,
    });
    let layout = bench.allocation_layout();
    for ((spec, entries), choice) in layout.iter().zip(outcome.choices.iter()) {
        let n = (*entries).min(256); // subset per allocation keeps this fast
        let alloc = device.alloc(spec.name, n, choice.target).expect("fits");
        let alloc_seed = buddy_compression::workloads::entry_gen::mix(&[3, 0]);
        for i in 0..n {
            let entry = spec.entry_at(alloc_seed, i, 0.5);
            device.write_entries(alloc, i, &[entry]).expect("write");
            let mut out = [[0u8; ENTRY_BYTES]];
            device.read_entries(alloc, i, &mut out).expect("read");
            assert_eq!(out[0], entry);
        }
    }
    assert!(device.effective_ratio() > 1.5, "356.sp compresses well");
}

/// The codec-agnostic pipeline end to end: profile under each registered
/// codec and choose targets from that codec's histograms, then batch-write
/// and batch-read a real workload image through the device at those
/// targets. The device stores BPC streams whichever codec chose its
/// targets, and every read-back must be lossless.
#[test]
fn codec_agnostic_pipeline_round_trips() {
    let bench = test_bench("370.bt");
    for codec in CodecKind::ALL {
        let profiles = profile_benchmark_with(&bench, codec, 256, 3);
        let outcome = choose_targets(&profiles, &ProfileConfig::default());
        let mut device = BuddyDevice::new(DeviceConfig {
            device_capacity: 32 << 20,
            carve_out_factor: 3,
        });
        for (idx, ((spec, entries), choice)) in bench
            .allocation_layout()
            .into_iter()
            .zip(outcome.choices.iter())
            .enumerate()
        {
            let n = entries.min(128);
            let alloc = device.alloc(spec.name, n, choice.target).expect("fits");
            let alloc_seed = entry_gen::mix(&[3, idx as u64]);
            let data: Vec<[u8; ENTRY_BYTES]> =
                (0..n).map(|i| spec.entry_at(alloc_seed, i, 0.5)).collect();
            device.write_entries(alloc, 0, &data).expect("batch write");
            let mut out = vec![[0u8; ENTRY_BYTES]; n as usize];
            device.read_entries(alloc, 0, &mut out).expect("batch read");
            assert_eq!(
                out, data,
                "{codec}/{}: lossless batched read-back",
                spec.name
            );
        }
        assert!(device.effective_ratio() >= 1.0 - 1e-9);
    }
}

/// The §3.5 flow served multi-tenant: profiled targets drive concurrent
/// clients writing a real workload image through a sharded pool, with
/// lossless read-back under cross-client concurrency and the same
/// compression the single-device flow achieves.
#[test]
fn pooled_pipeline_round_trips_concurrently() {
    use buddy_compression::buddy_pool::{BuddyPool, PoolConfig};

    let bench = test_bench("356.sp");
    let profiles = profile_benchmark(&bench, 512, 3);
    let outcome = choose_targets(&profiles, &ProfileConfig::default());

    let pool = BuddyPool::new(PoolConfig {
        shards: 4,
        shard_config: DeviceConfig {
            device_capacity: 16 << 20,
            carve_out_factor: 3,
        },
        ..PoolConfig::default()
    });
    // One client per allocation, all writing and verifying concurrently.
    std::thread::scope(|scope| {
        for (idx, ((spec, entries), choice)) in bench
            .allocation_layout()
            .into_iter()
            .zip(outcome.choices.iter())
            .enumerate()
        {
            let pool = &pool;
            scope.spawn(move || {
                let n = entries.min(256);
                let alloc = pool.alloc(spec.name, n, choice.target).expect("fits");
                let alloc_seed = entry_gen::mix(&[3, idx as u64]);
                let data: Vec<[u8; ENTRY_BYTES]> =
                    (0..n).map(|i| spec.entry_at(alloc_seed, i, 0.5)).collect();
                pool.write_entries(alloc, 0, &data).expect("batch write");
                let mut out = vec![[0u8; ENTRY_BYTES]; n as usize];
                pool.read_entries(alloc, 0, &mut out).expect("batch read");
                assert_eq!(out, data, "{}: lossless under concurrency", spec.name);
            });
        }
    });
    let logical: u64 = pool.occupancy().iter().map(|o| o.logical_bytes).sum();
    assert!(
        logical as f64 / pool.device_used() as f64 > 1.5,
        "356.sp compresses well pooled"
    );
    let stats = pool.drain();
    assert_eq!(
        stats.total_accesses(),
        2 * logical / ENTRY_BYTES as u64,
        "one write + one read per entry"
    );
}

/// The static buddy fraction predicted by the profiler matches what the
/// functional device actually observes when the data is stored.
#[test]
fn profiler_prediction_matches_device_behavior() {
    let bench = test_bench("354.cg");
    let profiles = profile_benchmark(&bench, 2048, 5);
    let outcome = choose_targets(&profiles, &ProfileConfig::default());

    let mut device = BuddyDevice::new(DeviceConfig {
        device_capacity: 64 << 20,
        carve_out_factor: 3,
    });
    let layout = bench.allocation_layout();
    let mut predicted = 0.0;
    let mut total = 0.0;
    for (idx, ((spec, _), choice)) in layout.iter().zip(outcome.choices.iter()).enumerate() {
        let n = 512u64;
        let alloc = device.alloc(spec.name, n, choice.target).expect("fits");
        let alloc_seed = buddy_compression::workloads::entry_gen::mix(&[5, idx as u64]);
        for i in 0..n {
            device
                .write_entries(alloc, i, &[spec.entry_at(alloc_seed, i, 0.5)])
                .expect("write");
        }
        predicted += n as f64 * choice.overflow_frac;
        total += n as f64;
    }
    let predicted_frac = predicted / total;
    let measured = device.stats().buddy_access_fraction();
    assert!(
        (measured - predicted_frac).abs() < 0.05,
        "predicted {predicted_frac:.3} vs measured {measured:.3}"
    );
}

/// BPC really compresses the synthetic suite to the paper's Figure 3 level.
#[test]
fn suite_compression_matches_paper_shape() {
    let codec = BitPlane::new();
    let mut hpc = Vec::new();
    let mut dl = Vec::new();
    for mut bench in all_benchmarks() {
        bench.scale = Scale::test();
        let config = SnapshotConfig {
            seed: 7,
            sample_cap: 1024,
            ..Default::default()
        };
        let ratio = capture(&bench, &[0.5], config)[0].compression_ratio();
        if bench.suite.is_hpc() {
            hpc.push(ratio);
        } else {
            dl.push(ratio);
        }
    }
    let hpc = geomean(hpc);
    let dl = geomean(dl);
    assert!(
        (hpc - 2.51).abs() < 0.5,
        "HPC geomean {hpc:.2} vs paper 2.51"
    );
    assert!((dl - 1.85).abs() < 0.35, "DL geomean {dl:.2} vs paper 1.85");
    // Sanity: the codec itself is lossless on a workload entry.
    let bench = test_bench("351.palm");
    let spec = &bench.allocations[0];
    let entry = spec.entry_at(1, 0, 0.5);
    let mut buf = CompressedBuf::new();
    codec.compress_into(&entry, &mut buf);
    let mut restored = [0u8; ENTRY_BYTES];
    codec
        .decompress_into(buf.data(), buf.bits(), &mut restored)
        .unwrap();
    assert_eq!(restored, entry);
}

/// Final-design targets dominate the naive single-target policy on the
/// (compression ratio, buddy traffic) tradeoff at suite level.
#[test]
fn final_policy_dominates_naive() {
    let mut final_ratios = Vec::new();
    let mut naive_ratios = Vec::new();
    let mut final_buddy = 0.0;
    let mut naive_buddy = 0.0;
    for mut bench in all_benchmarks() {
        bench.scale = Scale::test();
        let profiles = profile_benchmark(&bench, 512, 11);
        let fin = choose_targets(&profiles, &ProfileConfig::default());
        let naive = choose_naive(&profiles);
        final_ratios.push(fin.device_compression_ratio());
        naive_ratios.push(naive.device_compression_ratio());
        final_buddy += fin.static_buddy_fraction();
        naive_buddy += naive.static_buddy_fraction();
    }
    assert!(geomean(final_ratios) > geomean(naive_ratios) - 0.05);
    assert!(
        final_buddy < naive_buddy * 0.6,
        "final must cut buddy traffic substantially"
    );
}

/// The performance simulator runs the whole suite in every mode without
/// panicking and produces self-consistent statistics.
#[test]
fn simulator_smoke_over_suite() {
    for mut bench in all_benchmarks() {
        bench.scale = Scale::test();
        let profiles = profile_benchmark(&bench, 256, 13);
        let outcome = choose_targets(&profiles, &ProfileConfig::default());
        let gpu = GpuConfig::p100();
        let exec = ExecConfig::from_profile(&gpu, bench.access.mlp, 30.0, 5_000);
        for mode in [
            MemoryMode::Uncompressed,
            MemoryMode::BandwidthCompressed,
            MemoryMode::Buddy,
        ] {
            let stats = match mode {
                MemoryMode::Uncompressed => {
                    let layout = BenchmarkLayout::uncompressed(&bench);
                    Engine::new(gpu, exec, mode, Fidelity::Fast, &layout)
                        .run(&mut benchmark_requests(&bench, 13))
                }
                _ => {
                    let layout = BenchmarkLayout::new(&bench, &outcome, 0.9, 13);
                    Engine::new(gpu, exec, mode, Fidelity::Fast, &layout)
                        .run(&mut benchmark_requests(&bench, 13))
                }
            };
            assert_eq!(stats.accesses, 5_000, "{}: all accesses retire", bench.name);
            assert!(stats.cycles > 0.0);
            assert_eq!(stats.reads + stats.writes, stats.accesses);
            if mode != MemoryMode::Buddy {
                assert_eq!(
                    stats.buddy_accesses, 0,
                    "{}: only Buddy overflows",
                    bench.name
                );
                assert_eq!(stats.md_misses, 0);
            }
        }
    }
}

/// Zero-page targets survive end to end: a mostly-zero allocation costs
/// 8 B/entry on the device and reads back losslessly.
#[test]
fn zero_page_pipeline() {
    let bench = test_bench("352.ep");
    let profiles = profile_benchmark(&bench, 1024, 17);
    let outcome = choose_targets(&profiles, &ProfileConfig::default());
    // results_zero is eligible for 16x but may be demoted to respect the
    // carve-out bound; either way it must compress at 4x or better.
    let choice = outcome
        .choices
        .iter()
        .find(|c| c.name == "results_zero")
        .expect("allocation present");
    assert!(
        choice.target == TargetRatio::ZeroPage16 || choice.target == TargetRatio::R4,
        "zeros compress aggressively, got {}",
        choice.target
    );
    assert!(
        outcome.device_compression_ratio() <= 4.0 + 1e-9,
        "carve-out bound"
    );
    assert!(
        outcome.device_compression_ratio() > 2.5,
        "352.ep compresses well"
    );
}
