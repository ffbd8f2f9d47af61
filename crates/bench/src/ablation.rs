//! Ablation: why Bit-Plane Compression? (§2.4)
//!
//! The paper chooses BPC "after comparing several algorithms
//! [BDI, FPC, FVC, C-PACK, BPC]". This harness runs the implemented
//! candidates — BPC, BDI, FPC and the zero-detector lower bound — over the
//! full 16-benchmark suite twice:
//!
//! 1. **Capacity** — the Figure 3 size-class accounting (the optimistic
//!    upper bound the paper's §2.4 comparison uses), via the
//!    codec-parameterized snapshot sampler.
//! 2. **Device** — every codec is profiled and given per-allocation
//!    targets under the Buddy Threshold. Each capped allocation's entries
//!    are then classified the way the device stores them
//!    ([`EntryState::stored`] of the codec's size class under the chosen
//!    target), which gives the device compression ratio and the share of
//!    entries that touch buddy memory. No device is built: a store would
//!    only count the same bytes and spills. A `#[cfg(test)]` oracle checks
//!    the BPC columns against a real device, which stores BPC only, bit
//!    for bit; the other codecs' columns are the same classification, and
//!    its codec input is the size class that `bpc`'s `size_class_into`
//!    tests pin.
//!
//! A weaker codec does not overflow more: the profiler gives it lower
//! targets, so it loses device ratio instead. At full scale and the
//! default seed the device GMEAN falls from 1.77 (BPC) to 1.36 (BDI) and
//! 1.03 (FPC), while mean buddy accesses fall too: 3.67 %, 2.78 %,
//! 0.05 %. The FPC and zero columns are equal on all 16 rows: the
//! generators' random base words defeat FPC's narrow-word patterns, so
//! FPC compresses only what the zero detector does.

use crate::report::{f3, pct, print_table, write_csv, RunConfig};
use buddy_compression::bpc::{Codec, CodecKind, CompressedBuf, ENTRY_BYTES};
use buddy_compression::buddy_core::{choose_targets, EntryState, ProfileConfig};
use buddy_compression::profile_benchmark_with;
use buddy_compression::workloads::snapshot::{capture, SnapshotConfig};
use buddy_compression::workloads::{all_benchmarks, entry_gen, geomean, Benchmark};
use std::io;

/// Figure 3-style capacity compression ratio of one benchmark under `codec`.
fn capacity_ratio(codec: CodecKind, bench: &Benchmark, seed: u64, cap: u64) -> f64 {
    let config = SnapshotConfig {
        seed,
        sample_cap: cap,
        codec,
    };
    capture(bench, &[0.5], config)[0].compression_ratio()
}

/// Device-level measurement for one benchmark under one codec.
///
/// Profiles with `codec` and chooses targets, then classifies the first
/// `cap` entries of every allocation as the device would store them.
/// Returns `(device compression ratio, buddy-access fraction)`: logical
/// bytes over reserved device bytes, and the share of entries with a
/// buddy sector. Each entry is written and read once through a device, so
/// the share is also that device's buddy-access fraction.
fn device_columns(codec: CodecKind, bench: &Benchmark, seed: u64, cap: u64) -> (f64, f64) {
    let profiles = profile_benchmark_with(bench, codec, cap, seed);
    let outcome = choose_targets(&profiles, &ProfileConfig::default());
    let mut scratch = CompressedBuf::new();
    let (mut entries, mut device_bytes, mut buddy_entries) = (0u64, 0u64, 0u64);
    for (idx, ((spec, total), choice)) in bench
        .allocation_layout()
        .into_iter()
        .zip(outcome.choices.iter())
        .enumerate()
    {
        let n = total.min(cap);
        let target = choice.target;
        let alloc_seed = entry_gen::mix(&[seed, idx as u64]);
        entries += n;
        device_bytes += n * u64::from(target.device_bytes_per_entry());
        for i in 0..n {
            let class = codec.size_class_into(&spec.entry_at(alloc_seed, i, 0.5), &mut scratch);
            if EntryState::stored(class, target).buddy_sectors(target) > 0 {
                buddy_entries += 1;
            }
        }
    }
    (
        (entries * ENTRY_BYTES as u64) as f64 / device_bytes as f64,
        buddy_entries as f64 / entries as f64,
    )
}

/// Runs the algorithm comparison over the whole suite.
pub fn ablation(cfg: &RunConfig) -> io::Result<()> {
    let cap = if cfg.quick { 512 } else { 4096 };
    let device_cap = if cfg.quick { 256 } else { 1024 };
    let codecs = CodecKind::ALL;
    let mut rows = Vec::new();
    let mut capacity_per_algo: Vec<Vec<f64>> = vec![Vec::new(); codecs.len()];
    let mut device_per_algo: Vec<Vec<f64>> = vec![Vec::new(); codecs.len()];
    let mut buddy_per_algo: Vec<Vec<f64>> = vec![Vec::new(); codecs.len()];
    for bench in all_benchmarks() {
        let mut row = vec![bench.name.to_string()];
        for (i, &codec) in codecs.iter().enumerate() {
            let capacity = capacity_ratio(codec, &bench, cfg.seed, cap);
            let (device_ratio, buddy_frac) = device_columns(codec, &bench, cfg.seed, device_cap);
            capacity_per_algo[i].push(capacity);
            device_per_algo[i].push(device_ratio);
            buddy_per_algo[i].push(buddy_frac);
            row.push(f3(capacity));
            row.push(f3(device_ratio));
            row.push(pct(buddy_frac));
        }
        rows.push(row);
    }
    let header_owned: Vec<String> = std::iter::once("benchmark".to_string())
        .chain(codecs.iter().flat_map(|c| {
            [
                format!("{c}_capacity"),
                format!("{c}_device"),
                format!("{c}_buddy"),
            ]
        }))
        .collect();
    let header: Vec<&str> = header_owned.iter().map(|s| s.as_str()).collect();
    print_table(
        "Ablation: capacity vs device compression by algorithm (§2.4)",
        &header,
        &rows,
    );
    for (i, codec) in codecs.iter().enumerate() {
        println!(
            "  {codec:<8} GMEAN capacity {:.2}  device {:.2}  mean buddy accesses {}",
            geomean(capacity_per_algo[i].iter().copied()),
            geomean(device_per_algo[i].iter().copied()),
            pct(buddy_per_algo[i].iter().sum::<f64>() / buddy_per_algo[i].len().max(1) as f64)
        );
    }
    println!("  BPC leads on the homogeneous numeric data that dominates GPU memory —");
    println!("  the paper's §2.4 rationale for choosing it. A weaker codec does not spill");
    println!("  more: the profiler gives it lower targets, so it loses device ratio instead.");
    println!("  FPC equals zero detection: random base words defeat its narrow patterns.");
    write_csv(&cfg.results_dir, "ablation_algorithms", &header, &rows)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use buddy_compression::buddy_core::{BuddyDevice, DeviceConfig};
    use buddy_compression::profile_benchmark;
    use buddy_compression::workloads::Scale;

    /// BPC must dominate the other general-purpose algorithms on capacity
    /// at suite level.
    fn bpc_wins(seed: u64) -> bool {
        let cap = 256;
        let mut bpc_r = Vec::new();
        let mut bdi_r = Vec::new();
        let mut fpc_r = Vec::new();
        for mut bench in all_benchmarks() {
            bench.scale = Scale::test();
            bpc_r.push(capacity_ratio(CodecKind::Bpc, &bench, seed, cap));
            bdi_r.push(capacity_ratio(CodecKind::Bdi, &bench, seed, cap));
            fpc_r.push(capacity_ratio(CodecKind::Fpc, &bench, seed, cap));
        }
        let g = |v: &[f64]| geomean(v.iter().copied());
        g(&bpc_r) > g(&bdi_r) && g(&bpc_r) > g(&fpc_r)
    }

    /// The reference for [`device_columns`] under BPC: the same profile,
    /// targets and entries, batch-written and read back through a real
    /// `BuddyDevice` sized to the capped workload.
    fn device_run(bench: &Benchmark, seed: u64, cap: u64) -> (f64, f64) {
        const BATCH: usize = 64;
        let profiles = profile_benchmark(bench, cap, seed);
        let outcome = choose_targets(&profiles, &ProfileConfig::default());
        let layout = bench.allocation_layout();
        let (device_need, buddy_need) = layout.iter().zip(outcome.choices.iter()).fold(
            (0u64, 0u64),
            |(d, b), ((_, entries), choice)| {
                let n = (*entries).min(cap);
                (
                    d + n * u64::from(choice.target.device_bytes_per_entry()),
                    b + n * u64::from(choice.target.buddy_bytes_per_entry()),
                )
            },
        );
        let mut device = BuddyDevice::new(DeviceConfig {
            device_capacity: device_need.max(buddy_need.div_ceil(3)).max(1),
            carve_out_factor: 3,
        });
        let mut batch = vec![[0u8; ENTRY_BYTES]; BATCH];
        let mut readback = vec![[0u8; ENTRY_BYTES]; BATCH];
        for (idx, ((spec, entries), choice)) in
            layout.into_iter().zip(outcome.choices.iter()).enumerate()
        {
            let n = entries.min(cap);
            let alloc = device.alloc(spec.name, n, choice.target).unwrap();
            let alloc_seed = entry_gen::mix(&[seed, idx as u64]);
            let mut start = 0u64;
            while start < n {
                let len = ((n - start) as usize).min(BATCH);
                for (k, slot) in batch[..len].iter_mut().enumerate() {
                    *slot = spec.entry_at(alloc_seed, start + k as u64, 0.5);
                }
                device.write_entries(alloc, start, &batch[..len]).unwrap();
                device
                    .read_entries(alloc, start, &mut readback[..len])
                    .unwrap();
                assert_eq!(
                    readback[..len],
                    batch[..len],
                    "{}: lossless read-back",
                    bench.name
                );
                start += len as u64;
            }
        }
        (
            device.effective_ratio(),
            device.stats().buddy_access_fraction(),
        )
    }

    /// Asserts that [`device_columns`] under BPC equals [`device_run`],
    /// bit for bit, on each benchmark at each cap.
    fn assert_matches_device(benches: &[Benchmark], seed: u64, caps: &[u64]) {
        for bench in benches {
            for &cap in caps {
                let (ratio, buddy) = device_columns(CodecKind::Bpc, bench, seed, cap);
                let (device_ratio, device_buddy) = device_run(bench, seed, cap);
                assert_eq!(
                    (ratio.to_bits(), buddy.to_bits()),
                    (device_ratio.to_bits(), device_buddy.to_bits()),
                    "{} at cap {cap}: classified ({ratio}, {buddy}) vs \
                     device ({device_ratio}, {device_buddy})",
                    bench.name
                );
            }
        }
    }

    fn test_scale(name: &str) -> Benchmark {
        let mut bench = all_benchmarks()
            .into_iter()
            .find(|b| b.name == name)
            .unwrap();
        bench.scale = Scale::test();
        bench
    }

    #[test]
    fn bpc_dominates_the_baselines() {
        assert!(
            bpc_wins(23),
            "BPC must beat BDI and FPC at suite level (§2.4)"
        );
    }

    #[test]
    fn classified_columns_equal_a_device_pass() {
        // An HPC stencil and a DL net: the second spills to buddy memory
        // under BPC, so the buddy fraction is checked off zero.
        let benches = [test_scale("370.bt"), test_scale("ResNet50")];
        assert_matches_device(&benches, 23, &[128]);
    }

    /// The harness's own inputs: all 16 benchmarks at figure scale, at the
    /// `--quick` and full device caps, default seed. Slow in a debug build;
    /// run it with `--release -- --ignored`.
    #[test]
    #[ignore = "16 benchmarks x BPC x 2 caps through a device; run in release"]
    fn classified_columns_equal_a_device_pass_on_the_full_suite() {
        let seed = RunConfig::default().seed;
        assert_matches_device(&all_benchmarks(), seed, &[256, 1024]);
    }

    #[test]
    fn bpc_compresses_better_than_zero_rle_end_to_end() {
        // Only the ratio ordering is guaranteed: the profiler re-targets
        // each codec under the same Buddy Threshold, so buddy fractions
        // adapt per codec and carry no fixed ordering.
        let bench = test_scale("356.sp");
        let (bpc_ratio, bpc_buddy) = device_columns(CodecKind::Bpc, &bench, 7, 256);
        let (zero_ratio, zero_buddy) = device_columns(CodecKind::Zero, &bench, 7, 256);
        assert!(
            bpc_ratio >= zero_ratio,
            "BPC device ratio {bpc_ratio:.2} must not lose to zero-RLE {zero_ratio:.2}"
        );
        for buddy in [bpc_buddy, zero_buddy] {
            assert!((0.0..=1.0).contains(&buddy), "buddy fraction {buddy}");
        }
    }
}
