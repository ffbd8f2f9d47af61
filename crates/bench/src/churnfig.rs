//! Allocation churn at steady state: the lifecycle the paper's workloads
//! actually live in.
//!
//! DL training re-allocates its activations every iteration and HPC
//! solvers cycle scratch buffers per timestep (§4.2), so a deployed Buddy
//! device serves a working set that turns over constantly. This harness
//! drives one [`BuddyDevice`] with the `workloads::churn` trace under each
//! lifetime distribution — mixed uniform lifetimes, memoryless
//! (exponential) churn, and DL-iteration LIFO activation turnover — at
//! ~90% steady-state device pressure, and samples what a long-running
//! operator would watch:
//!
//! * **effective ratio** — compression achieved by the live working set;
//! * **fragmentation** — the fraction of free device bytes unreachable by
//!   one maximal allocation (`1 − largest_free_region/device_free`);
//! * **alloc-failure rate** — requests the device had to reject because no
//!   contiguous run could host them.
//!
//! The run ends with a drain check: freeing every survivor must return
//! the device to zero bytes used with zero fragmentation (leak freedom —
//! the same property `churn_equivalence.rs` proves exhaustively).

use crate::report::{f3, pct, print_table, write_csv, RunConfig};
use buddy_compression::bpc::ENTRY_BYTES;
use buddy_compression::buddy_core::{BuddyDevice, DeviceConfig, DeviceError, TargetRatio};
use buddy_compression::workloads::entry_gen::{mix, EntryClass};
use buddy_compression::workloads::{ChurnConfig, ChurnOp, ChurnTrace, Lifetime};
use std::collections::HashMap;
use std::io;

/// Steady-state live allocations.
fn live_target(quick: bool) -> usize {
    if quick {
        24
    } else {
        48
    }
}

/// Live-set turnovers per lifetime distribution (one cycle ≈ every live
/// slot freed and replaced once).
fn cycles(quick: bool) -> u64 {
    if quick {
        12
    } else {
        60
    }
}

/// Sample rows recorded per lifetime distribution.
const SAMPLES: u64 = 6;

/// Allocation size range, in entries.
const MIN_ENTRIES: u64 = 16;
const MAX_ENTRIES: u64 = 384;

/// Entries written per allocation (a prefix — enough to give the live set
/// a real compressed footprint without dominating the run in write time).
const WRITE_PREFIX: u64 = 48;

/// The lifetime distributions swept, with their table labels. The
/// DL-iteration layer count equals the other distributions' live target,
/// so all three run at the same peak footprint.
fn distributions(live: usize) -> Vec<(&'static str, Lifetime)> {
    vec![
        (
            "uniform",
            Lifetime::Uniform {
                min_ops: 32,
                max_ops: 512,
            },
        ),
        ("exponential", Lifetime::Exponential { mean_ops: 192.0 }),
        ("dl-iteration", Lifetime::Iteration { layers: live }),
    ]
}

/// Target ratio for a churn key: a profiled-workload-like mix, heavier on
/// the compressive targets (deterministic per key).
fn target_for(key: u64, seed: u64) -> TargetRatio {
    match mix(&[seed, 0x7A26, key]) % 8 {
        0 | 1 => TargetRatio::R4,
        2..=5 => TargetRatio::R2,
        6 => TargetRatio::R1_33,
        _ => TargetRatio::ZeroPage16,
    }
}

/// Payload class for a churn key, roughly matched to its target so the
/// steady-state effective ratio reflects sensible profiling.
fn class_for(target: TargetRatio) -> EntryClass {
    match target {
        TargetRatio::ZeroPage16 => EntryClass::Zero,
        TargetRatio::R4 => EntryClass::Noisy { noise_bits: 0 },
        TargetRatio::R2 => EntryClass::Noisy { noise_bits: 10 },
        TargetRatio::R1_33 => EntryClass::Noisy { noise_bits: 19 },
        TargetRatio::R1 => EntryClass::Random,
    }
}

/// One sampled steady-state row.
pub struct ChurnRow {
    /// Lifetime-distribution label.
    pub lifetime: &'static str,
    /// Live-set turnover cycle this row samples.
    pub cycle: u64,
    /// Trace operations executed so far.
    pub ops: u64,
    /// Live allocations at the sample point.
    pub live: usize,
    /// Fraction of device capacity in use.
    pub device_used_frac: f64,
    /// Effective compression ratio of the live working set.
    pub effective_ratio: f64,
    /// Device free-space fragmentation.
    pub fragmentation: f64,
    /// Cumulative allocation attempts.
    pub alloc_attempts: u64,
    /// Cumulative allocation rejections.
    pub alloc_failures: u64,
}

impl ChurnRow {
    /// Cumulative fraction of allocation attempts rejected.
    pub fn failure_rate(&self) -> f64 {
        if self.alloc_attempts == 0 {
            return 0.0;
        }
        self.alloc_failures as f64 / self.alloc_attempts as f64
    }
}

/// Runs one lifetime distribution to steady state, sampling `SAMPLES`
/// evenly spaced cycles. Returns the rows; panics (it is a harness) if
/// the final drain finds a leak.
pub fn run_distribution(label: &'static str, lifetime: Lifetime, cfg: &RunConfig) -> Vec<ChurnRow> {
    let live = live_target(cfg.quick);
    let churn_cfg = ChurnConfig {
        live_target: live,
        min_entries: MIN_ENTRIES,
        max_entries: MAX_ENTRIES,
        lifetime,
        seed: cfg.seed,
    };
    // ~90% steady-state pressure: mean allocation footprint × live target,
    // with the device sized just above it so fragmentation and occasional
    // rejections are visible rather than engineered away.
    let mean_entries = (MIN_ENTRIES + MAX_ENTRIES) / 2;
    let mean_device_bytes = 53; // the target mix's weighted bytes/entry
    let steady = live as u64 * mean_entries * mean_device_bytes;
    let mut dev = BuddyDevice::new(DeviceConfig {
        device_capacity: steady * 10 / 9,
        carve_out_factor: 3,
    });

    let ops_per_cycle = live as u64 * 2;
    let total_ops = cycles(cfg.quick) * ops_per_cycle;
    let sample_every = (cycles(cfg.quick) / SAMPLES).max(1);
    let mut trace = ChurnTrace::new(churn_cfg);
    let mut handles: HashMap<u64, buddy_compression::buddy_core::AllocId> = HashMap::new();
    let mut attempts = 0u64;
    let mut failures = 0u64;
    let mut rows = Vec::new();
    let mut write_buf = vec![[0u8; ENTRY_BYTES]; WRITE_PREFIX as usize];

    for op_index in 0..total_ops {
        #[expect(
            clippy::expect_used,
            reason = "churn traces are infinite by construction"
        )]
        let op = trace.next().expect("churn traces are infinite");
        match op {
            ChurnOp::Alloc { key, entries } => {
                attempts += 1;
                let target = target_for(key, cfg.seed);
                match dev.alloc(&format!("k{key}"), entries, target) {
                    Ok(id) => {
                        // Fill a prefix with payload matched to the target.
                        let n = entries.min(WRITE_PREFIX) as usize;
                        let class = class_for(target);
                        for (i, slot) in write_buf[..n].iter_mut().enumerate() {
                            *slot = class.generate(mix(&[cfg.seed, key, i as u64]));
                        }
                        #[expect(
                            clippy::expect_used,
                            reason = "the WRITE_PREFIX window is in range for every accepted alloc"
                        )]
                        dev.write_entries(id, 0, &write_buf[..n])
                            .expect("prefix is in range");
                        handles.insert(key, id);
                    }
                    Err(
                        DeviceError::OutOfDeviceMemory { .. }
                        | DeviceError::OutOfBuddyMemory { .. },
                    ) => failures += 1,
                    #[expect(
                        clippy::panic,
                        reason = "any error besides out-of-memory is a harness bug; abort with its message"
                    )]
                    Err(other) => panic!("unexpected alloc error: {other}"),
                }
            }
            ChurnOp::Free { key } => {
                // Keys whose alloc was rejected have no handle to free.
                if let Some(id) = handles.remove(&key) {
                    #[expect(clippy::expect_used, reason = "the handle came from the live map")]
                    dev.free(id).expect("live handle frees cleanly");
                }
            }
        }
        // Sample mid-cycle: at exact cycle boundaries the DL-iteration
        // trace has just drained its backward pass (live = 0), which is
        // the one instant that does not represent its steady footprint.
        let cycle = (op_index + 1) / ops_per_cycle + 1;
        let mid_cycle = (op_index + 1) % ops_per_cycle == ops_per_cycle / 2;
        if mid_cycle && cycle.is_multiple_of(sample_every) && rows.len() < SAMPLES as usize {
            rows.push(ChurnRow {
                lifetime: label,
                cycle,
                ops: op_index + 1,
                live: dev.allocation_count(),
                device_used_frac: dev.device_used() as f64 / dev.config().device_capacity as f64,
                effective_ratio: dev.effective_ratio(),
                fragmentation: dev.fragmentation(),
                alloc_attempts: attempts,
                alloc_failures: failures,
            });
        }
    }

    // Leak freedom: drain the survivors; the device must return to empty
    // with its free space fully coalesced.
    for (_, id) in handles.drain() {
        #[expect(
            clippy::expect_used,
            reason = "drained handles are live by construction"
        )]
        dev.free(id).expect("survivor frees cleanly");
    }
    assert_eq!(dev.device_used(), 0, "{label}: leaked device bytes");
    assert_eq!(dev.buddy_used(), 0, "{label}: leaked buddy bytes");
    assert_eq!(
        dev.fragmentation(),
        0.0,
        "{label}: free space not coalesced"
    );
    rows
}

/// The `churn` harness: steady-state churn sweep over the lifetime
/// distributions, with a CSV artifact.
pub fn churn(cfg: &RunConfig) -> io::Result<()> {
    let header = [
        "lifetime",
        "cycle",
        "ops",
        "live",
        "device_used_frac",
        "effective_ratio",
        "fragmentation",
        "alloc_attempts",
        "alloc_failures",
        "failure_rate",
    ];
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut finals: Vec<ChurnRow> = Vec::new();
    for (label, lifetime) in distributions(live_target(cfg.quick)) {
        let sampled = run_distribution(label, lifetime, cfg);
        for row in &sampled {
            rows.push(vec![
                row.lifetime.to_string(),
                row.cycle.to_string(),
                row.ops.to_string(),
                row.live.to_string(),
                pct(row.device_used_frac),
                f3(row.effective_ratio),
                pct(row.fragmentation),
                row.alloc_attempts.to_string(),
                row.alloc_failures.to_string(),
                pct(row.failure_rate()),
            ]);
        }
        if let Some(last) = sampled.into_iter().last() {
            finals.push(last);
        }
    }
    print_table(
        "Allocation churn: steady state per lifetime distribution",
        &header,
        &rows,
    );
    for row in &finals {
        println!(
            "  {}: steady-state ratio {:.2}x, fragmentation {:.1}%, \
             alloc-failure rate {:.1}% over {} cycles",
            row.lifetime,
            row.effective_ratio,
            100.0 * row.fragmentation,
            100.0 * row.failure_rate(),
            row.cycle
        );
    }
    println!("  Every run ends with a drain check: freeing the survivors returns the");
    println!("  device to 0 bytes used with fully coalesced free space (leak freedom).");
    write_csv(&cfg.results_dir, "churn", &header, &rows)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(dir: &str) -> RunConfig {
        RunConfig {
            quick: true,
            results_dir: std::env::temp_dir().join(dir),
            ..Default::default()
        }
    }

    #[test]
    fn harness_writes_the_csv_artifact() {
        let cfg = quick_cfg("buddy-bench-churnfig");
        let _ = std::fs::remove_dir_all(&cfg.results_dir);
        churn(&cfg).unwrap();
        let csv = std::fs::read_to_string(cfg.results_dir.join("churn.csv")).unwrap();
        let mut lines = csv.lines();
        assert!(lines.next().unwrap().starts_with("lifetime,cycle,ops"));
        // Three distributions × SAMPLES rows.
        assert_eq!(lines.count(), 3 * SAMPLES as usize);
    }

    #[test]
    fn steady_state_is_compressed_and_mostly_servable() {
        let cfg = quick_cfg("buddy-bench-churnfig-steady");
        for (label, lifetime) in distributions(live_target(true)) {
            let rows = run_distribution(label, lifetime, &cfg);
            let last = rows.last().expect("samples recorded");
            assert!(
                last.effective_ratio > 1.3,
                "{label}: ratio {} not compressed",
                last.effective_ratio
            );
            assert!(
                last.failure_rate() < 0.5,
                "{label}: failure rate {} — the device is thrashing",
                last.failure_rate()
            );
            assert!(
                last.live > 0 && last.live <= live_target(true),
                "{label}: live {} escaped steady state",
                last.live
            );
            // run_distribution's internal drain also asserted leak freedom.
        }
    }

    #[test]
    fn churn_runs_are_deterministic() {
        let cfg = quick_cfg("buddy-bench-churnfig-det");
        let (label, lifetime) = ("uniform", distributions(live_target(true))[0].1);
        let a = run_distribution(label, lifetime, &cfg);
        let b = run_distribution(label, lifetime, &cfg);
        assert_eq!(a.len(), b.len());
        for (ra, rb) in a.iter().zip(b.iter()) {
            assert_eq!(ra.ops, rb.ops);
            assert_eq!(ra.live, rb.live);
            assert_eq!(ra.alloc_failures, rb.alloc_failures);
            assert_eq!(ra.effective_ratio, rb.effective_ratio);
            assert_eq!(ra.fragmentation, rb.fragmentation);
        }
    }
}
