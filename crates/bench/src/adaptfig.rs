//! Adaptive re-targeting study: static one-shot profiling vs the online
//! policy, over the drift workload (DESIGN.md §8).
//!
//! The paper's flow picks each allocation's target ratio once, from a
//! profiling pass merging snapshots across the whole run (§3.5). For data
//! whose compressibility *drifts* (§3.1, Figure 8) that one-shot choice is
//! necessarily a compromise. This harness runs both arms over the
//! `workloads::drift` suite — equal phases, identical bytes:
//!
//! * **static** — targets from `choose_targets` on the merged all-phase
//!   profile, frozen forever (the paper's deployment model);
//! * **adaptive** — the *same* initial targets, plus a
//!   [`ProfileConfig::recommend`] sweep after every phase's writes that
//!   migrates allocations with [`BuddyDevice::retarget`].
//!
//! Per phase it reports the device's effective compression ratio, the
//! buddy-access fraction of a full read pass, and — for the adaptive arm —
//! the migration count and moved-sector overhead, so the capacity win is
//! priced against the migration traffic that bought it.

use crate::report::{f3, pct, print_table, write_csv, RunConfig};
use buddy_compression::bpc::{Codec, CodecKind, CompressedBuf, SizeHistogram, ENTRY_BYTES};
use buddy_compression::buddy_core::{
    choose_targets, AllocationProfile, BuddyDevice, DeviceConfig, ProfileConfig, TargetRatio,
};
use buddy_compression::workloads::entry_gen::mix;
use buddy_compression::workloads::{drift_allocations, AllocationSpec, DRIFT_PHASES};
use std::io;

/// Entries per drift allocation.
fn entries_per_alloc(quick: bool) -> u64 {
    if quick {
        2048
    } else {
        8192
    }
}

/// Snapshot phases of the study, evenly spaced over the run.
fn phases(quick: bool) -> Vec<f64> {
    let n = if quick { 6 } else { DRIFT_PHASES };
    (0..n).map(|i| i as f64 / (n - 1) as f64).collect()
}

/// Entries sampled per allocation per phase when profiling.
const PROFILE_CAP: u64 = 1024;

/// One measured phase of one arm.
struct PhaseRow {
    phase: f64,
    policy: &'static str,
    effective_ratio: f64,
    read_buddy_frac: f64,
    retargets: u64,
    moved_sectors: u64,
    targets: String,
}

/// Profiles the drift specs by BPC-compressing sampled entries at each given
/// phase and merging the histograms — `phases = all` is the paper's
/// static whole-run profile, a single late phase is the post-drift oracle
/// the convergence test compares against.
pub fn profile_drift(
    specs: &[AllocationSpec],
    entries: u64,
    seed: u64,
    phases: &[f64],
) -> Vec<AllocationProfile> {
    let mut scratch = CompressedBuf::new();
    specs
        .iter()
        .enumerate()
        .map(|(idx, spec)| {
            let alloc_seed = mix(&[seed, idx as u64]);
            let stride = (entries / PROFILE_CAP).max(1);
            let mut histogram = SizeHistogram::new();
            for &phase in phases {
                let mut i = 0;
                while i < entries {
                    let entry = spec.entry_at(alloc_seed, i, phase);
                    histogram.record(CodecKind::Bpc.size_class_into(&entry, &mut scratch));
                    i += stride;
                }
            }
            AllocationProfile {
                name: spec.name.to_owned(),
                entries,
                histogram,
            }
        })
        .collect()
}

/// Runs one arm over every phase; returns the per-phase rows and the final
/// per-allocation targets.
fn run_arm(
    adaptive: bool,
    specs: &[AllocationSpec],
    initial: &[TargetRatio],
    entries: u64,
    seed: u64,
    phase_list: &[f64],
) -> (Vec<PhaseRow>, Vec<TargetRatio>) {
    const BATCH: usize = 256;
    let mut dev = BuddyDevice::new(DeviceConfig {
        // Sized so every allocation fits even fully demoted to 1x.
        device_capacity: specs.len() as u64 * entries * ENTRY_BYTES as u64,
        carve_out_factor: 3,
    });
    #[expect(
        clippy::expect_used,
        reason = "device is sized for every spec even fully demoted to 1x"
    )]
    let ids: Vec<_> = specs
        .iter()
        .zip(initial.iter())
        .map(|(spec, &target)| dev.alloc(spec.name, entries, target).expect("device sized"))
        .collect();
    let policy = ProfileConfig::default();

    let mut rows = Vec::new();
    let mut batch = vec![[0u8; ENTRY_BYTES]; BATCH];
    for &phase in phase_list {
        // The phase's memory image, written through the compressed path.
        for (idx, (spec, &id)) in specs.iter().zip(ids.iter()).enumerate() {
            let alloc_seed = mix(&[seed, idx as u64]);
            let mut start = 0u64;
            while start < entries {
                let len = ((entries - start) as usize).min(BATCH);
                for (k, slot) in batch[..len].iter_mut().enumerate() {
                    *slot = spec.entry_at(alloc_seed, start + k as u64, phase);
                }
                #[expect(
                    clippy::expect_used,
                    reason = "writes stay within the allocation by construction"
                )]
                dev.write_entries(id, start, &batch[..len])
                    .expect("in-range write");
                start += len as u64;
            }
        }
        // The adaptive arm's between-phase sweep.
        let before = dev.stats();
        if adaptive {
            for &id in &ids {
                #[expect(clippy::expect_used, reason = "ids stay live for the whole study")]
                let window = dev.handle().state_window(id).expect("live handle");
                #[expect(clippy::expect_used, reason = "ids stay live for the whole study")]
                let (_, current, _) = dev.allocation_info(id).expect("live handle");
                if let Some(next) = policy.recommend(current, &window) {
                    #[expect(
                        clippy::expect_used,
                        reason = "device is sized for any retarget the policy picks"
                    )]
                    dev.retarget(id, next).expect("device sized for any target");
                }
            }
        }
        let after = dev.stats();
        // Measure the phase: read everything back, count buddy traffic.
        dev.reset_stats();
        let mut sink = vec![[0u8; ENTRY_BYTES]; BATCH];
        for &id in &ids {
            let mut start = 0u64;
            while start < entries {
                let len = ((entries - start) as usize).min(BATCH);
                #[expect(clippy::expect_used, reason = "reads mirror the writes just issued")]
                dev.read_entries(id, start, &mut sink[..len])
                    .expect("in-range read");
                start += len as u64;
            }
        }
        #[expect(clippy::expect_used, reason = "ids stay live for the whole study")]
        let targets: Vec<String> = ids
            .iter()
            .map(|&id| dev.allocation_info(id).expect("live handle").1.to_string())
            .collect();
        rows.push(PhaseRow {
            phase,
            policy: if adaptive { "adaptive" } else { "static" },
            effective_ratio: dev.effective_ratio(),
            read_buddy_frac: dev.stats().buddy_access_fraction(),
            retargets: after.retargets - before.retargets,
            moved_sectors: after.moved_sectors - before.moved_sectors,
            targets: targets.join("|"),
        });
    }
    #[expect(clippy::expect_used, reason = "ids stay live for the whole study")]
    let finals = ids
        .iter()
        .map(|&id| dev.allocation_info(id).expect("live handle").1)
        .collect();
    (rows, finals)
}

/// Runs the full study (both arms) and returns `(static rows, adaptive
/// rows, adaptive final targets)`.
fn run_study(cfg: &RunConfig) -> (Vec<PhaseRow>, Vec<PhaseRow>, Vec<TargetRatio>) {
    let specs = drift_allocations();
    let entries = entries_per_alloc(cfg.quick);
    let phase_list = phases(cfg.quick);
    let profiles = profile_drift(&specs, entries, cfg.seed, &phase_list);
    let outcome = choose_targets(&profiles, &ProfileConfig::default());
    let initial: Vec<TargetRatio> = outcome.choices.iter().map(|c| c.target).collect();
    let (static_rows, _) = run_arm(false, &specs, &initial, entries, cfg.seed, &phase_list);
    let (adaptive_rows, finals) = run_arm(true, &specs, &initial, entries, cfg.seed, &phase_list);
    (static_rows, adaptive_rows, finals)
}

fn mean(rows: &[PhaseRow], f: impl Fn(&PhaseRow) -> f64) -> f64 {
    rows.iter().map(&f).sum::<f64>() / rows.len() as f64
}

/// The `adaptive-retarget` harness: static-profile vs adaptive-policy sweep
/// over the drift workload, with a CSV artifact.
pub fn adaptive_retarget(cfg: &RunConfig) -> io::Result<()> {
    let (static_rows, adaptive_rows, _) = run_study(cfg);

    let header = [
        "phase",
        "policy",
        "effective_ratio",
        "read_buddy_frac",
        "retargets",
        "moved_sectors",
        "targets",
    ];
    let mut rows: Vec<Vec<String>> = Vec::new();
    for row in static_rows.iter().chain(adaptive_rows.iter()) {
        rows.push(vec![
            format!("{:.2}", row.phase),
            row.policy.to_string(),
            f3(row.effective_ratio),
            pct(row.read_buddy_frac),
            row.retargets.to_string(),
            row.moved_sectors.to_string(),
            row.targets.clone(),
        ]);
    }
    print_table(
        "Online re-targeting: static profile vs adaptive policy (drift workload)",
        &header,
        &rows,
    );
    let static_ratio = mean(&static_rows, |r| r.effective_ratio);
    let adaptive_ratio = mean(&adaptive_rows, |r| r.effective_ratio);
    let moved: u64 = adaptive_rows.iter().map(|r| r.moved_sectors).sum();
    let migrations: u64 = adaptive_rows.iter().map(|r| r.retargets).sum();
    println!(
        "  mean effective ratio: static {static_ratio:.3}x vs adaptive {adaptive_ratio:.3}x \
         ({migrations} migrations, {moved} sectors moved)"
    );
    println!("  The paper freezes targets at profiling time (3.5); the adaptive policy tracks");
    println!("  the drift each phase, paying only the migration traffic priced above.");
    write_csv(&cfg.results_dir, "adaptive_retarget", &header, &rows)?;
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
        let cfg = quick_cfg("buddy-bench-adaptfig");
        let _ = std::fs::remove_dir_all(&cfg.results_dir);
        adaptive_retarget(&cfg).unwrap();
        let csv = std::fs::read_to_string(cfg.results_dir.join("adaptive_retarget.csv")).unwrap();
        let mut lines = csv.lines();
        assert!(lines
            .next()
            .unwrap()
            .starts_with("phase,policy,effective_ratio"));
        // Two arms x six quick phases.
        assert_eq!(lines.count(), 12);
    }

    #[test]
    fn adaptive_beats_static_on_effective_ratio() {
        let cfg = quick_cfg("buddy-bench-adaptfig-ratio");
        let (static_rows, adaptive_rows, _) = run_study(&cfg);
        let static_ratio = mean(&static_rows, |r| r.effective_ratio);
        let adaptive_ratio = mean(&adaptive_rows, |r| r.effective_ratio);
        assert!(
            adaptive_ratio > static_ratio * 1.05,
            "adaptive ({adaptive_ratio:.3}x) must clearly beat static ({static_ratio:.3}x)"
        );
        // ... and the overhead it paid is reported, not hidden.
        assert!(adaptive_rows.iter().map(|r| r.moved_sectors).sum::<u64>() > 0);
        assert_eq!(
            static_rows.iter().map(|r| r.retargets).sum::<u64>(),
            0,
            "the static arm must never migrate"
        );
        // Buddy traffic stays bounded: the policy only promotes with
        // headroom below the Buddy Threshold.
        for row in &adaptive_rows {
            assert!(
                row.read_buddy_frac < 0.35,
                "phase {:.2}: buddy fraction {} escaped the threshold band",
                row.phase,
                row.read_buddy_frac
            );
        }
    }

    #[test]
    fn adaptive_converges_to_the_post_drift_profile_choice() {
        // The satellite guarantee: after the run, the adaptive targets
        // equal what `choose_targets` would pick from a profile taken
        // *after* the drift — the online policy rediscovers the offline
        // answer once the data settles.
        let cfg = quick_cfg("buddy-bench-adaptfig-conv");
        let specs = drift_allocations();
        let entries = entries_per_alloc(true);
        let post_drift = profile_drift(&specs, entries, cfg.seed, &[1.0]);
        let oracle = choose_targets(&post_drift, &ProfileConfig::default());
        let (_, _, finals) = run_study(&cfg);
        for (choice, (&final_target, spec)) in
            oracle.choices.iter().zip(finals.iter().zip(specs.iter()))
        {
            assert_eq!(
                choice.target, final_target,
                "{}: adaptive must converge to the post-drift profile's pick",
                spec.name
            );
        }
        // The control allocation ends where it started: 4x, untouched.
        assert_eq!(finals[2], TargetRatio::R4);
    }
}
