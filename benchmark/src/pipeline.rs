//! `paper_pipeline`: the paper's evaluation flow over all 16 benchmarks,
//! single-threaded — the stand-in for `reproduce-all --quick` wall time
//! that does not depend on `crates/bench`.
//!
//! Per benchmark: `profile_benchmark` (ten BPC snapshots) →
//! `choose_targets(paper_final)` → `Engine::run` in `Uncompressed` and
//! `Buddy` modes over one materialised access trace, plus one
//! `unified_memory::simulate` and one `dl_model::capacity_speedup` per DL
//! net. Pool and service do nothing here. An "op" is one of those library
//! calls; an "entry" is one entry compressed by the profiler.

use crate::data::PROFILE_SAMPLE_CAP;
use crate::quiet::Quiet;
use crate::stats::{percentile, Replay};
use crate::stream::{RunLog, SpanSink};
use crate::surface::{
    all_benchmarks, all_networks, benchmark_requests, capacity_speedup, choose_targets, mix,
    profile_benchmark, um_simulate, Benchmark, BenchmarkLayout, Engine, EntryPlacement, ExecConfig,
    Fidelity, GpuConfig, GpuPerf, MemRequest, MemoryMode, Network, PageAccess, Policy,
    ProfileConfig, Scale, SimStats, SizeHistogram, UmConfig, UniformLayout,
};
use crate::workload::{RepResult, REPLAY_MIN_ARRIVALS};
use std::collections::BTreeMap;
use std::time::Instant;

/// Accesses simulated per benchmark per mode.
pub const SIM_ACCESSES: u64 = 50_000;

/// Entries per 64 KiB unified-memory page.
const ENTRIES_PER_UM_PAGE: u64 = (64 << 10) / 128;

/// Offered load for `due_p99_us`: library calls per second (≈ 40 % of what
/// one thread sustains at seed speed), and the knee's latency limit.
pub const REF_RATE: f64 = 40.0;
pub const LIMIT_US: f64 = 1_000_000.0;

/// Inputs of a pass, built in set-up.
pub struct Inputs {
    benches: Vec<Benchmark>,
    traces: Vec<Vec<MemRequest>>,
    /// The six DL networks with their reference batch sizes.
    networks: Vec<(Network, u64, f64)>,
}

/// Builds the suite at test scale and materialises each benchmark's
/// access trace (both simulator modes replay the same one). Returns the
/// inputs and how long each benchmark's trace took.
pub fn setup(seed: u64) -> (Inputs, Vec<u64>) {
    let benches: Vec<Benchmark> = all_benchmarks()
        .into_iter()
        .map(|mut b| {
            b.scale = Scale::test();
            b
        })
        .collect();
    let mut step_ns = Vec::with_capacity(benches.len());
    let traces = benches
        .iter()
        .map(|b| {
            let t = Instant::now();
            let trace = benchmark_requests(b, seed)
                .take(SIM_ACCESSES as usize)
                .collect();
            step_ns.push(t.elapsed().as_nanos() as u64);
            trace
        })
        .collect();
    let inputs = Inputs {
        benches,
        traces,
        networks: all_networks(),
    };
    (inputs, step_ns)
}

/// Runs `Engine::run` over a materialised trace.
pub fn simulate(
    bench: &Benchmark,
    trace: &[MemRequest],
    mode: MemoryMode,
    fidelity: Fidelity,
    layout: Option<&BenchmarkLayout>,
) -> SimStats {
    let gpu = GpuConfig::p100();
    let exec = ExecConfig::from_profile(
        &gpu,
        bench.access.mlp,
        bench.access.compute_per_access as f64,
        trace.len() as u64,
    );
    let uniform = UniformLayout {
        entries: bench.total_entries(),
        placement: EntryPlacement::device(4),
    };
    let mut requests = trace.iter().copied();
    match layout {
        Some(l) => Engine::new(gpu, exec, mode, fidelity, l).run(&mut requests),
        None => Engine::new(gpu, exec, mode, fidelity, &uniform).run(&mut requests),
    }
}

fn digest_stats(h: u64, s: &SimStats) -> u64 {
    mix(&[
        h,
        s.cycles.to_bits(),
        s.accesses,
        s.l2_hits,
        s.l2_misses,
        s.md_hits,
        s.md_misses,
        s.buddy_accesses,
        s.dram_sectors,
        s.link_sectors_in,
        s.link_sectors_out,
    ])
}

/// Span names of the pass's library calls; a call's index here is its
/// `op_meta` code.
const CALLS: [&str; 6] = [
    "facade.profile_benchmark",
    "core.profile.choose_targets",
    "gpu_sim.run_uncompressed",
    "gpu_sim.run_buddy",
    "umem.simulate",
    "dlmodel.capacity_speedup",
];
const SIM_CALLS: std::ops::RangeInclusive<u8> = 2..=3;

/// Times one library call into `log` (one call = one chunk) and `sink`.
fn timed(
    call: usize,
    units: u64,
    log: &mut RunLog,
    sink: &mut Option<SpanSink<'_>>,
    f: &mut dyn FnMut(),
) {
    let t0 = Instant::now();
    f();
    let t1 = Instant::now();
    let ns = (t1 - t0).as_nanos() as u64;
    if let Some(s) = sink.as_mut() {
        let id = s.tracer.name_id(CALLS[call]);
        s.tracer.push(
            id,
            s.lane,
            s.parent,
            log.op_ns.len() as u32,
            units as u32,
            t0,
            t1,
        );
    }
    log.op_ns.push(ns.min(u32::MAX as u64) as u32);
    log.op_meta.push(call as u8);
    log.chunk_wall_ns.push(ns);
}

/// One pass over the suite: every library call timed on its own (and, with
/// a `sink`, recorded as a span). Returns the call log and the pass's exact
/// outputs.
pub fn pass(
    inputs: &Inputs,
    seed: u64,
    mut sink: Option<SpanSink<'_>>,
) -> (RunLog, BTreeMap<&'static str, f64>) {
    let mut log = RunLog::default();
    let mut profiled = 0u64;
    let mut sim_accesses = 0u64;
    let (mut buddy_hits, mut buddy_total) = (0u64, 0u64);
    let (mut ln_ratio, mut ln_slowdown, mut ratio_err) = (0.0f64, 0.0f64, 0.0f64);
    let mut digest = seed;
    let wall = Instant::now();
    for (bench, trace) in inputs.benches.iter().zip(&inputs.traces) {
        let mut profiles = Vec::new();
        timed(0, 0, &mut log, &mut sink, &mut || {
            profiles = profile_benchmark(bench, PROFILE_SAMPLE_CAP, seed);
        });
        let mut merged = SizeHistogram::new();
        for p in &profiles {
            merged.merge(&p.histogram);
        }
        profiled += merged.total();

        let mut outcome = None;
        timed(1, 0, &mut log, &mut sink, &mut || {
            outcome = Some(choose_targets(&profiles, &ProfileConfig::paper_final()));
        });
        let outcome = outcome.expect("set by the call above");

        let mut base = SimStats::default();
        timed(2, trace.len() as u64, &mut log, &mut sink, &mut || {
            base = simulate(bench, trace, MemoryMode::Uncompressed, Fidelity::Fast, None);
        });
        let mut buddy = SimStats::default();
        timed(3, trace.len() as u64, &mut log, &mut sink, &mut || {
            let layout = BenchmarkLayout::new(bench, &outcome, 0.5, seed);
            buddy = simulate(
                bench,
                trace,
                MemoryMode::Buddy,
                Fidelity::Fast,
                Some(&layout),
            );
        });
        sim_accesses += base.accesses + buddy.accesses;
        buddy_hits += buddy.buddy_accesses;
        buddy_total += buddy.accesses;
        ln_ratio += outcome.device_compression_ratio().ln();
        ln_slowdown += (buddy.cycles / base.cycles).ln();
        ratio_err +=
            (merged.compression_ratio() - bench.paper_fig3_ratio).abs() / bench.paper_fig3_ratio;
        digest = digest_stats(digest_stats(digest, &base), &buddy);
        for c in &outcome.choices {
            digest = mix(&[digest, c.entries, c.target.device_bytes_per_entry() as u64]);
        }

        if let Some((net, batch, _)) = inputs
            .networks
            .iter()
            .find(|(n, _, _)| n.name == bench.name)
        {
            let pages = bench.total_entries() / ENTRIES_PER_UM_PAGE;
            let config = UmConfig {
                device_bytes: (pages * 8 / 10).max(1) * (64 << 10),
                ..UmConfig::default()
            };
            timed(4, trace.len() as u64, &mut log, &mut sink, &mut || {
                let stats = um_simulate(
                    trace.iter().map(|r| PageAccess {
                        page: r.entry / ENTRIES_PER_UM_PAGE,
                        bytes: r.sector_mask.count_ones() * 32,
                        write: r.write,
                    }),
                    Policy::UnifiedMemory,
                    &config,
                );
                digest = mix(&[digest, stats.faults, stats.evictions, stats.link_bytes]);
            });
            timed(5, 0, &mut log, &mut sink, &mut || {
                let s = capacity_speedup(
                    net,
                    &GpuPerf::default(),
                    outcome.device_compression_ratio(),
                    0.022,
                    batch * 64,
                );
                digest = mix(&[
                    digest,
                    s.baseline_batch,
                    s.buddy_batch,
                    s.buddy_throughput.to_bits(),
                ]);
            });
        }
    }
    log.wall_ns = wall.elapsed().as_nanos() as u64;
    log.attempted = log.op_ns.len() as u64;
    log.entries = profiled;

    let n = inputs.benches.len() as f64;
    let mut exact = BTreeMap::new();
    exact.insert("effective_ratio", (ln_ratio / n).exp());
    exact.insert(
        "buddy_access_frac",
        buddy_hits as f64 / buddy_total.max(1) as f64,
    );
    exact.insert("sim_buddy_slowdown", (ln_slowdown / n).exp());
    exact.insert("paper_ratio_err", ratio_err / n);
    // 52 bits of the digest: exactly representable as an f64.
    exact.insert("sim_digest", (digest >> 12) as f64);
    exact.insert("ops", log.attempted as f64);
    exact.insert("entries", profiled as f64);
    exact.insert("sim_accesses", sim_accesses as f64);
    (log, exact)
}

/// One rep: set-up (timed) and one pass.
pub fn rep(seed: u64) -> RepResult {
    let (inputs, setup_ns) = setup(seed);
    let (log, exact) = pass(&inputs, seed, None);
    RepResult {
        setup_ns,
        attempted: log.attempted,
        exact,
        passes: vec![log],
        ..RepResult::default()
    }
}

/// Host-time metrics of one pass at quiet speed: each call costs the
/// fastest it was observed to run in any pass.
pub fn metrics(
    quiet: &Quiet,
    exact: &BTreeMap<&'static str, f64>,
    seed: u64,
) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let wall_s = quiet.wall_ns() as f64 / 1e9;
    m.insert("pipeline_s", wall_s);
    m.insert("entries_per_s", exact["entries"] / wall_s);
    m.insert("ops_per_s", quiet.op_ns().len() as f64 / wall_s);
    let sim_ns: f64 = quiet
        .op_ns()
        .iter()
        .zip(quiet.op_meta())
        .filter(|(_, call)| SIM_CALLS.contains(call))
        .map(|(&ns, _)| ns as f64)
        .sum();
    m.insert("sim_accesses_per_s", exact["sim_accesses"] / (sim_ns / 1e9));
    let mut ns = quiet.op_ns().to_vec();
    for (name, q) in [
        ("op_p50_us", 0.5),
        ("op_p99_us", 0.99),
        ("op_p999_us", 0.999),
        ("op_max_us", 1.0),
    ] {
        m.insert(name, percentile(&mut ns, q) as f64 / 1e3);
    }
    let replay = Replay::new(&[quiet.op_ns().to_vec()], REPLAY_MIN_ARRIVALS, seed);
    m.insert("due_p99_us", replay.at_rate(REF_RATE).0 / 1e3);
    m.insert(
        "missed_limit_frac",
        replay.missed_frac(REF_RATE, LIMIT_US * 1e3),
    );
    m.insert(
        "max_ok_rate_per_s",
        replay.max_ok_rate(REF_RATE / 16.0, LIMIT_US * 1e3),
    );
    m
}
