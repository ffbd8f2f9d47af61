//! Running a workload: reps until the time budget is spent, the quiet-time
//! estimate over their passes, exact-count agreement, and the result record.

use crate::json::Value;
use crate::layers::{Ladder, LadderPlan, RoundTracers};
use crate::machine::Cpus;
use crate::pipeline;
use crate::quiet::{fold_min, Quiet, QuietSet};
use crate::report::{self, Record};
use crate::spec::{self, Kind};
use crate::stats::{percentile, Estimate};
use crate::stream::SpanSink;
use crate::trace::{Tracer, ROOT};
use crate::workload::{
    DeviceWorkload, RepResult, CONTROL_PLANE, READ_HEAVY, TENANT_MIXED, WRITE_HEAVY,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// Reps per run: at least four whatever `--seconds` says (each of the
/// estimate's two halves then has a rep on each of two CPUs).
const MIN_REPS: usize = 4;

/// Spans a traced round may record (ladder + probes stay well below).
const SPAN_CAPACITY: usize = 1 << 20;

#[derive(Debug, Clone, Copy)]
enum Workload {
    Device(DeviceWorkload),
    Pipeline,
}

fn find(name: &str) -> Option<Workload> {
    [READ_HEAVY, WRITE_HEAVY, CONTROL_PLANE, TENANT_MIXED]
        .into_iter()
        .find(|w| w.name == name)
        .map(Workload::Device)
        .or((name == "paper_pipeline").then_some(Workload::Pipeline))
}

impl Workload {
    fn rep(&self, seed: u64, sweep: bool) -> RepResult {
        match self {
            Workload::Device(w) => w.rep(seed, sweep),
            Workload::Pipeline => pipeline::rep(seed),
        }
    }

    fn metrics(
        &self,
        quiet: &Quiet,
        exact: &BTreeMap<&'static str, f64>,
        seed: u64,
    ) -> BTreeMap<&'static str, f64> {
        match self {
            Workload::Device(w) => w.metrics(quiet, exact["entries"], seed),
            Workload::Pipeline => pipeline::metrics(quiet, exact, seed),
        }
    }
}

/// The untraced pass of one workload: the end-to-end metrics.
pub fn untraced(name: &str, seed: u64, seconds: f64) -> Result<Record, String> {
    let workload = find(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let load_before = report::loadavg();
    let mut errors = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);

    // No separate warm-up: a pass slowed by cold caches or first-touch page
    // faults never wins a minimum, so the estimator discards it by itself.
    // The first rep also reads every entry back (outside any timed window).
    let mut quiet = QuietSet::default();
    // Fastest observation of every set-up step: over all reps, and over
    // each half of them.
    let mut setups: [Vec<u64>; 3] = Default::default();
    let mut pass_walls = Vec::new();
    let mut exact: Option<BTreeMap<&'static str, f64>> = None;
    let mut verify = None;
    let mut exact_ok = true;
    let mut reps = 0usize;
    let cpus = Cpus::detect();
    let start = Instant::now();
    let mut longest_rep = 0.0f64;
    // Stop when another rep like the longest so far would overrun the
    // budget, so the run measures for `seconds`, not `seconds` plus a rep.
    while reps < MIN_REPS || start.elapsed().as_secs_f64() + longest_rep <= seconds {
        let rep_start = Instant::now();
        // Each rep on the next CPU: see `machine.rs`.
        cpus.take_turn(reps);
        let rep = workload.rep(seed, reps == 0);
        attempted += rep.attempted;
        failed += rep.failed;
        errors.extend(rep.errors);
        for best in [0, 1 + reps / 2 % 2] {
            fold_min(&mut setups[best], &rep.setup_ns);
        }
        verify = verify.or(rep.verify);
        for log in &rep.passes {
            pass_walls.push(log.wall_ns);
            quiet.observe(log);
        }
        // Every exact quantity must repeat in every rep: the op streams,
        // data and models are functions of the seed alone.
        match &exact {
            None => exact = Some(rep.exact),
            Some(first) if *first != rep.exact => {
                exact_ok = false;
                for (k, v) in &rep.exact {
                    if first.get(k) != Some(v) {
                        errors.push(format!(
                            "exact metric {k} differs between reps: {:?} in rep 0, {v} in rep {reps}",
                            first.get(k)
                        ));
                    }
                }
            }
            Some(_) => {}
        }
        reps += 1;
        longest_rep = longest_rep.max(rep_start.elapsed().as_secs_f64());
    }
    let measured_s = start.elapsed().as_secs_f64();
    cpus.release();
    if !exact_ok {
        failed += 1;
    }
    let exact = exact.expect("at least two reps ran");

    let all = workload.metrics(&quiet.all, &exact, seed);
    let halves = [
        workload.metrics(&quiet.halves[0], &exact, seed),
        workload.metrics(&quiet.halves[1], &exact, seed),
    ];
    let setup_s = |best: &[u64]| best.iter().sum::<u64>() as f64 / 1e9;
    let estimate = |spec: &spec::MetricSpec| -> Option<Estimate> {
        let name = spec.name.as_str();
        match name {
            "setup_s" => Some(Estimate::with_halves(
                setup_s(&setups[0]),
                setup_s(&setups[1]),
                setup_s(&setups[2]),
                reps,
            )),
            "peak_rss_mb" => report::peak_rss_mb().map(Estimate::exact),
            // Ops that failed, plus requests that would miss the latency
            // limit at the reference rate, as shares of those attempted.
            "failed_frac" => Some(Estimate::exact(
                failed as f64 / attempted.max(1) as f64 + all["missed_limit_frac"],
            )),
            _ => match spec.kind {
                Kind::Exact => exact.get(name).copied().map(Estimate::exact),
                Kind::Host => Some(Estimate::with_halves(
                    *all.get(name)?,
                    *halves[0].get(name)?,
                    *halves[1].get(name)?,
                    quiet.all.observations,
                )),
            },
        }
    };
    let mut metrics = Vec::new();
    for spec in spec::end_to_end() {
        match estimate(&spec) {
            Some(e) => metrics.push((spec, e)),
            None => errors.push(format!("metric {} was not measured", spec.name)),
        }
    }
    let extras: Vec<_> = spec::extras()
        .into_iter()
        .filter_map(|spec| estimate(&spec).map(|e| (spec, e)))
        .collect();
    let finite = metrics
        .iter()
        .all(|(_, e)| e.value.is_finite() && e.value > 0.0);
    if !finite {
        errors.push("a gated metric is zero or not finite".into());
    }
    let complete = metrics.len() == spec::end_to_end().len();
    errors.truncate(16);

    // How disturbed the run was: the raw wall time of each pass against the
    // quiet estimate of one.
    let mut raw = |q: f64| percentile(&mut pass_walls, q) as f64 / 1e9;
    let (raw_min, raw_median, raw_max) = (raw(0.0), raw(0.5), raw(1.0));
    let quiet_s = quiet.all.wall_ns() as f64 / 1e9;
    println!(
        "  noise: {} passes in {reps} reps, raw pass wall min {:.4} s median {:.4} s max {:.4} s; quiet estimate {:.4} s",
        pass_walls.len(),
        raw_min,
        raw_median,
        raw_max,
        quiet_s,
    );
    let counts = Value::Obj(
        exact
            .iter()
            .map(|(k, v)| (k.to_string(), Value::Num(*v)))
            .collect(),
    );
    let mut extra = vec![
        ("reps".to_string(), Value::Num(reps as f64)),
        ("passes".to_string(), Value::Num(pass_walls.len() as f64)),
        ("cpus_rotated".to_string(), Value::Num(cpus.count() as f64)),
        ("measured_s".to_string(), Value::Num(measured_s)),
        ("raw_pass_s_min".to_string(), Value::Num(raw_min)),
        ("raw_pass_s_median".to_string(), Value::Num(raw_median)),
        ("raw_pass_s_max".to_string(), Value::Num(raw_max)),
        ("quiet_pass_s".to_string(), Value::Num(quiet_s)),
        ("exact_per_pass".to_string(), counts),
    ];
    if let Some((verify_s, checked)) = verify {
        extra.push(("verify_s".to_string(), Value::Num(verify_s)));
        extra.push(("verified_entries".to_string(), Value::Num(checked as f64)));
    }
    Ok(Record {
        workload: name.to_string(),
        seed,
        trace: false,
        correct: failed == 0 && exact_ok && finite && complete,
        attempted,
        failed,
        reps: pass_walls.len(),
        metrics,
        extras,
        errors,
        context: report::context(seed, seconds, &load_before, extra),
    })
}

/// The traced pass of one workload: the per-layer metrics, and a
/// Chrome-trace file of the first round's spans.
pub fn traced(name: &str, seed: u64, seconds: f64) -> Result<Record, String> {
    let workload = find(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let plan = match workload {
        Workload::Device(w) => LadderPlan::for_device(w),
        Workload::Pipeline => LadderPlan::for_pipeline(),
    };
    let load_before = report::loadavg();
    let mut ladder = Ladder::new(plan, seed);
    let mut keep = Tracer::with_capacity(SPAN_CAPACITY);
    let mut scratch = Tracer::with_capacity(SPAN_CAPACITY);
    let mut lanes = Vec::new();
    // `paper_pipeline` only: its own traced pass, whose simulator outputs
    // (suite-wide) replace the ladder benchmark's.
    let mut pipeline_exact = None;
    let mut attempted = 0u64;

    let start = Instant::now();
    let mut longest_round = 0.0f64;
    while ladder.rounds() == 0 || start.elapsed().as_secs_f64() + longest_round <= seconds {
        let round_start = Instant::now();
        // Only the first round's spans are kept: later rounds repeat them
        // and exist to give the estimator more observations.
        let first = ladder.rounds() == 0;
        ladder.round(RoundTracers {
            keep: first.then_some((&mut keep, &mut lanes)),
            scratch: &mut scratch,
        });
        if let (Workload::Pipeline, true) = (workload, first) {
            lanes.push("paper_pipeline".to_string());
            let lane = (lanes.len() - 1) as u16;
            let (inputs, _) = pipeline::setup(seed);
            let parent = keep.open("paper_pipeline.rep", lane, ROOT);
            let (log, exact) = pipeline::pass(
                &inputs,
                seed,
                Some(SpanSink {
                    tracer: &mut keep,
                    lane,
                    parent,
                }),
            );
            keep.close(parent);
            attempted += log.attempted;
            pipeline_exact = Some(exact);
        }
        longest_round = longest_round.max(round_start.elapsed().as_secs_f64());
    }

    let (mut values, mut errors) = ladder.finish();
    if let Some(exact) = &pipeline_exact {
        for (k, v) in [
            ("gpu_sim.buddy_slowdown", "sim_buddy_slowdown"),
            ("workloads.paper_ratio_err", "paper_ratio_err"),
        ] {
            values.insert(k.to_string(), Estimate::exact(exact[v]));
        }
    }
    let exact_ok = errors.is_empty();
    errors.extend(ladder.errors.iter().cloned());
    attempted += ladder.attempted;
    let failed = ladder.failed + !exact_ok as u64;

    let path = report::out_dir().join(format!("trace-{name}.json"));
    let written = std::fs::create_dir_all(report::out_dir())
        .and_then(|()| std::fs::write(&path, keep.to_chrome_json(&lanes)));
    if let Err(e) = &written {
        errors.push(format!("could not write {}: {e}", path.display()));
    }

    let mut metrics = Vec::new();
    for spec in spec::per_layer() {
        match values.get(&spec.name) {
            Some(e) => metrics.push((spec, *e)),
            None => errors.push(format!("layer metric {} was not measured", spec.name)),
        }
    }
    let complete = metrics.len() == spec::per_layer().len();
    let finite = metrics.iter().all(|(_, e)| e.value.is_finite());
    errors.truncate(16);

    let extra = vec![
        ("rounds".to_string(), Value::Num(ladder.rounds() as f64)),
        (
            "trace_file".to_string(),
            Value::str(path.display().to_string()),
        ),
        ("trace_spans".to_string(), Value::Num(keep.len() as f64)),
    ];
    Ok(Record {
        workload: name.to_string(),
        seed,
        trace: true,
        correct: failed == 0 && complete && finite && written.is_ok(),
        attempted,
        failed,
        reps: ladder.rounds(),
        metrics,
        extras: Vec::new(),
        errors,
        context: report::context(seed, seconds, &load_before, extra),
    })
}
