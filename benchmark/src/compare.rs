//! `compare A.json B.json`: one row per workload × metric with both
//! medians, quartiles, the ratio with its base, and a verdict.

use crate::report::{load, LoadedRecord};
use crate::spec::{untraced_spec, Better, Kind, MetricSpec};
use crate::stats::Estimate;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The run-to-run spread exceeds the metric's bound and the two sets of
    /// runs overlap: the data cannot tell a change from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Signed change from `a` to `b` as a share of `a`, positive = better.
fn improvement(spec: &MetricSpec, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return match (b == 0.0, spec.better, b > 0.0) {
            (true, _, _) => 0.0,
            (_, Better::Higher, true) | (_, Better::Lower, false) => f64::INFINITY,
            _ => f64::NEG_INFINITY,
        };
    }
    let change = (b - a) / a.abs();
    match spec.better {
        Better::Higher => change,
        Better::Lower => -change,
    }
}

/// Verdict on `b` against baseline `a`.
///
/// Exact metrics (counts, simulated quantities) compare with `==`: any
/// difference is a change of behaviour, better or worse by direction. Host
/// metrics are worse (better) when the value moved against (with) the
/// direction by more than the bound — unless the range of either side (its
/// two half-estimates) is wider than the bound while the two ranges
/// overlap, which is `Unresolved`.
pub fn verdict(spec: &MetricSpec, a: &Estimate, b: &Estimate) -> Verdict {
    let gain = improvement(spec, a.value, b.value);
    if spec.kind == Kind::Exact {
        return match gain {
            g if a.value == b.value || g == 0.0 => Verdict::Same,
            g if g > 0.0 => Verdict::Better,
            _ => Verdict::Worse,
        };
    }
    let spread = a.spread().max(b.spread());
    let overlap = a.lo <= b.hi && b.lo <= a.hi;
    if spread > spec.bound && overlap && gain != 0.0 {
        return Verdict::Unresolved;
    }
    if gain < -spec.bound {
        Verdict::Worse
    } else if gain > spec.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub spec: MetricSpec,
    pub a: Estimate,
    pub b: Estimate,
    pub verdict: Verdict,
}

/// Compares the workloads and metrics present in both sets of records.
pub fn compare_records(a: &[LoadedRecord], b: &[LoadedRecord]) -> Vec<Row> {
    let mut rows = Vec::new();
    for ra in a {
        let Some(rb) = b.iter().find(|r| r.workload == ra.workload) else {
            continue;
        };
        for ma in &ra.metrics {
            let (Some(mb), Some(spec)) = (
                rb.metrics.iter().find(|m| m.name == ma.name),
                untraced_spec(&ma.name),
            ) else {
                continue;
            };
            rows.push(Row {
                workload: ra.workload.clone(),
                verdict: verdict(&spec, &ma.estimate, &mb.estimate),
                spec,
                a: ma.estimate,
                b: mb.estimate,
            });
        }
    }
    rows
}

pub fn print_rows(rows: &[Row]) {
    println!(
        "{:<15} {:<20} {:>14} {:>25} {:>14} {:>25} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "A [lo, hi]", "B", "B [lo, hi]", "B/A", "bound"
    );
    for r in rows {
        let ratio = if r.a.value == 0.0 {
            "-".to_string()
        } else {
            format!("{:.4}", r.b.value / r.a.value)
        };
        let bound = match r.spec.kind {
            Kind::Exact => "==".to_string(),
            Kind::Host if r.spec.bound.is_finite() => format!("{:.0}%", r.spec.bound * 100.0),
            Kind::Host => "none".to_string(),
        };
        println!(
            "{:<15} {:<20} {:>14.6} {:>25} {:>14.6} {:>25} {:>9} {:>7}  {}",
            r.workload,
            r.spec.name,
            r.a.value,
            format!("[{:.5}, {:.5}]", r.a.lo, r.a.hi),
            r.b.value,
            format!("[{:.5}, {:.5}]", r.b.lo, r.b.hi),
            ratio,
            bound,
            r.verdict.as_str(),
        );
    }
}

/// `compare A B`: prints the table; `Ok(true)` when nothing got worse.
pub fn compare_files(a: &Path, b: &Path) -> Result<bool, String> {
    let (ra, rb) = (load(a)?, load(b)?);
    let rows = compare_records(&ra, &rb);
    if rows.is_empty() {
        return Err("the two files share no workload and metric".into());
    }
    println!(
        "A = {} (base of every ratio), B = {}",
        a.display(),
        b.display()
    );
    print_rows(&rows);
    let incorrect: Vec<&str> = ra
        .iter()
        .chain(&rb)
        .filter(|r| !r.correct)
        .map(|r| r.workload.as_str())
        .collect();
    if !incorrect.is_empty() {
        println!("runs that failed verification: {incorrect:?}");
    }
    let worse = rows.iter().filter(|r| r.verdict == Verdict::Worse).count();
    let unresolved = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Unresolved)
        .count();
    println!(
        "{} rows: {worse} worse, {unresolved} unresolved",
        rows.len()
    );
    Ok(worse == 0 && incorrect.is_empty())
}

/// The A/A gate: two runs of the same build must agree — every bounded host
/// metric within its own bound, every exact metric identical. Returns the
/// rows that do not.
pub fn disagreements(rows: &[Row]) -> Vec<&Row> {
    rows.iter()
        .filter(|r| match r.spec.kind {
            Kind::Exact => r.a.value != r.b.value,
            Kind::Host => {
                r.spec.bound.is_finite()
                    && improvement(&r.spec, r.a.value, r.b.value).abs() > r.spec.bound
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A spec with the bound stated here, so the verdict logic is tested
    /// against numbers that do not move when the contract's bounds do.
    fn spec(name: &str, bound: f64) -> MetricSpec {
        MetricSpec {
            bound,
            ..untraced_spec(name).unwrap()
        }
    }

    fn tight(v: f64) -> Estimate {
        Estimate::with_halves(v, v * 0.995, v * 1.005, 10)
    }

    #[test]
    fn host_metrics_resolve_by_bound_and_direction() {
        let thr = spec("entries_per_s", 0.06); // higher is better
        assert_eq!(verdict(&thr, &tight(100.0), &tight(103.0)), Verdict::Same);
        assert_eq!(verdict(&thr, &tight(100.0), &tight(90.0)), Verdict::Worse);
        assert_eq!(verdict(&thr, &tight(100.0), &tight(110.0)), Verdict::Better);
        let lat = spec("op_p99_us", 0.10); // lower is better
        assert_eq!(verdict(&lat, &tight(100.0), &tight(120.0)), Verdict::Worse);
        assert_eq!(verdict(&lat, &tight(100.0), &tight(80.0)), Verdict::Better);
        assert_eq!(verdict(&lat, &tight(100.0), &tight(108.0)), Verdict::Same);
    }

    #[test]
    fn wide_overlapping_runs_are_unresolved_not_unchanged() {
        let thr = spec("entries_per_s", 0.06);
        let noisy_a = Estimate::with_halves(100.0, 90.0, 110.0, 10);
        let noisy_b = Estimate::with_halves(92.0, 85.0, 105.0, 10);
        assert!(noisy_a.spread() > thr.bound);
        assert_eq!(verdict(&thr, &noisy_a, &noisy_b), Verdict::Unresolved);
        // Wide but disjoint: every run of B is below every run of A, so the
        // change is resolved despite the spread.
        let far_b = Estimate::with_halves(50.0, 45.0, 55.0, 10);
        assert_eq!(verdict(&thr, &noisy_a, &far_b), Verdict::Worse);
    }

    #[test]
    fn exact_metrics_compare_with_equality() {
        let ratio = spec("effective_ratio", 0.05); // higher is better, exact
        assert_eq!(
            verdict(&ratio, &Estimate::exact(2.5), &Estimate::exact(2.5)),
            Verdict::Same
        );
        // A change far inside any tolerance is still a change.
        assert_eq!(
            verdict(&ratio, &Estimate::exact(2.5), &Estimate::exact(2.5000001)),
            Verdict::Better
        );
        assert_eq!(
            verdict(&ratio, &Estimate::exact(2.5), &Estimate::exact(2.4999999)),
            Verdict::Worse
        );
        let frac = untraced_spec("failed_frac").unwrap(); // lower is better
        assert_eq!(
            verdict(&frac, &Estimate::exact(0.0), &Estimate::exact(0.0)),
            Verdict::Same
        );
        assert_eq!(
            verdict(&frac, &Estimate::exact(0.0), &Estimate::exact(0.001)),
            Verdict::Worse
        );
    }

    #[test]
    fn the_aa_gate_flags_host_drift_past_the_bound_and_any_exact_change() {
        let row = |name: &str, a: f64, b: f64, bound: f64| {
            let spec = spec(name, bound);
            let (a, b) = (tight(a), tight(b));
            Row {
                workload: "w".into(),
                verdict: verdict(&spec, &a, &b),
                spec,
                a,
                b,
            }
        };
        let rows = vec![
            row("entries_per_s", 100.0, 104.0, 0.06),
            row("entries_per_s", 100.0, 93.0, 0.06),
            row("effective_ratio", 2.0, 2.0, 0.05),
            row("effective_ratio", 2.0, 2.0001, 0.05),
            row("op_max_us", 10.0, 500.0, f64::INFINITY), // unbounded diagnostic
        ];
        let bad = disagreements(&rows);
        assert_eq!(bad.len(), 2);
        assert_eq!(bad[0].b.value, 93.0);
        assert_eq!(bad[1].spec.name, "effective_ratio");
    }
}
