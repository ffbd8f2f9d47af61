//! Result records: what a run of one workload produced, as JSON for
//! `compare`/`selfcheck` and as the one-line result the driver reads.

use crate::json::{self, Value};
use crate::spec::{Kind, MetricSpec};
use crate::stats::Estimate;
use std::path::{Path, PathBuf};

/// Where result and trace files go: `benchmark/out/` of the checkout the
/// binary was built from (git-ignored).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One workload's run.
#[derive(Debug, Clone)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Passes (untraced) or rounds (traced) behind each estimate.
    pub reps: usize,
    /// The metrics the driver's contract names, in contract order.
    pub metrics: Vec<(MetricSpec, Estimate)>,
    /// Ungated extras of the untraced pass.
    pub extras: Vec<(MetricSpec, Estimate)>,
    pub errors: Vec<String>,
    pub context: Value,
}

fn metrics_json(metrics: &[(MetricSpec, Estimate)]) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|(spec, s)| (spec.name.clone(), s.to_json(spec.unit)))
            .collect(),
    )
}

impl Record {
    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, each metric as `{value, unit}` with every
    /// measured digit.
    pub fn result_line(&self) -> String {
        Value::obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "metrics",
                Value::Obj(
                    self.metrics
                        .iter()
                        .map(|(spec, s)| {
                            (
                                spec.name.clone(),
                                Value::obj([
                                    ("value", Value::Num(s.value)),
                                    ("unit", Value::str(spec.unit)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
        .to_json()
    }

    pub fn to_json(&self) -> Value {
        Value::obj([
            ("workload", Value::str(self.workload.clone())),
            ("seed", Value::Num(self.seed as f64)),
            ("trace", Value::Bool(self.trace)),
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("reps", Value::Num(self.reps as f64)),
            ("metrics", metrics_json(&self.metrics)),
            ("extras", metrics_json(&self.extras)),
            (
                "errors",
                Value::Arr(self.errors.iter().map(|e| Value::str(e.clone())).collect()),
            ),
            ("context", self.context.clone()),
        ])
    }

    /// Human-readable report: every metric by name with unit, value, its
    /// range (`lo`..`hi`: the two half-estimates, or the quartiles over
    /// rounds) and the number of observations.
    pub fn print(&self) {
        println!(
            "== {} (seed {:#x}, {}) ==",
            self.workload,
            self.seed,
            if self.trace {
                "traced pass"
            } else {
                "untraced pass"
            }
        );
        let row = |spec: &MetricSpec, e: &Estimate, gated: bool| {
            let kind = match spec.kind {
                Kind::Host => "host ",
                Kind::Exact => "exact",
            };
            let bound = if gated && !self.trace {
                format!("bound {:>4.1}%", spec.bound * 100.0)
            } else {
                "ungated".to_string()
            };
            println!(
                "  {:<32} {:>16.6} {:<6} range [{:>14.6}, {:>14.6}] {:>5.2}% n={:<3} {} {:<6} {}",
                spec.name,
                e.value,
                spec.unit,
                e.lo,
                e.hi,
                e.spread() * 100.0,
                e.n,
                kind,
                spec.better.as_str(),
                bound,
            );
        };
        for (spec, e) in &self.metrics {
            row(spec, e, true);
        }
        for (spec, e) in &self.extras {
            row(spec, e, false);
        }
        println!(
            "  attempted {} failed {} correct {} ({} {})",
            self.attempted,
            self.failed,
            self.correct,
            self.reps,
            if self.trace { "rounds" } else { "passes" }
        );
        for e in &self.errors {
            println!("  ERROR: {e}");
        }
    }
}

/// A metric as read back from a result file.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadedMetric {
    pub name: String,
    pub estimate: Estimate,
}

/// A workload's record as read back from a result file.
#[derive(Debug, Clone)]
pub struct LoadedRecord {
    pub workload: String,
    pub correct: bool,
    pub metrics: Vec<LoadedMetric>,
}

fn load_record(v: &Value) -> Result<LoadedRecord, String> {
    let workload = v
        .get("workload")
        .and_then(Value::as_str)
        .ok_or("record without a workload name")?
        .to_string();
    let mut metrics = Vec::new();
    for section in ["metrics", "extras"] {
        for (name, m) in v.get(section).and_then(Value::as_obj).unwrap_or(&[]) {
            metrics.push(LoadedMetric {
                name: name.clone(),
                estimate: Estimate::from_json(m)
                    .ok_or_else(|| format!("{workload}.{name}: no value"))?,
            });
        }
    }
    Ok(LoadedRecord {
        workload,
        correct: v.get("correct").and_then(Value::as_bool).unwrap_or(false),
        metrics,
    })
}

/// Reads a result file: one record, or `{"workloads": [records]}`.
pub fn load(path: &Path) -> Result<Vec<LoadedRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    match doc.get("workloads").and_then(Value::as_arr) {
        Some(records) => records.iter().map(load_record).collect(),
        None => Ok(vec![load_record(&doc)?]),
    }
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// The git revision of the checkout, read from `.git` without running git
/// (the driver's checkout is not a repository: then `"unknown"`).
fn git_rev() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let head = match std::fs::read_to_string(root.join(".git/HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(root.join(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or(head),
        None => head,
    }
}

/// `/proc/loadavg`, or `"unknown"` off Linux.
pub fn loadavg() -> String {
    read_trimmed("/proc/loadavg").unwrap_or_else(|| "unknown".into())
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run context and noise guards recorded with every result.
pub fn context(seed: u64, seconds: f64, load_before: &str, extra: Vec<(String, Value)>) -> Value {
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string());
    let mut pairs = vec![
        ("nproc".to_string(), Value::Num(nproc() as f64)),
        // One measuring client: two clients on two shared cores repeat to
        // ~18 %, one to ~4 % (README, "Sizing and noise").
        ("client_threads".to_string(), Value::Num(1.0)),
        ("git_rev".to_string(), Value::str(git_rev())),
        ("rustc".to_string(), Value::str(rustc)),
        (
            "features".to_string(),
            Value::str(if crate::surface::obs_trace::is_enabled() {
                "obs-trace"
            } else {
                "default"
            }),
        ),
        ("loadavg_before".to_string(), Value::str(load_before)),
        ("loadavg_after".to_string(), Value::str(loadavg())),
        ("seed".to_string(), Value::Num(seed as f64)),
        ("seconds".to_string(), Value::Num(seconds)),
    ];
    pairs.extend(extra);
    Value::Obj(pairs)
}
