//! The repo benchmark: five workloads, end-to-end metrics, and an outside-in
//! layer ladder from codec to service. See `benchmark/README.md`.
//!
//! ```text
//! buddy-benchmark run [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]
//! buddy-benchmark compare A.json B.json
//! buddy-benchmark selfcheck [--seed N] [--seconds S]
//! ```

mod compare;
mod data;
mod json;
mod layers;
mod machine;
mod pipeline;
mod quiet;
mod report;
mod run;
mod rungs;
mod spec;
mod stats;
mod stream;
mod surface;
mod trace;
mod workload;

use json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Default seed and measuring time of a run.
const DEFAULT_SEED: u64 = 0xB0DD7;
const DEFAULT_SECONDS: f64 = 20.0;

#[derive(Debug, Clone)]
struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_seed(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        // A negative seed is still a seed: keep its bits.
        None => s
            .parse::<u64>()
            .ok()
            .or_else(|| s.parse::<i64>().ok().map(|v| v as u64)),
    };
    parsed.ok_or_else(|| format!("--seed: {s:?} is not an integer"))
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args.get(i + 1);
        let need = |what: &str| value.ok_or_else(|| format!("{flag} needs {what}"));
        match flag {
            "--workload" => out.workload = Some(need("a workload name")?.clone()),
            "--seed" => out.seed = parse_seed(need("an integer")?)?,
            "--seconds" => {
                out.seconds = need("a number")?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?
            }
            "--out" => out.out = Some(PathBuf::from(need("a path")?)),
            "--trace" => {
                // `--trace 0|1` (the driver's form) or a bare `--trace`.
                match value.map(String::as_str) {
                    Some("0") => out.trace = false,
                    Some("1") => out.trace = true,
                    _ => {
                        out.trace = true;
                        i += 1;
                        continue;
                    }
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    if let Some(w) = &out.workload {
        if !spec::WORKLOADS.iter().any(|(name, _)| name == w) {
            let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.0).collect();
            return Err(format!(
                "unknown workload {w:?}; the workloads are {names:?}"
            ));
        }
    }
    Ok(out)
}

/// Runs one workload in this process, prints the report and the result
/// line, and writes the record to `--out` if asked.
fn run_one(name: &str, args: &RunArgs) -> Result<bool, String> {
    // One measuring client thread (plus, in the traced pass, a two-thread
    // probe that is skipped on a single core): never more threads than
    // hardware threads, so nothing here can oversubscribe the box.
    let record = if args.trace {
        run::traced(name, args.seed, args.seconds)?
    } else {
        run::untraced(name, args.seed, args.seconds)?
    };
    record.print();
    if let Some(path) = &args.out {
        std::fs::write(path, record.to_json().to_json())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", record.result_line());
    Ok(record.correct)
}

/// Runs every workload, each in a child process of this binary (so peak RSS
/// is per workload and one workload's heap does not shape the next one's),
/// and merges their records into one result file.
fn run_all(args: &RunArgs, out: &Path) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let dir = report::out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut records = Vec::new();
    let mut all_ok = true;
    for (name, _) in spec::WORKLOADS {
        let part = dir.join(format!(".part-{}-{name}.json", std::process::id()));
        let status = Command::new(&exe)
            .args(["run", "--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&part)
            .status()
            .map_err(|e| format!("cannot start the {name} run: {e}"))?;
        all_ok &= status.success();
        let text = std::fs::read_to_string(&part);
        let _ = std::fs::remove_file(&part);
        match text
            .map_err(|e| e.to_string())
            .and_then(|t| json::parse(&t))
        {
            Ok(record) => records.push(record),
            Err(e) => return Err(format!("the {name} run left no result: {e}")),
        }
    }
    let doc = Value::obj([("workloads", Value::Arr(records))]);
    std::fs::write(out, doc.to_json()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("results written to {}", out.display());
    Ok(all_ok)
}

fn run_command(args: &[String]) -> Result<bool, String> {
    let args = parse_run_args(args)?;
    match &args.workload {
        Some(name) => run_one(name, &args),
        None => {
            let default = report::out_dir().join(format!(
                "run-{:x}{}.json",
                args.seed,
                if args.trace { "-trace" } else { "" }
            ));
            run_all(&args, args.out.as_deref().unwrap_or(&default))
        }
    }
}

/// The A/A gate: the full untraced pass twice on the same build; every
/// bounded host metric must agree within its own bound and every exact
/// metric must be identical.
fn selfcheck(args: &[String]) -> Result<bool, String> {
    let args = parse_run_args(args)?;
    if args.workload.is_some() || args.trace || args.out.is_some() {
        return Err("selfcheck takes only --seed and --seconds".into());
    }
    let dir = report::out_dir();
    let (a, b) = (dir.join("selfcheck-a.json"), dir.join("selfcheck-b.json"));
    let ok_a = run_all(&args, &a)?;
    let ok_b = run_all(&args, &b)?;
    let rows = compare::compare_records(&report::load(&a)?, &report::load(&b)?);
    compare::print_rows(&rows);
    let bad = compare::disagreements(&rows);
    for r in &bad {
        println!(
            "DISAGREE {} {}: {} vs {} (bound {})",
            r.workload,
            r.spec.name,
            r.a.value,
            r.b.value,
            if r.spec.kind == spec::Kind::Exact {
                "exact".to_string()
            } else {
                format!("{}%", r.spec.bound * 100.0)
            }
        );
    }
    println!(
        "selfcheck: {} rows, {} disagreements, runs {}",
        rows.len(),
        bad.len(),
        if ok_a && ok_b {
            "correct"
        } else {
            "FAILED verification"
        }
    );
    Ok(bad.is_empty() && ok_a && ok_b)
}

/// `BENCHMARK.json` as this build implements it (a unit test keeps the
/// committed file equal to it).
fn contract() -> Value {
    let names = |specs: Vec<spec::MetricSpec>, bounds: bool| {
        Value::Arr(
            specs
                .into_iter()
                .map(|s| {
                    let mut pairs = vec![
                        ("name", Value::str(s.name)),
                        ("unit", Value::str(s.unit)),
                        ("better", Value::str(s.better.as_str())),
                    ];
                    if bounds {
                        pairs.push(("bound", Value::Num(s.bound)));
                    }
                    Value::obj(pairs)
                })
                .collect(),
        )
    };
    Value::obj([
        (
            "command",
            Value::Arr(spec::COMMAND.iter().map(|a| Value::str(*a)).collect()),
        ),
        ("paths", Value::Arr(vec![Value::str("benchmark")])),
        ("run_seconds", Value::Num(DEFAULT_SECONDS)),
        (
            "workloads",
            Value::Arr(
                spec::WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Value::obj([("name", Value::str(*name)), ("why", Value::str(*why))])
                    })
                    .collect(),
            ),
        ),
        ("end_to_end", names(spec::end_to_end(), true)),
        ("per_layer", names(spec::per_layer(), false)),
    ])
}

fn main() -> ExitCode {
    // Before anything allocates in earnest: see `machine.rs`.
    machine::pin_mmap_threshold();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_command(&args[1..]),
        Some("compare") if args.len() == 3 => compare::compare_files(Path::new(&args[1]), Path::new(&args[2])),
        Some("selfcheck") => selfcheck(&args[1..]),
        Some("contract") => {
            println!("{}", contract().to_json());
            Ok(true)
        }
        _ => Err("usage: buddy-benchmark run [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]\n       buddy-benchmark compare A.json B.json\n       buddy-benchmark selfcheck [--seed N] [--seconds S]".into()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
