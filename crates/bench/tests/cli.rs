//! The `reproduce-all` command line: positional figure names select
//! harnesses, and anything it does not know is a usage error (exit 2), not
//! a silent paper-scale run.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs the binary with `args` in a fresh temp cwd.
fn run(case: &str, args: &[&str]) -> (PathBuf, Output) {
    let dir = std::env::temp_dir().join(format!("buddy-bench-cli-{case}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp cwd");
    let output = Command::new(env!("CARGO_BIN_EXE_reproduce-all"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("binary spawns");
    (dir, output)
}

#[test]
fn named_figures_write_only_their_artifacts() {
    let (dir, output) = run("named", &["--quick", "table1", "fig12"]);
    assert!(output.status.success(), "{output:?}");
    let mut written: Vec<String> = std::fs::read_dir(dir.join("results"))
        .expect("results dir")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf-8"))
        .collect();
    written.sort();
    assert_eq!(written, ["fig12.csv", "table1.csv"]);
}

#[test]
fn metrics_out_is_one_file_pair_for_the_whole_run() {
    let (dir, output) = run(
        "metrics",
        &[
            "--quick",
            "--metrics-out",
            "m",
            "pool-throughput",
            "churn",
            "tenancy",
        ],
    );
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(stdout.matches("metrics -> ").count(), 1, "{stdout}");
    // Every instrumented harness of the run is in the one snapshot, not
    // just the last to finish.
    let prom = std::fs::read_to_string(dir.join("m.prom")).expect("m.prom written");
    for metric in ["pool_entries_total", "churn_", "tenancy_offered_total"] {
        assert!(prom.contains(metric), "{metric} missing from:\n{prom}");
    }
    let csv = std::fs::read_to_string(dir.join("m.csv")).expect("m.csv written");
    assert!(csv.starts_with("tick,elapsed_ms,metric,value"));
}

#[test]
fn unknown_arguments_are_usage_errors_naming_the_valid_ones() {
    for (case, args, unknown, valid) in [
        (
            "nosuchfig",
            &["--quick", "nosuchfig"][..],
            "nosuchfig",
            "fig03",
        ),
        ("quik", &["--quik"], "--quik", "--quick"),
    ] {
        let (dir, output) = run(case, args);
        assert_eq!(output.status.code(), Some(2), "{case}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(unknown) && stderr.contains(valid),
            "{stderr}"
        );
        assert!(!dir.join("results").exists(), "{case}: nothing ran");
    }
}
