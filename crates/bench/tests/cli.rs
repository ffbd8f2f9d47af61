//! The `reproduce-all` command line: positional figure names select
//! harnesses, and anything it does not know is a usage error (exit 2), not
//! a silent paper-scale run.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
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

/// The files under `dir/results`, by name, with their bytes.
fn artifacts(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir.join("results"))
        .expect("results dir")
        .map(|e| {
            let e = e.expect("entry");
            let name = e.file_name().into_string().expect("utf-8");
            (name, std::fs::read(e.path()).expect("artifact reads"))
        })
        .collect()
}

#[test]
fn named_figures_write_only_their_artifacts() {
    let (dir, output) = run("named", &["--quick", "table1", "fig12"]);
    assert!(output.status.success(), "{output:?}");
    let written: Vec<String> = artifacts(&dir).into_keys().collect();
    assert_eq!(written, ["fig12.csv", "table1.csv"]);
}

#[test]
fn two_runs_write_byte_identical_artifacts() {
    // The four figures that drive allocators and the pool — placement, not
    // just arithmetic, has to repeat — and the one that once printed the
    // simulator's wall seconds: stdout has to repeat too.
    let args = [
        "--quick",
        "fig10",
        "pool-replay",
        "churn",
        "adaptive-retarget",
        "service-report",
    ];
    let [(first, first_out), (second, second_out)] = ["identity-a", "identity-b"].map(|case| {
        let (dir, output) = run(case, &args);
        assert!(output.status.success(), "{output:?}");
        (artifacts(&dir), output.stdout)
    });
    assert_eq!(
        first.keys().collect::<Vec<_>>(),
        [
            "adaptive_retarget.csv",
            "churn.csv",
            "fig10.csv",
            "pool_replay.csv",
            "service_report.csv"
        ]
    );
    assert!(first == second, "artifacts differ between two runs");
    assert!(first_out == second_out, "stdout differs between two runs");
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
        (
            "metrics-out",
            &["--quick", "--metrics-out", "m", "churn"],
            "--metrics-out",
            "--quick",
        ),
        (
            "codec",
            &["--quick", "--codec", "bdi", "fig03"],
            "--codec",
            "--quick",
        ),
        ("tenancy", &["--quick", "tenancy"], "tenancy", "pool-replay"),
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
