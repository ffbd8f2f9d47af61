//! Repo-specific build tasks. The only task today is `lint`, the custom
//! static-analysis driver that gates CI:
//!
//! ```text
//! cargo run -p xtask -- lint               # human output, exit 1 on findings
//! cargo run -p xtask -- lint --format json # machine output
//! cargo run -p xtask -- lint --self-check  # mutation-test the driver itself
//! ```
//!
//! See DESIGN.md §10 for the rule catalogue and the waiver policy.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod lint;
mod rules;
mod source;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: cargo run -p xtask -- <task>

tasks:
  lint [--format human|json] [--self-check] [--root PATH]
      Run the repo lint rules. Exits 1 on any unwaived deny finding.
      --self-check lints the fixture corpus instead and verifies every
      rule flags its known-bad snippets (the tooling's mutation test).
  rules
      List the registered lint rules.
";

fn default_root() -> PathBuf {
    // crates/xtask -> crates -> repo root; works both under `cargo run -p`
    // (manifest dir is compiled in) and when the binary is relocated, since
    // the fallback is the current directory.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(PathBuf::from)
        .filter(|p| p.join("Cargo.toml").is_file())
        .unwrap_or_else(|| PathBuf::from("."))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(&args[1..]),
        Some("rules") => {
            for rule in rules::registry() {
                println!("{:<22} {:<5} {}", rule.id, rule.severity, rule.summary);
            }
            ExitCode::SUCCESS
        }
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("xtask: unknown task `{other}`\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run_lint(args: &[String]) -> ExitCode {
    let mut format = "human";
    let mut self_check = false;
    let mut root = default_root();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next().map(String::as_str) {
                Some(f @ ("human" | "json")) => format = if f == "json" { "json" } else { "human" },
                _ => {
                    eprintln!("xtask: --format takes `human` or `json`");
                    return ExitCode::FAILURE;
                }
            },
            "--self-check" => self_check = true,
            "--root" => match it.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("xtask: --root takes a path");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("xtask: unknown lint flag `{other}`\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    if self_check {
        return match lint::self_check(&root) {
            Ok(problems) if problems.is_empty() => {
                println!("lint --self-check: all fixtures behave as annotated");
                ExitCode::SUCCESS
            }
            Ok(problems) => {
                for p in &problems {
                    eprintln!("self-check: {p}");
                }
                eprintln!("lint --self-check: {} problem(s)", problems.len());
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("xtask: {e}");
                ExitCode::FAILURE
            }
        };
    }

    match lint::lint_tree(&root) {
        Ok(report) => {
            match format {
                "json" => print!("{}", lint::render_json(&report)),
                _ => print!("{}", lint::render_human(&report)),
            }
            if report.denied().next().is_some() {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("xtask: {e}");
            ExitCode::FAILURE
        }
    }
}
