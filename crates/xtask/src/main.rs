//! Repo-specific build tasks. The only task today is `lint`, the custom
//! static-analysis driver that gates CI:
//!
//! ```text
//! cargo run -p xtask -- lint               # exit 1 on any finding
//! cargo run -p xtask -- lint --self-check  # mutation-test the driver itself
//! ```
//!
//! See DESIGN.md §10 for the rule catalogue.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod lint;
mod rules;
mod source;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: cargo run -p xtask -- lint [--self-check]

  Run the repo's three protocol lint rules (nested-lock, read-path-lock,
  relaxed-ordering) over src/ and crates/*/src/. Exits 1 on any finding.
  --self-check lints the fixture corpus instead and verifies every rule
  flags exactly its known-bad snippets (the tooling's mutation test).
";

fn repo_root() -> PathBuf {
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
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let root = repo_root();
    match args.as_slice() {
        ["lint"] => match lint::lint_tree(&root) {
            Ok(report) => {
                print!("{}", lint::render_human(&report));
                if report.findings.is_empty() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("xtask: {e}");
                ExitCode::FAILURE
            }
        },
        ["lint", "--self-check"] => match lint::self_check(&root) {
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
        },
        [] | ["--help" | "-h" | "help"] => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!(
                "xtask: unrecognised arguments `{}`\n{USAGE}",
                args.join(" ")
            );
            ExitCode::FAILURE
        }
    }
}
