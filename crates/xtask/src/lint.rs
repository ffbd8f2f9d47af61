//! The lint engine: walks the tree, runs every registered rule, and
//! renders the findings.
//!
//! Two modes:
//!
//! * **Tree mode** (`xtask lint`): rules run with their path scopes over
//!   `src/` and `crates/*/src/` (tests, benches, examples, `vendor/` and
//!   the fixture corpus are out of scope). Any finding fails the run —
//!   this is the CI gate.
//! * **Self-check mode** (`xtask lint --self-check`): rules run *without*
//!   path scopes over `crates/xtask/fixtures/`, and the result is compared
//!   against the `// expect(<rule>)` annotations inside the fixtures. Every
//!   rule must flag every annotated snippet, and nothing else — a mutation
//!   test for the driver itself.

use crate::rules::{registry, Rule};
use crate::source::SourceFile;
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// One rule violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id.
    pub rule: String,
    /// Root-relative path (forward slashes).
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Explanation.
    pub message: String,
}

/// Result of a lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, in (path, line, rule) order.
    pub findings: Vec<Finding>,
    /// Files scanned.
    pub files: usize,
}

/// Recursively collects `.rs` files under `dir`.
fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("walk error under {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            walk(&path, out)?;
        } else if entry.file_name().to_string_lossy().ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The source files tree mode lints: the facade `src/` and every
/// `crates/*/src/` (including `src/bin/`), excluding fixtures and vendor.
pub fn tree_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    let src = root.join("src");
    if src.is_dir() {
        walk(&src, &mut files)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let entries = fs::read_dir(&crates).map_err(|e| format!("cannot read crates/: {e}"))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("walk error under crates/: {e}"))?;
            let crate_src = entry.path().join("src");
            if crate_src.is_dir() {
                walk(&crate_src, &mut files)?;
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Root-relative forward-slash display path.
fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Runs `rules` over `files`. When `scoped` is false (self-check), every
/// rule sees every file regardless of its path scope.
pub fn run(root: &Path, files: &[PathBuf], rules: &[Rule], scoped: bool) -> Result<Report, String> {
    let mut report = Report::default();
    for path in files {
        let text =
            fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let rel_path = rel(root, path);
        let file = SourceFile::parse(&text);
        report.files += 1;
        for rule in rules {
            if scoped && !(rule.applies)(&rel_path) {
                continue;
            }
            let mut raw = Vec::new();
            (rule.check)(&file, &mut raw);
            report.findings.extend(raw.into_iter().map(|f| Finding {
                rule: rule.id.to_string(),
                path: rel_path.clone(),
                line: f.line,
                message: f.message,
            }));
        }
    }
    // (path, line, rule) order; message breaks the rare tie so the output
    // is fully deterministic.
    report.findings.sort_by(|a, b| {
        (&a.path, a.line, &a.rule, &a.message).cmp(&(&b.path, b.line, &b.rule, &b.message))
    });
    Ok(report)
}

/// Lints the repo tree with scoped rules.
pub fn lint_tree(root: &Path) -> Result<Report, String> {
    let files = tree_files(root)?;
    run(root, &files, &registry(), true)
}

/// Renders the report: one line per finding, then a summary line.
pub fn render_human(report: &Report) -> String {
    let mut out = String::new();
    for f in &report.findings {
        out.push_str(&format!(
            "[{}] {}:{}: {}\n",
            f.rule, f.path, f.line, f.message
        ));
    }
    out.push_str(&format!(
        "lint: {} files scanned, {} findings\n",
        report.files,
        report.findings.len()
    ));
    out
}

/// The `// expect(<rule>)` annotations of the fixture corpus, as
/// (path, line, rule): each pins one finding to its line. Several may
/// share one comment, space-separated.
fn parse_annotations(
    root: &Path,
    files: &[PathBuf],
) -> Result<BTreeSet<(String, usize, String)>, String> {
    let mut expected = BTreeSet::new();
    for path in files {
        let text =
            fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let rel_path = rel(root, path);
        for (idx, line) in SourceFile::parse(&text).lines.iter().enumerate() {
            // Annotations are comments *starting* with `expect(` (after
            // the comment markers); prose that merely mentions the syntax
            // is ignored.
            let mut rest = line
                .comment
                .trim_start_matches(['/', '!', '*', ' '].as_slice());
            while let Some((rule, tail)) =
                rest.strip_prefix("expect(").and_then(|r| r.split_once(')'))
            {
                expected.insert((rel_path.clone(), idx + 1, rule.to_string()));
                rest = tail.trim_start();
            }
        }
    }
    Ok(expected)
}

/// Mutation self-test: lints the fixture corpus with all scopes open and
/// diffs the outcome against the corpus's own `expect` annotations.
/// Returns a list of discrepancies; empty means the driver is healthy.
pub fn self_check(root: &Path) -> Result<Vec<String>, String> {
    let fixtures = root.join("crates/xtask/fixtures");
    let mut files = Vec::new();
    walk(&fixtures, &mut files)?;
    files.sort();
    if files.is_empty() {
        return Err(format!("no fixtures under {}", fixtures.display()));
    }
    let rules = registry();
    let report = run(root, &files, &rules, false)?;
    let expected = parse_annotations(root, &files)?;
    let got: BTreeSet<(String, usize, String)> = report
        .findings
        .iter()
        .map(|f| (f.path.clone(), f.line, f.rule.clone()))
        .collect();

    let mut problems = Vec::new();
    // 1. Every annotated snippet was flagged.
    for (path, line, rule) in expected.difference(&got) {
        problems.push(format!(
            "fixture snippet NOT flagged: {path}:{line} expected `{rule}`"
        ));
    }
    // 2. Nothing unannotated was flagged (the linter must not over-fire).
    for (path, line, rule) in got.difference(&expected) {
        problems.push(format!(
            "unexpected finding in fixtures: {path}:{line} `{rule}` — annotate with \
             `// expect({rule})` or fix the rule"
        ));
    }
    // 3. Every registered rule is exercised by at least one fixture.
    for rule in &rules {
        if !expected.iter().any(|(_, _, r)| r == rule.id) {
            problems.push(format!(
                "rule `{}` has no fixture — add a known-bad snippet under crates/xtask/fixtures/",
                rule.id
            ));
        }
    }
    Ok(problems)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_root() -> PathBuf {
        // crates/xtask -> crates -> repo root
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .map(Path::to_path_buf)
            .unwrap_or_else(|| PathBuf::from("."))
    }

    /// The CI gate, doubled as a unit test: the tree must lint clean.
    #[test]
    fn repo_tree_is_clean() {
        let report = lint_tree(&repo_root()).expect("lint runs");
        assert!(
            report.findings.is_empty(),
            "lint findings:\n{}",
            render_human(&report)
        );
    }

    /// The toolchain half of the gate. rustc enforces the workspace lint
    /// table on every build, but clippy's lints fail nothing unless clippy
    /// runs, so this test runs it, in its own target dir. It first checks
    /// that every first-party crate opts in, so a new crate cannot escape.
    /// A toolchain without clippy fails here; it does not skip.
    #[test]
    fn toolchain_lints_are_on_and_clean() {
        let root = repo_root();
        let deny = "#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]";
        let casts = "#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]";
        let mut required = vec![
            (
                root.join("Cargo.toml"),
                "[workspace.lints.rust]\nunsafe_code = \"forbid\"\nmissing_docs = \"deny\"\n",
            ),
            (
                root.join("Cargo.toml"),
                "[workspace.lints.clippy]\nallow_attributes = \"deny\"\n",
            ),
            (root.join("crates/core/src/lib.rs"), casts),
            (root.join("crates/pool/src/lib.rs"), casts),
        ];
        // The wall clocks, and the atomic integers that only buddy-obs may
        // own without an `#[expect]`.
        let disallowed = [
            "disallowed-types = [\n    \"std::time::Instant\",\n    \"std::time::SystemTime\",\n",
            "{ path = \"std::sync::atomic::AtomicU64\", reason = \"metrics are buddy_obs::Counter",
            "{ path = \"std::sync::atomic::AtomicU32\", reason = \"metrics are buddy_obs::Counter",
            "{ path = \"std::sync::atomic::AtomicUsize\", reason = \"metrics are buddy_obs::Counter",
            "{ path = \"std::sync::atomic::AtomicI64\", reason = \"metrics are buddy_obs::Counter",
        ];
        required.extend(disallowed.map(|needle| (root.join("clippy.toml"), needle)));
        let mut packages: Vec<PathBuf> = fs::read_dir(root.join("crates"))
            .expect("crates/")
            .map(|e| e.expect("crates/ entry").path())
            .filter(|dir| dir.join("Cargo.toml").is_file())
            .collect();
        packages.push(root.clone());
        for dir in &packages {
            required.push((dir.join("Cargo.toml"), "[lints]\nworkspace = true\n"));
            let bins = fs::read_dir(dir.join("src/bin")).into_iter().flatten();
            let crate_roots = [dir.join("src/lib.rs"), dir.join("src/main.rs")]
                .into_iter()
                .chain(bins.map(|e| e.expect("src/bin entry").path()));
            required.extend(crate_roots.filter(|p| p.is_file()).map(|p| (p, deny)));
        }
        let missing: Vec<String> = required
            .iter()
            .filter(|(path, needle)| !fs::read_to_string(path).expect("readable").contains(needle))
            .map(|(path, needle)| format!("{}: `{needle}`", rel(&root, path)))
            .collect();
        assert!(
            missing.is_empty(),
            "lint opt-ins missing:\n{}",
            missing.join("\n")
        );

        let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
        let out = std::process::Command::new(cargo)
            .current_dir(&root)
            .env("CARGO_TARGET_DIR", root.join("target/clippy"))
            .args(["clippy", "--offline", "--locked"])
            .args(["--workspace", "--all-targets", "--", "-D", "warnings"])
            .output()
            .expect("cargo runs");
        assert!(
            out.status.success(),
            "cargo clippy failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    /// The mutation self-test, doubled as a unit test: every rule flags its
    /// fixture snippets and nothing else.
    #[test]
    fn fixtures_behave_as_annotated() {
        let problems = self_check(&repo_root()).expect("self-check runs");
        assert!(problems.is_empty(), "self-check:\n{}", problems.join("\n"));
    }
}
