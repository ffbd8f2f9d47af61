//! The lint engine: walks the tree, runs every registered rule, resolves
//! `lint-allow` waivers, and renders findings as human text or JSON.
//!
//! Two modes:
//!
//! * **Tree mode** (`xtask lint`): rules run with their path scopes over
//!   `src/` and `crates/*/src/` (tests, benches, examples, `vendor/` and
//!   the fixture corpus are out of scope). Any unwaived `deny` finding
//!   fails the run — this is the CI gate.
//! * **Self-check mode** (`xtask lint --self-check`): rules run *without*
//!   path scopes over `crates/xtask/fixtures/`, and the result is compared
//!   against the `// expect(<rule>)` annotations inside the fixtures. Every
//!   rule must flag every annotated snippet (and nothing else), and every
//!   `lint-allow` in the corpus must suppress its finding — a mutation
//!   test for the driver itself.

use crate::rules::{pseudo_summary, registry, Rule, Severity};
use crate::source::SourceFile;
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// A finding after waiver resolution.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id.
    pub rule: String,
    /// Rule severity.
    pub severity: Severity,
    /// Root-relative path (forward slashes).
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Explanation.
    pub message: String,
    /// The rule's one-line summary — what invariant this rule guards,
    /// independent of the specific finding.
    pub description: String,
    /// Set when a `lint-allow` / `lint-allow-file` covers this finding;
    /// carries the reason.
    pub waived: Option<String>,
}

/// Result of a lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, waived included, in (path, line, rule) order.
    pub findings: Vec<Finding>,
    /// Files scanned.
    pub files: usize,
}

impl Report {
    /// Findings that gate the exit status.
    pub fn denied(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.waived.is_none() && f.severity == Severity::Deny)
    }

    /// Count of waived findings.
    pub fn waived_count(&self) -> usize {
        self.findings.iter().filter(|f| f.waived.is_some()).count()
    }
}

/// Recursively collects `.rs` files under `dir`, skipping `skip_dirs`.
fn walk(dir: &Path, skip_dirs: &[&str], out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("walk error under {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if skip_dirs.contains(&name.as_ref()) {
                continue;
            }
            walk(&path, skip_dirs, out)?;
        } else if name.ends_with(".rs") {
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
        walk(&src, &[], &mut files)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let entries = fs::read_dir(&crates).map_err(|e| format!("cannot read crates/: {e}"))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("walk error under crates/: {e}"))?;
            let crate_src = entry.path().join("src");
            if crate_src.is_dir() {
                walk(&crate_src, &[], &mut files)?;
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
        let waivers = file.waivers();
        let file_waivers = file.file_waivers();
        report.files += 1;

        // A waiver naming an unregistered rule is itself a defect.
        for w in &waivers {
            if !rules.iter().any(|r| r.id == w.rule) {
                report.findings.push(Finding {
                    rule: "unknown-waiver".into(),
                    severity: Severity::Deny,
                    path: rel_path.clone(),
                    line: w.comment_line,
                    message: format!("waiver names unknown rule `{}`", w.rule),
                    description: pseudo_summary("unknown-waiver").into(),
                    waived: None,
                });
            }
        }

        // File waivers are validated once per file: a misplaced one never
        // suppresses (and is the only finding it produces — its rule name
        // and reason are moot until it moves); a well-placed one must name
        // a known rule and carry a reason to suppress anything.
        for fw in &file_waivers {
            let (rule, message) = if fw.misplaced {
                (
                    "misplaced-file-waiver",
                    format!(
                        "file waiver for `{}` appears after code starts — move it into the \
                         leading comment block so reviewers see the file-wide exemption",
                        fw.rule
                    ),
                )
            } else if !rules.iter().any(|r| r.id == fw.rule) {
                (
                    "unknown-waiver",
                    format!("file waiver names unknown rule `{}`", fw.rule),
                )
            } else if fw.reason.is_empty() {
                (
                    "waiver-without-reason",
                    format!(
                        "file waiver for `{}` gives no reason — `lint-allow-file({}): <why>`",
                        fw.rule, fw.rule
                    ),
                )
            } else {
                continue;
            };
            report.findings.push(Finding {
                rule: rule.into(),
                severity: Severity::Deny,
                path: rel_path.clone(),
                line: fw.comment_line,
                message,
                description: pseudo_summary(rule).into(),
                waived: None,
            });
        }

        for rule in rules {
            if scoped && !(rule.applies)(&rel_path) {
                continue;
            }
            let mut raw = Vec::new();
            (rule.check)(&file, &mut raw);
            for finding in raw {
                let waiver = waivers
                    .iter()
                    .find(|w| w.rule == rule.id && w.target_line == finding.line);
                let waived = match waiver {
                    Some(w) if w.reason.is_empty() => {
                        report.findings.push(Finding {
                            rule: "waiver-without-reason".into(),
                            severity: Severity::Deny,
                            path: rel_path.clone(),
                            line: w.comment_line,
                            message: format!(
                                "waiver for `{}` gives no reason — `lint-allow({}): <why>`",
                                rule.id, rule.id
                            ),
                            description: pseudo_summary("waiver-without-reason").into(),
                            waived: None,
                        });
                        None // a reasonless waiver does not suppress
                    }
                    Some(w) => Some(w.reason.clone()),
                    // No line waiver: a well-formed file waiver for this
                    // rule covers every finding in the file.
                    None => file_waivers
                        .iter()
                        .find(|fw| fw.rule == rule.id && !fw.misplaced && !fw.reason.is_empty())
                        .map(|fw| fw.reason.clone()),
                };
                report.findings.push(Finding {
                    rule: rule.id.to_string(),
                    severity: rule.severity,
                    path: rel_path.clone(),
                    line: finding.line,
                    message: finding.message,
                    description: rule.summary.into(),
                    waived,
                });
            }
        }
    }
    // (path, line, rule) is the contract consumers may rely on; message
    // breaks the rare tie so the byte stream is fully deterministic.
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

/// Renders the report for humans. Waived findings are summarized, not
/// listed, so the signal is the gate.
pub fn render_human(report: &Report) -> String {
    let mut out = String::new();
    for f in report.findings.iter().filter(|f| f.waived.is_none()) {
        out.push_str(&format!(
            "{}: [{}] {}:{}: {}\n",
            f.severity, f.rule, f.path, f.line, f.message
        ));
    }
    let denied = report.denied().count();
    let warned = report
        .findings
        .iter()
        .filter(|f| f.waived.is_none() && f.severity == Severity::Warn)
        .count();
    out.push_str(&format!(
        "lint: {} files scanned, {denied} denied, {warned} warnings, {} waived\n",
        report.files,
        report.waived_count()
    ));
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the report as a single JSON object (stable field order).
pub fn render_json(report: &Report) -> String {
    let mut out = String::from("{\"findings\":[");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"rule\":\"{}\",\"severity\":\"{}\",\"description\":\"{}\",\"path\":\"{}\",\"line\":{},\"message\":\"{}\",\"waived\":{}}}",
            json_escape(&f.rule),
            f.severity,
            json_escape(&f.description),
            json_escape(&f.path),
            f.line,
            json_escape(&f.message),
            match &f.waived {
                Some(reason) => format!("\"{}\"", json_escape(reason)),
                None => "null".to_string(),
            }
        ));
    }
    out.push_str(&format!(
        "],\"summary\":{{\"files\":{},\"denied\":{},\"waived\":{}}}}}",
        report.files,
        report.denied().count(),
        report.waived_count()
    ));
    out.push('\n');
    out
}

/// Expected findings parsed out of the fixture corpus: `// expect(<rule>)`
/// pins an unwaived finding to its line; `// expect-file(<rule>)` pins one
/// anywhere in the file (for file-level rules).
#[derive(Debug, Default)]
struct Expectations {
    /// (path, line, rule)
    at_line: BTreeSet<(String, usize, String)>,
    /// (path, rule)
    in_file: BTreeSet<(String, String)>,
    /// (path, line) covered by a lint-allow waiver, with the waived rule.
    waived: BTreeSet<(String, usize, String)>,
    /// (path, rule) covered by a well-formed `lint-allow-file` waiver.
    waived_file: BTreeSet<(String, String)>,
}

fn parse_annotations(
    root: &Path,
    files: &[PathBuf],
    rules: &[Rule],
) -> Result<Expectations, String> {
    let mut exp = Expectations::default();
    for path in files {
        let text =
            fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let rel_path = rel(root, path);
        let file = SourceFile::parse(&text);
        for (idx, line) in file.lines.iter().enumerate() {
            // Annotations are comments *starting* with `expect(` /
            // `expect-file(` (after the comment markers); prose that merely
            // mentions the syntax is ignored. Several annotations may share
            // one comment, space-separated.
            let mut rest = line
                .comment
                .trim_start_matches(['/', '!', '*', ' '].as_slice());
            loop {
                if let Some(r) = rest.strip_prefix("expect-file(") {
                    if let Some(close) = r.find(')') {
                        exp.in_file
                            .insert((rel_path.clone(), r[..close].to_string()));
                        rest = r[close + 1..].trim_start();
                        continue;
                    }
                } else if let Some(r) = rest.strip_prefix("expect(") {
                    if let Some(close) = r.find(')') {
                        exp.at_line
                            .insert((rel_path.clone(), idx + 1, r[..close].to_string()));
                        rest = r[close + 1..].trim_start();
                        continue;
                    }
                }
                break;
            }
        }
        for w in file.waivers() {
            // Reasonless and unknown-rule waivers are themselves findings
            // (exercised by fixtures); only well-formed waivers are expected
            // to suppress anything.
            if w.reason.is_empty() || !rules.iter().any(|r| r.id == w.rule) {
                continue;
            }
            exp.waived
                .insert((rel_path.clone(), w.target_line, w.rule.clone()));
        }
        for fw in file.file_waivers() {
            // Misplaced, reasonless and unknown-rule file waivers are
            // themselves findings; only well-formed ones must suppress.
            if fw.misplaced || fw.reason.is_empty() || !rules.iter().any(|r| r.id == fw.rule) {
                continue;
            }
            exp.waived_file.insert((rel_path.clone(), fw.rule.clone()));
        }
    }
    Ok(exp)
}

/// Mutation self-test: lints the fixture corpus with all scopes open and
/// diffs the outcome against the corpus's own `expect` annotations.
/// Returns a list of discrepancies; empty means the driver is healthy.
pub fn self_check(root: &Path) -> Result<Vec<String>, String> {
    let fixtures = root.join("crates/xtask/fixtures");
    let mut files = Vec::new();
    walk(&fixtures, &[], &mut files)?;
    files.sort();
    if files.is_empty() {
        return Err(format!("no fixtures under {}", fixtures.display()));
    }
    let rules = registry();
    let report = run(root, &files, &rules, false)?;
    let expected = parse_annotations(root, &files, &rules)?;

    let mut problems = Vec::new();

    // 1. Every line-pinned expectation produced exactly one unwaived finding.
    let got: BTreeSet<(String, usize, String)> = report
        .findings
        .iter()
        .filter(|f| f.waived.is_none())
        .map(|f| (f.path.clone(), f.line, f.rule.clone()))
        .collect();
    for (path, line, rule) in &expected.at_line {
        if !got.contains(&(path.clone(), *line, rule.clone())) {
            problems.push(format!(
                "fixture snippet NOT flagged: {path}:{line} expected `{rule}`"
            ));
        }
    }
    // 2. No unannotated unwaived findings (the linter must not over-fire).
    for (path, line, rule) in &got {
        let annotated = expected
            .at_line
            .contains(&(path.clone(), *line, rule.clone()))
            || expected.in_file.contains(&(path.clone(), rule.clone()));
        if !annotated {
            problems.push(format!(
                "unexpected finding in fixtures: {path}:{line} `{rule}` — annotate with \
                 `// expect({rule})` or fix the rule"
            ));
        }
    }
    // 3. File-level expectations fired somewhere in their file.
    for (path, rule) in &expected.in_file {
        if !got.iter().any(|(p, _, r)| p == path && r == rule) {
            problems.push(format!("fixture file {path}: `{rule}` never fired"));
        }
    }
    // 4. Every lint-allow in the corpus suppressed a real finding (waivers
    //    must bind to actual findings, proving suppression works).
    let waived_got: BTreeSet<(String, usize, String)> = report
        .findings
        .iter()
        .filter(|f| f.waived.is_some())
        .map(|f| (f.path.clone(), f.line, f.rule.clone()))
        .collect();
    for key in &expected.waived {
        if !waived_got.contains(key) {
            problems.push(format!(
                "waiver at {}:{} for `{}` suppressed nothing — the waived snippet must \
                 still be a genuine finding",
                key.0, key.1, key.2
            ));
        }
    }
    // 4b. Same for file-scoped waivers: each well-formed one must have
    //     suppressed at least one finding of its rule in its file.
    for (path, rule) in &expected.waived_file {
        if !waived_got.iter().any(|(p, _, r)| p == path && r == rule) {
            problems.push(format!(
                "file waiver in {path} for `{rule}` suppressed nothing — the file must \
                 still contain at least one genuine `{rule}` finding"
            ));
        }
    }
    // 5. Every registered rule is exercised by at least one fixture.
    for rule in &rules {
        let exercised = expected.at_line.iter().any(|(_, _, r)| r == rule.id)
            || expected.in_file.iter().any(|(_, r)| r == rule.id);
        if !exercised {
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
    use crate::rules::RawFinding;

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
        let denied: Vec<String> = report
            .denied()
            .map(|f| format!("[{}] {}:{}: {}", f.rule, f.path, f.line, f.message))
            .collect();
        assert!(
            denied.is_empty(),
            "unwaived lint findings:\n{}",
            denied.join("\n")
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
                root.join("clippy.toml"),
                "disallowed-types = [\"std::time::Instant\", \"std::time::SystemTime\"]",
            ),
            (root.join("crates/core/src/lib.rs"), casts),
            (root.join("crates/pool/src/lib.rs"), casts),
        ];
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
    /// fixture snippets and every fixture waiver suppresses.
    #[test]
    fn fixtures_behave_as_annotated() {
        let problems = self_check(&repo_root()).expect("self-check runs");
        assert!(problems.is_empty(), "self-check:\n{}", problems.join("\n"));
    }

    #[test]
    fn warn_severity_never_gates() {
        let rule = Rule {
            id: "test-warn",
            severity: Severity::Warn,
            summary: "always fires",
            applies: |_| true,
            check: |_, out| {
                out.push(RawFinding {
                    line: 1,
                    message: "warn finding".into(),
                })
            },
        };
        let dir = std::env::temp_dir().join("xtask-warn-test");
        fs::create_dir_all(&dir).expect("temp dir");
        let file = dir.join("w.rs");
        fs::write(&file, "fn f() {}\n").expect("write fixture");
        let report = run(&dir, &[file], &[rule], true).expect("run");
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.denied().count(), 0, "warn findings must not gate");
        assert!(render_json(&report).contains("\"severity\":\"warn\""));
    }

    #[test]
    fn json_is_well_formed_enough() {
        let report = Report {
            findings: vec![Finding {
                rule: "nested-lock".into(),
                severity: Severity::Deny,
                path: "a\"b.rs".into(),
                line: 3,
                message: "quote \" and backslash \\".into(),
                description: "no nested locks".into(),
                waived: Some("because".into()),
            }],
            files: 1,
        };
        let json = render_json(&report);
        assert!(json.contains("\\\"") && json.contains("\\\\"));
        assert!(json.contains("\"description\":\"no nested locks\""));
        assert!(json.ends_with("}\n"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    /// Pins the machine output contract: findings arrive sorted by
    /// (path, line, rule), every finding carries the rule's description,
    /// and the byte stream is identical across runs.
    #[test]
    fn json_output_is_deterministic_and_ordered() {
        let dir = std::env::temp_dir().join("xtask-json-det-test");
        fs::create_dir_all(&dir).expect("temp dir");
        // `b.rs` written before `a.rs`: path order must come from sorting,
        // not the filesystem.
        let b = dir.join("b.rs");
        let a = dir.join("a.rs");
        fs::write(&b, "static N: AtomicU64 = AtomicU64::new(0);\n").expect("write b");
        fs::write(
            &a,
            "fn g(c: &AtomicU64) { c.load(Ordering::Relaxed); }\nstatic M: AtomicU32 = AtomicU32::new(0);\n",
        )
        .expect("write a");
        let rules = registry();
        let files = vec![b.clone(), a.clone()];
        let first = render_json(&run(&dir, &files, &rules, false).expect("run"));
        let second = render_json(&run(&dir, &files, &rules, false).expect("run"));
        assert_eq!(first, second, "same inputs must produce identical bytes");
        let pos_a1 = first.find("\"path\":\"a.rs\",\"line\":1").expect("a.rs:1");
        let pos_a2 = first.find("\"path\":\"a.rs\",\"line\":2").expect("a.rs:2");
        let pos_b = first.find("\"path\":\"b.rs\"").expect("b.rs");
        assert!(
            pos_a1 < pos_a2 && pos_a2 < pos_b,
            "findings must sort by (path, line, rule):\n{first}"
        );
        let summary = rules
            .iter()
            .find(|r| r.id == "relaxed-ordering")
            .expect("rule")
            .summary;
        assert!(
            first.contains(&format!("\"description\":\"{summary}\"")),
            "every finding carries its rule's summary as the description"
        );
    }

    /// File-scoped waivers suppress every finding of their rule, but only
    /// when well-placed and reasoned; the failure modes each produce their
    /// own deny finding.
    #[test]
    fn file_waivers_suppress_and_misfires_are_findings() {
        let dir = std::env::temp_dir().join("xtask-file-waiver-test");
        fs::create_dir_all(&dir).expect("temp dir");
        let good = dir.join("good.rs");
        fs::write(
            &good,
            "//! Docs.\n// lint-allow-file(raw-atomic-metric): demo reason\nstatic N: AtomicU64 = AtomicU64::new(0);\nstruct S { hits: AtomicU32 }\n",
        )
        .expect("write good");
        let bad = dir.join("bad.rs");
        fs::write(
            &bad,
            "// lint-allow-file(no-such-rule): bogus target\n// lint-allow-file(relaxed-ordering)\nfn f(c: &AtomicU64) -> u64 { c.load(Ordering::Relaxed) }\n// lint-allow-file(raw-atomic-metric): too late\nstatic N: AtomicU64 = AtomicU64::new(0);\n",
        )
        .expect("write bad");
        let rules = registry();
        let report = run(&dir, &[good, bad], &rules, false).expect("run");
        let by_rule = |rule: &str| -> Vec<&Finding> {
            report.findings.iter().filter(|f| f.rule == rule).collect()
        };
        // good.rs: both raw-atomic-metric findings exist but are waived.
        let good_atomics: Vec<&Finding> = report
            .findings
            .iter()
            .filter(|f| f.path == "good.rs" && f.rule == "raw-atomic-metric")
            .collect();
        assert_eq!(good_atomics.len(), 2);
        assert!(good_atomics
            .iter()
            .all(|f| f.waived.as_deref() == Some("demo reason")));
        // bad.rs: each malformed waiver is its own deny, and neither the
        // reasonless nor the misplaced one suppressed the finding it names.
        assert_eq!(by_rule("unknown-waiver").len(), 1);
        assert_eq!(by_rule("waiver-without-reason").len(), 1);
        assert_eq!(by_rule("misplaced-file-waiver").len(), 1);
        for rule in ["relaxed-ordering", "raw-atomic-metric"] {
            assert!(report
                .findings
                .iter()
                .any(|f| f.path == "bad.rs" && f.rule == rule && f.waived.is_none()));
        }
    }
}
