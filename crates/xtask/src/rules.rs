//! The lint rule registry: every repo-specific invariant the driver
//! enforces, with its path scope.
//!
//! Rules are text-level scans over the scrubbed source model (comments and
//! literal contents removed, unit-test modules excluded). Each rule
//! documents *why* the pattern is forbidden here — these are the locking
//! and ordering invariants no off-the-shelf tool knows about. Generic
//! hygiene (unwrap, lossy casts, wall clocks, raw atomics, unsafe code,
//! docs) is rustc's and clippy's job, and the seqlock word is a type
//! (`core::sync::SeqWord`); see DESIGN.md §10.

use crate::source::SourceFile;

/// One finding produced by a rule.
#[derive(Debug, Clone)]
pub struct RawFinding {
    /// 1-based line number.
    pub line: usize,
    /// What is wrong and what to do instead.
    pub message: String,
}

/// A registered lint rule.
pub struct Rule {
    /// Stable id, printed with each finding and named by fixture
    /// `expect(<id>)` annotations.
    pub id: &'static str,
    /// Path scope, over the root-relative path (forward slashes).
    pub applies: fn(&str) -> bool,
    /// The scan itself.
    pub check: fn(&SourceFile, &mut Vec<RawFinding>),
}

/// Every rule the driver knows, in reporting order.
pub fn registry() -> Vec<Rule> {
    vec![
        // No shard-lock acquisition while another shard guard is held
        // (deadlock risk).
        Rule {
            id: "nested-lock",
            applies: |p| p.starts_with("crates/pool/src/"),
            check: check_nested_lock,
        },
        // Pool read-path functions must not acquire a shard lock — reads
        // resolve against epoch-published snapshots.
        Rule {
            id: "read-path-lock",
            applies: |p| p.starts_with("crates/pool/src/"),
            check: check_read_path_lock,
        },
        // Every `Ordering::Relaxed` needs an adjacent `Relaxed: ...`
        // justification comment.
        Rule {
            id: "relaxed-ordering",
            applies: |_| true,
            check: check_relaxed_ordering,
        },
    ]
}

/// Tokens whose evaluation acquires a shard lock in `buddy-pool`.
const LOCK_TOKENS: [&str; 3] = [".lock()", "self.shard(", "self.guard_of("];

fn acquires_lock(code: &str) -> bool {
    LOCK_TOKENS.iter().any(|t| code.contains(t))
}

/// True when a `let` binds the *guard* rather than a value computed
/// through it: the lock call is the last call in the expression
/// (`let g = self.shard(i);`, `let g = self.guard_of(id)?;`). When a
/// further method is chained (`let r = self.shard(i).alloc(..);`) the
/// guard is a temporary that dies at the end of the statement.
fn binds_guard(code: &str) -> bool {
    LOCK_TOKENS
        .iter()
        .filter_map(|t| code.rfind(t).map(|p| p + t.len()))
        .max()
        .is_some_and(|end| !code[end..].contains('.'))
}

fn check_nested_lock(file: &SourceFile, out: &mut Vec<RawFinding>) {
    // Scoped heuristic: a `let`-bound acquisition holds its guard until the
    // enclosing block closes; any further acquisition while one is held is
    // a nested-lock hazard (the shard mutexes have no global order except
    // in `drain`, which must stay the only multi-lock path).
    let mut depth: i64 = 0;
    let mut held: Vec<i64> = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = line.code.trim();
        if acquires_lock(code) {
            if !held.is_empty() {
                out.push(RawFinding {
                    line: idx + 1,
                    message: "lock acquisition while a shard guard from an enclosing scope is \
                              still held — nested shard locks have no global order and can \
                              deadlock; drop the first guard before taking the next"
                        .to_string(),
                });
            }
            // Only `let`-bound guards are *held* past the statement; a
            // temporary guard dies at the end of its own expression. A
            // binding inside a single-line block (`{ let g = ...; ... }`)
            // dies on its own line, so it is never pushed either.
            if code.starts_with("let ") && !code.contains('}') && binds_guard(code) {
                held.push(depth);
            }
        }
        for c in line.code.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    while held.last().is_some_and(|&d| d > depth) {
                        held.pop();
                    }
                }
                _ => {}
            }
        }
    }
}

/// Signatures of the pool's lock-free read path. `fn read_entries` is a
/// prefix needle: it covers `read_entries_collect` and any other suffixed
/// variant, so no name exempts a batch read from the rule.
const READ_PATH_FNS: [&str; 3] = ["fn read_entries", "fn entry_state(", "fn state_window("];

/// Tokens whose presence inside a read-path body means a shard lock was
/// taken: the probe helpers that return a guard, and a guard type spelled
/// out in a binding.
const READ_PATH_LOCK_TOKENS: [&str; 3] = ["self.shard(", "self.guard_of(", "MutexGuard"];

fn check_read_path_lock(file: &SourceFile, out: &mut Vec<RawFinding>) {
    // The lock-free invariant from the epoch-snapshot redesign: the read
    // path (`read_entries` / `read_entries_collect` / `entry_state` /
    // `state_window`) resolves against published snapshots via
    // `handle_of`, never through the shard mutex. A future refactor that
    // quietly reintroduces a guard would still pass every functional
    // test — only the scaling collapses — so the invariant is pinned here.
    let mut depth: i64 = 0;
    // Some((floor, opened)): inside a read-path fn; the body is every line
    // until depth returns to `floor` after having exceeded it.
    let mut body: Option<(i64, bool)> = None;
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        if body.is_none() && READ_PATH_FNS.iter().any(|sig| code.contains(sig)) {
            body = Some((depth, false));
        }
        if body.is_some() {
            for token in READ_PATH_LOCK_TOKENS {
                if code.contains(token) {
                    out.push(RawFinding {
                        line: idx + 1,
                        message: format!(
                            "`{token}` on the pool read path — reads must resolve through the \
                             epoch-published snapshot (`handle_of`), never a shard guard"
                        ),
                    });
                }
            }
        }
        for c in code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if let Some((floor, opened)) = &mut body {
                        if depth > *floor {
                            *opened = true;
                        }
                    }
                }
                '}' => {
                    depth -= 1;
                    if let Some((floor, opened)) = body {
                        if opened && depth <= floor {
                            body = None;
                        }
                    }
                }
                _ => {}
            }
        }
    }
}

fn check_relaxed_ordering(file: &SourceFile, out: &mut Vec<RawFinding>) {
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        if line.code.contains("Ordering::Relaxed") && !file.has_adjacent_comment(idx + 1, "Relaxed")
        {
            out.push(RawFinding {
                line: idx + 1,
                message: "Ordering::Relaxed without a justification — add an adjacent comment \
                          starting `Relaxed: ...` explaining why no ordering is required"
                    .to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::Path;
    use std::process::Command;

    /// Marks each fixture line that the compiler or clippy must report.
    const FLAGGED: &str = "// flagged";

    /// Declares and constructs each atomic integer `clippy.toml` bans,
    /// then calls a method through a declared field and uses an
    /// `AtomicBool`, which stay allowed.
    const RAW_ATOMIC_FIXTURE: &str = r#"//! Raw atomic fixture.
use std::sync::atomic::{AtomicBool, Ordering};

pub struct Metrics {
    pub hits: std::sync::atomic::AtomicU64, // flagged
    pub misses: std::sync::atomic::AtomicU32, // flagged
    pub live: std::sync::atomic::AtomicUsize, // flagged
    pub drift: std::sync::atomic::AtomicI64, // flagged
}

pub fn metrics() -> Metrics {
    Metrics {
        hits: std::sync::atomic::AtomicU64::new(0), // flagged
        misses: Default::default(),
        live: Default::default(),
        drift: Default::default(),
    }
}

pub fn bump(m: &Metrics) -> u64 {
    m.hits.fetch_add(1, Ordering::Relaxed)
}

pub static READY: AtomicBool = AtomicBool::new(false);
"#;

    /// Mounts `core::sync` as a module and reaches a sequence word from a
    /// sibling module, the way `core::shared` does: once through the four
    /// protocol methods, then through a raw atomic method and the field.
    const SEQ_WORD_FIXTURE: &str = r#"//! Sequence word fixture.
#[path = SYNC_RS]
mod sync;

use std::sync::atomic::Ordering;
use sync::SeqWord;

pub fn protocol() -> u64 {
    let seq = SeqWord::default();
    let even = seq.acquire();
    if seq.open(even) {
        seq.release();
    }
    seq.revalidate()
}

pub fn raw_method() -> u64 {
    let seq = SeqWord::default();
    seq.load(Ordering::Acquire) // flagged
}

pub fn raw_field() {
    let seq = SeqWord::default();
    seq.0.store(1, Ordering::Release); // flagged
}
"#;

    fn flagged_lines(fixture: &str) -> Vec<usize> {
        (1..)
            .zip(fixture.lines())
            .filter(|(_, line)| line.ends_with(FLAGGED))
            .map(|(n, _)| n)
            .collect()
    }

    /// Builds `lib_rs` as a one-file crate under
    /// `target/xtask-fixtures/<name>` with `cargo <subcommand>`, clippy
    /// reading the repo's `clippy.toml`. Returns whether cargo succeeded
    /// and each `(line, message)` diagnostic on `src/lib.rs`, the message
    /// starting at its level (`warning: ...`, `error[E0599]: ...`).
    fn build_fixture(name: &str, subcommand: &str, lib_rs: &str) -> (bool, Vec<(usize, String)>) {
        let root = crate::repo_root();
        let dir = root.join("target/xtask-fixtures").join(name);
        fs::create_dir_all(dir.join("src")).expect("fixture dir");
        let manifest = format!(
            "[package]\nname = \"{name}\"\nversion = \"0.0.0\"\nedition = \"2021\"\n\n[workspace]\n"
        );
        fs::write(dir.join("Cargo.toml"), manifest).expect("fixture manifest");
        fs::write(dir.join("src/lib.rs"), lib_rs).expect("fixture source");
        let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
        let out = Command::new(cargo)
            .current_dir(&dir)
            .env("CARGO_TARGET_DIR", dir.join("target"))
            .env("CLIPPY_CONF_DIR", &root)
            .args([subcommand, "--offline", "--message-format", "short"])
            .output()
            .expect("cargo runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let diagnostics = stderr
            .lines()
            .filter_map(|l| l.strip_prefix("src/lib.rs:"))
            .filter_map(|l| {
                let (line, rest) = l.split_once(':')?;
                let (_column, message) = rest.split_once(':')?;
                Some((line.parse().ok()?, message.trim().to_string()))
            })
            .collect();
        (out.status.success(), diagnostics)
    }

    /// True when an inner (`#![...]`) attribute of `text` names
    /// `clippy::disallowed_types`, exempting the whole crate.
    fn exempts_crate(text: &str) -> bool {
        text.match_indices("#![").any(|(i, _)| {
            text[i..]
                .split(']')
                .next()
                .is_some_and(|attr| attr.contains("clippy::disallowed_types"))
        })
    }

    fn run(rule_id: &str, text: &str) -> Vec<RawFinding> {
        let file = SourceFile::parse(text);
        let mut out = Vec::new();
        let rules = registry();
        let rule = rules
            .iter()
            .find(|r| r.id == rule_id)
            .unwrap_or_else(|| panic!("rule {rule_id} registered"));
        (rule.check)(&file, &mut out);
        out
    }

    #[test]
    fn registry_ids_are_unique() {
        let ids: Vec<&str> = registry().iter().map(|r| r.id).collect();
        assert_eq!(ids, ["nested-lock", "read-path-lock", "relaxed-ordering"]);
    }

    /// Raw atomic integers are clippy's `disallowed_types`: clippy, run
    /// with the repo's `clippy.toml`, flags every declaration and
    /// construction of the four banned types and nothing else.
    #[test]
    fn raw_atomic_flags_declarations_and_constructions_only() {
        let (ok, diagnostics) = build_fixture("raw_atomic", "clippy", RAW_ATOMIC_FIXTURE);
        assert!(ok, "clippy runs on the fixture: {diagnostics:?}");
        let flagged: Vec<usize> = diagnostics
            .iter()
            .filter(|(_, message)| message.contains("use of a disallowed type"))
            .map(|(line, _)| *line)
            .collect();
        assert_eq!(
            flagged,
            flagged_lines(RAW_ATOMIC_FIXTURE),
            "{diagnostics:#?}"
        );
    }

    /// The only crate that exempts itself wholesale from the atomic ban is
    /// buddy-obs, which owns the metric primitives; every other atomic sits
    /// under an `#[expect]` on its own module or item.
    #[test]
    fn raw_atomic_scope_exempts_only_the_obs_crate() {
        let root = crate::repo_root();
        let mut packages: Vec<_> = fs::read_dir(root.join("crates"))
            .expect("crates/")
            .map(|e| e.expect("crates/ entry").path())
            .collect();
        packages.push(root.clone());
        let mut exempt: Vec<String> = packages
            .iter()
            .flat_map(|dir| {
                let bins = fs::read_dir(dir.join("src/bin")).into_iter().flatten();
                [dir.join("src/lib.rs"), dir.join("src/main.rs")]
                    .into_iter()
                    .chain(bins.map(|e| e.expect("src/bin entry").path()))
            })
            .filter(|p| p.is_file())
            .filter(|p| exempts_crate(&fs::read_to_string(p).expect("readable")))
            .map(|p| {
                let rel = p.strip_prefix(&root).unwrap_or(Path::new(""));
                rel.to_string_lossy().replace('\\', "/")
            })
            .collect();
        exempt.sort();
        assert_eq!(exempt, ["crates/obs/src/lib.rs"]);
        assert!(exempts_crate(
            "#![expect(\n    clippy::disallowed_types,\n    reason = \"r\"\n)]"
        ));
        assert!(!exempts_crate(
            "#[expect(clippy::disallowed_types, reason = \"r\")]\nuse a::B;"
        ));
        assert!(!exempts_crate(
            "#![no_std]\n#[expect(clippy::disallowed_types)]"
        ));
    }

    /// The seqlock word is `core::sync::SeqWord`, whose atomic is private
    /// to `sync`: a sibling module compiles against the four protocol
    /// methods, and each raw atomic call or field access on the word is a
    /// compile error.
    #[test]
    fn seqlock_discipline_flags_raw_seq_atomics_only() {
        let sync_rs = crate::repo_root().join("crates/core/src/sync.rs");
        let sync_rs = format!("{:?}", sync_rs.to_string_lossy());
        let fixture = SEQ_WORD_FIXTURE.replace("SYNC_RS", &sync_rs);
        let (ok, diagnostics) = build_fixture("seq_word", "check", &fixture);
        assert!(!ok, "raw sequence-word accesses compiled");
        let errors: Vec<usize> = diagnostics
            .iter()
            .filter(|(_, message)| message.starts_with("error"))
            .map(|(line, _)| *line)
            .collect();
        assert_eq!(errors, flagged_lines(&fixture), "{diagnostics:#?}");
    }

    #[test]
    fn nested_locks_are_flagged_sequential_locks_are_not() {
        let nested = "fn f(&self) {\n    let a = self.shard(0);\n    let b = self.shard(1);\n}";
        assert_eq!(run("nested-lock", nested).len(), 1);
        let nested_temp =
            "fn f(&self) {\n    let a = self.shard(0);\n    self.shard(1).stats();\n}";
        assert_eq!(run("nested-lock", nested_temp).len(), 1);
        let sequential =
            "fn f(&self) {\n    {\n        let a = self.shard(0);\n    }\n    let b = self.shard(1);\n}";
        assert!(run("nested-lock", sequential).is_empty());
        let loop_body =
            "fn f(&self) {\n    for i in 0..4 {\n        let g = self.shard(i);\n    }\n}";
        assert!(run("nested-lock", loop_body).is_empty());
        let temporaries =
            "fn f(&self) {\n    self.shard(0).stats();\n    self.shard(1).stats();\n}";
        assert!(run("nested-lock", temporaries).is_empty());
        // Binding the *result* of a call through the guard leaves nothing
        // held: the guard temporary dies at the end of the statement.
        let result_bound =
            "fn f(&self) {\n    let r = self.shard(0).alloc(n);\n    let g = self.shard(1);\n}";
        assert!(run("nested-lock", result_bound).is_empty());
        let guard_via_try =
            "fn f(&self) {\n    let g = self.guard_of(id)?;\n    self.shard(0).stats();\n}";
        assert_eq!(run("nested-lock", guard_via_try).len(), 1);
    }

    #[test]
    fn read_path_lock_flags_guards_only_inside_read_fns() {
        let shard_guard =
            "impl P {\n    fn read_entries(&self) -> u64 {\n        let g = self.shard(0);\n        g.read()\n    }\n}";
        assert_eq!(run("read-path-lock", shard_guard).len(), 1);
        let guard_of = "fn read_entries(&self) -> u64 {\n    self.guard_of(id)?.read()\n}";
        assert_eq!(run("read-path-lock", guard_of).len(), 1);
        let spelled_guard =
            "fn entry_state(&self) {\n    let g: MutexGuard<'_, D> = self.inner.lock();\n}";
        assert_eq!(run("read-path-lock", spelled_guard).len(), 1);
        // The snapshot path is the required shape and is clean.
        let snapshot = "fn read_entries(&self) -> u64 {\n    self.handle_of(id)?.read()\n}";
        assert!(run("read-path-lock", snapshot).is_empty());
        // No suffix exempts a batch read: the needle is a prefix.
        let suffixed =
            "fn read_entries_via_guard(&self) -> u64 {\n    self.guard_of(id)?.read()\n}";
        assert_eq!(run("read-path-lock", suffixed).len(), 1);
        // Structural operations may lock all they like.
        let structural = "fn alloc(&self) -> u64 {\n    let g = self.shard(0);\n    g.alloc()\n}";
        assert!(run("read-path-lock", structural).is_empty());
        // A multi-line signature still anchors the body scan.
        let multiline = "pub fn read_entries(\n    &self,\n    id: AllocId,\n) -> u64 {\n    self.shard(0).read()\n}";
        assert_eq!(run("read-path-lock", multiline).len(), 1);
        // The body ends at its closing brace: a lock in the *next* fn is fine.
        let after_body = "impl P {\n    fn read_entries(&self) -> u64 {\n        self.handle_of(id)?.read()\n    }\n    fn free(&self) {\n        let g = self.shard(0);\n    }\n}";
        assert!(run("read-path-lock", after_body).is_empty());
    }

    #[test]
    fn read_path_lock_scope_is_the_pool_crate() {
        let rules = registry();
        let rule = rules
            .iter()
            .find(|r| r.id == "read-path-lock")
            .expect("rule registered");
        assert!((rule.applies)("crates/pool/src/lib.rs"));
        // Core and service define their own read fns against different
        // locking disciplines; the invariant is the *pool's*.
        assert!(!(rule.applies)("crates/core/src/device.rs"));
        assert!(!(rule.applies)("crates/service/src/lib.rs"));
    }

    #[test]
    fn relaxed_needs_a_justification_comment() {
        assert_eq!(
            run("relaxed-ordering", "c.fetch_add(1, Ordering::Relaxed);").len(),
            1
        );
        let justified =
            "// Relaxed: counter only needs atomicity.\nc.fetch_add(1, Ordering::Relaxed);";
        assert!(run("relaxed-ordering", justified).is_empty());
        let same_line = "c.fetch_add(1, Ordering::Relaxed); // Relaxed: id uniqueness only";
        assert!(run("relaxed-ordering", same_line).is_empty());
    }
}
