//! The lint rule registry: every repo-specific invariant the driver
//! enforces, with its severity and path scope.
//!
//! Rules are text-level scans over the scrubbed source model (comments and
//! literal contents removed, unit-test modules excluded where a rule says
//! so). Each rule documents *why* the pattern is forbidden here — these are
//! the locking, ordering and metric invariants no off-the-shelf tool knows
//! about. Generic hygiene (unwrap, lossy casts, wall clocks, unsafe code,
//! docs) is rustc's and clippy's job; see DESIGN.md §10.

use crate::source::{SourceFile, Token, TokenKind};
use std::collections::BTreeSet;
use std::fmt;

/// How a finding affects the exit status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Unwaived findings fail the run (CI gate).
    Deny,
    /// Reported but never fails the run — for incubating rules.
    Warn,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Deny => write!(f, "deny"),
            Severity::Warn => write!(f, "warn"),
        }
    }
}

/// One finding produced by a rule, before waiver resolution.
#[derive(Debug, Clone)]
pub struct RawFinding {
    /// 1-based line number.
    pub line: usize,
    /// What is wrong and what to do instead.
    pub message: String,
}

/// A registered lint rule.
pub struct Rule {
    /// Stable id used in `lint-allow(<id>)` waivers and JSON output.
    pub id: &'static str,
    /// Gate behaviour of unwaived findings.
    pub severity: Severity,
    /// One-line description for `--help`-ish listings and docs.
    pub summary: &'static str,
    /// Path scope, over the root-relative path (forward slashes).
    pub applies: fn(&str) -> bool,
    /// The scan itself.
    pub check: fn(&SourceFile, &mut Vec<RawFinding>),
}

/// Every rule the driver knows, in reporting order.
pub fn registry() -> Vec<Rule> {
    vec![
        Rule {
            id: "nested-lock",
            severity: Severity::Deny,
            summary: "no shard-lock acquisition while another shard guard is held (deadlock risk)",
            applies: |p| p.starts_with("crates/pool/src/"),
            check: check_nested_lock,
        },
        Rule {
            id: "read-path-lock",
            severity: Severity::Deny,
            summary: "pool read-path functions must not acquire a shard lock — reads resolve \
                      against epoch-published snapshots",
            applies: |p| p.starts_with("crates/pool/src/"),
            check: check_read_path_lock,
        },
        Rule {
            id: "relaxed-ordering",
            severity: Severity::Deny,
            summary:
                "every Ordering::Relaxed needs an adjacent `Relaxed: ...` justification comment",
            applies: |_| true,
            check: check_relaxed_ordering,
        },
        Rule {
            id: "raw-atomic-metric",
            severity: Severity::Deny,
            summary: "no ad-hoc atomic counters in library code — metric primitives live in \
                      buddy_obs",
            applies: |p| !p.starts_with("crates/obs/src/"),
            check: check_raw_atomic_metric,
        },
        Rule {
            id: "seqlock-discipline",
            severity: Severity::Deny,
            summary: "seqlock sequence words are touched only through the named core::sync \
                      helpers (seq_acquire/seq_revalidate/seq_open/seq_release)",
            applies: |p| p == "crates/core/src/shared.rs",
            check: check_seqlock_discipline,
        },
    ]
}

/// Summaries for the driver's own waiver-hygiene findings, which have no
/// registered [`Rule`]. Feeds the JSON `description` field.
pub fn pseudo_summary(id: &str) -> &'static str {
    match id {
        "unknown-waiver" => "a waiver names a rule the registry does not know",
        "waiver-without-reason" => "every waiver must carry a reason after the colon",
        "misplaced-file-waiver" => {
            "file-scoped waivers must sit in the leading comment block, before any code"
        }
        _ => "",
    }
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
                              deadlock; restructure or waive with the ordering argument"
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
                             epoch-published snapshot (`handle_of`), never a shard guard; \
                             waive with why this lock cannot serialize readers"
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

/// Atomic method names whose receiver must not be a bare `seq` word.
const SEQ_METHODS: [&str; 9] = [
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "compare_exchange",
];

fn check_seqlock_discipline(file: &SourceFile, out: &mut Vec<RawFinding>) {
    // The seqlock's correctness is concentrated in four ordering choices
    // (open, close, first read, re-validation), each proven by a mutation
    // in `buddy-check` (SkipOddBump, CloseRelaxed, NoReaderFence,
    // NoWriterFence). Those proofs only cover code that goes through the
    // named helpers — a raw `seq.load(..)` re-opens the whole argument, so
    // the sequence word may only be touched via
    // `seq_acquire`/`seq_revalidate`/`seq_open`/`seq_release`.
    let toks: Vec<Token> = file.tokens().into_iter().filter(|t| !t.in_test).collect();
    let mut seen = BTreeSet::new();
    for i in 0..toks.len() {
        if !(toks[i].kind == TokenKind::Ident && toks[i].text == "seq") {
            continue;
        }
        if !toks.get(i + 1).is_some_and(|t| t.text == ".") {
            continue;
        }
        let Some(method) = toks.get(i + 2) else {
            continue;
        };
        if SEQ_METHODS.contains(&method.text.as_str()) && seen.insert(method.line) {
            out.push(RawFinding {
                line: method.line,
                message: format!(
                    "raw `seq.{}(..)` on a seqlock sequence word — use the `crate::sync` \
                     helpers (`seq_acquire`/`seq_revalidate` to read, `seq_open`/\
                     `seq_release` to write) whose orderings carry model-checker evidence",
                    method.text
                ),
            });
        }
    }
}

/// Atomic integer types whose ad-hoc declaration in service/pool library
/// code the `raw-atomic-metric` rule rejects.
const RAW_ATOMICS: [&str; 4] = ["AtomicU64", "AtomicU32", "AtomicUsize", "AtomicI64"];

/// True when `code` *declares* (`field: AtomicU64`) or *constructs*
/// (`AtomicU64::new(...)`) a raw atomic of type `ty`. Imports
/// (`use ...::AtomicU64`) and references (`&AtomicU64`) deliberately do not
/// match: borrowing or naming a counter is fine, owning a new one is what
/// fragments the metric surface.
fn declares_or_constructs(code: &str, ty: &str) -> bool {
    if code.contains(&format!("{ty}::new(")) {
        return true;
    }
    let needle = format!(": {ty}");
    let mut search = 0usize;
    while let Some(pos) = code[search..].find(&needle) {
        let after = search + pos + needle.len();
        let boundary = !code[after..]
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
        if boundary {
            return true;
        }
        search = after;
    }
    false
}

fn check_raw_atomic_metric(file: &SourceFile, out: &mut Vec<RawFinding>) {
    // Scattered per-module atomics are how a telemetry surface decays: each
    // one invents its own reset/snapshot story and the report rows silently
    // go stale. All metrics must go through `buddy_obs`'s `Counter` /
    // `Histogram` (the one crate that owns the memory-order and
    // snapshot contracts — `crates/obs/src/` is exempt from this rule); an
    // atomic that is *not* a metric (e.g. an id source) is waived with that
    // argument.
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for ty in RAW_ATOMICS {
            if declares_or_constructs(&line.code, ty) {
                out.push(RawFinding {
                    line: idx + 1,
                    message: format!(
                        "ad-hoc `{ty}` in library code — route metrics through `buddy_obs` \
                         (`Counter`/`Histogram`), or waive with why this atomic is \
                         not a metric"
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let rules = registry();
        for (i, a) in rules.iter().enumerate() {
            for b in &rules[i + 1..] {
                assert_ne!(a.id, b.id);
            }
        }
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

    #[test]
    fn raw_atomic_flags_declarations_and_constructions_only() {
        assert_eq!(run("raw-atomic-metric", "hits: AtomicU64,").len(), 1);
        assert_eq!(
            run("raw-atomic-metric", "let c = AtomicU64::new(0);").len(),
            1
        );
        assert_eq!(
            run(
                "raw-atomic-metric",
                "static N: AtomicUsize = AtomicUsize::new(0);"
            )
            .len(),
            1
        );
        // Imports, references, and unrelated identifiers are not ownership.
        assert!(run(
            "raw-atomic-metric",
            "use std::sync::atomic::{AtomicU64, Ordering};"
        )
        .is_empty());
        assert!(run("raw-atomic-metric", "fn observe(c: &AtomicU64) -> u64 {").is_empty());
        assert!(run("raw-atomic-metric", "hits: AtomicU64Ext,").is_empty());
        // Test modules may use whatever bookkeeping they like.
        let in_test = "#[cfg(test)]\nmod tests { static N: AtomicU64 = AtomicU64::new(0); }";
        assert!(run("raw-atomic-metric", in_test).is_empty());
    }

    #[test]
    fn raw_atomic_scope_exempts_only_the_obs_crate() {
        let rules = registry();
        let rule = rules
            .iter()
            .find(|r| r.id == "raw-atomic-metric")
            .expect("rule registered");
        // Everything is in scope now that the primitives live in buddy_obs —
        // including the service (which counts with them, owning no atomics),
        // the bench drivers and the core crate.
        assert!((rule.applies)("crates/service/src/lib.rs"));
        assert!((rule.applies)("crates/bench/src/tenantfig.rs"));
        assert!((rule.applies)("crates/pool/src/lib.rs"));
        assert!((rule.applies)("crates/core/src/device.rs"));
        assert!((rule.applies)("src/lib.rs"));
        // The one home raw metric atomics are allowed: the obs crate itself.
        assert!(!(rule.applies)("crates/obs/src/hist.rs"));
        assert!(!(rule.applies)("crates/obs/src/metrics.rs"));
        assert!(!(rule.applies)("crates/obs/src/trace.rs"));
    }

    #[test]
    fn seqlock_discipline_flags_raw_seq_atomics_only() {
        assert_eq!(
            run(
                "seqlock-discipline",
                "let s = self.seq.load(Ordering::Acquire);"
            )
            .len(),
            1
        );
        assert_eq!(
            run(
                "seqlock-discipline",
                "cell.seq.fetch_add(1, Ordering::Release);"
            )
            .len(),
            1
        );
        assert_eq!(
            run(
                "seqlock-discipline",
                "self.seq\n    .store(n, Ordering::Release);"
            )
            .len(),
            1
        );
        // The helpers themselves, other fields, and longer identifiers are
        // out of scope.
        assert!(run("seqlock-discipline", "let s = seq_acquire(&self.seq);").is_empty());
        assert!(run("seqlock-discipline", "seq_open(&cell.seq, even);").is_empty());
        assert!(run(
            "seqlock-discipline",
            "self.generation.load(Ordering::Acquire);"
        )
        .is_empty());
        assert!(run("seqlock-discipline", "sequence.load(Ordering::Acquire);").is_empty());
    }

    #[test]
    fn seqlock_discipline_scope_is_exactly_the_shared_module() {
        let rules = registry();
        let rule = rules
            .iter()
            .find(|r| r.id == "seqlock-discipline")
            .expect("rule registered");
        assert!((rule.applies)("crates/core/src/shared.rs"));
        assert!(!(rule.applies)("crates/core/src/sync.rs"));
        assert!(!(rule.applies)("crates/pool/src/lib.rs"));
    }
}
