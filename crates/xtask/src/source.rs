//! Source model for the lint driver: loads a Rust file and classifies every
//! line so the rules can scan *code* without tripping over comments, string
//! literals or unit-test modules.
//!
//! The scrubber is a small character state machine, not a parser: it strips
//! line and (nested) block comments, blanks out the contents of string /
//! char / byte literals, and distinguishes lifetimes from char literals with
//! a lookahead heuristic. That is deliberately lighter than driving rustc —
//! the invariants the rules enforce are all expressible as token presence,
//! and a text-level model keeps the driver dependency-free and fast.

use std::fmt;

/// One classified source line.
#[derive(Debug, Clone)]
pub struct Line {
    /// The original text (for display and waiver/justification scanning).
    pub raw: String,
    /// Code only: comments removed, literal contents blanked with spaces.
    pub code: String,
    /// Comment text carried by this line (line + block comments joined).
    pub comment: String,
    /// True inside a `#[cfg(test)]` item (unit-test module or function).
    pub in_test: bool,
}

impl Line {
    /// True when the line carries no code at all (blank or comment-only).
    pub fn is_comment_only(&self) -> bool {
        self.code.trim().is_empty() && !self.raw.trim().is_empty()
    }
}

/// A loaded, classified source file.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Classified lines, in order.
    pub lines: Vec<Line>,
}

/// One token lexed from the scrubbed code of a line. Tokens exist so rules
/// can match *structure* (`use` `std` `::` `sync` `::` `atomic`) instead of
/// guessing at substrings — `std::sync :: atomic`, odd spacing and split
/// use-trees all normalize to the same token sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token text (`use`, `::`, `AtomicU64`, `"..."` for a blanked
    /// literal).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: usize,
    /// Token class.
    pub kind: TokenKind,
    /// True when the token sits inside a `#[cfg(test)]` item.
    pub in_test: bool,
}

/// Lexical class of a [`Token`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`use`, `seq`, `AtomicU64`).
    Ident,
    /// Operator / punctuation. Multi-char `::` is one token; everything
    /// else is a single character. Lifetimes lex as one `'a` punct.
    Punct,
    /// Number, string or char literal (string/char contents arrive blanked
    /// from the scrubber, so the text carries no payload).
    Literal,
}

/// A `// lint-allow-file(<rule>): <reason>` waiver covering every finding
/// of `rule` in the file. Must sit in the leading comment block, before the
/// first line that carries code — a waiver buried mid-file is easy to miss
/// in review, so the driver reports it as `misplaced-file-waiver` instead
/// of honouring it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileWaiver {
    /// Rule id being waived.
    pub rule: String,
    /// Human reason; empty reasons are themselves a finding.
    pub reason: String,
    /// 1-based line the waiver comment sits on.
    pub comment_line: usize,
    /// True when the waiver appears on or after the first code line.
    pub misplaced: bool,
}

/// A `// lint-allow(<rule>): <reason>` waiver, resolved to the code line it
/// covers (its own line if that line has code, else the next code line).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    /// Rule id being waived.
    pub rule: String,
    /// Human reason; empty reasons are themselves a finding.
    pub reason: String,
    /// 1-based line the waiver comment sits on.
    pub comment_line: usize,
    /// 1-based code line the waiver applies to.
    pub target_line: usize,
}

impl fmt::Display for Waiver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint-allow({}) at line {}", self.rule, self.comment_line)
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum State {
    Code,
    LineComment,
    BlockComment(u32),
    Str { raw_hashes: Option<u32> },
    Char,
}

/// Splits `text` into per-line `(code, comment)` with literals blanked.
fn scrub(text: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut state = State::Code;
    for raw_line in text.split('\n') {
        let mut code = String::with_capacity(raw_line.len());
        let mut comment = String::new();
        let chars: Vec<char> = raw_line.chars().collect();
        let mut i = 0usize;
        // A line comment never continues past the newline.
        if state == State::LineComment {
            state = State::Code;
        }
        while i < chars.len() {
            let c = chars[i];
            let next = chars.get(i + 1).copied();
            match state {
                State::Code => match c {
                    '/' if next == Some('/') => {
                        comment.push_str(&raw_line[byte_offset(raw_line, i)..]);
                        state = State::LineComment;
                        i = chars.len();
                    }
                    '/' if next == Some('*') => {
                        state = State::BlockComment(1);
                        i += 2;
                    }
                    '"' => {
                        code.push('"');
                        state = State::Str { raw_hashes: None };
                        i += 1;
                    }
                    'r' | 'b' if starts_raw_string(&chars, i) => {
                        let (hashes, consumed) = raw_string_open(&chars, i);
                        code.push('"');
                        state = State::Str {
                            raw_hashes: Some(hashes),
                        };
                        i += consumed;
                    }
                    'b' if next == Some('\'') => {
                        code.push('\'');
                        state = State::Char;
                        i += 2;
                    }
                    '\'' => {
                        if is_char_literal(&chars, i) {
                            code.push('\'');
                            state = State::Char;
                        } else {
                            // A lifetime: keep the tick, stay in code.
                            code.push('\'');
                        }
                        i += 1;
                    }
                    _ => {
                        code.push(c);
                        i += 1;
                    }
                },
                State::LineComment => unreachable!("consumed to end of line"),
                State::BlockComment(depth) => {
                    if c == '*' && next == Some('/') {
                        state = if depth == 1 {
                            State::Code
                        } else {
                            State::BlockComment(depth - 1)
                        };
                        i += 2;
                    } else if c == '/' && next == Some('*') {
                        state = State::BlockComment(depth + 1);
                        i += 2;
                    } else {
                        comment.push(c);
                        i += 1;
                    }
                }
                State::Str { raw_hashes: None } => match c {
                    '\\' => {
                        code.push(' ');
                        i += 2;
                    }
                    '"' => {
                        code.push('"');
                        state = State::Code;
                        i += 1;
                    }
                    _ => {
                        code.push(' ');
                        i += 1;
                    }
                },
                State::Str {
                    raw_hashes: Some(hashes),
                } => {
                    if c == '"' && closes_raw_string(&chars, i, hashes) {
                        code.push('"');
                        state = State::Code;
                        i += 1 + hashes as usize;
                    } else {
                        code.push(' ');
                        i += 1;
                    }
                }
                State::Char => match c {
                    '\\' => {
                        code.push(' ');
                        i += 2;
                    }
                    '\'' => {
                        code.push('\'');
                        state = State::Code;
                        i += 1;
                    }
                    _ => {
                        code.push(' ');
                        i += 1;
                    }
                },
            }
        }
        // Char literals never span lines; recover rather than poison the
        // rest of the file if the heuristic mis-fired on a lone tick.
        if state == State::Char {
            state = State::Code;
        }
        out.push((code, comment));
    }
    out
}

fn byte_offset(line: &str, char_index: usize) -> usize {
    line.char_indices()
        .nth(char_index)
        .map(|(b, _)| b)
        .unwrap_or(line.len())
}

fn starts_raw_string(chars: &[char], i: usize) -> bool {
    // r"..." / r#"..."# / br"..." / b"..." is handled by the plain-quote arm.
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return false;
    }
    j += 1;
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

fn raw_string_open(chars: &[char], i: usize) -> (u32, usize) {
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    j += 1; // the `r`
    let mut hashes = 0u32;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    j += 1; // the opening quote
    (hashes, j - i)
}

fn closes_raw_string(chars: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'))
}

/// Distinguishes a char literal (`'x'`, `'\n'`) from a lifetime (`'a`).
fn is_char_literal(chars: &[char], i: usize) -> bool {
    match chars.get(i + 1) {
        Some('\\') => true,
        Some(_) => chars.get(i + 2) == Some(&'\''),
        None => false,
    }
}

/// Lexes one scrubbed line into `out`. See [`SourceFile::tokens`].
fn lex_line(code: &str, line: usize, in_test: bool, out: &mut Vec<Token>) {
    let chars: Vec<char> = code.chars().collect();
    let mut i = 0usize;
    let push = |out: &mut Vec<Token>, text: String, kind: TokenKind| {
        out.push(Token {
            text,
            line,
            kind,
            in_test,
        });
    };
    while i < chars.len() {
        let c = chars[i];
        if c.is_whitespace() {
            i += 1;
        } else if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            push(out, chars[start..i].iter().collect(), TokenKind::Ident);
        } else if c.is_ascii_digit() {
            let start = i;
            while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            // One fractional dot, so `1.5` is a single literal but the `..`
            // of `0..4` stays punctuation.
            if i < chars.len()
                && chars[i] == '.'
                && chars.get(i + 1).is_some_and(|ch| ch.is_ascii_digit())
            {
                i += 1;
                while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
            }
            push(out, chars[start..i].iter().collect(), TokenKind::Literal);
        } else if c == '"' {
            // The scrubber blanked the payload; fold `"    "` into one
            // token. An unmatched quote (multi-line literal) lexes alone so
            // the rest of the line still tokenizes.
            match chars[i + 1..].iter().position(|&ch| ch == '"') {
                Some(off) => {
                    push(out, "\"\"".into(), TokenKind::Literal);
                    i += off + 2;
                }
                None => {
                    push(out, "\"".into(), TokenKind::Literal);
                    i += 1;
                }
            }
        } else if c == '\'' {
            // `' '` (a blanked char literal) vs `'a` (a lifetime).
            let close = chars[i + 1..].iter().position(|&ch| ch == '\'');
            match close {
                Some(off) if chars[i + 1..i + 1 + off].iter().all(|ch| *ch == ' ') => {
                    push(out, "''".into(), TokenKind::Literal);
                    i += off + 2;
                }
                _ => {
                    let start = i;
                    i += 1;
                    while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                        i += 1;
                    }
                    push(out, chars[start..i].iter().collect(), TokenKind::Punct);
                }
            }
        } else if c == ':' && chars.get(i + 1) == Some(&':') {
            push(out, "::".into(), TokenKind::Punct);
            i += 2;
        } else {
            push(out, c.to_string(), TokenKind::Punct);
            i += 1;
        }
    }
}

/// Marks the lines belonging to `#[cfg(test)]` items by brace matching.
fn mark_test_regions(lines: &mut [Line]) {
    let mut depth: i64 = 0;
    let mut pending_cfg_test = false;
    let mut test_close_depth: Option<i64> = None;
    for line in lines.iter_mut() {
        let starts_inside = test_close_depth.is_some();
        if line.code.contains("#[cfg(test)]") {
            pending_cfg_test = true;
        }
        let mut line_opened_test = false;
        for c in line.code.chars() {
            match c {
                '{' => {
                    if pending_cfg_test && test_close_depth.is_none() {
                        test_close_depth = Some(depth);
                        pending_cfg_test = false;
                        line_opened_test = true;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if test_close_depth == Some(depth) {
                        test_close_depth = None;
                    }
                }
                _ => {}
            }
        }
        line.in_test = starts_inside || line_opened_test || pending_cfg_test;
    }
}

impl SourceFile {
    /// Builds the classified model from raw file contents.
    pub fn parse(text: &str) -> Self {
        let mut lines: Vec<Line> = scrub(text)
            .into_iter()
            .zip(text.split('\n'))
            .map(|((code, comment), raw)| Line {
                raw: raw.to_string(),
                code,
                comment,
                in_test: false,
            })
            .collect();
        mark_test_regions(&mut lines);
        SourceFile { lines }
    }

    /// Lexes the scrubbed code of every line into a flat token stream.
    ///
    /// The lexer is deliberately small: identifiers, `::` (the one
    /// multi-char punct the rules match on), single-char puncts, numeric
    /// literals, and blanked string/char literals as single [`TokenKind::Literal`]
    /// tokens. It runs on `Line::code`, so comments and literal payloads
    /// are already gone.
    pub fn tokens(&self) -> Vec<Token> {
        let mut out = Vec::new();
        for (idx, line) in self.lines.iter().enumerate() {
            lex_line(&line.code, idx + 1, line.in_test, &mut out);
        }
        out
    }

    /// All `lint-allow-file` waivers, with their placement validated: a
    /// file waiver is `misplaced` unless it sits strictly before the first
    /// line that carries code.
    pub fn file_waivers(&self) -> Vec<FileWaiver> {
        let first_code = self
            .lines
            .iter()
            .position(|l| !l.code.trim().is_empty())
            .unwrap_or(self.lines.len());
        let mut out = Vec::new();
        for (idx, line) in self.lines.iter().enumerate() {
            let trimmed = line
                .comment
                .trim_start_matches(['/', '!', '*', ' '].as_slice());
            if !trimmed.starts_with("lint-allow-file(") {
                continue;
            }
            let rest = &trimmed["lint-allow-file(".len()..];
            let Some(close) = rest.find(')') else {
                continue;
            };
            out.push(FileWaiver {
                rule: rest[..close].trim().to_string(),
                reason: rest[close + 1..].trim_start_matches(':').trim().to_string(),
                comment_line: idx + 1,
                misplaced: idx >= first_code,
            });
        }
        out
    }

    /// All `lint-allow` waivers in the file, resolved to their target lines.
    pub fn waivers(&self) -> Vec<Waiver> {
        let mut out = Vec::new();
        for (idx, line) in self.lines.iter().enumerate() {
            // A waiver is a comment *starting* with `lint-allow(` (after the
            // comment markers) — prose that merely mentions the syntax, like
            // this sentence, is not one.
            let trimmed = line
                .comment
                .trim_start_matches(['/', '!', '*', ' '].as_slice());
            if !trimmed.starts_with("lint-allow(") {
                continue;
            }
            let rest = &trimmed["lint-allow(".len()..];
            let Some(close) = rest.find(')') else {
                continue;
            };
            let rule = rest[..close].trim().to_string();
            let reason = rest[close + 1..].trim_start_matches(':').trim().to_string();
            let target_line = if line.is_comment_only() {
                // Applies to the next line that carries code.
                self.lines
                    .iter()
                    .enumerate()
                    .skip(idx + 1)
                    .find(|(_, l)| !l.code.trim().is_empty())
                    .map(|(i, _)| i + 1)
                    .unwrap_or(idx + 1)
            } else {
                idx + 1
            };
            out.push(Waiver {
                rule,
                reason,
                comment_line: idx + 1,
                target_line,
            });
        }
        out
    }

    /// True if any comment on `line` (1-based) or on the run of
    /// comment-only lines immediately above it contains `needle`
    /// (case-sensitive).
    pub fn has_adjacent_comment(&self, line: usize, needle: &str) -> bool {
        let idx = line - 1;
        if self
            .lines
            .get(idx)
            .is_some_and(|l| l.comment.contains(needle))
        {
            return true;
        }
        let mut j = idx;
        while j > 0 {
            j -= 1;
            let l = &self.lines[j];
            if l.is_comment_only() {
                if l.comment.contains(needle) {
                    return true;
                }
            } else {
                break;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> SourceFile {
        SourceFile::parse(text)
    }

    #[test]
    fn comments_and_strings_are_scrubbed() {
        let f = parse("let x = \"a.unwrap()\"; // call .unwrap() later\nlet c = 'x';");
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(f.lines[0].comment.contains(".unwrap()"));
        assert_eq!(f.lines[1].code, "let c = ' ';");
    }

    #[test]
    fn lifetimes_survive_scrubbing() {
        let f = parse("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert!(f.lines[0].code.contains("&'a str"));
    }

    #[test]
    fn raw_strings_and_escapes() {
        let f = parse("let s = r#\"panic!(\"x\")\"#;\nlet t = \"\\\"quoted\\\"\";");
        assert!(!f.lines[0].code.contains("panic"));
        assert!(f.lines[1].code.ends_with(';'));
    }

    #[test]
    fn block_comments_nest_and_span_lines() {
        let f = parse("a; /* one /* two */ still */ b;\n/* open\npanic!()\n*/ c;");
        assert!(f.lines[0].code.contains("a;") && f.lines[0].code.contains("b;"));
        assert!(!f.lines[2].code.contains("panic"));
        assert!(f.lines[3].code.contains("c;"));
    }

    #[test]
    fn cfg_test_regions_are_marked() {
        let text = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn tail() {}";
        let f = parse(text);
        let flags: Vec<bool> = f.lines.iter().map(|l| l.in_test).collect();
        assert_eq!(flags, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn waivers_resolve_to_the_next_code_line() {
        let text = "// lint-allow(raw-atomic-metric): an id source, not a metric\nnext: AtomicU64,\nc.load(Ordering::Relaxed); // lint-allow(relaxed-ordering): same-line form";
        let f = parse(text);
        let w = f.waivers();
        assert_eq!(w.len(), 2);
        assert_eq!(
            (w[0].target_line, w[0].rule.as_str()),
            (2, "raw-atomic-metric")
        );
        assert_eq!(w[1].target_line, 3);
        assert_eq!(w[1].reason, "same-line form");
    }

    #[test]
    fn lexer_normalizes_spacing_and_classifies() {
        let f = parse("use std :: sync::atomic::{AtomicU64};\nlet x = 1.5 + seq.load(o);");
        let toks = f.tokens();
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(
            &texts[..9],
            &[
                "use",
                "std",
                "::",
                "sync",
                "::",
                "atomic",
                "::",
                "{",
                "AtomicU64"
            ]
        );
        assert!(toks
            .iter()
            .any(|t| t.text == "1.5" && t.kind == TokenKind::Literal));
        let seq_pos = toks.iter().position(|t| t.text == "seq").expect("seq");
        assert_eq!(toks[seq_pos].kind, TokenKind::Ident);
        assert_eq!(toks[seq_pos + 1].text, ".");
        assert_eq!(toks[seq_pos + 2].text, "load");
        assert!(toks.iter().all(|t| !t.in_test));
    }

    #[test]
    fn lexer_folds_literals_and_keeps_lifetimes() {
        let f = parse("fn f<'a>(s: &'a str) { g(\"payload\", 'x', 0..4); }");
        let toks = f.tokens();
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        // The string payload and char are blanked and folded; the range's
        // dots stay separate puncts around intact literals.
        assert!(texts.contains(&"\"\"") && texts.contains(&"''"));
        assert!(texts.contains(&"'a"));
        assert!(texts.contains(&"0") && texts.contains(&"4"));
        assert!(!texts.iter().any(|t| t.contains("payload")));
    }

    #[test]
    fn lexer_marks_test_tokens() {
        let f = parse("fn lib() {}\n#[cfg(test)]\nmod tests { fn t() { x(); } }");
        let toks = f.tokens();
        assert!(toks.iter().any(|t| t.text == "lib" && !t.in_test));
        assert!(toks.iter().any(|t| t.text == "x" && t.in_test));
    }

    #[test]
    fn file_waivers_parse_and_validate_placement() {
        let text = "//! Docs.\n// lint-allow-file(raw-atomic-metric): leading block\nfn f() {}\n// lint-allow-file(relaxed-ordering): after code\n";
        let f = parse(text);
        let w = f.file_waivers();
        assert_eq!(w.len(), 2);
        assert_eq!(
            (w[0].rule.as_str(), w[0].comment_line, w[0].misplaced),
            ("raw-atomic-metric", 2, false)
        );
        assert_eq!(w[0].reason, "leading block");
        assert!(w[1].misplaced, "waiver after first code line is misplaced");
        // A file waiver sharing a line with code is misplaced too.
        let same_line = parse("fn f() {} // lint-allow-file(nested-lock): too late");
        assert!(same_line.file_waivers()[0].misplaced);
        // Line waivers and file waivers do not parse as each other.
        assert!(same_line.waivers().is_empty());
        assert!(parse("// lint-allow(nested-lock): x\nf();")
            .file_waivers()
            .is_empty());
    }

    #[test]
    fn adjacent_comment_lookup_walks_comment_blocks() {
        let text = "// Relaxed: counter only needs atomicity.\n// (second line)\nc.fetch_add(1, Ordering::Relaxed);";
        let f = parse(text);
        assert!(f.has_adjacent_comment(3, "Relaxed"));
        assert!(!f.has_adjacent_comment(3, "SeqCst"));
    }
}
