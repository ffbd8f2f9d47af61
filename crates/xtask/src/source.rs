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

/// One classified source line.
#[derive(Debug, Clone)]
pub struct Line {
    /// The original text (tells a comment-only line from a blank one).
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
    fn adjacent_comment_lookup_walks_comment_blocks() {
        let text = "// Relaxed: counter only needs atomicity.\n// (second line)\nc.fetch_add(1, Ordering::Relaxed);";
        let f = parse(text);
        assert!(f.has_adjacent_comment(3, "Relaxed"));
        assert!(!f.has_adjacent_comment(3, "SeqCst"));
    }
}
