//! A token-level Rust scanner, in the spirit of `svc::json`: hand-rolled,
//! dependency-free, and deliberately smaller than a real parser.
//!
//! The lint rules only need three things a plain `grep` cannot give them:
//!
//! 1. **Code lines with comments and literal contents blanked** — so a rule
//!    banning `HashMap` does not fire on a doc comment that *discusses*
//!    `HashMap`, and a brace inside `'{'` or `"}"` does not derail the
//!    function-body tracker.
//! 2. **String-literal contents with their line numbers** — the env-knob
//!    registry check reads `"MIDAS_*"` names out of the source.
//! 3. **`// lint:` pragma comments** — the explicit, per-line allowlist.
//!
//! The state machine understands line comments, nested block comments,
//! normal/byte strings with escapes, raw strings (`r#"…"#`, any number of
//! hashes, `b`/`c` prefixes), char and byte-char literals, and the
//! lifetime-vs-char-literal ambiguity (`'a` vs `'a'`).  That is enough to
//! classify every byte of the workspace correctly; anything fancier would
//! be re-implementing rustc for no additional signal.

/// What a `// lint: …` comment asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PragmaKind {
    /// `// lint: allow(<rule>) — <reason>`: suppress `<rule>` on the
    /// targeted line.  The reason is mandatory.
    Allow(String),
    /// `// lint: no_alloc`: the next function body must be free of
    /// steady-state allocation calls (the `no-alloc-stage` rule).
    NoAlloc,
}

/// A parsed `// lint:` pragma.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pragma {
    /// 1-based line the pragma comment sits on.
    pub line: usize,
    /// What it asks for.
    pub kind: PragmaKind,
    /// The written justification after the dash (empty if none given).
    pub reason: String,
    /// `true` when the pragma comment has no code before it on its line —
    /// it then targets the next non-blank code line instead of its own.
    pub own_line: bool,
}

/// A malformed `// lint:` comment (unknown shape, unknown rule, or a
/// missing reason) — surfaced as a `malformed-pragma` finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadPragma {
    /// 1-based line of the offending comment.
    pub line: usize,
    /// What is wrong with it.
    pub message: String,
}

/// The scan of one source file.
#[derive(Debug, Default)]
pub struct Scan {
    /// One entry per source line: code only — comments removed, string and
    /// char literal *contents* blanked (delimiters kept).
    pub code: Vec<String>,
    /// `(line, contents)` of every string literal, in source order.
    /// Multi-line literals are attributed to their opening line.
    pub strings: Vec<(usize, String)>,
    /// Well-formed `// lint:` pragmas, in source order.
    pub pragmas: Vec<Pragma>,
    /// Malformed `// lint:` comments.
    pub bad_pragmas: Vec<BadPragma>,
}

impl Scan {
    /// Resolves the 1-based line a pragma applies to: its own line when it
    /// trails code, otherwise the next line carrying any code.
    pub fn pragma_target(&self, pragma: &Pragma) -> usize {
        if !pragma.own_line {
            return pragma.line;
        }
        (pragma.line..self.code.len())
            .find(|&idx| !self.code[idx].trim().is_empty())
            .map(|idx| idx + 1)
            .unwrap_or(pragma.line)
    }
}

/// The rule names pragmas may reference, kept in one place so the scanner
/// can reject `allow(typo-rule)` at parse time.
const ALLOWABLE_RULES: &[&str] = &[
    "map-order",
    "wall-clock",
    "ambient-rng",
    "no-alloc-stage",
    "unsafe-forbidden",
    "env-knob-registry",
    "unreachable-pub",
];

/// Scans one file into code lines, string literals and pragmas.
pub fn scan(source: &str) -> Scan {
    let mut scan = Scan::default();
    let bytes = source.as_bytes();
    let mut i = 0usize;
    let mut line = 1usize;
    let mut code_line = String::new();
    // `(line, byte start, own_line)` of the line comment being read — its
    // text is sliced from `source` at the newline so multi-byte characters
    // (the em-dash in pragma reasons) survive intact.
    let mut comment_buf: Option<(usize, usize, bool)> = None;
    let mut str_buf: Option<(usize, String)> = None;

    #[derive(PartialEq)]
    enum State {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u32),
        Char,
    }
    let mut state = State::Code;

    macro_rules! newline {
        () => {{
            if let Some((start_line, start_byte, own)) = comment_buf.take() {
                parse_pragma(&mut scan, start_line, &source[start_byte..i], own);
            }
            scan.code.push(std::mem::take(&mut code_line));
            line += 1;
        }};
    }

    while i < bytes.len() {
        let c = bytes[i] as char;
        match state {
            State::Code => match c {
                '/' if bytes.get(i + 1) == Some(&b'/') => {
                    let own = code_line.trim().is_empty();
                    comment_buf = Some((line, i + 2, own));
                    state = State::LineComment;
                    i += 2;
                    continue;
                }
                '/' if bytes.get(i + 1) == Some(&b'*') => {
                    state = State::BlockComment(1);
                    i += 2;
                    continue;
                }
                '"' => {
                    str_buf = Some((line, String::new()));
                    code_line.push('"');
                    state = State::Str;
                }
                'r' | 'b' | 'c' if !prev_is_ident(bytes, i) => {
                    if let Some(consumed) = raw_string_opener(bytes, i) {
                        // Push the prefix + hashes + quote as code, then
                        // blank the contents.
                        for &b in &bytes[i..i + consumed] {
                            code_line.push(b as char);
                        }
                        // opener = optional b/c prefix + `r` + hashes + `"`.
                        let hashes = consumed as u32 - 2 - u32::from(c != 'r');
                        str_buf = Some((line, String::new()));
                        state = State::RawStr(hashes);
                        i += consumed;
                        continue;
                    }
                    code_line.push(c);
                }
                '\'' => {
                    if char_literal_starts(bytes, i) {
                        code_line.push('\'');
                        state = State::Char;
                    } else {
                        code_line.push('\''); // lifetime quote
                    }
                }
                '\n' => newline!(),
                _ => code_line.push(c),
            },
            State::LineComment => {
                if c == '\n' {
                    state = State::Code;
                    newline!();
                }
            }
            State::BlockComment(depth) => {
                if c == '\n' {
                    newline!();
                } else if c == '/' && bytes.get(i + 1) == Some(&b'*') {
                    state = State::BlockComment(depth + 1);
                    i += 2;
                    continue;
                } else if c == '*' && bytes.get(i + 1) == Some(&b'/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    i += 2;
                    continue;
                }
            }
            State::Str => match c {
                '\\' => {
                    if let Some((_, text)) = str_buf.as_mut() {
                        text.push('\\');
                        if let Some(&n) = bytes.get(i + 1) {
                            text.push(n as char);
                            if n == b'\n' {
                                // Line-continuation escape.
                                i += 2;
                                newline!();
                                continue;
                            }
                            i += 2;
                            continue;
                        }
                    }
                }
                '"' => {
                    if let Some(entry) = str_buf.take() {
                        scan.strings.push(entry);
                    }
                    code_line.push('"');
                    state = State::Code;
                }
                '\n' => {
                    if let Some((_, text)) = str_buf.as_mut() {
                        text.push('\n');
                    }
                    newline!();
                }
                _ => {
                    if let Some((_, text)) = str_buf.as_mut() {
                        text.push(c);
                    }
                }
            },
            State::RawStr(hashes) => {
                if c == '"' && raw_string_closes(bytes, i, hashes) {
                    if let Some(entry) = str_buf.take() {
                        scan.strings.push(entry);
                    }
                    code_line.push('"');
                    for _ in 0..hashes {
                        code_line.push('#');
                    }
                    state = State::Code;
                    i += 1 + hashes as usize;
                    continue;
                } else if c == '\n' {
                    if let Some((_, text)) = str_buf.as_mut() {
                        text.push('\n');
                    }
                    newline!();
                } else if let Some((_, text)) = str_buf.as_mut() {
                    text.push(c);
                }
            }
            State::Char => match c {
                '\\' => {
                    i += 2; // skip the escaped char, whatever it is
                    continue;
                }
                '\'' => {
                    code_line.push('\'');
                    state = State::Code;
                }
                '\n' => newline!(),
                _ => {}
            },
        }
        i += 1;
    }
    // Flush the final (unterminated) line.
    if let Some((start_line, start_byte, own)) = comment_buf.take() {
        parse_pragma(&mut scan, start_line, &source[start_byte..], own);
    }
    if let Some(entry) = str_buf.take() {
        scan.strings.push(entry);
    }
    scan.code.push(code_line);
    scan
}

/// `true` when the byte before `i` continues an identifier (so `r` there
/// cannot open a raw string: `writer"x"` is not `r"x"`).
fn prev_is_ident(bytes: &[u8], i: usize) -> bool {
    i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_')
}

/// If a raw-string opener (`r#*"`, `br#*"`, `cr#*"`) starts at `i`,
/// returns how many bytes the opener spans (through the quote).
fn raw_string_opener(bytes: &[u8], i: usize) -> Option<usize> {
    let mut j = i;
    if bytes[j] == b'b' || bytes[j] == b'c' {
        j += 1;
    }
    if bytes.get(j) != Some(&b'r') {
        return None;
    }
    j += 1;
    while bytes.get(j) == Some(&b'#') {
        j += 1;
    }
    (bytes.get(j) == Some(&b'"')).then(|| j + 1 - i)
}

/// `true` when the `"` at `i` is followed by `hashes` pound signs,
/// closing the raw string.
fn raw_string_closes(bytes: &[u8], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| bytes.get(i + k) == Some(&b'#'))
}

/// Distinguishes `'a'` (char literal) from `'a` (lifetime) at the quote.
fn char_literal_starts(bytes: &[u8], i: usize) -> bool {
    match bytes.get(i + 1) {
        None => false,
        Some(&b'\\') => true,
        Some(&n) if n.is_ascii_alphabetic() || n == b'_' => {
            // `'x'` is a char; `'x` / `'static` are lifetimes.
            bytes.get(i + 2) == Some(&b'\'')
        }
        // Digits and punctuation (`'0'`, `'{'`) only appear in char
        // literals; a stray quote before them is not valid Rust anyway.
        Some(_) => true,
    }
}

/// Parses one line comment; records a [`Pragma`] or [`BadPragma`] if it is
/// (or tries to be) a `lint:` directive.
fn parse_pragma(scan: &mut Scan, line: usize, text: &str, own_line: bool) {
    let trimmed = text.trim();
    let Some(body) = trimmed.strip_prefix("lint:") else {
        return;
    };
    let body = body.trim();
    let mut fail = |message: String| {
        scan.bad_pragmas.push(BadPragma { line, message });
    };
    if let Some(rest) = body.strip_prefix("no_alloc") {
        scan.pragmas.push(Pragma {
            line,
            kind: PragmaKind::NoAlloc,
            reason: strip_reason_dash(rest).to_string(),
            own_line,
        });
    } else if let Some(rest) = body.strip_prefix("allow(") {
        let Some(close) = rest.find(')') else {
            fail("`lint: allow(` without a closing `)`".to_string());
            return;
        };
        let rule = rest[..close].trim();
        if !ALLOWABLE_RULES.contains(&rule) {
            fail(format!("`lint: allow({rule})` names an unknown rule"));
            return;
        }
        let reason = strip_reason_dash(&rest[close + 1..]);
        if reason.is_empty() {
            fail(format!(
                "`lint: allow({rule})` has no reason — write `// lint: allow({rule}) — <why>`"
            ));
            return;
        }
        scan.pragmas.push(Pragma {
            line,
            kind: PragmaKind::Allow(rule.to_string()),
            reason: reason.to_string(),
            own_line,
        });
    } else {
        fail(format!(
            "unrecognised lint directive `{body}` (expected `allow(<rule>) — <reason>` or `no_alloc`)"
        ));
    }
}

/// Drops the leading `—` / `--` / `-` separator from a pragma reason.
fn strip_reason_dash(rest: &str) -> &str {
    rest.trim()
        .trim_start_matches(['—', '-'])
        .trim_start_matches('–')
        .trim()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_blanked_out_of_code_lines() {
        let s = scan("let a = \"HashMap\"; // HashMap here\nlet b = 1; /* HashMap */ let c;\n");
        assert_eq!(s.code[0], "let a = \"\"; ");
        assert_eq!(s.code[1], "let b = 1;  let c;");
        assert_eq!(s.strings, vec![(1, "HashMap".to_string())]);
    }

    #[test]
    fn raw_strings_and_char_literals_do_not_leak_braces() {
        let s = scan("let x = r#\"{\"a\": 1}\"#;\nlet y = '{';\nlet z: &'static str = \"}\";\n");
        assert!(!s.code[0].contains('{'), "{:?}", s.code[0]);
        assert!(!s.code[1].contains('{'), "{:?}", s.code[1]);
        assert!(!s.code[2].contains('}'), "{:?}", s.code[2]);
        assert_eq!(s.strings.len(), 2);
    }

    #[test]
    fn multiline_strings_attribute_to_the_opening_line() {
        let s = scan("let x = \"one\ntwo\";\nInstant::now();\n");
        assert_eq!(s.strings, vec![(1, "one\ntwo".to_string())]);
        assert!(s.code[2].contains("Instant::now"));
    }

    #[test]
    fn pragmas_parse_with_rule_and_reason() {
        let s = scan("// lint: allow(map-order) — scheduling-side only\nuse std::x;\n");
        assert_eq!(s.pragmas.len(), 1);
        let p = &s.pragmas[0];
        assert_eq!(p.kind, PragmaKind::Allow("map-order".to_string()));
        assert_eq!(p.reason, "scheduling-side only");
        assert!(p.own_line);
        assert_eq!(s.pragma_target(p), 2);
    }

    #[test]
    fn trailing_pragma_targets_its_own_line() {
        let s = scan("let m = x(); // lint: allow(wall-clock) — bench timing\n");
        assert!(!s.pragmas[0].own_line);
        assert_eq!(s.pragma_target(&s.pragmas[0]), 1);
    }

    #[test]
    fn missing_reason_and_unknown_rule_are_malformed() {
        let s = scan("// lint: allow(map-order)\n// lint: allow(made-up) — x\n// lint: wat\n");
        assert_eq!(s.pragmas.len(), 0);
        assert_eq!(s.bad_pragmas.len(), 3);
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let s = scan("/* outer /* inner */ still comment */ let x = 1;\n");
        assert_eq!(s.code[0].trim(), "let x = 1;");
    }

    #[test]
    fn no_alloc_pragma_parses_with_optional_reason() {
        let s = scan("// lint: no_alloc\nfn f() {}\n// lint: no_alloc — hot\nfn g() {}\n");
        assert_eq!(s.pragmas.len(), 2);
        assert_eq!(s.pragmas[0].kind, PragmaKind::NoAlloc);
        assert_eq!(s.pragmas[1].reason, "hot");
    }
}
