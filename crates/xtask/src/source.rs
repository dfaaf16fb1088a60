//! Source model for the `analyze` passes, two layers deep.
//!
//! **Layer 1 — stripped logical lines** (the original, line-oriented
//! model, still used by the forbidden-pattern lints in `lints.rs`):
//! comments and string contents blanked out, `#[cfg(test)]` modules
//! blanked, physical lines folded into logical statements.
//!
//! **Layer 2 — a spanned token stream** (`lex`), feeding the
//! branch-aware passes in `cfg.rs`/`locks.rs`/`ledger.rs`/`atomics.rs`.
//! The lexer is a real hand-written scanner: every token carries its
//! 1-based line and column, string/char/raw-string literals are reduced
//! to empty spans (their *contents* can never alias code), lifetimes are
//! distinguished from char literals, and nested block comments are
//! skipped. Annotation comments (`// ledger: defer(...)`) are captured
//! with their line so the ledger pass can honor documented deferral
//! sites.
//!
//! Neither layer is a full parser; both are robust to the subset of
//! Rust this repo writes, and the regression tests below pin the
//! historically sharp edges (raw strings containing `{` or `//`,
//! multi-line raw strings, `[u8; N]` types inside signatures, nested
//! generics).

/// One logical line: `text` is the folded, stripped statement text and
/// `line` the 1-based physical line it starts on.
#[derive(Debug, Clone)]
pub struct LogicalLine {
    pub text: String,
    pub line: usize,
}

/// Strip `//` and nested `/* */` comments and blank out string/char
/// literal *contents* (delimiters stay, so the line shape survives).
/// Operates on the whole file so multi-line literals are handled.
pub fn strip(source: &str) -> Vec<String> {
    #[derive(PartialEq)]
    enum State {
        Code,
        Block(u32),
        Str,
        RawStr(u32),
        Char,
    }
    let mut state = State::Code;
    let mut out = Vec::new();
    for line in source.lines() {
        let chars: Vec<char> = line.chars().collect();
        let mut kept = String::with_capacity(chars.len());
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            let next = chars.get(i + 1).copied();
            match state {
                State::Code => match c {
                    '/' if next == Some('/') => break, // rest is a line comment
                    '/' if next == Some('*') => {
                        state = State::Block(1);
                        i += 2;
                    }
                    '"' => {
                        kept.push('"');
                        state = State::Str;
                        i += 1;
                    }
                    'r' if (next == Some('"') || next == Some('#'))
                        && !prev_is_ident_char(&chars, i) =>
                    {
                        // Raw string r"..." or r#"..."# (any hash count).
                        // The identifier-boundary check keeps an ident
                        // ending in `r` (`attr`, `ptr`) from opening a
                        // phantom raw string; `r#ident` raw identifiers
                        // fall through to the ident path below because no
                        // quote follows the hashes.
                        let mut hashes = 0;
                        let mut j = i + 1;
                        while chars.get(j) == Some(&'#') {
                            hashes += 1;
                            j += 1;
                        }
                        if chars.get(j) == Some(&'"') {
                            kept.push('"');
                            state = State::RawStr(hashes);
                            i = j + 1;
                        } else {
                            kept.push(c);
                            i += 1;
                        }
                    }
                    '\'' => {
                        // Char literal vs lifetime: a lifetime is `'ident`
                        // with no closing quote right after the ident char.
                        if next == Some('\\') {
                            kept.push('\'');
                            state = State::Char;
                            i += 2;
                        } else if next.is_some() && chars.get(i + 2) == Some(&'\'') {
                            kept.push_str("''");
                            i += 3;
                        } else {
                            kept.push('\''); // lifetime
                            i += 1;
                        }
                    }
                    _ => {
                        kept.push(c);
                        i += 1;
                    }
                },
                State::Block(depth) => {
                    if c == '*' && next == Some('/') {
                        state = if depth == 1 {
                            State::Code
                        } else {
                            State::Block(depth - 1)
                        };
                        i += 2;
                    } else if c == '/' && next == Some('*') {
                        state = State::Block(depth + 1);
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                State::Str => {
                    if c == '\\' {
                        i += 2;
                    } else if c == '"' {
                        kept.push('"');
                        state = State::Code;
                        i += 1;
                    } else {
                        i += 1; // blank the content
                    }
                }
                State::RawStr(hashes) => {
                    if c == '"' {
                        let mut ok = true;
                        for k in 0..hashes as usize {
                            if chars.get(i + 1 + k) != Some(&'#') {
                                ok = false;
                                break;
                            }
                        }
                        if ok {
                            kept.push('"');
                            state = State::Code;
                            i += 1 + hashes as usize;
                        } else {
                            i += 1;
                        }
                    } else {
                        i += 1;
                    }
                }
                State::Char => {
                    if c == '\'' {
                        kept.push('\'');
                        state = State::Code;
                    }
                    i += 1;
                }
            }
        }
        out.push(kept);
    }
    out
}

fn prev_is_ident_char(chars: &[char], i: usize) -> bool {
    i > 0 && (chars[i - 1].is_ascii_alphanumeric() || chars[i - 1] == '_')
}

/// Blank out every `#[cfg(test)]` item in stripped lines: a `mod … { … }`
/// or `fn … { … }` through its matching close, a statement, field or
/// `const` without a body of its own through the `;` or `,` that ends it.
pub fn blank_test_mods(lines: &mut [String]) {
    let mut i = 0;
    while i < lines.len() {
        if lines[i].contains("#[cfg(test)]") {
            // Blank through the close of the first brace the item opens,
            // or through a `;` / `,` outside every bracket before it opens
            // one (`fn f(a: A, b: B) {` has its commas inside).
            let mut braces = 0i32;
            let mut nested = 0i32;
            let mut done = false;
            let mut j = i;
            while j < lines.len() {
                let line = std::mem::take(&mut lines[j]);
                let item = if j == i {
                    line.split_once("#[cfg(test)]").map_or("", |(_, rest)| rest)
                } else {
                    &line
                };
                for c in item.chars() {
                    match c {
                        '{' => braces += 1,
                        '}' => {
                            braces -= 1;
                            done |= braces <= 0;
                        }
                        '(' | '[' => nested += 1,
                        ')' | ']' => nested -= 1,
                        ';' | ',' => done |= braces == 0 && nested == 0,
                        _ => {}
                    }
                }
                if done {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
}

fn is_continuation(trimmed: &str) -> bool {
    // A line opening with a string literal is a wrapped macro/call
    // argument (`panic!(\n    "message…"`), never a fresh statement.
    trimmed.starts_with('.')
        || trimmed.starts_with('?')
        || trimmed.starts_with("&&")
        || trimmed.starts_with("||")
        || trimmed.starts_with('"')
}

/// Fold stripped physical lines into logical lines.
pub fn logical_lines(stripped: &[String], first_line: usize) -> Vec<LogicalLine> {
    let mut out: Vec<LogicalLine> = Vec::new();
    for (k, raw) in stripped.iter().enumerate() {
        let trimmed = raw.trim();
        if trimmed.is_empty() {
            continue;
        }
        if is_continuation(trimmed) {
            if let Some(last) = out.last_mut() {
                last.text.push_str(trimmed);
                continue;
            }
        }
        out.push(LogicalLine {
            text: trimmed.to_string(),
            line: first_line + k,
        });
    }
    out
}

// ---------------------------------------------------------------------------
// Layer 2: the spanned token stream.
// ---------------------------------------------------------------------------

/// Token classes the branch-aware passes distinguish. Literal contents
/// are dropped (a string body can never be code), so `Lit` carries only
/// the delimiter shape (`""`, `''`, or the numeric text).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    Ident,
    Lifetime,
    Lit,
    Punct,
}

/// One spanned token. `line`/`col` are 1-based positions of the token's
/// first character in the original source.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: usize,
    pub col: usize,
}

impl Tok {
    pub fn is(&self, text: &str) -> bool {
        self.text == text
    }
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokKind::Ident && self.text == text
    }
}

/// An annotation comment captured by the lexer. Only `// ledger:` lines
/// are collected today; the text is everything after the marker.
#[derive(Debug, Clone)]
pub struct Annotation {
    pub line: usize,
    pub text: String,
}

/// Multi-character punctuation, longest first. `<<`/`>>` deliberately
/// stay two tokens so angle-depth tracking over generics keeps working.
const PUNCTS: &[&str] = &[
    "..=", "::", "->", "=>", "..", "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "==", "!=", "<=", ">=",
];

/// Lex a source file into spanned tokens plus annotation comments.
/// Comments are skipped (but `// ledger:` annotations are captured),
/// string/char contents are dropped, lifetimes are told apart from char
/// literals, raw strings of any hash count are handled — including
/// bodies containing `{`, `}` or `//`, which the historical line-based
/// scanner only got right by construction of this repo's code.
pub fn lex(source: &str) -> (Vec<Tok>, Vec<Annotation>) {
    let chars: Vec<char> = source.chars().collect();
    let mut toks = Vec::new();
    let mut anns = Vec::new();
    let mut i = 0;
    let mut line = 1usize;
    let mut col = 1usize;

    macro_rules! bump {
        () => {{
            if chars[i] == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
            i += 1;
        }};
    }

    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        // Whitespace.
        if c.is_whitespace() {
            bump!();
            continue;
        }
        // Line comment (and annotation capture).
        if c == '/' && next == Some('/') {
            let start = i;
            while i < chars.len() && chars[i] != '\n' {
                bump!();
            }
            let text: String = chars[start..i].iter().collect();
            if let Some(rest) = text.trim_start_matches('/').trim().strip_prefix("ledger:") {
                anns.push(Annotation {
                    line,
                    text: rest.trim().to_string(),
                });
            }
            continue;
        }
        // Block comment, nested.
        if c == '/' && next == Some('*') {
            let mut depth = 1u32;
            bump!();
            bump!();
            while i < chars.len() && depth > 0 {
                if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    bump!();
                    bump!();
                } else if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    bump!();
                    bump!();
                } else {
                    bump!();
                }
            }
            continue;
        }
        // String literal.
        if c == '"' {
            let (l, co) = (line, col);
            bump!();
            while i < chars.len() {
                if chars[i] == '\\' {
                    bump!();
                    if i < chars.len() {
                        bump!();
                    }
                } else if chars[i] == '"' {
                    bump!();
                    break;
                } else {
                    bump!();
                }
            }
            toks.push(Tok {
                kind: TokKind::Lit,
                text: "\"\"".to_string(),
                line: l,
                col: co,
            });
            continue;
        }
        // Raw string (r"..."), any hash count, or byte-string prefix.
        if (c == 'r' || c == 'b') && !prev_is_ident_char(&chars, i) {
            let mut j = i + 1;
            if c == 'b' && chars.get(j) == Some(&'r') {
                j += 1;
            }
            let mut hashes = 0usize;
            while chars.get(j) == Some(&'#') {
                hashes += 1;
                j += 1;
            }
            let rawish = (c == 'r' || chars.get(i + 1) == Some(&'r')) || hashes == 0;
            if chars.get(j) == Some(&'"') && (hashes > 0 || c != 'b' || rawish) {
                // Opens a (raw/byte) string iff a quote follows the
                // optional hashes. `r#ident` has no quote and falls
                // through to the identifier path.
                let is_raw = c == 'r' || chars.get(i + 1) == Some(&'r') || hashes > 0;
                let (l, co) = (line, col);
                while i <= j {
                    bump!();
                }
                if is_raw {
                    // Scan for `"` followed by `hashes` hash marks.
                    'raw: while i < chars.len() {
                        if chars[i] == '"' {
                            let mut ok = true;
                            for k in 0..hashes {
                                if chars.get(i + 1 + k) != Some(&'#') {
                                    ok = false;
                                    break;
                                }
                            }
                            if ok {
                                for _ in 0..=hashes {
                                    bump!();
                                }
                                break 'raw;
                            }
                        }
                        bump!();
                    }
                } else {
                    // b"..." plain byte string: escapes apply.
                    while i < chars.len() {
                        if chars[i] == '\\' {
                            bump!();
                            if i < chars.len() {
                                bump!();
                            }
                        } else if chars[i] == '"' {
                            bump!();
                            break;
                        } else {
                            bump!();
                        }
                    }
                }
                toks.push(Tok {
                    kind: TokKind::Lit,
                    text: "\"\"".to_string(),
                    line: l,
                    col: co,
                });
                continue;
            }
        }
        // Char literal vs lifetime.
        if c == '\'' {
            let (l, co) = (line, col);
            if next == Some('\\') {
                // Escaped char literal: consume to the closing quote.
                bump!();
                bump!();
                while i < chars.len() && chars[i] != '\'' {
                    bump!();
                }
                if i < chars.len() {
                    bump!();
                }
                toks.push(Tok {
                    kind: TokKind::Lit,
                    text: "''".to_string(),
                    line: l,
                    col: co,
                });
            } else if next.is_some() && chars.get(i + 2) == Some(&'\'') {
                bump!();
                bump!();
                bump!();
                toks.push(Tok {
                    kind: TokKind::Lit,
                    text: "''".to_string(),
                    line: l,
                    col: co,
                });
            } else {
                // Lifetime: 'ident.
                bump!();
                let start = i;
                while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    bump!();
                }
                let name: String = chars[start..i].iter().collect();
                toks.push(Tok {
                    kind: TokKind::Lifetime,
                    text: format!("'{name}"),
                    line: l,
                    col: co,
                });
            }
            continue;
        }
        // Identifier / keyword / raw identifier.
        if c.is_ascii_alphabetic() || c == '_' {
            let (l, co) = (line, col);
            let start = i;
            // r#ident raw identifiers: skip the prefix, keep the name.
            if c == 'r' && next == Some('#') {
                bump!();
                bump!();
            }
            while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                bump!();
            }
            let mut text: String = chars[start..i].iter().collect();
            if let Some(stripped) = text.strip_prefix("r#") {
                text = stripped.to_string();
            }
            toks.push(Tok {
                kind: TokKind::Ident,
                text,
                line: l,
                col: co,
            });
            continue;
        }
        // Number literal (decimal, hex, float, suffixed).
        if c.is_ascii_digit() {
            let (l, co) = (line, col);
            let start = i;
            while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                bump!();
            }
            // A fractional part: `.` followed by a digit (so `0..10`
            // stays a range, not a float).
            if i < chars.len()
                && chars[i] == '.'
                && chars.get(i + 1).is_some_and(char::is_ascii_digit)
            {
                bump!();
                while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    bump!();
                }
            }
            toks.push(Tok {
                kind: TokKind::Lit,
                text: chars[start..i].iter().collect(),
                line: l,
                col: co,
            });
            continue;
        }
        // Multi-char punctuation, longest first.
        let mut matched = false;
        for p in PUNCTS {
            let pc: Vec<char> = p.chars().collect();
            if chars[i..].starts_with(&pc) {
                toks.push(Tok {
                    kind: TokKind::Punct,
                    text: (*p).to_string(),
                    line,
                    col,
                });
                for _ in 0..pc.len() {
                    bump!();
                }
                matched = true;
                break;
            }
        }
        if matched {
            continue;
        }
        // Single-char punctuation.
        toks.push(Tok {
            kind: TokKind::Punct,
            text: c.to_string(),
            line,
            col,
        });
        bump!();
    }
    (toks, anns)
}

/// Reconstruct compact statement text from tokens: a space is inserted
/// only between two "wordy" tokens (idents, literals, lifetimes), so
/// needle matching (`dispatch.lock(`, `Ordering::Relaxed`) stays exact.
/// Test scaffolding — the passes match against original source lines.
#[cfg(test)]
pub fn text_of(toks: &[Tok]) -> String {
    let mut out = String::new();
    let mut prev_wordy = false;
    for t in toks {
        let wordy = matches!(t.kind, TokKind::Ident | TokKind::Lit | TokKind::Lifetime);
        if wordy && prev_wordy {
            out.push(' ');
        }
        out.push_str(&t.text);
        prev_wordy = wordy;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_comments_and_string_contents() {
        let src =
            "let a = 1; // lock()\nlet s = \"inner.lock()\"; /* dispatch.lock() */ let b = 2;";
        let out = strip(src);
        assert_eq!(out[0], "let a = 1; ");
        assert!(!out[1].contains("inner.lock"));
        assert!(!out[1].contains("dispatch.lock"));
        assert!(out[1].contains("let b = 2;"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let out = strip("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert!(out[0].contains("fn f<'a>(x: &'a str)"));
    }

    #[test]
    fn folds_method_chains_into_logical_lines() {
        let stripped = strip("let x = a\n    .b()\n    .c();\nlet y = 2;");
        let lines = logical_lines(&stripped, 1);
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].text, "let x = a.b().c();");
        assert_eq!(lines[0].line, 1);
        assert_eq!(lines[1].line, 4);
    }

    #[test]
    fn blanks_cfg_test_modules() {
        let mut lines = strip(
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.lock(); }\n}\nfn after() {}",
        );
        blank_test_mods(&mut lines);
        let joined = lines.join("\n");
        assert!(!joined.contains("x.lock()"));
        assert!(joined.contains("fn live()"));
        assert!(joined.contains("fn after()"));
    }

    #[test]
    fn blanks_cfg_test_statements_and_fields_and_nothing_after_them() {
        let mut lines = strip(
            "struct S {\n    #[cfg(test)]\n    tally: Map<String, u64>,\n    wal: Mutex<Inner>,\n}\n\
             fn locked(&self) -> G {\n    #[cfg(test)]\n    self.tally(name(a, b));\n    \
             self.wal.lock()\n}\n#[cfg(test)]\nconst T: &str = \"t\";\nfn after(a: A, b: B) {}\n\
             #[cfg(test)]\nfn probe(&self, a: A) -> u64 {\n    x.lock()\n}\nfn last() {}",
        );
        blank_test_mods(&mut lines);
        let joined = lines.join("\n");
        for gone in ["tally", "const T", "x.lock()", "probe"] {
            assert!(!joined.contains(gone), "`{gone}` survived:\n{joined}");
        }
        for kept in [
            "wal: Mutex<Inner>",
            "self.wal.lock()",
            "fn after(",
            "fn last()",
        ] {
            assert!(joined.contains(kept), "`{kept}` was blanked:\n{joined}");
        }
    }

    // --- regression tests: raw strings and generics (historic gaps) ---

    #[test]
    fn raw_string_bodies_with_braces_and_comments_are_blanked() {
        let out = strip("let s = r#\"body { // with } braces\"#;\nlet g = m.lock();");
        assert_eq!(out[0], "let s = \"\";");
        assert_eq!(out[1], "let g = m.lock();");
    }

    #[test]
    fn multiline_raw_strings_do_not_leak_braces() {
        let out = strip("let s = r#\"line1 {\n// not a comment\nline3 }\"#;\nlet x = 1;");
        let joined = out.join("");
        assert!(!joined.contains('{'), "{out:?}");
        assert!(!joined.contains("not a comment"), "{out:?}");
        assert!(out[3].contains("let x = 1;"), "{out:?}");
    }

    #[test]
    fn ident_ending_in_r_does_not_open_a_raw_string() {
        // `attr` ends in `r`; a following string must lex as a normal
        // string, not swallow the rest of the file as a raw literal.
        let out = strip("f(attr,\"a{\");\nlet g = m.lock();");
        assert_eq!(out[1], "let g = m.lock();");
    }

    #[test]
    fn nested_generics_survive_stripping() {
        let out = strip("fn g(m: &HashMap<u64, Vec<Mutex<u64>>>) -> Option<Vec<u64>> { x }");
        assert!(out[0].contains("HashMap<u64, Vec<Mutex<u64>>>"), "{out:?}");
    }

    // --- lexer ---

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).0.into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn lexes_spanned_tokens() {
        let (toks, _) = lex("let ds = self.dispatch.lock();\nlet x = 2;");
        let lock = toks.iter().find(|t| t.text == "lock").unwrap();
        assert_eq!((lock.line, lock.col), (1, 24));
        let x = toks.iter().find(|t| t.text == "x").unwrap();
        assert_eq!(x.line, 2);
    }

    #[test]
    fn lexes_raw_strings_with_braces_as_one_literal() {
        let toks = kinds("let s = r#\"a { // } b\"#; m.lock();");
        let lit = toks.iter().filter(|(k, _)| *k == TokKind::Lit).count();
        assert_eq!(lit, 1, "{toks:?}");
        assert!(toks.iter().any(|(_, t)| t == "lock"), "{toks:?}");
        assert!(!toks.iter().any(|(_, t)| t == "{"), "{toks:?}");
    }

    #[test]
    fn lexes_lifetimes_chars_and_ranges() {
        let toks = kinds("fn f<'a>(c: char) { matches!(c, '0'..='9') }");
        assert!(toks.contains(&(TokKind::Lifetime, "'a".to_string())));
        assert!(toks.contains(&(TokKind::Punct, "..=".to_string())));
        assert_eq!(
            toks.iter()
                .filter(|(k, t)| *k == TokKind::Lit && t == "''")
                .count(),
            2
        );
    }

    #[test]
    fn lexes_raw_identifiers_and_numbers() {
        let toks = kinds("let r#type = 0xFA177; let f = 1.5e3;");
        assert!(toks.contains(&(TokKind::Ident, "type".to_string())));
        assert!(toks.contains(&(TokKind::Lit, "0xFA177".to_string())));
        assert!(toks.contains(&(TokKind::Lit, "1.5e3".to_string())));
    }

    #[test]
    fn captures_ledger_annotations() {
        let (_, anns) = lex("// ledger: defer(settles at seal)\nx.admitted.fetch_add(1, O);");
        assert_eq!(anns.len(), 1);
        assert_eq!(anns[0].line, 1);
        assert!(anns[0].text.starts_with("defer("));
    }

    #[test]
    fn text_of_reconstructs_needle_exact_text() {
        let (toks, _) = lex("let ds = self.dispatch.lock();");
        assert_eq!(text_of(&toks), "let ds=self.dispatch.lock();");
        let (toks, _) = lex("self.shutdown.store(true, Ordering::Relaxed)");
        assert_eq!(
            text_of(&toks),
            "self.shutdown.store(true,Ordering::Relaxed)"
        );
    }
}
