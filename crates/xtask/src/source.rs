//! The source model of the `analyze` and `docs` passes: a spanned token
//! stream.
//!
//! `lex` is a hand-written scanner: every token carries its 1-based line
//! and column, a string literal is one `Lit` token whose text is the whole
//! literal, quotes included (so its *contents* can never alias code),
//! char literals are reduced to `''`, lifetimes are told apart from char
//! literals, and nested block comments are skipped.
//! `without_test_items` then drops every `#[cfg(test)]` item. It is not a
//! parser; it is robust to the subset of Rust this repo writes, and the
//! tests below pin the historically sharp edges (raw strings containing
//! `{` or `//`, multi-line raw strings, idents ending in `r`, escaped
//! quote chars, a `#[cfg(test)]` field before an `impl`).

/// Token classes the passes distinguish. `Lit` carries a string literal
/// as written, a char literal as `''`, or the number.
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

/// Multi-character punctuation, longest first. `<<`/`>>` deliberately
/// stay two tokens so generics close one `>` at a time.
const PUNCTS: &[&str] = &[
    "..=", "::", "->", "=>", "..", "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "==", "!=", "<=", ">=",
];

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// If a string literal (`"…"`, `b"…"`, `r#"…"#`, `br"…"`) starts at `i`,
/// the index just past it (`r#ident` has no quote after its hash).
fn string_end(chars: &[char], i: usize) -> Option<usize> {
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
    }
    let raw = chars.get(j) == Some(&'r');
    if raw {
        j += 1;
    }
    let mut hashes = 0;
    while raw && chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if chars.get(j) != Some(&'"') {
        return None;
    }
    j += 1;
    while j < chars.len() {
        match chars[j] {
            '\\' if !raw => j += 2,
            '"' if chars[j + 1..].iter().take(hashes).all(|&c| c == '#')
                && chars.len() > j + hashes =>
            {
                return Some(j + 1 + hashes)
            }
            _ => j += 1,
        }
    }
    Some(chars.len())
}

/// Lex a source file into spanned tokens. Comments are skipped.
pub fn lex(source: &str) -> Vec<Tok> {
    let chars: Vec<char> = source.chars().collect();
    let mut toks = Vec::new();
    let (mut i, mut line, mut col) = (0, 1, 1);
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        let rest = &chars[i..];
        let (tok, end) = if c.is_whitespace() {
            (None, i + 1)
        } else if c == '/' && next == Some('/') {
            let len = rest.iter().position(|&c| c == '\n').unwrap_or(rest.len());
            (None, i + len)
        } else if c == '/' && next == Some('*') {
            let (mut j, mut depth) = (i + 2, 1);
            while j < chars.len() && depth > 0 {
                match (chars[j], chars.get(j + 1)) {
                    ('*', Some('/')) => (depth, j) = (depth - 1, j + 2),
                    ('/', Some('*')) => (depth, j) = (depth + 1, j + 2),
                    _ => j += 1,
                }
            }
            (None, j)
        } else if let Some(end) = string_end(&chars, i) {
            (Some((TokKind::Lit, chars[i..end].iter().collect())), end)
        } else if c == '\'' && (next == Some('\\') || chars.get(i + 2) == Some(&'\'')) {
            // A char literal: `'x'`, or an escape (`'\''`, `'\u{1F}'`)
            // whose closing quote is at least three chars on.
            let from = if next == Some('\\') { 3 } else { 2 };
            let close = rest
                .get(from..)
                .and_then(|r| r.iter().position(|&c| c == '\''));
            (
                Some((TokKind::Lit, "''".to_string())),
                i + close.map_or(rest.len(), |p| from + p + 1),
            )
        } else if c == '\'' {
            let len = 1 + rest[1..].iter().take_while(|&&c| is_ident_char(c)).count();
            (
                Some((TokKind::Lifetime, rest[..len].iter().collect())),
                i + len,
            )
        } else if c.is_ascii_alphabetic() || c == '_' {
            // `r#type` is the ident `type`.
            let from = if c == 'r' && next == Some('#') { 2 } else { 0 };
            let len = from
                + rest[from..]
                    .iter()
                    .take_while(|&&c| is_ident_char(c))
                    .count();
            (
                Some((TokKind::Ident, rest[from..len].iter().collect())),
                i + len,
            )
        } else if c.is_ascii_digit() {
            // A fractional part only before a digit: `0..10` stays a range.
            let mut len = rest.iter().take_while(|&&c| is_ident_char(c)).count();
            if rest.get(len) == Some(&'.') && rest.get(len + 1).is_some_and(char::is_ascii_digit) {
                len += 1 + rest[len + 1..]
                    .iter()
                    .take_while(|&&c| is_ident_char(c))
                    .count();
            }
            (Some((TokKind::Lit, rest[..len].iter().collect())), i + len)
        } else {
            let p = PUNCTS
                .iter()
                .find(|p| rest.len() >= p.len() && p.chars().zip(rest).all(|(a, &b)| a == b))
                .map_or_else(|| c.to_string(), |p| (*p).to_string());
            let len = p.len();
            (Some((TokKind::Punct, p)), i + len)
        };
        if let Some((kind, text)) = tok {
            toks.push(Tok {
                kind,
                text,
                line,
                col,
            });
        }
        let end = end.min(chars.len());
        for &ch in &chars[i..end] {
            if ch == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        i = end;
    }
    toks
}

/// Does the token run at `toks[i..]` spell `seq`, token by token?
pub fn spells(toks: &[Tok], i: usize, seq: &[&str]) -> bool {
    toks.len() >= i + seq.len() && seq.iter().zip(&toks[i..]).all(|(s, t)| t.is(s))
}

/// Index of the bracket that closes `toks[open]` (a `{`, `(` or `[`), or
/// `toks.len()` when it is never closed.
pub fn matching(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            _ => {}
        }
        if depth == 0 {
            return k;
        }
    }
    toks.len()
}

/// Drop every `#[cfg(test)]` item: through the `}` that closes its body,
/// through the `;` or `,` that ends it outside every bracket, or up to the
/// close of the item it is the last member of.
pub fn without_test_items(toks: &[Tok]) -> Vec<Tok> {
    const CFG_TEST: [&str; 7] = ["#", "[", "cfg", "(", "test", ")", "]"];
    let mut out = Vec::with_capacity(toks.len());
    let mut i = 0;
    while i < toks.len() {
        if !spells(toks, i, &CFG_TEST) {
            out.push(toks[i].clone());
            i += 1;
            continue;
        }
        i += CFG_TEST.len();
        let mut depth = 0;
        while let Some(t) = toks.get(i) {
            match t.text.as_str() {
                "{" | "(" | "[" => depth += 1,
                "}" | ")" | "]" if depth == 0 => break,
                "}" | ")" | "]" => {
                    depth -= 1;
                    if depth == 0 && t.is("}") {
                        i += 1;
                        break;
                    }
                }
                ";" | "," if depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    fn texts(toks: &[Tok]) -> String {
        toks.iter()
            .map(|t| t.text.as_str())
            .collect::<Vec<_>>()
            .join(" ")
    }

    #[test]
    fn lexes_spanned_tokens() {
        let toks = lex("let ds = self.dispatch.lock();\nlet x = 2;");
        let lock = toks.iter().find(|t| t.text == "lock").unwrap();
        assert_eq!((lock.line, lock.col), (1, 24));
        let x = toks.iter().find(|t| t.text == "x").unwrap();
        assert_eq!((x.line, x.col), (2, 5));
    }

    #[test]
    fn comments_and_string_contents_are_not_code() {
        let toks = lex(
            "let a = 1; // m.lock()\nlet s = \"inner.lock()\"; /* d.lock() /* nested */ */ b();",
        );
        assert!(!toks.iter().any(|t| t.text == "lock"), "{toks:?}");
        assert_eq!(
            toks.last().map(|t| (t.text.as_str(), t.line)),
            Some((";", 2))
        );
    }

    #[test]
    fn raw_strings_with_braces_and_comments_are_one_literal() {
        let toks = kinds("let s = r#\"a { // } \"b\"#; m.lock();");
        assert_eq!(
            toks.iter().filter(|(k, _)| *k == TokKind::Lit).count(),
            1,
            "{toks:?}"
        );
        assert!(toks.iter().any(|(_, t)| t == "lock"), "{toks:?}");
        assert!(!toks.iter().any(|(_, t)| t == "{"), "{toks:?}");
    }

    #[test]
    fn multiline_raw_strings_keep_the_lines_after_them() {
        let toks = lex("let s = r#\"line1 {\n// not a comment\nline3 }\"#;\nlet x = br\"\\\";");
        let x = toks.iter().find(|t| t.text == "x").unwrap();
        assert_eq!(x.line, 4);
        assert!(!toks.iter().any(|t| t.text == "not" || t.text == "{"));
        assert_eq!(toks.last().map(|t| t.text.as_str()), Some(";"));
    }

    #[test]
    fn ident_ending_in_r_does_not_open_a_raw_string() {
        let toks = lex("f(attr,\"a{\");\nlet g = m.lock();");
        assert!(
            toks.iter().any(|t| t.text == "lock" && t.line == 2),
            "{toks:?}"
        );
    }

    #[test]
    fn lexes_lifetimes_chars_and_ranges() {
        let toks = kinds("fn f<'a>(c: char) { matches!(c, '0'..='9' | '\\'') }");
        assert!(toks.contains(&(TokKind::Lifetime, "'a".to_string())));
        assert!(toks.contains(&(TokKind::Punct, "..=".to_string())));
        let chars = toks.iter().filter(|(k, t)| *k == TokKind::Lit && t == "''");
        assert_eq!(chars.count(), 3);
    }

    #[test]
    fn lexes_raw_identifiers_and_numbers() {
        let toks = kinds("let r#type = 0xFA177; let f = 1.5e3; for i in 0..10 {}");
        assert!(toks.contains(&(TokKind::Ident, "type".to_string())));
        assert!(toks.contains(&(TokKind::Lit, "0xFA177".to_string())));
        assert!(toks.contains(&(TokKind::Lit, "1.5e3".to_string())));
        assert!(toks.contains(&(TokKind::Punct, "..".to_string())));
    }

    #[test]
    fn test_items_go_and_nothing_after_them() {
        let toks = without_test_items(&lex(
            "struct S {\n    #[cfg(test)]\n    tally: u64,\n    wal: Mutex<Inner>,\n}\n\
             fn locked(&self) -> G {\n    #[cfg(test)]\n    self.tally(name(a, b));\n    \
             self.wal.lock()\n}\n#[cfg(test)]\nconst T: &str = \"t\";\nfn after(a: A, b: B) {}\n\
             #[cfg(test)]\n#[test]\nfn probe(&self, a: A) -> u64 {\n    x.lock()\n}\n\
             #[cfg(test)]\nmod tests { fn t() {} }\nstruct V { #[cfg(test)] held: u8 }\n\
             impl V { fn last() {} }",
        ));
        let joined = texts(&toks);
        for gone in ["tally", "T", "x", "probe", "tests", "held"] {
            assert!(
                !toks.iter().any(|t| t.text == gone),
                "`{gone}` survived:\n{joined}"
            );
        }
        for kept in [
            "wal : Mutex",
            "self . wal . lock ( )",
            "fn after (",
            "struct V { } impl V { fn last ( )",
        ] {
            assert!(joined.contains(kept), "`{kept}` went:\n{joined}");
        }
    }
}
