//! A minimal Rust lexer, sufficient for token-level lint passes.
//!
//! The lexer is deliberately *not* a full Rust grammar: it produces a flat
//! token stream with line numbers, which is exactly what `tidy`-style
//! pattern passes need. It understands everything required to never
//! mis-tokenize real code: nested block comments, raw strings (`r#"…"#`),
//! byte and C strings, char literals vs. lifetimes, numeric literals with
//! suffixes, and multi-character operators. String and comment *contents*
//! never produce code tokens, so a pass matching `.unwrap()` cannot be
//! fooled by `"unwrap"` appearing in a message.

/// Kind of one lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`as`, `unwrap`, `Mutex`, …).
    Ident,
    /// Lifetime (`'a`) — text excludes the leading quote.
    Lifetime,
    /// Integer literal (`42`, `0xff`, `1_000u64`).
    Int,
    /// Float literal (`1.0`, `2e-3`, `0.5f32`).
    Float,
    /// String literal of any flavour (`"…"`, `r#"…"#`, `b"…"`); text is
    /// the *unquoted* contents for plain strings, raw contents for raw
    /// strings.
    Str,
    /// Char or byte literal (`'a'`, `b'\n'`); text includes the quotes.
    Char,
    /// Operator or punctuation (`==`, `::`, `.`, `{`, …).
    Punct,
}

/// One token with its source line (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// The token text (see [`TokenKind`] for quoting conventions).
    pub text: String,
    /// 1-based source line the token starts on.
    pub line: u32,
}

impl Token {
    /// `true` when this is punctuation with exactly this text.
    pub fn is_punct(&self, p: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == p
    }

    /// `true` when this is an identifier with exactly this text.
    pub fn is_ident(&self, id: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == id
    }
}

/// Multi-character operators, longest first so maximal munch is a simple
/// prefix scan.
const OPERATORS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "==", "!=", "<=", ">=", "&&", "||", "::", "->", "=>", "..", "+=",
    "-=", "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>",
];

/// Lexes `source` into code tokens; comments are skipped. The lexer never fails: bytes
/// it cannot classify become single-character punctuation, which keeps
/// passes working even on slightly exotic code.
pub fn lex(source: &str) -> Vec<Token> {
    let bytes = source.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line: u32 = 1;

    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let mut depth = 1usize;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        if bytes[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
            }
            b'r' | b'b' | b'c' if is_raw_or_byte_string_start(bytes, i) => {
                let (token, ni, nl) = lex_string_like(source, i, line);
                out.push(token);
                i = ni;
                line = nl;
            }
            b'"' => {
                let (token, ni, nl) = lex_plain_string(source, i, line);
                out.push(token);
                i = ni;
                line = nl;
            }
            b'\'' => {
                let (token, ni) = lex_quote(source, i, line);
                out.push(token);
                i = ni;
            }
            c if c == b'_' || c.is_ascii_alphabetic() => {
                let start = i;
                while i < bytes.len() && (bytes[i] == b'_' || bytes[i].is_ascii_alphanumeric()) {
                    i += 1;
                }
                out.push(Token {
                    kind: TokenKind::Ident,
                    text: source[start..i].to_string(),
                    line,
                });
            }
            c if c.is_ascii_digit() => {
                let (token, ni) = lex_number(source, i, line);
                out.push(token);
                i = ni;
            }
            _ => {
                let rest = &source[i..];
                let op = OPERATORS.iter().find(|op| rest.starts_with(**op));
                let text = match op {
                    Some(op) => (*op).to_string(),
                    None => {
                        // One (possibly multi-byte) character of punctuation.
                        let ch_len = rest.chars().next().map_or(1, char::len_utf8);
                        rest[..ch_len].to_string()
                    }
                };
                i += text.len();
                out.push(Token { kind: TokenKind::Punct, text, line });
            }
        }
    }
    out
}

/// `true` when position `i` starts a raw/byte/C string (`r"`, `r#`, `b"`,
/// `br#`, `c"`, …) rather than a plain identifier.
fn is_raw_or_byte_string_start(bytes: &[u8], i: usize) -> bool {
    let mut j = i;
    // Optional leading b/c, optional r, optional #s, then a quote.
    if bytes[j] == b'b' || bytes[j] == b'c' {
        j += 1;
    }
    if j < bytes.len() && bytes[j] == b'r' {
        j += 1;
        while j < bytes.len() && bytes[j] == b'#' {
            j += 1;
        }
    }
    match bytes.get(j) {
        Some(&b'"') => true,
        Some(&b'\'') => bytes[i] == b'b', // byte char literal b'x'
        _ => false,
    }
}

/// Lexes raw/byte/C strings and byte char literals starting at `i`.
fn lex_string_like(source: &str, i: usize, line: u32) -> (Token, usize, u32) {
    let bytes = source.as_bytes();
    let mut j = i;
    if bytes[j] == b'b' || bytes[j] == b'c' {
        j += 1;
    }
    if j < bytes.len() && bytes[j] == b'\'' {
        // Byte char literal b'x'.
        let (token, ni) = lex_quote(source, j, line);
        return (Token { kind: TokenKind::Char, ..token }, ni, line);
    }
    let mut raw = false;
    let mut hashes = 0usize;
    if j < bytes.len() && bytes[j] == b'r' {
        raw = true;
        j += 1;
        while j < bytes.len() && bytes[j] == b'#' {
            hashes += 1;
            j += 1;
        }
    }
    debug_assert!(j < bytes.len() && bytes[j] == b'"');
    if raw {
        let content_start = j + 1;
        let closer: String = format!("\"{}", "#".repeat(hashes));
        let mut k = content_start;
        let mut nl = line;
        while k < bytes.len() {
            if bytes[k] == b'\n' {
                nl += 1;
            }
            if source[k..].starts_with(&closer) {
                let token = Token {
                    kind: TokenKind::Str,
                    text: source[content_start..k].to_string(),
                    line,
                };
                return (token, k + closer.len(), nl);
            }
            k += 1;
        }
        (Token { kind: TokenKind::Str, text: source[content_start..].to_string(), line }, k, nl)
    } else {
        lex_plain_string(source, j, line)
    }
}

/// Lexes a plain `"…"` string whose opening quote is at `i`.
fn lex_plain_string(source: &str, i: usize, line: u32) -> (Token, usize, u32) {
    let bytes = source.as_bytes();
    let content_start = i + 1;
    let mut k = content_start;
    let mut nl = line;
    while k < bytes.len() {
        match bytes[k] {
            b'\\' => k += 2,
            b'"' => {
                let token = Token {
                    kind: TokenKind::Str,
                    text: source[content_start..k].to_string(),
                    line,
                };
                return (token, k + 1, nl);
            }
            b'\n' => {
                nl += 1;
                k += 1;
            }
            _ => k += 1,
        }
    }
    (Token { kind: TokenKind::Str, text: source[content_start..].to_string(), line }, k, nl)
}

/// Lexes either a char literal or a lifetime starting at the `'` at `i`.
fn lex_quote(source: &str, i: usize, line: u32) -> (Token, usize) {
    let bytes = source.as_bytes();
    let next = bytes.get(i + 1).copied();
    let after = bytes.get(i + 2).copied();
    let is_lifetime = match next {
        Some(c) if c == b'_' || c.is_ascii_alphabetic() => after != Some(b'\''),
        _ => false,
    };
    if is_lifetime {
        let start = i + 1;
        let mut k = start;
        while k < bytes.len() && (bytes[k] == b'_' || bytes[k].is_ascii_alphanumeric()) {
            k += 1;
        }
        return (Token { kind: TokenKind::Lifetime, text: source[start..k].to_string(), line }, k);
    }
    // Char literal: consume escapes until the closing quote (or give up at
    // end of line — the lexer never fails).
    let mut k = i + 1;
    while k < bytes.len() {
        match bytes[k] {
            b'\\' => k += 2,
            b'\'' => {
                k += 1;
                break;
            }
            b'\n' => break,
            _ => k += 1,
        }
    }
    let end = k.min(source.len());
    (Token { kind: TokenKind::Char, text: source[i..end].to_string(), line }, end)
}

/// Lexes a numeric literal starting at digit `i`.
fn lex_number(source: &str, i: usize, line: u32) -> (Token, usize) {
    let bytes = source.as_bytes();
    let start = i;
    let mut k = i;
    let mut is_float = false;
    if bytes[k] == b'0' && matches!(bytes.get(k + 1), Some(b'x' | b'o' | b'b' | b'X' | b'O' | b'B'))
    {
        k += 2;
        while k < bytes.len() && (bytes[k].is_ascii_alphanumeric() || bytes[k] == b'_') {
            k += 1;
        }
        return (Token { kind: TokenKind::Int, text: source[start..k].to_string(), line }, k);
    }
    while k < bytes.len() && (bytes[k].is_ascii_digit() || bytes[k] == b'_') {
        k += 1;
    }
    // A `.` continues the number only when followed by a digit (so `0..n`
    // and `1.max(2)` lex as Int + punctuation).
    if k < bytes.len() && bytes[k] == b'.' && bytes.get(k + 1).is_some_and(|c| c.is_ascii_digit()) {
        is_float = true;
        k += 1;
        while k < bytes.len() && (bytes[k].is_ascii_digit() || bytes[k] == b'_') {
            k += 1;
        }
    }
    // Trailing `1.` (float with no fraction digits, not followed by ident
    // or another dot, e.g. `1. ` — rare, but lex it right).
    else if k < bytes.len()
        && bytes[k] == b'.'
        && !bytes.get(k + 1).is_some_and(|c| c.is_ascii_alphabetic() || *c == b'_' || *c == b'.')
    {
        is_float = true;
        k += 1;
    }
    // Exponent.
    if k < bytes.len() && (bytes[k] == b'e' || bytes[k] == b'E') {
        let mut j = k + 1;
        if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
            j += 1;
        }
        if j < bytes.len() && bytes[j].is_ascii_digit() {
            is_float = true;
            k = j;
            while k < bytes.len() && (bytes[k].is_ascii_digit() || bytes[k] == b'_') {
                k += 1;
            }
        }
    }
    // Type suffix (f32, u64, usize, …).
    let suffix_start = k;
    while k < bytes.len() && (bytes[k].is_ascii_alphanumeric() || bytes[k] == b'_') {
        k += 1;
    }
    let suffix = &source[suffix_start..k];
    if suffix.starts_with('f') {
        is_float = true;
    }
    let kind = if is_float { TokenKind::Float } else { TokenKind::Int };
    (Token { kind, text: source[start..k].to_string(), line }, k)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_numbers_and_operators() {
        let toks = kinds("let x = a.unwrap() + 1.5e3;");
        assert!(toks.contains(&(TokenKind::Ident, "unwrap".into())));
        assert!(toks.contains(&(TokenKind::Float, "1.5e3".into())));
        assert!(toks.contains(&(TokenKind::Punct, ".".into())));
    }

    #[test]
    fn strings_do_not_leak_code_tokens() {
        let toks = kinds(r#"let s = "call .unwrap() now";"#);
        assert!(!toks.iter().any(|(k, t)| *k == TokenKind::Ident && t == "unwrap"));
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Str && t.contains("unwrap")));
    }

    #[test]
    fn raw_strings_and_hashes() {
        let toks = kinds(r###"let s = r#"x "y" z"#; let t = 1;"###);
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Str && t == r#"x "y" z"#));
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Int && t == "1"));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'q'; let n = '\\n'; }");
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Lifetime && t == "a"));
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Char && t == "'q'"));
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Char && t == "'\\n'"));
    }

    #[test]
    fn ranges_do_not_become_floats() {
        let toks = kinds("for i in 0..10 {}");
        assert!(toks.contains(&(TokenKind::Int, "0".into())));
        assert!(toks.contains(&(TokenKind::Punct, "..".into())));
        assert!(toks.contains(&(TokenKind::Int, "10".into())));
    }

    #[test]
    fn nested_block_comments_and_line_tracking() {
        let tokens = lex("/* a /* b */ c */\nsecond\n// tail\nthird");
        assert_eq!(tokens.len(), 2);
        assert_eq!(tokens[0].text, "second");
        assert_eq!(tokens[0].line, 2);
        assert_eq!(tokens[1].text, "third");
        assert_eq!(tokens[1].line, 4);
    }

    #[test]
    fn float_equality_tokens() {
        let toks = kinds("if v == 0.0 || w != 1.0 {}");
        assert!(toks.contains(&(TokenKind::Punct, "==".into())));
        assert!(toks.contains(&(TokenKind::Punct, "!=".into())));
        assert!(toks.contains(&(TokenKind::Float, "0.0".into())));
    }

    #[test]
    fn exclamation_before_paren_stays_single() {
        let toks = kinds("panic!(\"boom\")");
        assert!(toks.contains(&(TokenKind::Ident, "panic".into())));
        assert!(toks.contains(&(TokenKind::Punct, "!".into())));
    }

    #[test]
    fn float_suffix_without_dot() {
        let toks = kinds("let x = 1f32 + 2u64;");
        assert!(toks.contains(&(TokenKind::Float, "1f32".into())));
        assert!(toks.contains(&(TokenKind::Int, "2u64".into())));
    }
}
