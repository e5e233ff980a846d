//! A string/char/comment-aware Rust tokenizer.
//!
//! The lexer is deliberately lightweight: it produces a flat token stream
//! (identifiers, lifetimes, literals, punctuation) plus the comment list,
//! which is all the rule engine needs. What it must get *exactly* right is
//! what a regex cannot: text inside string literals, raw strings
//! (`r#"..."#` with any number of hashes), byte strings, char literals
//! (including `'"'` and escapes), line comments, and nested block comments
//! must never leak tokens — otherwise a doc example mentioning
//! `telemetry.flush()` would trip the observe-only rule.

/// Kind of one lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `HashMap`, `for`, ...).
    Ident,
    /// Lifetime or loop label (`'a`, `'static`).
    Lifetime,
    /// String literal of any flavor (plain, raw, byte, raw byte).
    Str,
    /// Char or byte-char literal (`'x'`, `b'\n'`, `'"'`).
    Char,
    /// Numeric literal (the text keeps suffixes: `0.0f64`, `1_000`).
    Num,
    /// Punctuation, one char per token except `+=` (the float-accumulation
    /// rule's trigger), which is fused into one.
    Punct,
}

/// One token: kind, source text, and 1-based line number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tok<'a> {
    /// What the token is.
    pub kind: TokKind,
    /// The token's source text.
    pub text: &'a str,
    /// 1-based line the token starts on.
    pub line: u32,
}

/// One comment (line or block), kept for suppression parsing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Comment<'a> {
    /// Comment text including the `//` / `/*` markers.
    pub text: &'a str,
    /// 1-based line the comment starts on.
    pub line: u32,
    /// Whether code precedes the comment on its own line (a trailing
    /// comment suppresses its own line; a standalone one the next).
    pub trailing: bool,
}

/// The lexer's output: code tokens and comments, both in source order.
#[derive(Debug, Default)]
pub struct Lexed<'a> {
    /// Non-comment tokens.
    pub tokens: Vec<Tok<'a>>,
    /// Line and block comments.
    pub comments: Vec<Comment<'a>>,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Tokenizes `src`. Invalid or truncated input never panics: an unclosed
/// string or comment simply runs to the end of the file.
pub fn lex(src: &str) -> Lexed<'_> {
    let bytes = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let mut code_on_line = false;

    macro_rules! count_newlines {
        ($range:expr) => {
            line += bytes[$range].iter().filter(|&&b| b == b'\n').count() as u32
        };
    }

    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'\n' => {
                line += 1;
                code_on_line = false;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let end = src[i..].find('\n').map_or(bytes.len(), |n| i + n);
                out.comments.push(Comment {
                    text: &src[i..end],
                    line,
                    trailing: code_on_line,
                });
                i = end;
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let start = i;
                let start_line = line;
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
                out.comments.push(Comment {
                    text: &src[start..i],
                    line: start_line,
                    trailing: code_on_line,
                });
            }
            b'"' => {
                let end = scan_string(bytes, i);
                count_newlines!(i..end);
                out.tokens.push(Tok {
                    kind: TokKind::Str,
                    text: &src[i..end],
                    line,
                });
                code_on_line = true;
                i = end;
            }
            b'\'' => {
                // Char literal vs lifetime. `'\...'` and `'x'` are chars;
                // `'ident` (no closing quote right after one char) is a
                // lifetime or loop label.
                let rest = &src[i + 1..];
                let mut chars = rest.chars();
                let first = chars.next();
                let second = chars.next();
                let is_char = matches!((first, second), (Some('\\'), _) | (Some(_), Some('\'')));
                if is_char {
                    let end = scan_char(bytes, i);
                    out.tokens.push(Tok {
                        kind: TokKind::Char,
                        text: &src[i..end],
                        line,
                    });
                    i = end;
                } else {
                    let mut end = i + 1;
                    while end < bytes.len() && is_ident_continue(bytes[end] as char) {
                        end += 1;
                    }
                    out.tokens.push(Tok {
                        kind: TokKind::Lifetime,
                        text: &src[i..end],
                        line,
                    });
                    i = end;
                }
                code_on_line = true;
            }
            b'0'..=b'9' => {
                let mut end = i + 1;
                while end < bytes.len() {
                    let c = bytes[end];
                    if c.is_ascii_alphanumeric() || c == b'_' {
                        end += 1;
                    } else if c == b'.'
                        && bytes.get(end + 1) != Some(&b'.')
                        && bytes
                            .get(end + 1)
                            .is_none_or(|&n| !is_ident_start(n as char) || n == b'e')
                    {
                        // `1.0` continues the number; `1..n` and `1.method()`
                        // do not.
                        end += 1;
                    } else {
                        break;
                    }
                }
                out.tokens.push(Tok {
                    kind: TokKind::Num,
                    text: &src[i..end],
                    line,
                });
                code_on_line = true;
                i = end;
            }
            _ if is_ident_start(b as char) || b >= 0x80 => {
                let mut end = i;
                while end < bytes.len() {
                    let c = bytes[end];
                    if c >= 0x80 || is_ident_continue(c as char) {
                        end += 1;
                    } else {
                        break;
                    }
                }
                let word = &src[i..end];
                // String/char prefixes: r"", r#""#, b"", br#""#, b''.
                let next = bytes.get(end).copied();
                let starts_string = matches!(word, "r" | "b" | "br" | "rb")
                    && matches!(next, Some(b'"') | Some(b'#'));
                let starts_byte_char = word == "b" && next == Some(b'\'');
                if starts_string {
                    if let Some(str_end) = scan_prefixed_string(bytes, end, word) {
                        count_newlines!(i..str_end);
                        out.tokens.push(Tok {
                            kind: TokKind::Str,
                            text: &src[i..str_end],
                            line,
                        });
                        code_on_line = true;
                        i = str_end;
                        continue;
                    }
                }
                if starts_byte_char {
                    let str_end = scan_char(bytes, end);
                    out.tokens.push(Tok {
                        kind: TokKind::Char,
                        text: &src[i..str_end],
                        line,
                    });
                    code_on_line = true;
                    i = str_end;
                    continue;
                }
                out.tokens.push(Tok {
                    kind: TokKind::Ident,
                    text: word,
                    line,
                });
                code_on_line = true;
                i = end;
            }
            _ => {
                // Non-ASCII punctuation is consumed one full char at a time
                // so we never split UTF-8.
                let len = if src[i..].starts_with("+=") {
                    2
                } else {
                    src[i..].chars().next().map_or(1, char::len_utf8)
                };
                let text = &src[i..i + len];
                out.tokens.push(Tok {
                    kind: TokKind::Punct,
                    text,
                    line,
                });
                code_on_line = true;
                i += text.len();
            }
        }
    }
    out
}

/// Scans a plain `"..."` string starting at `start` (which holds the
/// opening quote); returns the index one past the closing quote.
fn scan_string(bytes: &[u8], start: usize) -> usize {
    let mut i = start + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    bytes.len()
}

/// Scans a char literal starting at `start` (the opening `'`); returns the
/// index one past the closing quote.
fn scan_char(bytes: &[u8], start: usize) -> usize {
    let mut i = start + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'\'' => return i + 1,
            _ => i += 1,
        }
    }
    bytes.len()
}

/// Scans a prefixed string (`r"..."`, `r#"..."#`, `b"..."`, `br#"..."#`)
/// whose prefix identifier ends at `after_prefix`. Returns the end index,
/// or `None` if this is not actually a string start.
fn scan_prefixed_string(bytes: &[u8], after_prefix: usize, prefix: &str) -> Option<usize> {
    let raw = prefix.contains('r');
    let mut i = after_prefix;
    let mut hashes = 0usize;
    if raw {
        while bytes.get(i) == Some(&b'#') {
            hashes += 1;
            i += 1;
        }
    }
    if bytes.get(i) != Some(&b'"') {
        return None;
    }
    i += 1;
    if raw {
        // Raw strings have no escapes: find `"` followed by `hashes` hashes.
        while i < bytes.len() {
            if bytes[i] == b'"' {
                let tail = &bytes[i + 1..];
                if tail.len() >= hashes && tail[..hashes].iter().all(|&b| b == b'#') {
                    return Some(i + 1 + hashes);
                }
            }
            i += 1;
        }
        Some(bytes.len())
    } else {
        Some(scan_string(bytes, i - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<&str> {
        lex(src)
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_do_not_leak_tokens() {
        let src = r#"let x = "Instant::now() HashMap"; call(x);"#;
        assert_eq!(idents(src), vec!["let", "x", "call", "x"]);
    }

    #[test]
    fn raw_strings_with_hashes_are_opaque() {
        let src = r###"let s = r#"contains "quotes" and HashMap and # signs"#; next();"###;
        assert_eq!(idents(src), vec!["let", "s", "next"]);
        // Zero-hash raw strings and byte strings too.
        assert_eq!(
            idents(r#"let s = r"panic! inside"; f();"#),
            vec!["let", "s", "f"]
        );
        assert_eq!(
            idents(r#"let s = b"unwrap()"; f();"#),
            vec!["let", "s", "f"]
        );
    }

    #[test]
    fn nested_block_comments_are_opaque() {
        let src = "before(); /* outer /* inner panic!() */ still comment */ after();";
        assert_eq!(idents(src), vec!["before", "after"]);
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 1);
        assert!(lexed.comments[0].trailing);
    }

    #[test]
    fn char_literal_containing_a_double_quote() {
        // The `'"'` literal must not open a string that swallows the rest
        // of the file.
        let src = r#"if c == '"' { escape(); } tail();"#;
        assert_eq!(idents(src), vec!["if", "c", "escape", "tail"]);
        let chars: Vec<&str> = lex(src)
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Char)
            .map(|t| t.text)
            .collect();
        assert_eq!(chars, vec![r#"'"'"#]);
    }

    #[test]
    fn escaped_quote_chars_and_byte_chars() {
        let src = r"let a = '\''; let b = '\\'; let c = b'x'; done();";
        assert_eq!(
            idents(src),
            vec!["let", "a", "let", "b", "let", "c", "done"]
        );
    }

    #[test]
    fn lifetimes_are_not_chars() {
        let src = "fn f<'a>(x: &'a str) -> &'static str { x }";
        let lifetimes: Vec<&str> = lex(src)
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text)
            .collect();
        assert_eq!(lifetimes, vec!["'a", "'a", "'static"]);
    }

    #[test]
    fn only_plus_assign_fuses() {
        let puncts: Vec<&str> = lex("a += b; c::d();")
            .tokens
            .iter()
            .map(|t| t.text)
            .collect();
        assert_eq!(
            puncts,
            ["a", "+=", "b", ";", "c", ":", ":", "d", "(", ")", ";"]
        );
    }

    #[test]
    fn line_numbers_and_trailing_comments() {
        let src = "first();\n// standalone\nsecond(); // trailing\nthird();";
        let lexed = lex(src);
        let second = lexed
            .tokens
            .iter()
            .find(|t| t.text == "second")
            .map(|t| t.line);
        assert_eq!(second, Some(3));
        assert_eq!(lexed.comments.len(), 2);
        assert!(!lexed.comments[0].trailing);
        assert_eq!(lexed.comments[0].line, 2);
        assert!(lexed.comments[1].trailing);
        assert_eq!(lexed.comments[1].line, 3);
    }

    #[test]
    fn float_literals_keep_their_dot_and_suffix() {
        let nums: Vec<&str> = lex("let x = 0.0f64; let y = 1..8; let z = 1_000;")
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Num)
            .map(|t| t.text)
            .collect();
        assert_eq!(nums, vec!["0.0f64", "1", "8", "1_000"]);
    }

    #[test]
    fn multiline_strings_advance_the_line_counter() {
        let src = "let s = \"line\nbreak\";\nafter();";
        let after = lex(src)
            .tokens
            .iter()
            .find(|t| t.text == "after")
            .map(|t| t.line);
        assert_eq!(after, Some(3));
    }
}
