//! Lexer for the Exo surface syntax: Python-flavored, with significant
//! indentation turned into `Indent`/`Dedent` tokens.

use std::fmt;

/// A lexical token.
#[derive(Clone, PartialEq, Debug)]
pub enum Tok {
    /// Identifier or keyword.
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal (used by `@instr("…")`).
    Str(String),
    /// Punctuation / operator.
    Punct(&'static str),
    /// Increase of indentation.
    Indent,
    /// Decrease of indentation.
    Dedent,
    /// End of line (only between statements).
    Newline,
    /// End of input.
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "{s}"),
            Tok::Int(v) => write!(f, "{v}"),
            Tok::Float(v) => write!(f, "{v}"),
            Tok::Str(s) => write!(f, "{s:?}"),
            Tok::Punct(p) => write!(f, "{p}"),
            Tok::Indent => write!(f, "<indent>"),
            Tok::Dedent => write!(f, "<dedent>"),
            Tok::Newline => write!(f, "<newline>"),
            Tok::Eof => write!(f, "<eof>"),
        }
    }
}

/// A lexer error with a line number.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LexError {
    /// 1-based source line.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for LexError {}

const PUNCTS: &[&str] = &[
    "<=", ">=", "==", "!=", "+=", "->", "(", ")", "[", "]", ":", ",", "@", ".", "+", "-", "*", "/",
    "%", "<", ">", "=",
];

/// Tokenizes a source string.
///
/// # Errors
///
/// Fails on unterminated strings, bad numbers, inconsistent dedents, or
/// unknown characters.
pub fn lex(src: &str) -> Result<Vec<(Tok, usize)>, LexError> {
    let mut toks: Vec<(Tok, usize)> = Vec::new();
    let mut indents: Vec<usize> = vec![0];
    for (lineno, raw) in src.lines().enumerate() {
        let line_no = lineno + 1;
        let no_comment = strip_comment(raw);
        if no_comment.trim().is_empty() {
            continue;
        }
        let indent = no_comment.len() - no_comment.trim_start().len();
        let current = indents.last().copied().unwrap_or(0);
        match indent.cmp(&current) {
            std::cmp::Ordering::Greater => {
                indents.push(indent);
                toks.push((Tok::Indent, line_no));
            }
            std::cmp::Ordering::Less => {
                while indents.last().copied().unwrap_or(0) > indent {
                    indents.pop();
                    toks.push((Tok::Dedent, line_no));
                }
                if indents.last().copied().unwrap_or(0) != indent {
                    return Err(LexError {
                        line: line_no,
                        message: "inconsistent indentation".into(),
                    });
                }
            }
            std::cmp::Ordering::Equal => {}
        }
        lex_line(no_comment.trim_start(), line_no, &mut toks)?;
        toks.push((Tok::Newline, line_no));
    }
    let last = src.lines().count();
    while indents.len() > 1 {
        indents.pop();
        toks.push((Tok::Dedent, last));
    }
    toks.push((Tok::Eof, last));
    Ok(toks)
}

/// `raw` up to its `#` comment; a `#` inside a string literal (an
/// `#include` in an `@instr` template) is not a comment.
fn strip_comment(raw: &str) -> &str {
    let (mut in_str, mut escaped) = (false, false);
    for (i, c) in raw.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return &raw[..i],
            _ => {}
        }
    }
    raw
}

fn lex_line(mut s: &str, line: usize, out: &mut Vec<(Tok, usize)>) -> Result<(), LexError> {
    'outer: while !s.is_empty() {
        let Some(c) = s.chars().next() else { break };
        if c.is_whitespace() {
            s = &s[c.len_utf8()..];
            continue;
        }
        if c == '"' {
            // string literal with simple escapes
            let mut val = String::new();
            let mut chars = s[1..].char_indices();
            loop {
                match chars.next() {
                    Some((i, '"')) => {
                        out.push((Tok::Str(val), line));
                        s = &s[1 + i + 1..];
                        continue 'outer;
                    }
                    Some((_, '\\')) => match chars.next() {
                        Some((_, 'n')) => val.push('\n'),
                        Some((_, 't')) => val.push('\t'),
                        Some((_, c)) => val.push(c),
                        None => {
                            return Err(LexError {
                                line,
                                message: "unterminated escape".into(),
                            })
                        }
                    },
                    Some((_, c)) => val.push(c),
                    None => {
                        return Err(LexError {
                            line,
                            message: "unterminated string".into(),
                        })
                    }
                }
            }
        }
        if c.is_ascii_digit() {
            let end = s
                .find(|ch: char| !(ch.is_ascii_digit() || ch == '.'))
                .unwrap_or(s.len());
            let text = &s[..end];
            if text.contains('.') {
                let v: f64 = text.parse().map_err(|_| LexError {
                    line,
                    message: format!("bad float literal {text:?}"),
                })?;
                out.push((Tok::Float(v), line));
            } else {
                let v: i64 = text.parse().map_err(|_| LexError {
                    line,
                    message: format!("bad integer literal {text:?}"),
                })?;
                out.push((Tok::Int(v), line));
            }
            s = &s[end..];
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let end = s
                .find(|ch: char| !(ch.is_ascii_alphanumeric() || ch == '_'))
                .unwrap_or(s.len());
            out.push((Tok::Ident(s[..end].to_string()), line));
            s = &s[end..];
            continue;
        }
        for p in PUNCTS {
            if let Some(rest) = s.strip_prefix(p) {
                out.push((Tok::Punct(p), line));
                s = rest;
                continue 'outer;
            }
        }
        return Err(LexError {
            line,
            message: format!("unexpected character {c:?}"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_header() {
        let toks = lex("def gemm(n: size):\n    pass\n").unwrap();
        let kinds: Vec<String> = toks.iter().map(|(t, _)| t.to_string()).collect();
        assert_eq!(
            kinds,
            vec![
                "def",
                "gemm",
                "(",
                "n",
                ":",
                "size",
                ")",
                ":",
                "<newline>",
                "<indent>",
                "pass",
                "<newline>",
                "<dedent>",
                "<eof>"
            ]
        );
    }

    #[test]
    fn indentation_tracking() {
        let src = "a\n    b\n        c\n    d\ne\n";
        let toks = lex(src).unwrap();
        let indents = toks.iter().filter(|(t, _)| *t == Tok::Indent).count();
        let dedents = toks.iter().filter(|(t, _)| *t == Tok::Dedent).count();
        assert_eq!(indents, 2);
        assert_eq!(dedents, 2);
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let toks = lex("a  # comment\n\n   \nb\n").unwrap();
        let idents: Vec<&str> = toks
            .iter()
            .filter_map(|(t, _)| match t {
                Tok::Ident(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(idents, vec!["a", "b"]);
    }

    #[test]
    fn hash_inside_a_string_is_not_a_comment() {
        let toks = lex("s = \"#x \\\"#y\" # z\n").unwrap();
        assert!(toks.iter().any(|(t, _)| *t == Tok::Str("#x \"#y".into())));
        assert!(!toks.iter().any(|(t, _)| *t == Tok::Ident("z".into())));
    }

    #[test]
    fn numbers_and_strings() {
        let toks = lex("x = 42 + 2.5\ns = \"hi\\n\"\n").unwrap();
        assert!(toks.iter().any(|(t, _)| *t == Tok::Int(42)));
        assert!(toks.iter().any(|(t, _)| *t == Tok::Float(2.5)));
        assert!(toks.iter().any(|(t, _)| *t == Tok::Str("hi\n".into())));
    }

    #[test]
    fn two_char_puncts_win() {
        let toks = lex("a <= b += c\n").unwrap();
        assert!(toks.iter().any(|(t, _)| *t == Tok::Punct("<=")));
        assert!(toks.iter().any(|(t, _)| *t == Tok::Punct("+=")));
    }

    #[test]
    fn inconsistent_dedent_rejected() {
        assert!(lex("a\n    b\n  c\n").is_err());
    }
}
