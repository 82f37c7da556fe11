//! The pattern language used to point at code (paper §3.3).
//!
//! Scheduling operators locate statements with simple syntactic
//! patterns, e.g. `"for i in _: _"` points at the first loop over `i`,
//! `"res : _"` at the allocation of `res`, `"C[_] += _"` at a reduction
//! into `C`, `"foo(_)"` at a call to `foo`. A trailing ` #n` selects the
//! n-th match (0-based) instead of the first.

use std::fmt;

use exo_core::ir::Stmt;
use exo_core::path::{visit_paths, StmtPath};
use exo_core::Block;

/// A textual pattern argument, as passed to scheduling operators.
///
/// Every operator takes `impl Into<Pattern>`, so plain `&str` literals
/// keep working while callers that build patterns programmatically can
/// pass `String`s or reuse a `Pattern` value. Parsing is deferred to
/// [`Pattern::parsed`] so operators can attach the original text to
/// their error reports.
#[derive(Clone, PartialEq, Eq)]
pub struct Pattern {
    text: String,
}

// Debug delegates to the text so diagnostics print `"for i in _: _"`,
// exactly as the former `&str` arguments did.
impl fmt::Debug for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.text, f)
    }
}

impl Pattern {
    /// The original pattern text.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// Parses the pattern text into a matcher.
    ///
    /// # Errors
    ///
    /// Fails on unrecognized syntax.
    pub fn parsed(&self) -> Result<ParsedPattern, PatternError> {
        ParsedPattern::parse(&self.text)
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

impl From<&str> for Pattern {
    fn from(text: &str) -> Self {
        Pattern { text: text.into() }
    }
}

impl From<String> for Pattern {
    fn from(text: String) -> Self {
        Pattern { text }
    }
}

impl From<&String> for Pattern {
    fn from(text: &String) -> Self {
        Pattern { text: text.clone() }
    }
}

impl From<&Pattern> for Pattern {
    fn from(p: &Pattern) -> Self {
        p.clone()
    }
}

/// A parsed statement pattern.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StmtPattern {
    /// `for x in _: _` — a loop whose iteration variable is spelled `x`.
    For(String),
    /// `x : _` — an allocation of a buffer spelled `x`.
    Alloc(String),
    /// `x[_] = _` — an assignment to `x` (scalar or tensor).
    Assign(String),
    /// `x[_] += _` — a reduction into `x`.
    Reduce(String),
    /// `f(_)` — a call to a procedure spelled `f`.
    Call(String),
    /// `if _: _` — any conditional.
    If,
    /// `x = _` where `x` may also be a window definition name.
    AssignOrWindow(String),
    /// `pass` — a no-op statement.
    Pass,
    /// `Cfg.field = _` — a configuration write.
    ConfigWrite(String, String),
}

/// A parsed pattern plus a match selector.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParsedPattern {
    /// What to match.
    pub kind: StmtPattern,
    /// Which match to take (0-based).
    pub index: usize,
}

/// An error from pattern parsing or matching.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PatternError {
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for PatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for PatternError {}

fn perr<T>(message: impl Into<String>) -> Result<T, PatternError> {
    Err(PatternError {
        message: message.into(),
    })
}

impl ParsedPattern {
    /// Parses a pattern string.
    ///
    /// # Errors
    ///
    /// Fails on unrecognized syntax.
    pub fn parse(text: &str) -> Result<ParsedPattern, PatternError> {
        let text = text.trim();
        // optional trailing "#n"
        let (body, index) = match text.rsplit_once('#') {
            Some((b, n)) => {
                let idx: usize = n.trim().parse().map_err(|_| PatternError {
                    message: format!("bad match index in {text:?}"),
                })?;
                (b.trim(), idx)
            }
            None => (text, 0),
        };
        let kind = Self::parse_kind(body)?;
        Ok(ParsedPattern { kind, index })
    }

    fn parse_kind(body: &str) -> Result<StmtPattern, PatternError> {
        if body == "pass" {
            return Ok(StmtPattern::Pass);
        }
        if body.starts_with("if") {
            return Ok(StmtPattern::If);
        }
        if let Some(rest) = body.strip_prefix("for ") {
            let name = rest.split_whitespace().next().ok_or_else(|| PatternError {
                message: format!("bad for-pattern {body:?}"),
            })?;
            return Ok(StmtPattern::For(name.to_string()));
        }
        if let Some((lhs, _)) = body.split_once('=') {
            let lhs = lhs.trim().trim_end_matches('+').trim();
            if let Some((cfg, field)) = lhs.split_once('.') {
                if is_ident(cfg.trim()) && is_ident(field.trim()) {
                    return Ok(StmtPattern::ConfigWrite(
                        cfg.trim().to_string(),
                        field.trim().to_string(),
                    ));
                }
            }
        }
        if let Some((lhs, _)) = body.split_once("+=") {
            let name = base_name(lhs)?;
            return Ok(StmtPattern::Reduce(name));
        }
        if let Some((lhs, _)) = body.split_once(':') {
            // "x : _"  (allocation) — but not "for …:" (handled above)
            let name = lhs.trim();
            if is_ident(name) {
                return Ok(StmtPattern::Alloc(name.to_string()));
            }
        }
        if let Some((lhs, _)) = body.split_once('=') {
            let lhs = lhs.trim();
            if lhs.contains('[') {
                return Ok(StmtPattern::Assign(base_name(lhs)?));
            }
            if is_ident(lhs) {
                return Ok(StmtPattern::AssignOrWindow(lhs.to_string()));
            }
        }
        if let Some((name, _)) = body.split_once('(') {
            let name = name.trim();
            if is_ident(name) {
                return Ok(StmtPattern::Call(name.to_string()));
            }
        }
        perr(format!("unrecognized pattern {body:?}"))
    }

    /// Whether a statement matches this pattern's kind.
    pub fn matches(&self, s: &Stmt) -> bool {
        match (&self.kind, s) {
            (StmtPattern::For(n), Stmt::For { iter, .. }) => iter.name() == *n,
            (StmtPattern::Alloc(n), Stmt::Alloc { name, .. }) => name.name() == *n,
            (StmtPattern::Assign(n), Stmt::Assign { buf, .. }) => buf.name() == *n,
            (StmtPattern::AssignOrWindow(n), Stmt::Assign { buf, idx, .. }) => {
                buf.name() == *n && idx.is_empty()
            }
            (StmtPattern::AssignOrWindow(n), Stmt::WindowDef { name, .. }) => name.name() == *n,
            (StmtPattern::Reduce(n), Stmt::Reduce { buf, .. }) => buf.name() == *n,
            (StmtPattern::Call(n), Stmt::Call { proc, .. }) => proc.name.name() == *n,
            (StmtPattern::If, Stmt::If { .. }) => true,
            (StmtPattern::Pass, Stmt::Pass) => true,
            (StmtPattern::ConfigWrite(c, f), Stmt::WriteConfig { config, field, .. }) => {
                config.name() == *c && field.name() == *f
            }
            _ => false,
        }
    }

    /// Finds the selected match in a body (pre-order).
    ///
    /// # Errors
    ///
    /// Fails if there are not enough matches.
    pub fn find(&self, body: &Block) -> Result<StmtPath, PatternError> {
        // Chaos injection: pretend resolution failed — either nothing
        // matched, or several statements did and no index disambiguates.
        // Both are ordinary user-visible outcomes (a failed pattern rejects
        // the operator and leaves the procedure untouched), which is exactly
        // the fail-safe path the harness wants to exercise.
        if exo_chaos::should_inject(exo_chaos::FaultSite::PatternNoMatch) {
            return perr(format!(
                "pattern {:?} matched no statement (chaos-injected no-match)",
                self.kind
            ));
        }
        if exo_chaos::should_inject(exo_chaos::FaultSite::PatternAmbiguous) {
            return perr(format!(
                "pattern {:?} is ambiguous: multiple matches and no index \
                 selects one (chaos-injected ambiguity)",
                self.kind
            ));
        }
        let mut hits = Vec::new();
        visit_paths(body, |p, s| {
            if self.matches(s) {
                hits.push(p.clone());
            }
        });
        hits.get(self.index).cloned().ok_or_else(|| {
            // List every candidate span so an ambiguous pattern tells the
            // user exactly which `#n` selector to add (same span rendering
            // as lint diagnostics).
            let candidates = if hits.is_empty() {
                String::new()
            } else {
                format!("; candidates: {}", exo_core::diag::render_paths(&hits))
            };
            PatternError {
                message: format!(
                    "pattern {:?} matched {} statement(s), wanted index {}{}",
                    self.kind,
                    hits.len(),
                    self.index,
                    candidates
                ),
            }
        })
    }
}

fn base_name(lhs: &str) -> Result<String, PatternError> {
    let name = lhs.split('[').next().unwrap_or("").trim();
    if is_ident(name) {
        Ok(name.to_string())
    } else {
        perr(format!("bad buffer name in pattern {lhs:?}"))
    }
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_core::build::ProcBuilder;
    use exo_core::ir::Expr;
    use exo_core::types::{DataType, MemName};

    fn sample() -> exo_core::Block {
        let mut b = ProcBuilder::new("p");
        let a = b.tensor("A", DataType::F32, vec![Expr::int(8)]);
        let _t = b.alloc("t", DataType::F32, vec![Expr::int(8)], MemName::dram());
        let i = b.begin_for("i", Expr::int(0), Expr::int(8));
        b.assign(a, vec![Expr::var(i)], Expr::float(0.0));
        b.reduce(a, vec![Expr::var(i)], Expr::float(1.0));
        b.end_for();
        let i2 = b.begin_for("i", Expr::int(0), Expr::int(4));
        let _ = i2;
        b.stmt(exo_core::Stmt::Pass);
        b.end_for();
        b.finish().body.clone()
    }

    #[test]
    fn pattern_newtype_roundtrips() {
        let p: Pattern = "for i in _: _".into();
        assert_eq!(p.as_str(), "for i in _: _");
        assert_eq!(p.to_string(), "for i in _: _");
        let owned: Pattern = String::from("pass").into();
        let by_ref: Pattern = (&String::from("pass")).into();
        assert_eq!(owned, by_ref);
        assert_eq!(p.parsed().unwrap().kind, StmtPattern::For("i".into()));
        assert!(Pattern::from("!!!").parsed().is_err());
    }

    #[test]
    fn parse_forms() {
        assert_eq!(
            ParsedPattern::parse("for i in _: _").unwrap().kind,
            StmtPattern::For("i".into())
        );
        assert_eq!(
            ParsedPattern::parse("res : _").unwrap().kind,
            StmtPattern::Alloc("res".into())
        );
        assert_eq!(
            ParsedPattern::parse("C[_] += _").unwrap().kind,
            StmtPattern::Reduce("C".into())
        );
        assert_eq!(
            ParsedPattern::parse("C[_,_] = _").unwrap().kind,
            StmtPattern::Assign("C".into())
        );
        assert_eq!(
            ParsedPattern::parse("foo(_)").unwrap().kind,
            StmtPattern::Call("foo".into())
        );
        assert_eq!(
            ParsedPattern::parse("if _: _").unwrap().kind,
            StmtPattern::If
        );
        let p = ParsedPattern::parse("for i in _: _ #2").unwrap();
        assert_eq!(p.index, 2);
        assert!(ParsedPattern::parse("!!!").is_err());
    }

    #[test]
    fn find_selects_nth() {
        let body = sample();
        let p0 = ParsedPattern::parse("for i in _: _")
            .unwrap()
            .find(&body)
            .unwrap();
        let p1 = ParsedPattern::parse("for i in _: _ #1")
            .unwrap()
            .find(&body)
            .unwrap();
        assert_ne!(p0, p1);
        assert!(ParsedPattern::parse("for i in _: _ #2")
            .unwrap()
            .find(&body)
            .is_err());
    }

    #[test]
    fn finds_alloc_and_stores() {
        let body = sample();
        assert!(ParsedPattern::parse("t : _").unwrap().find(&body).is_ok());
        assert!(ParsedPattern::parse("A[_] = _")
            .unwrap()
            .find(&body)
            .is_ok());
        assert!(ParsedPattern::parse("A[_] += _")
            .unwrap()
            .find(&body)
            .is_ok());
        assert!(ParsedPattern::parse("B[_] = _")
            .unwrap()
            .find(&body)
            .is_err());
    }
}
