//! Structured diagnostics: machine-readable findings over the IR.
//!
//! Every static-analysis verdict that a user should *act on* — a lint
//! finding, a rejected parallelization, an ambiguous pattern — flows
//! through one [`Diagnostic`] shape: a rule identifier, a severity, the
//! procedure it concerns, an optional [`StmtPath`] span into the AST,
//! a human-readable message, and free-form notes (witnesses, candidate
//! lists). Keeping the type here in `exo-core` (which has no
//! dependencies) lets every layer of the pipeline produce and consume
//! diagnostics without new edges in the crate graph; `exo-lint` adds
//! the JSON export on top via `exo-obs`.

use std::fmt;

use crate::path::StmtPath;

/// How bad a finding is.
///
/// The ordering is semantic (`Info < Warning < Error`), so the worst
/// severity of a batch is simply `iter().max()`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    /// Informational: a fact worth surfacing, nothing to fix.
    Info,
    /// Suspicious but not provably wrong (lint default).
    Warning,
    /// Provably wrong or unsafe; CI gates on these.
    Error,
}

impl Severity {
    /// Lower-case name, as used in rendered output and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One structured finding.
#[derive(Clone, PartialEq, Debug)]
pub struct Diagnostic {
    /// Stable machine-readable rule identifier (e.g. `dead-alloc`).
    pub rule: String,
    /// Severity of the finding.
    pub severity: Severity,
    /// Name of the procedure the finding concerns.
    pub proc_name: String,
    /// Statement the finding anchors to, when one exists.
    pub path: Option<StmtPath>,
    /// Human-readable description.
    pub message: String,
    /// Supplementary notes (witness pairs, candidate paths, hints).
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// Creates a diagnostic with no span and no notes.
    pub fn new(
        rule: impl Into<String>,
        severity: Severity,
        proc_name: impl Into<String>,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            rule: rule.into(),
            severity,
            proc_name: proc_name.into(),
            path: None,
            message: message.into(),
            notes: Vec::new(),
        }
    }

    /// Anchors the diagnostic to a statement path.
    pub fn with_path(mut self, path: StmtPath) -> Diagnostic {
        self.path = Some(path);
        self
    }

    /// Appends a supplementary note.
    pub fn with_note(mut self, note: impl Into<String>) -> Diagnostic {
        self.notes.push(note.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}] {}", self.severity, self.rule, self.proc_name)?;
        if let Some(p) = &self.path {
            write!(f, " at {p}")?;
        }
        write!(f, ": {}", self.message)?;
        for n in &self.notes {
            write!(f, "\n  note: {n}")?;
        }
        Ok(())
    }
}

/// Renders a list of statement paths as one comma-separated span list
/// (`[0], [1/2/0.1], …`) — shared by lint notes and the pattern
/// ambiguity error, so every "which statement?" message reads the same.
pub fn render_paths(paths: &[StmtPath]) -> String {
    let parts: Vec<String> = paths.iter().map(|p| p.to_string()).collect();
    parts.join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::StmtPath;

    #[test]
    fn severity_orders_and_names() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        assert_eq!(Severity::Error.name(), "error");
    }

    #[test]
    fn display_includes_span_and_notes() {
        let d = Diagnostic::new("dead-alloc", Severity::Warning, "gemm", "never read")
            .with_path(StmtPath::top(1).child(0, 2))
            .with_note("allocated here");
        let s = d.to_string();
        assert!(s.contains("warning[dead-alloc] gemm at [1/2]"), "{s}");
        assert!(s.contains("note: allocated here"), "{s}");
    }

    #[test]
    fn render_paths_joins_spans() {
        let ps = vec![StmtPath::top(0), StmtPath::top(1).child(1, 0)];
        assert_eq!(render_paths(&ps), "[0], [1/1.0]");
    }
}
