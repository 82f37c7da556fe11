//! Schedule provenance: one record per applied scheduling rewrite.
//!
//! [`crate::Procedure`] extends its transcript with a [`ProvenanceEvent`]
//! for every operator applied to it — the ordered story of how a naive
//! kernel became the scheduled one. The transcript records only the
//! schedule: each rewrite's operator and target. What a call cost (its
//! time, its checking-context queries and cache hits) and, for a
//! rejected call, its verdict and reason are fields of its `sched.<op>`
//! span; a rejected rewrite leaves the procedure, and so its transcript,
//! untouched.
//!
//! A transcript is a persistent chain: a derived handle points at its
//! source's chain plus its own event, so deriving copies nothing and
//! every handle along a schedule shares the events it was built from.

use std::sync::Arc;

/// One applied scheduling rewrite.
#[derive(Clone, Debug, PartialEq)]
pub struct ProvenanceEvent {
    /// Operator name (`split`, `reorder`, `stage_mem`, …).
    pub op: &'static str,
    /// The operator's arguments, rendered (the `sched.<op>` span's
    /// `target` field).
    pub target: String,
}

/// The events applied since a schedule's root, newest first, each link
/// shared by every handle derived after it.
#[derive(Clone, Debug, Default)]
pub(crate) struct Transcript(Option<Arc<Link>>);

#[derive(Debug)]
struct Link {
    event: ProvenanceEvent,
    prev: Transcript,
}

impl Transcript {
    /// Appends one event; the events before it are shared, not copied.
    pub(crate) fn push(&mut self, event: ProvenanceEvent) {
        let prev = std::mem::take(self);
        self.0 = Some(Arc::new(Link { event, prev }));
    }

    /// The events in application order.
    pub(crate) fn events(&self) -> Vec<&ProvenanceEvent> {
        let mut events = Vec::new();
        let mut cursor = &self.0;
        while let Some(link) = cursor {
            events.push(&link.event);
            cursor = &link.prev.0;
        }
        events.reverse();
        events
    }
}

impl Drop for Link {
    /// Unlinks the chain iteratively, so dropping the last handle of a
    /// long schedule does not recurse once per event.
    fn drop(&mut self) {
        let mut next = self.prev.0.take();
        while let Some(link) = next {
            next = Arc::try_unwrap(link)
                .ok()
                .and_then(|mut link| link.prev.0.take());
        }
    }
}

/// Renders a human-readable schedule transcript: a header, then one
/// numbered `op(target)` line per rewrite.
pub(crate) fn render_transcript(proc_name: &str, events: &[&ProvenanceEvent]) -> String {
    let mut out = format!(
        "schedule transcript for `{proc_name}` ({} directive{})\n",
        events.len(),
        if events.len() == 1 { "" } else { "s" },
    );
    let width = events.len().to_string().len();
    for (i, e) in events.iter().enumerate() {
        out.push_str(&format!("  {:>width$}. {}({})\n", i + 1, e.op, e.target));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(op: &'static str) -> ProvenanceEvent {
        ProvenanceEvent {
            op,
            target: "for i in _: _".into(),
        }
    }

    #[test]
    fn transcript_renders_each_rewrite_in_order() {
        let text = render_transcript("gemm", &[&ev("split"), &ev("reorder")]);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            [
                "schedule transcript for `gemm` (2 directives)",
                "  1. split(for i in _: _)",
                "  2. reorder(for i in _: _)",
            ]
        );
    }

    #[test]
    fn a_long_chain_drops_without_deep_recursion() {
        let mut t = Transcript::default();
        for _ in 0..100_000 {
            t.push(ev("split"));
        }
        drop(t);
    }
}
