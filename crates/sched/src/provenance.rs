//! Schedule provenance: one record per applied scheduling rewrite.
//!
//! [`crate::Procedure`] extends its transcript with a [`ProvenanceEvent`]
//! for every operator applied to it — the ordered story of how a naive
//! kernel became the scheduled one, with each step's cost. Only applied
//! rewrites are recorded: a rejected one leaves the procedure untouched,
//! so its verdict and reason live only on its `sched.<op>` span.
//!
//! A transcript is a persistent chain: a derived handle points at its
//! source's chain plus its own event, so deriving copies nothing and
//! every handle along a schedule shares the events it was built from.
//!
//! [`render_transcript`] folds a per-operator cost table under the
//! per-rewrite listing: for each operator, how many rewrites, how many
//! checking-context queries they caused, the cache hit ratio, the wall
//! time, and the net statement delta — the attribution view of "what
//! did my schedule cost".

use std::collections::BTreeMap;
use std::sync::Arc;

use exo_obs::registry::format_us;

/// One applied scheduling rewrite.
#[derive(Clone, Debug, PartialEq)]
pub struct ProvenanceEvent {
    /// Operator name (`split`, `reorder`, `stage_mem`, …).
    pub op: &'static str,
    /// The operator's target pattern / argument summary.
    pub target: String,
    /// Statement count before the rewrite.
    pub pre_stmts: usize,
    /// Statement count after the rewrite.
    pub post_stmts: usize,
    /// Checking-context queries issued while the operator ran
    /// (including canonical-cache hits).
    pub queries: usize,
    /// How many of those queries the canonical verdict cache answered.
    pub cache_hits: usize,
    /// Wall-clock duration of the operator.
    pub duration_us: u64,
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

/// One row of the per-operator cost table: the aggregate cost of every
/// rewrite sharing an operator name.
#[derive(Debug)]
struct OpCost {
    op: &'static str,
    count: usize,
    /// Checking-context queries caused (incl. cache hits).
    queries: usize,
    /// Queries answered by the canonical verdict cache.
    cache_hits: usize,
    wall_us: u64,
    /// Net statement delta (post − pre summed over rewrites).
    stmt_delta: i64,
}

impl OpCost {
    /// Cache hit ratio (0 when no queries ran).
    fn hit_ratio(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.queries as f64
        }
    }
}

/// Aggregates provenance events into the per-operator cost table,
/// sorted by descending query count (the "who caused these queries"
/// ordering), ties broken by name.
fn per_op_costs(events: &[&ProvenanceEvent]) -> Vec<OpCost> {
    let mut costs: BTreeMap<&str, OpCost> = BTreeMap::new();
    for e in events {
        let row = costs.entry(e.op).or_insert_with(|| OpCost {
            op: e.op,
            count: 0,
            queries: 0,
            cache_hits: 0,
            wall_us: 0,
            stmt_delta: 0,
        });
        row.count += 1;
        row.queries += e.queries;
        row.cache_hits += e.cache_hits;
        row.wall_us += e.duration_us;
        row.stmt_delta += e.post_stmts as i64 - e.pre_stmts as i64;
    }
    let mut rows: Vec<OpCost> = costs.into_values().collect();
    rows.sort_by(|a, b| b.queries.cmp(&a.queries).then(a.op.cmp(b.op)));
    rows
}

/// Renders a human-readable schedule transcript: one numbered line per
/// rewrite (the `proc.transcript_text()` view), then the per-operator
/// cost table.
pub(crate) fn render_transcript(proc_name: &str, events: &[&ProvenanceEvent]) -> String {
    let total_us: u64 = events.iter().map(|e| e.duration_us).sum();
    let total_q: usize = events.iter().map(|e| e.queries).sum();
    let mut out = format!(
        "schedule transcript for `{proc_name}` ({} directive{}, {} check{}, {})\n",
        events.len(),
        if events.len() == 1 { "" } else { "s" },
        total_q,
        if total_q == 1 { "" } else { "s" },
        format_us(total_us),
    );
    let width = events.len().to_string().len();
    for (i, e) in events.iter().enumerate() {
        out.push_str(&format!(
            "  {:>width$}. {}({}) accepted [stmts {}→{}, checks {}, {}]\n",
            i + 1,
            e.op,
            e.target,
            e.pre_stmts,
            e.post_stmts,
            e.queries,
            format_us(e.duration_us),
        ));
    }
    let costs = per_op_costs(events);
    if !costs.is_empty() {
        out.push_str("per-operator cost:\n");
        out.push_str(&format!(
            "  {:<16} {:>3} {:>8} {:>6} {:>5} {:>9} {:>7}\n",
            "op", "n", "queries", "hits", "hit%", "wall", "Δstmts"
        ));
        for c in &costs {
            out.push_str(&format!(
                "  {:<16} {:>3} {:>8} {:>6} {:>4.0}% {:>9} {:>+7}\n",
                c.op,
                c.count,
                c.queries,
                c.cache_hits,
                c.hit_ratio() * 100.0,
                format_us(c.wall_us),
                c.stmt_delta,
            ));
        }
        let hits: usize = costs.iter().map(|c| c.cache_hits).sum();
        out.push_str(&format!(
            "  {:<16} {:>3} {:>8} {:>6} {:>4.0}% {:>9} {:>+7}\n",
            "total",
            events.len(),
            total_q,
            hits,
            if total_q == 0 {
                0.0
            } else {
                hits as f64 / total_q as f64 * 100.0
            },
            format_us(total_us),
            costs.iter().map(|c| c.stmt_delta).sum::<i64>(),
        ));
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
            pre_stmts: 3,
            post_stmts: 5,
            queries: 2,
            cache_hits: 1,
            duration_us: 1500,
        }
    }

    #[test]
    fn transcript_renders_each_rewrite_in_order() {
        let text = render_transcript("gemm", &[&ev("split"), &ev("reorder")]);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("`gemm`") && lines[0].contains("2 directives"));
        assert!(lines[0].contains("4 checks") && lines[0].contains("3.0ms"));
        assert!(lines[1]
            .trim_start()
            .starts_with("1. split(for i in _: _) accepted"));
        assert!(lines[2].trim_start().starts_with("2. reorder("));
        assert!(lines[1].contains("stmts 3→5"));
    }

    #[test]
    fn transcript_folds_a_per_operator_cost_table() {
        let text = render_transcript("gemm", &[&ev("split"), &ev("split"), &ev("reorder")]);
        assert!(text.contains("per-operator cost:"), "{text}");
        let split_row = text
            .lines()
            .find(|l| l.trim_start().starts_with("split"))
            .unwrap();
        // 2 rewrites, 4 queries, 2 hits, 50%, +4 statements
        assert!(split_row.contains(" 2 "), "{split_row}");
        assert!(split_row.contains(" 4 "), "{split_row}");
        assert!(split_row.contains("50%"), "{split_row}");
        assert!(split_row.contains("+4"), "{split_row}");
        let total_row = text.lines().last().unwrap();
        assert!(total_row.trim_start().starts_with("total"), "{total_row}");
        assert!(total_row.contains(" 6 "), "{total_row}");
    }

    #[test]
    fn per_op_costs_sort_by_query_count() {
        let mut cheap = ev("cheap");
        cheap.queries = 0;
        cheap.cache_hits = 0;
        let rows = per_op_costs(&[&cheap, &ev("split"), &ev("split")]);
        assert_eq!(rows[0].op, "split");
        assert_eq!(rows[0].queries, 4);
        assert_eq!(rows[1].op, "cheap");
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
