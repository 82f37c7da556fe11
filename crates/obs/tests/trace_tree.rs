//! Concurrent trace-tree integration test: spans opened on different
//! threads must form per-thread parent chains (no cross-thread
//! adoption), carry distinct thread ids, and record the attribution
//! context active at `enter` time. This is the property the Chrome and
//! flamegraph exporters rely on — a parent link crossing threads would
//! render nonsense stacks. The same workers bump counters under nested,
//! fallback and missing attribution contexts: every bump is one record
//! filed under the innermost operator, and a counter's total is the sum
//! of its per-operator rows.

use std::thread;

use exo_obs::attr::UNATTRIBUTED;
use exo_obs::{AttrGuard, Registry, Span, TraceSpan};

const THREADS: usize = 8;

fn span_named<'a>(traces: &'a [TraceSpan], name: &str) -> &'a TraceSpan {
    let hits: Vec<&TraceSpan> = traces.iter().filter(|t| t.name == name).collect();
    assert_eq!(hits.len(), 1, "expected exactly one span named {name}");
    hits[0]
}

#[test]
fn concurrent_span_nesting_keeps_parent_links_within_threads() {
    let handles: Vec<_> = (0..THREADS)
        .map(|i| {
            thread::spawn(move || {
                let attr = AttrGuard::enter("tt_op", format!("worker-{i}"));
                let outer = Span::enter(format!("tt.outer.{i}"));
                {
                    let mid = Span::enter(format!("tt.mid.{i}"));
                    {
                        let _leaf = Span::enter(format!("tt.leaf.{i}"));
                        exo_obs::counter_add("tt.work", 1);
                        // nested operator: the innermost frame wins
                        let _inner = AttrGuard::enter("tt_inner", "nested");
                        exo_obs::counter_add("tt.work", 10);
                        // a fallback under an active operator is inert
                        let _lint = AttrGuard::fallback("tt_lint", "rule");
                        exo_obs::counter_add("tt.work", 100);
                    }
                    drop(mid);
                }
                drop(outer);
                drop(attr);
                // no context: unattributed, and a fallback claims it
                exo_obs::counter_add("tt.work", 1_000);
                let _lint = AttrGuard::fallback("tt_lint", "rule");
                exo_obs::counter_add("tt.work", 10_000);
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker thread panicked");
    }

    let traces = Registry::global().traces();
    let mut tids = std::collections::BTreeSet::new();
    for i in 0..THREADS {
        let outer = span_named(&traces, &format!("tt.outer.{i}"));
        let mid = span_named(&traces, &format!("tt.mid.{i}"));
        let leaf = span_named(&traces, &format!("tt.leaf.{i}"));

        // parent chain: leaf → mid → outer → (root), entirely intra-thread
        assert_eq!(
            leaf.parent,
            Some(mid.id),
            "leaf {i} adopted a foreign parent"
        );
        assert_eq!(
            mid.parent,
            Some(outer.id),
            "mid {i} adopted a foreign parent"
        );
        assert_eq!(outer.parent, None, "outer {i} should be a root");
        assert_eq!(leaf.tid, mid.tid);
        assert_eq!(mid.tid, outer.tid);
        tids.insert(outer.tid);

        // spans carry the attribution context of their thread
        let (op, target) = leaf.op.clone().expect("leaf has attribution");
        assert_eq!(op, "tt_op");
        assert_eq!(target, format!("worker-{i}"));

        // ids are process-unique and children close before parents
        assert!(leaf.id != mid.id && mid.id != outer.id && leaf.id != outer.id);
        assert!(
            leaf.dur_us <= outer.dur_us + 1_000,
            "leaf {i} outlived its root by more than clock slack"
        );
    }
    assert_eq!(tids.len(), THREADS, "each worker should get its own tid");

    // one record per bump, filed under the innermost operator; the
    // total is the sum of the rows even when bumped from many threads
    let reg = Registry::global();
    let n = THREADS as u64;
    let by_op = reg.counter_by_op("tt.work");
    assert_eq!(
        by_op,
        vec![
            ("tt_inner", 110 * n),
            ("tt_lint", 10_000 * n),
            ("tt_op", n),
            (UNATTRIBUTED, 1_000 * n),
        ]
    );
    let total: u64 = by_op.iter().map(|&(_, v)| v).sum();
    assert_eq!(reg.counter("tt.work"), total);
    assert_eq!(exo_obs::counter_get("tt.work"), 11_111 * n);
}
