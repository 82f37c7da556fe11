//! Concurrent trace-tree integration test: spans opened on different
//! threads must form per-thread parent chains (no cross-thread
//! adoption) and carry distinct thread ids. This is the property the
//! Chrome and flamegraph exporters rely on, and the one attribution
//! reads — a parent link crossing threads would render nonsense stacks
//! and blame the wrong operator.

use std::thread;

use exo_obs::{Registry, Span, TraceSpan};

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
                let outer = Span::enter(format!("tt.outer.{i}"));
                {
                    let mid = Span::enter(format!("tt.mid.{i}"));
                    {
                        let _leaf = Span::enter(format!("tt.leaf.{i}"));
                    }
                    drop(mid);
                }
                drop(outer);
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

        // ids are process-unique and children close before parents
        assert!(leaf.id != mid.id && mid.id != outer.id && leaf.id != outer.id);
        assert!(
            leaf.dur_us <= outer.dur_us + 1_000,
            "leaf {i} outlived its root by more than clock slack"
        );
    }
    assert_eq!(tids.len(), THREADS, "each worker should get its own tid");
}
