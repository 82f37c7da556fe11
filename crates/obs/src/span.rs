//! RAII wall-clock spans forming a causal trace tree.
//!
//! `Span::enter("sched.split")` assigns the span a process-unique id,
//! links it to the calling thread's innermost open span (its *parent*),
//! and bumps the thread's depth; when the guard drops, the span is
//! recorded once, as a [`TraceSpan`] in the global registry's bounded
//! trace ring — id, parent id, thread id, depth, start offset,
//! duration and fields. The parent links are the attribution: the
//! operator that caused a span is its nearest `sched.<op>` ancestor,
//! whose `target` field names what the operator rewrote.
//! Instantaneous events ([`crate::event`]) are zero-duration records in
//! the same ring. The transcript, the JSON lines, and the Chrome-trace
//! and flamegraph exporters (see [`crate::export`]) all read it.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::json::Json;
use crate::registry::{Registry, TraceSpan};

thread_local! {
    /// Ids of the calling thread's open spans, outermost first. The
    /// length is the nesting depth; the last element is the parent of
    /// the next span to open.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// Small dense per-thread id (Chrome's `tid`); `ThreadId` has no
    /// stable integer form, so we mint our own.
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// The process trace epoch: all span start offsets are measured from
/// the first call (so traces from one process share one timeline).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the trace epoch.
fn now_us() -> u64 {
    u64::try_from(epoch().elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// The calling thread's current span-nesting depth.
pub fn current_depth() -> usize {
    OPEN.with(|o| o.borrow().len())
}

/// The calling thread's dense trace thread id.
pub fn current_tid() -> u64 {
    TID.with(|t| *t)
}

/// An open span; records itself (name, fields, duration, trace links)
/// when dropped.
#[derive(Debug)]
pub struct Span {
    id: u64,
    parent: Option<u64>,
    tid: u64,
    name: String,
    fields: Vec<(String, Json)>,
    start_us: u64,
    start: Instant,
}

impl Span {
    /// Opens a span: assigns it a fresh id, parents it under the
    /// thread's innermost open span, and increases the nesting depth.
    pub fn enter(name: impl Into<String>) -> Span {
        let start_us = now_us();
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|o| {
            let mut o = o.borrow_mut();
            let parent = o.last().copied();
            o.push(id);
            parent
        });
        Span {
            id,
            parent,
            tid: current_tid(),
            name: name.into(),
            fields: Vec::new(),
            start_us,
            start: Instant::now(),
        }
    }

    /// The span's process-unique id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The id of the enclosing span on this thread, if any.
    pub fn parent_id(&self) -> Option<u64> {
        self.parent
    }

    /// Attaches a structured field, builder-style.
    pub fn with_field(mut self, key: impl Into<String>, value: Json) -> Span {
        self.fields.push((key.into(), value));
        self
    }

    /// Attaches a structured field to an open span.
    pub fn field(&mut self, key: impl Into<String>, value: Json) {
        self.fields.push((key.into(), value));
    }

    /// Elapsed time since the span opened.
    pub fn elapsed_us(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        // record at the depth *inside* the span, then pop
        Registry::global().record_trace(TraceSpan {
            id: self.id,
            parent: self.parent,
            tid: self.tid,
            name: std::mem::take(&mut self.name),
            start_us: self.start_us,
            dur_us: self.elapsed_us(),
            depth: current_depth(),
            fields: std::mem::take(&mut self.fields),
        });
        OPEN.with(|o| {
            let mut o = o.borrow_mut();
            // Spans are scope-bound in practice; tolerate out-of-order
            // drops by removing this id wherever it sits.
            if o.last() == Some(&self.id) {
                o.pop();
            } else {
                o.retain(|&x| x != self.id);
            }
        });
    }
}

/// An instantaneous event: a zero-duration leaf record under the
/// calling thread's innermost open span.
pub(crate) fn instant(name: &str, fields: Vec<(String, Json)>) -> TraceSpan {
    TraceSpan {
        id: NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed),
        parent: OPEN.with(|o| o.borrow().last().copied()),
        tid: current_tid(),
        name: name.to_string(),
        start_us: now_us(),
        dur_us: 0,
        depth: current_depth() + 1,
        fields,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_record_depth() {
        // No `clear()`: the global registry is shared with concurrently
        // running tests; filtering by this test's unique name prefix is
        // isolation enough.
        let reg = Registry::global();
        {
            let _outer = Span::enter("test_span.outer");
            {
                let _inner = Span::enter("test_span.inner").with_field("k", Json::Str("v".into()));
            }
            crate::event("test_span.note", vec![]);
        }
        let records: Vec<_> = reg
            .traces()
            .into_iter()
            .filter(|t| t.name.starts_with("test_span."))
            .collect();
        assert_eq!(records.len(), 3, "{records:?}");
        // inner closes first, at depth 2; the note is a zero-duration
        // child of outer, also at depth 2; outer closes last at depth 1
        let (inner, note, outer) = (&records[0], &records[1], &records[2]);
        assert_eq!(inner.name, "test_span.inner");
        assert_eq!(inner.depth, 2);
        assert_eq!(inner.fields, vec![("k".to_string(), Json::Str("v".into()))]);
        assert_eq!(note.name, "test_span.note");
        assert_eq!(note.depth, 2);
        assert_eq!(note.dur_us, 0);
        assert_eq!(note.parent, Some(outer.id));
        assert_eq!(outer.name, "test_span.outer");
        assert_eq!(outer.depth, 1);
        assert_eq!(current_depth(), 0);
    }

    #[test]
    fn trace_records_carry_parent_links() {
        let reg = Registry::global();
        let outer = Span::enter("trace_span.outer");
        let outer_id = outer.id();
        let inner = Span::enter("trace_span.inner");
        let inner_id = inner.id();
        assert_eq!(inner.parent_id(), Some(outer_id));
        drop(inner);
        drop(outer);
        let traces = reg.traces();
        let outer = traces.iter().find(|t| t.id == outer_id).unwrap();
        let inner = traces.iter().find(|t| t.id == inner_id).unwrap();
        assert_eq!(inner.parent, Some(outer_id));
        assert_eq!(inner.tid, outer.tid);
        assert!(inner.start_us >= outer.start_us);
    }
}
