//! The global registry: the bounded trace ring behind one mutex.
//!
//! Each fact is stored once. The registry holds spans only: a count
//! is either part of the record that produces it (the solver's
//! `SolverStats`, the checking context's `CheckStats`, the chaos plan's
//! injection counts, a returned diagnostic list) or a field of the span
//! that brackets the work, and which operator caused the work is read
//! from the trace tree. A closed span or an instantaneous event is one
//! [`TraceSpan`] in the ring; the transcript, the JSON lines and the
//! trace exporters all read that ring.
//!
//! Instrumentation sites are hot paths (every solver query, every
//! interpreted `@instr` call), so the API is deliberately coarse: one
//! short critical section per record and a process-wide kill switch
//! ([`Registry::set_enabled`]) that reduces every call to one atomic
//! load.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::json::Json;

/// Default capacity of the trace ring buffer (closed spans and events
/// retained for export). At a few hundred bytes per record (the struct
/// plus its name and fields) this bounds trace memory at a few tens of
/// megabytes; older records are evicted first and counted in
/// [`Registry::dropped_traces`].
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// One closed span (or instantaneous event, with zero duration) in the
/// causal trace tree: the ring-buffer record every sink reads.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceSpan {
    /// Process-unique span id.
    pub id: u64,
    /// Id of the enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Dense per-thread trace id (see [`crate::span::current_tid`]).
    pub tid: u64,
    /// Dotted span name, e.g. `sched.split`.
    pub name: String,
    /// Start offset from the process trace epoch, µs.
    pub start_us: u64,
    /// Wall-clock duration, µs (0 for an event).
    pub dur_us: u64,
    /// Span-nesting depth on its thread, counting the record itself
    /// (a root span has depth 1).
    pub depth: usize,
    /// Structured payload.
    pub fields: Vec<(String, Json)>,
}

impl TraceSpan {
    /// The JSON-lines form: `{"type":"span","seq",…}` with the fields
    /// inlined. `seq` is the record's position in close order.
    fn to_json(&self, seq: u64) -> Json {
        let mut fields = vec![
            ("type".into(), Json::Str("span".into())),
            ("seq".into(), Json::uint(seq)),
            ("name".into(), Json::Str(self.name.clone())),
            ("depth".into(), Json::uint(self.depth as u64)),
            ("dur_us".into(), Json::uint(self.dur_us)),
        ];
        fields.extend(self.fields.iter().cloned());
        Json::Obj(fields)
    }
}

struct Inner {
    traces: VecDeque<TraceSpan>,
    trace_capacity: usize,
    dropped_traces: u64,
}

impl Default for Inner {
    fn default() -> Inner {
        Inner {
            traces: VecDeque::new(),
            trace_capacity: DEFAULT_TRACE_CAPACITY,
            dropped_traces: 0,
        }
    }
}

/// Thread-safe sink for trace records.
pub struct Registry {
    inner: Mutex<Inner>,
    enabled: AtomicBool,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

impl Registry {
    /// Creates an empty, enabled registry.
    pub fn new() -> Registry {
        Registry {
            inner: Mutex::new(Inner::default()),
            enabled: AtomicBool::new(true),
        }
    }

    /// The process-wide registry.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Turns recording on or off (all record calls become no-ops while
    /// disabled; reads still work).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether recording is on.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records an instantaneous event: a zero-duration leaf under the
    /// calling thread's innermost open span.
    pub fn event(&self, name: &str, fields: Vec<(String, Json)>) {
        if self.enabled() {
            self.record_trace(crate::span::instant(name, fields));
        }
    }

    /// Records one closed span (or event) into the bounded trace ring
    /// buffer, evicting the oldest record when full.
    pub fn record_trace(&self, span: TraceSpan) {
        if !self.enabled() {
            return;
        }
        let mut inner = self.lock();
        if inner.trace_capacity == 0 {
            inner.dropped_traces += 1;
            return;
        }
        while inner.traces.len() >= inner.trace_capacity {
            inner.traces.pop_front();
            inner.dropped_traces += 1;
        }
        inner.traces.push_back(span);
    }

    /// Snapshot of retained trace spans, oldest first.
    pub fn traces(&self) -> Vec<TraceSpan> {
        self.lock().traces.iter().cloned().collect()
    }

    /// Resizes the trace ring buffer (evicting oldest spans if shrinking).
    pub fn set_trace_capacity(&self, capacity: usize) {
        let mut inner = self.lock();
        inner.trace_capacity = capacity;
        while inner.traces.len() > capacity {
            inner.traces.pop_front();
            inner.dropped_traces += 1;
        }
    }

    /// Number of trace spans evicted (or refused) by the ring buffer so
    /// far — nonzero means exported traces are truncated at the front.
    pub fn dropped_traces(&self) -> u64 {
        self.lock().dropped_traces
    }

    /// Drops all recorded traces and the count of dropped ones.
    /// The trace-ring capacity survives.
    pub fn clear(&self) {
        let mut inner = self.lock();
        let capacity = inner.trace_capacity;
        *inner = Inner {
            trace_capacity: capacity,
            ..Inner::default()
        };
    }

    /// Renders a human-readable indented transcript of the retained
    /// trace records (in close order).
    pub fn transcript(&self) -> String {
        let inner = self.lock();
        let mut out = String::new();
        for t in &inner.traces {
            out.push_str(&"  ".repeat(t.depth));
            out.push_str(&t.name);
            out.push_str(&format!(" [{}]", format_us(t.dur_us)));
            for (k, v) in &t.fields {
                out.push_str(&format!(" {k}={v}"));
            }
            out.push('\n');
        }
        out
    }

    /// Exports the ring as JSON lines: one object per retained trace
    /// record.
    pub fn json_lines(&self) -> String {
        let inner = self.lock();
        let mut out = String::new();
        for (i, t) in inner.traces.iter().enumerate() {
            out.push_str(&t.to_json(inner.dropped_traces + i as u64).to_string());
            out.push('\n');
        }
        out
    }
}

/// Formats a microsecond duration for humans (`412µs`, `3.2ms`, `1.7s`).
pub fn format_us(us: u64) -> String {
    if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.1}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2}s", us as f64 / 1_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = Registry::new();
        reg.set_enabled(false);
        reg.event("e", vec![]);
        reg.record_trace(record(1));
        assert!(reg.traces().is_empty());
        assert_eq!(reg.json_lines(), "");
    }

    fn record(id: u64) -> TraceSpan {
        TraceSpan {
            id,
            parent: None,
            tid: 1,
            name: format!("s{id}"),
            start_us: id,
            dur_us: 1,
            depth: 1,
            fields: vec![("k".into(), Json::uint(id))],
        }
    }

    #[test]
    fn trace_ring_is_bounded_and_counts_drops() {
        let reg = Registry::new();
        reg.set_trace_capacity(3);
        for id in 1..=5u64 {
            reg.record_trace(record(id));
        }
        let kept: Vec<u64> = reg.traces().iter().map(|t| t.id).collect();
        assert_eq!(kept, vec![3, 4, 5]);
        assert_eq!(reg.dropped_traces(), 2);
        reg.clear();
        assert!(reg.traces().is_empty());
        // capacity survives a clear
        for id in 1..=4u64 {
            reg.record_trace(record(id));
        }
        assert_eq!(reg.traces().len(), 3);
        // sinks read the ring: `seq` continues past the evicted record
        let dump = reg.json_lines();
        let first = Json::parse(dump.lines().next().unwrap()).unwrap();
        assert_eq!(first.get("type").and_then(Json::as_str), Some("span"));
        assert_eq!(first.get("seq").and_then(Json::as_int), Some(1));
        assert_eq!(first.get("k").and_then(Json::as_int), Some(2));
        assert_eq!(reg.transcript().lines().count(), 3);
    }

    #[test]
    fn json_lines_are_individually_parseable() {
        let reg = Registry::new();
        reg.event(
            "sim.run",
            vec![
                ("cycles".into(), Json::Int(1234)),
                ("util".into(), Json::Float(0.73)),
            ],
        );
        let dump = reg.json_lines();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 1);
        for line in &lines {
            Json::parse(line).unwrap_or_else(|e| panic!("line {line:?}: {e}"));
        }
        let ev = Json::parse(lines[0]).unwrap();
        assert_eq!(ev.get("name").and_then(Json::as_str), Some("sim.run"));
        assert_eq!(ev.get("dur_us").and_then(Json::as_int), Some(0));
        assert_eq!(ev.get("cycles").and_then(Json::as_int), Some(1234));
    }
}
