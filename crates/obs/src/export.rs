//! Trace exporters: Chrome `trace_event` JSON and collapsed-stack
//! flamegraph text.
//!
//! Both consume the registry's trace ring buffer ([`TraceSpan`]s).
//!
//! * [`chrome_trace`] emits the object form of the Chrome trace-event
//!   format (`{"traceEvents":[…]}`): one complete (`"ph":"X"`) event
//!   per closed span with microsecond `ts`/`dur`, the span's thread as
//!   `tid`, and its id, parent id and fields under `args`. Load the file
//!   in `chrome://tracing` or Perfetto, which nests each span under its
//!   `sched.<op>` ancestor; that span's `target` arg names what the
//!   operator rewrote.
//! * [`collapsed_stacks`] emits one `root;child;leaf self_µs` line per
//!   distinct stack, the input format of `flamegraph.pl` /
//!   `inferno-flamegraph`. Stacks are reconstructed from parent links;
//!   self time is the span's duration minus its children's (clamped at
//!   zero — children measured on other clocks can nominally overrun
//!   their parent by a tick).
//!
//! Spans whose parent was evicted from the ring buffer (or is still
//! open at export time) are treated as stack roots; [`chrome_trace`]
//! reports the eviction count in its metadata so consumers can tell a
//! complete trace from a truncated one.

use std::path::Path;

use exo_core::hash::HashMap;

use crate::json::Json;
use crate::registry::{Registry, TraceSpan};

/// Renders spans as a Chrome `trace_event` JSON document.
pub fn chrome_trace(spans: &[TraceSpan], dropped: u64) -> Json {
    let events: Vec<Json> = spans
        .iter()
        .map(|s| {
            let mut args = vec![("span_id".to_string(), Json::uint(s.id))];
            if let Some(p) = s.parent {
                args.push(("parent_id".to_string(), Json::uint(p)));
            }
            args.extend(s.fields.iter().cloned());
            Json::obj(vec![
                ("name".into(), Json::Str(s.name.clone())),
                ("cat".into(), Json::Str(category(&s.name).into())),
                ("ph".into(), Json::Str("X".into())),
                ("ts".into(), Json::uint(s.start_us)),
                ("dur".into(), Json::uint(s.dur_us)),
                ("pid".into(), Json::Int(1)),
                ("tid".into(), Json::uint(s.tid)),
                ("args".into(), Json::Obj(args)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("traceEvents".into(), Json::Arr(events)),
        ("displayTimeUnit".into(), Json::Str("ms".into())),
        (
            "otherData".into(),
            Json::obj(vec![
                ("exporter".into(), Json::Str("exo-obs".into())),
                ("dropped_spans".into(), Json::uint(dropped)),
            ]),
        ),
    ])
}

/// The leading dotted segment of a span name (`sched.split` → `sched`),
/// used as the Chrome trace category.
fn category(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Renders spans as collapsed flamegraph stacks: one
/// `frame;frame;frame self_µs` line per distinct stack, sorted, with
/// per-line self time aggregated across occurrences.
pub fn collapsed_stacks(spans: &[TraceSpan]) -> String {
    let by_id: HashMap<u64, &TraceSpan> = spans.iter().map(|s| (s.id, s)).collect();
    // self time = duration − Σ(direct children's durations)
    let mut child_us: HashMap<u64, u64> = HashMap::default();
    for s in spans {
        if let Some(p) = s.parent {
            if by_id.contains_key(&p) {
                *child_us.entry(p).or_insert(0) += s.dur_us;
            }
        }
    }
    let mut folded: std::collections::BTreeMap<String, u64> = Default::default();
    for s in spans {
        let mut frames = vec![s.name.as_str()];
        let mut cursor = s.parent;
        while let Some(id) = cursor {
            match by_id.get(&id) {
                Some(p) => {
                    frames.push(p.name.as_str());
                    cursor = p.parent;
                }
                // evicted or still-open ancestor: the stack starts here
                None => break,
            }
        }
        frames.reverse();
        let self_us = s
            .dur_us
            .saturating_sub(child_us.get(&s.id).copied().unwrap_or(0));
        *folded.entry(frames.join(";")).or_insert(0) += self_us;
    }
    let mut out = String::new();
    for (stack, us) in folded {
        out.push_str(&format!("{stack} {us}\n"));
    }
    out
}

impl Registry {
    /// The retained trace as a Chrome `trace_event` JSON document.
    pub fn chrome_trace_json(&self) -> Json {
        chrome_trace(&self.traces(), self.dropped_traces())
    }

    /// Writes [`Registry::chrome_trace_json`] to a file.
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.chrome_trace_json().to_string())
    }

    /// The retained trace as collapsed flamegraph stacks.
    pub fn collapsed_stacks(&self) -> String {
        collapsed_stacks(&self.traces())
    }

    /// Writes [`Registry::collapsed_stacks`] to a file.
    pub fn write_collapsed_stacks(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.collapsed_stacks())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start: u64, dur: u64) -> TraceSpan {
        TraceSpan {
            id,
            parent,
            tid: 1,
            name: name.into(),
            start_us: start,
            dur_us: dur,
            depth: 1,
            fields: Vec::new(),
        }
    }

    #[test]
    fn chrome_trace_round_trips_through_the_strict_parser() {
        let mut spans = vec![
            span(1, None, "sched.split", 0, 100),
            span(2, Some(1), "smt.query", 10, 40),
        ];
        spans[0].fields = vec![("target".into(), Json::Str("for i in _: _".into()))];
        let doc = chrome_trace(&spans, 3);
        let text = doc.to_string();
        let parsed = Json::parse(&text).unwrap();
        let events = match parsed.get("traceEvents") {
            Some(Json::Arr(es)) => es,
            other => panic!("traceEvents missing: {other:?}"),
        };
        assert_eq!(events.len(), 2);
        let op_args = events[0].get("args").unwrap();
        assert_eq!(
            op_args.get("target").and_then(Json::as_str),
            Some("for i in _: _")
        );
        let e = &events[1];
        assert_eq!(e.get("name").and_then(Json::as_str), Some("smt.query"));
        assert_eq!(e.get("cat").and_then(Json::as_str), Some("smt"));
        assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(e.get("ts").and_then(Json::as_int), Some(10));
        assert_eq!(e.get("dur").and_then(Json::as_int), Some(40));
        let args = e.get("args").unwrap();
        assert_eq!(args.get("span_id").and_then(Json::as_int), Some(2));
        assert_eq!(args.get("parent_id").and_then(Json::as_int), Some(1));
        assert_eq!(
            parsed
                .get("otherData")
                .and_then(|o| o.get("dropped_spans"))
                .and_then(Json::as_int),
            Some(3)
        );
    }

    #[test]
    fn collapsed_stacks_fold_and_subtract_child_time() {
        let spans = vec![
            span(1, None, "root", 0, 100),
            span(2, Some(1), "mid", 0, 60),
            span(3, Some(2), "leaf", 0, 25),
            span(4, Some(2), "leaf", 30, 25),
            // parent 99 was evicted: becomes a root stack
            span(5, Some(99), "orphan", 0, 7),
        ];
        let text = collapsed_stacks(&spans);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            vec![
                "orphan 7",
                "root 40",          // 100 − 60
                "root;mid 10",      // 60 − 25 − 25
                "root;mid;leaf 50", // 25 + 25 aggregated
            ]
        );
    }
}
