//! The registry keeps a bounded amount of trace data however long the
//! process runs: every closed span is one record in the trace ring, and
//! the transcript and JSON-lines sinks read that ring rather than a
//! second, unbounded log. This binary has its own global registry, so
//! the capacity change cannot disturb other tests.

use exo_obs::{Json, Registry, Span};

const CAPACITY: usize = 100;
const SPANS: u64 = 10_000;

#[test]
fn span_store_stays_bounded_with_fields() {
    let reg = Registry::global();
    reg.set_trace_capacity(CAPACITY);
    for i in 0..SPANS {
        let _span = Span::enter("bounded.span")
            .with_field("i", Json::uint(i))
            .with_field("payload", Json::Str("x".repeat(64)));
    }

    let traces = reg.traces();
    assert!(
        traces.len() <= CAPACITY,
        "{} records retained",
        traces.len()
    );
    assert_eq!(reg.dropped_traces(), SPANS - CAPACITY as u64);

    let json = reg.json_lines();
    let span_lines: Vec<&str> = json
        .lines()
        .filter(|l| l.contains("\"bounded.span\""))
        .collect();
    assert!(
        span_lines.len() <= CAPACITY,
        "{} JSON span lines",
        span_lines.len()
    );
    // the newest record survives with its fields
    let last = Json::parse(span_lines.last().expect("spans exported")).expect("valid JSON");
    assert_eq!(last.get("i").and_then(Json::as_int), Some(SPANS as i64 - 1));
    let transcript_lines = reg
        .transcript()
        .lines()
        .filter(|l| l.trim_start().starts_with("bounded.span"))
        .count();
    assert!(
        transcript_lines <= CAPACITY,
        "{transcript_lines} transcript span lines"
    );
}
