//! # exo-obs
//!
//! Std-only structured observability for the exo-rs pipeline (no
//! external crates; the one workspace dependency is `exo-core`, for its
//! fixed hasher).
//!
//! The whole premise of exocompilation is that *users* drive
//! optimization, which means users must be able to see what the system
//! did on their behalf: which rewrite fired, what it checked, how many
//! solver queries it cost, what the simulator measured — and *which
//! scheduling operator caused each of those costs*. This crate is the
//! measurement substrate threaded through every other crate:
//!
//! * [`span::Span`] — RAII wall-clock spans forming a causal trace
//!   tree: process-unique id, parent link, thread id, recorded into a
//!   bounded ring buffer on the registry. Attribution is ancestry: every
//!   solver, analysis and lint span an operator causes descends from its
//!   `sched.<op>` span, which carries the operator's `target`;
//! * [`registry::Registry`] — a thread-safe global sink: the bounded
//!   trace ring that holds every closed span and event;
//! * [`json::Json`] — a hand-rolled JSON value (the sandbox has no
//!   crates.io access, so serialization is std-only) with a strict
//!   parser used to validate exported lines.
//!
//! Schedule provenance is not kept here: the transcript of applied
//! rewrites lives in `exo_sched::provenance`, and a rejected rewrite's
//! verdict and reason are fields of its `sched.<op>` span.
//!
//! Each fact is recorded once, by one writer, and the registry keeps
//! spans only. A count lives in the record that produces it — solver,
//! verdict-cache and chaos-injection counts in
//! `exo_smt::solver::SolverStats`, `exo_analysis::CheckStats` and
//! `exo_chaos::injection_counts`, which stay readable with the registry
//! switched off; an interpreter's `@instr` calls in its trace; a lint's
//! findings in its returned diagnostics — or in a field of the span
//! that brackets the work (`analysis.check_bounds` carries its
//! `obligations` and `errors`). The sinks are views over the ring:
//! [`registry::Registry::transcript`] renders a human-readable indented
//! log; [`registry::Registry::json_lines`] exports everything as
//! machine-readable JSON lines (one object per line), the format the
//! `BENCH_*.json` trajectory files use; [`export`] renders the trace
//! ring as Chrome `trace_event` JSON (`chrome://tracing`/Perfetto) or
//! collapsed flamegraph stacks.

// Panic-free library surface: input-reachable failures must be typed
// errors, not aborts. Unit tests may unwrap freely.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod export;
pub mod json;
pub mod registry;
pub mod span;

pub use json::Json;
pub use registry::{Registry, TraceSpan};
pub use span::Span;

/// Records an instantaneous structured event: a zero-duration record in
/// the global trace ring.
pub fn event(name: &str, fields: Vec<(String, Json)>) {
    Registry::global().event(name, fields);
}
