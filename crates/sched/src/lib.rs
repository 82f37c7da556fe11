//! # exo-sched
//!
//! User scheduling via composable rewrites (paper §3.3–3.4, Fig. 2).
//!
//! A [`Procedure`] wraps an IR procedure together with its provenance
//! (root, polluted configuration fields, the transcript of applied
//! rewrites in [`provenance`]) and shared scheduling state (the checking
//! context). Every operator —
//! `split`, `reorder`, `unroll`, `inline`, `replace`, `stage_mem`,
//! `configwrite_at`, … — is an independent rewrite returning a new
//! `Procedure`; correctness of each is checked in isolation against the
//! effect analyses of `exo-analysis`, which is what makes the scheduling
//! language easy to extend.
//!
//! Operators locate code with textual [`Pattern`]s and accept
//! `impl Into<Pattern>`, so plain string literals work:
//! `p.split("for i in _: _", 4, "io", "ii")`. Safety obligations are
//! discharged through the state's [`exo_analysis::SharedCheckCtx`]. A
//! default state owns a fresh context; schedules that share one state
//! share its verdicts, so obligations proved while scheduling one kernel
//! are cache hits on the next (a context with the cache off comes from
//! `SharedCheckCtx::with_cache`).
//!
//! Operators that pollute configuration state (e.g.
//! [`Procedure::configwrite_at`]) record the polluted fields in the
//! provenance, and the context-extension rule (§6.2) is used to confirm
//! that the rest of the procedure never observes the difference.

// Panic-free library surface: input-reachable failures must be typed
// errors, not aborts. Unit tests may unwrap freely.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod fold;
pub mod handle;
pub mod ops_calls;
pub mod ops_config;
pub mod ops_data;
pub mod ops_loops;
pub mod ops_parallel;
pub mod pattern;
pub mod provenance;
pub mod unify;

pub use exo_analysis::SharedCheckCtx;
pub use exo_lint::LoopVerdict;
pub use handle::{ParallelMark, Procedure, SchedError, SchedState, StateRef};
pub use ops_config::Position;
pub use pattern::{ParsedPattern, Pattern, PatternError, StmtPattern};
pub use provenance::ProvenanceEvent;
