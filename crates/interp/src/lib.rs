//! # exo-interp
//!
//! The reference interpreter for exo-rs procedures.
//!
//! Statements denote store-transforming functions (paper §4); this crate
//! makes that denotation executable. It serves two roles in the
//! reproduction:
//!
//! 1. **Correctness oracle** — scheduling transformations must preserve
//!    program equivalence; the test suite runs original and scheduled
//!    procedures on identical inputs and compares output stores.
//! 2. **Trace source** — calls to `@instr` procedures are recorded as
//!    [`trace::HwOp`] events with fully resolved tensor references; the
//!    `gemmini-sim` and `x86-sim` crates replay these traces under their
//!    timing models to reproduce the paper's Figures 4–6.
//!
//! The interpreter also doubles as a dynamic checker: out-of-bounds
//! accesses, uses of uninitialized memory, reads of unset configuration
//! state, and violated assertions all raise [`machine::InterpError`].

// Panic-free library surface: input-reachable failures must be typed
// errors, not aborts. Unit tests may unwrap freely.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod lower;
pub mod machine;
pub mod trace;
pub mod value;

pub use machine::{ArgVal, InterpError, Machine};
pub use trace::{Axes, HwOp, Instr, TensorRef, Trace, TraceArg, TraceArgs};
pub use value::{BufId, CtrlVal};
