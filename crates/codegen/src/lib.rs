//! # exo-codegen
//!
//! The C backend of exo-rs (paper §3.1.2, §3.2).
//!
//! Exocompilation means the compiler ships *no* hardware-specific
//! backend: users define [`mem::Memory`]s (custom allocation and
//! addressability), `@instr` templates (expanded verbatim at call
//! sites), and `@config` structs, all in libraries. This crate turns a
//! set of procedures plus those definitions into a self-contained,
//! human-readable C translation unit.
//!
//! Backend checks run immediately before emission: every buffer must
//! have a concrete precision (no abstract `R`), arithmetic must be
//! precision-consistent (casts are inserted only at stores), and
//! non-addressable memories may only be touched through instructions.

// Panic-free library surface: input-reachable failures must be typed
// errors, not aborts. Unit tests may unwrap freely.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod emit;
pub mod mem;

pub use emit::{compile_c, CodegenCtx, CodegenError};
pub use mem::{Memory, MemorySet};
