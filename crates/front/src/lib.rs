//! # exo-front
//!
//! The textual front-end for exo-rs: a lexer and recursive-descent
//! parser for the paper's surface syntax (`@proc` / `@instr`, `seq`
//! loops, dependent tensor types, windows, `@`-memory annotations,
//! configuration reads/writes). The original Exo is embedded in Python;
//! exo-rs offers both a Rust builder API (`exo_core::build`) and this
//! text syntax, which round-trips with `exo_core::printer`. The hardware
//! libraries (`exo-hwlibs`) and the examples are written in it.

// Panic-free library surface: input-reachable failures must be typed
// errors, not aborts. Unit tests may unwrap freely.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod lex;
pub mod parse;

pub use parse::{parse_library, parse_proc, ParseEnv, ParseError};
