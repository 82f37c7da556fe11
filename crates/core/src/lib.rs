//! # exo-core
//!
//! The core intermediate representation of **exo-rs**, a Rust
//! reproduction of the Exo language from *Exocompilation for Productive
//! Programming of Hardware Accelerators* (PLDI 2022).
//!
//! Exo is an imperative language in the static-control-program mold:
//! `for` loops and `if` guards over quasi-affine control expressions,
//! dependently-sized tensors with windowing, explicit `+=` reduction, and
//! mutable global *configuration state* modeling accelerator registers.
//! This crate defines:
//!
//! * [`sym`] — interned, globally unique symbols;
//! * [`types`] — data precisions, control types, memory names;
//! * [`ir`] — expressions, statements, procedures, `@instr` templates and
//!   `@config` declarations (paper Fig. 3 plus the §2/§3 extensions);
//! * [`build`] — a builder API playing the role of the Python embedding;
//! * [`check`] — front-end structural checks (scoping, control/data
//!   separation, quasi-affinity);
//! * [`path`] — stable statement addresses used by scheduling rewrites;
//! * [`visit`] — traversal, substitution, renaming, alpha-equivalence;
//! * [`printer`] — pretty-printing in the paper's surface syntax;
//! * [`budget`] — shared fuel/wall-clock [`ResourceBudget`] limits;
//! * [`hash`] — the one hasher every library map uses ([`hash::HashMap`],
//!   [`hash::HashSet`]).
//!
//! Scheduling rewrites live in `exo-sched`, safety analyses in
//! `exo-analysis`, code generation in `exo-codegen`.
//!
//! # Examples
//!
//! ```
//! use exo_core::build::{read, ProcBuilder};
//! use exo_core::ir::Expr;
//! use exo_core::types::DataType;
//!
//! // The 128×128×128 GEMM from paper §2.1.
//! let mut b = ProcBuilder::new("gemm");
//! let a = b.tensor("A", DataType::F32, vec![Expr::int(128), Expr::int(128)]);
//! let bb = b.tensor("B", DataType::F32, vec![Expr::int(128), Expr::int(128)]);
//! let c = b.tensor("C", DataType::F32, vec![Expr::int(128), Expr::int(128)]);
//! let i = b.begin_for("i", Expr::int(0), Expr::int(128));
//! let j = b.begin_for("j", Expr::int(0), Expr::int(128));
//! let k = b.begin_for("k", Expr::int(0), Expr::int(128));
//! b.reduce(
//!     c,
//!     vec![Expr::var(i), Expr::var(j)],
//!     read(a, vec![Expr::var(i), Expr::var(k)])
//!         .mul(read(bb, vec![Expr::var(k), Expr::var(j)])),
//! );
//! b.end_for().end_for().end_for();
//! let gemm = b.finish();
//! exo_core::check::check_proc(&gemm)?;
//! # Ok::<(), exo_core::check::TypeError>(())
//! ```

// Panic-free library surface: input-reachable failures must be typed
// errors, not aborts. Unit tests may unwrap freely.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod budget;
pub mod build;
pub mod check;
pub mod diag;
pub mod hash;
pub mod ir;
pub mod path;
pub mod printer;
pub mod sym;
pub mod types;
pub mod visit;

pub use budget::{BudgetError, Resource, ResourceBudget};
pub use diag::{Diagnostic, Severity};
pub use ir::{
    ArgType, BinOp, Block, ConfigDecl, ConfigField, Expr, FnArg, InstrTemplate, Lit, Proc, Stmt,
    WAccess,
};
pub use sym::Sym;
pub use types::{CtrlType, DataType, MemName};
