//! # exo — exocompilation for hardware accelerators, in Rust
//!
//! A from-scratch reproduction of *Exocompilation for Productive
//! Programming of Hardware Accelerators* (Ikarashi, Bernstein, Reinking,
//! Genc, Ragan-Kelley — PLDI 2022).
//!
//! Exocompilation externalizes hardware-specific code generation and
//! optimization policy from the compiler into user libraries: custom
//! memories, instructions (`@instr`), and configuration state are
//! defined in library code ([`hwlibs`]), and optimization happens by
//! *user scheduling* — composable, safety-checked rewrites
//! ([`sched`]) verified by effect analyses ([`analysis`]) over a
//! Presburger solver ([`smt`]).
//!
//! ```
//! use exo::prelude::*;
//!
//! // the paper's §2 GEMM, in surface syntax
//! let src = r#"
//! @proc
//! def gemm(n: size, A: f32[n, n], B: f32[n, n], C: f32[n, n]):
//!     for i in seq(0, n):
//!         for j in seq(0, n):
//!             for k in seq(0, n):
//!                 C[i, j] += A[i, k] * B[k, j]
//! "#;
//! let gemm = exo::front::parse_proc(src, &exo::front::ParseEnv::new())?;
//!
//! // schedule: tile the i and j loops 4×4 (guarded, so any n works)
//! let p = Procedure::new(gemm)
//!     .split_guard("for i in _: _", 4, "io", "ii")?
//!     .split_guard("for j in _: _", 4, "jo", "ji")?;
//!
//! // compile to C
//! let c = exo::codegen::compile_c(&[p.proc().clone()], &Default::default())?;
//! assert!(c.contains("void gemm("));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The crates:
//!
//! * [`core`] — IR, builder, checks, printer
//! * [`front`] — text syntax parser
//! * [`smt`] — Presburger solver
//! * [`analysis`] — effects, location sets, safety conditions
//! * [`sched`] — the scheduling operators (paper Fig. 2)
//! * [`codegen`] — C emission with user memories/instructions
//! * [`interp`] — reference interpreter + instruction traces
//! * [`hwlibs`] — Gemmini and AVX-512 as user libraries
//! * [`gemmini_sim`] / [`x86_sim`] — the evaluation substrates
//! * [`kernels`] — the §7 case studies
//! * [`chaos`] — seeded fault injection for robustness testing
//! * [`obs`] — tracing, metrics, schedule provenance
//! * [`lint`] — loop-dependence classifier + whole-program lint rules

pub use exo_analysis as analysis;
pub use exo_chaos as chaos;
pub use exo_codegen as codegen;
pub use exo_core as core;
pub use exo_front as front;
pub use exo_hwlibs as hwlibs;
pub use exo_interp as interp;
pub use exo_kernels as kernels;
pub use exo_lint as lint;
pub use exo_obs as obs;
pub use exo_sched as sched;
pub use exo_smt as smt;
pub use gemmini_sim;
pub use x86_sim;

/// The common imports for working with exo-rs.
pub mod prelude {
    pub use exo_core::build::{read, read0, ProcBuilder};
    pub use exo_core::ir::{Expr, Proc, Stmt};
    pub use exo_core::types::{CtrlType, DataType, MemName};
    pub use exo_core::Sym;
    pub use exo_interp::{ArgVal, Machine};
    pub use exo_sched::{Procedure, SchedError};
}
