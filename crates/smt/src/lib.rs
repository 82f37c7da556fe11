//! # exo-smt
//!
//! The decision procedure behind exo-rs's safety analyses: a
//! from-scratch solver for **Presburger arithmetic** (linear integer
//! arithmetic with divisibility), standing in for the Z3 solver used by
//! the original Exo implementation.
//!
//! * [`linear`] — canonical linear expressions over ℤ;
//! * [`formula`] — first-order formulas with quantifiers;
//! * [`qe`] — Cooper-style quantifier elimination;
//! * [`solver`] — validity/satisfiability checking with a work
//!   limit that fails safe ([`solver::Answer::Unknown`]);
//! * [`canon`] — alpha-normalization of formulas onto a stable symbol
//!   pool, the key function behind the cross-rewrite verdict cache in
//!   `exo-analysis`.
//!
//! Exo's quasi-affine restriction on control expressions (paper §3.1)
//! guarantees that every safety condition the analyses generate lands in
//! exactly this decidable fragment. The three-valued logic of paper §5.1
//! is not here: `exo-analysis` lowers each ternary value to a pair of
//! classical formulas (appendix B) before it reaches the solver.

// Panic-free library surface: input-reachable failures must be typed
// errors, not aborts. Unit tests may unwrap freely.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod canon;
pub mod formula;
pub mod linear;
pub mod qe;
pub mod solver;

pub use canon::canonicalize;
pub use formula::{Atom, Formula};
pub use linear::LinExpr;
pub use solver::{Answer, Solver};
