//! The model test of `LinExpr`'s inline coefficient list against a
//! `BTreeMap` reference, with its default fixed-seed slice.
//! The test lives with exo-smt; see there for what it checks.

#[path = "../crates/smt/tests/coeffs_model.rs"]
mod coeffs_model;
