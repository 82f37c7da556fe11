//! # exo-analysis
//!
//! The effect analyses that make exo-rs scheduling *safe* (paper §5–6).
//!
//! Scheduling operators are rewrites; each must preserve program
//! equivalence (possibly modulo configuration state). This crate provides
//! the machinery those checks are built from:
//!
//! * [`effexpr`] — effect expressions (symbolic control values with ⊥)
//!   and their lowering to classical formulas per appendix B;
//! * [`globals`] — canonical names for configuration fields and the
//!   approximating symbolic dataflow `ValG` (§5.3);
//! * [`effects`] — effect extraction `Eff : Stmt → Effect` (§5.5), with
//!   windows resolved to root buffers and call-site splicing;
//! * [`locset`] — location sets with ternary membership and the
//!   definitely/maybe collapses (§5.4);
//! * [`conditions`] — `Commutes`, `Shadows`, and the loop-rewrite
//!   conditions (§5.7–5.8);
//! * [`affine`] — affine index forms and the dependence tests on them,
//!   read by `reorder`'s test and by `exo-lint`'s loop classifier;
//! * [`context`] — one-holed-context quantities `CtrlPred` / `PreValG` /
//!   `PostEff`, all read from one descent of the site's path
//!   ([`context::site_ctx`]), and [`context::SiteQuery`], through which
//!   every safety obligation is posed at its site: goals under the site's
//!   hypothesis, the bounds re-check of the code at the site, and the
//!   context-extension rule (§6.2);
//! * [`bounds`] — static bounds checking and call-site assertion
//!   checking: one checker, run on a whole procedure ([`check_bounds`])
//!   or seeded from a site and run on its statement, which puts each
//!   obligation to a sound, incomplete interval prover over the loop
//!   bounds before it lowers it for the solver;
//! * [`interval`] — that prover's box: one interval per variable,
//!   narrowed by a path condition;
//! * [`check`] — the shared checking context: one reusable solver plus a
//!   canonical (alpha-normalized) verdict cache.
//!
//! All conditions bottom out in Presburger validity queries discharged
//! through [`SharedCheckCtx`] (bounds obligations the interval prover
//! proves never become one); an `Unknown` answer always fails safe.

// Panic-free library surface: input-reachable failures must be typed
// errors, not aborts. Unit tests may unwrap freely.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod affine;
pub mod bounds;
pub mod check;
pub mod conditions;
pub mod context;
pub mod effects;
pub mod effexpr;
pub mod globals;
pub mod interval;
pub mod locset;

pub use bounds::{check_bounds, CheckError};
pub use check::{CheckStats, SharedCheckCtx};
pub use effects::{effect_of_block, effect_of_proc, Effect, ExtractCtx};
pub use effexpr::{EffExpr, LowerCtx};
pub use globals::{GlobalEnv, GlobalReg};
pub use locset::{LocSet, SetBundle};
