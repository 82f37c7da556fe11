//! # exo-lint
//!
//! Whole-program static analysis over the exo-rs core IR, built on the
//! same effect/location-set machinery (`exo-analysis`) that checks
//! scheduling rewrites — so every verdict here is as strong (and as
//! cautious) as the rewrite checker itself.
//!
//! Two entry points:
//!
//! * [`classify_loop`] / [`classify_loops`] — the loop-carried
//!   dependence / race detector. Each `for` loop is classified on the
//!   verdict lattice [`LoopVerdict`]: `Parallel` (iterations fully
//!   independent), `ReductionParallel` (iterations conflict only via
//!   `+=` into the same locations), or `Sequential` (a dependence
//!   exists or could not be ruled out — with a concrete [`Witness`]
//!   pair when a collision is confirmed). `exo-sched`'s
//!   `parallelize` operator is gated on this verdict.
//! * [`lint_proc`] — the rule pack (`dead-alloc`, `uninit-read`,
//!   `config-clobber`, `window-alias`, `precision-mismatch`,
//!   `empty-loop`), reporting [`exo_core::diag::Diagnostic`]s with
//!   spans into the AST and machine-readable JSON via
//!   [`diagnostics_json`].
//!
//! A probe is first put to sound, incomplete deciders that need no
//! solver: affine dependence tests over interval bounds refute it, or a
//! ground point of the loop bounds that satisfies it confirms it. Only
//! what they leave is posed through [`exo_analysis::SharedCheckCtx`],
//! canonicalized (alpha-renamed) and memoized in the verdict cache
//! scheduling uses. `Unknown` answers — budget exhaustion,
//! chaos-injected give-ups — only ever degrade verdicts toward
//! `Sequential` / "no finding"; they never promote a loop to
//! `Parallel`.

// Panic-free library surface: input-reachable failures must be typed
// errors, not aborts. Unit tests may unwrap freely.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod depend;
pub mod rules;

use exo_core::diag::Diagnostic;
use exo_core::path::StmtPath;
use exo_core::Sym;
use exo_obs::Json;

pub use depend::{classify_loop, classify_loops, AccessKind, LintError, LoopVerdict, Witness};
pub use rules::{lint_proc, lint_proc_with};

fn jobj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Renders diagnostics as one JSON array (machine-readable export).
pub fn diagnostics_json(diags: &[Diagnostic]) -> Json {
    Json::Arr(diags.iter().map(diagnostic_json).collect())
}

/// Renders one diagnostic as a JSON object.
pub fn diagnostic_json(d: &Diagnostic) -> Json {
    jobj(vec![
        ("rule", Json::Str(d.rule.clone())),
        ("severity", Json::Str(d.severity.name().to_string())),
        ("proc", Json::Str(d.proc_name.clone())),
        (
            "path",
            match &d.path {
                Some(p) => Json::Str(p.to_string()),
                None => Json::Null,
            },
        ),
        ("message", Json::Str(d.message.clone())),
        (
            "notes",
            Json::Arr(d.notes.iter().map(|n| Json::Str(n.clone())).collect()),
        ),
    ])
}

/// Renders one loop verdict as a JSON object (used by the lint bench).
pub fn verdict_json(path: &StmtPath, iter: Sym, v: &LoopVerdict) -> Json {
    let mut fields = vec![
        ("path", Json::Str(path.to_string())),
        ("iter", Json::Str(iter.name())),
        ("verdict", Json::Str(v.name().to_string())),
    ];
    match v {
        LoopVerdict::ReductionParallel { bufs } => {
            fields.push((
                "reduction_bufs",
                Json::Arr(bufs.iter().map(|b| Json::Str(b.name())).collect()),
            ));
        }
        LoopVerdict::Sequential { witness: Some(w) } => {
            fields.push(("witness", Json::Str(w.to_string())));
        }
        _ => {}
    }
    jobj(fields)
}
