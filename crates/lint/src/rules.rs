//! The lint rule pack: ~6 whole-program rules over the effect/locset
//! machinery, all reporting through [`exo_core::diag::Diagnostic`].
//!
//! | rule id              | severity | finding |
//! |----------------------|----------|---------|
//! | `dead-alloc`         | Warning  | locally allocated buffer never read |
//! | `uninit-read`        | Error    | read of a local buffer before any possible write |
//! | `config-clobber`     | Warning  | two writes to one config field, no intervening read |
//! | `window-alias`       | Warning  | two windows over one buffer may overlap |
//! | `precision-mismatch` | Warning  | call argument precision differs from the formal |
//! | `empty-loop`         | Warning  | loop bounds provably describe an empty range |
//!
//! Syntactic rules (`dead-alloc`, `uninit-read`, `config-clobber`,
//! `precision-mismatch`) are conservative walks of the IR; the symbolic
//! rules (`window-alias`, `empty-loop`) each pose one satisfiability
//! question through [`SiteQuery::sat`]: a ground point of the site's
//! loop bounds that satisfies it answers `Yes` without a query, and
//! anything else goes to the shared [`SharedCheckCtx`], canonicalized
//! and cached alongside scheduling obligations.

use std::sync::Arc;

use exo_analysis::context::SiteQuery;
use exo_analysis::{EffExpr, GlobalReg, SharedCheckCtx};
use exo_core::diag::{Diagnostic, Severity};
use exo_core::hash::{HashMap, HashSet};
use exo_core::ir::{Expr, Stmt, WAccess};
use exo_core::path::{stmt_at, visit_paths, StmtPath};
use exo_core::types::DataType;
use exo_core::visit::visit_stmt_exprs;
use exo_core::{Proc, Sym};
use exo_smt::solver::Answer;

use crate::depend::render_effexpr;

/// Runs every lint rule over `proc` with a private global registry.
pub fn lint_proc(proc: &Arc<Proc>, check: &SharedCheckCtx) -> Vec<Diagnostic> {
    let mut reg = GlobalReg::new();
    lint_proc_with(proc, check, &mut reg)
}

/// Runs every lint rule over `proc`, sharing the caller's registry (so
/// canonical config names — and hence cache keys — match the
/// scheduler's).
pub fn lint_proc_with(
    proc: &Arc<Proc>,
    check: &SharedCheckCtx,
    reg: &mut GlobalReg,
) -> Vec<Diagnostic> {
    let _span = exo_obs::Span::enter("lint.rules")
        .with_field("proc", exo_obs::Json::Str(proc.name.to_string()));
    let mut out = Vec::new();
    rule_dead_alloc(proc, &mut out);
    rule_uninit_read(proc, &mut out);
    rule_config_clobber(proc, &mut out);
    rule_window_alias(proc, check, reg, &mut out);
    rule_precision_mismatch(proc, &mut out);
    rule_empty_loop(proc, check, reg, &mut out);
    out
}

fn diag(
    rule: &str,
    severity: Severity,
    proc: &Proc,
    path: &StmtPath,
    message: String,
) -> Diagnostic {
    Diagnostic::new(rule, severity, proc.name.name(), message).with_path(path.clone())
}

/// Resolves window names to their root buffer (windows alias their
/// base, so reads/writes through a window count against the root).
fn window_roots(proc: &Proc) -> HashMap<Sym, Sym> {
    let mut roots: HashMap<Sym, Sym> = HashMap::default();
    visit_paths(&proc.body, |_, s| {
        if let Stmt::WindowDef {
            name,
            rhs: Expr::Window { buf, .. },
        } = s
        {
            let root = *roots.get(buf).unwrap_or(buf);
            roots.insert(*name, root);
        }
    });
    roots
}

fn root_of(buf: Sym, roots: &HashMap<Sym, Sym>) -> Sym {
    *roots.get(&buf).unwrap_or(&buf)
}

// ---------------------------------------------------------------------
// dead-alloc: a locally allocated buffer that is never read.
// ---------------------------------------------------------------------

fn rule_dead_alloc(proc: &Proc, out: &mut Vec<Diagnostic>) {
    let roots = window_roots(proc);
    // Every buffer whose data may be observed: read expressions, window
    // creation over it does not count by itself, but passing it (or a
    // window of it) to a call does — the callee may read it.
    let mut observed: HashSet<Sym> = HashSet::default();
    visit_paths(&proc.body, |_, s| {
        let callee_args: Option<&Vec<Expr>> = match s {
            Stmt::Call { args, .. } => Some(args),
            _ => None,
        };
        visit_stmt_exprs(s, &mut |e| {
            if let Expr::Read { buf, .. } = e {
                observed.insert(root_of(*buf, &roots));
            }
        });
        if let Some(args) = callee_args {
            for a in args {
                if let Expr::Read { buf, .. } | Expr::Window { buf, .. } | Expr::Var(buf) = a {
                    observed.insert(root_of(*buf, &roots));
                }
            }
        }
    });
    visit_paths(&proc.body, |path, s| {
        if let Stmt::Alloc { name, .. } = s {
            if !observed.contains(name) {
                out.push(diag(
                    "dead-alloc",
                    Severity::Warning,
                    proc,
                    path,
                    format!(
                        "buffer {} is allocated (and possibly written) but never read",
                        name.name()
                    ),
                ));
            }
        }
    });
}

// ---------------------------------------------------------------------
// uninit-read: a read of a locally allocated buffer before any write
// to it could possibly have happened (on *any* path — so the read is
// definitely uninitialized).
// ---------------------------------------------------------------------

fn rule_uninit_read(proc: &Proc, out: &mut Vec<Diagnostic>) {
    let roots = window_roots(proc);
    let mut local: HashSet<Sym> = HashSet::default();
    let mut written: HashSet<Sym> = HashSet::default();
    let mut flagged: HashSet<Sym> = HashSet::default();
    walk_uninit(
        proc,
        &proc.body,
        &StmtPath::default(),
        0,
        &roots,
        &mut local,
        &mut written,
        &mut flagged,
        out,
    );
}

#[allow(clippy::too_many_arguments)]
fn walk_uninit(
    proc: &Proc,
    block: &[Stmt],
    parent: &StmtPath,
    block_id: usize,
    roots: &HashMap<Sym, Sym>,
    local: &mut HashSet<Sym>,
    written: &mut HashSet<Sym>,
    flagged: &mut HashSet<Sym>,
    out: &mut Vec<Diagnostic>,
) {
    for (i, s) in block.iter().enumerate() {
        let path = if parent.is_empty() {
            StmtPath::top(i)
        } else {
            parent.child(block_id, i)
        };
        // Reads happen before this statement's own write takes effect —
        // including the implicit read of a `+=` target.
        let mut check_read = |buf: Sym, path: &StmtPath, out: &mut Vec<Diagnostic>| {
            let root = root_of(buf, roots);
            if local.contains(&root) && !written.contains(&root) && flagged.insert(root) {
                out.push(diag(
                    "uninit-read",
                    Severity::Error,
                    proc,
                    path,
                    format!(
                        "buffer {} is read before any write could have initialized it",
                        root.name()
                    ),
                ));
            }
        };
        // A call's argument expressions are pass-by-reference handles,
        // not value reads — the callee may well be the initializer
        // (`loadu`-style @instrs), so they are excluded here and the
        // buffers marked written below instead.
        if !matches!(s, Stmt::Call { .. }) {
            visit_stmt_exprs(s, &mut |e| {
                if let Expr::Read { buf, .. } = e {
                    check_read(*buf, &path, out);
                }
            });
        }
        match s {
            Stmt::Alloc { name, .. } => {
                local.insert(*name);
            }
            Stmt::Assign { buf, .. } => {
                written.insert(root_of(*buf, roots));
            }
            Stmt::Reduce { buf, .. } => {
                check_read(*buf, &path, out);
                written.insert(root_of(*buf, roots));
            }
            Stmt::Call { proc: callee, args } => {
                // A callee may write any data argument it receives.
                for a in args {
                    if let Expr::Read { buf, .. } | Expr::Window { buf, .. } | Expr::Var(buf) = a {
                        written.insert(root_of(*buf, roots));
                    }
                }
                let _ = callee;
            }
            Stmt::For { body, .. } => {
                // The loop may run zero times: writes inside are
                // maybe-writes — which is exactly what suppresses the
                // rule (we only flag reads no write can precede).
                walk_uninit(proc, body, &path, 0, roots, local, written, flagged, out);
            }
            Stmt::If { body, orelse, .. } => {
                let mut w_then = written.clone();
                walk_uninit(
                    proc,
                    body,
                    &path,
                    0,
                    roots,
                    local,
                    &mut w_then,
                    flagged,
                    out,
                );
                let mut w_else = written.clone();
                walk_uninit(
                    proc,
                    orelse,
                    &path,
                    1,
                    roots,
                    local,
                    &mut w_else,
                    flagged,
                    out,
                );
                written.extend(w_then);
                written.extend(w_else);
            }
            Stmt::WindowDef { .. } | Stmt::Pass | Stmt::WriteConfig { .. } => {}
        }
    }
}

// ---------------------------------------------------------------------
// config-clobber: two writes to the same configuration field with no
// possible intervening read of that field.
// ---------------------------------------------------------------------

fn rule_config_clobber(proc: &Proc, out: &mut Vec<Diagnostic>) {
    let mut pending: HashMap<(Sym, Sym), StmtPath> = HashMap::default();
    walk_clobber(proc, &proc.body, &StmtPath::default(), 0, &mut pending, out);
}

fn walk_clobber(
    proc: &Proc,
    block: &[Stmt],
    parent: &StmtPath,
    block_id: usize,
    pending: &mut HashMap<(Sym, Sym), StmtPath>,
    out: &mut Vec<Diagnostic>,
) {
    for (i, s) in block.iter().enumerate() {
        let path = if parent.is_empty() {
            StmtPath::top(i)
        } else {
            parent.child(block_id, i)
        };
        // Any config read discharges the pending write of that field.
        visit_stmt_exprs(s, &mut |e| {
            if let Expr::ReadConfig { config, field } = e {
                pending.remove(&(*config, *field));
            }
        });
        match s {
            Stmt::WriteConfig { config, field, .. } => {
                if let Some(prev) = pending.insert((*config, *field), path.clone()) {
                    out.push(
                        diag(
                            "config-clobber",
                            Severity::Warning,
                            proc,
                            &path,
                            format!(
                                "{}.{} is overwritten before the previous write is read",
                                config.name(),
                                field.name()
                            ),
                        )
                        .with_note(format!("previous write at {prev}")),
                    );
                }
            }
            Stmt::Call { .. } => {
                // The callee may read any field: discharge everything.
                pending.clear();
            }
            Stmt::For { body, .. } => {
                // The last write of one iteration meets the first write
                // of the next, but reads in between are iteration-order
                // dependent; stay conservative across the loop boundary.
                let mut inner = HashMap::default();
                walk_clobber(proc, body, &path, 0, &mut inner, out);
                pending.clear();
            }
            Stmt::If { body, orelse, .. } => {
                let mut t = pending.clone();
                walk_clobber(proc, body, &path, 0, &mut t, out);
                let mut e = pending.clone();
                walk_clobber(proc, orelse, &path, 1, &mut e, out);
                // Only writes pending on *both* branches survive.
                pending.retain(|k, _| t.contains_key(k) && e.contains_key(k));
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------
// window-alias: two windows over the same base whose coordinate boxes
// provably may overlap.
// ---------------------------------------------------------------------

/// One window as a per-dimension box `[lo, hi)` over its base buffer,
/// lifted at the query's site.
fn window_box(coords: &[WAccess], q: &mut SiteQuery<'_>) -> Vec<(EffExpr, EffExpr)> {
    coords
        .iter()
        .map(|c| match c {
            WAccess::Point(e) => {
                let p = q.lift(e);
                (p.clone(), p.add(EffExpr::Int(1)))
            }
            WAccess::Interval(lo, hi) => (q.lift(lo), q.lift(hi)),
        })
        .collect()
}

fn rule_window_alias(
    proc: &Proc,
    check: &SharedCheckCtx,
    reg: &mut GlobalReg,
    out: &mut Vec<Diagnostic>,
) {
    // Collect windows per direct base buffer.
    let mut windows: Vec<(StmtPath, Sym, Sym, Vec<WAccess>)> = Vec::new();
    visit_paths(&proc.body, |path, s| {
        if let Stmt::WindowDef {
            name,
            rhs: Expr::Window { buf, coords },
        } = s
        {
            windows.push((path.clone(), *name, *buf, coords.clone()));
        }
    });
    for (i, (p1, n1, b1, c1)) in windows.iter().enumerate() {
        for (p2, n2, b2, c2) in windows.iter().skip(i + 1) {
            if b1 != b2 || c1.len() != c2.len() {
                continue;
            }
            // Pose the overlap question at the later window's site so
            // both sets of coordinates are in scope.
            let Some(mut q) = SiteQuery::new(proc, p2, reg, check) else {
                continue;
            };
            let box1 = window_box(c1, &mut q);
            let box2 = window_box(c2, &mut q);
            let mut overlap = EffExpr::Bool(true);
            for ((lo1, hi1), (lo2, hi2)) in box1.iter().zip(box2.iter()) {
                overlap = overlap
                    .and(lo1.clone().lt(hi2.clone()))
                    .and(lo2.clone().lt(hi1.clone()));
            }
            let m_overlap = q.lctx.lower_bool(&overlap).maybe();
            let near = q.narrowed(&[]).unwrap_or_default();
            if q.sat(m_overlap, &near, None) == Answer::Yes {
                out.push(
                    diag(
                        "window-alias",
                        Severity::Warning,
                        proc,
                        p2,
                        format!(
                            "windows {} and {} over {} may overlap",
                            n1.name(),
                            n2.name(),
                            b1.name()
                        ),
                    )
                    .with_note(format!("first window defined at {p1}")),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// precision-mismatch: a call passes a buffer whose element precision
// differs from the callee's formal. `call_eqv` deliberately matches
// signatures up to precision, so this is the rule that keeps mixed
// chains honest.
// ---------------------------------------------------------------------

fn rule_precision_mismatch(proc: &Proc, out: &mut Vec<Diagnostic>) {
    // Element types of everything nameable in this procedure.
    let mut types: HashMap<Sym, DataType> = HashMap::default();
    for arg in &proc.args {
        if let Some(ty) = arg.ty.data_type() {
            types.insert(arg.name, ty);
        }
    }
    visit_paths(&proc.body, |_, s| match s {
        Stmt::Alloc { name, ty, .. } => {
            types.insert(*name, *ty);
        }
        Stmt::WindowDef {
            name,
            rhs: Expr::Window { buf, .. },
        } => {
            if let Some(ty) = types.get(buf).copied() {
                types.insert(*name, ty);
            }
        }
        _ => {}
    });
    visit_paths(&proc.body, |path, s| {
        if let Stmt::Call { proc: callee, args } = s {
            for (formal, actual) in callee.args.iter().zip(args.iter()) {
                let Some(want) = formal.ty.data_type() else {
                    continue;
                };
                let actual_buf = match actual {
                    Expr::Read { buf, .. } | Expr::Window { buf, .. } | Expr::Var(buf) => {
                        Some(*buf)
                    }
                    _ => None,
                };
                let Some(got) = actual_buf.and_then(|b| types.get(&b).copied()) else {
                    continue;
                };
                // `R` is the not-yet-chosen abstract precision: anything
                // unifies with it.
                if got != want && got != DataType::R && want != DataType::R {
                    out.push(diag(
                        "precision-mismatch",
                        Severity::Warning,
                        proc,
                        path,
                        format!(
                            "call to {} passes {:?} buffer {} where the formal {} is {:?}",
                            callee.name.name(),
                            got,
                            actual_buf.map(|b| b.name()).unwrap_or_default(),
                            formal.name.name(),
                            want
                        ),
                    ));
                }
            }
        }
    });
}

// ---------------------------------------------------------------------
// empty-loop: the loop range is provably empty under the site's
// assumptions.
// ---------------------------------------------------------------------

fn rule_empty_loop(
    proc: &Proc,
    check: &SharedCheckCtx,
    reg: &mut GlobalReg,
    out: &mut Vec<Diagnostic>,
) {
    let mut loops: Vec<StmtPath> = Vec::new();
    visit_paths(&proc.body, |path, s| {
        if matches!(s, Stmt::For { .. }) {
            loops.push(path.clone());
        }
    });
    for path in loops {
        let Some(Stmt::For { iter, lo, hi, .. }) = stmt_at(&proc.body, &path) else {
            continue;
        };
        let Some(mut q) = SiteQuery::new(proc, &path, reg, check) else {
            continue;
        };
        let lo_e = q.lift(lo);
        let hi_e = q.lift(hi);
        // `D(hi ≤ lo)` is valid exactly when `M(lo < hi)` is
        // unsatisfiable, and a model of the latter needs no solver
        let nonempty = q.lctx.lower_bool(&lo_e.clone().lt(hi_e.clone())).maybe();
        let near = q.narrowed(&[]).unwrap_or_default();
        if q.sat(nonempty, &near, None) == Answer::No {
            out.push(diag(
                "empty-loop",
                Severity::Warning,
                proc,
                &path,
                format!(
                    "loop over {} in [{}, {}) provably executes zero iterations",
                    iter.name(),
                    render_effexpr(&lo_e),
                    render_effexpr(&hi_e)
                ),
            ));
        }
    }
}
