//! Effects (paper Def. 5.4) and their extraction from statements.
//!
//! An effect characterizes which store-transforming functions a statement
//! could denote. Extraction resolves windows down to their root buffers
//! (so that aliasing is visible) and splices callee effects into call
//! sites with actuals substituted for formals.

use std::sync::Arc;

use exo_core::hash::HashMap;
use exo_core::ir::{ArgType, Expr, Proc, Stmt, WAccess};
use exo_core::visit;
use exo_core::Sym;

use crate::effexpr::EffExpr;
use crate::globals::{lift_in_env, val_g_stmt, GlobalEnv, GlobalReg};

/// Effects, as in paper Def. 5.4 (with loop bounds attached to `Loop` so
/// location sets can be bounded).
#[derive(Clone, PartialEq, Debug)]
pub enum Effect {
    /// Sequential composition.
    Seq(Vec<Effect>),
    /// No effect.
    Empty,
    /// Effect conditioned on a (ternary) guard.
    Guard(EffExpr, Box<Effect>),
    /// Effect of a loop body, once per iteration of `var ∈ [lo, hi)`.
    Loop {
        /// Iteration variable.
        var: Sym,
        /// Lower bound.
        lo: EffExpr,
        /// Upper bound.
        hi: EffExpr,
        /// Per-iteration effect.
        body: Box<Effect>,
    },
    /// Read of a global configuration field.
    GlobalRead(Sym, Sym),
    /// Write of a global configuration field.
    GlobalWrite(Sym, Sym),
    /// Read of one buffer location.
    Read(Sym, Vec<EffExpr>),
    /// Write of one buffer location.
    Write(Sym, Vec<EffExpr>),
    /// Reduction into one buffer location.
    Reduce(Sym, Vec<EffExpr>),
    /// Allocation of a buffer (scopes over the rest of the sequence).
    Alloc(Sym),
}

impl Effect {
    /// Sequences two effects, flattening.
    pub fn seq(a: Effect, b: Effect) -> Effect {
        match (a, b) {
            (Effect::Empty, x) | (x, Effect::Empty) => x,
            (Effect::Seq(mut xs), Effect::Seq(ys)) => {
                xs.extend(ys);
                Effect::Seq(xs)
            }
            (Effect::Seq(mut xs), y) => {
                xs.push(y);
                Effect::Seq(xs)
            }
            (x, Effect::Seq(mut ys)) => {
                ys.insert(0, x);
                Effect::Seq(ys)
            }
            (x, y) => Effect::Seq(vec![x, y]),
        }
    }

    /// Sequences many effects.
    pub fn seq_all(parts: Vec<Effect>) -> Effect {
        parts.into_iter().fold(Effect::Empty, Effect::seq)
    }

    /// Substitutes control variables inside all index/guard expressions.
    pub fn subst(&self, map: &HashMap<Sym, EffExpr>) -> Effect {
        match self {
            Effect::Seq(xs) => Effect::Seq(xs.iter().map(|e| e.subst(map)).collect()),
            Effect::Empty => Effect::Empty,
            Effect::Guard(c, e) => Effect::Guard(c.subst(map), Box::new(e.subst(map))),
            Effect::Loop { var, lo, hi, body } => {
                // iteration variables are binders: shadow them
                let mut inner = map.clone();
                inner.remove(var);
                Effect::Loop {
                    var: *var,
                    lo: lo.subst(map),
                    hi: hi.subst(map),
                    body: Box::new(body.subst(&inner)),
                }
            }
            Effect::GlobalRead(c, f) => Effect::GlobalRead(*c, *f),
            Effect::GlobalWrite(c, f) => Effect::GlobalWrite(*c, *f),
            Effect::Read(b, idx) => Effect::Read(*b, idx.iter().map(|e| e.subst(map)).collect()),
            Effect::Write(b, idx) => Effect::Write(*b, idx.iter().map(|e| e.subst(map)).collect()),
            Effect::Reduce(b, idx) => {
                Effect::Reduce(*b, idx.iter().map(|e| e.subst(map)).collect())
            }
            Effect::Alloc(b) => Effect::Alloc(*b),
        }
    }
}

/// One axis of a symbolic view: how a buffer dimension is addressed.
#[derive(Clone, PartialEq, Debug)]
pub enum AxisMap {
    /// The dimension is fixed at a symbolic coordinate.
    Fixed(EffExpr),
    /// The dimension is walked by window axis `axis` with an offset.
    Axis(usize, EffExpr),
}

/// A symbolic view: a root buffer plus an affine coordinate translation —
/// the analysis-time analogue of the interpreter's window values.
#[derive(Clone, PartialEq, Debug)]
pub struct SymView {
    /// Root buffer symbol.
    pub buf: Sym,
    /// One entry per root-buffer dimension.
    pub axes: Vec<AxisMap>,
}

impl SymView {
    /// The identity view over a buffer of the given rank.
    pub fn identity(buf: Sym, rank: usize) -> SymView {
        SymView {
            buf,
            axes: (0..rank)
                .map(|d| AxisMap::Axis(d, EffExpr::Int(0)))
                .collect(),
        }
    }

    /// Number of retained (walked) dimensions.
    pub fn rank(&self) -> usize {
        self.axes
            .iter()
            .filter(|a| matches!(a, AxisMap::Axis(..)))
            .count()
    }

    /// Translates view coordinates into root-buffer coordinates.
    pub fn translate(&self, coords: &[EffExpr]) -> Vec<EffExpr> {
        self.axes
            .iter()
            .map(|a| match a {
                AxisMap::Fixed(e) => e.clone(),
                AxisMap::Axis(k, off) => {
                    let c = coords.get(*k).cloned().unwrap_or(EffExpr::Unknown);
                    off.clone().add(c)
                }
            })
            .collect()
    }

    /// Restricts the view by window coordinates (point accesses fix a
    /// dimension, intervals re-offset it).
    pub fn window(&self, coords: &[WAccess], env: &mut ExtractCtx<'_>) -> SymView {
        let mut next_axis = 0usize;
        let mut new_axes = Vec::with_capacity(self.axes.len());
        // map old axis index -> coordinate
        let mut per_axis: Vec<Option<&WAccess>> = vec![None; self.rank()];
        for (k, c) in coords.iter().enumerate() {
            if k < per_axis.len() {
                per_axis[k] = Some(c);
            }
        }
        for a in &self.axes {
            match a {
                AxisMap::Fixed(e) => new_axes.push(AxisMap::Fixed(e.clone())),
                AxisMap::Axis(k, off) => match per_axis.get(*k).copied().flatten() {
                    Some(WAccess::Point(p)) => {
                        let pe = env.lift_ctrl(p);
                        new_axes.push(AxisMap::Fixed(off.clone().add(pe)));
                    }
                    Some(WAccess::Interval(lo, _hi)) => {
                        let le = env.lift_ctrl(lo);
                        new_axes.push(AxisMap::Axis(next_axis, off.clone().add(le)));
                        next_axis += 1;
                    }
                    None => {
                        new_axes.push(AxisMap::Axis(next_axis, off.clone()));
                        next_axis += 1;
                    }
                },
            }
        }
        SymView {
            buf: self.buf,
            axes: new_axes,
        }
    }
}

/// Context for effect extraction: control substitution, data views, the
/// global-dataflow environment at the point of extraction, and the
/// registry of canonical global names.
pub struct ExtractCtx<'a> {
    /// Control-variable substitution (for call inlining).
    pub ctrl: HashMap<Sym, EffExpr>,
    /// Data views per symbol.
    pub views: HashMap<Sym, SymView>,
    /// Symbolic values of configuration fields before the statement being
    /// extracted.
    pub genv: GlobalEnv,
    /// Canonical global names.
    pub reg: &'a mut GlobalReg,
}

impl<'a> ExtractCtx<'a> {
    /// Creates the extraction context for a procedure (parameters bound
    /// to themselves).
    pub fn for_proc(proc: &Proc, reg: &'a mut GlobalReg) -> ExtractCtx<'a> {
        let mut views = HashMap::default();
        for arg in &proc.args {
            match &arg.ty {
                ArgType::Tensor { shape, .. } => {
                    views.insert(arg.name, SymView::identity(arg.name, shape.len()));
                }
                ArgType::Scalar { .. } => {
                    views.insert(arg.name, SymView::identity(arg.name, 0));
                }
                ArgType::Ctrl(_) => {}
            }
        }
        ExtractCtx {
            ctrl: HashMap::default(),
            views,
            genv: GlobalEnv::identity(),
            reg,
        }
    }

    fn lift_ctrl(&mut self, e: &Expr) -> EffExpr {
        let lifted = lift_in_env(e, &self.genv, self.reg);
        lifted.subst(&self.ctrl)
    }

    fn view_of(&self, buf: Sym) -> SymView {
        self.views
            .get(&buf)
            .cloned()
            .unwrap_or_else(|| SymView::identity(buf, 0))
    }
}

/// Extracts the effect of a block (`Eff : Stmt → Effect`).
pub fn effect_of_block(block: &[Stmt], ctx: &mut ExtractCtx<'_>) -> Effect {
    let mut parts = Vec::new();
    let mut saved: Vec<(Sym, Option<SymView>)> = Vec::new();
    for s in block {
        parts.push(effect_of_stmt(s, ctx, &mut saved));
    }
    for (sym, prev) in saved.into_iter().rev() {
        match prev {
            Some(v) => {
                ctx.views.insert(sym, v);
            }
            None => {
                ctx.views.remove(&sym);
            }
        }
    }
    Effect::seq_all(parts)
}

fn effect_of_stmt(
    s: &Stmt,
    ctx: &mut ExtractCtx<'_>,
    saved: &mut Vec<(Sym, Option<SymView>)>,
) -> Effect {
    // the state after `s`, which inside a loop body is also the state at
    // the start of an iteration
    let after = val_g_stmt(s, ctx.genv.clone(), ctx.reg);
    let eff = match s {
        Stmt::Pass => Effect::Empty,
        Stmt::Assign { buf, idx, rhs } => {
            let view = ctx.view_of(*buf);
            let coords: Vec<EffExpr> = idx.iter().map(|e| ctx.lift_ctrl(e)).collect();
            let rd = effect_of_data_expr(rhs, ctx);
            let idx_rd = effect_of_index_reads(idx);
            Effect::seq_all(vec![
                rd,
                idx_rd,
                Effect::Write(view.buf, view.translate(&coords)),
            ])
        }
        Stmt::Reduce { buf, idx, rhs } => {
            let view = ctx.view_of(*buf);
            let coords: Vec<EffExpr> = idx.iter().map(|e| ctx.lift_ctrl(e)).collect();
            let rd = effect_of_data_expr(rhs, ctx);
            let idx_rd = effect_of_index_reads(idx);
            Effect::seq_all(vec![
                rd,
                idx_rd,
                Effect::Reduce(view.buf, view.translate(&coords)),
            ])
        }
        Stmt::WriteConfig { config, field, rhs } => Effect::seq(
            effect_of_ctrl_expr(rhs),
            Effect::GlobalWrite(*config, *field),
        ),
        Stmt::If { cond, body, orelse } => {
            let c = ctx.lift_ctrl(cond);
            let crd = effect_of_ctrl_expr(cond);
            let entry = ctx.genv.clone();
            let then_e = effect_of_block(body, ctx);
            ctx.genv = entry;
            let else_e = effect_of_block(orelse, ctx);
            Effect::seq_all(vec![
                crd,
                Effect::Guard(c.clone(), Box::new(then_e)),
                Effect::Guard(EffExpr::not(c), Box::new(else_e)),
            ])
        }
        Stmt::For { iter, lo, hi, body } => {
            let lo_e = ctx.lift_ctrl(lo);
            let hi_e = ctx.lift_ctrl(hi);
            let bound_rd = Effect::seq(effect_of_ctrl_expr(lo), effect_of_ctrl_expr(hi));
            // within the body the iteration variable is free (bound by the
            // Loop node); remove any outer substitution for it
            let prev = ctx.ctrl.remove(iter);
            ctx.genv = after.clone();
            let body_e = effect_of_block(body, ctx);
            if let Some(p) = prev {
                ctx.ctrl.insert(*iter, p);
            }
            Effect::seq(
                bound_rd,
                Effect::Loop {
                    var: *iter,
                    lo: lo_e,
                    hi: hi_e,
                    body: Box::new(body_e),
                },
            )
        }
        Stmt::Alloc { name, .. } => {
            saved.push((*name, ctx.views.insert(*name, identity_for_alloc(s, *name))));
            Effect::Alloc(*name)
        }
        Stmt::WindowDef { name, rhs } => {
            let (view, rd) = match rhs {
                Expr::Window { buf, coords } => {
                    let base = ctx.view_of(*buf);
                    let rd = effect_of_window_reads(coords);
                    (base.window(coords, ctx), rd)
                }
                _ => (SymView::identity(*name, 0), Effect::Empty),
            };
            saved.push((*name, ctx.views.insert(*name, view)));
            rd
        }
        Stmt::Call { proc, args } => effect_of_call(proc, args, ctx),
    };
    ctx.genv = after;
    eff
}

fn identity_for_alloc(s: &Stmt, name: Sym) -> SymView {
    match s {
        Stmt::Alloc { shape, .. } => SymView::identity(name, shape.len()),
        _ => SymView::identity(name, 0),
    }
}

fn effect_of_call(proc: &Arc<Proc>, args: &[Expr], ctx: &mut ExtractCtx<'_>) -> Effect {
    // build the callee context: control formals ↦ lifted actuals, data
    // formals ↦ views derived from actuals. The caller's own substitution
    // stays in force: configuration values it wrote are in its names.
    let mut ctrl = ctx.ctrl.clone();
    let mut views = HashMap::default();
    let mut arg_reads = Vec::new();
    for (formal, actual) in proc.args.iter().zip(args) {
        match &formal.ty {
            ArgType::Ctrl(_) => {
                ctrl.insert(formal.name, ctx.lift_ctrl(actual));
                arg_reads.push(effect_of_ctrl_expr(actual));
            }
            ArgType::Scalar { .. } | ArgType::Tensor { .. } => {
                let view = match actual {
                    Expr::Read { buf, idx } if idx.is_empty() => ctx.view_of(*buf),
                    Expr::Read { buf, idx } => {
                        // point access: all dims fixed
                        let base = ctx.view_of(*buf);
                        let coords: Vec<WAccess> =
                            idx.iter().map(|e| WAccess::Point(e.clone())).collect();
                        arg_reads.push(effect_of_index_reads(idx));
                        base.window(&coords, ctx)
                    }
                    Expr::Window { buf, coords } => {
                        let base = ctx.view_of(*buf);
                        arg_reads.push(effect_of_window_reads(coords));
                        base.window(coords, ctx)
                    }
                    other => {
                        // scalar rvalue: reads whatever it reads, the
                        // callee sees a fresh temporary
                        arg_reads.push(effect_of_data_expr(other, ctx));
                        SymView::identity(Sym::new("rvalue_tmp"), 0)
                    }
                };
                views.insert(formal.name, view);
            }
        }
    }
    // run extraction on the callee body with the caller's context maps
    // swapped out (the dataflow environment flows in unchanged; `ValG`
    // moves it past the call afterwards)
    let saved_ctrl = std::mem::replace(&mut ctx.ctrl, ctrl);
    let saved_views = std::mem::replace(&mut ctx.views, views);
    let body_e = effect_of_block(&proc.body, ctx);
    ctx.ctrl = saved_ctrl;
    ctx.views = saved_views;
    Effect::seq(Effect::seq_all(arg_reads), body_e)
}

fn effect_of_index_reads(idx: &[Expr]) -> Effect {
    Effect::seq_all(idx.iter().map(effect_of_ctrl_expr).collect())
}

fn effect_of_window_reads(coords: &[WAccess]) -> Effect {
    Effect::seq_all(
        coords
            .iter()
            .map(|c| match c {
                WAccess::Point(p) => effect_of_ctrl_expr(p),
                WAccess::Interval(lo, hi) => {
                    Effect::seq(effect_of_ctrl_expr(lo), effect_of_ctrl_expr(hi))
                }
            })
            .collect(),
    )
}

/// The read effects of a control expression (configuration reads).
pub fn effect_of_ctrl_expr(e: &Expr) -> Effect {
    let mut parts = Vec::new();
    visit::visit_expr(e, &mut |e| {
        if let Expr::ReadConfig { config, field } = e {
            parts.push(Effect::GlobalRead(*config, *field));
        }
    });
    Effect::seq_all(parts)
}

/// The read effects of a data expression.
fn effect_of_data_expr(e: &Expr, ctx: &mut ExtractCtx<'_>) -> Effect {
    match e {
        Expr::Read { buf, idx } => {
            let view = ctx.view_of(*buf);
            let coords: Vec<EffExpr> = idx.iter().map(|x| ctx.lift_ctrl(x)).collect();
            Effect::seq(
                effect_of_index_reads(idx),
                Effect::Read(view.buf, view.translate(&coords)),
            )
        }
        Expr::BinOp(_, a, b) => {
            Effect::seq(effect_of_data_expr(a, ctx), effect_of_data_expr(b, ctx))
        }
        Expr::Neg(a) => effect_of_data_expr(a, ctx),
        Expr::BuiltIn { args, .. } => {
            Effect::seq_all(args.iter().map(|a| effect_of_data_expr(a, ctx)).collect())
        }
        _ => Effect::Empty,
    }
}

/// Extracts the effect of a whole procedure body.
pub fn effect_of_proc(proc: &Proc, reg: &mut GlobalReg) -> Effect {
    let _span = exo_obs::Span::enter("analysis.effect_of_proc")
        .with_field("proc", exo_obs::Json::Str(proc.name.to_string()));
    let mut ctx = ExtractCtx::for_proc(proc, reg);
    effect_of_block(&proc.body, &mut ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_core::build::{read, ProcBuilder};
    use exo_core::types::DataType;

    #[test]
    fn assign_yields_read_then_write() {
        let mut b = ProcBuilder::new("p");
        let a = b.tensor("A", DataType::F32, vec![Expr::int(4)]);
        let c = b.tensor("C", DataType::F32, vec![Expr::int(4)]);
        b.assign(c, vec![Expr::int(0)], read(a, vec![Expr::int(1)]));
        let p = b.finish();
        let mut reg = GlobalReg::new();
        let eff = effect_of_proc(&p, &mut reg);
        match eff {
            Effect::Seq(parts) => {
                assert!(matches!(parts[0], Effect::Read(b, _) if b == a));
                assert!(matches!(parts[1], Effect::Write(b, _) if b == c));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn loop_effect_captures_bounds() {
        let mut b = ProcBuilder::new("p");
        let n = b.size("n");
        let a = b.tensor("A", DataType::F32, vec![Expr::var(n)]);
        let i = b.begin_for("i", Expr::int(0), Expr::var(n));
        b.assign(a, vec![Expr::var(i)], Expr::float(0.0));
        b.end_for();
        let p = b.finish();
        let mut reg = GlobalReg::new();
        match effect_of_proc(&p, &mut reg) {
            Effect::Loop { var, lo, hi, body } => {
                assert_eq!(var.name(), "i");
                assert_eq!(lo, EffExpr::Int(0));
                assert_eq!(hi, EffExpr::Var(n));
                assert!(matches!(*body, Effect::Write(..)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn window_reads_resolve_to_root_buffer() {
        // y = x[2:6]; y[i] accesses x at i+2
        let mut b = ProcBuilder::new("p");
        let x = b.tensor("x", DataType::F32, vec![Expr::int(8)]);
        let y = b.window("y", x, vec![WAccess::Interval(Expr::int(2), Expr::int(6))]);
        b.assign(y, vec![Expr::int(1)], Expr::float(0.0));
        let p = b.finish();
        let mut reg = GlobalReg::new();
        match effect_of_proc(&p, &mut reg) {
            Effect::Write(buf, idx) => {
                assert_eq!(buf, x);
                assert_eq!(idx.len(), 1);
                // offset 2 + coordinate 1
                assert_eq!(idx[0], EffExpr::Int(2).add(EffExpr::Int(1)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn call_effect_substitutes_actuals() {
        // callee writes dst[i] for i in 0..n; call with n := 4 and a
        // window of A
        let mut cb = ProcBuilder::new("fill");
        let n = cb.size("n");
        let dst = cb.tensor("dst", DataType::F32, vec![Expr::var(n)]);
        let i = cb.begin_for("i", Expr::int(0), Expr::var(n));
        cb.assign(dst, vec![Expr::var(i)], Expr::float(0.0));
        cb.end_for();
        let callee = cb.finish();

        let mut b = ProcBuilder::new("main");
        let a = b.tensor("A", DataType::F32, vec![Expr::int(8)]);
        b.call(
            &callee,
            vec![
                Expr::int(4),
                Expr::Window {
                    buf: a,
                    coords: vec![WAccess::Interval(Expr::int(4), Expr::int(8))],
                },
            ],
        );
        let p = b.finish();
        let mut reg = GlobalReg::new();
        match effect_of_proc(&p, &mut reg) {
            Effect::Loop { lo, hi, body, .. } => {
                assert_eq!(lo, EffExpr::Int(0));
                assert_eq!(hi, EffExpr::Int(4));
                match *body {
                    Effect::Write(buf, ref idx) => {
                        assert_eq!(buf, a, "write resolves to the caller's buffer");
                        // index is 4 + i
                        let shown = format!("{:?}", idx[0]);
                        assert!(shown.contains("Int(4)"), "{shown}");
                    }
                    ref other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn config_write_and_read_effects() {
        let c = Sym::new("Cfg");
        let f = Sym::new("stride");
        let mut b = ProcBuilder::new("p");
        let a = b.tensor("A", DataType::F32, vec![Expr::int(4)]);
        b.write_config(c, f, Expr::int(1));
        b.assign(
            a,
            vec![Expr::ReadConfig {
                config: c,
                field: f,
            }],
            Expr::float(0.0),
        );
        let p = b.finish();
        let mut reg = GlobalReg::new();
        match effect_of_proc(&p, &mut reg) {
            Effect::Seq(parts) => {
                assert!(parts
                    .iter()
                    .any(|e| matches!(e, Effect::GlobalWrite(cc, ff) if *cc == c && *ff == f)));
                assert!(parts
                    .iter()
                    .any(|e| matches!(e, Effect::GlobalRead(cc, ff) if *cc == c && *ff == f)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn index_after_config_write_uses_dataflow_value() {
        // Cfg.s = 3; A[Cfg.s] = 0 — the write index must be 3, not the
        // entry value of Cfg.s
        let c = Sym::new("Cfg");
        let f = Sym::new("s");
        let mut b = ProcBuilder::new("p");
        let a = b.tensor("A", DataType::F32, vec![Expr::int(4)]);
        b.write_config(c, f, Expr::int(3));
        b.assign(
            a,
            vec![Expr::ReadConfig {
                config: c,
                field: f,
            }],
            Expr::float(0.0),
        );
        let p = b.finish();
        let mut reg = GlobalReg::new();
        match effect_of_proc(&p, &mut reg) {
            Effect::Seq(parts) => {
                let write = parts
                    .iter()
                    .find_map(|e| match e {
                        Effect::Write(_, idx) => Some(idx.clone()),
                        _ => None,
                    })
                    .expect("a write effect");
                assert_eq!(write[0], EffExpr::Int(3));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
