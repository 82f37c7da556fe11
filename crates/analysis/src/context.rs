//! Contextual analyses (paper §6): everything a rewrite needs to know
//! about *where* in a procedure it is being applied.
//!
//! For a site (a statement path), we derive: `CtrlPred` — the condition
//! under which the site executes; `PreValG` — the symbolic values of
//! configuration fields on entry to the site; and `PostEff` — a
//! conservative effect of the code executing after the site. The
//! context-extension rule (§6.2) combines these to lift a local
//! equivalence to an equivalence of whole procedures. A [`SiteQuery`]
//! poses a rewrite's safety obligation at its site.

use exo_core::ir::{ArgType, Block, Expr, Proc, Stmt};
use exo_core::path::{PathStep, StmtPath};
use exo_core::Sym;
use exo_smt::formula::Formula;
use exo_smt::solver::Answer;

use crate::check::SharedCheckCtx;
use crate::effects::{effect_of_block, Effect, ExtractCtx, SymView};
use crate::effexpr::{EffExpr, LowerCtx};
use crate::globals::{lift_in_env, val_g_block, val_g_stmt, GlobalEnv, GlobalReg};

/// An enclosing loop binder with its (dataflow-lifted) bounds.
#[derive(Clone, PartialEq, Debug)]
pub struct Binder {
    /// Iteration variable.
    pub var: Sym,
    /// Lower bound.
    pub lo: EffExpr,
    /// Upper bound.
    pub hi: EffExpr,
}

/// Everything known about a rewrite site.
#[derive(Debug)]
pub struct SiteCtx {
    /// Enclosing loop binders, outermost first.
    pub binders: Vec<Binder>,
    /// Enclosing guard conditions (negated for else-branches).
    pub guards: Vec<EffExpr>,
    /// `PreValG`: symbolic configuration state on entry to the site.
    pub genv: GlobalEnv,
    /// Procedure preconditions plus `size`-argument positivity, lifted.
    pub preds: Vec<EffExpr>,
}

impl SiteCtx {
    /// `CtrlPred` as one ternary expression (conjunction of binder
    /// bounds and guards).
    pub fn ctrl_pred(&self) -> EffExpr {
        let mut acc = EffExpr::Bool(true);
        for b in &self.binders {
            acc = acc.and(crate::conditions::bd(b.var, &b.lo, &b.hi));
        }
        for g in &self.guards {
            acc = acc.and(g.clone());
        }
        acc
    }

    /// The classical assumption formula for solver queries at this site:
    /// preconditions hold and the site executes (`M CtrlPred` — rewrites
    /// need only be safe when the code actually runs).
    pub fn assumptions(&self, ctx: &mut LowerCtx) -> Formula {
        let mut parts = Vec::new();
        for p in &self.preds {
            parts.push(ctx.lower_bool(p).definitely());
        }
        parts.push(ctx.lower_bool(&self.ctrl_pred()).maybe());
        Formula::and(parts)
    }
}

/// Builds the [`SiteCtx`] for a statement path within a procedure.
///
/// Returns `None` if the path is invalid.
pub fn site_ctx(proc: &Proc, path: &StmtPath, reg: &mut GlobalReg) -> Option<SiteCtx> {
    let mut binders = Vec::new();
    let mut guards = Vec::new();
    let mut genv = GlobalEnv::identity();

    let mut preds: Vec<EffExpr> = Vec::new();
    for arg in &proc.args {
        if matches!(arg.ty, ArgType::Ctrl(exo_core::CtrlType::Size)) {
            preds.push(EffExpr::Int(1).le(EffExpr::Var(arg.name)));
        }
    }
    for p in &proc.preds {
        preds.push(lift_in_env(p, &GlobalEnv::identity(), reg));
    }

    let mut block: &Block = &proc.body;
    let steps = &path.0;
    for (depth, step) in steps.iter().enumerate() {
        let PathStep { idx, .. } = *step;
        // dataflow over preceding siblings
        let preceding = &block[..idx.min(block.len())];
        genv = val_g_block(preceding, genv, reg);
        let stmt = block.get(idx)?;
        if depth + 1 == steps.len() {
            return Some(SiteCtx {
                binders,
                guards,
                genv,
                preds,
            });
        }
        // descend
        match (stmt, steps[depth + 1].block) {
            (Stmt::For { iter, lo, hi, body }, 0) => {
                let lo_e = lift_in_env(lo, &genv, reg);
                let hi_e = lift_in_env(hi, &genv, reg);
                binders.push(Binder {
                    var: *iter,
                    lo: lo_e,
                    hi: hi_e,
                });
                // the loop's state is also the state at the start of an
                // arbitrary iteration
                genv = val_g_stmt(stmt, genv, reg);
                block = body;
            }
            (Stmt::If { cond, body, .. }, 0) => {
                guards.push(lift_in_env(cond, &genv, reg));
                block = body;
            }
            (Stmt::If { cond, orelse, .. }, 1) => {
                guards.push(EffExpr::Not(Box::new(lift_in_env(cond, &genv, reg))));
                block = orelse;
            }
            _ => return None,
        }
    }
    None
}

/// A rewrite site's safety obligations, posed one way (§3.3, §5.7–5.8,
/// §6): expressions are lifted and effects extracted in the site's
/// `PreValG` state, and every goal is checked under the site's
/// assumptions. An `Unknown` answer is the caller's to reject.
pub struct SiteQuery<'a> {
    proc: &'a Proc,
    check: &'a SharedCheckCtx,
    site: SiteCtx,
    /// Lowering state shared by the goal and the hypothesis: lower the
    /// goal here before posing it.
    pub lctx: LowerCtx,
    /// Canonical global names.
    pub reg: &'a mut GlobalReg,
}

impl<'a> SiteQuery<'a> {
    /// The query at `path` in `proc`; `None` if the path is invalid.
    pub fn new(
        proc: &'a Proc,
        path: &StmtPath,
        reg: &'a mut GlobalReg,
        check: &'a SharedCheckCtx,
    ) -> Option<SiteQuery<'a>> {
        let site = site_ctx(proc, path, reg)?;
        Some(SiteQuery {
            proc,
            check,
            site,
            lctx: LowerCtx::new(),
            reg,
        })
    }

    /// Lifts a control expression in the site's state.
    pub fn lift(&mut self, e: &Expr) -> EffExpr {
        lift_in_env(e, &self.site.genv, self.reg)
    }

    /// The effect of `stmts` run at the site.
    pub fn effect(&mut self, stmts: &[Stmt]) -> Effect {
        effect_of_stmts_at(self.proc, stmts, &self.site.genv, self.reg)
    }

    /// The effects of consecutive `parts` of a loop body. `loops` holds
    /// the loop at the site and then any loops nested in it, outermost
    /// first; the parts make up (part of) the innermost one's body. The
    /// first part starts in the innermost loop's `ValG` state — the state
    /// at the start of an arbitrary iteration — and each later part in
    /// the state after the parts before it.
    pub fn body_effects<const N: usize>(
        &mut self,
        loops: &[&Stmt],
        parts: [&[Stmt]; N],
    ) -> [Effect; N] {
        let mut genv = self.site.genv.clone();
        for lp in loops {
            genv = val_g_stmt(lp, genv, self.reg);
        }
        let mut ctx = extract_ctx(self.proc, &genv, self.reg);
        parts.map(|part| effect_of_block(part, &mut ctx))
    }

    /// Whether `goal` (lowered in [`Self::lctx`]) is valid under the
    /// site's hypothesis: its assumptions and the lowering's side
    /// constraints.
    pub fn valid(&mut self, goal: Formula) -> Answer {
        let hyp = self.hypothesis();
        self.check.check_valid(&hyp.implies(goal))
    }

    /// Whether `f` (lowered in [`Self::lctx`]) is satisfiable together
    /// with the site's hypothesis.
    pub fn sat(&mut self, f: Formula) -> Answer {
        let hyp = self.hypothesis();
        self.check.check_sat(&Formula::and(vec![hyp, f]))
    }

    fn hypothesis(&mut self) -> Formula {
        Formula::and(vec![
            self.site.assumptions(&mut self.lctx),
            self.lctx.assumptions(),
        ])
    }
}

/// `PostEff`: a conservative effect of everything that executes after
/// the site (later siblings at every level, plus — for enclosing loops —
/// the whole loop again, covering the remaining iterations).
pub fn post_effect(proc: &Proc, path: &StmtPath, reg: &mut GlobalReg) -> Effect {
    let mut parts: Vec<Effect> = Vec::new();
    collect_post(proc, &proc.body, &path.0, reg, &mut parts);
    Effect::seq_all(parts)
}

fn collect_post(
    proc: &Proc,
    block: &Block,
    steps: &[PathStep],
    reg: &mut GlobalReg,
    out: &mut Vec<Effect>,
) {
    let Some(step) = steps.first() else { return };
    let idx = step.idx;
    // recurse first (innermost trailing statements execute earliest, but
    // order is irrelevant for the conservative union we build here)
    if steps.len() > 1 {
        if let Some(stmt) = block.get(idx) {
            let inner_block = match (stmt, steps[1].block) {
                (Stmt::For { body, .. }, 0) => Some(body),
                (Stmt::If { body, .. }, 0) => Some(body),
                (Stmt::If { orelse, .. }, 1) => Some(orelse),
                _ => None,
            };
            if let Some(b) = inner_block {
                collect_post(proc, b, &steps[1..], reg, out);
            }
            // an enclosing loop may run further iterations containing the
            // site and everything around it: approximate with the whole
            // loop's effect
            if matches!(stmt, Stmt::For { .. }) {
                let whole = std::slice::from_ref(stmt);
                out.push(effect_of_stmts_at(proc, whole, &GlobalEnv::identity(), reg));
            }
        }
    }
    // later siblings in this block
    if idx < block.len() {
        let later = &block[idx + 1..];
        out.push(effect_of_stmts_at(proc, later, &GlobalEnv::identity(), reg));
    }
}

/// Extracts the effect of statements as they appear at a site in state
/// `genv`.
fn effect_of_stmts_at(
    proc: &Proc,
    stmts: &[Stmt],
    genv: &GlobalEnv,
    reg: &mut GlobalReg,
) -> Effect {
    effect_of_block(stmts, &mut extract_ctx(proc, genv, reg))
}

/// An extraction context for code at a site: views are seeded from every
/// allocation/window in the procedure, and the dataflow environment is
/// `genv`.
fn extract_ctx<'r>(proc: &Proc, genv: &GlobalEnv, reg: &'r mut GlobalReg) -> ExtractCtx<'r> {
    let mut ctx = ExtractCtx::for_proc(proc, reg);
    seed_views(&proc.body, &mut ctx);
    ctx.genv = genv.clone();
    ctx
}

fn seed_views(block: &Block, ctx: &mut ExtractCtx<'_>) {
    for s in block {
        match s {
            Stmt::Alloc { name, shape, .. } => {
                ctx.views
                    .insert(*name, SymView::identity(*name, shape.len()));
            }
            Stmt::WindowDef {
                name,
                rhs: Expr::Window { buf, coords },
            } => {
                let base = ctx
                    .views
                    .get(buf)
                    .cloned()
                    .unwrap_or_else(|| SymView::identity(*buf, coords.len()));
                let v = base.window(coords, ctx);
                ctx.views.insert(*name, v);
            }
            Stmt::For { body, .. } => seed_views(body, ctx),
            Stmt::If { body, orelse, .. } => {
                seed_views(body, ctx);
                seed_views(orelse, ctx);
            }
            _ => {}
        }
    }
}

/// The context-extension check (§6.2): given the set `polluted` of
/// globals a local rewrite fails to preserve, the whole-procedure
/// equivalence holds modulo `polluted` provided the post-context
/// definitely does not read any of them:
/// `D(Rdg(PostEff) ∩ polluted = ∅)`.
pub fn context_extension_ok(
    proc: &Proc,
    path: &StmtPath,
    polluted: &[(Sym, Sym)],
    reg: &mut GlobalReg,
    check: &SharedCheckCtx,
) -> bool {
    if polluted.is_empty() {
        return true;
    }
    let post = post_effect(proc, path, reg);
    let sets = crate::locset::sets_of(&post);
    let mut ctx = LowerCtx::new();
    let mut parts = Vec::new();
    for &(c, f) in polluted {
        let m = crate::locset::member(&sets.rd_g, &crate::locset::Target::Global(c, f), &mut ctx);
        parts.push(m.maybe().negate());
    }
    let goal = ctx.assumptions().implies(Formula::and(parts));
    check.check_valid(&goal).is_yes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_core::build::ProcBuilder;
    use exo_core::types::DataType;

    #[test]
    fn binders_and_guards_collected() {
        let mut b = ProcBuilder::new("p");
        let n = b.size("n");
        let a = b.tensor("A", DataType::F32, vec![Expr::var(n)]);
        let i = b.begin_for("i", Expr::int(0), Expr::var(n));
        b.begin_if(Expr::var(i).lt(Expr::int(4)));
        b.assign(a, vec![Expr::var(i)], Expr::float(0.0));
        b.end_if();
        b.end_for();
        let p = b.finish();
        let mut reg = GlobalReg::new();
        // path: for(0) → if(0) → assign(0)
        let path = StmtPath::top(0).child(0, 0).child(0, 0);
        let site = site_ctx(&p, &path, &mut reg).expect("valid path");
        assert_eq!(site.binders.len(), 1);
        assert_eq!(site.binders[0].var, i);
        assert_eq!(site.guards.len(), 1);
        // size positivity + no explicit preds
        assert_eq!(site.preds.len(), 1);
    }

    #[test]
    fn pre_valg_sees_earlier_writes() {
        let c = Sym::new("Cfg");
        let f = Sym::new("s");
        let mut b = ProcBuilder::new("p");
        b.write_config(c, f, Expr::int(9));
        b.stmt(Stmt::Pass);
        let p = b.finish();
        let mut reg = GlobalReg::new();
        let site = site_ctx(&p, &StmtPath::top(1), &mut reg).unwrap();
        assert_eq!(site.genv.value(c, f, &mut reg), EffExpr::Int(9));
    }

    #[test]
    fn post_effect_covers_later_siblings_and_loop_reentry() {
        let c = Sym::new("Cfg");
        let f = Sym::new("s");
        let mut b = ProcBuilder::new("p");
        let a = b.tensor("A", DataType::F32, vec![Expr::int(8)]);
        let i = b.begin_for("i", Expr::int(0), Expr::int(8));
        b.assign(a, vec![Expr::var(i)], Expr::float(0.0));
        b.write_config(c, f, Expr::int(1));
        b.end_for();
        let p = b.finish();
        let mut reg = GlobalReg::new();
        // site = the assign inside the loop
        let path = StmtPath::top(0).child(0, 0);
        let post = post_effect(&p, &path, &mut reg);
        // must include the config write (later sibling) and the loop
        // re-entry approximation
        let txt = format!("{post:?}");
        assert!(txt.contains("GlobalWrite"), "{txt}");
        assert!(txt.contains("Loop"), "{txt}");
    }

    #[test]
    fn context_extension_rejects_polluted_read() {
        let c = Sym::new("Cfg");
        let f = Sym::new("s");
        // site at stmt 0; stmt 1 reads Cfg.s via an if-condition
        let mut b = ProcBuilder::new("p");
        let a = b.tensor("A", DataType::F32, vec![Expr::int(2)]);
        b.stmt(Stmt::Pass);
        b.begin_if(
            Expr::ReadConfig {
                config: c,
                field: f,
            }
            .eq(Expr::int(0)),
        );
        b.assign(a, vec![Expr::int(0)], Expr::float(1.0));
        b.end_if();
        let p = b.finish();
        let mut reg = GlobalReg::new();
        let check = SharedCheckCtx::process();
        assert!(!context_extension_ok(
            &p,
            &StmtPath::top(0),
            &[(c, f)],
            &mut reg,
            &check
        ));
        // polluting a *different* field is fine
        let g = Sym::new("other");
        assert!(context_extension_ok(
            &p,
            &StmtPath::top(0),
            &[(c, g)],
            &mut reg,
            &check
        ));
    }
}
