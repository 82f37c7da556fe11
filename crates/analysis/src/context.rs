//! Contextual analyses (paper §6): everything a rewrite needs to know
//! about *where* in a procedure it is being applied.
//!
//! For a site (a statement path), [`site_ctx`] derives in one descent:
//! `CtrlPred` — the condition under which the site executes; `PreValG` —
//! the symbolic values of configuration fields on entry to the site; the
//! allocations and windows in scope; and the blocks the path runs
//! through, from which `PostEff` — a conservative effect of the code
//! executing after the site — is read. A [`SiteQuery`] poses a rewrite's
//! safety obligations at its site: goals under the site's hypothesis, the
//! bounds re-check of the code at the site, and the context-extension
//! rule (§6.2), which lifts a local equivalence to an equivalence of
//! whole procedures.

use std::collections::BTreeSet;

use exo_core::hash::HashMap;
use exo_core::ir::{ArgType, Block, Expr, Proc, Stmt};
use exo_core::path::StmtPath;
use exo_core::Sym;
use exo_smt::formula::Formula;
use exo_smt::linear::LinExpr;
use exo_smt::solver::Answer;

use crate::bounds::{check_site, CheckError};
use crate::check::SharedCheckCtx;
use crate::effects::{effect_of_block, Effect, ExtractCtx, SymView};
use crate::effexpr::{EffExpr, LowerCtx};
use crate::globals::{lift_in_env, val_g_stmt, GlobalEnv, GlobalReg};
use crate::interval::Env;
use crate::locset::{member, sets_of, SetKinds, Target};

/// Everything known about a rewrite site.
#[derive(Debug)]
pub struct SiteCtx<'p> {
    /// `CtrlPred`: enclosing loops' binder bounds and guard conditions
    /// (negated for else-branches), outermost first.
    pub ctrl: Vec<EffExpr>,
    /// `PreValG`: symbolic configuration state on entry to the site.
    pub genv: GlobalEnv,
    /// Procedure preconditions plus `size`-argument positivity, lifted.
    pub preds: Vec<EffExpr>,
    /// The allocations and windows in scope at the site, in program
    /// order, each with the configuration state it runs in.
    pub(crate) scope: Vec<(&'p Stmt, GlobalEnv)>,
    /// The blocks the path runs through, outermost first, each with the
    /// index it takes.
    pub(crate) levels: Vec<(&'p [Stmt], usize)>,
    /// The code at the site: its statement, or the whole body for the
    /// empty path.
    pub(crate) stmts: &'p [Stmt],
}

impl<'p> SiteCtx<'p> {
    /// The site of the whole body: preconditions only.
    pub(crate) fn whole(proc: &'p Proc, reg: &mut GlobalReg) -> SiteCtx<'p> {
        let mut preds: Vec<EffExpr> = Vec::new();
        for arg in &proc.args {
            if matches!(arg.ty, ArgType::Ctrl(exo_core::CtrlType::Size)) {
                preds.push(EffExpr::Int(1).le(EffExpr::Var(arg.name)));
            }
        }
        for p in &proc.preds {
            preds.push(lift_in_env(p, &GlobalEnv::identity(), reg));
        }
        SiteCtx {
            ctrl: Vec::new(),
            genv: GlobalEnv::identity(),
            preds,
            scope: Vec::new(),
            levels: Vec::new(),
            stmts: &proc.body,
        }
    }

    /// `CtrlPred` as one ternary expression.
    pub fn ctrl_pred(&self) -> EffExpr {
        self.ctrl
            .iter()
            .fold(EffExpr::Bool(true), |acc, c| acc.and(c.clone()))
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

/// Builds the [`SiteCtx`] for a statement path within a procedure: the
/// one descent every path-scoped quantity is read from. The empty path
/// is the site of the whole body.
///
/// Returns `None` if the path is invalid.
pub fn site_ctx<'p>(proc: &'p Proc, path: &StmtPath, reg: &mut GlobalReg) -> Option<SiteCtx<'p>> {
    let mut site = SiteCtx::whole(proc, reg);
    let steps = &path.0;
    let mut block: &[Stmt] = &proc.body;
    for (depth, step) in steps.iter().enumerate() {
        let stmt = block.get(step.idx)?;
        // dataflow over preceding siblings, noting the bindings in scope
        for s in &block[..step.idx] {
            if matches!(s, Stmt::Alloc { .. } | Stmt::WindowDef { .. }) {
                site.scope.push((s, site.genv.clone()));
            }
            site.genv = val_g_stmt(s, std::mem::take(&mut site.genv), reg);
        }
        site.levels.push((block, step.idx));
        let Some(next) = steps.get(depth + 1) else {
            site.stmts = std::slice::from_ref(stmt);
            return Some(site);
        };
        // descend
        let genv = &site.genv;
        match (stmt, next.block) {
            (Stmt::For { iter, lo, hi, body }, 0) => {
                let (lo, hi) = (lift_in_env(lo, genv, reg), lift_in_env(hi, genv, reg));
                site.ctrl.push(crate::conditions::bd(*iter, &lo, &hi));
                // the loop's state is also the state at the start of an
                // arbitrary iteration
                site.genv = val_g_stmt(stmt, std::mem::take(&mut site.genv), reg);
                block = body;
            }
            (Stmt::If { cond, body, .. }, 0) => {
                site.ctrl.push(lift_in_env(cond, genv, reg));
                block = body;
            }
            (Stmt::If { cond, orelse, .. }, 1) => {
                let c = lift_in_env(cond, genv, reg);
                site.ctrl.push(EffExpr::not(c));
                block = orelse;
            }
            _ => return None,
        }
    }
    Some(site)
}

/// A rewrite site's safety obligations, posed one way (§3.3, §5.7–5.8,
/// §6): expressions are lifted and effects extracted in the site's
/// `PreValG` state, and every goal is checked under the site's
/// assumptions. An `Unknown` answer is the caller's to reject.
pub struct SiteQuery<'a> {
    proc: &'a Proc,
    check: &'a SharedCheckCtx,
    site: SiteCtx<'a>,
    /// Extraction views of every allocation and window in the procedure,
    /// seeded on first use and shared by every extraction at the site.
    views: Option<HashMap<Sym, SymView>>,
    /// Lowering state shared by the goal and the hypothesis: lower the
    /// goal here before posing it.
    pub lctx: LowerCtx,
    /// Canonical global names.
    pub reg: &'a mut GlobalReg,
    /// [`Self::sat`] calls a model answered.
    models: usize,
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
            views: None,
            lctx: LowerCtx::new(),
            reg,
            models: 0,
        })
    }

    /// Lifts a control expression in the site's state.
    pub fn lift(&mut self, e: &Expr) -> EffExpr {
        lift_in_env(e, &self.site.genv, self.reg)
    }

    /// The effect of `stmts` run at the site.
    pub fn effect(&mut self, stmts: &[Stmt]) -> Effect {
        let genv = self.site.genv.clone();
        self.extract(genv, |ctx| effect_of_block(stmts, ctx))
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
        self.extract(genv, |ctx| parts.map(|part| effect_of_block(part, ctx)))
    }

    /// `PostEff`: a conservative effect of everything that executes after
    /// the site — later siblings at every level, innermost first, and for
    /// each enclosing loop the whole loop again, covering the remaining
    /// iterations. It is extracted in the entry state, with no site
    /// hypothesis.
    pub fn post_effect(&mut self) -> Effect {
        let levels = self.site.levels.len();
        let mut parts = Vec::new();
        for depth in (0..levels).rev() {
            let (block, idx) = self.site.levels[depth];
            let mut entry_effect =
                |stmts| self.extract(GlobalEnv::identity(), |ctx| effect_of_block(stmts, ctx));
            if depth + 1 < levels && matches!(block[idx], Stmt::For { .. }) {
                parts.push(entry_effect(&block[idx..=idx]));
            }
            parts.push(entry_effect(&block[idx + 1..]));
        }
        Effect::seq_all(parts)
    }

    /// The context-extension check (§6.2): given the set `polluted` of
    /// globals a local rewrite at the site fails to preserve, the
    /// whole-procedure equivalence holds modulo `polluted` provided the
    /// post-context definitely does not read any of them:
    /// `D(Rdg(PostEff) ∩ polluted = ∅)`. The goal carries no site
    /// hypothesis.
    pub fn extends_context(&mut self, polluted: &[(Sym, Sym)]) -> Answer {
        let sets = sets_of(&self.post_effect(), SetKinds::RD_G);
        let mut ctx = LowerCtx::new();
        let mut parts = Vec::new();
        for &(c, f) in polluted {
            let m = member(&sets.rd_g, &Target::Global(c, f), &mut ctx);
            parts.push(m.maybe().negate());
        }
        self.check
            .check_valid(ctx.assumptions().implies(Formula::and(parts)))
    }

    /// Statically checks every access, window, allocation extent and
    /// call-site precondition of the code at the site, under the site's
    /// preconditions, enclosing loops and guards, `PreValG` and the
    /// shapes in scope.
    ///
    /// # Errors
    ///
    /// Returns all violations found (including solver give-ups, which
    /// fail safe).
    pub fn check_bounds(&mut self) -> Result<(), Vec<CheckError>> {
        check_site(self.proc, &self.site, self.reg, self.check)
    }

    /// Whether `goal` (lowered in [`Self::lctx`]) is valid under the
    /// site's hypothesis: its assumptions and the lowering's side
    /// constraints. A goal that is literally `True` is valid without a
    /// query: the hypothesis is not lowered and nothing is counted.
    pub fn valid(&mut self, goal: Formula) -> Answer {
        if goal == Formula::True {
            return Answer::Yes;
        }
        let hyp = self.hypothesis();
        self.check.check_valid(hyp.implies(goal))
    }

    /// Whether `f` (lowered in [`Self::lctx`]) is satisfiable together
    /// with the site's hypothesis.
    ///
    /// A model decides first: the conjunction is evaluated at a few
    /// ground points of the box `near` (see [`holds_somewhere`]), and if
    /// one satisfies it the answer is `Yes` with no query: nothing is
    /// canonicalized, looked up or counted, and no budget is charged.
    /// `pair` names the iterators of a probe over two distinct
    /// iterations. Otherwise the solver decides the same conjunction.
    pub fn sat(&mut self, f: Formula, near: &Env, pair: Option<(Sym, Sym)>) -> Answer {
        let conj = Formula::and(vec![self.hypothesis(), f]);
        if holds_somewhere(&conj, near, pair) {
            self.models += 1;
            return Answer::Yes;
        }
        self.check.check_sat(&conj)
    }

    /// How many [`Self::sat`] calls a model answered.
    pub fn models(&self) -> usize {
        self.models
    }

    /// The box of the site's hypotheses (the preconditions, then
    /// `CtrlPred`, outermost first) and then `extra`; `None` when it is
    /// empty, so that they have no model.
    pub fn narrowed(&self, extra: &[EffExpr]) -> Option<Env> {
        Env::narrowed(self.site.preds.iter().chain(&self.site.ctrl).chain(extra))
    }

    /// The site's hypothesis as a formula, lowered in [`Self::lctx`]:
    /// its assumptions and the lowering's side constraints.
    pub fn hypothesis(&mut self) -> Formula {
        Formula::and(vec![
            self.site.assumptions(&mut self.lctx),
            self.lctx.assumptions(),
        ])
    }

    /// Runs `f` on an extraction context in state `genv` over the site's
    /// seeded views, which extraction leaves as it found them.
    fn extract<T>(&mut self, genv: GlobalEnv, f: impl FnOnce(&mut ExtractCtx<'_>) -> T) -> T {
        let views = match self.views.take() {
            Some(views) => views,
            None => seeded_views(self.proc, self.reg),
        };
        let mut ctx = ExtractCtx {
            ctrl: HashMap::default(),
            views,
            genv,
            reg: self.reg,
        };
        let out = f(&mut ctx);
        self.views = Some(ctx.views);
        out
    }
}

/// Whether `conj` holds at one of a few ground points of `env`: every
/// variable at the lower end of its interval, or every one at the upper
/// end (a variable with one finite end takes it both times). With
/// `pair = (x, x′)`, `x` and `x′` take `x`'s end and that end plus one,
/// either way round. Each point is substituted with [`Formula::subst`],
/// whose ground atoms evaluate as they go; a formula with a quantifier,
/// or a variable with no finite end (a stride, a quotient, an
/// unconstrained global), has no point, and the answer is `false`.
///
/// A `true` answer is a model: the conjunction is satisfiable.
fn holds_somewhere(conj: &Formula, env: &Env, pair: Option<(Sym, Sym)>) -> bool {
    if !quantifier_free(conj) {
        return false;
    }
    let mut vars = BTreeSet::new();
    conj.free_vars(&mut vars);
    let mut ends = Vec::with_capacity(vars.len());
    for v in vars {
        let [lo, hi] = env.get(v).ends();
        let (Some(lo), Some(hi)) = (lo.or(hi), hi.or(lo)) else {
            return false;
        };
        ends.push((v, [lo, hi]));
    }
    // `x`'s end, the base of the pair's two values
    let base = pair
        .and_then(|(x, _)| ends.iter().find(|&&(v, _)| v == x))
        .map(|&(_, [lo, _])| lo);
    let shifts: &[[i64; 2]] = match base {
        Some(_) => &[[0, 1], [1, 0]],
        None => &[[0, 0]],
    };
    for side in 0..2 {
        for shift in shifts {
            let value = |v: Sym, e: [i64; 2]| match (pair, base) {
                (Some((x, _)), Some(b)) if v == x => b.checked_add(shift[0]),
                (Some((_, x2)), Some(b)) if v == x2 => b.checked_add(shift[1]),
                _ => Some(e[side]),
            };
            let point: Option<Vec<(Sym, i64)>> =
                ends.iter().map(|&(v, e)| Some((v, value(v, e)?))).collect();
            if point.is_some_and(|p| holds_at(conj, &p)) {
                return true;
            }
        }
    }
    false
}

/// Whether `f` is `True` once every variable of `point` is replaced by
/// its value.
fn holds_at(f: &Formula, point: &[(Sym, i64)]) -> bool {
    let mut g: Option<Formula> = None;
    for &(v, c) in point {
        let next = g.as_ref().unwrap_or(f).subst(v, &LinExpr::constant(c));
        let done = matches!(next, Formula::True | Formula::False);
        g = Some(next);
        if done {
            break;
        }
    }
    g.as_ref().unwrap_or(f) == &Formula::True
}

fn quantifier_free(f: &Formula) -> bool {
    match f {
        Formula::True | Formula::False | Formula::Atom(_) => true,
        Formula::Not(g) => quantifier_free(g),
        Formula::And(fs) | Formula::Or(fs) => fs.iter().all(quantifier_free),
        Formula::Exists(..) | Formula::Forall(..) => false,
    }
}

/// The extraction views of a procedure's arguments and of every
/// allocation and window in its body, seeded in the entry state.
fn seeded_views(proc: &Proc, reg: &mut GlobalReg) -> HashMap<Sym, SymView> {
    let mut ctx = ExtractCtx::for_proc(proc, reg);
    seed_views(&proc.body, &mut ctx);
    ctx.views
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
        // the binder's bounds, then the guard
        assert_eq!(site.ctrl.len(), 2);
        let mut vars = std::collections::BTreeSet::new();
        site.ctrl[0].free_vars(&mut vars);
        assert!(vars.contains(&i));
        // size positivity + no explicit preds
        assert_eq!(site.preds.len(), 1);
        assert_eq!(site.levels.len(), 3);
        assert!(matches!(site.stmts, [Stmt::Assign { .. }]));
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
        let check = SharedCheckCtx::fresh();
        let post = SiteQuery::new(&p, &path, &mut reg, &check)
            .expect("valid path")
            .post_effect();
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
        let check = SharedCheckCtx::fresh();
        let mut q = SiteQuery::new(&p, &StmtPath::top(0), &mut reg, &check).expect("valid path");
        assert!(!q.extends_context(&[(c, f)]).is_yes());
        // polluting a *different* field is fine
        let g = Sym::new("other");
        assert!(q.extends_context(&[(c, g)]).is_yes());
    }
}
