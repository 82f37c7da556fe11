//! Static bounds checking and assertion checking (paper §3.1, §4.2).
//!
//! Dependent array types plus the quasi-affine restriction let Exo prove
//! every access in-bounds at scheduling time, giving memory safety with
//! no dynamic checks. Assertion checking verifies that each call site
//! establishes the callee's preconditions.
//!
//! Two entry points: [`check_bounds`] verifies a whole procedure;
//! [`check_bounds_at`] verifies only the subtree a rewrite dirtied,
//! replaying the surrounding context (shapes, binders, guards, config
//! dataflow) without re-proving it.

use std::fmt;

use exo_core::hash::HashMap;
use exo_core::ir::{ArgType, Expr, Proc, Stmt, WAccess};
use exo_core::path::StmtPath;
use exo_core::Sym;
use exo_smt::formula::Formula;
use exo_smt::solver::Answer;

use crate::check::SharedCheckCtx;
use crate::effexpr::{EffExpr, LowerCtx};
use crate::globals::{lift_in_env, val_g_stmt, GlobalEnv, GlobalReg};

/// A bounds or assertion violation (or a solver give-up, which is
/// reported as a failure — the checks fail safe).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CheckError {
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CheckError {}

struct Checker<'a> {
    reg: &'a mut GlobalReg,
    check: &'a SharedCheckCtx,
    /// shape (as effect expressions) per data symbol
    shapes: HashMap<Sym, Vec<EffExpr>>,
    /// path condition: binder bounds, guards, preconditions
    assumptions: Vec<EffExpr>,
    genv: GlobalEnv,
    errors: Vec<CheckError>,
    /// When false, obligations are skipped: the checker only replays
    /// shape registration and dataflow. Used to absorb the context
    /// *around* a dirty subtree without re-proving it.
    verify: bool,
}

impl<'a> Checker<'a> {
    fn assume_formula(&mut self, ctx: &mut LowerCtx) -> Formula {
        let mut parts = Vec::new();
        for a in &self.assumptions {
            parts.push(ctx.lower_bool(a).maybe());
        }
        Formula::and(parts)
    }

    fn require(&mut self, goal: EffExpr, what: impl Fn() -> String) {
        if !self.verify {
            return;
        }
        exo_obs::counter_add("analysis.bounds.obligations", 1);
        let mut ctx = LowerCtx::new();
        let hyp = self.assume_formula(&mut ctx);
        let g = ctx.lower_bool(&goal).definitely();
        let query = Formula::and(vec![hyp, ctx.assumptions()]).implies(g);
        match self.check.check_valid(&query) {
            Answer::Yes => {}
            Answer::No => self.errors.push(CheckError { message: what() }),
            Answer::Unknown => self.errors.push(CheckError {
                message: format!("{} (solver gave up; failing safe)", what()),
            }),
        }
    }

    fn lift(&mut self, e: &Expr) -> EffExpr {
        lift_in_env(e, &self.genv, self.reg)
    }

    fn check_access(&mut self, buf: Sym, idx: &[Expr], what: &str) {
        let Some(shape) = self.shapes.get(&buf).cloned() else {
            // windows are checked at definition; accesses through them are
            // within the window's shape which we also track
            return;
        };
        if idx.is_empty() {
            return;
        }
        if idx.len() != shape.len() {
            self.errors.push(CheckError {
                message: format!(
                    "{what} of {buf}: {} indices for rank {}",
                    idx.len(),
                    shape.len()
                ),
            });
            return;
        }
        for (d, (i, n)) in idx.iter().zip(&shape).enumerate() {
            let ie = self.lift(i);
            let goal = EffExpr::Int(0).le(ie.clone()).and(ie.lt(n.clone()));
            self.require(goal, || {
                format!(
                    "{what} of {buf} may be out of bounds in dimension {d}: \
                     index {}",
                    exo_core::printer::expr_to_string(i)
                )
            });
        }
    }

    fn check_block(&mut self, block: &[Stmt]) {
        self.check_stmts(block, false);
    }

    /// Walks `block`; with `retain` the shapes registered by its
    /// `Alloc`/`WindowDef` statements stay in scope afterwards (used when
    /// absorbing the prefix of a block around a dirty subtree).
    fn check_stmts(&mut self, block: &[Stmt], retain: bool) {
        let mut added: Vec<Sym> = Vec::new();
        for s in block {
            // the state after `s`, which inside a loop body is also the
            // state at the start of an iteration
            let after = val_g_stmt(s, self.genv.clone(), self.reg);
            match s {
                Stmt::Assign { buf, idx, rhs } | Stmt::Reduce { buf, idx, rhs } => {
                    self.check_access(*buf, idx, "store");
                    self.check_expr(rhs);
                }
                Stmt::WriteConfig { rhs, .. } => self.check_expr(rhs),
                Stmt::Pass => {}
                Stmt::If { cond, body, orelse } => {
                    self.check_expr(cond);
                    let c = self.lift(cond);
                    let entry = self.genv.clone();
                    self.assumptions.push(c.clone());
                    self.check_block(body);
                    self.assumptions.pop();
                    self.genv = entry;
                    self.assumptions.push(EffExpr::Not(Box::new(c)));
                    self.check_block(orelse);
                    self.assumptions.pop();
                }
                Stmt::For { iter, lo, hi, body } => {
                    self.check_expr(lo);
                    self.check_expr(hi);
                    let lo_e = self.lift(lo);
                    let hi_e = self.lift(hi);
                    self.assumptions
                        .push(crate::conditions::bd(*iter, &lo_e, &hi_e));
                    self.genv = after.clone();
                    self.check_block(body);
                    self.assumptions.pop();
                }
                Stmt::Alloc { name, shape, .. } => {
                    let se: Vec<EffExpr> = shape.iter().map(|e| self.lift(e)).collect();
                    for (d, n) in se.iter().enumerate() {
                        self.require(EffExpr::Int(1).le(n.clone()), || {
                            format!("allocation {name} may have non-positive extent in dim {d}")
                        });
                    }
                    self.shapes.insert(*name, se);
                    added.push(*name);
                }
                Stmt::WindowDef { name, rhs } => {
                    if let Expr::Window { buf, coords } = rhs {
                        let wshape = self.check_window(*buf, coords);
                        self.shapes.insert(*name, wshape);
                        added.push(*name);
                    }
                }
                Stmt::Call { proc, args } => self.check_call(proc, args),
            }
            self.genv = after;
        }
        if !retain {
            for s in added {
                self.shapes.remove(&s);
            }
        }
    }

    fn check_window(&mut self, buf: Sym, coords: &[WAccess]) -> Vec<EffExpr> {
        let Some(shape) = self.shapes.get(&buf).cloned() else {
            return coords
                .iter()
                .filter(|c| c.is_interval())
                .map(|_| EffExpr::Unknown)
                .collect();
        };
        let mut out = Vec::new();
        for (d, (c, n)) in coords.iter().zip(&shape).enumerate() {
            match c {
                WAccess::Point(p) => {
                    let pe = self.lift(p);
                    self.require(EffExpr::Int(0).le(pe.clone()).and(pe.lt(n.clone())), || {
                        format!("window point access of {buf} out of bounds in dim {d}")
                    });
                }
                WAccess::Interval(lo, hi) => {
                    let lo_e = self.lift(lo);
                    let hi_e = self.lift(hi);
                    self.require(
                        EffExpr::Int(0)
                            .le(lo_e.clone())
                            .and(lo_e.clone().le(hi_e.clone()))
                            .and(hi_e.clone().le(n.clone())),
                        || format!("window interval of {buf} out of bounds in dim {d}"),
                    );
                    out.push(EffExpr::bin(exo_core::BinOp::Sub, hi_e, lo_e));
                }
            }
        }
        out
    }

    fn check_call(&mut self, proc: &Proc, args: &[Expr]) {
        // check argument expressions and collect the control substitution
        let mut subst: HashMap<Sym, EffExpr> = HashMap::default();
        for (formal, actual) in proc.args.iter().zip(args) {
            match &formal.ty {
                ArgType::Ctrl(_) => {
                    self.check_expr(actual);
                    subst.insert(formal.name, self.lift(actual));
                }
                ArgType::Scalar { .. } => {}
                ArgType::Tensor { .. } => {
                    if let Expr::Window { buf, coords } = actual {
                        self.check_window(*buf, coords);
                    }
                }
            }
        }
        // assertion checking: the callee's preconditions must hold here,
        // reading configuration fields in the caller's current state and
        // the actuals for the control formals
        for pred in &proc.preds {
            let lifted = self.lift(pred).subst(&subst);
            self.require(lifted, || {
                format!(
                    "call to {} may violate its precondition: {}",
                    proc.name,
                    exo_core::printer::expr_to_string(pred)
                )
            });
        }
        // recursively checking the callee body happens when the callee is
        // itself checked; call-site duty is only the preconditions
    }

    fn check_expr(&mut self, e: &Expr) {
        match e {
            Expr::Read { buf, idx } => {
                self.check_access(*buf, idx, "read");
                idx.iter().for_each(|i| self.check_expr(i));
            }
            Expr::BinOp(_, a, b) => {
                self.check_expr(a);
                self.check_expr(b);
            }
            Expr::Neg(a) => self.check_expr(a),
            Expr::Window { buf, coords } => {
                self.check_window(*buf, coords);
            }
            Expr::BuiltIn { args, .. } => args.iter().for_each(|a| self.check_expr(a)),
            _ => {}
        }
    }
}

/// Seeds the checker state every entry point shares: argument shapes,
/// size positivity, and the procedure's preconditions.
fn seed(proc: &Proc, reg: &mut GlobalReg) -> (HashMap<Sym, Vec<EffExpr>>, Vec<EffExpr>) {
    let mut shapes = HashMap::default();
    let mut assumptions = Vec::new();
    for arg in &proc.args {
        match &arg.ty {
            ArgType::Tensor { shape, .. } => {
                let se: Vec<EffExpr> = shape
                    .iter()
                    .map(|e| lift_in_env(e, &GlobalEnv::identity(), reg))
                    .collect();
                shapes.insert(arg.name, se);
            }
            ArgType::Scalar { .. } => {
                shapes.insert(arg.name, vec![]);
            }
            ArgType::Ctrl(exo_core::CtrlType::Size) => {
                assumptions.push(EffExpr::Int(1).le(EffExpr::Var(arg.name)));
            }
            ArgType::Ctrl(_) => {}
        }
    }
    for p in &proc.preds {
        assumptions.push(lift_in_env(p, &GlobalEnv::identity(), reg));
    }
    (shapes, assumptions)
}

/// Statically checks every buffer access, window, allocation extent, and
/// call-site precondition in `proc`.
///
/// # Errors
///
/// Returns all violations found (including solver give-ups, which fail
/// safe).
pub fn check_bounds(
    proc: &Proc,
    reg: &mut GlobalReg,
    check: &SharedCheckCtx,
) -> Result<(), Vec<CheckError>> {
    let (shapes, assumptions) = seed(proc, reg);
    let mut checker = Checker {
        reg,
        check,
        shapes,
        assumptions,
        genv: GlobalEnv::identity(),
        errors: Vec::new(),
        verify: true,
    };
    let mut span = exo_obs::Span::enter("analysis.check_bounds")
        .with_field("proc", exo_obs::Json::Str(proc.name.to_string()));
    checker.check_block(&proc.body);
    span.field("errors", exo_obs::Json::uint(checker.errors.len() as u64));
    if checker.errors.is_empty() {
        Ok(())
    } else {
        Err(checker.errors)
    }
}

/// Statically checks only the subtree rooted at `scope`, replaying the
/// surrounding context without re-proving it.
///
/// A scheduling rewrite that modified exactly the statement at `scope`
/// cannot have invalidated obligations elsewhere, so the checker walks
/// down the path with verification off — registering allocation and
/// window shapes of preceding siblings, collecting binder bounds and
/// guard conditions, and advancing the configuration dataflow — and turns
/// verification on only for the dirty subtree. An empty or stale path
/// falls back to the whole-procedure [`check_bounds`].
///
/// # Errors
///
/// Returns all violations found *within the scope* (including solver
/// give-ups, which fail safe). Pre-existing violations outside the scope
/// are not re-reported.
pub fn check_bounds_at(
    proc: &Proc,
    scope: &StmtPath,
    reg: &mut GlobalReg,
    check: &SharedCheckCtx,
) -> Result<(), Vec<CheckError>> {
    if scope.is_empty() {
        return check_bounds(proc, reg, check);
    }
    let descent = check_scoped(proc, scope, reg, check);
    match descent {
        Some(errors) if errors.is_empty() => Ok(()),
        Some(errors) => Err(errors),
        // stale path (rewrite moved the scope out from under us): be
        // conservative and recheck everything
        None => check_bounds(proc, reg, check),
    }
}

/// The descent behind [`check_bounds_at`]; `None` means the path does not
/// address a statement in `proc`.
fn check_scoped(
    proc: &Proc,
    scope: &StmtPath,
    reg: &mut GlobalReg,
    check: &SharedCheckCtx,
) -> Option<Vec<CheckError>> {
    let (shapes, assumptions) = seed(proc, reg);
    let mut checker = Checker {
        reg,
        check,
        shapes,
        assumptions,
        genv: GlobalEnv::identity(),
        errors: Vec::new(),
        verify: false,
    };
    let mut span = exo_obs::Span::enter("analysis.check_bounds_at")
        .with_field("proc", exo_obs::Json::Str(proc.name.to_string()))
        .with_field("scope", exo_obs::Json::Str(scope.to_string()));
    exo_obs::counter_add("analysis.bounds.scoped_passes", 1);
    let steps = &scope.0;
    let mut block: &[Stmt] = &proc.body;
    for (depth, step) in steps.iter().enumerate() {
        // absorb preceding siblings: shapes and dataflow, no obligations
        checker.check_stmts(&block[..step.idx.min(block.len())], true);
        let stmt = block.get(step.idx)?;
        if depth + 1 == steps.len() {
            checker.verify = true;
            checker.check_block(std::slice::from_ref(stmt));
            span.field("errors", exo_obs::Json::uint(checker.errors.len() as u64));
            return Some(checker.errors);
        }
        match (stmt, steps[depth + 1].block) {
            (Stmt::For { iter, lo, hi, body }, 0) => {
                let lo_e = checker.lift(lo);
                let hi_e = checker.lift(hi);
                checker
                    .assumptions
                    .push(crate::conditions::bd(*iter, &lo_e, &hi_e));
                checker.genv = val_g_stmt(stmt, std::mem::take(&mut checker.genv), checker.reg);
                block = body;
            }
            (Stmt::If { cond, body, .. }, 0) => {
                let c = checker.lift(cond);
                checker.assumptions.push(c);
                block = body;
            }
            (Stmt::If { cond, orelse, .. }, 1) => {
                let c = checker.lift(cond);
                checker.assumptions.push(EffExpr::Not(Box::new(c)));
                block = orelse;
            }
            _ => return None,
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_core::build::{read, ProcBuilder};
    use exo_core::types::DataType;

    fn run(p: &Proc) -> Result<(), Vec<CheckError>> {
        let mut reg = GlobalReg::new();
        check_bounds(p, &mut reg, &SharedCheckCtx::process())
    }

    #[test]
    fn in_bounds_loop_accepted() {
        let mut b = ProcBuilder::new("p");
        let n = b.size("n");
        let a = b.tensor("A", DataType::F32, vec![Expr::var(n)]);
        let i = b.begin_for("i", Expr::int(0), Expr::var(n));
        b.assign(a, vec![Expr::var(i)], Expr::float(0.0));
        b.end_for();
        assert!(run(&b.finish()).is_ok());
    }

    #[test]
    fn off_by_one_rejected() {
        let mut b = ProcBuilder::new("p");
        let n = b.size("n");
        let a = b.tensor("A", DataType::F32, vec![Expr::var(n)]);
        let i = b.begin_for("i", Expr::int(0), Expr::var(n));
        b.assign(a, vec![Expr::var(i).add(Expr::int(1))], Expr::float(0.0));
        b.end_for();
        let errs = run(&b.finish()).unwrap_err();
        assert!(errs[0].message.contains("out of bounds"), "{:?}", errs);
    }

    #[test]
    fn guard_makes_access_safe() {
        // for i in 0..n+1: if i < n: A[i] = 0 — safe thanks to the guard
        let mut b = ProcBuilder::new("p");
        let n = b.size("n");
        let a = b.tensor("A", DataType::F32, vec![Expr::var(n)]);
        let i = b.begin_for("i", Expr::int(0), Expr::var(n).add(Expr::int(1)));
        b.begin_if(Expr::var(i).lt(Expr::var(n)));
        b.assign(a, vec![Expr::var(i)], Expr::float(0.0));
        b.end_if();
        b.end_for();
        assert!(run(&b.finish()).is_ok());
    }

    #[test]
    fn tiled_access_with_divisibility_pred() {
        // assert n % 16 == 0; for io in 0..n/16: for ii in 0..16:
        //   A[16·io + ii] — in bounds only thanks to the assertion
        let build = |with_pred: bool| {
            let mut b = ProcBuilder::new("p");
            let n = b.size("n");
            if with_pred {
                b.assert_pred(Expr::var(n).rem(Expr::int(16)).eq(Expr::int(0)));
            }
            let a = b.tensor("A", DataType::F32, vec![Expr::var(n)]);
            let io = b.begin_for("io", Expr::int(0), Expr::var(n).div(Expr::int(16)));
            let ii = b.begin_for("ii", Expr::int(0), Expr::int(16));
            b.assign(
                a,
                vec![Expr::var(io).mul(Expr::int(16)).add(Expr::var(ii))],
                Expr::float(0.0),
            );
            b.end_for().end_for();
            b.finish()
        };
        assert!(run(&build(true)).is_ok());
        // without the divisibility assertion … it is still fine!
        // (16·(n/16) ≤ n holds by flooring); tighten: use n/16 + 1 tiles
        let mut b = ProcBuilder::new("p2");
        let n = b.size("n");
        let a = b.tensor("A", DataType::F32, vec![Expr::var(n)]);
        let io = b.begin_for(
            "io",
            Expr::int(0),
            Expr::var(n).div(Expr::int(16)).add(Expr::int(1)),
        );
        let ii = b.begin_for("ii", Expr::int(0), Expr::int(16));
        b.assign(
            a,
            vec![Expr::var(io).mul(Expr::int(16)).add(Expr::var(ii))],
            Expr::float(0.0),
        );
        b.end_for().end_for();
        assert!(run(&b.finish()).is_err());
    }

    #[test]
    fn window_definition_checked() {
        let mut b = ProcBuilder::new("p");
        let a = b.tensor("A", DataType::F32, vec![Expr::int(8)]);
        // x = A[4:12] — out of bounds
        let _x = b.window("x", a, vec![WAccess::Interval(Expr::int(4), Expr::int(12))]);
        b.stmt(Stmt::Pass);
        let errs = run(&b.finish()).unwrap_err();
        assert!(errs[0].message.contains("window interval"), "{:?}", errs);
    }

    #[test]
    fn access_through_window_uses_window_shape() {
        let mut b = ProcBuilder::new("p");
        let a = b.tensor("A", DataType::F32, vec![Expr::int(8)]);
        let x = b.window("x", a, vec![WAccess::Interval(Expr::int(2), Expr::int(6))]);
        // x has extent 4: x[3] fine, x[4] not
        b.assign(x, vec![Expr::int(3)], Expr::float(0.0));
        assert!(run(&b.finish()).is_ok());

        let mut b2 = ProcBuilder::new("p2");
        let a2 = b2.tensor("A", DataType::F32, vec![Expr::int(8)]);
        let x2 = b2.window("x", a2, vec![WAccess::Interval(Expr::int(2), Expr::int(6))]);
        b2.assign(x2, vec![Expr::int(4)], Expr::float(0.0));
        assert!(run(&b2.finish()).is_err());
    }

    #[test]
    fn callee_precondition_enforced() {
        // callee asserts m ≤ 16 (the paper's ld_data)
        let mut cb = ProcBuilder::new("ld_data");
        let m = cb.size("m");
        cb.assert_pred(Expr::var(m).le(Expr::int(16)));
        cb.stmt(Stmt::Pass);
        let callee = cb.finish();

        let mut ok = ProcBuilder::new("ok");
        ok.call(&callee, vec![Expr::int(8)]);
        assert!(run(&ok.finish()).is_ok());

        let mut bad = ProcBuilder::new("bad");
        bad.call(&callee, vec![Expr::int(32)]);
        let errs = run(&bad.finish()).unwrap_err();
        assert!(errs[0].message.contains("precondition"), "{:?}", errs);
    }

    #[test]
    fn caller_pred_discharges_callee_pred() {
        let mut cb = ProcBuilder::new("callee");
        let m = cb.size("m");
        cb.assert_pred(Expr::var(m).le(Expr::int(16)));
        cb.stmt(Stmt::Pass);
        let callee = cb.finish();

        let mut b = ProcBuilder::new("caller");
        let n = b.size("n");
        b.assert_pred(Expr::var(n).le(Expr::int(8)));
        b.call(&callee, vec![Expr::var(n)]);
        assert!(run(&b.finish()).is_ok());
    }

    #[test]
    fn read_of_data_expr_checked() {
        let mut b = ProcBuilder::new("p");
        let a = b.tensor("A", DataType::F32, vec![Expr::int(4)]);
        let c = b.tensor("C", DataType::F32, vec![Expr::int(4)]);
        b.assign(c, vec![Expr::int(0)], read(a, vec![Expr::int(9)]));
        let errs = run(&b.finish()).unwrap_err();
        assert!(errs[0].message.contains("read"), "{:?}", errs);
    }

    /// Two sibling loops, the second out of bounds: the scoped check sees
    /// only what its path addresses.
    fn two_loop_proc() -> std::sync::Arc<Proc> {
        let mut b = ProcBuilder::new("p");
        let n = b.size("n");
        let a = b.tensor("A", DataType::F32, vec![Expr::var(n)]);
        let i = b.begin_for("i", Expr::int(0), Expr::var(n));
        b.assign(a, vec![Expr::var(i)], Expr::float(0.0));
        b.end_for();
        let j = b.begin_for("j", Expr::int(0), Expr::var(n));
        b.assign(a, vec![Expr::var(j).add(Expr::int(1))], Expr::float(0.0));
        b.end_for();
        b.finish()
    }

    #[test]
    fn scoped_check_sees_only_its_subtree() {
        let p = two_loop_proc();
        let mut reg = GlobalReg::new();
        let check = SharedCheckCtx::process();
        assert!(check_bounds(&p, &mut reg, &check).is_err());
        assert!(check_bounds_at(&p, &StmtPath::top(0), &mut reg, &check).is_ok());
        assert!(check_bounds_at(&p, &StmtPath::top(1), &mut reg, &check).is_err());
    }

    #[test]
    fn scoped_check_uses_enclosing_binders_and_guards() {
        // for i in 0..n+1: if i < n: A[i] = 0 — the store is only safe
        // given both the binder bound and the guard, which the scoped
        // check must replay on its way down.
        let mut b = ProcBuilder::new("p");
        let n = b.size("n");
        let a = b.tensor("A", DataType::F32, vec![Expr::var(n)]);
        let i = b.begin_for("i", Expr::int(0), Expr::var(n).add(Expr::int(1)));
        b.begin_if(Expr::var(i).lt(Expr::var(n)));
        b.assign(a, vec![Expr::var(i)], Expr::float(0.0));
        b.end_if();
        b.end_for();
        let p = b.finish();
        let mut reg = GlobalReg::new();
        let check = SharedCheckCtx::process();
        let store = StmtPath::top(0).child(0, 0).child(0, 0);
        assert!(check_bounds_at(&p, &store, &mut reg, &check).is_ok());
    }

    #[test]
    fn scoped_check_registers_preceding_sibling_shapes() {
        // tmp is allocated by an earlier sibling; the scoped check of the
        // second loop must know tmp's shape to verify (and reject) it.
        let mut b = ProcBuilder::new("p");
        let tmp = b.alloc(
            "tmp",
            DataType::F32,
            vec![Expr::int(4)],
            exo_core::types::MemName::dram(),
        );
        let i = b.begin_for("i", Expr::int(0), Expr::int(8));
        b.assign(tmp, vec![Expr::var(i)], Expr::float(0.0));
        b.end_for();
        let p = b.finish();
        let mut reg = GlobalReg::new();
        let check = SharedCheckCtx::process();
        let errs = check_bounds_at(&p, &StmtPath::top(1), &mut reg, &check).unwrap_err();
        assert!(errs[0].message.contains("out of bounds"), "{:?}", errs);
    }

    #[test]
    fn stale_scope_falls_back_to_full_check() {
        let p = two_loop_proc();
        let mut reg = GlobalReg::new();
        let check = SharedCheckCtx::process();
        // path points past the end of the body: full (failing) recheck
        assert!(check_bounds_at(&p, &StmtPath::top(7), &mut reg, &check).is_err());
    }
}
