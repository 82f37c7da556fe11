//! Static bounds checking and assertion checking (paper §3.1, §4.2).
//!
//! Dependent array types plus the quasi-affine restriction let Exo prove
//! every access in-bounds at scheduling time, giving memory safety with
//! no dynamic checks. Assertion checking verifies that each call site
//! establishes the callee's preconditions.
//!
//! One checker serves both uses. [`check_bounds`] verifies a whole
//! procedure: the checker has no enclosing site. A rewrite re-checks
//! only the code it changed through
//! [`crate::context::SiteQuery::check_bounds`]: the checker is seeded
//! from the site — preconditions, enclosing loop bounds and guards,
//! `PreValG` and the shapes in scope — and walks only the statement at
//! the site.
//!
//! Each obligation is first put to `interval::proves`: most bounds
//! goals follow from the enclosing loop bounds by interval arithmetic,
//! and those are discharged with nothing lowered. The rest are lowered
//! and decided by the solver through the shared checking context, so
//! every rejection is still the solver's.

use std::fmt;

use exo_core::hash::HashMap;
use exo_core::ir::{ArgType, Expr, Proc, Stmt, WAccess};
use exo_core::Sym;
use exo_smt::formula::Formula;
use exo_smt::solver::Answer;

use crate::check::SharedCheckCtx;
use crate::context::SiteCtx;
use crate::effexpr::{EffExpr, LowerCtx};
use crate::globals::{lift_in_env, val_g_stmt, GlobalEnv, GlobalReg};
use crate::interval;

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

/// The validity query of the obligation `goal` under the path condition
/// `hyp`: each hypothesis read as its `maybe`, the goal as its
/// `definitely`.
pub(crate) fn obligation_query(hyp: &[EffExpr], goal: &EffExpr) -> Formula {
    let mut ctx = LowerCtx::new();
    let hyp = Formula::and(hyp.iter().map(|a| ctx.lower_bool(a).maybe()).collect());
    let g = ctx.lower_bool(goal).definitely();
    Formula::and(vec![hyp, ctx.assumptions()]).implies(g)
}

struct Checker<'a> {
    reg: &'a mut GlobalReg,
    check: &'a SharedCheckCtx,
    /// shape (as effect expressions) per data symbol
    shapes: HashMap<Sym, Vec<EffExpr>>,
    /// path condition: preconditions, binder bounds, guards
    assumptions: Vec<EffExpr>,
    genv: GlobalEnv,
    /// Proof obligations posed so far: one per [`Checker::require`].
    obligations: u64,
    /// Of those, the ones [`interval::proves`] discharged; the rest were
    /// check queries.
    decided: u64,
    errors: Vec<CheckError>,
}

impl<'a> Checker<'a> {
    fn require(&mut self, goal: EffExpr, what: impl Fn() -> String) {
        self.obligations += 1;
        if interval::proves(&self.assumptions, &goal) {
            self.decided += 1;
            return;
        }
        match self
            .check
            .check_valid(obligation_query(&self.assumptions, &goal))
        {
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

    /// Walks `block`; the shapes its `Alloc`/`WindowDef` statements
    /// register go out of scope at its end.
    fn check_block(&mut self, block: &[Stmt]) {
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
                    self.assumptions.push(EffExpr::not(c));
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
                Stmt::Alloc { name, .. } => {
                    added.extend(self.bind(s));
                    let extents = self.shapes.get(name).cloned().unwrap_or_default();
                    for (d, n) in extents.into_iter().enumerate() {
                        self.require(EffExpr::Int(1).le(n), || {
                            format!("allocation {name} may have non-positive extent in dim {d}")
                        });
                    }
                }
                Stmt::WindowDef { rhs, .. } => {
                    if let Expr::Window { buf, coords } = rhs {
                        self.check_window(*buf, coords);
                    }
                    added.extend(self.bind(s));
                }
                Stmt::Call { proc, args } => self.check_call(proc, args),
            }
            self.genv = after;
        }
        for s in added {
            self.shapes.remove(&s);
        }
    }

    /// Registers the shape an allocation or window statement binds, in
    /// the current state; returns the bound name.
    fn bind(&mut self, s: &Stmt) -> Option<Sym> {
        let (name, shape) = match s {
            Stmt::Alloc { name, shape, .. } => {
                (*name, shape.iter().map(|e| self.lift(e)).collect())
            }
            Stmt::WindowDef {
                name,
                rhs: Expr::Window { buf, coords },
            } => (*name, self.window_shape(*buf, coords)),
            _ => return None,
        };
        self.shapes.insert(name, shape);
        Some(name)
    }

    /// The extents of the interval coordinates of the window
    /// `buf[coords]` (unknown when `buf`'s shape is).
    fn window_shape(&mut self, buf: Sym, coords: &[WAccess]) -> Vec<EffExpr> {
        let Some(rank) = self.shapes.get(&buf).map(Vec::len) else {
            return coords
                .iter()
                .filter(|c| c.is_interval())
                .map(|_| EffExpr::Unknown)
                .collect();
        };
        let mut out = Vec::new();
        for c in coords.iter().take(rank) {
            if let WAccess::Interval(lo, hi) = c {
                let lo_e = self.lift(lo);
                let hi_e = self.lift(hi);
                out.push(EffExpr::bin(exo_core::BinOp::Sub, hi_e, lo_e));
            }
        }
        out
    }

    /// Requires every coordinate of the window `buf[coords]` to lie in
    /// `buf`'s shape.
    fn check_window(&mut self, buf: Sym, coords: &[WAccess]) {
        let Some(shape) = self.shapes.get(&buf).cloned() else {
            return;
        };
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
                            .and(lo_e.le(hi_e.clone()))
                            .and(hi_e.le(n.clone())),
                        || format!("window interval of {buf} out of bounds in dim {d}"),
                    );
                }
            }
        }
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
            Expr::Window { buf, coords } => self.check_window(*buf, coords),
            Expr::BuiltIn { args, .. } => args.iter().for_each(|a| self.check_expr(a)),
            _ => {}
        }
    }
}

/// Statically checks every buffer access, window, allocation extent, and
/// call-site precondition in `proc`: the checker of
/// [`crate::context::SiteQuery::check_bounds`] with no enclosing site.
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
    let site = SiteCtx::whole(proc, reg);
    check_site(proc, &site, reg, check)
}

/// Checks the code at `site`: the argument shapes, then the site's
/// preconditions, enclosing loop bounds and guards in descent order, and
/// the shapes of the allocations and windows in scope seed the checker,
/// which walks only `site.stmts` in the site's `PreValG` state.
pub(crate) fn check_site(
    proc: &Proc,
    site: &SiteCtx<'_>,
    reg: &mut GlobalReg,
    check: &SharedCheckCtx,
) -> Result<(), Vec<CheckError>> {
    let mut shapes = HashMap::default();
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
            ArgType::Ctrl(_) => {}
        }
    }
    let mut assumptions = site.preds.clone();
    assumptions.extend(site.ctrl.iter().cloned());
    let mut checker = Checker {
        reg,
        check,
        shapes,
        assumptions,
        genv: GlobalEnv::identity(),
        obligations: 0,
        decided: 0,
        errors: Vec::new(),
    };
    for (s, genv) in &site.scope {
        checker.genv = genv.clone();
        checker.bind(s);
    }
    checker.genv = site.genv.clone();
    let mut span = exo_obs::Span::enter("analysis.check_bounds")
        .with_field("proc", exo_obs::Json::Str(proc.name.to_string()));
    checker.check_block(site.stmts);
    span.field("obligations", exo_obs::Json::uint(checker.obligations));
    span.field("decided", exo_obs::Json::uint(checker.decided));
    span.field("errors", exo_obs::Json::uint(checker.errors.len() as u64));
    if checker.errors.is_empty() {
        Ok(())
    } else {
        Err(checker.errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::SiteQuery;
    use exo_core::build::{read, ProcBuilder};
    use exo_core::path::StmtPath;
    use exo_core::types::DataType;

    fn run(p: &Proc) -> Result<(), Vec<CheckError>> {
        let mut reg = GlobalReg::new();
        check_bounds(p, &mut reg, &SharedCheckCtx::fresh())
    }

    /// The bounds check of the code at `path`, posed through its site;
    /// `None` if the path is invalid.
    fn run_at(p: &Proc, path: &StmtPath) -> Option<Result<(), Vec<CheckError>>> {
        let mut reg = GlobalReg::new();
        let check = SharedCheckCtx::fresh();
        let mut q = SiteQuery::new(p, path, &mut reg, &check)?;
        Some(q.check_bounds())
    }

    fn messages(r: Result<(), Vec<CheckError>>) -> Vec<String> {
        r.err()
            .unwrap_or_default()
            .into_iter()
            .map(|e| e.message)
            .collect()
    }

    /// `p` is rejected, and checking the offending statement at `path`
    /// or any of its ancestors fails with the whole-procedure check's
    /// messages.
    fn assert_rejected_at(p: &Proc, path: StmtPath) {
        let whole = messages(run(p));
        assert!(!whole.is_empty(), "{} is accepted", p.name);
        let mut site = Some(path);
        while let Some(at) = site {
            let got = run_at(p, &at).expect("valid path");
            assert_eq!(messages(got), whole, "checked at {at}");
            site = at.parent();
        }
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
        let p = b.finish();
        let errs = run(&p).unwrap_err();
        assert!(errs[0].message.contains("out of bounds"), "{:?}", errs);
        assert_rejected_at(&p, StmtPath::top(0).child(0, 0));
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
        let p2 = b.finish();
        assert!(run(&p2).is_err());
        assert_rejected_at(&p2, StmtPath::top(0).child(0, 0).child(0, 0));
    }

    #[test]
    fn window_definition_checked() {
        let mut b = ProcBuilder::new("p");
        let a = b.tensor("A", DataType::F32, vec![Expr::int(8)]);
        // x = A[4:12] — out of bounds
        let _x = b.window("x", a, vec![WAccess::Interval(Expr::int(4), Expr::int(12))]);
        b.stmt(Stmt::Pass);
        let p = b.finish();
        let errs = run(&p).unwrap_err();
        assert!(errs[0].message.contains("window interval"), "{:?}", errs);
        assert_rejected_at(&p, StmtPath::top(0));
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
        let p2 = b2.finish();
        assert!(run(&p2).is_err());
        // the window defined by the preceding sibling is in scope
        assert_rejected_at(&p2, StmtPath::top(1));
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
        let bad = bad.finish();
        let errs = run(&bad).unwrap_err();
        assert!(errs[0].message.contains("precondition"), "{:?}", errs);
        assert_rejected_at(&bad, StmtPath::top(0));
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
        let p = b.finish();
        let errs = run(&p).unwrap_err();
        assert!(errs[0].message.contains("read"), "{:?}", errs);
        assert_rejected_at(&p, StmtPath::top(0));
    }

    /// Two sibling loops, the second out of bounds: a site check sees
    /// only the statement its path addresses.
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
    fn site_check_sees_only_its_statement() {
        let p = two_loop_proc();
        assert!(run(&p).is_err());
        assert_eq!(run_at(&p, &StmtPath::top(0)), Some(Ok(())));
        assert_rejected_at(&p, StmtPath::top(1).child(0, 0));
    }

    #[test]
    fn site_check_uses_enclosing_binders_and_guards() {
        // for i in 0..n+1: if i < n: A[i] = 0 — the store is only safe
        // given both the binder bound and the guard, which the site
        // supplies.
        let mut b = ProcBuilder::new("p");
        let n = b.size("n");
        let a = b.tensor("A", DataType::F32, vec![Expr::var(n)]);
        let i = b.begin_for("i", Expr::int(0), Expr::var(n).add(Expr::int(1)));
        b.begin_if(Expr::var(i).lt(Expr::var(n)));
        b.assign(a, vec![Expr::var(i)], Expr::float(0.0));
        b.end_if();
        b.end_for();
        let p = b.finish();
        let store = StmtPath::top(0).child(0, 0).child(0, 0);
        assert_eq!(run_at(&p, &store), Some(Ok(())));
    }

    #[test]
    fn site_check_sees_allocations_in_scope() {
        // tmp is allocated by an earlier sibling; the site check of the
        // loop must know tmp's shape to verify (and reject) it.
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
        let errs = run_at(&p, &StmtPath::top(1))
            .expect("valid path")
            .unwrap_err();
        assert!(errs[0].message.contains("out of bounds"), "{:?}", errs);
        assert_rejected_at(&p, StmtPath::top(1).child(0, 0));
    }

    #[test]
    fn invalid_site_path_is_an_error() {
        let p = two_loop_proc();
        assert_eq!(run_at(&p, &StmtPath::top(7)), None);
        assert_eq!(run_at(&p, &StmtPath::top(0).child(0, 3)), None);
        // the empty path is the whole body
        assert_eq!(
            messages(run_at(&p, &StmtPath::default()).expect("body")),
            messages(run(&p))
        );
    }
}
