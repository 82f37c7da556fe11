//! Loop-restructuring scheduling operators (paper Fig. 2):
//! `split`, `split_guard`, `reorder`, `unroll`, `fission_after`,
//! `fuse_loop`, `partition_loop`, `remove_loop`, `lift_if`, `add_guard`.

use exo_core::hash::HashMap;
use exo_core::ir::{Expr, Stmt};
use exo_core::printer::expr_to_string;
use exo_core::visit::{free_syms_block, refresh_bound, subst_block, visit_stmts};
use exo_core::Sym;

use exo_analysis::conditions;
use exo_analysis::effects::{effect_of_ctrl_expr, Effect};
use exo_smt::formula::Formula;

use crate::fold::{fold_block, fold_expr};
use crate::handle::{serr, Procedure, SchedError};
use crate::pattern::Pattern;

impl Procedure {
    /// `split(i, c, io, ii)`: rewrites `for i in seq(0, N)` into
    /// `for io in seq(0, N/c): for ii in seq(0, c)` with `i := c·io + ii`.
    ///
    /// # Errors
    ///
    /// Fails unless the loop starts at 0 and `c` provably divides the
    /// extent (use [`Procedure::split_guard`] for non-divisible extents).
    pub fn split(
        &self,
        loop_pat: impl Into<Pattern>,
        c: i64,
        io_name: &str,
        ii_name: &str,
    ) -> Result<Procedure, SchedError> {
        let loop_pat = loop_pat.into();
        self.instrumented(
            "split",
            format!("{loop_pat}, {c}, {io_name}, {ii_name}"),
            || self.split_impl(&loop_pat, c, io_name, ii_name),
        )
    }

    fn split_impl(
        &self,
        loop_pat: &Pattern,
        c: i64,
        io_name: &str,
        ii_name: &str,
    ) -> Result<Procedure, SchedError> {
        if c <= 0 {
            return serr("split: factor must be positive");
        }
        let path = self.find(loop_pat)?;
        let Stmt::For { iter, lo, hi, body } = self.stmt(&path)?.clone() else {
            return serr(format!("split: {loop_pat:?} is not a loop"));
        };
        if lo.as_int() != Some(0) {
            return serr("split: only zero-based loops can be split");
        }
        // divisibility: D(hi mod c == 0) under the site assumptions
        self.prove(&path, "split", |q| {
            let hi_e = q.lift(&hi);
            let li = q.lctx.lower_int(&hi_e);
            Formula::and(vec![li.def, Formula::dvd(c, li.val)])
        })
        .map_err(|e| {
            SchedError::new(format!(
                "{} — extent not provably divisible by {c}; \
                 use split_guard for a tail guard",
                e.message
            ))
        })?;
        let io = Sym::new(io_name);
        let ii = Sym::new(ii_name);
        let outer_hi = fold_expr(&hi.clone().div(Expr::int(c)));
        let mut map = HashMap::default();
        map.insert(iter, Expr::var(io).mul(Expr::int(c)).add(Expr::var(ii)));
        let new_body = subst_block(&body, &map);
        let new_loop = Stmt::For {
            iter: io,
            lo: Expr::int(0),
            hi: outer_hi,
            body: vec![Stmt::For {
                iter: ii,
                lo: Expr::int(0),
                hi: Expr::int(c),
                body: fold_block(&new_body),
            }],
        };
        self.splice(&path, &mut |_| vec![new_loop.clone()])
    }

    /// `split_guard(i, c, io, ii)`: like [`Procedure::split`] but handles
    /// non-divisible extents with a tail guard
    /// `if c·io + ii < N:` around the body.
    pub fn split_guard(
        &self,
        loop_pat: impl Into<Pattern>,
        c: i64,
        io_name: &str,
        ii_name: &str,
    ) -> Result<Procedure, SchedError> {
        let loop_pat = loop_pat.into();
        self.instrumented(
            "split_guard",
            format!("{loop_pat}, {c}, {io_name}, {ii_name}"),
            || self.split_guard_impl(&loop_pat, c, io_name, ii_name),
        )
    }

    fn split_guard_impl(
        &self,
        loop_pat: &Pattern,
        c: i64,
        io_name: &str,
        ii_name: &str,
    ) -> Result<Procedure, SchedError> {
        if c <= 0 {
            return serr("split_guard: factor must be positive");
        }
        let path = self.find(loop_pat)?;
        let Stmt::For { iter, lo, hi, body } = self.stmt(&path)?.clone() else {
            return serr(format!("split_guard: {loop_pat:?} is not a loop"));
        };
        if lo.as_int() != Some(0) {
            return serr("split_guard: only zero-based loops can be split");
        }
        let io = Sym::new(io_name);
        let ii = Sym::new(ii_name);
        // ceil(N / c) = (N + c - 1) / c
        let outer_hi = fold_expr(&hi.clone().add(Expr::int(c - 1)).div(Expr::int(c)));
        let idx = Expr::var(io).mul(Expr::int(c)).add(Expr::var(ii));
        let mut map = HashMap::default();
        map.insert(iter, idx.clone());
        let new_body = fold_block(&subst_block(&body, &map));
        let guarded = Stmt::If {
            cond: idx.lt(hi.clone()),
            body: new_body,
            orelse: vec![],
        };
        let new_loop = Stmt::For {
            iter: io,
            lo: Expr::int(0),
            hi: outer_hi,
            body: vec![Stmt::For {
                iter: ii,
                lo: Expr::int(0),
                hi: Expr::int(c),
                body: vec![guarded],
            }],
        };
        self.splice(&path, &mut |_| vec![new_loop.clone()])
    }

    /// `reorder(i, j)`: swaps two perfectly nested loops
    /// `for i: for j: s ~> for j: for i: s` after checking the §5.8
    /// reordering condition.
    pub fn reorder(
        &self,
        outer_pat: impl Into<Pattern>,
        inner_name: &str,
    ) -> Result<Procedure, SchedError> {
        let outer_pat = outer_pat.into();
        self.instrumented("reorder", format!("{outer_pat}, {inner_name}"), || {
            self.reorder_impl(&outer_pat, inner_name)
        })
    }

    fn reorder_impl(&self, outer_pat: &Pattern, inner_name: &str) -> Result<Procedure, SchedError> {
        let path = self.find(outer_pat)?;
        let outer = self.stmt(&path)?;
        let Stmt::For {
            iter: x,
            lo: xlo,
            hi: xhi,
            body,
        } = outer.clone()
        else {
            return serr(format!("reorder: {outer_pat:?} is not a loop"));
        };
        let [inner @ Stmt::For {
            iter: y,
            lo: ylo,
            hi: yhi,
            body: inner_body,
        }] = &body[..]
        else {
            return serr("reorder: the outer loop body must be exactly one nested loop");
        };
        if y.name() != inner_name {
            return serr(format!(
                "reorder: inner loop is {}, expected {inner_name}",
                y.name()
            ));
        }
        // the inner bounds may not depend on the outer iterator
        let mut bound_syms = exo_core::hash::HashSet::default();
        for e in [ylo, yhi] {
            exo_core::visit::visit_expr(e, &mut |e| {
                if let Expr::Var(v) = e {
                    bound_syms.insert(*v);
                }
            });
        }
        if bound_syms.contains(&x) {
            return serr("reorder: inner loop bounds depend on the outer iterator");
        }

        self.prove(&path, "reorder", |q| {
            let xlo_e = q.lift(&xlo);
            let xhi_e = q.lift(&xhi);
            let ylo_e = q.lift(ylo);
            let yhi_e = q.lift(yhi);
            let [body_eff] = q.body_effects(&[outer, inner], [inner_body]);
            let bounds_eff = Effect::seq(effect_of_ctrl_expr(ylo), effect_of_ctrl_expr(yhi));
            conditions::loop_reorder(
                x,
                (&xlo_e, &xhi_e),
                *y,
                (&ylo_e, &yhi_e),
                &bounds_eff,
                &body_eff,
                &mut q.lctx,
            )
        })?;

        let swapped = Stmt::For {
            iter: *y,
            lo: ylo.clone(),
            hi: yhi.clone(),
            body: vec![Stmt::For {
                iter: x,
                lo: xlo,
                hi: xhi,
                body: inner_body.clone(),
            }],
        };
        self.splice(&path, &mut |_| vec![swapped.clone()])
    }

    /// `unroll(i)`: fully unrolls a loop with constant bounds.
    pub fn unroll(&self, loop_pat: impl Into<Pattern>) -> Result<Procedure, SchedError> {
        let loop_pat = loop_pat.into();
        self.instrumented("unroll", loop_pat.as_str(), || self.unroll_impl(&loop_pat))
    }

    fn unroll_impl(&self, loop_pat: &Pattern) -> Result<Procedure, SchedError> {
        let path = self.find(loop_pat)?;
        let Stmt::For { iter, lo, hi, body } = self.stmt(&path)?.clone() else {
            return serr(format!("unroll: {loop_pat:?} is not a loop"));
        };
        let (Some(lo), Some(hi)) = (fold_expr(&lo).as_int(), fold_expr(&hi).as_int()) else {
            return serr("unroll: loop bounds must be constant");
        };
        if hi - lo > 1024 {
            return serr(format!("unroll: refusing to unroll {} iterations", hi - lo));
        }
        let mut out = Vec::new();
        for v in lo..hi {
            let mut map = HashMap::default();
            map.insert(iter, Expr::int(v));
            // freshen allocations so each unrolled copy binds its own
            out.extend(fold_block(&refresh_bound(&subst_block(&body, &map))));
        }
        self.splice(&path, &mut |_| out.clone())
    }

    /// `fission_after(s)`: splits the loop enclosing the matched
    /// statement into two loops, the first ending after the statement
    /// (paper Fig. 2 `fission_after`, condition §5.8).
    pub fn fission_after(&self, stmt_pat: impl Into<Pattern>) -> Result<Procedure, SchedError> {
        let stmt_pat = stmt_pat.into();
        self.instrumented("fission_after", stmt_pat.as_str(), || {
            self.fission_after_impl(&stmt_pat)
        })
    }

    fn fission_after_impl(&self, stmt_pat: &Pattern) -> Result<Procedure, SchedError> {
        let spath = self.find(stmt_pat)?;
        let Some(loop_path) = spath.parent() else {
            return serr("fission_after: statement is not inside a loop");
        };
        let lp = self.stmt(&loop_path)?;
        let Stmt::For { iter, lo, hi, body } = lp.clone() else {
            return serr("fission_after: enclosing statement is not a loop");
        };
        let cut = spath.last().idx + 1;
        if cut >= body.len() {
            return serr("fission_after: nothing after the statement to fission off");
        }
        let (part1, part2) = body.split_at(cut);

        // structural scoping: allocations in part1 must not be used in part2
        let mut alloc_syms = Vec::new();
        visit_stmts(part1, &mut |s| {
            if let Stmt::Alloc { name, .. } | Stmt::WindowDef { name, .. } = s {
                alloc_syms.push(*name);
            }
        });
        let part2_free = free_syms_block(part2);
        if alloc_syms.iter().any(|s| part2_free.contains(s)) {
            return serr("fission_after: cannot fission across an allocation used later");
        }

        self.prove(&loop_path, "fission_after", |q| {
            let lo_e = q.lift(&lo);
            let hi_e = q.lift(&hi);
            let [eff1, eff2] = q.body_effects(&[lp], [part1, part2]);
            let bounds_eff = Effect::seq(effect_of_ctrl_expr(&lo), effect_of_ctrl_expr(&hi));
            conditions::loop_fission(iter, (&lo_e, &hi_e), &bounds_eff, &eff1, &eff2, &mut q.lctx)
        })?;

        let iter2 = iter.copy();
        let mut map = HashMap::default();
        map.insert(iter, Expr::var(iter2));
        let loop1 = Stmt::For {
            iter,
            lo: lo.clone(),
            hi: hi.clone(),
            body: part1.to_vec(),
        };
        let loop2 = Stmt::For {
            iter: iter2,
            lo,
            hi,
            body: refresh_bound(&subst_block(part2, &map)),
        };
        self.splice(&loop_path, &mut |_| vec![loop1.clone(), loop2.clone()])
    }

    /// `fuse_loop(i)`: fuses the matched loop with its immediately
    /// following sibling loop (which must have identical bounds); the
    /// safety condition is the same as fission (§5.8).
    pub fn fuse_loop(&self, loop_pat: impl Into<Pattern>) -> Result<Procedure, SchedError> {
        let loop_pat = loop_pat.into();
        self.instrumented("fuse_loop", loop_pat.as_str(), || {
            self.fuse_loop_impl(&loop_pat)
        })
    }

    fn fuse_loop_impl(&self, loop_pat: &Pattern) -> Result<Procedure, SchedError> {
        let path1 = self.find(loop_pat)?;
        let path2 = path1
            .sibling(1)
            .ok_or_else(|| SchedError::new("fuse_loop: no sibling"))?;
        let Stmt::For {
            iter: x1,
            lo: lo1,
            hi: hi1,
            body: b1,
        } = self.stmt(&path1)?.clone()
        else {
            return serr(format!("fuse_loop: {loop_pat:?} is not a loop"));
        };
        let Ok(Stmt::For {
            iter: x2,
            lo: lo2,
            hi: hi2,
            body: b2,
        }) = self.stmt(&path2).cloned()
        else {
            return serr("fuse_loop: next statement is not a loop");
        };
        if fold_expr(&lo1) != fold_expr(&lo2) || fold_expr(&hi1) != fold_expr(&hi2) {
            return serr("fuse_loop: loop bounds differ");
        }
        // rename the second iterator to the first
        let mut map = HashMap::default();
        map.insert(x2, Expr::var(x1));
        let b2r = subst_block(&b2, &map);
        let fused = Stmt::For {
            iter: x1,
            lo: lo1.clone(),
            hi: hi1.clone(),
            body: [b1.as_slice(), &b2r].concat(),
        };

        // the fission condition, posed on the fused loop
        self.prove(&path1, "fuse_loop", |q| {
            let lo_e = q.lift(&lo1);
            let hi_e = q.lift(&hi1);
            let [eff1, eff2] = q.body_effects(&[&fused], [&b1, &b2r]);
            let bounds_eff = Effect::seq(effect_of_ctrl_expr(&lo1), effect_of_ctrl_expr(&hi1));
            conditions::loop_fission(x1, (&lo_e, &hi_e), &bounds_eff, &eff1, &eff2, &mut q.lctx)
        })?;

        // splice: replace loop1 with fused, delete loop2
        let p = self.splice(&path1, &mut |_| vec![fused.clone()])?;
        let del_path = path2;
        p.splice(&del_path, &mut |_| vec![])
    }

    /// `partition_loop(i, c)`: splits the iteration range at `lo + c`
    /// into two back-to-back loops (always equivalence-preserving when
    /// `lo + c ≤ hi` is provable).
    pub fn partition_loop(
        &self,
        loop_pat: impl Into<Pattern>,
        c: i64,
    ) -> Result<Procedure, SchedError> {
        let loop_pat = loop_pat.into();
        self.instrumented("partition_loop", format!("{loop_pat}, {c}"), || {
            self.partition_loop_impl(&loop_pat, c)
        })
    }

    fn partition_loop_impl(&self, loop_pat: &Pattern, c: i64) -> Result<Procedure, SchedError> {
        if c < 0 {
            return serr("partition_loop: offset must be non-negative");
        }
        let path = self.find(loop_pat)?;
        let Stmt::For { iter, lo, hi, body } = self.stmt(&path)?.clone() else {
            return serr(format!("partition_loop: {loop_pat:?} is not a loop"));
        };
        let mid = fold_expr(&lo.clone().add(Expr::int(c)));
        // provable lo + c ≤ hi
        self.prove(&path, "partition_loop", |q| {
            let mid_e = q.lift(&mid);
            let hi_e = q.lift(&hi);
            q.lctx.lower_bool(&mid_e.le(hi_e)).definitely()
        })?;
        let iter2 = iter.copy();
        let mut map = HashMap::default();
        map.insert(iter, Expr::var(iter2));
        let loop1 = Stmt::For {
            iter,
            lo,
            hi: mid.clone(),
            body: body.clone(),
        };
        let loop2 = Stmt::For {
            iter: iter2,
            lo: mid,
            hi,
            body: refresh_bound(&subst_block(&body, &map)),
        };
        self.splice(&path, &mut |_| vec![loop1.clone(), loop2.clone()])
    }

    /// `remove_loop(i)`: replaces `for x do s` by `s` when the loop
    /// definitely runs at least once, the body is idempotent
    /// (`Shadows(a, a)`, §5.8), and `x` is not free in the body.
    pub fn remove_loop(&self, loop_pat: impl Into<Pattern>) -> Result<Procedure, SchedError> {
        let loop_pat = loop_pat.into();
        self.instrumented("remove_loop", loop_pat.as_str(), || {
            self.remove_loop_impl(&loop_pat)
        })
    }

    fn remove_loop_impl(&self, loop_pat: &Pattern) -> Result<Procedure, SchedError> {
        let path = self.find(loop_pat)?;
        let lp = self.stmt(&path)?;
        let Stmt::For { iter, lo, hi, body } = lp.clone() else {
            return serr(format!("remove_loop: {loop_pat:?} is not a loop"));
        };
        if free_syms_block(&body).contains(&iter) {
            return serr("remove_loop: iteration variable is used in the body");
        }
        self.prove(&path, "remove_loop", |q| {
            let lo_e = q.lift(&lo);
            let hi_e = q.lift(&hi);
            let [body_eff] = q.body_effects(&[lp], [&body]);
            conditions::loop_remove(iter, (&lo_e, &hi_e), &body_eff, &mut q.lctx)
        })?;
        self.splice(&path, &mut |_| body.clone())
    }

    /// `lift_if`: hoists a loop-invariant conditional out of its
    /// enclosing loop: `for i: if c: s ~> if c: for i: s`.
    pub fn lift_if(&self, if_pat: impl Into<Pattern>) -> Result<Procedure, SchedError> {
        let if_pat = if_pat.into();
        self.instrumented("lift_if", if_pat.as_str(), || self.lift_if_impl(&if_pat))
    }

    fn lift_if_impl(&self, if_pat: &Pattern) -> Result<Procedure, SchedError> {
        let if_path = self.find(if_pat)?;
        let Some(loop_path) = if_path.parent() else {
            return serr("lift_if: conditional is not inside a loop");
        };
        let lp = self.stmt(&loop_path)?;
        let Stmt::For { iter, lo, hi, body } = lp.clone() else {
            return serr("lift_if: enclosing statement is not a loop");
        };
        if body.len() != 1 {
            return serr("lift_if: the conditional must be the loop's only statement");
        }
        let Stmt::If {
            cond,
            body: then_b,
            orelse,
        } = body[0].clone()
        else {
            return serr("lift_if: matched statement is not a conditional");
        };
        let mut cond_syms = exo_core::hash::HashSet::default();
        exo_core::visit::visit_expr(&cond, &mut |e| {
            if let Expr::Var(v) = e {
                cond_syms.insert(*v);
            }
        });
        if cond_syms.contains(&iter) {
            return serr("lift_if: condition depends on the iteration variable");
        }
        // the condition's (config) reads must commute with the body
        self.prove(&loop_path, "lift_if", |q| {
            let [whole_eff] = q.body_effects(&[lp], [&body]);
            conditions::commutes(&effect_of_ctrl_expr(&cond), &whole_eff, &mut q.lctx)
        })?;

        let lifted = Stmt::If {
            cond,
            body: vec![Stmt::For {
                iter,
                lo: lo.clone(),
                hi: hi.clone(),
                body: then_b,
            }],
            orelse: if orelse.is_empty() {
                vec![]
            } else {
                let i2 = iter.copy();
                let mut m = HashMap::default();
                m.insert(iter, Expr::var(i2));
                vec![Stmt::For {
                    iter: i2,
                    lo,
                    hi,
                    body: subst_block(&orelse, &m),
                }]
            },
        };
        self.splice(&loop_path, &mut |_| vec![lifted.clone()])
    }

    /// `add_guard(s, e)`: wraps the matched statement in `if e: s`. The
    /// guard must be provably true whenever the statement executes, so
    /// the rewrite is equivalence-preserving.
    pub fn add_guard(
        &self,
        stmt_pat: impl Into<Pattern>,
        cond: Expr,
    ) -> Result<Procedure, SchedError> {
        let stmt_pat = stmt_pat.into();
        self.instrumented(
            "add_guard",
            format!("{stmt_pat}, {}", expr_to_string(&cond)),
            || self.add_guard_impl(&stmt_pat, cond),
        )
    }

    fn add_guard_impl(&self, stmt_pat: &Pattern, cond: Expr) -> Result<Procedure, SchedError> {
        let path = self.find(stmt_pat)?;
        self.prove(&path, "add_guard", |q| {
            let c_e = q.lift(&cond);
            q.lctx.lower_bool(&c_e).definitely()
        })?;
        let stmt = self.stmt(&path)?.clone();
        let guarded = Stmt::If {
            cond,
            body: vec![stmt],
            orelse: vec![],
        };
        self.splice(&path, &mut |_| vec![guarded.clone()])
    }

    /// `simplify()`: folds constants throughout the body (always
    /// equivalence-preserving).
    pub fn simplify(&self) -> Procedure {
        // Constant folding cannot fail, but dispatch can reject it (e.g. an
        // exhausted schedule budget); returning the procedure unsimplified
        // is the conservative answer in that case.
        self.instrumented("simplify", "", || {
            Ok(self.with_body(fold_block(self.body())))
        })
        .unwrap_or_else(|_| self.clone())
    }
}
