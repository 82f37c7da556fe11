//! `replace()` — code replacement by unification modulo linear
//! equalities (paper §3.4).
//!
//! `p.replace(s, foo)` matches the body of `foo` against the designated
//! statements of `p` and, on success, substitutes a call `foo(…)` with
//! inferred arguments. When `foo` is an `@instr` this performs
//! *instruction selection*. The ASTs must match exactly with respect to
//! statements and non-integer expressions; equivalences between integer
//! control expressions are recorded as linear equations over the unknown
//! arguments (sizes and window offsets) and solved by elimination, with
//! residual equations discharged to the SMT solver. Window arguments
//! introduce categorical choices (which buffer dimensions are sliced);
//! these are explored by backtracking.

use std::sync::Arc;

use exo_analysis::effexpr::{EffExpr, LowerCtx};
use exo_core::hash::{HashMap, HashSet};
use exo_core::ir::{ArgType, Expr, Proc, Stmt, WAccess};
use exo_core::visit::{visit_expr, visit_stmts};
use exo_core::Sym;
use exo_smt::formula::Formula;
use exo_smt::linear::LinExpr;

use crate::fold::fold_expr;
use crate::handle::{require, serr, Procedure, SchedError};
use crate::pattern::Pattern;

/// Binding of a callee tensor formal to a caller buffer region.
#[derive(Clone, Debug)]
struct TensorBind {
    caller_buf: Sym,
    caller_rank: usize,
    /// For each callee dimension k, the caller dimension it walks
    /// (strictly increasing).
    dim_map: Vec<usize>,
    /// Unknown offset symbol per *caller* dimension.
    offsets: Vec<Sym>,
}

#[derive(Clone, Default, Debug)]
struct UnifyState {
    /// callee bound symbol → caller bound symbol
    alpha: HashMap<Sym, Sym>,
    /// callee tensor formal → binding
    tensors: HashMap<Sym, TensorBind>,
    /// unknown symbols (control formals and window offsets)
    unknowns: HashSet<Sym>,
    /// linear equations `lhs == rhs` (callee side, caller side)
    equations: Vec<(Expr, Expr)>,
    /// non-integer equivalences to verify (boolean conditions)
    bool_checks: Vec<(Expr, Expr)>,
}

impl Procedure {
    /// Replaces `callee.body.len()` consecutive statements starting at
    /// the match of `stmt_pat` with a call to `callee`, inferring the
    /// arguments by unification.
    pub fn replace(
        &self,
        stmt_pat: impl Into<Pattern>,
        callee: &Arc<Proc>,
    ) -> Result<Procedure, SchedError> {
        let stmt_pat = stmt_pat.into();
        self.instrumented(
            "replace",
            format!("{stmt_pat}, {}", callee.name.name()),
            || self.replace_impl(&stmt_pat, callee),
        )
    }

    fn replace_impl(
        &self,
        stmt_pat: &Pattern,
        callee: &Arc<Proc>,
    ) -> Result<Procedure, SchedError> {
        let first = self.find(stmt_pat)?;
        let n = callee.body.len();
        if n == 0 {
            return serr("replace: callee has an empty body");
        }
        // gather the n consecutive sibling statements
        let mut caller_stmts = Vec::with_capacity(n);
        for k in 0..n {
            let Some(p) = first.sibling(k as isize) else {
                return serr("replace: match window fell off the enclosing block");
            };
            caller_stmts.push(
                self.stmt(&p)
                    .map_err(|_| {
                        SchedError::new(format!(
                            "replace: needed {n} consecutive statements, found {k}"
                        ))
                    })?
                    .clone(),
            );
        }

        // variables bound inside the replaced block are out of scope for
        // inferred arguments
        let mut block_bound = HashSet::default();
        visit_stmts(&caller_stmts, &mut |s| match s {
            Stmt::For { iter, .. } => {
                block_bound.insert(*iter);
            }
            Stmt::Alloc { name, .. } | Stmt::WindowDef { name, .. } => {
                block_bound.insert(*name);
            }
            _ => {}
        });

        // set up unknowns
        let mut st = UnifyState::default();
        for arg in &callee.args {
            if arg.ty.is_ctrl() {
                st.unknowns.insert(arg.name);
            }
        }

        let mut solutions: Vec<UnifyState> = Vec::new();
        self.unify_block(callee, &callee.body, &caller_stmts, st, &mut solutions)?;
        let mut last_err = SchedError::new("replace: unification found no match".to_string());
        for cand in solutions {
            match self.finish_replace(callee, cand, &first, n, &block_bound) {
                Ok(p) => return Ok(p),
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    fn unify_block(
        &self,
        callee: &Proc,
        ce: &[Stmt],
        pe: &[Stmt],
        st: UnifyState,
        out: &mut Vec<UnifyState>,
    ) -> Result<(), SchedError> {
        if ce.is_empty() && pe.is_empty() {
            out.push(st);
            return Ok(());
        }
        if ce.is_empty() || pe.is_empty() {
            return Ok(()); // length mismatch: no match on this branch
        }
        let mut partials = Vec::new();
        self.unify_stmt(callee, &ce[0], &pe[0], st, &mut partials)?;
        for p in partials {
            self.unify_block(callee, &ce[1..], &pe[1..], p, out)?;
        }
        Ok(())
    }

    fn unify_stmt(
        &self,
        callee: &Proc,
        ce: &Stmt,
        pe: &Stmt,
        mut st: UnifyState,
        out: &mut Vec<UnifyState>,
    ) -> Result<(), SchedError> {
        match (ce, pe) {
            (Stmt::Pass, Stmt::Pass) => out.push(st),
            (
                Stmt::For {
                    iter: ci,
                    lo: cl,
                    hi: ch,
                    body: cb,
                },
                Stmt::For {
                    iter: pi,
                    lo: pl,
                    hi: ph,
                    body: pb,
                },
            ) => {
                st.alpha.insert(*ci, *pi);
                st.equations.push((cl.clone(), pl.clone()));
                st.equations.push((ch.clone(), ph.clone()));
                self.unify_block(callee, cb, pb, st, out)?;
            }
            (
                Stmt::If {
                    cond: cc,
                    body: cb,
                    orelse: co,
                },
                Stmt::If {
                    cond: pc,
                    body: pb,
                    orelse: po,
                },
            ) => {
                st.bool_checks.push((cc.clone(), pc.clone()));
                let mut mids = Vec::new();
                self.unify_block(callee, cb, pb, st, &mut mids)?;
                for m in mids {
                    self.unify_block(callee, co, po, m, out)?;
                }
            }
            (
                Stmt::Assign {
                    buf: cbuf,
                    idx: cidx,
                    rhs: crhs,
                },
                Stmt::Assign {
                    buf: pbuf,
                    idx: pidx,
                    rhs: prhs,
                },
            )
            | (
                Stmt::Reduce {
                    buf: cbuf,
                    idx: cidx,
                    rhs: crhs,
                },
                Stmt::Reduce {
                    buf: pbuf,
                    idx: pidx,
                    rhs: prhs,
                },
            ) => {
                let mut mids = Vec::new();
                self.unify_access(callee, *cbuf, cidx, *pbuf, pidx, st, &mut mids)?;
                for mut m in mids {
                    let mut inner = Vec::new();
                    self.unify_data(callee, crhs, prhs, std::mem::take(&mut m), &mut inner)?;
                    out.extend(inner);
                }
            }
            (
                Stmt::WriteConfig {
                    config: cc,
                    field: cf,
                    rhs: cr,
                },
                Stmt::WriteConfig {
                    config: pc,
                    field: pf,
                    rhs: pr,
                },
            ) if cc == pc && cf == pf => {
                st.equations.push((cr.clone(), pr.clone()));
                out.push(st);
            }
            (
                Stmt::Alloc {
                    name: cn,
                    ty: cty,
                    shape: cs,
                    mem: cm,
                },
                Stmt::Alloc {
                    name: pn,
                    ty: pty,
                    shape: ps,
                    mem: pm,
                },
            ) if cty == pty && cm == pm && cs.len() == ps.len() => {
                st.alpha.insert(*cn, *pn);
                for (a, b) in cs.iter().zip(ps) {
                    st.equations.push((a.clone(), b.clone()));
                }
                out.push(st);
            }
            (Stmt::Call { .. }, Stmt::Call { .. }) => {
                return serr("replace: nested calls in the callee body are not supported");
            }
            _ => {}
        }
        Ok(())
    }

    /// Unifies a buffer access `cbuf[cidx]` (callee) against
    /// `pbuf[pidx]` (caller).
    #[allow(clippy::too_many_arguments)]
    fn unify_access(
        &self,
        callee: &Proc,
        cbuf: Sym,
        cidx: &[Expr],
        pbuf: Sym,
        pidx: &[Expr],
        mut st: UnifyState,
        out: &mut Vec<UnifyState>,
    ) -> Result<(), SchedError> {
        // locally bound callee buffer: must map to the alpha image
        if let Some(&mapped) = st.alpha.get(&cbuf) {
            if mapped == pbuf && cidx.len() == pidx.len() {
                for (a, b) in cidx.iter().zip(pidx) {
                    st.equations.push((a.clone(), b.clone()));
                }
                out.push(st);
            }
            return Ok(());
        }
        // tensor/scalar formal of the callee
        let Some(formal) = callee.args.iter().find(|a| a.name == cbuf) else {
            return Ok(()); // unknown callee symbol: no match
        };
        let callee_rank = match &formal.ty {
            ArgType::Scalar { .. } => 0,
            ArgType::Tensor { shape, .. } => shape.len(),
            ArgType::Ctrl(_) => return Ok(()),
        };
        if cidx.len() != callee_rank {
            return Ok(());
        }
        let Some(caller_rank) = self.buffer_rank(pbuf) else {
            return Ok(());
        };
        if pidx.len() != caller_rank || caller_rank < callee_rank {
            return Ok(());
        }
        // precisions must agree (windows cannot change element type)
        if let (Some(want), Some(have)) = (formal.ty.data_type(), self.buffer_dtype(pbuf)) {
            if want != have && want != exo_core::DataType::R && have != exo_core::DataType::R {
                return Ok(());
            }
        }
        let existing = st.tensors.get(&cbuf).cloned();
        let choices: Vec<Vec<usize>> = match &existing {
            Some(b) => {
                if b.caller_buf != pbuf || b.caller_rank != caller_rank {
                    return Ok(()); // inconsistent buffer identity
                }
                vec![b.dim_map.clone()]
            }
            None => increasing_injections(callee_rank, caller_rank),
        };
        for dim_map in choices {
            let mut s2 = st.clone();
            let bind = match &existing {
                Some(b) => b.clone(),
                None => {
                    let offsets: Vec<Sym> = (0..caller_rank)
                        .map(|d| {
                            let o = Sym::new(format!("off_{}_{d}", cbuf.name()));
                            s2.unknowns.insert(o);
                            o
                        })
                        .collect();
                    let b = TensorBind {
                        caller_buf: pbuf,
                        caller_rank,
                        dim_map: dim_map.clone(),
                        offsets,
                    };
                    s2.tensors.insert(cbuf, b.clone());
                    b
                }
            };
            // equations per caller dimension
            let mut k_of: HashMap<usize, usize> = HashMap::default();
            for (k, &d) in bind.dim_map.iter().enumerate() {
                k_of.insert(d, k);
            }
            for (d, pd) in pidx.iter().enumerate().take(caller_rank) {
                let lhs = match k_of.get(&d) {
                    Some(&k) => Expr::var(bind.offsets[d]).add(cidx[k].clone()),
                    None => Expr::var(bind.offsets[d]),
                };
                s2.equations.push((lhs, pd.clone()));
            }
            out.push(s2);
        }
        Ok(())
    }

    fn unify_data(
        &self,
        callee: &Proc,
        ce: &Expr,
        pe: &Expr,
        st: UnifyState,
        out: &mut Vec<UnifyState>,
    ) -> Result<(), SchedError> {
        match (ce, pe) {
            (Expr::Lit(a), Expr::Lit(b)) if a == b => {
                out.push(st);
            }
            (Expr::Read { buf: cb, idx: ci }, Expr::Read { buf: pb, idx: pi }) => {
                self.unify_access(callee, *cb, ci, *pb, pi, st, out)?;
            }
            (Expr::BinOp(co, ca, cb), Expr::BinOp(po, pa, pb)) if co == po => {
                let mut mids = Vec::new();
                self.unify_data(callee, ca, pa, st, &mut mids)?;
                for m in mids {
                    self.unify_data(callee, cb, pb, m, out)?;
                }
            }
            (Expr::Neg(ca), Expr::Neg(pa)) => self.unify_data(callee, ca, pa, st, out)?,
            (Expr::BuiltIn { func: cf, args: ca }, Expr::BuiltIn { func: pf, args: pa })
                if cf.name() == pf.name() && ca.len() == pa.len() =>
            {
                let mut states = vec![st];
                for (x, y) in ca.iter().zip(pa) {
                    let mut next = Vec::new();
                    for s in states {
                        self.unify_data(callee, x, y, s, &mut next)?;
                    }
                    states = next;
                }
                out.extend(states);
            }
            _ => {}
        }
        Ok(())
    }

    fn buffer_dtype(&self, buf: Sym) -> Option<exo_core::DataType> {
        for a in &self.proc().args {
            if a.name == buf {
                return a.ty.data_type();
            }
        }
        let mut dt = None;
        visit_stmts(self.body(), &mut |s| {
            if let Stmt::Alloc { name, ty, .. } = s {
                if *name == buf && dt.is_none() {
                    dt = Some(*ty);
                }
            }
        });
        dt
    }

    fn buffer_rank(&self, buf: Sym) -> Option<usize> {
        for a in &self.proc().args {
            if a.name == buf {
                return match &a.ty {
                    ArgType::Scalar { .. } => Some(0),
                    ArgType::Tensor { shape, .. } => Some(shape.len()),
                    ArgType::Ctrl(_) => None,
                };
            }
        }
        let mut rank = None;
        visit_stmts(self.body(), &mut |s| match s {
            Stmt::Alloc { name, shape, .. } if *name == buf => rank = Some(shape.len()),
            Stmt::WindowDef {
                name,
                rhs: Expr::Window { coords, .. },
            } if *name == buf => rank = Some(coords.iter().filter(|c| c.is_interval()).count()),
            _ => {}
        });
        rank
    }

    /// Solves the equations of a candidate match, verifies residuals and
    /// callee preconditions, and builds the call.
    fn finish_replace(
        &self,
        callee: &Arc<Proc>,
        st: UnifyState,
        first: &exo_core::path::StmtPath,
        n: usize,
        block_bound: &HashSet<Sym>,
    ) -> Result<Procedure, SchedError> {
        let args = self.query(first, |q| {
            // lower both sides of every equation; callee side: alpha-rename
            // bound vars to caller symbols, leave unknowns in place
            let mut lowered: Vec<LinExpr> = Vec::new();
            for (cl, pl) in &st.equations {
                let cl_e = q.lift(cl).subst(
                    &st.alpha
                        .iter()
                        .map(|(&a, &b)| (a, EffExpr::Var(b)))
                        .collect(),
                );
                let pl_e = q.lift(pl);
                let li = q.lctx.lower_int(&cl_e);
                let ri = q.lctx.lower_int(&pl_e);
                if li.def != Formula::True || ri.def != Formula::True {
                    // division/unknown in an equation: be conservative
                    return serr("replace: non-affine equation in unification");
                }
                lowered.push(li.val.sub(&ri.val));
            }

            // eliminate unknowns with ±1 coefficients
            let mut solution: HashMap<Sym, LinExpr> = HashMap::default();
            let mut work = lowered;
            loop {
                let mut progress = false;
                let mut rest = Vec::new();
                for eq in std::mem::take(&mut work) {
                    // find an unsolved unknown with coefficient ±1
                    let target = eq
                        .coeffs
                        .iter()
                        .find(|(v, &c)| st.unknowns.contains(v) && (c == 1 || c == -1))
                        .map(|(&v, &c)| (v, c));
                    match target {
                        Some((v, c)) => {
                            // c·v + rest = 0  ⇒  v = -rest / c
                            let mut rest_e = eq.clone();
                            rest_e.coeffs.remove(&v);
                            let val = rest_e.scale(-c); // c = ±1 ⇒ exact
                                                        // substitute into existing solutions and work
                            for sol in solution.values_mut() {
                                *sol = sol.subst(v, &val);
                            }
                            rest = rest
                                .into_iter()
                                .map(|e: LinExpr| e.subst(v, &val))
                                .collect();
                            work = work.into_iter().map(|e| e.subst(v, &val)).collect();
                            solution.insert(v, val);
                            progress = true;
                        }
                        None => rest.push(eq),
                    }
                }
                work.extend(rest);
                if !progress {
                    break;
                }
            }
            // any equation still mentioning an unknown is unsolvable here
            let mut residual = Vec::new();
            for eq in &work {
                if eq.coeffs.keys().any(|v| st.unknowns.contains(v)) {
                    return serr("replace: could not solve for all unknown arguments");
                }
                residual.push(Formula::eq(eq.clone(), LinExpr::constant(0)));
            }

            // every control formal must be solved
            for arg in &callee.args {
                if arg.ty.is_ctrl() && !solution.contains_key(&arg.name) {
                    return serr(format!(
                        "replace: argument {} is unconstrained by the match",
                        arg.name
                    ));
                }
            }

            // scope check: solutions may not reference block-bound variables
            for (v, sol) in &solution {
                if sol.vars().any(|x| block_bound.contains(&x)) {
                    return serr(format!(
                        "replace: inferred value for {v} depends on variables bound \
                         inside the replaced block"
                    ));
                }
            }

            // boolean (non-integer) equivalences
            for (cb, pb) in &st.bool_checks {
                let alpha_map: HashMap<Sym, EffExpr> = st
                    .alpha
                    .iter()
                    .map(|(&a, &b)| (a, EffExpr::Var(b)))
                    .chain(solution.iter().map(|(&v, e)| (v, effexpr_of_lin(e))))
                    .collect();
                let cb_e = q.lift(cb).subst(&alpha_map);
                let pb_e = q.lift(pb);
                let lb = q.lctx.lower_bool(&cb_e);
                let rb = q.lctx.lower_bool(&pb_e);
                residual.push(Formula::and(vec![
                    lb.def.clone(),
                    rb.def.clone(),
                    lb.val.iff(rb.val),
                ]));
            }

            // callee preconditions, with formals substituted
            for pred in &callee.preds {
                let lifted = subst_pred(&q.lift(pred), &solution, &st);
                residual.push(q.lctx.lower_bool(&lifted).definitely());
            }

            require(q.valid(Formula::and(residual)), "replace")?;

            // build the call arguments from the solution, whose stride
            // symbols the lowering minted
            let mut args = Vec::with_capacity(callee.args.len());
            let (lctx, reg) = (&q.lctx, &*q.reg);
            for arg in &callee.args {
                match &arg.ty {
                    ArgType::Ctrl(_) => {
                        let Some(sol) = solution.get(&arg.name) else {
                            return serr(format!(
                                "replace: no solution for control argument {}",
                                arg.name
                            ));
                        };
                        args.push(expr_of_lin_ctx(sol, lctx, reg));
                    }
                    ArgType::Scalar { .. } | ArgType::Tensor { .. } => {
                        let Some(bind) = st.tensors.get(&arg.name) else {
                            return serr(format!(
                                "replace: tensor argument {} never accessed in the match",
                                arg.name
                            ));
                        };
                        // extents: the callee's declared shape with solved sizes
                        let shape: Vec<Expr> = match &arg.ty {
                            ArgType::Tensor { shape, .. } => shape
                                .iter()
                                .map(|e| subst_shape(e, &solution, lctx, reg))
                                .collect(),
                            _ => vec![],
                        };
                        let mut k_of: HashMap<usize, usize> = HashMap::default();
                        for (k, &d) in bind.dim_map.iter().enumerate() {
                            k_of.insert(d, k);
                        }
                        let coords: Vec<WAccess> = (0..bind.caller_rank)
                            .map(|d| {
                                let off = solution
                                    .get(&bind.offsets[d])
                                    .cloned()
                                    .unwrap_or_else(|| LinExpr::constant(0));
                                let off_e = expr_of_lin_ctx(&off, lctx, reg);
                                match k_of.get(&d) {
                                    Some(&k) => WAccess::Interval(
                                        off_e.clone(),
                                        fold_expr(&off_e.add(shape[k].clone())),
                                    ),
                                    None => WAccess::Point(off_e),
                                }
                            })
                            .collect();
                        // offset scope check
                        for c in &coords {
                            let exprs: Vec<&Expr> = match c {
                                WAccess::Point(e) => vec![e],
                                WAccess::Interval(a, b) => vec![a, b],
                            };
                            for e in exprs {
                                let mut bad = false;
                                visit_expr(e, &mut |e| {
                                    if let Expr::Var(v) = e {
                                        if block_bound.contains(v) {
                                            bad = true;
                                        }
                                    }
                                });
                                if bad {
                                    return serr(
                                        "replace: inferred window depends on variables bound \
                                         inside the replaced block",
                                    );
                                }
                            }
                        }
                        args.push(Expr::Window {
                            buf: bind.caller_buf,
                            coords,
                        });
                    }
                }
            }

            Ok(args)
        })?;
        let call = Stmt::Call {
            proc: Arc::clone(callee),
            args,
        };
        // splice: the first statement becomes the call; delete the rest
        let mut p = self.splice(first, &mut |_| vec![call.clone()])?;
        for _ in 1..n {
            let Some(next) = first.sibling(1) else {
                return serr("replace: match window fell off the enclosing block");
            };
            p = p.splice(&next, &mut |_| vec![])?;
        }
        Ok(p)
    }
}

/// All strictly increasing maps `[0, k) → [0, r)`.
fn increasing_injections(k: usize, r: usize) -> Vec<Vec<usize>> {
    fn go(k: usize, start: usize, r: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if cur.len() == k {
            out.push(cur.clone());
            return;
        }
        for d in start..r {
            cur.push(d);
            go(k, d + 1, r, cur, out);
            cur.pop();
        }
    }
    let mut out = Vec::new();
    go(k, 0, r, &mut Vec::new(), &mut out);
    out
}

/// Rebuilds a surface expression from a solved linear expression,
/// mapping canonical stride and configuration symbols back to
/// `stride(buf, d)` and `Config.field` expressions.
fn expr_of_lin_ctx(e: &LinExpr, lctx: &LowerCtx, reg: &exo_analysis::globals::GlobalReg) -> Expr {
    let var_expr = |v: Sym| -> Expr {
        if let Some((buf, dim)) = lctx.stride_of(v) {
            Expr::Stride { buf, dim }
        } else if let Some((config, field)) = reg.field_of(v) {
            Expr::ReadConfig { config, field }
        } else {
            Expr::var(v)
        }
    };
    let mut acc: Option<Expr> = if e.constant != 0 || e.coeffs.is_empty() {
        Some(Expr::int(e.constant))
    } else {
        None
    };
    for (&v, &c) in &e.coeffs {
        let term = if c == 1 {
            var_expr(v)
        } else {
            Expr::int(c).mul(var_expr(v))
        };
        acc = Some(match acc {
            None => term,
            Some(a) => a.add(term),
        });
    }
    fold_expr(&acc.unwrap_or(Expr::int(0)))
}

fn effexpr_of_lin(e: &LinExpr) -> EffExpr {
    let mut acc = EffExpr::Int(e.constant);
    for (&v, &c) in &e.coeffs {
        let term = if c == 1 {
            EffExpr::Var(v)
        } else {
            EffExpr::bin(exo_core::BinOp::Mul, EffExpr::Int(c), EffExpr::Var(v))
        };
        acc = acc.add(term);
    }
    acc
}

/// Substitutes solved formals (and tensor strides) into a lifted callee
/// precondition.
fn subst_pred(e: &EffExpr, solution: &HashMap<Sym, LinExpr>, st: &UnifyState) -> EffExpr {
    match e {
        EffExpr::Var(v) => match solution.get(v) {
            Some(l) => effexpr_of_lin(l),
            None => e.clone(),
        },
        EffExpr::Stride(buf, dim) => match st.tensors.get(buf) {
            // windows preserve the strides of the underlying buffer
            Some(bind) => EffExpr::Stride(bind.caller_buf, bind.dim_map[*dim]),
            None => e.clone(),
        },
        EffExpr::Bin(op, a, b) => EffExpr::bin(
            *op,
            subst_pred(a, solution, st),
            subst_pred(b, solution, st),
        ),
        EffExpr::Neg(a) => EffExpr::neg(subst_pred(a, solution, st)),
        EffExpr::Not(a) => EffExpr::not(subst_pred(a, solution, st)),
        EffExpr::Ite(c, t, f) => EffExpr::ite(
            subst_pred(c, solution, st),
            subst_pred(t, solution, st),
            subst_pred(f, solution, st),
        ),
        other => other.clone(),
    }
}

fn subst_shape(
    e: &Expr,
    solution: &HashMap<Sym, LinExpr>,
    lctx: &LowerCtx,
    reg: &exo_analysis::globals::GlobalReg,
) -> Expr {
    let out = exo_core::visit::map_expr(e, &mut |e| match e {
        Expr::Var(v) => match solution.get(&v) {
            Some(l) => expr_of_lin_ctx(l, lctx, reg),
            None => Expr::Var(v),
        },
        other => other,
    });
    fold_expr(&out)
}
