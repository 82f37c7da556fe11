//! `replace()` — code replacement by unification modulo linear
//! equalities (paper §3.4).
//!
//! `p.replace(s, foo)` matches the body of `foo` against the designated
//! statements of `p` and, on success, substitutes a call `foo(…)` with
//! inferred arguments. When `foo` is an `@instr` this performs
//! *instruction selection*. The ASTs must match exactly with respect to
//! statements and non-integer expressions; equivalences between integer
//! control expressions are recorded as linear equations over the unknown
//! arguments (sizes and window offsets) and solved by elimination: each
//! unknown once, from the first equation that isolates it, with its
//! solution substituted into every other equation. What is left,
//! including every further equation for a solved unknown, is a residual
//! discharged to the SMT solver. An argument is rebuilt from its
//! solution, with a quotient the lowering named spelled as the division
//! it stands for. Window arguments
//! introduce categorical choices (which caller dimensions a window
//! walks, in `increasing_injections` order); unification forms every
//! combination as a candidate, and the first candidate whose check
//! passes is accepted. When none passes, the last candidate's error is
//! reported.
//!
//! One `replace` opens one site query at the match, after unification,
//! and checks the candidates in order inside it; each candidate lowers
//! its equations in a fresh `LowerCtx`, so the formula it poses is the
//! one it would pose in a query of its own. Unification drops the
//! candidates it can tell will fail, those whose window puts into a
//! point coordinate a caller index the check must reject (see
//! `Unifier::point_doomed`). The state on the path to the last
//! candidate is never dropped, so the accepted candidate and the
//! reported error are those of the exhaustive search at every site a
//! run can reach.

use std::sync::Arc;

use exo_analysis::context::SiteQuery;
use exo_analysis::effexpr::{lift, EffExpr, LowerCtx};
use exo_analysis::globals::GlobalReg;
use exo_core::hash::{HashMap, HashSet};
use exo_core::ir::{ArgType, Expr, Proc, Stmt, WAccess};
use exo_core::path::StmtPath;
use exo_core::visit::{visit_expr, visit_stmts};
use exo_core::{DataType, Sym};
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
    /// Accesses of the formal in the callee body not yet unified.
    left: usize,
    /// Whether no point index unified so far mentions an unknown.
    clean: bool,
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
    /// Whether every embedding chosen so far was the last at its
    /// binding: the state leads to the last candidate.
    last: bool,
}

/// What lowering a caller index shows, as the candidate check would see
/// it: whether it is affine, whether it is plain (lowered without a side
/// constraint, such as a quotient's definition), and the variables its
/// value mentions.
struct IndexFacts {
    affine: bool,
    plain: bool,
    vars: Vec<Sym>,
}

/// One `replace` call's unification: the facts every partial state
/// shares, computed once.
struct Unifier<'a> {
    proc: &'a Procedure,
    callee: &'a Proc,
    block_bound: &'a HashSet<Sym>,
    /// Whether to drop doomed embeddings.
    prune: bool,
    /// Accesses of each buffer in the callee body, in unification's
    /// count.
    accesses: HashMap<Sym, usize>,
    /// Offset symbols per formal, one per caller dimension.
    offsets: HashMap<Sym, Vec<Sym>>,
    /// Rank and element type per caller buffer.
    buffers: HashMap<Sym, Option<(usize, Option<DataType>)>>,
    /// Facts per caller index, keyed by its address in the matched
    /// block; `None` for an index that reads configuration state.
    facts: HashMap<*const Expr, Option<IndexFacts>>,
    /// Lowering state for the facts alone; nothing it lowers is posed.
    scratch: LowerCtx,
}

const NO_MATCH: &str = "replace: unification found no match";

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
        let (first, caller_stmts, block_bound) = self.replace_site(stmt_pat, callee)?;
        let candidates = Unifier::new(self, callee, &block_bound, true).unify(&caller_stmts)?;
        if candidates.is_empty() {
            return serr(NO_MATCH);
        }
        let args = self.query(&first, |q| {
            let mut result = serr(NO_MATCH);
            for cand in &candidates {
                // each candidate lowers as it would in a query of its own
                q.lctx = LowerCtx::new();
                result = check_candidate(q, callee, cand, &block_bound);
                if result.is_ok() {
                    break;
                }
            }
            result
        })?;
        self.splice_call(callee, args, &first, caller_stmts.len())
    }

    /// The match of `stmt_pat`: its path, the `callee.body.len()`
    /// statements from there, and the variables bound inside them, which
    /// are out of scope for inferred arguments.
    fn replace_site(
        &self,
        stmt_pat: &Pattern,
        callee: &Proc,
    ) -> Result<(StmtPath, Vec<Stmt>, HashSet<Sym>), SchedError> {
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
        Ok((first, caller_stmts, block_bound))
    }

    /// Replaces the `n` statements from `first` with `callee(args)`.
    fn splice_call(
        &self,
        callee: &Arc<Proc>,
        args: Vec<Expr>,
        first: &StmtPath,
        n: usize,
    ) -> Result<Procedure, SchedError> {
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

    fn buffer_dtype(&self, buf: Sym) -> Option<DataType> {
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
}

impl<'a> Unifier<'a> {
    fn new(
        proc: &'a Procedure,
        callee: &'a Proc,
        block_bound: &'a HashSet<Sym>,
        prune: bool,
    ) -> Unifier<'a> {
        let mut accesses = HashMap::default();
        count_accesses(&callee.body, &mut accesses);
        Unifier {
            proc,
            callee,
            block_bound,
            prune,
            accesses,
            offsets: HashMap::default(),
            buffers: HashMap::default(),
            facts: HashMap::default(),
            scratch: LowerCtx::new(),
        }
    }

    /// Every candidate match of the callee body against `caller`, in
    /// search order.
    fn unify(&mut self, caller: &[Stmt]) -> Result<Vec<UnifyState>, SchedError> {
        let mut st = UnifyState {
            last: true,
            ..UnifyState::default()
        };
        for arg in &self.callee.args {
            if arg.ty.is_ctrl() {
                st.unknowns.insert(arg.name);
            }
        }
        let callee = self.callee;
        let mut out = Vec::new();
        self.unify_block(&callee.body, caller, st, &mut out)?;
        Ok(out)
    }

    fn unify_block(
        &mut self,
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
        self.unify_stmt(&ce[0], &pe[0], st, &mut partials)?;
        for p in partials {
            self.unify_block(&ce[1..], &pe[1..], p, out)?;
        }
        Ok(())
    }

    fn unify_stmt(
        &mut self,
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
                self.unify_block(cb, pb, st, out)?;
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
                self.unify_block(cb, pb, st, &mut mids)?;
                for m in mids {
                    self.unify_block(co, po, m, out)?;
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
                self.unify_access(*cbuf, cidx, *pbuf, pidx, st, &mut mids)?;
                for m in mids {
                    self.unify_data(crhs, prhs, m, out)?;
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
    fn unify_access(
        &mut self,
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
        let Some(formal) = self.callee.args.iter().find(|a| a.name == cbuf) else {
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
        let Some((caller_rank, have)) = self.buffer(pbuf) else {
            return Ok(());
        };
        if pidx.len() != caller_rank || caller_rank < callee_rank {
            return Ok(());
        }
        // precisions must agree (windows cannot change element type)
        if let (Some(want), Some(have)) = (formal.ty.data_type(), have) {
            if want != have && want != DataType::R && have != DataType::R {
                return Ok(());
            }
        }
        let choices: Vec<TensorBind> = match st.tensors.get(&cbuf) {
            Some(b) => {
                if b.caller_buf != pbuf || b.caller_rank != caller_rank {
                    return Ok(()); // inconsistent buffer identity
                }
                vec![b.clone()]
            }
            None => {
                let offsets = self.offsets_of(cbuf, caller_rank);
                st.unknowns.extend(offsets.iter().copied());
                // unification reaches only counted accesses; an
                // uncounted one would never be the last
                let left = self.accesses.get(&cbuf).copied().unwrap_or(usize::MAX);
                increasing_injections(callee_rank, caller_rank)
                    .into_iter()
                    .map(|dim_map| TensorBind {
                        caller_buf: pbuf,
                        caller_rank,
                        dim_map,
                        offsets: offsets.clone(),
                        left,
                        clean: true,
                    })
                    .collect()
            }
        };
        let n = choices.len();
        let mut kept = Vec::with_capacity(n);
        for (c, mut bind) in choices.into_iter().enumerate() {
            bind.left = bind.left.saturating_sub(1);
            // equations per caller dimension
            let mut eqs = Vec::with_capacity(caller_rank);
            let mut doomed = false;
            for (d, pd) in pidx.iter().enumerate() {
                let lhs = match bind.dim_map.iter().position(|&x| x == d) {
                    Some(k) => Expr::var(bind.offsets[d]).add(cidx[k].clone()),
                    None => {
                        doomed |= self.prune && self.point_doomed(pd, &mut bind, &st.unknowns);
                        Expr::var(bind.offsets[d])
                    }
                };
                eqs.push((lhs, pd.clone()));
            }
            let last = st.last && c + 1 == n;
            if !doomed || last {
                kept.push((bind, eqs, last));
            }
        }
        let k = kept.len();
        for (i, (bind, eqs, last)) in kept.into_iter().enumerate() {
            let mut s2 = if i + 1 == k {
                std::mem::take(&mut st)
            } else {
                st.clone()
            };
            s2.last = last;
            s2.equations.extend(eqs);
            s2.tensors.insert(cbuf, bind);
            out.push(s2);
        }
        Ok(())
    }

    /// Whether the point coordinate `off_d == pd` of `bind` dooms the
    /// candidate, so that its check would certainly fail:
    /// * `pd` lowers non-affine, and the check rejects every non-affine
    ///   equation; or
    /// * this is the formal's last access, `pd` is plain and mentions a
    ///   variable `v` bound inside the replaced block, and none of the
    ///   formal's point indices mentions an unknown. Each of those indices
    ///   gives an equation `off_d == index` with `off_d` its only unknown.
    ///   Elimination solves `off_d` from the first of them, `P`, and
    ///   leaves every later one as the residual `P == index`. If `P` is
    ///   `pd`, or mentions a block-bound variable itself, the scope check
    ///   rejects it. Otherwise the residual `P == pd` has a non-zero
    ///   coefficient on `v`, which nothing outside the block constrains,
    ///   so the solver cannot prove it. (At a site whose hypothesis is
    ///   unsatisfiable, which no run reaches, every goal is valid, and the
    ///   exhaustive search may accept a candidate dropped here.)
    ///
    /// An index that reads configuration state is never doomed: lifting
    /// it would need the site's dataflow state.
    fn point_doomed(&mut self, pd: &Expr, bind: &mut TensorBind, unknowns: &HashSet<Sym>) -> bool {
        let block_bound = self.block_bound;
        let Some(facts) = self.facts_of(pd) else {
            bind.clean = false;
            return false;
        };
        if facts.vars.iter().any(|v| unknowns.contains(v)) {
            bind.clean = false;
        }
        !facts.affine
            || (bind.left == 0
                && bind.clean
                && facts.plain
                && facts.vars.iter().any(|v| block_bound.contains(v)))
    }

    /// The lowering facts of a caller index, computed once per `replace`.
    fn facts_of(&mut self, e: &Expr) -> Option<&IndexFacts> {
        let scratch = &mut self.scratch;
        self.facts
            .entry(e as *const Expr)
            .or_insert_with(|| {
                let mut reads_config = false;
                visit_expr(e, &mut |x| {
                    reads_config |= matches!(x, Expr::ReadConfig { .. });
                });
                if reads_config {
                    return None;
                }
                // with no configuration read, lifting never touches the
                // registry, so a throwaway one stands in for the site's
                let sides = scratch.side.len();
                let lowered = scratch.lower_int(&lift(e, &mut GlobalReg::new()));
                Some(IndexFacts {
                    affine: lowered.def == Formula::True,
                    plain: scratch.side.len() == sides,
                    vars: lowered.val.vars().collect(),
                })
            })
            .as_ref()
    }

    /// The offset symbols of formal `cbuf`, minted once per `replace`.
    fn offsets_of(&mut self, cbuf: Sym, rank: usize) -> Vec<Sym> {
        let offsets = self.offsets.entry(cbuf).or_default();
        while offsets.len() < rank {
            offsets.push(Sym::new(format!("off_{}_{}", cbuf.name(), offsets.len())));
        }
        offsets[..rank].to_vec()
    }

    /// A caller buffer's rank and element type.
    fn buffer(&mut self, buf: Sym) -> Option<(usize, Option<DataType>)> {
        let proc = self.proc;
        *self
            .buffers
            .entry(buf)
            .or_insert_with(|| Some((proc.buffer_rank(buf)?, proc.buffer_dtype(buf))))
    }

    fn unify_data(
        &mut self,
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
                self.unify_access(*cb, ci, *pb, pi, st, out)?;
            }
            (Expr::BinOp(co, ca, cb), Expr::BinOp(po, pa, pb)) if co == po => {
                let mut mids = Vec::new();
                self.unify_data(ca, pa, st, &mut mids)?;
                for m in mids {
                    self.unify_data(cb, pb, m, out)?;
                }
            }
            (Expr::Neg(ca), Expr::Neg(pa)) => self.unify_data(ca, pa, st, out)?,
            (Expr::BuiltIn { func: cf, args: ca }, Expr::BuiltIn { func: pf, args: pa })
                if cf.name() == pf.name() && ca.len() == pa.len() =>
            {
                let mut states = vec![st];
                for (x, y) in ca.iter().zip(pa) {
                    let mut next = Vec::new();
                    for s in states {
                        self.unify_data(x, y, s, &mut next)?;
                    }
                    states = next;
                }
                out.extend(states);
            }
            _ => {}
        }
        Ok(())
    }
}

/// Counts, per buffer, the accesses unification visits in `block`: every
/// assignment's target and every read in its data expression.
fn count_accesses(block: &[Stmt], out: &mut HashMap<Sym, usize>) {
    fn data(e: &Expr, out: &mut HashMap<Sym, usize>) {
        match e {
            Expr::Read { buf, .. } => *out.entry(*buf).or_default() += 1,
            Expr::BinOp(_, a, b) => {
                data(a, out);
                data(b, out);
            }
            Expr::Neg(a) => data(a, out),
            Expr::BuiltIn { args, .. } => args.iter().for_each(|a| data(a, out)),
            _ => {}
        }
    }
    for s in block {
        match s {
            Stmt::For { body, .. } => count_accesses(body, out),
            Stmt::If { body, orelse, .. } => {
                count_accesses(body, out);
                count_accesses(orelse, out);
            }
            Stmt::Assign { buf, rhs, .. } | Stmt::Reduce { buf, rhs, .. } => {
                *out.entry(*buf).or_default() += 1;
                data(rhs, out);
            }
            _ => {}
        }
    }
}

/// Solves the equations of a candidate match, verifies residuals and
/// callee preconditions, and builds the call's arguments. The equations
/// are lowered in `q.lctx`, which the caller leaves fresh.
fn check_candidate(
    q: &mut SiteQuery<'_>,
    callee: &Proc,
    st: &UnifyState,
    block_bound: &HashSet<Sym>,
) -> Result<Vec<Expr>, SchedError> {
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

    // eliminate unknowns with ±1 coefficients. Each solution is
    // substituted into every other equation and solution, so no unknown
    // is solved twice: a second equation for a solved unknown stays
    // behind without it, as a residual the solver must prove.
    let mut solution: HashMap<Sym, LinExpr> = HashMap::default();
    let mut work = lowered;
    let mut progress = true;
    while progress {
        progress = false;
        let mut i = 0;
        while i < work.len() {
            let target = work[i]
                .coeffs
                .iter()
                .find(|(v, &c)| st.unknowns.contains(v) && (c == 1 || c == -1))
                .map(|(&v, &c)| (v, c));
            let Some((v, c)) = target else {
                i += 1;
                continue;
            };
            // c·v + rest = 0  ⇒  v = -rest / c, exact for c = ±1
            let mut rest = work.remove(i);
            rest.coeffs.remove(&v);
            let val = rest.scale(-c);
            for e in solution.values_mut().chain(work.iter_mut()) {
                *e = e.subst(v, &val);
            }
            solution.insert(v, val);
            progress = true;
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

    // scope check: solutions may not reference block-bound variables.
    // Every solved unknown is a control formal or a bound formal's
    // offset; name the first offender in formal, then dimension, order.
    for arg in &callee.args {
        let unknowns = match st.tensors.get(&arg.name) {
            Some(bind) => &bind.offsets[..],
            None => std::slice::from_ref(&arg.name),
        };
        for v in unknowns {
            let out_of_scope = solution
                .get(v)
                .is_some_and(|sol| mentions_any(sol, block_bound, &q.lctx));
            if out_of_scope {
                return serr(format!(
                    "replace: inferred value for {v} depends on variables bound \
                     inside the replaced block"
                ));
            }
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
        let lifted = subst_pred(&q.lift(pred), &solution, st);
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

/// Whether `e` mentions a variable of `vars`, also through the dividend
/// of a quotient symbol.
fn mentions_any(e: &LinExpr, vars: &HashSet<Sym>, lctx: &LowerCtx) -> bool {
    e.vars().any(|v| {
        vars.contains(&v)
            || lctx
                .quotient_of(v)
                .is_some_and(|(t, _)| mentions_any(t, vars, lctx))
    })
}

/// Rebuilds a surface expression from a solved linear expression,
/// mapping canonical stride, configuration and quotient symbols back to
/// `stride(buf, d)`, `Config.field` and `t / c` expressions.
fn expr_of_lin_ctx(e: &LinExpr, lctx: &LowerCtx, reg: &exo_analysis::globals::GlobalReg) -> Expr {
    let var_expr = |v: Sym| -> Expr {
        if let Some((buf, dim)) = lctx.stride_of(v) {
            Expr::Stride { buf, dim }
        } else if let Some((config, field)) = reg.field_of(v) {
            Expr::ReadConfig { config, field }
        } else if let Some((t, c)) = lctx.quotient_of(v) {
            expr_of_lin_ctx(t, lctx, reg).div(Expr::int(c))
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

#[cfg(test)]
mod tests {
    use super::*;
    use exo_core::build::{read, ProcBuilder};
    use exo_core::ir::FnArg;
    use exo_core::printer::proc_to_string;
    use exo_core::types::{CtrlType, MemName};
    use exo_interp::{ArgVal, InterpError, Machine};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The exhaustive search: every candidate unification forms, each
    /// checked in a site query of its own, the first accepted one taken
    /// and otherwise the last one's error reported.
    fn replace_exhaustive(
        p: &Procedure,
        pat: &str,
        callee: &Arc<Proc>,
    ) -> Result<Procedure, SchedError> {
        let (first, caller_stmts, block_bound) = p.replace_site(&Pattern::from(pat), callee)?;
        let candidates = Unifier::new(p, callee, &block_bound, false).unify(&caller_stmts)?;
        let mut last_err = SchedError::new(NO_MATCH);
        for cand in &candidates {
            match p.query(&first, |q| check_candidate(q, callee, cand, &block_bound)) {
                Ok(args) => return p.splice_call(callee, args, &first, caller_stmts.len()),
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    /// How a callee index reads: a loop iterator (by depth) or `0`.
    #[derive(Clone, Copy)]
    enum Ix {
        Iter(usize),
        Zero,
    }

    struct Formal {
        sym: Sym,
        idx: Vec<Ix>,
    }

    /// A seeded callee and a caller whose block has the callee body's
    /// shape, with every formal's accesses embedded into a caller buffer
    /// of rank 1–4: mapped dimensions offset by a random base, point
    /// dimensions indexed by constants, outer and block iterators,
    /// configuration reads, a callee size, divisions and products. A
    /// formal read twice keeps or re-rolls its point indices.
    fn pair(seed: u64) -> (Arc<Proc>, Arc<Proc>, Free) {
        let mut rng = StdRng::seed_from_u64(seed);
        let depth = rng.gen_range(1..=2usize);
        let two_stmts = rng.gen_bool(0.35);

        // callee
        let mut cb = ProcBuilder::new("callee");
        let n = cb.size("n");
        let m = (depth == 2 && rng.gen_bool(0.5)).then(|| cb.size("m"));
        if rng.gen_bool(0.05) {
            cb.size("pad");
        }
        let ext = |d: usize| match (d, m) {
            (0, _) => Expr::var(n),
            (_, Some(m)) => Expr::var(m),
            _ => Expr::int(4),
        };
        let formal = |cb: &mut ProcBuilder, rng: &mut StdRng, name: &str, rank: usize| {
            let idx: Vec<Ix> = match rank {
                0 => vec![],
                1 if depth == 2 && rng.gen_bool(0.3) => vec![Ix::Iter(1)],
                1 if rng.gen_bool(0.15) => vec![Ix::Zero],
                _ => (0..rank).map(Ix::Iter).collect(),
            };
            let shape = idx
                .iter()
                .map(|ix| match ix {
                    Ix::Iter(d) => ext(*d),
                    Ix::Zero => Expr::int(1),
                })
                .collect();
            let sym = if rank == 0 {
                cb.scalar(name, DataType::F32)
            } else {
                cb.window_arg(name, DataType::F32, shape, MemName::dram())
            };
            Formal { sym, idx }
        };
        let dst = formal(&mut cb, &mut rng, "dst", depth);
        let nsrc = rng.gen_range(1..=2usize);
        let srcs: Vec<Formal> = (0..nsrc)
            .map(|k| {
                let rank = rng.gen_range(0..=depth);
                formal(&mut cb, &mut rng, &format!("src{k}"), rank)
            })
            .collect();
        if rng.gen_bool(0.3) {
            let bound = [2, 4, 8][rng.gen_range(0..3usize)];
            cb.assert_pred(Expr::var(n).le(Expr::int(bound)));
        }
        let doubled = rng.gen_bool(0.05);
        // statements: (reduce?, reads as (formal, repeat))
        let nstmts = if two_stmts { 2 } else { 1 };
        let stmts: Vec<(bool, Vec<usize>)> = (0..nstmts)
            .map(|_| {
                let reads = match rng.gen_range(0..10usize) {
                    0 => vec![],
                    1 | 2 => vec![0, 0],
                    3 | 4 if nsrc == 2 => vec![0, 1],
                    _ => vec![0],
                };
                (rng.gen_bool(0.3), reads)
            })
            .collect();
        let callee_ix = |f: &Formal, iters: &[Sym]| -> Vec<Expr> {
            f.idx
                .iter()
                .map(|ix| match ix {
                    Ix::Iter(d) => Expr::var(iters[*d]),
                    Ix::Zero => Expr::int(0),
                })
                .collect()
        };
        for (reduce, reads) in &stmts {
            let mut iters = Vec::new();
            for d in 0..depth {
                let hi = if d == 0 && doubled {
                    Expr::int(2).mul(Expr::var(n))
                } else {
                    ext(d)
                };
                iters.push(cb.begin_for(["i", "j"][d], Expr::int(0), hi));
            }
            let rhs = rhs_of(reads, |k| read(srcs[k].sym, callee_ix(&srcs[k], &iters)));
            let idx = callee_ix(&dst, &iters);
            if *reduce {
                cb.reduce(dst.sym, idx, rhs);
            } else {
                cb.assign(dst.sym, idx, rhs);
            }
            for _ in 0..depth {
                cb.end_for();
            }
        }
        let callee = cb.finish();

        // caller: one buffer per formal (a source may alias another)
        let mut pb = ProcBuilder::new("caller");
        let formals: Vec<&Formal> = std::iter::once(&dst).chain(&srcs).collect();
        let mut bufs: Vec<(Sym, usize)> = Vec::new();
        for (k, f) in formals.iter().enumerate() {
            if k > 0 && rng.gen_bool(0.15) {
                let prev = bufs[rng.gen_range(0..k)];
                bufs.push(prev);
                continue;
            }
            let rank = rng.gen_range(f.idx.len().max(1)..=4);
            let sym = pb.tensor(&format!("X{k}"), DataType::F32, vec![Expr::int(8); rank]);
            bufs.push((sym, rank));
        }
        let cfg = (Sym::new("Cfg"), Sym::new("row"));
        if rng.gen_bool(0.2) {
            pb.write_config(cfg.0, cfg.1, Expr::int(2));
        }
        let o = pb.begin_for("o", Expr::int(0), Expr::int(4));
        let extent = [4, 8][rng.gen_range(0..2usize)];
        // per formal: the caller dimensions it walks, and their bases
        let maps: Vec<Vec<(usize, Expr)>> = formals
            .iter()
            .zip(&bufs)
            .map(|(f, &(_, rank))| {
                let mut dims: Vec<usize> = (0..rank).collect();
                while dims.len() > f.idx.len() {
                    dims.remove(rng.gen_range(0..dims.len()));
                }
                if dims.len() == 2 && rng.gen_bool(0.05) {
                    dims.swap(0, 1);
                }
                dims.into_iter()
                    .map(|d| {
                        let base = match rng.gen_range(0..6usize) {
                            0 => Expr::var(o),
                            1 => Expr::int(1),
                            _ => Expr::int(0),
                        };
                        (d, base)
                    })
                    .collect()
            })
            .collect();
        let mut points: Vec<Vec<Option<Expr>>> =
            bufs.iter().map(|&(_, rank)| vec![None; rank]).collect();
        for (s, (reduce, reads)) in stmts.iter().enumerate() {
            let mut iters = Vec::new();
            for d in 0..depth {
                let name = if s == 0 {
                    ["ii", "jj"][d]
                } else {
                    ["ii2", "jj2"][d]
                };
                let hi = if d == 0 { extent } else { 4 };
                iters.push(pb.begin_for(name, Expr::int(0), Expr::int(hi)));
            }
            let mut access = |rng: &mut StdRng, k: usize| -> (Sym, Vec<Expr>) {
                let (buf, rank) = bufs[k];
                let idx = (0..rank)
                    .map(|d| {
                        if let Some(j) = maps[k].iter().position(|(pd, _)| *pd == d) {
                            let at = match formals[k].idx[j] {
                                Ix::Iter(t) => Expr::var(iters[t]),
                                Ix::Zero => Expr::int(0),
                            };
                            return maps[k][j].1.clone().add(at);
                        }
                        if points[k][d].is_none() || rng.gen_bool(0.3) {
                            points[k][d] = Some(point(rng, o, &iters, n, cfg));
                        }
                        points[k][d].clone().unwrap_or(Expr::int(0))
                    })
                    .collect();
                (buf, idx)
            };
            let (dbuf, didx) = access(&mut rng, 0);
            let mut read_of = |k: usize| {
                let (buf, idx) = access(&mut rng, k + 1);
                read(buf, idx)
            };
            let rhs = rhs_of(reads, &mut read_of);
            if *reduce {
                pb.reduce(dbuf, didx, rhs);
            } else {
                pb.assign(dbuf, didx, rhs);
            }
            for _ in 0..depth {
                pb.end_for();
            }
        }
        pb.end_for();
        let n = (n, if doubled { extent / 2 } else { extent });
        (pb.finish(), callee, Free { n, cfg })
    }

    /// What a caller of [`pair`] may read without binding it: the
    /// callee's size `n`, with the value its block's first loop gives it
    /// (that loop's extent, halved when the callee's runs to `2·n`), and
    /// the configuration field `Cfg.row`.
    struct Free {
        n: (Sym, i64),
        cfg: (Sym, Sym),
    }

    fn rhs_of(reads: &[usize], mut read_of: impl FnMut(usize) -> Expr) -> Expr {
        match reads {
            [] => Expr::float(0.0),
            [a] => read_of(*a),
            [a, b] => {
                let x = read_of(*a);
                x.add(read_of(*b))
            }
            _ => unreachable!("at most two reads"),
        }
    }

    /// A random point index.
    fn point(rng: &mut StdRng, o: Sym, iters: &[Sym], n: Sym, cfg: (Sym, Sym)) -> Expr {
        let it = Expr::var(iters[rng.gen_range(0..iters.len())]);
        match rng.gen_range(0..18usize) {
            0 | 1 => Expr::int(0),
            2 => Expr::int(3),
            3 => Expr::var(o).mul(Expr::int(2)),
            4..=6 => Expr::var(o),
            7 => Expr::var(o).add(Expr::int(1)),
            8 => it,
            9 => it.add(Expr::var(o)),
            10 | 11 => Expr::ReadConfig {
                config: cfg.0,
                field: cfg.1,
            },
            12 => Expr::var(o).div(Expr::int(2)),
            13 | 17 => match rng.gen_range(0..3usize) {
                0 => Expr::var(n),
                1 => Expr::var(n).add(it),
                _ => Expr::var(n).add(Expr::var(o)),
            },
            14 => Expr::int(1),
            15 => Expr::var(o).add(Expr::int(2)),
            _ if rng.gen_bool(0.5) => Expr::var(o),
            _ if rng.gen_bool(0.5) => it.mul(Expr::var(o)),
            _ => Expr::var(o).mul(Expr::var(o)),
        }
    }

    /// Runs `proc` through the interpreter on seeded dyadic inputs (one
    /// dense tensor per argument, every element a multiple of 1/4 in
    /// [-4, 4), so sums stay exact) and returns the bits of every
    /// argument's contents afterwards. A call runs its callee's body. The
    /// run starts with `Cfg.row` set to 3 and binds the free size `n`, as
    /// an extra argument.
    fn run_dyadic(proc: &Proc, seed: u64, free: &Free) -> Result<Vec<u64>, InterpError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = Machine::new();
        let mut setup = ProcBuilder::new("setup");
        setup.write_config(free.cfg.0, free.cfg.1, Expr::int(3));
        m.run(&setup.finish(), &[])?;
        let bufs: Vec<_> = proc
            .args
            .iter()
            .map(|arg| {
                let ArgType::Tensor { ty, shape, .. } = &arg.ty else {
                    unreachable!("callers take dense tensors only");
                };
                let shape: Vec<usize> =
                    shape.iter().map(|e| e.as_int().unwrap() as usize).collect();
                let data: Vec<f64> = (0..shape.iter().product::<usize>())
                    .map(|_| f64::from(rng.gen_range(-16..16i32)) / 4.0)
                    .collect();
                m.alloc_extern(&arg.name.name(), *ty, &shape, &data)
            })
            .collect();
        let mut args: Vec<ArgVal> = bufs.iter().map(|&b| ArgVal::Tensor(b)).collect();
        let mut bound = proc.clone();
        bound.args.push(FnArg {
            name: free.n.0,
            ty: ArgType::Ctrl(CtrlType::Size),
        });
        args.push(ArgVal::Int(free.n.1));
        m.run(&bound, &args)?;
        let mut out = Vec::new();
        for b in bufs {
            out.extend(m.buffer_values(b)?.into_iter().map(f64::to_bits));
        }
        Ok(out)
    }

    #[test]
    fn an_index_with_a_quotient_is_never_doomed() {
        // `i - i / 1` is 0 at every iteration, though its value mentions
        // the block's `i`: the middle of `src`'s three windows, along
        // dimension 1, leaves the residual `0 == i - i / 1`, which the
        // solver proves
        let mut cb = ProcBuilder::new("add_self");
        let n = cb.size("n");
        let src = cb.window_arg("src", DataType::F32, vec![Expr::var(n)], MemName::dram());
        let dst = cb.window_arg("dst", DataType::F32, vec![Expr::var(n)], MemName::dram());
        let i = cb.begin_for("i", Expr::int(0), Expr::var(n));
        let at = || vec![Expr::var(i)];
        cb.assign(dst, at(), read(src, at()).add(read(src, at())));
        cb.end_for();
        let callee = cb.finish();

        let mut pb = ProcBuilder::new("zero_twice");
        let x = pb.tensor("X", DataType::F32, vec![Expr::int(8); 3]);
        let y = pb.tensor("Y", DataType::F32, vec![Expr::int(8)]);
        let i = pb.begin_for("i", Expr::int(0), Expr::int(8));
        let zero = Expr::var(i).sub(Expr::var(i).div(Expr::int(1)));
        let rhs = read(x, vec![Expr::int(0), Expr::var(i), Expr::int(0)])
            .add(read(x, vec![zero, Expr::var(i), Expr::int(0)]));
        pb.assign(y, vec![Expr::var(i)], rhs);
        pb.end_for();
        let p = Procedure::new(pb.finish());

        let want = replace_exhaustive(&p, "for i in _: _", &callee).map(|q| q.show());
        let got = p.replace("for i in _: _", &callee).map(|q| q.show());
        assert!(want.is_ok(), "{want:?}");
        assert_eq!(got, want);
    }

    #[test]
    fn pruned_search_matches_the_exhaustive_one() {
        const SEEDS: u64 = 800;
        let (mut ok, mut pruned, mut mismatches) = (0u64, 0u64, Vec::new());
        let (mut executed, mut miscompiles) = (0u64, Vec::new());
        for seed in 0..SEEDS {
            let (caller, callee, free) = pair(seed);
            let p = Procedure::new(Arc::clone(&caller));
            let want = replace_exhaustive(&p, "for ii in _: _", &callee)
                .map(|q| q.show())
                .map_err(|e| e.message);
            let accepted = p.replace("for ii in _: _", &callee);
            let got = accepted
                .as_ref()
                .map(|q| q.show())
                .map_err(|e| e.message.clone());
            // an accepted call computes what the block it replaced did,
            // wherever the block itself runs
            if let (Ok(q), Ok(before)) = (&accepted, run_dyadic(&caller, seed, &free)) {
                executed += 1;
                let after = run_dyadic(q.proc(), seed, &free);
                if after.as_ref() != Ok(&before) {
                    miscompiles.push(format!(
                        "seed {seed}: {}\n{}\n{}",
                        after.map_or_else(|e| e.message, |_| "outputs differ".into()),
                        proc_to_string(&caller),
                        q.show()
                    ));
                }
            }
            ok += u64::from(got.is_ok());
            // an accepted call names caller variables only: no offset
            // unknown (seed 230 once did) and no lowering's quotient
            if let Ok(shown) = &got {
                let foreign = shown
                    .split(|c: char| !c.is_alphanumeric() && c != '_')
                    .find(|w| w.starts_with("off_") || *w == "q");
                assert_eq!(foreign, None, "seed {seed}:\n{shown}");
            }
            if let Ok((_, stmts, bound)) = p.replace_site(&Pattern::from("for ii in _: _"), &callee)
            {
                let all = Unifier::new(&p, &callee, &bound, false).unify(&stmts);
                let kept = Unifier::new(&p, &callee, &bound, true).unify(&stmts);
                if let (Ok(all), Ok(kept)) = (all, kept) {
                    pruned += u64::from(kept.len() < all.len());
                }
            }
            if got != want {
                mismatches.push(format!(
                    "seed {seed}: pruned {got:?}, exhaustive {want:?}\n{}\n{}",
                    proc_to_string(&caller),
                    proc_to_string(&callee)
                ));
            }
        }
        assert!(
            mismatches.is_empty(),
            "{} of {SEEDS} seeds differ:\n{}",
            mismatches.len(),
            mismatches.join("\n")
        );
        assert!(
            miscompiles.is_empty(),
            "{} of {executed} executed calls miscompile:\n{}",
            miscompiles.len(),
            miscompiles.join("\n")
        );
        // the pairs exercise both outcomes, the pruning itself and the
        // execution of accepted calls: 111 of the 153 run, the other
        // callers index past their own buffers
        assert!(
            ok >= SEEDS / 8 && pruned >= SEEDS / 2 && executed >= 111,
            "{ok} of {SEEDS} accepted ({executed} executed), {pruned} pruned"
        );
    }
}
