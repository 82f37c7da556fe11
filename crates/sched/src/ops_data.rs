//! Data and memory scheduling operators (paper Fig. 2): `set_memory`,
//! `set_precision`, `lift_alloc`, `bind_expr`, and `stage_mem`.

use exo_core::hash::HashSet;
use exo_core::ir::{ArgType, Expr, Stmt};
use exo_core::path::visit_paths;
use exo_core::printer::expr_to_string;
use exo_core::types::{DataType, MemName};
use exo_core::visit::{map_stmt_exprs, visit_expr, visit_stmts};
use exo_core::Sym;

use exo_analysis::conditions;

use crate::fold::{fold_block, fold_expr};
use crate::handle::{serr, Procedure, SchedError};
use crate::pattern::Pattern;

impl Procedure {
    /// `set_memory(a, MEM)`: changes the memory annotation of an
    /// allocation (memory annotations are ignored by the analyses, so
    /// this is always equivalence-preserving; legality is enforced by the
    /// backend checks at code-generation time).
    pub fn set_memory(
        &self,
        alloc_pat: impl Into<Pattern>,
        mem: MemName,
    ) -> Result<Procedure, SchedError> {
        let alloc_pat = alloc_pat.into();
        self.instrumented("set_memory", format!("{alloc_pat}, MemName({mem})"), || {
            self.set_memory_impl(&alloc_pat, mem)
        })
    }

    fn set_memory_impl(&self, alloc_pat: &Pattern, mem: MemName) -> Result<Procedure, SchedError> {
        let path = self.find(alloc_pat)?;
        let Stmt::Alloc {
            name, ty, shape, ..
        } = self.stmt(&path)?.clone()
        else {
            return serr(format!("set_memory: {alloc_pat:?} is not an allocation"));
        };
        let new = Stmt::Alloc {
            name,
            ty,
            shape,
            mem,
        };
        self.splice(&path, &mut |_| vec![new.clone()])
    }

    /// `set_precision(a, typ)`: refines the precision of an allocation
    /// (e.g. the abstract `R` to `f32`).
    pub fn set_precision(
        &self,
        alloc_pat: impl Into<Pattern>,
        ty: DataType,
    ) -> Result<Procedure, SchedError> {
        let alloc_pat = alloc_pat.into();
        self.instrumented("set_precision", format!("{alloc_pat}, {ty:?}"), || {
            self.set_precision_impl(&alloc_pat, ty)
        })
    }

    fn set_precision_impl(
        &self,
        alloc_pat: &Pattern,
        ty: DataType,
    ) -> Result<Procedure, SchedError> {
        let path = self.find(alloc_pat)?;
        let Stmt::Alloc {
            name, shape, mem, ..
        } = self.stmt(&path)?.clone()
        else {
            return serr(format!("set_precision: {alloc_pat:?} is not an allocation"));
        };
        let new = Stmt::Alloc {
            name,
            ty,
            shape,
            mem,
        };
        self.splice(&path, &mut |_| vec![new.clone()])
    }

    /// `set_arg_precision(name, typ)`: refines the precision of a tensor
    /// or scalar *parameter*.
    pub fn set_arg_precision(&self, arg: &str, ty: DataType) -> Result<Procedure, SchedError> {
        self.instrumented("set_arg_precision", format!("{arg}, {ty:?}"), || {
            self.set_arg_precision_impl(arg, ty)
        })
    }

    fn set_arg_precision_impl(&self, arg: &str, ty: DataType) -> Result<Procedure, SchedError> {
        let mut args = self.proc().args.clone();
        let mut hit = false;
        for a in &mut args {
            if a.name.name() == arg {
                match &mut a.ty {
                    ArgType::Scalar { ty: t, .. } | ArgType::Tensor { ty: t, .. } => {
                        *t = ty;
                        hit = true;
                    }
                    ArgType::Ctrl(_) => {
                        return serr(format!("set_arg_precision: {arg} is a control argument"))
                    }
                }
            }
        }
        if !hit {
            return serr(format!("set_arg_precision: no argument named {arg}"));
        }
        Ok(self.with_proc(args, self.proc().body.clone()))
    }

    /// `set_arg_memory(name, MEM)`: changes the memory annotation of a
    /// tensor parameter.
    pub fn set_arg_memory(&self, arg: &str, mem: MemName) -> Result<Procedure, SchedError> {
        self.instrumented("set_arg_memory", format!("{arg}, MemName({mem})"), || {
            self.set_arg_memory_impl(arg, mem)
        })
    }

    fn set_arg_memory_impl(&self, arg: &str, mem: MemName) -> Result<Procedure, SchedError> {
        let mut args = self.proc().args.clone();
        let mut hit = false;
        for a in &mut args {
            if a.name.name() == arg {
                match &mut a.ty {
                    ArgType::Scalar { mem: m, .. } | ArgType::Tensor { mem: m, .. } => {
                        *m = mem;
                        hit = true;
                    }
                    ArgType::Ctrl(_) => {
                        return serr(format!("set_arg_memory: {arg} is a control argument"))
                    }
                }
            }
        }
        if !hit {
            return serr(format!("set_arg_memory: no argument named {arg}"));
        }
        Ok(self.with_proc(args, self.proc().body.clone()))
    }

    /// `lift_alloc(a)`: hoists an allocation out of its enclosing loop or
    /// conditional. The allocation's shape must not depend on the
    /// enclosing binder. Reusing one buffer across iterations is
    /// equivalent because reads of uninitialized memory are errors
    /// (paper §4.1).
    pub fn lift_alloc(&self, alloc_pat: impl Into<Pattern>) -> Result<Procedure, SchedError> {
        let alloc_pat = alloc_pat.into();
        self.instrumented("lift_alloc", alloc_pat.as_str(), || {
            self.lift_alloc_impl(&alloc_pat)
        })
    }

    fn lift_alloc_impl(&self, alloc_pat: &Pattern) -> Result<Procedure, SchedError> {
        let path = self.find(alloc_pat)?;
        let Stmt::Alloc { shape, .. } = self.stmt(&path)?.clone() else {
            return serr(format!("lift_alloc: {alloc_pat:?} is not an allocation"));
        };
        let Some(parent_path) = path.parent() else {
            return serr("lift_alloc: allocation is already at the top level");
        };
        let parent = self.stmt(&parent_path)?.clone();
        if let Stmt::For { iter, .. } = &parent {
            let mut used = HashSet::default();
            for e in &shape {
                visit_expr(e, &mut |e| {
                    if let Expr::Var(v) = e {
                        used.insert(*v);
                    }
                });
            }
            if used.contains(iter) {
                return serr("lift_alloc: allocation shape depends on the loop iterator");
            }
        }
        let alloc_stmt = self.stmt(&path)?.clone();
        // remove from inner block, re-insert before the parent
        let p = self.splice(&path, &mut |_| vec![])?;
        p.splice(&parent_path, &mut |s| vec![alloc_stmt.clone(), s.clone()])
    }

    /// `bind_expr(s, e, a')`: binds a pure data sub-expression of the
    /// matched statement to a fresh scalar: `a' : R; a' = e; s[e ↦ a']`.
    ///
    /// The expression pattern is either `"buf[_]"` (the first read of
    /// `buf`) or the exact printed form of the expression.
    pub fn bind_expr(
        &self,
        stmt_pat: impl Into<Pattern>,
        expr_pat: &str,
        new_name: &str,
    ) -> Result<Procedure, SchedError> {
        let stmt_pat = stmt_pat.into();
        self.instrumented(
            "bind_expr",
            format!("{stmt_pat}, {expr_pat}, {new_name}"),
            || self.bind_expr_impl(&stmt_pat, expr_pat, new_name),
        )
    }

    fn bind_expr_impl(
        &self,
        stmt_pat: &Pattern,
        expr_pat: &str,
        new_name: &str,
    ) -> Result<Procedure, SchedError> {
        let path = self.find(stmt_pat)?;
        let stmt = self.stmt(&path)?.clone();
        let target = find_expr(&stmt, expr_pat).ok_or_else(|| {
            SchedError::new(format!("bind_expr: no sub-expression matches {expr_pat:?}"))
        })?;

        // scope: the expression may not use variables bound inside `stmt`
        let mut inner_bound = HashSet::default();
        visit_stmts(std::slice::from_ref(&stmt), &mut |s| match s {
            Stmt::For { iter, .. } => {
                inner_bound.insert(*iter);
            }
            Stmt::Alloc { name, .. } | Stmt::WindowDef { name, .. } => {
                inner_bound.insert(*name);
            }
            _ => {}
        });
        let mut used = HashSet::default();
        visit_expr(&target, &mut |e| match e {
            Expr::Var(v) => {
                used.insert(*v);
            }
            Expr::Read { buf, .. } => {
                used.insert(*buf);
            }
            _ => {}
        });
        if used.intersection(&inner_bound).next().is_some() {
            return serr(
                "bind_expr: expression uses variables bound inside the statement; \
                 bind at a deeper statement instead",
            );
        }

        let fresh = Sym::new(new_name);
        let dtype = self.infer_dtype(&target);
        let alloc = Stmt::Alloc {
            name: fresh,
            ty: dtype,
            shape: vec![],
            mem: MemName::dram(),
        };
        let bind = Stmt::Assign {
            buf: fresh,
            idx: vec![],
            rhs: target.clone(),
        };
        let replaced = map_stmt_exprs(&stmt, &mut |e| {
            if e == target {
                Expr::Read {
                    buf: fresh,
                    idx: vec![],
                }
            } else {
                e
            }
        });
        self.splice(&path, &mut |_| {
            vec![alloc.clone(), bind.clone(), replaced.clone()]
        })
    }

    /// `expand_scalar(s, e, lane, a', MEM)`: scalar expansion for
    /// vectorization — binds a lane-invariant data expression of the
    /// matched statement to a vector indexed by the `lane` loop:
    ///
    /// ```text
    /// a' : ty[extent(lane)] @ MEM
    /// for l in 0..extent: a'[l] = e
    /// s[ e ↦ a'[lane] ]
    /// ```
    ///
    /// Equivalent because every lane holds the same value; the expansion
    /// loop later unifies with a broadcast instruction.
    pub fn expand_scalar(
        &self,
        stmt_pat: impl Into<Pattern>,
        expr_pat: &str,
        lane_loop: &str,
        new_name: &str,
        mem: MemName,
    ) -> Result<Procedure, SchedError> {
        let stmt_pat = stmt_pat.into();
        self.instrumented(
            "expand_scalar",
            format!("{stmt_pat}, {expr_pat}, {lane_loop}, {new_name}, MemName({mem})"),
            || self.expand_scalar_impl(&stmt_pat, expr_pat, lane_loop, new_name, mem),
        )
    }

    fn expand_scalar_impl(
        &self,
        stmt_pat: &Pattern,
        expr_pat: &str,
        lane_loop: &str,
        new_name: &str,
        mem: MemName,
    ) -> Result<Procedure, SchedError> {
        let path = self.find(stmt_pat)?;
        let stmt = self.stmt(&path)?.clone();
        let target = find_expr(&stmt, expr_pat).ok_or_else(|| {
            SchedError::new(format!(
                "expand_scalar: no sub-expression matches {expr_pat:?}"
            ))
        })?;
        // locate the lane loop inside the statement, with constant extent
        let mut lane: Option<(Sym, i64)> = None;
        visit_stmts(std::slice::from_ref(&stmt), &mut |s| {
            if let Stmt::For { iter, lo, hi, .. } = s {
                if iter.name() == lane_loop && lane.is_none() {
                    if let (Some(0), Some(h)) = (lo.as_int(), hi.as_int()) {
                        lane = Some((*iter, h));
                    }
                }
            }
        });
        let Some((lane_var, lanes)) = lane else {
            return serr(format!(
                "expand_scalar: no zero-based constant loop named {lane_loop} in the statement"
            ));
        };
        // the expression must be lane-invariant and in scope before `s`
        let mut used = HashSet::default();
        visit_expr(&target, &mut |e| match e {
            Expr::Var(v) => {
                used.insert(*v);
            }
            Expr::Read { buf, .. } => {
                used.insert(*buf);
            }
            _ => {}
        });
        if used.contains(&lane_var) {
            return serr("expand_scalar: expression depends on the lane variable");
        }
        let mut inner_bound = HashSet::default();
        visit_stmts(std::slice::from_ref(&stmt), &mut |s| match s {
            Stmt::For { iter, .. } => {
                inner_bound.insert(*iter);
            }
            Stmt::Alloc { name, .. } | Stmt::WindowDef { name, .. } => {
                inner_bound.insert(*name);
            }
            _ => {}
        });
        // variables bound inside the statement but *outside* the lane
        // loop would still be fine if the expansion were placed deeper;
        // keep the simple rule: everything must be in scope at `s`
        if used.intersection(&inner_bound).next().is_some() {
            return serr("expand_scalar: expression uses variables bound inside the statement");
        }

        let fresh = Sym::new(new_name);
        let dtype = self.infer_dtype(&target);
        let l = Sym::new("l");
        let alloc = Stmt::Alloc {
            name: fresh,
            ty: dtype,
            shape: vec![Expr::int(lanes)],
            mem,
        };
        let fill = Stmt::For {
            iter: l,
            lo: Expr::int(0),
            hi: Expr::int(lanes),
            body: vec![Stmt::Assign {
                buf: fresh,
                idx: vec![Expr::var(l)],
                rhs: target.clone(),
            }],
        };
        let replaced = map_stmt_exprs(&stmt, &mut |e| {
            if e == target {
                Expr::Read {
                    buf: fresh,
                    idx: vec![Expr::var(lane_var)],
                }
            } else {
                e
            }
        });
        self.splice(&path, &mut |_| {
            vec![alloc.clone(), fill.clone(), replaced.clone()]
        })
    }

    pub(crate) fn infer_dtype(&self, e: &Expr) -> DataType {
        // precision of a read through a parameter or allocation, else R
        let mut dt = DataType::R;
        if let Expr::Read { buf, .. } = e {
            for a in &self.proc().args {
                if a.name == *buf {
                    if let Some(t) = a.ty.data_type() {
                        dt = t;
                    }
                }
            }
            visit_stmts(self.body(), &mut |s| {
                if let Stmt::Alloc { name, ty, .. } = s {
                    if name == buf {
                        dt = *ty;
                    }
                }
            });
        }
        dt
    }

    /// `stage_mem(s, buf, window, a', MEM)`: stages the rectangular
    /// `window` of `buf` into a new buffer `a'` in `MEM` around the
    /// matched statement:
    ///
    /// ```text
    /// a' : ty[sizes] @ MEM
    /// for …: a'[…] = buf[lo + …]        (unless s only writes the window, all of it)
    /// s[ buf[e] ↦ a'[e − lo] ]
    /// for …: buf[lo + …] = a'[…]        (if the block writes buf)
    /// ```
    ///
    /// The body is then folded, and the statement enclosing `a'` (the
    /// whole body when `a'` is top level) is re-checked in-bounds at its
    /// site ([`exo_analysis::context::SiteQuery::check_bounds`]); staging
    /// fails if the window does not cover every access, or if `buf`
    /// escapes the block through a window or call argument.
    pub fn stage_mem(
        &self,
        stmt_pat: impl Into<Pattern>,
        buf_name: &str,
        window: &[(Expr, Expr)],
        new_name: &str,
        mem: MemName,
    ) -> Result<Procedure, SchedError> {
        let stmt_pat = stmt_pat.into();
        self.instrumented(
            "stage_mem",
            format!(
                "{stmt_pat}, {buf_name}, [{}], {new_name}, MemName({mem})",
                window
                    .iter()
                    .map(|(lo, hi)| format!("{}:{}", expr_to_string(lo), expr_to_string(hi)))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            || self.stage_mem_impl(&stmt_pat, buf_name, window, new_name, mem),
        )
    }

    fn stage_mem_impl(
        &self,
        stmt_pat: &Pattern,
        buf_name: &str,
        window: &[(Expr, Expr)],
        new_name: &str,
        mem: MemName,
    ) -> Result<Procedure, SchedError> {
        let path = self.find(stmt_pat)?;
        let stmt = self.stmt(&path)?.clone();
        let buf = self.lookup_data_sym(buf_name)?;

        // reject escapes: windows over buf or calls receiving buf
        let mut escapes = false;
        let mut reads = false;
        let mut writes = false;
        fn check_expr(e: &Expr, buf: Sym, escapes: &mut bool, reads: &mut bool) {
            visit_expr(e, &mut |e| match e {
                Expr::Window { buf: b, .. } | Expr::Stride { buf: b, .. } if *b == buf => {
                    *escapes = true;
                }
                Expr::Read { buf: b, idx } if *b == buf => {
                    if idx.is_empty() {
                        *escapes = true; // whole-buffer argument
                    } else {
                        *reads = true;
                    }
                }
                _ => {}
            });
        }
        visit_stmts(std::slice::from_ref(&stmt), &mut |s| {
            let mut ck = |e: &Expr| check_expr(e, buf, &mut escapes, &mut reads);
            match s {
                Stmt::Assign { buf: b, idx, rhs } => {
                    idx.iter().for_each(&mut ck);
                    ck(rhs);
                    if *b == buf {
                        writes = true;
                    }
                }
                Stmt::Reduce { buf: b, idx, rhs } => {
                    idx.iter().for_each(&mut ck);
                    ck(rhs);
                    if *b == buf {
                        reads = true;
                        writes = true;
                    }
                }
                Stmt::WindowDef { rhs, .. } => ck(rhs),
                Stmt::Call { args, .. } => args.iter().for_each(&mut ck),
                Stmt::If { cond, .. } => ck(cond),
                Stmt::For { lo, hi, .. } => {
                    ck(lo);
                    ck(hi);
                }
                _ => {}
            }
        });
        if escapes {
            return serr(format!(
                "stage_mem: {buf_name} escapes the block through a window, stride, or call"
            ));
        }
        if !reads && !writes {
            return serr(format!("stage_mem: the block never accesses {buf_name}"));
        }

        let fresh = Sym::new(new_name);
        let dtype = self.infer_dtype(&Expr::Read {
            buf,
            idx: vec![Expr::int(0)],
        });
        let sizes: Vec<Expr> = window
            .iter()
            .map(|(lo, hi)| fold_expr(&hi.clone().sub(lo.clone())))
            .collect();

        // rewrite accesses: buf[e…] → a'[e − lo …] (reads via expression
        // mapping, stores via a statement walk)
        let rebased = map_stmt_exprs(&stmt, &mut |e| match e {
            Expr::Read { buf: b, idx } if b == buf && !idx.is_empty() => Expr::Read {
                buf: fresh,
                idx: idx
                    .iter()
                    .zip(window)
                    .map(|(i, (lo, _))| fold_expr(&i.clone().sub(lo.clone())))
                    .collect(),
            },
            other => other,
        });
        let rebased = rebase_stores(&rebased, buf, fresh, window);

        // load / store loops (distinct iterator spellings so patterns can
        // address them separately)
        let mk_loops = |load: bool| -> Stmt {
            let prefix = if load { "ld" } else { "st" };
            let iters: Vec<Sym> = (0..window.len())
                .map(|d| Sym::new(format!("{prefix}{d}")))
                .collect();
            let inner_new: Vec<Expr> = iters.iter().map(|&i| Expr::var(i)).collect();
            let inner_buf: Vec<Expr> = iters
                .iter()
                .zip(window)
                .map(|(&i, (lo, _))| fold_expr(&lo.clone().add(Expr::var(i))))
                .collect();
            let mut s = if load {
                Stmt::Assign {
                    buf: fresh,
                    idx: inner_new.clone(),
                    rhs: Expr::Read {
                        buf,
                        idx: inner_buf.clone(),
                    },
                }
            } else {
                Stmt::Assign {
                    buf,
                    idx: inner_buf,
                    rhs: Expr::Read {
                        buf: fresh,
                        idx: inner_new,
                    },
                }
            };
            for (d, &it) in iters.iter().enumerate().rev() {
                s = Stmt::For {
                    iter: it,
                    lo: Expr::int(0),
                    hi: sizes[d].clone(),
                    body: vec![s],
                };
            }
            s
        };

        let mut out = vec![Stmt::Alloc {
            name: fresh,
            ty: dtype,
            shape: sizes.clone(),
            mem,
        }];
        // the store-back copies the whole window, so a block that only
        // writes buf still loads unless its writes provably cover it
        let load = reads
            || !self.query(&path, |q| {
                let eff = q.effect(std::slice::from_ref(&stmt));
                let window: Vec<_> = window
                    .iter()
                    .map(|(lo, hi)| (q.lift(lo), q.lift(hi)))
                    .collect();
                let goal = conditions::overwrites(&eff, buf, &window, &mut q.lctx);
                Ok(q.valid(goal).is_yes())
            })?;
        if load {
            out.push(mk_loops(true));
        }
        out.push(rebased);
        if writes {
            out.push(mk_loops(false));
        }

        let staged = self.splice(&path, &mut |_| out.clone())?;
        let staged = staged.with_body(fold_block(staged.body()));

        // re-verify memory safety: only the statement enclosing the staged
        // allocation (the whole body when it is top level) is rechecked —
        // everything outside it is untouched by the splice. Folding may
        // move that statement, so it is found by the allocation's symbol.
        let mut site = None;
        visit_paths(staged.body(), |p, s| {
            if site.is_none() && matches!(s, Stmt::Alloc { name, .. } if *name == fresh) {
                site = Some(p.parent().unwrap_or_default());
            }
        });
        let site =
            site.ok_or_else(|| SchedError::new("stage_mem: the staged block folded away"))?;
        staged.query(&site, |q| {
            q.check_bounds().map_err(|errs| {
                SchedError::new(format!(
                    "stage_mem: staged block is not memory-safe (window too small?): {}",
                    errs[0]
                ))
            })
        })?;
        Ok(staged)
    }

    /// Looks up the symbol of a data argument or allocation by spelling.
    ///
    /// # Errors
    ///
    /// Fails if no data argument or allocation is named `name`.
    pub fn lookup_data_sym(&self, name: &str) -> Result<Sym, SchedError> {
        for a in &self.proc().args {
            if a.name.name() == name && !a.ty.is_ctrl() {
                return Ok(a.name);
            }
        }
        let mut found = None;
        visit_stmts(self.body(), &mut |s| {
            if let Stmt::Alloc { name: n, .. } | Stmt::WindowDef { name: n, .. } = s {
                if n.name() == name && found.is_none() {
                    found = Some(*n);
                }
            }
        });
        found.ok_or_else(|| SchedError::new(format!("unknown buffer {name}")))
    }
}

fn rebase_stores(s: &Stmt, buf: Sym, fresh: Sym, window: &[(Expr, Expr)]) -> Stmt {
    let rebase_idx = |idx: &[Expr]| -> Vec<Expr> {
        idx.iter()
            .zip(window)
            .map(|(i, (lo, _))| fold_expr(&i.clone().sub(lo.clone())))
            .collect()
    };
    match s {
        Stmt::Assign { buf: b, idx, rhs } if *b == buf => Stmt::Assign {
            buf: fresh,
            idx: rebase_idx(idx),
            rhs: rhs.clone(),
        },
        Stmt::Reduce { buf: b, idx, rhs } if *b == buf => Stmt::Reduce {
            buf: fresh,
            idx: rebase_idx(idx),
            rhs: rhs.clone(),
        },
        Stmt::For { iter, lo, hi, body } => Stmt::For {
            iter: *iter,
            lo: lo.clone(),
            hi: hi.clone(),
            body: body
                .iter()
                .map(|s| rebase_stores(s, buf, fresh, window))
                .collect(),
        },
        Stmt::If { cond, body, orelse } => Stmt::If {
            cond: cond.clone(),
            body: body
                .iter()
                .map(|s| rebase_stores(s, buf, fresh, window))
                .collect(),
            orelse: orelse
                .iter()
                .map(|s| rebase_stores(s, buf, fresh, window))
                .collect(),
        },
        other => other.clone(),
    }
}

/// Finds a data sub-expression of `stmt` matching `pat` (`"buf[_]"` or an
/// exact printed expression).
fn find_expr(stmt: &Stmt, pat: &str) -> Option<Expr> {
    let pat = pat.trim();
    let want_buf: Option<String> = pat
        .strip_suffix("[_]")
        .filter(|b| !b.is_empty())
        .map(|b| b.trim().to_string());
    fn scan(e: &Expr, want_buf: &Option<String>, pat: &str, found: &mut Option<Expr>) {
        visit_expr(e, &mut |e| {
            if found.is_some() {
                return;
            }
            let hit = match (want_buf, e) {
                (Some(b), Expr::Read { buf, idx }) => buf.name() == *b && !idx.is_empty(),
                (None, e) => exo_core::printer::expr_to_string(e) == pat,
                _ => false,
            };
            if hit {
                *found = Some(e.clone());
            }
        });
    }
    let mut found: Option<Expr> = None;
    let mut stack = vec![stmt.clone()];
    while let Some(s) = stack.pop() {
        if found.is_some() {
            break;
        }
        let mut sc = |e: &Expr| scan(e, &want_buf, pat, &mut found);
        match &s {
            Stmt::Assign { rhs, idx, .. } | Stmt::Reduce { rhs, idx, .. } => {
                idx.iter().for_each(&mut sc);
                sc(rhs);
            }
            Stmt::WriteConfig { rhs, .. } => sc(rhs),
            Stmt::If { cond, body, orelse } => {
                sc(cond);
                stack.extend(body.iter().cloned());
                stack.extend(orelse.iter().cloned());
            }
            Stmt::For { lo, hi, body, .. } => {
                sc(lo);
                sc(hi);
                stack.extend(body.iter().cloned());
            }
            Stmt::Call { args, .. } => args.iter().for_each(&mut sc),
            Stmt::WindowDef { rhs, .. } => sc(rhs),
            _ => {}
        }
    }
    found
}
