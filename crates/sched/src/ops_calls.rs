//! Procedure-level scheduling operators (paper §3.3): `inline` and
//! `call_eqv`. The inverse of `inline` — `replace` — lives in
//! [`crate::unify`].

use exo_core::hash::HashMap;
use exo_core::ir::{ArgType, Expr, Stmt};
use exo_core::visit::{refresh_bound, rename_syms_block, subst_block};
use exo_core::Sym;

use crate::handle::{serr, Procedure, SchedError};
use crate::pattern::Pattern;

impl Procedure {
    /// `inline(f(_))`: replaces a call with the callee's body, with
    /// actuals substituted for formals (always equivalence-preserving;
    /// the callee's preconditions were checked at the call site).
    pub fn inline(&self, call_pat: impl Into<Pattern>) -> Result<Procedure, SchedError> {
        let call_pat = call_pat.into();
        self.instrumented("inline", call_pat.as_str(), || self.inline_impl(&call_pat))
    }

    fn inline_impl(&self, call_pat: &Pattern) -> Result<Procedure, SchedError> {
        let path = self.find(call_pat)?;
        let Stmt::Call { proc: callee, args } = self.stmt(&path)?.clone() else {
            return serr(format!("inline: {call_pat:?} is not a call"));
        };
        let mut ctrl_map: HashMap<Sym, Expr> = HashMap::default();
        let mut data_map: HashMap<Sym, Sym> = HashMap::default();
        let mut prelude: Vec<Stmt> = Vec::new();
        for (formal, actual) in callee.args.iter().zip(&args) {
            match &formal.ty {
                ArgType::Ctrl(_) => {
                    ctrl_map.insert(formal.name, actual.clone());
                }
                ArgType::Scalar { .. } | ArgType::Tensor { .. } => match actual {
                    Expr::Read { buf, idx } if idx.is_empty() => {
                        data_map.insert(formal.name, *buf);
                    }
                    Expr::Window { .. } => {
                        // bind the window to a fresh name
                        let w = Sym::new(formal.name.name());
                        prelude.push(Stmt::WindowDef {
                            name: w,
                            rhs: actual.clone(),
                        });
                        data_map.insert(formal.name, w);
                    }
                    Expr::Read { buf, idx } => {
                        // point access: a 0-d window
                        let w = Sym::new(formal.name.name());
                        prelude.push(Stmt::WindowDef {
                            name: w,
                            rhs: Expr::Window {
                                buf: *buf,
                                coords: idx
                                    .iter()
                                    .map(|e| exo_core::WAccess::Point(e.clone()))
                                    .collect(),
                            },
                        });
                        data_map.insert(formal.name, w);
                    }
                    _ => return serr("inline: cannot inline a call with a scalar rvalue argument"),
                },
            }
        }
        // rename data formals, substitute control formals, freshen binders
        let body = rename_syms_block(&callee.body, &data_map);
        let body = subst_block(&body, &ctrl_map);
        let body = refresh_bound(&body);
        let mut out = prelude;
        out.extend(body);
        let out = crate::fold::fold_block(&out);
        self.splice(&path, &mut |_| out.clone())
    }

    /// `call_eqv(f(_), f')`: replaces a call to `f` with a call to `f'`,
    /// which must have been derived from the same scheduling root
    /// (provenance-tracked equivalence, §3.3). If the pair is only
    /// equivalent modulo some configuration fields, the context-extension
    /// rule (§6.2) must hold at the call site and the pollution is
    /// recorded.
    pub fn call_eqv(
        &self,
        call_pat: impl Into<Pattern>,
        new_callee: &Procedure,
    ) -> Result<Procedure, SchedError> {
        let call_pat = call_pat.into();
        self.instrumented(
            "call_eqv",
            format!("{call_pat}, {}", new_callee.proc().name.name()),
            || self.call_eqv_impl(&call_pat, new_callee),
        )
    }

    fn call_eqv_impl(
        &self,
        call_pat: &Pattern,
        new_callee: &Procedure,
    ) -> Result<Procedure, SchedError> {
        let path = self.find(call_pat)?;
        let Stmt::Call { proc: old, args } = self.stmt(&path)?.clone() else {
            return serr(format!("call_eqv: {call_pat:?} is not a call"));
        };
        // provenance: the new callee must have been scheduled from the old
        // one (its root is the old callee), or be the old callee itself.
        if !new_callee.same_ir_signature(&old) {
            return serr("call_eqv: signatures differ");
        }
        if !new_callee.derived_from(&old) {
            return serr(
                "call_eqv: no provenance relating the procedures \
                 (the replacement must be scheduled from the original)",
            );
        }
        let polluted: Vec<(Sym, Sym)> = new_callee.polluted().iter().copied().collect();
        let new_stmt = Stmt::Call {
            proc: new_callee.proc().clone(),
            args,
        };
        let rewritten = self.splice(&path, &mut |_| vec![new_stmt.clone()])?;
        if !polluted.is_empty()
            && !rewritten
                .query(&path, |q| Ok(q.extends_context(&polluted)))?
                .is_yes()
        {
            return serr(
                "call_eqv: the callee pair differs modulo configuration state \
                 that later code may read",
            );
        }
        Ok(rewritten.pollute(polluted))
    }

    /// Whether this procedure's ultimate scheduling root is `other` (or
    /// this procedure *is* `other`).
    pub(crate) fn derived_from(&self, other: &std::sync::Arc<exo_core::Proc>) -> bool {
        if std::sync::Arc::ptr_eq(self.proc(), other) {
            return true;
        }
        self.root_is(other)
    }

    fn same_ir_signature(&self, other: &exo_core::Proc) -> bool {
        let a = &self.proc().args;
        let b = &other.args;
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| {
                matches!(
                    (&x.ty, &y.ty),
                    (ArgType::Ctrl(_), ArgType::Ctrl(_))
                        | (ArgType::Scalar { .. }, ArgType::Scalar { .. })
                        | (ArgType::Tensor { .. }, ArgType::Tensor { .. })
                )
            })
    }
}
