//! Configuration-state scheduling operators (paper §2.4, Fig. 2):
//! inserting configuration writes (`configwrite_at`), `bind_config`,
//! `reorder_stmts`, and deletion of redundant configuration writes.
//!
//! Inserting a configuration write is always locally safe but only
//! preserves equivalence *modulo* the written field (§5.7 "new config
//! write"); the context-extension rule (§6.2) then confirms the rest of
//! the procedure never reads the polluted field, and the pollution is
//! recorded in the procedure's provenance either way.

use exo_core::hash::HashSet;
use exo_core::ir::{Expr, Stmt};
use exo_core::printer::expr_to_string;
use exo_core::visit::{visit_expr, visit_stmt_exprs, visit_stmts};
use exo_core::Sym;

use exo_analysis::conditions;

use crate::handle::{serr, Procedure, SchedError};
use crate::pattern::Pattern;

/// Where a `configwrite_at` insertion lands relative to the matched
/// statement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Position {
    /// Insert immediately before the matched statement.
    Before,
    /// Insert immediately after the matched statement.
    After,
}

impl Position {
    fn label(self) -> &'static str {
        match self {
            Position::Before => "before",
            Position::After => "after",
        }
    }
}

impl Procedure {
    /// Inserts `config.field = value` immediately before or after the
    /// matched statement. Pollutes `(config, field)`; fails if any code
    /// after the insertion point may read the field (context extension,
    /// §6.2). Used in §2.4 to materialize `ConfigLoad.src_stride` and to
    /// hoist loop-invariant configuration.
    pub fn configwrite_at(
        &self,
        stmt_pat: impl Into<Pattern>,
        pos: Position,
        config: Sym,
        field: Sym,
        value: Expr,
    ) -> Result<Procedure, SchedError> {
        let stmt_pat = stmt_pat.into();
        self.instrumented(
            "configwrite_at",
            format!(
                "{stmt_pat}, {}, {}.{}, {}",
                pos.label(),
                config.name(),
                field.name(),
                expr_to_string(&value)
            ),
            || self.configwrite_at_impl(&stmt_pat, config, field, value, pos == Position::Before),
        )
    }

    fn configwrite_at_impl(
        &self,
        stmt_pat: &Pattern,
        config: Sym,
        field: Sym,
        value: Expr,
        before: bool,
    ) -> Result<Procedure, SchedError> {
        let path = self.find(stmt_pat)?;
        let write = Stmt::WriteConfig {
            config,
            field,
            rhs: value,
        };
        let rewritten = self.splice(&path, &mut |s| {
            if before {
                vec![write.clone(), s.clone()]
            } else {
                vec![s.clone(), write.clone()]
            }
        })?;
        // context extension: nothing after the insertion may read the field.
        // The path of the *write* in the new body:
        let write_path = if before {
            path.clone()
        } else {
            match path.sibling(1) {
                Some(p) => p,
                None => return serr("configwrite: target path has no successor slot"),
            }
        };
        let polluted = [(config, field)];
        if !rewritten
            .query(&write_path, |q| Ok(q.extends_context(&polluted)))?
            .is_yes()
        {
            return serr(format!(
                "configwrite: code after the insertion point may read {}.{}",
                config.name(),
                field.name()
            ));
        }
        Ok(rewritten.pollute([(config, field)]))
    }

    /// `bind_config(s, e, config.field)`: replaces occurrences of the
    /// control expression `e` (given in printed form) inside the matched
    /// statement with a read of `config.field`, inserting
    /// `config.field = e` just before. Pollutes `(config, field)`; fails
    /// if the statement reads or writes the field or writes a field `e`
    /// reads, or if code after the statement may read the field (context
    /// extension, §6.2).
    pub fn bind_config(
        &self,
        stmt_pat: impl Into<Pattern>,
        expr_text: &str,
        config: Sym,
        field: Sym,
    ) -> Result<Procedure, SchedError> {
        let stmt_pat = stmt_pat.into();
        self.instrumented(
            "bind_config",
            format!(
                "{stmt_pat}, {expr_text}, {}.{}",
                config.name(),
                field.name()
            ),
            || self.bind_config_impl(&stmt_pat, expr_text, config, field),
        )
    }

    fn bind_config_impl(
        &self,
        stmt_pat: &Pattern,
        expr_text: &str,
        config: Sym,
        field: Sym,
    ) -> Result<Procedure, SchedError> {
        let path = self.find(stmt_pat)?;
        let stmt = self.stmt(&path)?.clone();
        // locate the control expression by printed form
        let mut target: Option<Expr> = None;
        visit_stmts(std::slice::from_ref(&stmt), &mut |s| {
            visit_stmt_exprs(s, &mut |e| {
                if target.is_none() && exo_core::printer::expr_to_string(e) == expr_text.trim() {
                    target = Some(e.clone());
                }
            });
        });
        let Some(target) = target else {
            return serr(format!(
                "bind_config: no control expression prints as {expr_text:?}"
            ));
        };
        // the statement itself (callees included) must not read the bound
        // field (each read would see the bound value, not the current
        // one), nor write it (its value must stay current throughout) or a
        // field `e` reads (so that `e` keeps its value throughout)
        let (mut used, mut kept) = (HashSet::default(), HashSet::default());
        kept.insert((config, field));
        visit_expr(&target, &mut |e| match e {
            Expr::Var(v) => {
                used.insert(*v);
            }
            Expr::ReadConfig { config, field } => {
                kept.insert((*config, *field));
            }
            _ => {}
        });
        let (mut reads, mut writes) = (HashSet::default(), HashSet::default());
        config_accesses(std::slice::from_ref(&stmt), &mut reads, &mut writes);
        if reads.contains(&(config, field)) {
            return serr(format!(
                "bind_config: the statement already reads {}.{}",
                config.name(),
                field.name()
            ));
        }
        if !writes.is_disjoint(&kept) {
            return serr(
                "bind_config: the statement writes the bound field or a field the expression reads",
            );
        }
        // scope check: e must be evaluable before the statement
        let mut inner_bound = HashSet::default();
        visit_stmts(std::slice::from_ref(&stmt), &mut |s| {
            if let Stmt::For { iter, .. } = s {
                inner_bound.insert(*iter);
            }
        });
        if !used.is_disjoint(&inner_bound) {
            return serr("bind_config: expression uses loop variables bound inside the statement");
        }

        let write = Stmt::WriteConfig {
            config,
            field,
            rhs: target.clone(),
        };
        let replaced = exo_core::visit::map_stmt_exprs(&stmt, &mut |e| {
            if e == target {
                Expr::ReadConfig { config, field }
            } else {
                e
            }
        });
        let rewritten = self.splice(&path, &mut |_| vec![write.clone(), replaced.clone()])?;
        // context extension past the rewritten statement, whose reads of
        // the field see the bound value
        let after_write = path
            .sibling(1)
            .ok_or_else(|| SchedError::new("bind_config: target path has no successor slot"))?;
        let polluted = [(config, field)];
        if !rewritten
            .query(&after_write, |q| Ok(q.extends_context(&polluted)))?
            .is_yes()
        {
            return serr(format!(
                "bind_config: code after the statement may read {}.{}",
                config.name(),
                field.name()
            ));
        }
        Ok(rewritten.pollute([(config, field)]))
    }

    /// Deletes a configuration write that is provably redundant: the
    /// written value definitely equals the field's current value (§2.4's
    /// "eliminating redundant setting of configuration state"). This is
    /// fully equivalence-preserving — no pollution.
    pub fn delete_config(&self, stmt_pat: impl Into<Pattern>) -> Result<Procedure, SchedError> {
        let stmt_pat = stmt_pat.into();
        self.instrumented("delete_config", stmt_pat.as_str(), || {
            self.delete_config_impl(&stmt_pat)
        })
    }

    fn delete_config_impl(&self, stmt_pat: &Pattern) -> Result<Procedure, SchedError> {
        let path = self.find(stmt_pat)?;
        let Stmt::WriteConfig { config, field, rhs } = self.stmt(&path)?.clone() else {
            return serr(format!(
                "delete_config: {stmt_pat:?} is not a configuration write"
            ));
        };
        self.prove(&path, "delete_config", |q| {
            let current = q.lift(&Expr::ReadConfig { config, field });
            let new = q.lift(&rhs);
            q.lctx.lower_bool(&current.eq(new)).definitely()
        })
        .map_err(|e| {
            SchedError::new(format!(
                "{} — the write is not provably redundant",
                e.message
            ))
        })?;
        self.splice(&path, &mut |_| vec![])
    }

    /// `reorder_stmts(s1)`: swaps the matched statement with its
    /// immediately following sibling, after checking `Commutes` (§5.7).
    pub fn reorder_stmts(&self, first_pat: impl Into<Pattern>) -> Result<Procedure, SchedError> {
        let first_pat = first_pat.into();
        self.instrumented("reorder_stmts", first_pat.as_str(), || {
            self.reorder_stmts_impl(&first_pat)
        })
    }

    fn reorder_stmts_impl(&self, first_pat: &Pattern) -> Result<Procedure, SchedError> {
        let p1 = self.find(first_pat)?;
        let p2 = p1
            .sibling(1)
            .ok_or_else(|| SchedError::new("reorder_stmts: no following statement"))?;
        let s1 = self.stmt(&p1)?.clone();
        let Ok(s2) = self.stmt(&p2).cloned() else {
            return serr("reorder_stmts: no following statement");
        };
        // scoping: s1 may not bind names used by s2
        let mut bound = Vec::new();
        if let Stmt::Alloc { name, .. } | Stmt::WindowDef { name, .. } = &s1 {
            bound.push(*name);
        }
        let free2 = exo_core::visit::free_syms_block(std::slice::from_ref(&s2));
        if bound.iter().any(|b| free2.contains(b)) {
            return serr("reorder_stmts: the first statement binds a name the second uses");
        }

        self.prove(&p1, "reorder_stmts", |q| {
            let e1 = q.effect(std::slice::from_ref(&s1));
            let e2 = q.effect(std::slice::from_ref(&s2));
            conditions::commutes(&e1, &e2, &mut q.lctx)
        })?;

        let p = self.splice(&p2, &mut |_| vec![])?;
        p.splice(&p1, &mut |s| vec![s2.clone(), s.clone()])
    }

    /// Deletes a `pass` statement (always equivalence-preserving).
    pub fn delete_pass(&self) -> Result<Procedure, SchedError> {
        self.instrumented("delete_pass", "pass", || {
            let path = self.find(&Pattern::from("pass"))?;
            self.splice(&path, &mut |_| vec![])
        })
    }

    /// `shadow_delete(s)`: deletes the matched statement when the
    /// statement immediately after it shadows it (`s1;s2 ≡ s2`, §5.7).
    pub fn shadow_delete(&self, stmt_pat: impl Into<Pattern>) -> Result<Procedure, SchedError> {
        let stmt_pat = stmt_pat.into();
        self.instrumented("shadow_delete", stmt_pat.as_str(), || {
            self.shadow_delete_impl(&stmt_pat)
        })
    }

    fn shadow_delete_impl(&self, stmt_pat: &Pattern) -> Result<Procedure, SchedError> {
        let p1 = self.find(stmt_pat)?;
        let p2 = p1
            .sibling(1)
            .ok_or_else(|| SchedError::new("shadow_delete: no following statement"))?;
        let s1 = self.stmt(&p1)?.clone();
        let Ok(s2) = self.stmt(&p2).cloned() else {
            return serr("shadow_delete: no following statement");
        };
        if matches!(s1, Stmt::Alloc { .. } | Stmt::WindowDef { .. }) {
            return serr("shadow_delete: cannot delete a binding statement");
        }
        self.prove(&p1, "shadow_delete", |q| {
            let e1 = q.effect(std::slice::from_ref(&s1));
            let e2 = q.effect(std::slice::from_ref(&s2));
            conditions::shadows(&e1, &e2, &mut q.lctx)
        })?;
        self.splice(&p1, &mut |_| vec![])
    }
}

/// Collects the configuration fields `block` reads and writes, callees
/// included.
fn config_accesses(
    block: &[Stmt],
    reads: &mut HashSet<(Sym, Sym)>,
    writes: &mut HashSet<(Sym, Sym)>,
) {
    visit_stmts(block, &mut |s| {
        visit_stmt_exprs(s, &mut |e| {
            if let Expr::ReadConfig { config, field } = e {
                reads.insert((*config, *field));
            }
        });
        match s {
            Stmt::WriteConfig { config, field, .. } => {
                writes.insert((*config, *field));
            }
            Stmt::Call { proc, .. } => config_accesses(&proc.body, reads, writes),
            _ => {}
        }
    });
}
