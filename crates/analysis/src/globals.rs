//! Global (configuration) state: canonical naming and the approximating
//! symbolic dataflow analysis `ValG` (paper §5.3).
//!
//! Mutable global control state is what pushes Exo beyond classic static
//! control programs. The dataflow analysis tracks a symbolic value per
//! configuration field, is control-sensitive (branches produce
//! `if-then-else` values), and forces convergence on loops with a simple
//! heuristic: a loop that does not change a field acts as the identity on
//! it; otherwise the field becomes ⊥.

use std::sync::Arc;

use exo_core::budget::ResourceBudget;
use exo_core::hash::HashMap;
use exo_core::ir::{Expr, Proc, Stmt};
use exo_core::Sym;

use crate::effexpr::{lift, EffExpr};

/// Registry assigning one canonical symbol to each configuration field,
/// so that `Config.field` can appear in formulas as an ordinary variable.
///
/// The registry is threaded by `&mut` through every `ValG` pass, so it
/// also carries the [`ResourceBudget`] the dataflow draws from: each
/// symbolic loop pass charges one fuel unit, and exhaustion degrades the
/// affected fields to ⊥ (conservative — a rewrite whose safety depends on
/// them is then rejected, never wrongly accepted).
#[derive(Debug, Default)]
pub struct GlobalReg {
    canon: HashMap<(Sym, Sym), Sym>,
    budget: ResourceBudget,
}

impl GlobalReg {
    /// Creates an empty registry.
    pub fn new() -> GlobalReg {
        GlobalReg::default()
    }

    /// Installs the budget the `ValG` fixpoint draws from.
    pub fn set_budget(&mut self, budget: ResourceBudget) {
        self.budget = budget;
    }

    /// The budget the `ValG` fixpoint draws from.
    pub fn budget(&self) -> &ResourceBudget {
        &self.budget
    }

    /// Returns the canonical variable for `config.field` (created on
    /// first use). Every field is integer-sorted: a boolean field read in
    /// a boolean position lowers as unknown, which is sound.
    pub fn canon(&mut self, config: Sym, field: Sym) -> Sym {
        *self
            .canon
            .entry((config, field))
            .or_insert_with(|| Sym::new(format!("{}_{}", config.name(), field.name())))
    }

    /// Reverse lookup: which configuration field a canonical symbol
    /// stands for, if any.
    pub fn field_of(&self, sym: Sym) -> Option<(Sym, Sym)> {
        self.canon
            .iter()
            .find(|(_, &s)| s == sym)
            .map(|(&(c, f), _)| (c, f))
    }
}

/// An effect environment (paper Def. 5.2) restricted to global fields:
/// the symbolic value of every configuration field at a program point.
/// Fields absent from the map have their initial (entry) value, i.e. the
/// environment behaves as the identity on them.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct GlobalEnv {
    vals: HashMap<(Sym, Sym), EffExpr>,
}

impl GlobalEnv {
    /// The identity environment.
    pub fn identity() -> GlobalEnv {
        GlobalEnv::default()
    }

    /// The symbolic value of `config.field` (identity if untouched).
    pub fn value(&self, config: Sym, field: Sym, reg: &mut GlobalReg) -> EffExpr {
        self.vals
            .get(&(config, field))
            .cloned()
            .unwrap_or_else(|| EffExpr::Var(reg.canon(config, field)))
    }

    /// Sets the symbolic value of a field.
    fn set(&mut self, config: Sym, field: Sym, v: EffExpr) {
        self.vals.insert((config, field), v);
    }

    /// Whether the environment is the identity.
    pub fn is_identity(&self) -> bool {
        self.vals.is_empty()
    }

    fn merge(mut self, other: GlobalEnv, cond: &EffExpr, reg: &mut GlobalReg) -> GlobalEnv {
        let mut keys: Vec<(Sym, Sym)> = self.vals.keys().copied().collect();
        for k in other.vals.keys() {
            if !keys.contains(k) {
                keys.push(*k);
            }
        }
        for k in keys {
            let a = self.value(k.0, k.1, reg);
            let b = other.value(k.0, k.1, reg);
            let merged = if a == b {
                a
            } else {
                EffExpr::ite(cond.clone(), a, b)
            };
            self.vals.insert(k, merged);
        }
        self
    }
}

/// Lifts a control expression, reading configuration fields through the
/// current environment (so the lifted expression refers to *entry*
/// values of globals).
pub fn lift_in_env(e: &Expr, env: &GlobalEnv, reg: &mut GlobalReg) -> EffExpr {
    match e {
        Expr::ReadConfig { config, field } => env.value(*config, *field, reg),
        Expr::BinOp(op, a, b) => {
            EffExpr::bin(*op, lift_in_env(a, env, reg), lift_in_env(b, env, reg))
        }
        Expr::Neg(a) => EffExpr::neg(lift_in_env(a, env, reg)),
        other => lift(other, reg),
    }
}

/// `ValG : Stmt → EffEnv` — computes the symbolic values of all
/// configuration fields after executing `block`, starting from `env`.
pub fn val_g_block(block: &[Stmt], env: GlobalEnv, reg: &mut GlobalReg) -> GlobalEnv {
    let mut env = env;
    for s in block {
        env = val_g_stmt(s, env, reg);
    }
    env
}

/// `ValG` for one statement: the only rule that moves configuration state
/// past a statement. For a loop the result is both the state after the
/// loop and, for code inside the body, the state at the start of an
/// arbitrary iteration (see [`widen_loop`]).
pub(crate) fn val_g_stmt(s: &Stmt, env: GlobalEnv, reg: &mut GlobalReg) -> GlobalEnv {
    match s {
        Stmt::WriteConfig { config, field, rhs } => {
            let v = lift_in_env(rhs, &env, reg);
            let mut env = env;
            env.set(*config, *field, v);
            env
        }
        Stmt::If { cond, body, orelse } => {
            let c = lift_in_env(cond, &env, reg);
            let then_env = val_g_block(body, env.clone(), reg);
            let else_env = val_g_block(orelse, env, reg);
            then_env.merge(else_env, &c, reg)
        }
        Stmt::For { iter, body, .. } => {
            // loop heuristic: one symbolic pass over the body starting from
            // the loop-entry environment; any field whose value changes (or
            // depends on the iteration variable) becomes ⊥, others persist.
            // Budget: one fuel unit per symbolic loop pass. Exhaustion (and
            // the chaos `analysis-bottom` fault) degrade every field the
            // body touches to ⊥ — strictly less precise than the heuristic
            // below, so downstream checks can only get *more* conservative.
            let give_up = reg.budget.charge(1).is_err()
                || exo_chaos::should_inject(exo_chaos::FaultSite::AnalysisBottom);
            let body_env = val_g_block(body, env.clone(), reg);
            if !give_up {
                return widen_loop(&env, &body_env, *iter, reg);
            }
            let mut out = env;
            for &(c, f) in body_env.vals.keys() {
                out.set(c, f, EffExpr::Unknown);
            }
            out
        }
        Stmt::Call { proc, args } => val_g_call(proc, args, env, reg),
        _ => env,
    }
}

/// The loop rule of `ValG`: `after` is the environment after one symbolic
/// pass over a loop body started from `entry`. A field the pass leaves
/// unchanged, and whose value does not depend on the iteration variable
/// `iter`, keeps its entry value (the loop is the identity on it); every
/// other field the body touches becomes ⊥ — including a constant write,
/// since the loop may run zero times. The result is both the environment
/// after the loop and, for code inside the body, the environment at the
/// start of an arbitrary iteration.
fn widen_loop(entry: &GlobalEnv, after: &GlobalEnv, iter: Sym, reg: &mut GlobalReg) -> GlobalEnv {
    let mut out = entry.clone();
    for (&(c, f), v) in &after.vals {
        let mut fv = std::collections::BTreeSet::new();
        v.free_vars(&mut fv);
        if entry.value(c, f, reg) == *v && !fv.contains(&iter) {
            continue;
        }
        out.set(c, f, EffExpr::Unknown);
    }
    out
}

fn val_g_call(proc: &Arc<Proc>, args: &[Expr], env: GlobalEnv, reg: &mut GlobalReg) -> GlobalEnv {
    // substitute actuals for formals in the callee's global dataflow
    let callee_env = val_g_block(&proc.body, GlobalEnv::identity(), reg);
    if callee_env.is_identity() {
        return env;
    }
    let mut subst: HashMap<Sym, EffExpr> = HashMap::default();
    for (formal, actual) in proc.args.iter().zip(args) {
        if formal.ty.is_ctrl() {
            subst.insert(formal.name, lift_in_env(actual, &env, reg));
        }
    }
    // the callee's symbolic values may reference the entry values of
    // globals — substitute the caller's current values for those too
    let globals: Vec<((Sym, Sym), Sym)> = reg.canon.iter().map(|(&k, &s)| (k, s)).collect();
    for ((gc, gf), gsym) in globals {
        subst.insert(gsym, env.value(gc, gf, reg));
    }
    let mut out = env;
    for (&(c, f), v) in &callee_env.vals {
        out.set(c, f, v.subst(&subst));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_core::build::ProcBuilder;
    use exo_core::ir::Expr;

    fn cfg() -> (Sym, Sym) {
        (Sym::new("ConfigLoad"), Sym::new("src_stride"))
    }

    #[test]
    fn straight_line_write_tracked() {
        let (c, f) = cfg();
        let mut b = ProcBuilder::new("p");
        b.write_config(c, f, Expr::int(128));
        let p = b.finish();
        let mut reg = GlobalReg::new();
        let env = val_g_block(&p.body, GlobalEnv::identity(), &mut reg);
        assert_eq!(env.value(c, f, &mut reg), EffExpr::Int(128));
    }

    #[test]
    fn branch_merges_to_ite() {
        let (c, f) = cfg();
        let mut b = ProcBuilder::new("p");
        let n = b.size("n");
        b.begin_if(Expr::var(n).lt(Expr::int(4)));
        b.write_config(c, f, Expr::int(1));
        b.begin_else();
        b.write_config(c, f, Expr::int(2));
        b.end_if();
        let p = b.finish();
        let mut reg = GlobalReg::new();
        let env = val_g_block(&p.body, GlobalEnv::identity(), &mut reg);
        match env.value(c, f, &mut reg) {
            EffExpr::Ite(..) => {}
            other => panic!("expected ite, got {other:?}"),
        }
    }

    #[test]
    fn loop_write_becomes_unknown_zero_trip() {
        // for i: Config.f = 5 — the loop may run zero times, so the value
        // after the loop is ⊥ (paper heuristic: only identity survives)
        let (c, f) = cfg();
        let mut b = ProcBuilder::new("p");
        let _i = b.begin_for("i", Expr::int(0), Expr::int(8));
        b.write_config(c, f, Expr::int(5));
        b.end_for();
        let p = b.finish();
        let mut reg = GlobalReg::new();
        let env = val_g_block(&p.body, GlobalEnv::identity(), &mut reg);
        assert_eq!(env.value(c, f, &mut reg), EffExpr::Unknown);
    }

    #[test]
    fn loop_identity_rewrite_survives() {
        // write 7 before the loop; the loop rewrites the same value —
        // identity per iteration, so 7 survives
        let (c, f) = cfg();
        let mut b = ProcBuilder::new("p");
        b.write_config(c, f, Expr::int(7));
        let _i = b.begin_for("i", Expr::int(0), Expr::int(8));
        b.write_config(c, f, Expr::int(7));
        b.end_for();
        let p = b.finish();
        let mut reg = GlobalReg::new();
        let env = val_g_block(&p.body, GlobalEnv::identity(), &mut reg);
        assert_eq!(env.value(c, f, &mut reg), EffExpr::Int(7));
    }

    #[test]
    fn loop_dependent_write_becomes_unknown() {
        // for i: Config.f = i  — iteration-dependent ⇒ ⊥
        let (c, f) = cfg();
        let mut b = ProcBuilder::new("p");
        let i = b.begin_for("i", Expr::int(0), Expr::int(8));
        b.write_config(c, f, Expr::var(i));
        b.end_for();
        let p = b.finish();
        let mut reg = GlobalReg::new();
        let env = val_g_block(&p.body, GlobalEnv::identity(), &mut reg);
        assert_eq!(env.value(c, f, &mut reg), EffExpr::Unknown);
    }

    #[test]
    fn accumulating_write_becomes_unknown() {
        // for i: Config.f = Config.f + 1 — self-dependent ⇒ ⊥
        let (c, f) = cfg();
        let mut b = ProcBuilder::new("p");
        let _i = b.begin_for("i", Expr::int(0), Expr::int(8));
        b.write_config(
            c,
            f,
            Expr::ReadConfig {
                config: c,
                field: f,
            }
            .add(Expr::int(1)),
        );
        b.end_for();
        let p = b.finish();
        let mut reg = GlobalReg::new();
        let env = val_g_block(&p.body, GlobalEnv::identity(), &mut reg);
        assert_eq!(env.value(c, f, &mut reg), EffExpr::Unknown);
    }

    #[test]
    fn call_propagates_callee_writes() {
        let (c, f) = cfg();
        let mut ib = ProcBuilder::new("config_ld");
        let s = ib.ctrl("s", exo_core::CtrlType::Stride);
        ib.write_config(c, f, Expr::var(s));
        let callee = ib.finish();

        let mut b = ProcBuilder::new("main");
        b.call(&callee, vec![Expr::int(64)]);
        let p = b.finish();
        let mut reg = GlobalReg::new();
        let env = val_g_block(&p.body, GlobalEnv::identity(), &mut reg);
        assert_eq!(env.value(c, f, &mut reg), EffExpr::Int(64));
    }

    #[test]
    fn untouched_fields_are_identity() {
        let mut reg = GlobalReg::new();
        let env = GlobalEnv::identity();
        let (c, f) = cfg();
        let v = env.value(c, f, &mut reg);
        match v {
            EffExpr::Var(_) => {}
            other => panic!("expected entry variable, got {other:?}"),
        }
        assert!(env.is_identity());
    }
}
