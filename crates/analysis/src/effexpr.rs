//! Effect expressions (paper §5.2) and their lowering to classical SMT
//! formulas.
//!
//! Effect expressions are symbolic control values that may contain the
//! unknown value ⊥ (introduced by the approximating global dataflow,
//! §5.3). Following appendix B, a ternary expression lowers to a pair
//! *(defined, value)* of classical objects: booleans become a pair of
//! [`Formula`]s, integers a [`Formula`] plus a [`LinExpr`] (with fresh
//! variables and side constraints for `/`, `%`, `if-then-else` and ⊥).

use exo_core::hash::HashMap;
use exo_core::ir::{BinOp, Expr, Lit};
use exo_core::Sym;
use exo_smt::formula::Formula;
use exo_smt::linear::LinExpr;

/// A symbolic control value, possibly unknown.
#[derive(Clone, PartialEq, Debug)]
pub enum EffExpr {
    /// An integer-sorted variable (procedure parameter, loop iterator, or
    /// canonical global).
    Var(Sym),
    /// A boolean-sorted variable (encoded as an integer in {0, 1}).
    BoolVar(Sym),
    /// Integer literal.
    Int(i64),
    /// Boolean literal.
    Bool(bool),
    /// The unknown value ⊥.
    Unknown,
    /// Binary operation (quasi-affine for integer operators).
    Bin(BinOp, Box<EffExpr>, Box<EffExpr>),
    /// Negation of an integer.
    Neg(Box<EffExpr>),
    /// Boolean negation.
    Not(Box<EffExpr>),
    /// `cond ? then : else`.
    Ite(Box<EffExpr>, Box<EffExpr>, Box<EffExpr>),
    /// The stride of buffer `buf` along dimension `dim`, treated as an
    /// opaque (but canonical) integer.
    Stride(Sym, usize),
}

impl EffExpr {
    /// Builds `lhs op rhs`, folding integer constants and arithmetic
    /// units (`0 + x`, `x · 1`, …) to keep symbolic indices small.
    pub fn bin(op: BinOp, lhs: EffExpr, rhs: EffExpr) -> EffExpr {
        use EffExpr::Int;
        match (op, &lhs, &rhs) {
            (BinOp::Add, Int(a), Int(b)) => return Int(a + b),
            (BinOp::Sub, Int(a), Int(b)) => return Int(a - b),
            (BinOp::Mul, Int(a), Int(b)) => return Int(a * b),
            (BinOp::Div, Int(a), Int(b)) if *b > 0 => return Int(a.div_euclid(*b)),
            (BinOp::Mod, Int(a), Int(b)) if *b > 0 => return Int(a.rem_euclid(*b)),
            (BinOp::Add, Int(0), _) => return rhs,
            (BinOp::Add | BinOp::Sub, _, Int(0)) => return lhs,
            (BinOp::Mul, Int(1), _) => return rhs,
            (BinOp::Mul, _, Int(1)) => return lhs,
            (BinOp::Mul, Int(0), _) | (BinOp::Mul, _, Int(0)) => return Int(0),
            (BinOp::Eq, Int(a), Int(b)) => return EffExpr::Bool(a == b),
            (BinOp::Lt, Int(a), Int(b)) => return EffExpr::Bool(a < b),
            (BinOp::Le, Int(a), Int(b)) => return EffExpr::Bool(a <= b),
            (BinOp::Gt, Int(a), Int(b)) => return EffExpr::Bool(a > b),
            (BinOp::Ge, Int(a), Int(b)) => return EffExpr::Bool(a >= b),
            (BinOp::And, EffExpr::Bool(true), _) => return rhs,
            (BinOp::And, _, EffExpr::Bool(true)) => return lhs,
            (BinOp::And, EffExpr::Bool(false), _) | (BinOp::And, _, EffExpr::Bool(false)) => {
                return EffExpr::Bool(false)
            }
            (BinOp::Or, EffExpr::Bool(false), _) => return rhs,
            (BinOp::Or, _, EffExpr::Bool(false)) => return lhs,
            (BinOp::Or, EffExpr::Bool(true), _) | (BinOp::Or, _, EffExpr::Bool(true)) => {
                return EffExpr::Bool(true)
            }
            _ => {}
        }
        EffExpr::Bin(op, Box::new(lhs), Box::new(rhs))
    }

    /// `a + b`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, rhs: EffExpr) -> EffExpr {
        EffExpr::bin(BinOp::Add, self, rhs)
    }

    /// `a ≤ b`.
    pub fn le(self, rhs: EffExpr) -> EffExpr {
        EffExpr::bin(BinOp::Le, self, rhs)
    }

    /// `a < b`.
    pub fn lt(self, rhs: EffExpr) -> EffExpr {
        EffExpr::bin(BinOp::Lt, self, rhs)
    }

    /// `a ∧ b`.
    pub fn and(self, rhs: EffExpr) -> EffExpr {
        EffExpr::bin(BinOp::And, self, rhs)
    }

    /// `a = b` (integer equality).
    pub fn eq(self, rhs: EffExpr) -> EffExpr {
        EffExpr::bin(BinOp::Eq, self, rhs)
    }

    /// Whether ⊥ occurs anywhere.
    pub fn has_unknown(&self) -> bool {
        match self {
            EffExpr::Unknown => true,
            EffExpr::Bin(_, a, b) => a.has_unknown() || b.has_unknown(),
            EffExpr::Neg(a) | EffExpr::Not(a) => a.has_unknown(),
            EffExpr::Ite(c, t, e) => c.has_unknown() || t.has_unknown() || e.has_unknown(),
            _ => false,
        }
    }

    /// Substitutes variables by effect expressions.
    pub fn subst(&self, map: &HashMap<Sym, EffExpr>) -> EffExpr {
        match self {
            EffExpr::Var(x) => map.get(x).cloned().unwrap_or_else(|| self.clone()),
            EffExpr::BoolVar(x) => map.get(x).cloned().unwrap_or_else(|| self.clone()),
            EffExpr::Int(_) | EffExpr::Bool(_) | EffExpr::Unknown | EffExpr::Stride(..) => {
                self.clone()
            }
            EffExpr::Bin(op, a, b) => EffExpr::bin(*op, a.subst(map), b.subst(map)),
            EffExpr::Neg(a) => EffExpr::Neg(Box::new(a.subst(map))),
            EffExpr::Not(a) => EffExpr::Not(Box::new(a.subst(map))),
            EffExpr::Ite(c, t, e) => EffExpr::Ite(
                Box::new(c.subst(map)),
                Box::new(t.subst(map)),
                Box::new(e.subst(map)),
            ),
        }
    }

    /// Free variables (excluding stride tokens).
    pub fn free_vars(&self, out: &mut std::collections::BTreeSet<Sym>) {
        match self {
            EffExpr::Var(x) | EffExpr::BoolVar(x) => {
                out.insert(*x);
            }
            EffExpr::Bin(_, a, b) => {
                a.free_vars(out);
                b.free_vars(out);
            }
            EffExpr::Neg(a) | EffExpr::Not(a) => a.free_vars(out),
            EffExpr::Ite(c, t, e) => {
                c.free_vars(out);
                t.free_vars(out);
                e.free_vars(out);
            }
            _ => {}
        }
    }
}

/// `Lift : Expr → EffExpr` (paper §5.3): translates a control expression,
/// mapping configuration reads through `globals` (the canonical variable
/// per configuration field).
pub fn lift(e: &Expr, globals: &mut crate::globals::GlobalReg) -> EffExpr {
    match e {
        Expr::Var(x) => EffExpr::Var(*x),
        Expr::Lit(Lit::Int(v)) => EffExpr::Int(*v),
        Expr::Lit(Lit::Bool(v)) => EffExpr::Bool(*v),
        Expr::Lit(Lit::Float(_)) => EffExpr::Unknown,
        Expr::BinOp(op, a, b) => EffExpr::bin(*op, lift(a, globals), lift(b, globals)),
        Expr::Neg(a) => EffExpr::Neg(Box::new(lift(a, globals))),
        Expr::Stride { buf, dim } => EffExpr::Stride(*buf, *dim),
        Expr::ReadConfig { config, field } => {
            let (sym, is_bool) = globals.canon(*config, *field);
            if is_bool {
                EffExpr::BoolVar(sym)
            } else {
                EffExpr::Var(sym)
            }
        }
        // data expressions have no control value
        Expr::Read { .. } | Expr::Window { .. } | Expr::BuiltIn { .. } => EffExpr::Unknown,
    }
}

/// A lowered boolean: classical `(defined, value)` pair.
#[derive(Clone, PartialEq, Debug)]
pub struct LBool {
    /// Whether the ternary value is known (not ⊥).
    pub def: Formula,
    /// The value when defined.
    pub val: Formula,
}

impl LBool {
    /// A known boolean.
    pub fn known(val: Formula) -> LBool {
        LBool {
            def: Formula::True,
            val,
        }
    }

    /// `D p` — definitely true.
    pub fn definitely(&self) -> Formula {
        Formula::and(vec![self.def.clone(), self.val.clone()])
    }

    /// `M p` — maybe true (unknown counts as true).
    pub fn maybe(&self) -> Formula {
        Formula::or(vec![self.def.clone().negate(), self.val.clone()])
    }

    /// Kleene conjunction.
    pub fn and(&self, other: &LBool) -> LBool {
        // defined when both defined, or either is a defined false
        let def = Formula::or(vec![
            Formula::and(vec![self.def.clone(), other.def.clone()]),
            Formula::and(vec![self.def.clone(), self.val.clone().negate()]),
            Formula::and(vec![other.def.clone(), other.val.clone().negate()]),
        ]);
        LBool {
            def,
            val: Formula::and(vec![self.val.clone(), other.val.clone()]),
        }
    }

    /// Kleene disjunction.
    pub fn or(&self, other: &LBool) -> LBool {
        let def = Formula::or(vec![
            Formula::and(vec![self.def.clone(), other.def.clone()]),
            Formula::and(vec![self.def.clone(), self.val.clone()]),
            Formula::and(vec![other.def.clone(), other.val.clone()]),
        ]);
        LBool {
            def,
            val: Formula::or(vec![self.val.clone(), other.val.clone()]),
        }
    }

    /// Kleene negation.
    pub fn negate(&self) -> LBool {
        LBool {
            def: self.def.clone(),
            val: self.val.clone().negate(),
        }
    }
}

/// A lowered integer: `(defined, linear value)`.
#[derive(Clone, PartialEq, Debug)]
pub struct LInt {
    /// Whether the ternary value is known.
    pub def: Formula,
    /// The value when defined.
    pub val: LinExpr,
}

/// Context for lowering: fresh-variable supply, accumulated side
/// constraints (definitions of fresh variables), and the canonical-stride
/// registry.
#[derive(Debug, Default)]
pub struct LowerCtx {
    /// Side constraints that must be assumed in every query using the
    /// lowered expressions.
    pub side: Vec<Formula>,
    strides: HashMap<(Sym, usize), Sym>,
}

impl LowerCtx {
    /// Creates an empty context.
    pub fn new() -> LowerCtx {
        LowerCtx::default()
    }

    /// The conjunction of all side constraints.
    pub fn assumptions(&self) -> Formula {
        Formula::and(self.side.clone())
    }

    fn fresh(&mut self, hint: &str) -> Sym {
        Sym::new(hint)
    }

    /// Reverse lookup: which `(buffer, dim)` a canonical stride symbol
    /// stands for, if any.
    pub fn stride_of(&self, sym: Sym) -> Option<(Sym, usize)> {
        self.strides
            .iter()
            .find(|(_, &s)| s == sym)
            .map(|(&(b, d), _)| (b, d))
    }

    fn stride_var(&mut self, buf: Sym, dim: usize) -> Sym {
        *self
            .strides
            .entry((buf, dim))
            .or_insert_with(|| Sym::new(format!("stride_{}_{dim}", buf.name())))
    }

    /// Lowers an integer-sorted effect expression.
    pub fn lower_int(&mut self, e: &EffExpr) -> LInt {
        match e {
            EffExpr::Var(x) => LInt {
                def: Formula::True,
                val: LinExpr::var(*x),
            },
            EffExpr::Int(v) => LInt {
                def: Formula::True,
                val: LinExpr::constant(*v),
            },
            EffExpr::Stride(b, d) => {
                let v = self.stride_var(*b, *d);
                LInt {
                    def: Formula::True,
                    val: LinExpr::var(v),
                }
            }
            EffExpr::Unknown => {
                let v = self.fresh("unk");
                LInt {
                    def: Formula::False,
                    val: LinExpr::var(v),
                }
            }
            EffExpr::Neg(a) => {
                let a = self.lower_int(a);
                LInt {
                    def: a.def,
                    val: a.val.scale(-1),
                }
            }
            EffExpr::Bin(op, a, b) => self.lower_int_bin(*op, a, b),
            EffExpr::Ite(c, t, f) => {
                let c = self.lower_bool(c);
                let t = self.lower_int(t);
                let f = self.lower_int(f);
                let v = self.fresh("ite");
                let vv = LinExpr::var(v);
                self.side.push(Formula::and(vec![
                    Formula::and(vec![c.def.clone(), c.val.clone(), t.def.clone()])
                        .implies(Formula::eq(vv.clone(), t.val.clone())),
                    Formula::and(vec![c.def.clone(), c.val.clone().negate(), f.def.clone()])
                        .implies(Formula::eq(vv.clone(), f.val.clone())),
                ]));
                let def = Formula::and(vec![
                    c.def.clone(),
                    Formula::or(vec![
                        Formula::and(vec![c.val.clone(), t.def]),
                        Formula::and(vec![c.val.negate(), f.def]),
                    ]),
                ]);
                LInt { def, val: vv }
            }
            // boolean-sorted in an int position: treat as unknown (sound)
            EffExpr::Bool(_) | EffExpr::BoolVar(_) | EffExpr::Not(_) => {
                let v = self.fresh("sortmix");
                LInt {
                    def: Formula::False,
                    val: LinExpr::var(v),
                }
            }
        }
    }

    fn lower_int_bin(&mut self, op: BinOp, a: &EffExpr, b: &EffExpr) -> LInt {
        let la = self.lower_int(a);
        let lb = self.lower_int(b);
        let def = Formula::and(vec![la.def.clone(), lb.def.clone()]);
        match op {
            BinOp::Add => LInt {
                def,
                val: la.val.add(&lb.val),
            },
            BinOp::Sub => LInt {
                def,
                val: la.val.sub(&lb.val),
            },
            BinOp::Mul => {
                if let Some(c) = la.val.as_constant() {
                    LInt {
                        def,
                        val: lb.val.scale(c),
                    }
                } else if let Some(c) = lb.val.as_constant() {
                    LInt {
                        def,
                        val: la.val.scale(c),
                    }
                } else {
                    // non-affine: unknown (front-end checks prevent this)
                    let v = self.fresh("nonaffine");
                    LInt {
                        def: Formula::False,
                        val: LinExpr::var(v),
                    }
                }
            }
            BinOp::Div | BinOp::Mod => {
                let Some(c) = lb.val.as_constant().filter(|&c| c > 0) else {
                    let v = self.fresh("nonconst_div");
                    return LInt {
                        def: Formula::False,
                        val: LinExpr::var(v),
                    };
                };
                let q = self.fresh("q");
                let qv = LinExpr::var(q);
                // c·q ≤ t < c·q + c  (Euclidean for positive divisor)
                self.side.push(def.clone().implies(Formula::and(vec![
                    Formula::le(qv.scale(c), la.val.clone()),
                    Formula::lt(la.val.clone(), qv.scale(c).offset(c)),
                ])));
                match op {
                    BinOp::Div => LInt { def, val: qv },
                    _ => LInt {
                        def,
                        val: la.val.sub(&qv.scale(c)),
                    },
                }
            }
            _ => {
                let v = self.fresh("boolop_int");
                LInt {
                    def: Formula::False,
                    val: LinExpr::var(v),
                }
            }
        }
    }

    /// Lowers a boolean-sorted effect expression.
    pub fn lower_bool(&mut self, e: &EffExpr) -> LBool {
        match e {
            EffExpr::Bool(v) => LBool::known(if *v { Formula::True } else { Formula::False }),
            EffExpr::BoolVar(x) => {
                // encoded as an integer constrained to {0, 1}
                let xv = LinExpr::var(*x);
                self.side.push(Formula::and(vec![
                    Formula::ge(xv.clone(), LinExpr::constant(0)),
                    Formula::le(xv.clone(), LinExpr::constant(1)),
                ]));
                LBool::known(Formula::eq(xv, LinExpr::constant(1)))
            }
            EffExpr::Unknown => LBool {
                def: Formula::False,
                val: Formula::True,
            },
            EffExpr::Not(a) => self.lower_bool(a).negate(),
            EffExpr::Bin(BinOp::And, a, b) => {
                let la = self.lower_bool(a);
                let lb = self.lower_bool(b);
                la.and(&lb)
            }
            EffExpr::Bin(BinOp::Or, a, b) => {
                let la = self.lower_bool(a);
                let lb = self.lower_bool(b);
                la.or(&lb)
            }
            EffExpr::Bin(op, a, b)
                if matches!(
                    op,
                    BinOp::Eq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
                ) =>
            {
                // boolean equality between boolean-sorted operands is
                // lowered as iff; otherwise integer comparison
                if matches!(
                    (a.as_ref(), b.as_ref()),
                    (EffExpr::Bool(_) | EffExpr::BoolVar(_) | EffExpr::Not(_), _)
                        | (_, EffExpr::Bool(_) | EffExpr::BoolVar(_) | EffExpr::Not(_))
                ) && *op == BinOp::Eq
                {
                    let la = self.lower_bool(a);
                    let lb = self.lower_bool(b);
                    return LBool {
                        def: Formula::and(vec![la.def, lb.def]),
                        val: la.val.iff(lb.val),
                    };
                }
                let la = self.lower_int(a);
                let lb = self.lower_int(b);
                let def = Formula::and(vec![la.def, lb.def]);
                let val = match op {
                    BinOp::Eq => Formula::eq(la.val, lb.val),
                    BinOp::Lt => Formula::lt(la.val, lb.val),
                    BinOp::Le => Formula::le(la.val, lb.val),
                    BinOp::Gt => Formula::gt(la.val, lb.val),
                    BinOp::Ge => Formula::ge(la.val, lb.val),
                    _ => unreachable!(),
                };
                LBool { def, val }
            }
            EffExpr::Ite(c, t, f) => {
                let c = self.lower_bool(c);
                let t = self.lower_bool(t);
                let f = self.lower_bool(f);
                let def = Formula::and(vec![
                    c.def.clone(),
                    Formula::or(vec![
                        Formula::and(vec![c.val.clone(), t.def.clone()]),
                        Formula::and(vec![c.val.clone().negate(), f.def.clone()]),
                    ]),
                ]);
                let val = Formula::or(vec![
                    Formula::and(vec![c.val.clone(), t.val]),
                    Formula::and(vec![c.val.negate(), f.val]),
                ]);
                LBool { def, val }
            }
            // integer-sorted in bool position: unknown
            _ => LBool {
                def: Formula::False,
                val: Formula::True,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::SharedCheckCtx;
    use exo_smt::solver::Answer;

    #[test]
    fn lift_translates_control_exprs() {
        let mut globals = crate::globals::GlobalReg::default();
        let x = Sym::new("x");
        let e = Expr::var(x).mul(Expr::int(16)).add(Expr::int(3));
        let le = lift(&e, &mut globals);
        let mut ctx = LowerCtx::new();
        let li = ctx.lower_int(&le);
        assert_eq!(li.def, Formula::True);
        assert_eq!(li.val.coeff(x), 16);
        assert_eq!(li.val.constant, 3);
        assert!(ctx.side.is_empty());
    }

    #[test]
    fn division_lowering_is_exact() {
        // (x·16 + 5) / 16 == x under the side constraints
        let x = Sym::new("x");
        let e = EffExpr::Var(x).add(EffExpr::Int(0)).eq(EffExpr::bin(
            BinOp::Div,
            EffExpr::bin(
                BinOp::Add,
                EffExpr::bin(BinOp::Mul, EffExpr::Var(x), EffExpr::Int(16)),
                EffExpr::Int(5),
            ),
            EffExpr::Int(16),
        ));
        let mut ctx = LowerCtx::new();
        let lb = ctx.lower_bool(&e);
        let solver = SharedCheckCtx::process();
        let goal = ctx.assumptions().implies(lb.definitely());
        assert_eq!(solver.check_valid(&goal), Answer::Yes);
    }

    #[test]
    fn unknown_is_never_definite() {
        let mut ctx = LowerCtx::new();
        let e = EffExpr::Unknown.le(EffExpr::Int(100));
        let lb = ctx.lower_bool(&e);
        let solver = SharedCheckCtx::process();
        // D(⊥ ≤ 100) is not valid …
        assert_eq!(solver.check_valid(&lb.definitely()), Answer::No);
        // … but M(⊥ ≤ 100) is
        assert_eq!(solver.check_valid(&lb.maybe()), Answer::Yes);
    }

    #[test]
    fn kleene_false_absorbs_unknown() {
        // false ∧ ⊥ = false (definitely not true)
        let mut ctx = LowerCtx::new();
        let e = EffExpr::Bool(false).and(EffExpr::Unknown);
        let lb = ctx.lower_bool(&e);
        let solver = SharedCheckCtx::process();
        assert_eq!(solver.check_valid(&lb.maybe().negate()), Answer::Yes);
    }

    #[test]
    fn strides_are_canonical() {
        let b = Sym::new("buf");
        let mut ctx = LowerCtx::new();
        let s1 = ctx.lower_int(&EffExpr::Stride(b, 0));
        let s2 = ctx.lower_int(&EffExpr::Stride(b, 0));
        assert_eq!(s1.val, s2.val);
        let s3 = ctx.lower_int(&EffExpr::Stride(b, 1));
        assert_ne!(s1.val, s3.val);
    }

    #[test]
    fn subst_and_free_vars() {
        let x = Sym::new("x");
        let y = Sym::new("y");
        let e = EffExpr::Var(x).add(EffExpr::Var(y));
        let mut fv = std::collections::BTreeSet::new();
        e.free_vars(&mut fv);
        assert!(fv.contains(&x) && fv.contains(&y));
        let mut m = HashMap::default();
        m.insert(x, EffExpr::Int(1));
        let e2 = e.subst(&m);
        let mut fv2 = std::collections::BTreeSet::new();
        e2.free_vars(&mut fv2);
        assert!(!fv2.contains(&x));
    }
}
