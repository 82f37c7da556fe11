//! Effect expressions (paper §5.2) and their lowering to classical SMT
//! formulas.
//!
//! Effect expressions are symbolic control values that may contain the
//! unknown value ⊥ (introduced by the approximating global dataflow,
//! §5.3). Following appendix B, a ternary expression lowers to a pair
//! *(defined, value)* of classical objects: booleans become a pair of
//! [`Formula`]s, integers a [`Formula`] plus a [`LinExpr`] (with fresh
//! variables and side constraints for `/`, `%`, `if-then-else` and ⊥).
//!
//! Sub-expressions are shared ([`Arc`]): cloning an expression, as the
//! effects, location sets and dataflow environments built over it do, is
//! a reference-count bump, not a copy of the tree.

use std::sync::Arc;

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
    /// Integer literal.
    Int(i64),
    /// Boolean literal.
    Bool(bool),
    /// The unknown value ⊥.
    Unknown,
    /// Binary operation (quasi-affine for integer operators).
    Bin(BinOp, Arc<EffExpr>, Arc<EffExpr>),
    /// Negation of an integer.
    Neg(Arc<EffExpr>),
    /// Boolean negation.
    Not(Arc<EffExpr>),
    /// `cond ? then : else`.
    Ite(Arc<EffExpr>, Arc<EffExpr>, Arc<EffExpr>),
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
        EffExpr::Bin(op, Arc::new(lhs), Arc::new(rhs))
    }

    /// `-a`.
    #[allow(clippy::should_implement_trait)]
    pub fn neg(a: EffExpr) -> EffExpr {
        EffExpr::Neg(Arc::new(a))
    }

    /// `¬a`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(a: EffExpr) -> EffExpr {
        EffExpr::Not(Arc::new(a))
    }

    /// `cond ? then : else`.
    pub fn ite(cond: EffExpr, then: EffExpr, orelse: EffExpr) -> EffExpr {
        EffExpr::Ite(Arc::new(cond), Arc::new(then), Arc::new(orelse))
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
            EffExpr::Int(_) | EffExpr::Bool(_) | EffExpr::Unknown | EffExpr::Stride(..) => {
                self.clone()
            }
            EffExpr::Bin(op, a, b) => EffExpr::bin(*op, a.subst(map), b.subst(map)),
            EffExpr::Neg(a) => EffExpr::neg(a.subst(map)),
            EffExpr::Not(a) => EffExpr::not(a.subst(map)),
            EffExpr::Ite(c, t, e) => EffExpr::ite(c.subst(map), t.subst(map), e.subst(map)),
        }
    }

    /// Free variables (excluding stride tokens).
    pub fn free_vars(&self, out: &mut std::collections::BTreeSet<Sym>) {
        match self {
            EffExpr::Var(x) => {
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
        Expr::Neg(a) => EffExpr::neg(lift(a, globals)),
        Expr::Stride { buf, dim } => EffExpr::Stride(*buf, *dim),
        Expr::ReadConfig { config, field } => EffExpr::Var(globals.canon(*config, *field)),
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

    /// Whether the value is known everywhere (`def` is `True`).
    pub(crate) fn is_known(&self) -> bool {
        self.def == Formula::True
    }

    /// `D p` — definitely true.
    pub fn definitely(self) -> Formula {
        if self.is_known() {
            // `True ∧ v` is `v`: every lowered formula is already in the
            // normal form `Formula::and` would return
            return self.val;
        }
        Formula::and(vec![self.def, self.val])
    }

    /// `M p` — maybe true (unknown counts as true).
    pub fn maybe(self) -> Formula {
        if self.is_known() {
            // `¬True ∨ v` is `v`, as in `definitely`
            return self.val;
        }
        Formula::or(vec![self.def.negate(), self.val])
    }

    /// Kleene conjunction.
    pub fn and(self, other: LBool) -> LBool {
        if self.is_known() && other.is_known() {
            // the general rule's `def` is `True ∨ …`
            return LBool::known(Formula::and(vec![self.val, other.val]));
        }
        // defined when both defined, or either is a defined false
        let def = Formula::or(vec![
            Formula::and(vec![self.def.clone(), other.def.clone()]),
            Formula::and(vec![self.def, self.val.clone().negate()]),
            Formula::and(vec![other.def, other.val.clone().negate()]),
        ]);
        LBool {
            def,
            val: Formula::and(vec![self.val, other.val]),
        }
    }

    /// Kleene disjunction.
    pub fn or(self, other: LBool) -> LBool {
        if self.is_known() && other.is_known() {
            return LBool::known(Formula::or(vec![self.val, other.val]));
        }
        let def = Formula::or(vec![
            Formula::and(vec![self.def.clone(), other.def.clone()]),
            Formula::and(vec![self.def, self.val.clone()]),
            Formula::and(vec![other.def, other.val.clone()]),
        ]);
        LBool {
            def,
            val: Formula::or(vec![self.val, other.val]),
        }
    }

    /// Kleene negation.
    pub fn negate(self) -> LBool {
        LBool {
            def: self.def,
            val: self.val.negate(),
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
/// constraints (definitions of fresh variables), the canonical-stride
/// registry, and what each quotient symbol divides.
#[derive(Debug, Default)]
pub struct LowerCtx {
    /// Side constraints that must be assumed in every query using the
    /// lowered expressions.
    pub side: Vec<Formula>,
    strides: HashMap<(Sym, usize), Sym>,
    /// Quotient symbol → (dividend, positive divisor).
    quotients: HashMap<Sym, (LinExpr, i64)>,
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

    /// Reverse lookup: the `(dividend, divisor)` a quotient symbol
    /// minted for `t / c` or `t % c` stands for, if any.
    pub fn quotient_of(&self, sym: Sym) -> Option<(&LinExpr, i64)> {
        self.quotients.get(&sym).map(|(t, c)| (t, *c))
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
            EffExpr::Bool(_) | EffExpr::Not(_) => {
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
        let def = both_defined(la.def.clone(), lb.def.clone());
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
                self.quotients.insert(q, (la.val.clone(), c));
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
            EffExpr::Unknown => LBool {
                def: Formula::False,
                val: Formula::True,
            },
            EffExpr::Not(a) => self.lower_bool(a).negate(),
            EffExpr::Bin(BinOp::And, ..) => self.lower_chain(e).lowered(),
            EffExpr::Bin(BinOp::Or, a, b) => {
                let la = self.lower_bool(a);
                let lb = self.lower_bool(b);
                la.or(lb)
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
                    (EffExpr::Bool(_) | EffExpr::Not(_), _)
                        | (_, EffExpr::Bool(_) | EffExpr::Not(_))
                ) && *op == BinOp::Eq
                {
                    let la = self.lower_bool(a);
                    let lb = self.lower_bool(b);
                    return LBool {
                        def: both_defined(la.def, lb.def),
                        val: la.val.iff(lb.val),
                    };
                }
                let la = self.lower_int(a);
                let lb = self.lower_int(b);
                let def = both_defined(la.def, lb.def);
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

    /// Lowers the left-nested conjunction chain `e` part by part, left to
    /// right as the nested rule does, so side constraints and fresh
    /// symbols come in the same order; runs of known parts make one
    /// conjunction instead of one per link.
    fn lower_chain(&mut self, e: &EffExpr) -> Chain {
        match e {
            EffExpr::Bin(BinOp::And, a, b) => {
                let chain = self.lower_chain(a);
                chain.and(self.lower_bool(b))
            }
            e => Chain::Lowered(self.lower_bool(e)),
        }
    }
}

/// `a ∧ b` for two definedness conditions: `True ∧ True` is `True`.
fn both_defined(a: Formula, b: Formula) -> Formula {
    if a == Formula::True && b == Formula::True {
        return Formula::True;
    }
    Formula::and(vec![a, b])
}

/// A left-nested chain `p₀ ∧ p₁ ∧ …` lowered so far.
enum Chain {
    /// As the Kleene rule builds it.
    Lowered(LBool),
    /// Two or more known parts' values, to be joined by one
    /// `Formula::and`: `and([and([u, v]), w])` is `and([u, v, w])`.
    Known(Vec<Formula>),
}

impl Chain {
    /// `self ∧ p`.
    fn and(self, p: LBool) -> Chain {
        match self {
            Chain::Known(mut vals) if p.is_known() => {
                vals.push(p.val);
                Chain::Known(vals)
            }
            Chain::Lowered(acc) if acc.is_known() && p.is_known() => {
                Chain::Known(vec![acc.val, p.val])
            }
            chain => Chain::Lowered(chain.lowered().and(p)),
        }
    }

    fn lowered(self) -> LBool {
        match self {
            Chain::Lowered(l) => l,
            Chain::Known(vals) => LBool::known(Formula::and(vals)),
        }
    }
}

/// Seeded random effect expressions for the equivalence tests here and in
/// [`crate::locset`].
#[cfg(test)]
pub(crate) mod testgen {
    use super::*;

    /// SplitMix64: a small deterministic generator.
    pub(crate) struct Rng(u64);

    impl Rng {
        pub(crate) fn new(seed: u64) -> Rng {
            Rng(seed)
        }

        pub(crate) fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        pub(crate) fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        pub(crate) fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
            xs[self.below(xs.len())]
        }
    }

    /// The symbols expressions draw from.
    pub(crate) struct Vocab {
        /// Integer variables.
        pub(crate) ints: Vec<Sym>,
        /// Buffers (for strides and location sets).
        pub(crate) bufs: Vec<Sym>,
    }

    impl Vocab {
        pub(crate) fn new() -> Vocab {
            Vocab {
                ints: ["i", "j", "n"].into_iter().map(Sym::new).collect(),
                bufs: ["A", "B"].into_iter().map(Sym::new).collect(),
            }
        }
    }

    /// `lhs op rhs`, sometimes built raw (unfolded), as a hand-built
    /// expression may be.
    fn node(op: BinOp, lhs: EffExpr, rhs: EffExpr, rng: &mut Rng) -> EffExpr {
        if rng.below(6) == 0 {
            EffExpr::Bin(op, Arc::new(lhs), Arc::new(rhs))
        } else {
            EffExpr::bin(op, lhs, rhs)
        }
    }

    /// A random integer-sorted expression. With `pure` it avoids
    /// everything whose lowering has side effects.
    pub(crate) fn int(rng: &mut Rng, v: &Vocab, depth: usize, pure: bool) -> EffExpr {
        if depth == 0 || rng.below(3) == 0 {
            return match rng.below(if pure { 7 } else { 8 }) {
                0..=2 => EffExpr::Var(rng.pick(&v.ints)),
                3..=5 => EffExpr::Int(rng.below(12) as i64 - 3),
                6 => EffExpr::Unknown,
                _ => EffExpr::Stride(rng.pick(&v.bufs), rng.below(2)),
            };
        }
        let d = depth - 1;
        match rng.below(if pure { 5 } else { 8 }) {
            0 => node(BinOp::Add, int(rng, v, d, pure), int(rng, v, d, pure), rng),
            1 => node(BinOp::Sub, int(rng, v, d, pure), int(rng, v, d, pure), rng),
            2 => {
                let c = EffExpr::Int(rng.below(4) as i64);
                node(BinOp::Mul, c, int(rng, v, d, pure), rng)
            }
            3 => node(BinOp::Mul, int(rng, v, d, pure), int(rng, v, d, pure), rng),
            4 => EffExpr::neg(int(rng, v, d, pure)),
            5 => {
                let op = rng.pick(&[BinOp::Div, BinOp::Mod]);
                let divisor = match rng.below(3) {
                    0 => int(rng, v, d, pure),
                    _ => EffExpr::Int(rng.below(4) as i64 + 1),
                };
                node(op, int(rng, v, d, pure), divisor, rng)
            }
            _ => EffExpr::ite(
                boolean(rng, v, d, pure),
                int(rng, v, d, pure),
                int(rng, v, d, pure),
            ),
        }
    }

    /// A random boolean-sorted (ternary) condition.
    pub(crate) fn boolean(rng: &mut Rng, v: &Vocab, depth: usize, pure: bool) -> EffExpr {
        if depth == 0 || rng.below(4) == 0 {
            return match rng.below(3) {
                0 => EffExpr::Bool(rng.below(2) == 0),
                1 => EffExpr::Unknown,
                _ => {
                    let op = rng.pick(&[BinOp::Le, BinOp::Lt]);
                    node(op, EffExpr::Var(rng.pick(&v.ints)), EffExpr::Int(4), rng)
                }
            };
        }
        let d = depth - 1;
        match rng.below(if pure { 4 } else { 6 }) {
            0 => {
                let op = rng.pick(&[BinOp::Eq, BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge]);
                node(op, int(rng, v, d, pure), int(rng, v, d, pure), rng)
            }
            1 => {
                let op = rng.pick(&[BinOp::And, BinOp::Or]);
                node(op, boolean(rng, v, d, pure), boolean(rng, v, d, pure), rng)
            }
            2 => EffExpr::not(boolean(rng, v, d, pure)),
            3 => {
                let lo = int(rng, v, d, pure);
                let x = EffExpr::Var(rng.pick(&v.ints));
                node(
                    BinOp::And,
                    lo.le(x.clone()),
                    x.lt(int(rng, v, d, pure)),
                    rng,
                )
            }
            4 => node(
                BinOp::Eq,
                boolean(rng, v, d, pure),
                boolean(rng, v, d, pure),
                rng,
            ),
            _ => EffExpr::ite(
                boolean(rng, v, d, pure),
                boolean(rng, v, d, pure),
                boolean(rng, v, d, pure),
            ),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::check::SharedCheckCtx;
    use exo_smt::solver::Answer;

    /// The Kleene connectives and collapses as built before the defined
    /// fast paths: the reference the fast paths must match exactly.
    pub(crate) mod reference {
        use super::*;

        pub(crate) fn definitely(p: &LBool) -> Formula {
            Formula::and(vec![p.def.clone(), p.val.clone()])
        }

        pub(crate) fn maybe(p: &LBool) -> Formula {
            Formula::or(vec![p.def.clone().negate(), p.val.clone()])
        }

        pub(crate) fn and(a: &LBool, b: &LBool) -> LBool {
            let def = Formula::or(vec![
                Formula::and(vec![a.def.clone(), b.def.clone()]),
                Formula::and(vec![a.def.clone(), a.val.clone().negate()]),
                Formula::and(vec![b.def.clone(), b.val.clone().negate()]),
            ]);
            LBool {
                def,
                val: Formula::and(vec![a.val.clone(), b.val.clone()]),
            }
        }

        pub(crate) fn or(a: &LBool, b: &LBool) -> LBool {
            let def = Formula::or(vec![
                Formula::and(vec![a.def.clone(), b.def.clone()]),
                Formula::and(vec![a.def.clone(), a.val.clone()]),
                Formula::and(vec![b.def.clone(), b.val.clone()]),
            ]);
            LBool {
                def,
                val: Formula::or(vec![a.val.clone(), b.val.clone()]),
            }
        }

        pub(crate) fn negate(p: &LBool) -> LBool {
            LBool {
                def: p.def.clone(),
                val: p.val.clone().negate(),
            }
        }
    }

    /// The connectives and collapses equal the general construction on
    /// lowered random conditions, with the operands known or not.
    #[test]
    fn kleene_fast_paths_match_the_general_construction() {
        let v = testgen::Vocab::new();
        let mut known = 0;
        for seed in 0..2_000 {
            let mut rng = testgen::Rng::new(seed);
            let mut ctx = LowerCtx::new();
            let pure = rng.below(2) == 0;
            let a = ctx.lower_bool(&testgen::boolean(&mut rng, &v, 4, pure));
            let b = ctx.lower_bool(&testgen::boolean(&mut rng, &v, 4, pure));
            let side = ctx.side.clone();
            known += usize::from(a.def == Formula::True && b.def == Formula::True);
            assert_eq!(
                a.clone().and(b.clone()),
                reference::and(&a, &b),
                "seed {seed}"
            );
            assert_eq!(
                a.clone().or(b.clone()),
                reference::or(&a, &b),
                "seed {seed}"
            );
            assert_eq!(a.clone().negate(), reference::negate(&a), "seed {seed}");
            assert_eq!(
                a.clone().definitely(),
                reference::definitely(&a),
                "seed {seed}"
            );
            assert_eq!(a.clone().maybe(), reference::maybe(&a), "seed {seed}");
            assert_eq!(ctx.side, side, "the connectives lower nothing");
        }
        // both branches of every fast path are exercised
        assert!((200..1_800).contains(&known), "{known} known pairs");
    }

    /// Lowers `e` as the nested rule does: a conjunction lowers both
    /// sides, then joins them with `LBool::and`.
    fn lower_nested(ctx: &mut LowerCtx, e: &EffExpr) -> LBool {
        match e {
            EffExpr::Bin(BinOp::And, a, b) => {
                let la = lower_nested(ctx, a);
                la.and(lower_nested(ctx, b))
            }
            e => ctx.lower_bool(e),
        }
    }

    /// `val`, the side constraints and `def`, canonically renamed after
    /// the vocabulary: two lowerings mint their fresh symbols separately.
    fn canonical(l: LBool, ctx: &LowerCtx, v: &testgen::Vocab) -> Formula {
        let anchor = v
            .ints
            .iter()
            .map(|&s| Formula::eq(LinExpr::var(s), LinExpr::constant(0)));
        exo_smt::canon::canonicalize(&Formula::And(vec![
            Formula::And(anchor.collect()),
            l.val,
            Formula::And(ctx.side.clone()),
            l.def,
        ]))
    }

    /// A left-nested chain of conjunctions lowers to the `val`, `def` and
    /// side constraints of the nested construction, on random chains of
    /// known parts, ⊥ parts and parts with `Ite`, `/` and `%`.
    #[test]
    fn flat_chains_match_the_nested_construction() {
        let v = testgen::Vocab::new();
        let (mut known, mut mixed, mut sided) = (0, 0, 0);
        for seed in 0..2_000 {
            let mut rng = testgen::Rng::new(seed);
            let part = |rng: &mut testgen::Rng| match rng.below(6) {
                0 => EffExpr::Unknown,
                1 | 2 => testgen::boolean(rng, &v, 2, true),
                _ => testgen::boolean(rng, &v, 3, false),
            };
            let first = part(&mut rng);
            let chain = (0..1 + rng.below(7)).fold(first, |chain, _| {
                EffExpr::Bin(BinOp::And, Arc::new(chain), Arc::new(part(&mut rng)))
            });
            let (mut flat, mut nested) = (LowerCtx::new(), LowerCtx::new());
            let got = flat.lower_bool(&chain);
            let want = lower_nested(&mut nested, &chain);
            match got.is_known() {
                true => known += 1,
                false => mixed += 1,
            }
            sided += usize::from(!flat.side.is_empty());
            assert_eq!(
                canonical(got, &flat, &v),
                canonical(want, &nested, &v),
                "seed {seed}: {chain:?}"
            );
        }
        assert!(
            known > 200 && mixed > 200 && sided > 200,
            "{known} known, {mixed} mixed, {sided} with side constraints"
        );
    }

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
        let solver = SharedCheckCtx::fresh();
        let goal = ctx.assumptions().implies(lb.definitely());
        assert_eq!(solver.check_valid(goal), Answer::Yes);
    }

    #[test]
    fn unknown_is_never_definite() {
        let mut ctx = LowerCtx::new();
        let e = EffExpr::Unknown.le(EffExpr::Int(100));
        let lb = ctx.lower_bool(&e);
        let solver = SharedCheckCtx::fresh();
        // D(⊥ ≤ 100) is not valid …
        assert_eq!(solver.check_valid(lb.clone().definitely()), Answer::No);
        // … but M(⊥ ≤ 100) is
        assert_eq!(solver.check_valid(lb.maybe()), Answer::Yes);
    }

    #[test]
    fn kleene_false_absorbs_unknown() {
        // false ∧ ⊥ = false (definitely not true)
        let mut ctx = LowerCtx::new();
        let e = EffExpr::Bool(false).and(EffExpr::Unknown);
        let lb = ctx.lower_bool(&e);
        let solver = SharedCheckCtx::fresh();
        assert_eq!(solver.check_valid(lb.maybe().negate()), Answer::Yes);
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
