//! First-order formulas over linear integer arithmetic.
//!
//! This is the logic the effect analyses compile their safety conditions
//! into (paper §5.2, appendix B). Atoms are linear (in)equalities and
//! divisibility constraints; formulas add boolean structure and
//! quantifiers. Validity is decided by Cooper-style quantifier
//! elimination in [`crate::qe`].

use std::fmt;

use exo_core::sym::Sym;

use crate::linear::{Coeffs, LinExpr};

/// An atomic constraint.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Atom {
    /// `e ≤ 0`.
    Le(LinExpr),
    /// `e = 0`.
    Eq(LinExpr),
    /// `m | e` (m > 0 divides e).
    Dvd(i64, LinExpr),
}

impl Atom {
    /// Evaluates the atom if it is ground (mentions no variables).
    pub fn eval_ground(&self) -> Option<bool> {
        match self {
            Atom::Le(e) => e.as_constant().map(|v| v <= 0),
            Atom::Eq(e) => e.as_constant().map(|v| v == 0),
            Atom::Dvd(m, e) => e.as_constant().map(|v| v.rem_euclid(*m) == 0),
        }
    }
}

/// A first-order formula.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Formula {
    /// Truth.
    True,
    /// Falsity.
    False,
    /// An atomic constraint.
    Atom(Atom),
    /// Negation.
    Not(Box<Formula>),
    /// N-ary conjunction.
    And(Vec<Formula>),
    /// N-ary disjunction.
    Or(Vec<Formula>),
    /// Existential quantification over an integer variable.
    Exists(Sym, Box<Formula>),
    /// Universal quantification over an integer variable.
    Forall(Sym, Box<Formula>),
}

impl Formula {
    /// `a ≤ b` as a formula.
    pub fn le(a: LinExpr, b: LinExpr) -> Formula {
        Formula::Atom(Atom::Le(a.sub(&b))).simplify_shallow()
    }

    /// `a < b`.
    pub fn lt(a: LinExpr, b: LinExpr) -> Formula {
        Formula::Atom(Atom::Le(a.sub(&b).offset(1))).simplify_shallow()
    }

    /// `a = b`.
    pub fn eq(a: LinExpr, b: LinExpr) -> Formula {
        Formula::Atom(Atom::Eq(a.sub(&b))).simplify_shallow()
    }

    /// `a ≥ b`.
    pub fn ge(a: LinExpr, b: LinExpr) -> Formula {
        Formula::le(b, a)
    }

    /// `a > b`.
    pub fn gt(a: LinExpr, b: LinExpr) -> Formula {
        Formula::lt(b, a)
    }

    /// `m | e`.
    pub fn dvd(m: i64, e: LinExpr) -> Formula {
        assert!(m > 0, "divisibility modulus must be positive");
        Formula::Atom(Atom::Dvd(m, e)).simplify_shallow()
    }

    /// Logical negation (with double-negation elimination).
    pub fn negate(self) -> Formula {
        match self {
            Formula::True => Formula::False,
            Formula::False => Formula::True,
            Formula::Not(f) => *f,
            f => Formula::Not(Box::new(f)),
        }
    }

    /// N-ary conjunction with short-circuit simplification and
    /// bound-conflict pruning (a conjunction implying both `t ≤ u` and
    /// `t ≥ l` with `l > u` along the same linear direction collapses to
    /// `False` — this keeps Cooper-elimination disjunct counts down).
    pub fn and(fs: Vec<Formula>) -> Formula {
        let mut out = Vec::new();
        for f in fs {
            match f {
                Formula::True => {}
                Formula::False => return Formula::False,
                Formula::And(inner) => out.extend(inner),
                f => out.push(f),
            }
        }
        out.dedup();
        if conj_has_bound_conflict(&out) {
            return Formula::False;
        }
        match out.len() {
            0 => Formula::True,
            1 => out.pop().unwrap_or(Formula::True),
            _ => Formula::And(out),
        }
    }

    /// N-ary disjunction with short-circuit simplification.
    pub fn or(fs: Vec<Formula>) -> Formula {
        let mut out = Vec::new();
        for f in fs {
            match f {
                Formula::False => {}
                Formula::True => return Formula::True,
                Formula::Or(inner) => out.extend(inner),
                f => out.push(f),
            }
        }
        out.dedup();
        match out.len() {
            0 => Formula::False,
            1 => out.pop().unwrap_or(Formula::False),
            _ => Formula::Or(out),
        }
    }

    /// `a ⇒ b`.
    pub fn implies(self, other: Formula) -> Formula {
        Formula::or(vec![self.negate(), other])
    }

    /// `a ⇔ b`.
    pub fn iff(self, other: Formula) -> Formula {
        Formula::and(vec![
            self.clone().implies(other.clone()),
            other.implies(self),
        ])
    }

    /// `∃x. self`.
    pub fn exists(self, x: Sym) -> Formula {
        match self {
            Formula::True => Formula::True,
            Formula::False => Formula::False,
            f => Formula::Exists(x, Box::new(f)),
        }
    }

    /// `∀x. self`.
    pub fn forall(self, x: Sym) -> Formula {
        match self {
            Formula::True => Formula::True,
            Formula::False => Formula::False,
            f => Formula::Forall(x, Box::new(f)),
        }
    }

    fn simplify_shallow(self) -> Formula {
        if let Formula::Atom(a) = &self {
            if let Some(b) = a.eval_ground() {
                return if b { Formula::True } else { Formula::False };
            }
            // normalize by gcd: g·e' ≤ c ⇒ e' ≤ floor(c/g), etc.
            match a {
                Atom::Le(e) if !e.coeffs.is_empty() => {
                    let g = e.coeffs.values().fold(0, |g, &c| crate::linear::gcd(g, c));
                    if g > 1 {
                        let mut e2 = LinExpr {
                            constant: 0,
                            coeffs: e.coeffs.iter().map(|(&v, &c)| (v, c / g)).collect(),
                        };
                        // Σ g·cᵢxᵢ + k ≤ 0 ⇔ Σ cᵢxᵢ ≤ floor(-k/g) ⇔ Σ cᵢxᵢ - floor(-k/g) ≤ 0
                        e2.constant = -(-e.constant).div_euclid(g);
                        return Formula::Atom(Atom::Le(e2));
                    }
                }
                Atom::Eq(e) if !e.coeffs.is_empty() => {
                    let g = e.coeffs.values().fold(0, |g, &c| crate::linear::gcd(g, c));
                    if g > 1 {
                        if e.constant.rem_euclid(g) != 0 {
                            return Formula::False;
                        }
                        let e2 = LinExpr {
                            constant: e.constant / g,
                            coeffs: e.coeffs.iter().map(|(&v, &c)| (v, c / g)).collect(),
                        };
                        return Formula::Atom(Atom::Eq(e2));
                    }
                }
                _ => {}
            }
        }
        self
    }

    /// Collects the free variables of the formula into `out`.
    pub fn free_vars(&self, out: &mut std::collections::BTreeSet<Sym>) {
        match self {
            Formula::True | Formula::False => {}
            Formula::Atom(a) => {
                let e = match a {
                    Atom::Le(e) | Atom::Eq(e) | Atom::Dvd(_, e) => e,
                };
                out.extend(e.vars());
            }
            Formula::Not(f) => f.free_vars(out),
            Formula::And(fs) | Formula::Or(fs) => fs.iter().for_each(|f| f.free_vars(out)),
            Formula::Exists(x, f) | Formula::Forall(x, f) => {
                let mut inner = std::collections::BTreeSet::new();
                f.free_vars(&mut inner);
                inner.remove(x);
                out.extend(inner);
            }
        }
    }

    /// Substitutes the linear expression `e` for variable `x` in all
    /// atoms. `x` must not be bound by a quantifier whose scope is
    /// entered (bound occurrences shadow).
    pub fn subst(&self, x: Sym, e: &LinExpr) -> Formula {
        match self {
            Formula::True => Formula::True,
            Formula::False => Formula::False,
            Formula::Atom(a) => {
                let f = match a {
                    Atom::Le(t) => Formula::Atom(Atom::Le(t.subst(x, e))),
                    Atom::Eq(t) => Formula::Atom(Atom::Eq(t.subst(x, e))),
                    Atom::Dvd(m, t) => Formula::Atom(Atom::Dvd(*m, t.subst(x, e))),
                };
                f.simplify_shallow()
            }
            Formula::Not(f) => f.subst(x, e).negate(),
            Formula::And(fs) => Formula::and(fs.iter().map(|f| f.subst(x, e)).collect()),
            Formula::Or(fs) => Formula::or(fs.iter().map(|f| f.subst(x, e)).collect()),
            Formula::Exists(y, f) if *y != x => f.subst(x, e).exists(*y),
            Formula::Forall(y, f) if *y != x => f.subst(x, e).forall(*y),
            q => q.clone(),
        }
    }

    /// The top-level conjuncts: the parts of an `And`, else the formula
    /// itself.
    pub(crate) fn conjuncts(&self) -> &[Formula] {
        match self {
            Formula::And(fs) => fs,
            f => std::slice::from_ref(f),
        }
    }

    /// Whether the formula contains quantifiers.
    pub fn has_quantifiers(&self) -> bool {
        match self {
            Formula::True | Formula::False | Formula::Atom(_) => false,
            Formula::Not(f) => f.has_quantifiers(),
            Formula::And(fs) | Formula::Or(fs) => fs.iter().any(Formula::has_quantifiers),
            Formula::Exists(..) | Formula::Forall(..) => true,
        }
    }

    /// Rough size measure (number of nodes), used to bound solver effort.
    pub fn size(&self) -> usize {
        match self {
            Formula::True | Formula::False | Formula::Atom(_) => 1,
            Formula::Not(f) => 1 + f.size(),
            Formula::And(fs) | Formula::Or(fs) => 1 + fs.iter().map(Formula::size).sum::<usize>(),
            Formula::Exists(_, f) | Formula::Forall(_, f) => 1 + f.size(),
        }
    }
}

/// Detects pairs of linear bounds in one conjunction that are jointly
/// infeasible: atoms are normalized to `dir·x ≤ u` / `dir·x ≥ l` along a
/// sign-and-gcd-canonical direction `dir`; a direction with `l > u` makes
/// the conjunction false.
fn conj_has_bound_conflict(fs: &[Formula]) -> bool {
    fn bounded(f: &Formula) -> Option<(&LinExpr, bool)> {
        match f {
            Formula::Atom(Atom::Le(e)) if !e.coeffs.is_empty() => Some((e, false)),
            Formula::Atom(Atom::Eq(e)) if !e.coeffs.is_empty() => Some((e, true)),
            _ => None,
        }
    }
    // one bound alone cannot conflict: with fewer than two, only an
    // equation's divisibility is left to check
    let compare = fs.iter().filter_map(bounded).nth(1).is_some();
    // per atom: (direction, lower bound, upper bound), `i64::MIN` and
    // `i64::MAX` standing for none (neither can take part in `l > u`)
    let mut bounds: Vec<(Coeffs, i64, i64)> = Vec::new();
    for (e, is_eq) in fs.iter().filter_map(bounded) {
        let g = e.coeffs.values().fold(0, |g, &c| crate::linear::gcd(g, c));
        let Some(&lead) = e.coeffs.values().next() else {
            continue;
        };
        let sign = if lead > 0 { 1 } else { -1 };
        if is_eq && e.constant.rem_euclid(g) != 0 {
            return true;
        }
        if !compare {
            continue;
        }
        let dir: Coeffs = e.coeffs.iter().map(|(&v, &c)| (v, sign * c / g)).collect();
        // e ≤ 0 ⇔ sign·g·(dir·x) + c ≤ 0
        let (lower, upper) = if is_eq {
            let v = -sign * e.constant / g;
            (v, v)
        } else if sign > 0 {
            // g·(dir·x) ≤ -c  ⇒  dir·x ≤ floor(-c / g)
            (i64::MIN, (-e.constant).div_euclid(g))
        } else {
            // -g·(dir·x) + c ≤ 0  ⇒  dir·x ≥ ceil(c / g)
            (-(-e.constant).div_euclid(g), i64::MAX)
        };
        bounds.push((dir, lower, upper));
    }
    // per direction: its greatest lower bound against its least upper one
    bounds.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    bounds.chunk_by(|a, b| a.0 == b.0).any(|same| {
        let lower = same.iter().map(|b| b.1).max();
        let upper = same.iter().map(|b| b.2).min();
        lower > upper
    })
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::True => write!(f, "true"),
            Formula::False => write!(f, "false"),
            Formula::Atom(Atom::Le(e)) => write!(f, "({e} <= 0)"),
            Formula::Atom(Atom::Eq(e)) => write!(f, "({e} == 0)"),
            Formula::Atom(Atom::Dvd(m, e)) => write!(f, "({m} | {e})"),
            Formula::Not(g) => write!(f, "¬{g}"),
            Formula::And(fs) => {
                write!(f, "(")?;
                for (i, g) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∧ ")?;
                    }
                    write!(f, "{g}")?;
                }
                write!(f, ")")
            }
            Formula::Or(fs) => {
                write!(f, "(")?;
                for (i, g) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∨ ")?;
                    }
                    write!(f, "{g}")?;
                }
                write!(f, ")")
            }
            Formula::Exists(x, g) => write!(f, "∃{x}. {g}"),
            Formula::Forall(x, g) => write!(f, "∀{x}. {g}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_atoms_fold() {
        assert_eq!(
            Formula::le(LinExpr::constant(1), LinExpr::constant(2)),
            Formula::True
        );
        assert_eq!(
            Formula::lt(LinExpr::constant(2), LinExpr::constant(2)),
            Formula::False
        );
        assert_eq!(
            Formula::eq(LinExpr::constant(3), LinExpr::constant(3)),
            Formula::True
        );
        assert_eq!(Formula::dvd(3, LinExpr::constant(9)), Formula::True);
        assert_eq!(Formula::dvd(3, LinExpr::constant(-1)), Formula::False);
    }

    #[test]
    fn and_or_simplify() {
        let x = Sym::new("x");
        let a = Formula::le(LinExpr::var(x), LinExpr::constant(5));
        assert_eq!(Formula::and(vec![Formula::True, a.clone()]), a);
        assert_eq!(
            Formula::and(vec![Formula::False, a.clone()]),
            Formula::False
        );
        assert_eq!(Formula::or(vec![Formula::True, a.clone()]), Formula::True);
        assert_eq!(Formula::or(vec![Formula::False, a.clone()]), a);
        assert_eq!(Formula::or(vec![]), Formula::False);
        assert_eq!(Formula::and(vec![]), Formula::True);
    }

    #[test]
    fn gcd_normalization() {
        let x = Sym::new("x");
        // 2x <= 5  ⇒  x <= 2
        let f = Formula::le(LinExpr::scaled_var(2, x), LinExpr::constant(5));
        match f {
            Formula::Atom(Atom::Le(e)) => {
                assert_eq!(e.coeff(x), 1);
                assert_eq!(e.constant, -2);
            }
            other => panic!("unexpected {other}"),
        }
        // 2x == 5 is unsatisfiable by parity
        let g = Formula::eq(LinExpr::scaled_var(2, x), LinExpr::constant(5));
        assert_eq!(g, Formula::False);
    }

    #[test]
    fn subst_into_atoms() {
        let x = Sym::new("x");
        let y = Sym::new("y");
        let f = Formula::le(LinExpr::var(x), LinExpr::constant(0));
        let g = f.subst(x, &LinExpr::var(y).offset(-1));
        match g {
            Formula::Atom(Atom::Le(e)) => {
                assert_eq!(e.coeff(y), 1);
                assert_eq!(e.constant, -1);
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn free_vars_respect_binding() {
        let x = Sym::new("x");
        let y = Sym::new("y");
        let f = Formula::le(LinExpr::var(x), LinExpr::var(y)).exists(x);
        let mut vs = std::collections::BTreeSet::new();
        f.free_vars(&mut vs);
        assert!(vs.contains(&y));
        assert!(!vs.contains(&x));
    }

    #[test]
    fn double_negation_eliminated() {
        let x = Sym::new("x");
        let a = Formula::le(LinExpr::var(x), LinExpr::constant(0));
        assert_eq!(a.clone().negate().negate(), a);
    }
}
