//! First-order formulas over linear integer arithmetic.
//!
//! This is the logic the effect analyses compile their safety conditions
//! into (paper §5.2, appendix B). Atoms are linear (in)equalities and
//! divisibility constraints; formulas add boolean structure and
//! quantifiers. Validity is decided by Cooper-style quantifier
//! elimination in [`crate::qe`].

use std::fmt;
use std::hash::Hasher;

use exo_core::hash::FxHasher;
use exo_core::sym::Sym;

use crate::linear::LinExpr;

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
    ///
    /// Each conjunction is checked once: the parts of the largest `And`
    /// in `fs` count as checked against each other, and only the other
    /// atoms are compared, each with the whole conjunction. Every `And`
    /// the library builds comes from this check or from
    /// [`crate::canon::canonicalize`], whose bijective renaming keeps a
    /// checked conjunction free of conflicts. An `And` built by hand only
    /// loses pruning: the check turns nothing but an unsatisfiable
    /// conjunction into `False`, so no verdict changes.
    pub fn and(fs: Vec<Formula>) -> Formula {
        let checked = (0..fs.len())
            .filter(|&i| matches!(fs[i], Formula::And(_)))
            .max_by_key(|&i| fs[i].conjuncts().len());
        Formula::and_checked(
            fs.into_iter()
                .enumerate()
                .map(|(i, f)| (f, Some(i) == checked)),
        )
    }

    /// [`Formula::and`] of `parts`, each flagged whether it is (or, for an
    /// `And`, its parts are) unchanged from a conjunction already checked:
    /// flagged atoms are not compared with each other again, so all of
    /// them must come from the same checked conjunction.
    pub(crate) fn and_checked(parts: impl IntoIterator<Item = (Formula, bool)>) -> Formula {
        let mut out = Vec::new();
        // the bounds of the atoms new to the conjunction
        let mut fresh = Vec::new();
        let mut push = |f: Formula, checked: bool, out: &mut Vec<Formula>| {
            if out.last() != Some(&f) {
                if !checked {
                    fresh.extend(Bound::of(&f, out.len()));
                }
                out.push(f);
            }
        };
        for (f, checked) in parts {
            match f {
                Formula::True => {}
                Formula::False => return Formula::False,
                Formula::And(inner) => inner.into_iter().for_each(|g| push(g, checked, &mut out)),
                f => push(f, checked, &mut out),
            }
        }
        if has_bound_conflict(&out, &fresh) {
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
            Formula::Atom(a) => {
                let f = match a {
                    Atom::Le(t) => Formula::Atom(Atom::Le(t.subst(x, e))),
                    Atom::Eq(t) => Formula::Atom(Atom::Eq(t.subst(x, e))),
                    Atom::Dvd(m, t) => Formula::Atom(Atom::Dvd(*m, t.subst(x, e))),
                };
                f.simplify_shallow()
            }
            Formula::Not(f) => f.subst(x, e).negate(),
            Formula::And(fs) => {
                Formula::and_checked(fs.iter().map(|f| (f.subst(x, e), f.is_atom_free_of(x))))
            }
            Formula::Or(fs) => Formula::or(fs.iter().map(|f| f.subst(x, e)).collect()),
            Formula::Exists(y, f) if *y != x => f.subst(x, e).exists(*y),
            Formula::Forall(y, f) if *y != x => f.subst(x, e).forall(*y),
            q => q.clone(),
        }
    }

    /// Whether `x` occurs free in the formula.
    pub(crate) fn mentions(&self, x: Sym) -> bool {
        match self {
            Formula::True | Formula::False => false,
            Formula::Atom(Atom::Le(e) | Atom::Eq(e) | Atom::Dvd(_, e)) => e.mentions(x),
            Formula::Not(f) => f.mentions(x),
            Formula::And(fs) | Formula::Or(fs) => fs.iter().any(|f| f.mentions(x)),
            Formula::Exists(y, f) | Formula::Forall(y, f) => *y != x && f.mentions(x),
        }
    }

    /// Whether the formula is an atom without `x`: a part of a
    /// conjunction that substituting, rescaling or projecting `x` leaves
    /// unchanged.
    pub(crate) fn is_atom_free_of(&self, x: Sym) -> bool {
        matches!(self, Formula::Atom(_)) && !self.mentions(x)
    }

    /// The top-level conjuncts: the parts of an `And`, else the formula
    /// itself.
    pub(crate) fn conjuncts(&self) -> &[Formula] {
        match self {
            Formula::And(fs) => fs,
            f => std::slice::from_ref(f),
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

/// The atom `e ≤ 0` or `e = 0` at `at` of a conjunction, as bounds
/// `lower ≤ dir·x ≤ upper` (`i64::MIN`, `i64::MAX` for none) on its
/// direction: `e`'s terms divided by `unit`, their gcd signed so the
/// first term is positive. An equation `unit` does not divide gets an
/// empty range.
struct Bound {
    at: usize,
    /// Hash of the direction.
    hash: u64,
    unit: i64,
    lower: i64,
    upper: i64,
}

impl Bound {
    fn of(f: &Formula, at: usize) -> Option<Bound> {
        let (e, is_eq) = match f {
            Formula::Atom(Atom::Le(e)) if !e.coeffs.is_empty() => (e, false),
            Formula::Atom(Atom::Eq(e)) if !e.coeffs.is_empty() => (e, true),
            _ => return None,
        };
        let g = e.coeffs.values().fold(0, |g, &c| crate::linear::gcd(g, c));
        let lead = e.coeffs.values().next().copied().unwrap_or(0);
        let unit = if lead > 0 { g } else { -g };
        let mut hash = FxHasher::default();
        for (x, &c) in &e.coeffs {
            hash.write_u32(x.id());
            hash.write_i64(c / unit);
        }
        // e ≤ 0  ⇔  unit·(dir·x) ≤ c
        let c = -e.constant;
        let (lower, upper) = match (is_eq, unit > 0) {
            (true, _) if c % unit == 0 => (c / unit, c / unit),
            (true, _) => (i64::MAX, i64::MIN),
            (false, true) => (i64::MIN, c.div_euclid(unit)),
            (false, false) => (-c.div_euclid(-unit), i64::MAX),
        };
        Some(Bound {
            at,
            hash: hash.finish(),
            unit,
            lower,
            upper,
        })
    }
}

/// Whether the conjunction `conj` bounds one direction with an empty
/// range, given the bounds of its `fresh` atoms: the other atoms were
/// checked against each other already, so only pairs with a fresh one
/// are compared (by hash first).
fn has_bound_conflict(conj: &[Formula], fresh: &[Bound]) -> bool {
    let disjoint = |a: &Bound, b: &Bound| a.lower > b.upper || b.lower > a.upper;
    let dir = |&Bound { at, unit, .. }: &Bound| match &conj[at] {
        Formula::Atom(Atom::Le(e) | Atom::Eq(e)) => {
            e.coeffs.iter().map(move |(&x, &c)| (x, c / unit))
        }
        _ => unreachable!("a bound comes from an atom"),
    };
    !fresh.is_empty()
        && (fresh.iter().any(|b| disjoint(b, b))
            || (conj.iter().enumerate())
                .filter_map(|(at, f)| Bound::of(f, at))
                .any(|b| {
                    fresh
                        .iter()
                        .any(|n| n.hash == b.hash && disjoint(n, &b) && dir(n).eq(dir(&b)))
                }))
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
            Formula::And(fs) => write_joined(f, fs, " ∧ "),
            Formula::Or(fs) => write_joined(f, fs, " ∨ "),
            Formula::Exists(x, g) => write!(f, "∃{x}. {g}"),
            Formula::Forall(x, g) => write!(f, "∀{x}. {g}"),
        }
    }
}

/// `(g₀ sep g₁ sep …)`.
fn write_joined(f: &mut fmt::Formatter<'_>, fs: &[Formula], sep: &str) -> fmt::Result {
    write!(f, "(")?;
    for (i, g) in fs.iter().enumerate() {
        write!(f, "{}{g}", if i > 0 { sep } else { "" })?;
    }
    write!(f, ")")
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

    /// `Formula::and` and `Formula::subst` as built before each
    /// conjunction was checked once: every call flattens its inputs and
    /// compares all their atoms. The reference the checked construction
    /// must match byte for byte.
    mod reference {
        use super::*;
        use crate::linear::Coeffs;

        pub(super) fn and(fs: Vec<Formula>) -> Formula {
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

        fn conj_has_bound_conflict(fs: &[Formula]) -> bool {
            fn bounded(f: &Formula) -> Option<(&LinExpr, bool)> {
                match f {
                    Formula::Atom(Atom::Le(e)) if !e.coeffs.is_empty() => Some((e, false)),
                    Formula::Atom(Atom::Eq(e)) if !e.coeffs.is_empty() => Some((e, true)),
                    _ => None,
                }
            }
            let compare = fs.iter().filter_map(bounded).nth(1).is_some();
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
                let (lower, upper) = if is_eq {
                    let v = -sign * e.constant / g;
                    (v, v)
                } else if sign > 0 {
                    (i64::MIN, (-e.constant).div_euclid(g))
                } else {
                    (-(-e.constant).div_euclid(g), i64::MAX)
                };
                bounds.push((dir, lower, upper));
            }
            bounds.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            bounds.chunk_by(|a, b| a.0 == b.0).any(|same| {
                let lower = same.iter().map(|b| b.1).max();
                let upper = same.iter().map(|b| b.2).min();
                lower > upper
            })
        }

        pub(super) fn subst(f: &Formula, x: Sym, e: &LinExpr) -> Formula {
            match f {
                Formula::And(fs) => and(fs.iter().map(|g| subst(g, x, e)).collect()),
                Formula::Or(fs) => Formula::or(fs.iter().map(|g| subst(g, x, e)).collect()),
                Formula::Not(g) => subst(g, x, e).negate(),
                g => g.subst(x, e),
            }
        }
    }

    /// SplitMix64: a small deterministic generator.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }

        fn int(&mut self, lo: i64, hi: i64) -> i64 {
            lo + self.below((hi - lo + 1) as u64) as i64
        }
    }

    /// Random conjunction parts over a few directions, so that bounds on
    /// one direction (at different scales and signs) meet often.
    struct Gen {
        vars: [Sym; 3],
        dirs: Vec<LinExpr>,
    }

    impl Gen {
        fn new() -> Gen {
            let vars = [Sym::new("x"), Sym::new("y"), Sym::new("z")];
            let [x, y, z] = vars.map(LinExpr::var);
            let dirs = vec![
                x.clone(),
                y.clone(),
                x.add(&y.scale(2)),
                y.sub(&z),
                x.scale(3).add(&z).sub(&y.scale(2)),
            ];
            Gen { vars, dirs }
        }

        /// A direction, scaled by ±1..3, plus a small constant.
        fn lin(&self, rng: &mut Rng) -> LinExpr {
            let d = &self.dirs[rng.below(self.dirs.len() as u64) as usize];
            let k = [1, -1, 2, -2, 3, -3][rng.below(6) as usize];
            d.scale(k).offset(rng.int(-10, 10))
        }

        /// An atom: normalized through the constructors, or raw (not
        /// divided by its gcd, as a rebuild may leave it).
        fn atom(&self, rng: &mut Rng) -> Formula {
            let e = self.lin(rng);
            match rng.below(24) {
                0..=9 => Formula::le(e, LinExpr::constant(0)),
                10..=12 => Formula::Atom(Atom::Le(e)),
                13..=16 => Formula::eq(e, LinExpr::constant(0)),
                // often an equation whose gcd does not divide its constant
                17 => Formula::Atom(Atom::Eq(e)),
                18..=20 => Formula::dvd(rng.int(2, 4), e),
                _ => Formula::dvd(rng.int(2, 4), e).negate(),
            }
        }

        /// A conjunction input: mostly atoms, sometimes a checked
        /// conjunction, a disjunction or a constant.
        fn part(&self, rng: &mut Rng) -> Formula {
            match rng.below(12) {
                0 => {
                    let n = rng.below(12) as usize;
                    reference::and((0..n).map(|_| self.atom(rng)).collect())
                }
                1 => Formula::or(vec![self.atom(rng), self.atom(rng)]),
                2 if rng.below(8) == 0 => Formula::True,
                3 if rng.below(16) == 0 => Formula::False,
                _ => self.atom(rng),
            }
        }

        /// A checked conjunction of up to 40 inputs: each input that
        /// would make it false is left out.
        fn conj(&self, rng: &mut Rng) -> Formula {
            let n = rng.below(41) as usize;
            (0..n).fold(Formula::True, |conj, _| {
                match reference::and(vec![conj.clone(), self.part(rng)]) {
                    Formula::False => conj,
                    f => f,
                }
            })
        }

        /// 0–40 inputs, with repeats.
        fn parts(&self, rng: &mut Rng) -> Vec<Formula> {
            let n = rng.below(41) as usize;
            let mut fs: Vec<Formula> = Vec::with_capacity(n);
            for _ in 0..n {
                let f = match fs.last() {
                    Some(f) if rng.below(6) == 0 => f.clone(),
                    _ => self.part(rng),
                };
                fs.push(f);
            }
            fs
        }
    }

    /// `and` and `subst` equal the construction that compares every atom
    /// on every call, on seeded random conjunctions.
    #[test]
    fn checked_conjunctions_match_the_reference() {
        let gen = Gen::new();
        let (mut pruned, mut kept, mut subst_pruned, mut subst_kept) = (0, 0, 0, 0);
        for seed in 0..4_000 {
            let mut rng = Rng(seed);
            let mut fs = gen.parts(&mut rng);
            if rng.below(2) == 0 {
                let at = rng.below(fs.len() as u64 + 1) as usize;
                fs.insert(at, gen.conj(&mut rng));
            }
            let got = Formula::and(fs.clone());
            assert_eq!(got, reference::and(fs.clone()), "seed {seed}: {fs:?}");
            match got {
                Formula::False => pruned += 1,
                _ => kept += 1,
            }
            // a checked conjunction, rebuilt with one variable replaced
            let conj = gen.conj(&mut rng);
            let x = gen.vars[rng.below(3) as usize];
            let e = match rng.below(3) {
                0 => LinExpr::constant(rng.int(-6, 6)),
                _ => gen.lin(&mut rng),
            };
            let got = conj.subst(x, &e);
            assert_eq!(
                got,
                reference::subst(&conj, x, &e),
                "seed {seed}: {conj} [{x} := {e}]"
            );
            match got {
                Formula::False => subst_pruned += 1,
                _ => subst_kept += 1,
            }
        }
        // both outcomes, of both constructions, are exercised
        assert!(
            pruned > 300 && kept > 300,
            "and: {pruned} pruned, {kept} kept"
        );
        assert!(
            subst_pruned > 300 && subst_kept > 300,
            "subst: {subst_pruned} pruned, {subst_kept} kept"
        );
    }
}
