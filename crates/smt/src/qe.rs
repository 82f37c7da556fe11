//! Cooper's quantifier-elimination procedure for Presburger arithmetic.
//!
//! The effect analyses reduce every safety condition to a sentence of
//! linear integer arithmetic (quasi-affinity guarantees this, paper
//! §4.2). This module decides those sentences by eliminating quantifiers
//! innermost-out; [`crate::solver::Solver`] wraps it with a work limit
//! and query statistics.
//!
//! Equalities are used before enumeration: `nnf` keeps positive `e = 0`
//! atoms, and [`eliminate_exists`] substitutes a top-level equality that
//! fixes the eliminated variable instead of enumerating its boundary
//! points.

use exo_core::sym::Sym;

use crate::formula::{Atom, Formula};
use crate::linear::{lcm, LinExpr};

/// Error raised when a formula exceeds the solver's work limit.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TooHard {
    /// Size of the offending intermediate formula.
    pub size: usize,
}

impl std::fmt::Display for TooHard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "formula exceeded solver work limit (size {})", self.size)
    }
}

impl std::error::Error for TooHard {}

/// Normalizes to negation normal form where `Not` survives only directly
/// above `Dvd` atoms. Positive `Eq` atoms are kept (so [`eliminate_exists`]
/// can substitute them); negated `Eq` atoms are expanded into a
/// disjunction of two inequalities.
fn nnf(f: &Formula, neg: bool) -> Formula {
    match f {
        Formula::True | Formula::False if neg => f.clone().negate(),
        Formula::True | Formula::False => f.clone(),
        Formula::Not(g) => nnf(g, !neg),
        // positive atoms come through unchanged
        Formula::And(fs) if !neg => Formula::and_checked(
            fs.iter()
                .map(|g| (nnf(g, false), matches!(g, Formula::Atom(_)))),
        ),
        Formula::And(fs) => Formula::or(fs.iter().map(|g| nnf(g, true)).collect()),
        Formula::Or(fs) if neg => Formula::and(fs.iter().map(|g| nnf(g, true)).collect()),
        Formula::Or(fs) => Formula::or(fs.iter().map(|g| nnf(g, false)).collect()),
        Formula::Exists(x, g) if neg => nnf(g, true).forall(*x),
        Formula::Exists(x, g) => nnf(g, false).exists(*x),
        Formula::Forall(x, g) if neg => nnf(g, true).exists(*x),
        Formula::Forall(x, g) => nnf(g, false).forall(*x),
        Formula::Atom(a) => match (a, neg) {
            (Atom::Le(e), false) => Formula::Atom(Atom::Le(e.clone())),
            // ¬(e ≤ 0) ⇔ e ≥ 1 ⇔ 1 - e ≤ 0
            (Atom::Le(e), true) => Formula::le(e.scale(-1).offset(1), LinExpr::constant(0)),
            (Atom::Eq(e), false) => Formula::Atom(Atom::Eq(e.clone())),
            // ¬(e = 0) ⇔ e ≤ -1 ∨ e ≥ 1
            (Atom::Eq(e), true) => Formula::or(vec![
                Formula::le(e.offset(1), LinExpr::constant(0)),
                Formula::le(e.scale(-1).offset(1), LinExpr::constant(0)),
            ]),
            (Atom::Dvd(m, e), false) => Formula::dvd(*m, e.clone()),
            (Atom::Dvd(m, e), true) => Formula::dvd(*m, e.clone()).negate(),
        },
    }
}

/// Statistics and limits for a QE run.
#[derive(Debug)]
pub struct QeBudget {
    /// Maximum intermediate formula size before giving up.
    pub max_size: usize,
    /// Nodes produced so far (monotone).
    pub produced: usize,
}

impl Default for QeBudget {
    fn default() -> QeBudget {
        QeBudget {
            max_size: 2_000_000,
            produced: 0,
        }
    }
}

impl QeBudget {
    fn charge(&mut self, n: usize) -> Result<(), TooHard> {
        self.produced += n;
        if self.produced > self.max_size {
            Err(TooHard {
                size: self.produced,
            })
        } else {
            Ok(())
        }
    }
}

/// Eliminates all quantifiers from `f`, returning an equivalent
/// quantifier-free formula over the free variables.
///
/// # Errors
///
/// Returns [`TooHard`] if intermediate formulas exceed the budget.
pub fn eliminate_all(f: &Formula, budget: &mut QeBudget) -> Result<Formula, TooHard> {
    let f = nnf(f, false);
    qe(&f, budget)
}

fn qe(f: &Formula, budget: &mut QeBudget) -> Result<Formula, TooHard> {
    budget.charge(1)?;
    Ok(match f {
        Formula::True | Formula::False | Formula::Atom(_) | Formula::Not(_) => f.clone(),
        Formula::And(fs) => {
            let mut parts = Vec::with_capacity(fs.len());
            for g in fs {
                let q = qe(g, budget)?;
                if q == Formula::False {
                    return Ok(Formula::False);
                }
                // atoms come through unchanged
                parts.push((q, matches!(g, Formula::Atom(_))));
            }
            Formula::and_checked(parts)
        }
        Formula::Or(fs) => {
            let mut parts = Vec::with_capacity(fs.len());
            for g in fs {
                let g = qe(g, budget)?;
                if g == Formula::True {
                    return Ok(Formula::True);
                }
                parts.push(g);
            }
            Formula::or(parts)
        }
        Formula::Exists(x, g) => {
            let body = qe(g, budget)?;
            eliminate_exists(*x, &body, budget)?
        }
        Formula::Forall(x, g) => {
            // ∀x.g ⇔ ¬∃x.¬g
            let body = qe(g, budget)?;
            let neg = nnf(&body.negate(), false);
            let ex = eliminate_exists(*x, &neg, budget)?;
            nnf(&ex.negate(), false)
        }
    })
}

/// Eliminates `∃x` from a quantifier-free NNF formula.
pub fn eliminate_exists(x: Sym, f: &Formula, budget: &mut QeBudget) -> Result<Formula, TooHard> {
    // Fast path: x does not occur.
    if !f.mentions(x) {
        return Ok(f.clone());
    }

    // ∃ distributes over ∨: eliminating per-disjunct keeps the lower-bound
    // sets local and lets simplification collapse each piece early.
    if let Formula::Or(fs) = f {
        let mut parts = Vec::with_capacity(fs.len());
        for g in fs {
            let g = eliminate_exists(x, g, budget)?;
            if g == Formula::True {
                return Ok(Formula::True);
            }
            parts.push(g);
        }
        return Ok(Formula::or(parts));
    }

    // Step 1: compute λ = lcm of |coefficients of x| and rescale every
    // atom so x occurs with coefficient ±1 (in a rescaled variable), with
    // the extra constraint λ | x'.
    let mut lam: i64 = 1;
    collect_coeffs(f, x, &mut lam);
    let scaled = rescale(f, x, lam);
    let with_div = if lam > 1 {
        Formula::and(vec![scaled, Formula::dvd(lam, LinExpr::var(x))])
    } else {
        scaled
    };

    // A top-level conjunct c·x + r = 0 (c = ±1 after rescaling) fixes
    // x = −c·r, so ∃x.φ ⇔ φ[x ↦ −c·r] exactly — the λ | x conjunct
    // included. No boundary points are needed.
    let unit_eq = with_div.conjuncts().iter().find_map(|g| match g {
        Formula::Atom(Atom::Eq(e)) if e.coeff(x).abs() == 1 => Some(e),
        _ => None,
    });
    if let Some(e) = unit_eq {
        let c = e.coeff(x);
        let mut r = e.clone();
        r.coeffs.remove(&x);
        let g = with_div.subst(x, &r.scale(-c));
        budget.charge(g.size())?;
        return Ok(g);
    }

    // Step 2: δ = lcm of divisibility moduli on x; boundary terms. We use
    // whichever of the lower-bound (−∞) or upper-bound (+∞) versions has
    // fewer boundary points.
    let mut delta: i64 = 1;
    let mut lowers: Vec<LinExpr> = Vec::new();
    let mut uppers: Vec<LinExpr> = Vec::new();
    collect_bounds(&with_div, x, &mut delta, &mut lowers, &mut uppers);
    lowers.sort();
    lowers.dedup();
    uppers.sort();
    uppers.dedup();
    let from_below = lowers.len() <= uppers.len();
    let boundary = if from_below { &lowers } else { &uppers };

    // Step 3 (lower version): ⋁_{j=1..δ} ( φ₋∞[x→j] ∨ ⋁_{a∈A} φ[x→a+j] );
    // the upper version is the mirror image with φ₊∞ and x→b−j.
    // Disjuncts are built lazily and charged at their actual size so that
    // pieces that simplify away (bound conflicts, ground atoms) are cheap.
    let inf = project_inf(&with_div, x, from_below);
    let mut disjuncts = Vec::new();
    for j in 1..=delta {
        let jval = if from_below { j } else { -j };
        let g = inf.subst(x, &LinExpr::constant(jval));
        if g == Formula::True {
            return Ok(Formula::True);
        }
        budget.charge(g.size())?;
        disjuncts.push(g);
        for b in boundary {
            let point = if from_below {
                b.offset(j)
            } else {
                b.offset(-j)
            };
            let g = with_div.subst(x, &point);
            if g == Formula::True {
                return Ok(Formula::True);
            }
            budget.charge(g.size())?;
            disjuncts.push(g);
        }
    }
    Ok(Formula::or(disjuncts))
}

fn collect_coeffs(f: &Formula, x: Sym, lam: &mut i64) {
    match f {
        Formula::Atom(a) => {
            let e = match a {
                Atom::Le(e) | Atom::Eq(e) | Atom::Dvd(_, e) => e,
            };
            let c = e.coeff(x);
            if c != 0 {
                *lam = lcm(*lam, c.abs());
            }
        }
        // in NNF, Not wraps only Dvd atoms
        Formula::Not(inner) => collect_coeffs(inner, x, lam),
        Formula::And(fs) | Formula::Or(fs) => fs.iter().for_each(|g| collect_coeffs(g, x, lam)),
        _ => {}
    }
}

/// Rescales atoms so x's coefficient becomes ±1; implicitly substitutes
/// x := x'/λ where λ | x'. (We reuse the same symbol for x'.)
fn rescale(f: &Formula, x: Sym, lam: i64) -> Formula {
    match f {
        Formula::Atom(a) => rescale_atom(a, x, lam, false),
        Formula::Not(inner) => match inner.as_ref() {
            Formula::Atom(a) => rescale_atom(a, x, lam, true),
            _ => f.clone(),
        },
        Formula::And(fs) => Formula::and_checked(
            fs.iter()
                .map(|g| (rescale(g, x, lam), g.is_atom_free_of(x))),
        ),
        Formula::Or(fs) => Formula::or(fs.iter().map(|g| rescale(g, x, lam)).collect()),
        other => other.clone(),
    }
}

fn rescale_atom(a: &Atom, x: Sym, lam: i64, negated: bool) -> Formula {
    let wrap = |f: Formula| if negated { f.negate() } else { f };
    let e = match a {
        Atom::Le(e) | Atom::Eq(e) | Atom::Dvd(_, e) => e,
    };
    let c = e.coeff(x);
    if c == 0 {
        return wrap(Formula::Atom(a.clone()));
    }
    let k = lam / c.abs();
    debug_assert!(k > 0);
    match a {
        // multiply through by k (positive): k·e ≤ 0; then coefficient
        // of x is ±λ; rename λ·x → x (unit coefficient).
        Atom::Le(e) => wrap(Formula::Atom(Atom::Le(unitize(e.scale(k), x)))),
        Atom::Eq(e) => wrap(Formula::Atom(Atom::Eq(unitize(e.scale(k), x)))),
        Atom::Dvd(m, e) => {
            let mut scaled = e.scale(k);
            let mut modulus = m * k;
            // flip sign so the x coefficient is +1 (Dvd is sign-invariant)
            if scaled.coeff(x) < 0 {
                scaled = scaled.scale(-1);
            }
            if modulus < 0 {
                modulus = -modulus;
            }
            wrap(Formula::Atom(Atom::Dvd(modulus, unitize(scaled, x))))
        }
    }
}

/// Replaces the ±λ coefficient on x with ±1 (the x' renaming).
fn unitize(mut e: LinExpr, x: Sym) -> LinExpr {
    if let Some(c) = e.coeffs.get_mut(&x) {
        *c = if *c > 0 { 1 } else { -1 };
    }
    e
}

fn collect_bounds(
    f: &Formula,
    x: Sym,
    delta: &mut i64,
    lowers: &mut Vec<LinExpr>,
    uppers: &mut Vec<LinExpr>,
) {
    match f {
        Formula::Atom(Atom::Le(e)) => {
            match e.coeff(x) {
                // -x + r ≤ 0  ⇔  x ≥ r  ⇔  (r - 1) < x : lower term r-1
                -1 => {
                    let mut r = e.clone();
                    r.coeffs.remove(&x);
                    lowers.push(r.offset(-1));
                }
                // x + r ≤ 0  ⇔  x ≤ -r  ⇔  x < -r + 1 : upper term -r+1
                1 => {
                    let mut r = e.clone();
                    r.coeffs.remove(&x);
                    uppers.push(r.scale(-1).offset(1));
                }
                0 => {}
                c => unreachable!("unrescaled coefficient {c}"),
            }
        }
        // an equality not substituted away (e.g. one nested under a
        // disjunction) pins x to one point, reachable from either side.
        Formula::Atom(Atom::Eq(e)) if e.coeff(x) != 0 => {
            let mut r = e.clone();
            let c = r.coeffs.remove(&x).unwrap_or(0);
            let r = if c > 0 { r.scale(-1) } else { r };
            lowers.push(r.offset(-1));
            uppers.push(r.offset(1));
        }
        Formula::Atom(Atom::Dvd(m, e)) if e.coeff(x) != 0 => {
            *delta = lcm(*delta, *m);
        }
        // in NNF, Not wraps only Dvd atoms
        Formula::Not(inner) => collect_bounds(inner, x, delta, lowers, uppers),
        Formula::And(fs) | Formula::Or(fs) => {
            fs.iter()
                .for_each(|g| collect_bounds(g, x, delta, lowers, uppers));
        }
        _ => {}
    }
}

/// φ∓∞: the limit of φ as x → −∞ (`minus` = true) or +∞ (`minus` =
/// false). Bound atoms collapse to constants; divisibility atoms persist.
fn project_inf(f: &Formula, x: Sym, minus: bool) -> Formula {
    match f {
        Formula::Atom(Atom::Le(e)) => match e.coeff(x) {
            0 => f.clone(),
            // x ≤ -r is true at -∞ and false at +∞; x ≥ r the reverse
            1 if minus => Formula::True,
            -1 if !minus => Formula::True,
            1 | -1 => Formula::False,
            c => unreachable!("unrescaled coefficient {c}"),
        },
        Formula::Atom(Atom::Eq(e)) if e.coeff(x) == 0 => f.clone(),
        Formula::Atom(Atom::Eq(_)) => Formula::False,
        Formula::Atom(Atom::Dvd(..)) | Formula::Not(_) => f.clone(),
        Formula::And(fs) => Formula::and_checked(
            fs.iter()
                .map(|g| (project_inf(g, x, minus), g.is_atom_free_of(x))),
        ),
        Formula::Or(fs) => Formula::or(fs.iter().map(|g| project_inf(g, x, minus)).collect()),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decide(f: &Formula) -> bool {
        let mut budget = QeBudget::default();
        let mut fv = std::collections::BTreeSet::new();
        f.free_vars(&mut fv);
        let mut g = f.clone();
        for v in fv {
            g = g.exists(v);
        }
        match eliminate_all(&g, &mut budget).expect("budget") {
            Formula::True => true,
            Formula::False => false,
            other => panic!("not ground after QE: {other}"),
        }
    }

    #[test]
    fn simple_feasibility() {
        let x = Sym::new("x");
        // ∃x. 0 ≤ x ∧ x ≤ 5
        let f = Formula::and(vec![
            Formula::ge(LinExpr::var(x), LinExpr::constant(0)),
            Formula::le(LinExpr::var(x), LinExpr::constant(5)),
        ]);
        assert!(decide(&f));
        // ∃x. x ≤ 0 ∧ x ≥ 5
        let g = Formula::and(vec![
            Formula::le(LinExpr::var(x), LinExpr::constant(0)),
            Formula::ge(LinExpr::var(x), LinExpr::constant(5)),
        ]);
        assert!(!decide(&g));
    }

    #[test]
    fn divisibility_reasoning() {
        let x = Sym::new("x");
        // ∃x. 2|x ∧ 3|x ∧ 1 ≤ x ≤ 5  — false (only 6, 12, …)
        let f = Formula::and(vec![
            Formula::dvd(2, LinExpr::var(x)),
            Formula::dvd(3, LinExpr::var(x)),
            Formula::ge(LinExpr::var(x), LinExpr::constant(1)),
            Formula::le(LinExpr::var(x), LinExpr::constant(5)),
        ]);
        assert!(!decide(&f));
        // widen to ≤ 6 — true
        let g = Formula::and(vec![
            Formula::dvd(2, LinExpr::var(x)),
            Formula::dvd(3, LinExpr::var(x)),
            Formula::ge(LinExpr::var(x), LinExpr::constant(1)),
            Formula::le(LinExpr::var(x), LinExpr::constant(6)),
        ]);
        assert!(decide(&g));
    }

    #[test]
    fn scaled_coefficients() {
        let x = Sym::new("x");
        let y = Sym::new("y");
        // ∃x,y. 3x + 5y = 1  — Bezout: solvable
        let f = Formula::eq(
            LinExpr::scaled_var(3, x).add(&LinExpr::scaled_var(5, y)),
            LinExpr::constant(1),
        );
        assert!(decide(&f));
        // ∃x,y. 2x + 4y = 1 — parity: unsolvable
        let g = Formula::eq(
            LinExpr::scaled_var(2, x).add(&LinExpr::scaled_var(4, y)),
            LinExpr::constant(1),
        );
        assert!(!decide(&g));
    }

    #[test]
    fn forall_via_negation() {
        let x = Sym::new("x");
        let mut budget = QeBudget::default();
        // ∀x. x ≥ 0 ∨ x < 0
        let f = Formula::or(vec![
            Formula::ge(LinExpr::var(x), LinExpr::constant(0)),
            Formula::lt(LinExpr::var(x), LinExpr::constant(0)),
        ])
        .forall(x);
        assert_eq!(eliminate_all(&f, &mut budget).unwrap(), Formula::True);
        // ∀x. x ≥ 0 — false
        let g = Formula::ge(LinExpr::var(x), LinExpr::constant(0)).forall(x);
        assert_eq!(eliminate_all(&g, &mut budget).unwrap(), Formula::False);
    }

    #[test]
    fn alternating_quantifiers() {
        let x = Sym::new("x");
        let y = Sym::new("y");
        // ∀x ∃y. y > x — true
        let f = Formula::gt(LinExpr::var(y), LinExpr::var(x))
            .exists(y)
            .forall(x);
        let mut budget = QeBudget::default();
        assert_eq!(eliminate_all(&f, &mut budget).unwrap(), Formula::True);
        // ∃y ∀x. y > x — false
        let g = Formula::gt(LinExpr::var(y), LinExpr::var(x))
            .forall(x)
            .exists(y);
        assert_eq!(eliminate_all(&g, &mut budget).unwrap(), Formula::False);
    }

    #[test]
    fn tiling_disjointness() {
        // the shape of a real scheduling query: two tiles of a split loop
        // never alias: ∀io,ii,io',ii'. (io,ii)≠(io',ii') ∧ bounds ⇒
        //   16·io + ii ≠ 16·io' + ii'
        let io = Sym::new("io");
        let ii = Sym::new("ii");
        let jo = Sym::new("jo");
        let ji = Sym::new("ji");
        let bounds = Formula::and(vec![
            Formula::ge(LinExpr::var(ii), LinExpr::constant(0)),
            Formula::lt(LinExpr::var(ii), LinExpr::constant(16)),
            Formula::ge(LinExpr::var(ji), LinExpr::constant(0)),
            Formula::lt(LinExpr::var(ji), LinExpr::constant(16)),
        ]);
        let distinct = Formula::eq(LinExpr::var(io), LinExpr::var(jo)).negate();
        let alias = Formula::eq(
            LinExpr::scaled_var(16, io).add(&LinExpr::var(ii)),
            LinExpr::scaled_var(16, jo).add(&LinExpr::var(ji)),
        );
        let goal = Formula::and(vec![bounds, distinct])
            .implies(alias.negate())
            .forall(ji)
            .forall(jo)
            .forall(ii)
            .forall(io);
        let mut budget = QeBudget::default();
        assert_eq!(eliminate_all(&goal, &mut budget).unwrap(), Formula::True);
    }
}
