//! Differential testing of the Cooper-QE solver against brute-force
//! enumeration on a bounded domain.
//!
//! We generate random quantifier-free formulas over ≤4 variables with
//! small coefficients, bound each variable to a box `[-B, B]` inside the
//! formula itself, and compare `check_sat` with exhaustive search. With
//! the box conjoined, bounded enumeration is exact, so any disagreement
//! is a solver bug. The same holds for `∀x∃y` sentences whose quantifiers
//! are relativized to the box.

#![cfg(feature = "proptest-tests")]

use exo_core::sym::Sym;
use exo_smt::canon::canonicalize;
use exo_smt::formula::{Atom, Formula};
use exo_smt::linear::LinExpr;
use exo_smt::solver::{Answer, Solver};
use proptest::prelude::*;

const BOUND: i64 = 6;

#[derive(Clone, Debug)]
enum FExpr {
    Le(Vec<i64>, i64),
    Eq(Vec<i64>, i64),
    Dvd(i64, Vec<i64>, i64),
    Not(Box<FExpr>),
    And(Vec<FExpr>),
    Or(Vec<FExpr>),
}

fn lin(coeffs: &[i64], c: i64, vars: &[Sym]) -> LinExpr {
    let mut e = LinExpr::constant(c);
    for (i, &k) in coeffs.iter().enumerate() {
        e = e.add(&LinExpr::scaled_var(k, vars[i]));
    }
    e
}

fn to_formula(f: &FExpr, vars: &[Sym]) -> Formula {
    match f {
        FExpr::Le(cs, c) => Formula::Atom(Atom::Le(lin(cs, *c, vars))),
        FExpr::Eq(cs, c) => Formula::Atom(Atom::Eq(lin(cs, *c, vars))),
        FExpr::Dvd(m, cs, c) => Formula::Atom(Atom::Dvd(*m, lin(cs, *c, vars))),
        FExpr::Not(g) => to_formula(g, vars).negate(),
        FExpr::And(gs) => Formula::and(gs.iter().map(|g| to_formula(g, vars)).collect()),
        FExpr::Or(gs) => Formula::or(gs.iter().map(|g| to_formula(g, vars)).collect()),
    }
}

fn eval(f: &FExpr, asg: &[i64]) -> bool {
    let dot =
        |cs: &[i64], c: i64| -> i64 { cs.iter().zip(asg).map(|(k, v)| k * v).sum::<i64>() + c };
    match f {
        FExpr::Le(cs, c) => dot(cs, *c) <= 0,
        FExpr::Eq(cs, c) => dot(cs, *c) == 0,
        FExpr::Dvd(m, cs, c) => dot(cs, *c).rem_euclid(*m) == 0,
        FExpr::Not(g) => !eval(g, asg),
        FExpr::And(gs) => gs.iter().all(|g| eval(g, asg)),
        FExpr::Or(gs) => gs.iter().any(|g| eval(g, asg)),
    }
}

fn brute_force_sat(f: &FExpr, nvars: usize) -> bool {
    fn go(f: &FExpr, nvars: usize, asg: &mut Vec<i64>) -> bool {
        if asg.len() == nvars {
            return eval(f, asg);
        }
        for v in -BOUND..=BOUND {
            asg.push(v);
            if go(f, nvars, asg) {
                asg.pop();
                return true;
            }
            asg.pop();
        }
        false
    }
    go(f, nvars, &mut Vec::new())
}

fn arb_coeffs(nvars: usize) -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::vec(-3i64..=3, nvars)
}

fn arb_atom(nvars: usize) -> impl Strategy<Value = FExpr> {
    prop_oneof![
        3 => (arb_coeffs(nvars), -10i64..=10).prop_map(|(cs, c)| FExpr::Le(cs, c)),
        2 => (arb_coeffs(nvars), -10i64..=10).prop_map(|(cs, c)| FExpr::Eq(cs, c)),
        // divisibility atoms multiply Cooper's period; keep their moduli
        // small so worst cases stay within the work budget (the real
        // analyses emit at most one or two strided moduli per variable)
        1 => (2i64..=3, arb_coeffs(nvars), -10i64..=10)
            .prop_map(|(m, cs, c)| FExpr::Dvd(m, cs, c)),
    ]
}

fn arb_fexpr(nvars: usize) -> impl Strategy<Value = FExpr> {
    arb_atom(nvars).prop_recursive(2, 12, 3, move |inner| {
        prop_oneof![
            inner.clone().prop_map(|g| FExpr::Not(Box::new(g))),
            proptest::collection::vec(inner.clone(), 1..3).prop_map(FExpr::And),
            proptest::collection::vec(inner, 1..3).prop_map(FExpr::Or),
        ]
    })
}

/// A conjunction shaped like a tiling-disjointness query (the box is added
/// by [`boxed`]): one access equality with coefficients from {±1, ±4, ±16}
/// (the strides of split loops) and one disequality.
fn arb_tiling_conj(nvars: usize) -> impl Strategy<Value = FExpr> {
    const STRIDES: [i64; 6] = [1, -1, 4, -4, 16, -16];
    let strided = proptest::collection::vec(0usize..STRIDES.len(), nvars)
        .prop_map(|ix| ix.into_iter().map(|i| STRIDES[i]).collect::<Vec<_>>());
    (strided, -20i64..=20, arb_coeffs(nvars), -3i64..=3).prop_map(|(eq, k, ne, c)| {
        FExpr::And(vec![
            FExpr::Eq(eq, k),
            FExpr::Not(Box::new(FExpr::Eq(ne, c))),
        ])
    })
}

fn in_box(v: Sym) -> Formula {
    Formula::and(vec![
        Formula::ge(LinExpr::var(v), LinExpr::constant(-BOUND)),
        Formula::le(LinExpr::var(v), LinExpr::constant(BOUND)),
    ])
}

fn boxed(f: Formula, vars: &[Sym]) -> Formula {
    let mut parts = vec![f];
    parts.extend(vars.iter().map(|&v| in_box(v)));
    Formula::and(parts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn qe_matches_brute_force_2vars(f in arb_fexpr(2)) {
        let vars = [Sym::new("p0"), Sym::new("p1")];
        let formula = boxed(to_formula(&f, &vars), &vars);
        let boxed_fexpr = f; // box is applied on the enumeration side too
        let expected = brute_force_sat(&boxed_fexpr, 2);
        let mut solver = Solver::new();
        let got = solver.check_sat(&formula);
        prop_assert_ne!(got, Answer::Unknown, "work limit hit on small formula");
        prop_assert_eq!(got == Answer::Yes, expected, "formula: {}", formula);
    }

    #[test]
    fn qe_matches_brute_force_3vars(f in arb_fexpr(3)) {
        let vars = [Sym::new("q0"), Sym::new("q1"), Sym::new("q2")];
        let formula = boxed(to_formula(&f, &vars), &vars);
        let expected = brute_force_sat(&f, 3);
        let mut solver = Solver::new();
        let got = solver.check_sat(&formula);
        prop_assert_ne!(got, Answer::Unknown, "work limit hit on small formula");
        prop_assert_eq!(got == Answer::Yes, expected, "formula: {}", formula);
    }

    #[test]
    fn qe_matches_brute_force_tiling_4vars(f in arb_tiling_conj(4)) {
        let vars = [Sym::new("w0"), Sym::new("w1"), Sym::new("w2"), Sym::new("w3")];
        let formula = boxed(to_formula(&f, &vars), &vars);
        let expected = brute_force_sat(&f, 4);
        let mut solver = Solver::new();
        let got = solver.check_sat(&formula);
        // Substituting a stride-16 equality into the disequality can leave
        // coprime coefficients (e.g. 15, 16, 17) whose lcm makes Cooper's
        // period exceed the work limit; `Unknown` is the sound fail-safe
        // there. Every decided verdict must match enumeration.
        if got != Answer::Unknown {
            prop_assert_eq!(got == Answer::Yes, expected, "formula: {}", formula);
        }
    }

    #[test]
    fn forall_exists_matches_brute_force(f in arb_fexpr(2)) {
        // ∀x ∈ box. ∃y ∈ box. f(x, y)
        let (x, y) = (Sym::new("v0"), Sym::new("v1"));
        let inner = Formula::and(vec![in_box(y), to_formula(&f, &[x, y])]).exists(y);
        let sentence = in_box(x).implies(inner).forall(x);
        let expected = (-BOUND..=BOUND).all(|a| (-BOUND..=BOUND).any(|b| eval(&f, &[a, b])));
        let mut solver = Solver::new();
        let got = solver.check_sat(&sentence);
        prop_assert_ne!(got, Answer::Unknown, "work limit hit on small formula");
        prop_assert_eq!(got == Answer::Yes, expected, "sentence: {}", sentence);
    }

    #[test]
    fn validity_of_disjunction_with_negation(f in arb_fexpr(2)) {
        // f ∨ ¬f is always valid. The solver may return Unknown on
        // adversarial divisibility mixes (the documented fail-safe), but
        // must never *refute* a tautology.
        let vars = [Sym::new("r0"), Sym::new("r1")];
        let g = to_formula(&f, &vars);
        let tauto = Formula::or(vec![g.clone(), g.negate()]);
        let mut solver = Solver::new();
        prop_assert_ne!(solver.check_valid(&tauto), Answer::No);
    }

    #[test]
    fn forall_exists_weakening(f in arb_fexpr(1)) {
        // (∀x. f) ⇒ (∃x. f) over a non-empty domain
        let vars = [Sym::new("s0")];
        let g = boxed(to_formula(&f, &vars), &vars);
        let all = g.clone().forall(vars[0]);
        let some = g.exists(vars[0]);
        let mut solver = Solver::new();
        prop_assert_eq!(solver.check_valid(&all.implies(some)), Answer::Yes);
    }

    #[test]
    fn canonicalization_is_sound_and_merges_alpha_variants(f in arb_fexpr(2)) {
        // Renaming all variables to fresh syms must not change the
        // verdict, and both spellings must share one canonical form.
        let vars = [Sym::new("t0"), Sym::new("t1")];
        let renamed = [Sym::new("u0"), Sym::new("u1")];
        let g = boxed(to_formula(&f, &vars), &vars);
        let h = boxed(to_formula(&f, &renamed), &renamed);
        prop_assert_eq!(canonicalize(&g), canonicalize(&h));
        let mut solver = Solver::new();
        let direct = solver.check_sat(&g);
        let canon = solver.check_sat(&canonicalize(&g));
        prop_assert_eq!(direct, canon);
    }
}
