//! Regression tests for equality substitution in Cooper QE.
//!
//! The two queries below are the tiling-disjointness checks that dominate
//! the lint bench: a box over 10 (resp. 9) loop variables, two distinct
//! outer iterations, and access equalities whose coefficients (64, 16, 6)
//! make Cooper enumerate boundary points with periods 64 × 16 × 64 when
//! the equalities are expanded into inequality pairs. Substituting the
//! unit-coefficient equalities first decides each in under 2 000 QE
//! nodes; the work limit below is far under what the enumeration needs,
//! so a regression shows up as `Unknown`.

use exo_core::sym::Sym;
use exo_smt::formula::Formula;
use exo_smt::linear::LinExpr;
use exo_smt::solver::{Answer, Solver};

/// QE-node limit per query. Enumerating these queries without equality
/// substitution needs over 500 000 nodes.
const LIMIT: usize = 20_000;

fn vars(n: usize) -> Vec<Sym> {
    (0..n).map(|i| Sym::new(format!("c{i}"))).collect()
}

/// `Σ kᵢ·vᵢ` over `(k, v)` pairs.
fn sum(terms: &[(i64, Sym)]) -> LinExpr {
    terms.iter().fold(LinExpr::constant(0), |e, &(k, v)| {
        e.add(&LinExpr::scaled_var(k, v))
    })
}

/// `0 ≤ vᵢ ≤ hiᵢ` for each variable.
fn boxed(vars: &[Sym], his: &[i64]) -> Vec<Formula> {
    vars.iter()
        .zip(his)
        .flat_map(|(&v, &hi)| {
            [
                Formula::ge(LinExpr::var(v), LinExpr::constant(0)),
                Formula::le(LinExpr::var(v), LinExpr::constant(hi)),
            ]
        })
        .collect()
}

fn decide(f: &Formula) -> (Answer, usize) {
    let mut s = Solver::with_limit(LIMIT);
    let answer = s.check_sat(f);
    (answer, s.stats().nodes)
}

#[test]
fn size_25_lint_query_is_unsat_within_limit() {
    let c = vars(10);
    let his = [1, 1, 1, 5, 3, 15, 1, 5, 3, 15];
    let mut parts = boxed(&c, &his);
    parts.push(Formula::eq(LinExpr::var(c[0]), LinExpr::var(c[1])).negate());
    parts.push(Formula::eq(
        sum(&[(6, c[0]), (-6, c[1]), (1, c[3]), (-1, c[7])]),
        LinExpr::constant(0),
    ));
    parts.push(Formula::eq(
        sum(&[
            (64, c[2]),
            (16, c[4]),
            (1, c[5]),
            (-64, c[6]),
            (-16, c[8]),
            (-1, c[9]),
        ]),
        LinExpr::constant(0),
    ));
    let f = Formula::and(parts);
    assert_eq!(f.size(), 25);
    let (answer, nodes) = decide(&f);
    assert_eq!(answer, Answer::No, "{nodes} QE nodes");
}

#[test]
fn size_23_lint_query_is_unsat_within_limit() {
    let c = vars(9);
    let his = [1, 1, 1, 5, 3, 15, 5, 3, 15];
    let mut parts = boxed(&c, &his);
    parts.push(Formula::eq(LinExpr::var(c[1]), LinExpr::var(c[2])).negate());
    parts.push(Formula::eq(LinExpr::var(c[3]), LinExpr::var(c[6])));
    parts.push(Formula::eq(
        sum(&[
            (64, c[1]),
            (-64, c[2]),
            (16, c[4]),
            (1, c[5]),
            (-16, c[7]),
            (-1, c[8]),
        ]),
        LinExpr::constant(0),
    ));
    let f = Formula::and(parts);
    assert_eq!(f.size(), 23);
    let (answer, nodes) = decide(&f);
    assert_eq!(answer, Answer::No, "{nodes} QE nodes");
}

/// `∃y.∃x. 3x = y ∧ 1 ≤ y ≤ hi`. With x bound innermost, QE eliminates
/// it first: λ = 3 rescales the equality to unit coefficient, and the
/// substitution carries the `3 | x` conjunct over to `3 | y`.
fn multiple_of_three_in(hi: i64) -> Answer {
    let x = Sym::new("x");
    let y = Sym::new("y");
    let f = Formula::and(vec![
        Formula::eq(LinExpr::scaled_var(3, x), LinExpr::var(y)),
        Formula::ge(LinExpr::var(y), LinExpr::constant(1)),
        Formula::le(LinExpr::var(y), LinExpr::constant(hi)),
    ]);
    Solver::new().check_sat(&f.exists(x).exists(y))
}

#[test]
fn scaled_equality_keeps_divisibility() {
    assert_eq!(multiple_of_three_in(2), Answer::No);
    assert_eq!(multiple_of_three_in(3), Answer::Yes);
}
