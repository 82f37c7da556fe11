//! Canonical (alpha-normalized) formulas.
//!
//! Scheduling rewrites mint fresh [`Sym`]s constantly: re-deriving the
//! same safety condition after a rewrite yields a formula that is
//! semantically identical but structurally distinct (different variable
//! identities), so it misses any structural cache. Canonicalization
//! renames every variable — free and bound alike — injectively, in order
//! of first occurrence under a deterministic pre-order traversal, onto a
//! stable pool of canonical symbols (`$c0`, `$c1`, …). A bijective
//! renaming preserves both satisfiability and validity, so a verdict
//! memoized for the canonical form is sound for every alpha-variant.
//!
//! Canonicalization is an approximation of alpha-equivalence detection:
//! two equivalent formulas whose variables *first occur in a different
//! order* (a [`LinExpr`]'s terms are sorted by symbol, that is by creation
//! order) canonicalize differently and simply miss the cache. That
//! direction is harmless; the soundness-critical direction — distinct
//! verdicts never sharing a cache entry — holds because the renaming is
//! injective and everything else (constants, coefficients, boolean
//! structure) is preserved exactly.
//!
//! Renaming a linear expression copies its terms into a fresh inline
//! term list (see [`crate::linear`]), re-sorted by canonical symbol, so
//! for the common expression of at most four terms it allocates nothing.
//! The renaming map itself is an [`exo_core::hash::HashMap`], and the
//! cache the result keys hashes it with the same hasher.

use std::sync::{Mutex, OnceLock};

use exo_core::hash::HashMap;
use exo_core::sym::Sym;

use crate::formula::{Atom, Formula};
use crate::linear::LinExpr;

/// Returns the `n`-th canonical symbol, growing the shared pool lazily.
/// Pooling (instead of minting per call) keeps canonical formulas from
/// two different queries structurally comparable.
fn pool_sym(n: usize) -> Sym {
    static POOL: OnceLock<Mutex<Vec<Sym>>> = OnceLock::new();
    // The pool is append-only, so a poisoned guard is still consistent.
    let mut pool = POOL
        .get_or_init(|| Mutex::new(Vec::new()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    while pool.len() <= n {
        let i = pool.len();
        pool.push(Sym::new(format!("$c{i}")));
    }
    pool[n]
}

struct Canon {
    map: HashMap<Sym, Sym>,
    next: usize,
}

impl Canon {
    fn alloc(&mut self) -> Sym {
        let c = pool_sym(self.next);
        self.next += 1;
        c
    }

    fn rename(&mut self, x: Sym) -> Sym {
        if let Some(&c) = self.map.get(&x) {
            return c;
        }
        let c = self.alloc();
        self.map.insert(x, c);
        c
    }

    fn lin(&mut self, e: &LinExpr) -> LinExpr {
        LinExpr {
            constant: e.constant,
            coeffs: e
                .coeffs
                .iter()
                .map(|(&x, &c)| (self.rename(x), c))
                .collect(),
        }
    }

    fn formula(&mut self, f: &Formula) -> Formula {
        match f {
            Formula::True => Formula::True,
            Formula::False => Formula::False,
            Formula::Atom(Atom::Le(e)) => Formula::Atom(Atom::Le(self.lin(e))),
            Formula::Atom(Atom::Eq(e)) => Formula::Atom(Atom::Eq(self.lin(e))),
            Formula::Atom(Atom::Dvd(m, e)) => Formula::Atom(Atom::Dvd(*m, self.lin(e))),
            Formula::Not(g) => Formula::Not(Box::new(self.formula(g))),
            Formula::And(fs) => Formula::And(fs.iter().map(|g| self.formula(g)).collect()),
            Formula::Or(fs) => Formula::Or(fs.iter().map(|g| self.formula(g)).collect()),
            Formula::Exists(x, g) => {
                let (cx, body) = self.binder(*x, g);
                Formula::Exists(cx, Box::new(body))
            }
            Formula::Forall(x, g) => {
                let (cx, body) = self.binder(*x, g);
                Formula::Forall(cx, Box::new(body))
            }
        }
    }

    /// Binders always get a fresh canonical sym, shadowing any outer use
    /// of the same source sym for the extent of the body.
    fn binder(&mut self, x: Sym, body: &Formula) -> (Sym, Formula) {
        let saved = self.map.get(&x).copied();
        let cx = self.alloc();
        self.map.insert(x, cx);
        let out = self.formula(body);
        match saved {
            Some(old) => {
                self.map.insert(x, old);
            }
            None => {
                self.map.remove(&x);
            }
        }
        (cx, out)
    }
}

/// Renames all variables of `f` onto the canonical pool, in first-occurrence
/// pre-order. Alpha-variant formulas (same structure, different variable
/// identities in the same positions) map to the same canonical formula.
pub fn canonicalize(f: &Formula) -> Formula {
    let mut c = Canon {
        map: HashMap::default(),
        next: 0,
    };
    c.formula(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::Solver;

    fn shape(x: Sym, y: Sym, c: i64) -> Formula {
        // 0 ≤ x ∧ x + 2y < c
        Formula::and(vec![
            Formula::ge(LinExpr::var(x), LinExpr::constant(0)),
            Formula::lt(
                LinExpr::var(x).add(&LinExpr::scaled_var(2, y)),
                LinExpr::constant(c),
            ),
        ])
    }

    #[test]
    fn alpha_variants_canonicalize_equal() {
        let f = shape(Sym::new("i"), Sym::new("j"), 8);
        let g = shape(Sym::new("io"), Sym::new("ii"), 8);
        assert_ne!(f, g); // distinct syms: structurally different …
        assert_eq!(canonicalize(&f), canonicalize(&g)); // … same canonical form
    }

    #[test]
    fn different_constants_stay_distinct() {
        let x = Sym::new("i");
        let y = Sym::new("j");
        let f = shape(x, y, 8);
        let g = shape(x, y, 9);
        assert_ne!(canonicalize(&f), canonicalize(&g));
    }

    #[test]
    fn idempotent() {
        let f = shape(Sym::new("i"), Sym::new("j"), 8);
        let c = canonicalize(&f);
        assert_eq!(canonicalize(&c), c);
    }

    #[test]
    fn binders_shadow_outer_occurrences() {
        let x = Sym::new("x");
        let y = Sym::new("y");
        // x ≤ 0 ∧ ∃x. x ≥ 5   vs   x ≤ 0 ∧ ∃y. y ≥ 5 — alpha-equal
        let le = Formula::le(LinExpr::var(x), LinExpr::constant(0));
        let f = Formula::And(vec![
            le.clone(),
            Formula::Exists(
                x,
                Box::new(Formula::ge(LinExpr::var(x), LinExpr::constant(5))),
            ),
        ]);
        let g = Formula::And(vec![
            le,
            Formula::Exists(
                y,
                Box::new(Formula::ge(LinExpr::var(y), LinExpr::constant(5))),
            ),
        ]);
        assert_eq!(canonicalize(&f), canonicalize(&g));
    }

    #[test]
    fn canonicalization_preserves_verdicts() {
        let mut s = Solver::new();
        let cases = vec![
            shape(Sym::new("i"), Sym::new("j"), 8),
            Formula::Forall(
                Sym::new("k"),
                Box::new(Formula::le(
                    LinExpr::var(Sym::new("k")),
                    LinExpr::constant(3),
                )),
            ),
            Formula::dvd(4, LinExpr::var(Sym::new("n"))),
        ];
        for f in cases {
            let c = canonicalize(&f);
            assert_eq!(s.check_sat(&f), s.check_sat(&c));
            assert_eq!(s.check_valid(&f), s.check_valid(&c));
        }
    }
}
