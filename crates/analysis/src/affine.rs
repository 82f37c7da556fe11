//! Affine index forms, and the dependence tests that read them.
//!
//! An index coordinate built from variables, literals, `+`, `−`,
//! negation and products with a literal has an exact affine form
//! `Σ cᵥ·v + k` over checked `i64`; anything else (⊥, `Ite`, strides,
//! `/`, `%`, a product of two non-literals, overflow) has none, and the
//! tests leave it undecided. `reorder`'s dependence test
//! (`conditions::loop_reorder`) and the loop classifier of `exo-lint`
//! both read coordinates through this module.

use exo_core::ir::BinOp;
use exo_core::Sym;

use crate::effexpr::EffExpr;
use crate::interval::Env;

/// Whether lowering `e` as an integer gives a defined value: it is made
/// of variables, literals, strides, `+`, `−`, negation, products with a
/// literal and `/`, `%` by a positive literal.
pub(crate) fn defined(e: &EffExpr) -> bool {
    match e {
        EffExpr::Var(_) | EffExpr::Int(_) | EffExpr::Stride(..) => true,
        EffExpr::Neg(a) => defined(a),
        EffExpr::Bin(BinOp::Add | BinOp::Sub, a, b) => defined(a) && defined(b),
        EffExpr::Bin(BinOp::Mul, a, b) => {
            defined(a)
                && defined(b)
                && matches!((&**a, &**b), (EffExpr::Int(_), _) | (_, EffExpr::Int(_)))
        }
        EffExpr::Bin(BinOp::Div | BinOp::Mod, a, b) => {
            defined(a) && matches!(**b, EffExpr::Int(c) if c > 0)
        }
        _ => false,
    }
}

/// An affine index `Σ cᵥ·v + k`: terms sorted by symbol, no zero
/// coefficient.
#[derive(PartialEq, Debug)]
pub(crate) struct Affine {
    terms: Vec<(Sym, i64)>,
    k: i64,
}

impl Affine {
    /// The coefficient of `v` (0 if `v` does not occur).
    pub(crate) fn coef(&self, v: Sym) -> i64 {
        self.terms
            .iter()
            .find_map(|&(s, c)| (s == v).then_some(c))
            .unwrap_or(0)
    }

    /// `self − other`, or `None` on `i64` overflow.
    fn sub(&self, other: &Affine) -> Option<Affine> {
        let mut terms = self.terms.clone();
        for &(v, c) in &other.terms {
            terms.push((v, c.checked_neg()?));
        }
        merged(terms, self.k.checked_sub(other.k)?)
    }

    /// The form as an expression, for interval evaluation.
    fn to_expr(&self) -> EffExpr {
        self.terms.iter().fold(EffExpr::Int(self.k), |e, &(v, c)| {
            e.add(EffExpr::bin(BinOp::Mul, EffExpr::Int(c), EffExpr::Var(v)))
        })
    }
}

/// Sorts `terms` by symbol, adds up repeated symbols and drops zero
/// coefficients; `None` on overflow.
fn merged(mut terms: Vec<(Sym, i64)>, k: i64) -> Option<Affine> {
    terms.sort_unstable_by_key(|&(v, _)| v);
    let mut out: Vec<(Sym, i64)> = Vec::with_capacity(terms.len());
    for (v, c) in terms {
        match out.last_mut() {
            Some((w, d)) if *w == v => *d = d.checked_add(c)?,
            _ => out.push((v, c)),
        }
    }
    out.retain(|&(_, c)| c != 0);
    Some(Affine { terms: out, k })
}

/// The affine form of `e` built from variables, literals, `+`, `−`,
/// negation and products with a literal; `None` for anything else or on
/// `i64` overflow, where lowering would panic.
pub(crate) fn affine(e: &EffExpr) -> Option<Affine> {
    fn go(e: &EffExpr, scale: i64, terms: &mut Vec<(Sym, i64)>, k: &mut i64) -> Option<()> {
        match e {
            EffExpr::Var(v) => terms.push((*v, scale)),
            EffExpr::Int(c) => *k = k.checked_add(scale.checked_mul(*c)?)?,
            EffExpr::Neg(a) => go(a, scale.checked_neg()?, terms, k)?,
            EffExpr::Bin(BinOp::Add, a, b) => {
                go(a, scale, terms, k)?;
                go(b, scale, terms, k)?;
            }
            EffExpr::Bin(BinOp::Sub, a, b) => {
                go(a, scale, terms, k)?;
                go(b, scale.checked_neg()?, terms, k)?;
            }
            EffExpr::Bin(BinOp::Mul, a, b) => match (&**a, &**b) {
                (EffExpr::Int(c), e) | (e, EffExpr::Int(c)) => {
                    go(e, scale.checked_mul(*c)?, terms, k)?
                }
                _ => return None,
            },
            _ => return None,
        }
        Some(())
    }
    let (mut terms, mut k) = (Vec::new(), 0);
    go(e, 1, &mut terms, &mut k)?;
    merged(terms, k)
}

/// Whether `e1`, read in iteration `x`, and `e2`, read in a distinct
/// iteration `x′` (so `e2` says `x′` where `e1` says `x`), differ at
/// every point of `env` with `x ≠ x′`. `false` means "don't know".
///
/// Both must have an affine form; their difference `d` must then pass
/// one of three tests (Goff, Kennedy and Tseng, "Practical dependence
/// testing", PLDI 1991, extended by the bounds of the residual):
///
/// * `d`'s interval in `env` excludes 0 (ZIV, and any pair the bounds
///   separate);
/// * `d = c·(x − x′) + r` with `c ≠ 0` and `r ≡ 0` (strong SIV), or with
///   `r`'s interval strictly inside `(−|c|, |c|)`: `x ≠ x′` makes
///   `|c·(x − x′)| ≥ |c| > |r|`;
/// * the gcd of `d`'s coefficients does not divide its constant.
///
/// Sound when `env` holds every model of the hypotheses the two reads
/// are taken under (see [`Env::narrowed`]).
pub fn never_equal(e1: &EffExpr, e2: &EffExpr, (x, x2): (Sym, Sym), env: &Env) -> bool {
    let (Some(a), Some(b)) = (affine(e1), affine(e2)) else {
        return false;
    };
    let Some(d) = a.sub(&b) else {
        return false;
    };
    if env.eval(&d.to_expr()).is_some_and(|i| i.excludes(0)) {
        return true;
    }
    let c = d.coef(x);
    if c != 0 && Some(d.coef(x2)) == c.checked_neg() {
        let r = Affine {
            terms: d
                .terms
                .iter()
                .copied()
                .filter(|&(v, _)| v != x && v != x2)
                .collect(),
            k: d.k,
        };
        if r.terms.is_empty() && r.k == 0 {
            return true;
        }
        let bound = i128::from(c.unsigned_abs());
        if env
            .eval(&r.to_expr())
            .is_some_and(|i| i.within(-bound + 1, bound - 1))
        {
            return true;
        }
    }
    let g = d
        .terms
        .iter()
        .fold(0, |g, &(_, c)| gcd(g, c.unsigned_abs()));
    g > 1 && d.k.unsigned_abs() % g != 0
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: Sym) -> EffExpr {
        EffExpr::Var(x)
    }

    fn mul(c: i64, e: EffExpr) -> EffExpr {
        EffExpr::bin(BinOp::Mul, EffExpr::Int(c), e)
    }

    #[test]
    fn affine_forms_cancel_and_refuse_what_they_cannot_read() {
        let [x, y] = ["x", "y"].map(Sym::new);
        let e = mul(3, v(x))
            .add(EffExpr::neg(v(y)))
            .add(EffExpr::bin(BinOp::Sub, v(y), mul(3, v(x))))
            .add(EffExpr::Int(5));
        assert_eq!(
            affine(&e),
            Some(Affine {
                terms: Vec::new(),
                k: 5
            })
        );
        for e in [
            EffExpr::Unknown,
            EffExpr::Stride(x, 0),
            EffExpr::bin(BinOp::Mul, v(x), v(y)),
            EffExpr::bin(BinOp::Mod, v(x), EffExpr::Int(2)),
            mul(i64::MAX, mul(i64::MAX, mul(i64::MAX, v(x)))),
        ] {
            assert_eq!(affine(&e), None, "{e:?}");
        }
    }
}
