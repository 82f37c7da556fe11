//! Linear integer expressions in canonical form.
//!
//! Every control expression in Exo is quasi-affine, so after lowering
//! `/`/`%`-by-constant to fresh variables, everything the analyses need
//! to reason about is a linear combination `c₀ + Σ cᵢ·xᵢ` over ℤ.

use std::collections::BTreeMap;
use std::fmt;

use exo_core::sym::Sym;

/// A linear expression `constant + Σ coeff·var` with integer
/// coefficients. Zero-coefficient entries are never stored. The derived
/// order is structural (constant, then coefficients by symbol); Cooper QE
/// uses it to sort and dedup boundary terms.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct LinExpr {
    /// Constant term.
    pub constant: i64,
    /// Coefficients per variable (sorted by symbol for canonicity).
    pub coeffs: BTreeMap<Sym, i64>,
}

impl LinExpr {
    /// The constant expression `c`.
    pub fn constant(c: i64) -> LinExpr {
        LinExpr {
            constant: c,
            coeffs: BTreeMap::new(),
        }
    }

    /// The variable expression `x`.
    pub fn var(x: Sym) -> LinExpr {
        let mut coeffs = BTreeMap::new();
        coeffs.insert(x, 1);
        LinExpr {
            constant: 0,
            coeffs,
        }
    }

    /// `c·x`.
    pub fn scaled_var(c: i64, x: Sym) -> LinExpr {
        let mut coeffs = BTreeMap::new();
        if c != 0 {
            coeffs.insert(x, c);
        }
        LinExpr {
            constant: 0,
            coeffs,
        }
    }

    /// The coefficient of `x` (0 if absent).
    pub fn coeff(&self, x: Sym) -> i64 {
        self.coeffs.get(&x).copied().unwrap_or(0)
    }

    /// Whether the expression is a constant.
    pub fn is_constant(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Returns the constant value if the expression is constant.
    pub fn as_constant(&self) -> Option<i64> {
        if self.is_constant() {
            Some(self.constant)
        } else {
            None
        }
    }

    /// Whether `x` occurs with non-zero coefficient.
    pub fn mentions(&self, x: Sym) -> bool {
        self.coeffs.contains_key(&x)
    }

    /// Adds another linear expression.
    ///
    /// # Panics
    ///
    /// Panics on `i64` coefficient overflow — saturating or wrapping here
    /// would silently change formula semantics and could turn a reject into
    /// an unsound accept. Overflow needs coefficients near 2^63 (far past
    /// any real loop bound); if it ever fires during scheduling, the
    /// `catch_unwind` boundary in operator dispatch reports it as a typed
    /// internal error.
    #[allow(clippy::expect_used)]
    pub fn add(&self, other: &LinExpr) -> LinExpr {
        let mut out = self.clone();
        out.constant = out
            .constant
            .checked_add(other.constant)
            .expect("LinExpr overflow in add");
        for (&v, &c) in &other.coeffs {
            let e = out.coeffs.entry(v).or_insert(0);
            *e = e.checked_add(c).expect("LinExpr overflow in add");
            if *e == 0 {
                out.coeffs.remove(&v);
            }
        }
        out
    }

    /// Subtracts another linear expression.
    pub fn sub(&self, other: &LinExpr) -> LinExpr {
        self.add(&other.scale(-1))
    }

    /// Multiplies by a constant.
    ///
    /// # Panics
    ///
    /// Panics on `i64` overflow (see [`LinExpr::add`] for why that beats
    /// silent wrapping).
    #[allow(clippy::expect_used)]
    pub fn scale(&self, c: i64) -> LinExpr {
        if c == 0 {
            return LinExpr::constant(0);
        }
        LinExpr {
            constant: self
                .constant
                .checked_mul(c)
                .expect("LinExpr overflow in scale"),
            coeffs: self
                .coeffs
                .iter()
                .map(|(&v, &k)| (v, k.checked_mul(c).expect("LinExpr overflow in scale")))
                .collect(),
        }
    }

    /// Adds a constant.
    ///
    /// # Panics
    ///
    /// Panics on `i64` overflow (see [`LinExpr::add`]).
    #[allow(clippy::expect_used)]
    pub fn offset(&self, c: i64) -> LinExpr {
        let mut out = self.clone();
        out.constant = out
            .constant
            .checked_add(c)
            .expect("LinExpr overflow in offset");
        out
    }

    /// Substitutes `x := e`.
    pub fn subst(&self, x: Sym, e: &LinExpr) -> LinExpr {
        match self.coeffs.get(&x) {
            None => self.clone(),
            Some(&c) => {
                let mut rest = self.clone();
                rest.coeffs.remove(&x);
                rest.add(&e.scale(c))
            }
        }
    }

    /// Evaluates under a complete assignment.
    ///
    /// Returns `None` if some variable is unassigned.
    pub fn eval(&self, asg: &BTreeMap<Sym, i64>) -> Option<i64> {
        let mut v = self.constant;
        for (&x, &c) in &self.coeffs {
            v = v.checked_add(c.checked_mul(*asg.get(&x)?)?)?;
        }
        Some(v)
    }

    /// All variables mentioned.
    pub fn vars(&self) -> impl Iterator<Item = Sym> + '_ {
        self.coeffs.keys().copied()
    }
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (&v, &c) in &self.coeffs {
            if first {
                match c {
                    1 => write!(f, "{v}")?,
                    -1 => write!(f, "-{v}")?,
                    _ => write!(f, "{c}·{v}")?,
                }
                first = false;
            } else if c >= 0 {
                if c == 1 {
                    write!(f, " + {v}")?;
                } else {
                    write!(f, " + {c}·{v}")?;
                }
            } else if c == -1 {
                write!(f, " - {v}")?;
            } else {
                write!(f, " - {}·{v}", -c)?;
            }
        }
        if first {
            write!(f, "{}", self.constant)?;
        } else if self.constant > 0 {
            write!(f, " + {}", self.constant)?;
        } else if self.constant < 0 {
            write!(f, " - {}", -self.constant)?;
        }
        Ok(())
    }
}

/// Greatest common divisor (non-negative).
pub fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Least common multiple (non-negative; 0 if either is 0).
///
/// # Panics
///
/// Panics on `i64` overflow (see [`LinExpr::add`]).
#[allow(clippy::expect_used)]
pub fn lcm(a: i64, b: i64) -> i64 {
    if a == 0 || b == 0 {
        0
    } else {
        (a / gcd(a, b)).checked_mul(b.abs()).expect("lcm overflow")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_is_canonical() {
        let x = Sym::new("x");
        let y = Sym::new("y");
        let e = LinExpr::var(x).add(&LinExpr::scaled_var(2, y)).offset(3);
        let e2 = e.sub(&LinExpr::var(x));
        assert_eq!(e2.coeff(x), 0);
        assert!(!e2.mentions(x));
        assert_eq!(e2.coeff(y), 2);
        assert_eq!(e2.constant, 3);
    }

    #[test]
    fn subst_replaces() {
        let x = Sym::new("x");
        let y = Sym::new("y");
        // 3x + 1, x := y + 2  ⇒  3y + 7
        let e = LinExpr::scaled_var(3, x).offset(1);
        let e2 = e.subst(x, &LinExpr::var(y).offset(2));
        assert_eq!(e2.coeff(y), 3);
        assert_eq!(e2.constant, 7);
    }

    #[test]
    fn eval_complete_and_incomplete() {
        let x = Sym::new("x");
        let e = LinExpr::scaled_var(4, x).offset(-2);
        let mut asg = BTreeMap::new();
        assert_eq!(e.eval(&asg), None);
        asg.insert(x, 10);
        assert_eq!(e.eval(&asg), Some(38));
    }

    #[test]
    fn gcd_lcm() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(-12, 18), 6);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(0, 6), 0);
    }

    #[test]
    fn display_is_readable() {
        let x = Sym::new("x");
        let e = LinExpr::scaled_var(-2, x).offset(5);
        let s = e.to_string();
        assert!(s.contains('x'), "{s}");
        assert_eq!(LinExpr::constant(0).to_string(), "0");
    }
}
