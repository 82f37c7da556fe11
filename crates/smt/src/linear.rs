//! Linear integer expressions in canonical form.
//!
//! Every control expression in Exo is quasi-affine, so after lowering
//! `/`/`%`-by-constant to fresh variables, everything the analyses need
//! to reason about is a linear combination `c₀ + Σ cᵢ·xᵢ` over ℤ.
//!
//! The terms `cᵢ·xᵢ` are a [`Coeffs`]: `(symbol, coefficient)` pairs
//! sorted by symbol, up to four stored inline and more on the heap.
//! Of the canonical atoms the four case-study schedules send to the
//! verdict cache, 78% have one term and none more than three; of the lint
//! pass's, 3% have four or six. So building, adding, scaling and renaming
//! an expression almost never allocates. [`LinExpr::add`],
//! [`LinExpr::sub`] and [`LinExpr::subst`] are each one merge of two
//! sorted term lists.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};

use exo_core::sym::Sym;

/// Terms stored without a heap allocation.
const INLINE_TERMS: usize = 4;

/// The `(variable, coefficient)` terms of a [`LinExpr`]: a map from
/// [`Sym`] to `i64` kept as pairs sorted by symbol. Up to four terms are
/// stored inline, more on the heap.
///
/// It offers the `BTreeMap<Sym, i64>` surface the analyses use, and it
/// iterates, compares, hashes and prints (`Debug` included) exactly as
/// that map would, so the order Cooper QE sorts boundary terms by and the
/// order canonical renaming visits variables in are the map's.
#[derive(Clone, Default)]
pub struct Coeffs(Terms);

/// One form per length: no term, one to four terms inline, more on the
/// heap. So cloning at most four terms never allocates.
#[derive(Clone, Default)]
enum Terms {
    #[default]
    Empty,
    /// `len` (1..=4) terms; the slots past `len` hold stale copies of
    /// terms and are never read.
    Inline(u8, [(Sym, i64); INLINE_TERMS]),
    /// More than four terms.
    Heap(Vec<(Sym, i64)>),
}

impl Coeffs {
    /// No terms.
    pub const fn new() -> Coeffs {
        Coeffs(Terms::Empty)
    }

    fn as_slice(&self) -> &[(Sym, i64)] {
        match &self.0 {
            Terms::Empty => &[],
            Terms::Inline(len, terms) => &terms[..usize::from(*len)],
            Terms::Heap(terms) => terms,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [(Sym, i64)] {
        match &mut self.0 {
            Terms::Empty => &mut [],
            Terms::Inline(len, terms) => &mut terms[..usize::from(*len)],
            Terms::Heap(terms) => terms,
        }
    }

    /// Appends a term whose symbol is greater than every stored one.
    fn push(&mut self, x: Sym, c: i64) {
        match &mut self.0 {
            Terms::Empty => self.0 = Terms::Inline(1, [(x, c); INLINE_TERMS]),
            Terms::Inline(len, terms) if usize::from(*len) < INLINE_TERMS => {
                terms[usize::from(*len)] = (x, c);
                *len += 1;
            }
            Terms::Inline(_, terms) => {
                let mut heap = Vec::with_capacity(2 * INLINE_TERMS);
                heap.extend_from_slice(terms);
                heap.push((x, c));
                self.0 = Terms::Heap(heap);
            }
            Terms::Heap(terms) => terms.push((x, c)),
        }
    }

    /// Builds from terms in increasing symbol order.
    fn from_sorted(terms: impl Iterator<Item = (Sym, i64)>) -> Coeffs {
        let mut out = Coeffs::new();
        for (x, c) in terms {
            out.push(x, c);
        }
        out
    }

    /// Where `x` is, or where it would go.
    fn position(&self, x: Sym) -> Result<usize, usize> {
        self.as_slice().binary_search_by(|&(y, _)| y.cmp(&x))
    }

    /// The number of terms.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether there is no term.
    pub fn is_empty(&self) -> bool {
        matches!(self.0, Terms::Empty)
    }

    /// The coefficient of `x`, if it has a term.
    pub fn get(&self, x: &Sym) -> Option<&i64> {
        let i = self.position(*x).ok()?;
        Some(&self.as_slice()[i].1)
    }

    /// The coefficient of `x`, mutably, if it has a term.
    pub fn get_mut(&mut self, x: &Sym) -> Option<&mut i64> {
        let i = self.position(*x).ok()?;
        Some(&mut self.as_mut_slice()[i].1)
    }

    /// Whether `x` has a term.
    pub fn contains_key(&self, x: &Sym) -> bool {
        self.position(*x).is_ok()
    }

    /// Sets the coefficient of `x`, returning the previous one.
    pub fn insert(&mut self, x: Sym, c: i64) -> Option<i64> {
        match self.position(x) {
            Ok(i) => Some(std::mem::replace(&mut self.as_mut_slice()[i].1, c)),
            Err(i) if i == self.len() => {
                self.push(x, c);
                None
            }
            Err(i) => {
                let terms = self.as_slice();
                let (head, tail) = terms.split_at(i);
                *self = Coeffs::from_sorted(
                    head.iter()
                        .copied()
                        .chain([(x, c)])
                        .chain(tail.iter().copied()),
                );
                None
            }
        }
    }

    /// Removes the term of `x`, returning its coefficient.
    pub fn remove(&mut self, x: &Sym) -> Option<i64> {
        let i = self.position(*x).ok()?;
        match &mut self.0 {
            Terms::Empty => None,
            Terms::Inline(len, terms) => {
                let c = terms[i].1;
                terms.copy_within(i + 1..usize::from(*len), i);
                *len -= 1;
                if *len == 0 {
                    self.0 = Terms::Empty;
                }
                Some(c)
            }
            Terms::Heap(terms) => {
                let (_, c) = terms.remove(i);
                if terms.len() == INLINE_TERMS {
                    *self = Coeffs::from_sorted(terms.iter().copied());
                }
                Some(c)
            }
        }
    }

    /// The terms in increasing symbol order.
    pub fn iter(&self) -> Iter<'_> {
        Iter(self.as_slice().iter())
    }

    /// The symbols, in increasing order.
    pub fn keys(&self) -> impl DoubleEndedIterator<Item = &Sym> + ExactSizeIterator + '_ {
        self.as_slice().iter().map(|(x, _)| x)
    }

    /// The coefficients, in increasing order of their symbols.
    pub fn values(&self) -> impl DoubleEndedIterator<Item = &i64> + ExactSizeIterator + '_ {
        self.as_slice().iter().map(|(_, c)| c)
    }
}

/// Iterator over a [`Coeffs`]' terms as `(&symbol, &coefficient)`, in
/// increasing symbol order, like a `BTreeMap`'s.
#[derive(Clone, Debug)]
pub struct Iter<'a>(std::slice::Iter<'a, (Sym, i64)>);

impl<'a> Iterator for Iter<'a> {
    type Item = (&'a Sym, &'a i64);

    fn next(&mut self) -> Option<(&'a Sym, &'a i64)> {
        self.0.next().map(|(x, c)| (x, c))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl DoubleEndedIterator for Iter<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        self.0.next_back().map(|(x, c)| (x, c))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a Coeffs {
    type Item = (&'a Sym, &'a i64);
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl FromIterator<(Sym, i64)> for Coeffs {
    /// Collects terms in any order; a later term for the same symbol
    /// replaces an earlier one, as in a map.
    fn from_iter<I: IntoIterator<Item = (Sym, i64)>>(iter: I) -> Coeffs {
        let mut out = Coeffs::new();
        for (x, c) in iter {
            match out.as_slice().last() {
                Some(&(last, _)) if last >= x => {
                    out.insert(x, c);
                }
                _ => out.push(x, c),
            }
        }
        out
    }
}

impl PartialEq for Coeffs {
    fn eq(&self, other: &Coeffs) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Coeffs {}

impl PartialOrd for Coeffs {
    fn partial_cmp(&self, other: &Coeffs) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Coeffs {
    /// Lexicographic over the sorted terms, then by length: a
    /// `BTreeMap`'s order.
    fn cmp(&self, other: &Coeffs) -> Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Coeffs {
    /// The length, then each term: what a `BTreeMap` feeds the hasher.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Coeffs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Merges two sorted term lists into `a + k·b`. A zero sum is dropped,
/// and so is a zero `k·d` on a symbol only `b` has, as adding into a map
/// entry by entry and removing what reaches zero would do.
///
/// # Panics
///
/// Panics on `i64` overflow (see [`LinExpr::add`]).
#[allow(clippy::expect_used)]
fn merge<'a>(
    a: impl Iterator<Item = &'a (Sym, i64)>,
    b: impl Iterator<Item = &'a (Sym, i64)>,
    k: i64,
) -> Coeffs {
    let scaled = |c: i64| c.checked_mul(k).expect("LinExpr overflow in add");
    let (mut a, mut b) = (a.peekable(), b.peekable());
    let mut out = Coeffs::new();
    loop {
        match (a.peek(), b.peek()) {
            (Some(&&(x, c)), Some(&&(y, d))) => match x.cmp(&y) {
                Ordering::Less => {
                    out.push(x, c);
                    a.next();
                }
                Ordering::Greater => {
                    let d = scaled(d);
                    if d != 0 {
                        out.push(y, d);
                    }
                    b.next();
                }
                Ordering::Equal => {
                    let sum = c.checked_add(scaled(d)).expect("LinExpr overflow in add");
                    if sum != 0 {
                        out.push(x, sum);
                    }
                    a.next();
                    b.next();
                }
            },
            (Some(&&(x, c)), None) => {
                out.push(x, c);
                a.next();
            }
            (None, Some(&&(y, d))) => {
                let d = scaled(d);
                if d != 0 {
                    out.push(y, d);
                }
                b.next();
            }
            (None, None) => return out,
        }
    }
}

/// A linear expression `constant + Σ coeff·var` with integer
/// coefficients. Zero-coefficient entries are never stored. The derived
/// order is structural (constant, then coefficients by symbol); Cooper QE
/// uses it to sort and dedup boundary terms.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct LinExpr {
    /// Constant term.
    pub constant: i64,
    /// Coefficients per variable (sorted by symbol for canonicity).
    pub coeffs: Coeffs,
}

impl LinExpr {
    /// The constant expression `c`.
    pub fn constant(c: i64) -> LinExpr {
        LinExpr {
            constant: c,
            coeffs: Coeffs::new(),
        }
    }

    /// The variable expression `x`.
    pub fn var(x: Sym) -> LinExpr {
        LinExpr::scaled_var(1, x)
    }

    /// `c·x`.
    pub fn scaled_var(c: i64, x: Sym) -> LinExpr {
        let mut coeffs = Coeffs::new();
        if c != 0 {
            coeffs.push(x, c);
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

    /// `self + k·other`, in one merge of the two term lists.
    #[allow(clippy::expect_used)]
    fn add_scaled(&self, other: &LinExpr, k: i64) -> LinExpr {
        let constant = other
            .constant
            .checked_mul(k)
            .and_then(|c| self.constant.checked_add(c))
            .expect("LinExpr overflow in add");
        LinExpr {
            constant,
            coeffs: merge(
                self.coeffs.as_slice().iter(),
                other.coeffs.as_slice().iter(),
                k,
            ),
        }
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
    pub fn add(&self, other: &LinExpr) -> LinExpr {
        self.add_scaled(other, 1)
    }

    /// Subtracts another linear expression.
    ///
    /// # Panics
    ///
    /// Panics on `i64` overflow (see [`LinExpr::add`]).
    pub fn sub(&self, other: &LinExpr) -> LinExpr {
        self.add_scaled(other, -1)
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
        let mut out = self.clone();
        out.constant = out
            .constant
            .checked_mul(c)
            .expect("LinExpr overflow in scale");
        for (_, k) in out.coeffs.as_mut_slice() {
            *k = k.checked_mul(c).expect("LinExpr overflow in scale");
        }
        out
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

    /// Substitutes `x := e`: the terms other than `x`'s merged with
    /// `c·e`, where `c` is `x`'s coefficient.
    ///
    /// # Panics
    ///
    /// Panics on `i64` overflow (see [`LinExpr::add`]).
    #[allow(clippy::expect_used)]
    pub fn subst(&self, x: Sym, e: &LinExpr) -> LinExpr {
        let Ok(i) = self.coeffs.position(x) else {
            return self.clone();
        };
        let terms = self.coeffs.as_slice();
        let c = terms[i].1;
        let constant = e
            .constant
            .checked_mul(c)
            .and_then(|k| self.constant.checked_add(k))
            .expect("LinExpr overflow in add");
        // a stored zero coefficient (only a caller writing `coeffs` makes
        // one) substitutes nothing, as `e.scale(0)` is the constant 0
        let e_terms = if c == 0 { &[] } else { e.coeffs.as_slice() };
        LinExpr {
            constant,
            coeffs: merge(terms[..i].iter().chain(&terms[i + 1..]), e_terms.iter(), c),
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
