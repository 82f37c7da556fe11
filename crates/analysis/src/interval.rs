//! A small interval prover for bounds obligations: sound, incomplete,
//! and run before any formula is lowered. Its box ([`Env`]) also bounds
//! the loop classifier's dependence tests ([`crate::affine::never_equal`])
//! and supplies the ground points [`crate::context::SiteQuery::sat`]
//! tries before the solver.
//!
//! Most bounds goals — `0 ≤ 16·jo + ji < 64` under `0 ≤ jo < 4`,
//! `0 ≤ ji < 16`, or a literal `1 ≤ 16` — follow from the enclosing loop
//! bounds by interval arithmetic alone. [`proves`] answers "valid" for
//! those and "don't know" for everything else (symbolic extents such as
//! `i < n` with `n: size`, negated guards, strides, ⊥), which the bounds
//! checker then lowers and sends to the solver.
//!
//! Soundness, in five steps. (1) Narrowing by a hypothesis keeps every
//! value it allows, and ignoring one (as every hypothesis through ⊥,
//! whose `maybe` reading may be `true`) only weakens the path condition:
//! every model of it lies in the box. (2) Each value an expression takes
//! in the box lies in its interval. (3) An expression whose lowering may
//! be undefined (⊥, `Ite`, a non-literal factor or divisor) has no
//! interval, so a goal is read as its `definitely`. (4) Comparing ends
//! then proves the goal in every model. (5) An empty box has no model:
//! every goal holds vacuously.

use std::ops::{Add, Neg};

use exo_core::ir::BinOp;
use exo_core::Sym;

use crate::effexpr::EffExpr;

/// An integer interval `[lo, hi]`; `None` is an unbounded end. Ends are
/// `i128` so products of `i64` literals never wrap; an end whose
/// arithmetic overflows even there becomes unbounded.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Interval {
    lo: Option<i128>,
    hi: Option<i128>,
}

impl Interval {
    const TOP: Interval = Interval { lo: None, hi: None };

    fn point(v: i64) -> Interval {
        Interval {
            lo: Some(v.into()),
            hi: Some(v.into()),
        }
    }

    fn is_empty(self) -> bool {
        matches!((self.lo, self.hi), (Some(l), Some(h)) if l > h)
    }

    /// Whether `v` lies outside the interval.
    pub(crate) fn excludes(self, v: i128) -> bool {
        self.lo.is_some_and(|l| v < l) || self.hi.is_some_and(|h| h < v)
    }

    /// Whether the interval lies within `[lo, hi]`.
    pub(crate) fn within(self, lo: i128, hi: i128) -> bool {
        self.lo.is_some_and(|l| lo <= l) && self.hi.is_some_and(|h| h <= hi)
    }

    /// The finite ends that fit an `i64`, lower first.
    pub(crate) fn ends(self) -> [Option<i64>; 2] {
        [self.lo, self.hi].map(|e| e.and_then(|v| i64::try_from(v).ok()))
    }

    /// The intersection of `self` and `other`.
    fn meet(self, other: Interval) -> Interval {
        Interval {
            lo: max_end(self.lo, other.lo),
            hi: min_end(self.hi, other.hi),
        }
    }

    fn scale(self, c: i64) -> Interval {
        let c = i128::from(c);
        let mul = |e: Option<i128>| e.and_then(|v| v.checked_mul(c));
        match c.signum() {
            0 => Interval::point(0),
            1 => Interval {
                lo: mul(self.lo),
                hi: mul(self.hi),
            },
            _ => Interval {
                lo: mul(self.hi),
                hi: mul(self.lo),
            },
        }
    }

    /// `self / c` for `c > 0`: floor division is monotone.
    fn div_euclid(self, c: i64) -> Interval {
        let c = i128::from(c);
        Interval {
            lo: self.lo.map(|v| v.div_euclid(c)),
            hi: self.hi.map(|v| v.div_euclid(c)),
        }
    }

    /// `self % c` for `c > 0`: exact when no multiple of `c` is crossed,
    /// else `[0, c - 1]`.
    fn rem_euclid(self, c: i64) -> Interval {
        let c = i128::from(c);
        if let (Some(l), Some(h)) = (self.lo, self.hi) {
            if l.div_euclid(c) == h.div_euclid(c) {
                return Interval {
                    lo: Some(l.rem_euclid(c)),
                    hi: Some(h.rem_euclid(c)),
                };
            }
        }
        Interval {
            lo: Some(0),
            hi: Some(c - 1),
        }
    }
}

impl Neg for Interval {
    type Output = Interval;

    fn neg(self) -> Interval {
        Interval {
            lo: self.hi.and_then(i128::checked_neg),
            hi: self.lo.and_then(i128::checked_neg),
        }
    }
}

impl Add for Interval {
    type Output = Interval;

    fn add(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.zip(other.lo).and_then(|(a, b)| a.checked_add(b)),
            hi: self.hi.zip(other.hi).and_then(|(a, b)| a.checked_add(b)),
        }
    }
}

fn max_end(a: Option<i128>, b: Option<i128>) -> Option<i128> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.max(b)),
        (a, b) => a.or(b),
    }
}

fn min_end(a: Option<i128>, b: Option<i128>) -> Option<i128> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// The box: one interval per variable a hypothesis narrowed; any other
/// variable is unbounded.
#[derive(Clone, Default, Debug)]
pub struct Env(Vec<(Sym, Interval)>);

impl Env {
    /// The box of the conjunction of `hyps`, each read as its `maybe` and
    /// narrowed in turn, outermost first; `None` when the box is empty,
    /// so that the hypotheses have no model. Every model of them lies in
    /// the box.
    pub fn narrowed<'e>(hyps: impl IntoIterator<Item = &'e EffExpr>) -> Option<Env> {
        let mut env = Env::default();
        for h in hyps {
            if env.assume(h) {
                return None;
            }
        }
        Some(env)
    }

    pub(crate) fn get(&self, x: Sym) -> Interval {
        self.0
            .iter()
            .find(|(y, _)| *y == x)
            .map_or(Interval::TOP, |&(_, i)| i)
    }

    /// Narrows `x` to `to`; returns whether its interval became empty.
    fn narrow(&mut self, x: Sym, to: Interval) -> bool {
        let met = self.get(x).meet(to);
        match self.0.iter_mut().find(|(y, _)| *y == x) {
            Some((_, i)) => *i = met,
            None => self.0.push((x, met)),
        }
        met.is_empty()
    }

    /// The values `e` takes in the box, or `None` when `e` may be
    /// undefined or is not quasi-affine with literal factors and
    /// divisors.
    pub(crate) fn eval(&self, e: &EffExpr) -> Option<Interval> {
        match e {
            EffExpr::Var(x) => Some(self.get(*x)),
            EffExpr::Int(v) => Some(Interval::point(*v)),
            // a canonical stride is a defined, unconstrained integer
            EffExpr::Stride(..) => Some(Interval::TOP),
            EffExpr::Neg(a) => Some(-self.eval(a)?),
            EffExpr::Bin(op, a, b) => match (op, a.as_ref(), b.as_ref()) {
                (BinOp::Add, a, b) => Some(self.eval(a)? + self.eval(b)?),
                (BinOp::Sub, a, b) => Some(self.eval(a)? + -self.eval(b)?),
                (BinOp::Mul, EffExpr::Int(c), e) | (BinOp::Mul, e, EffExpr::Int(c)) => {
                    Some(self.eval(e)?.scale(*c))
                }
                (BinOp::Div, e, EffExpr::Int(c)) if *c > 0 => Some(self.eval(e)?.div_euclid(*c)),
                (BinOp::Mod, e, EffExpr::Int(c)) if *c > 0 => Some(self.eval(e)?.rem_euclid(*c)),
                _ => None,
            },
            EffExpr::Bool(_) | EffExpr::Unknown | EffExpr::Not(_) | EffExpr::Ite(..) => None,
        }
    }

    /// Narrows by one hypothesis; returns whether the box became empty.
    fn assume(&mut self, h: &EffExpr) -> bool {
        let EffExpr::Bin(op, a, b) = h else {
            return false;
        };
        // `a ≥ b` is `b ≤ a`, `a > b` is `b < a`
        let (op, l, r) = match op {
            BinOp::And => return self.assume(a) || self.assume(b),
            BinOp::Ge => (BinOp::Le, b, a),
            BinOp::Gt => (BinOp::Lt, b, a),
            BinOp::Le | BinOp::Lt | BinOp::Eq => (*op, a, b),
            _ => return false,
        };
        let (Some(li), Some(ri)) = (self.eval(l), self.eval(r)) else {
            return false;
        };
        let strict = i128::from(op == BinOp::Lt);
        let (l_to, r_to) = if op == BinOp::Eq {
            (ri, li)
        } else {
            // l ≤ r - strict and r ≥ l + strict
            (
                Interval {
                    lo: None,
                    hi: ri.hi.and_then(|h| h.checked_sub(strict)),
                },
                Interval {
                    lo: li.lo.and_then(|l| l.checked_add(strict)),
                    hi: None,
                },
            )
        };
        let mut empty = false;
        if let EffExpr::Var(x) = l.as_ref() {
            empty |= self.narrow(*x, l_to);
        }
        if let EffExpr::Var(y) = r.as_ref() {
            empty |= self.narrow(*y, r_to);
        }
        empty
    }

    /// Whether `goal` holds everywhere in the box.
    fn holds(&self, goal: &EffExpr) -> bool {
        let EffExpr::Bin(op, a, b) = goal else {
            return *goal == EffExpr::Bool(true);
        };
        let (op, l, r) = match op {
            BinOp::And => return self.holds(a) && self.holds(b),
            BinOp::Ge => (BinOp::Le, b, a),
            BinOp::Gt => (BinOp::Lt, b, a),
            BinOp::Le | BinOp::Lt => (*op, a, b),
            _ => return false,
        };
        let (Some(li), Some(ri)) = (self.eval(l), self.eval(r)) else {
            return false;
        };
        match (li.hi, ri.lo) {
            (Some(h), Some(l)) if op == BinOp::Lt => h < l,
            (Some(h), Some(l)) => h <= l,
            _ => false,
        }
    }
}

/// Whether `goal` follows from the conjunction of `hyp` by interval
/// arithmetic: `hyp` read as the `maybe` of each hypothesis, outermost
/// first, and `goal` as its `definitely`. `false` means "don't know".
pub(crate) fn proves(hyp: &[EffExpr], goal: &EffExpr) -> bool {
    Env::narrowed(hyp).is_none_or(|env| env.holds(goal))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::obligation_query;
    use crate::check::SharedCheckCtx;
    use crate::conditions::bd;
    use crate::effexpr::testgen::Rng;
    use exo_smt::solver::Answer;
    use std::sync::Arc;

    /// The solver's verdict on the obligation, lowered in full as the
    /// bounds checker lowers it, on a fresh context.
    fn solver(hyp: &[EffExpr], goal: &EffExpr) -> Answer {
        SharedCheckCtx::fresh().check_valid(obligation_query(hyp, goal))
    }

    fn v(x: Sym) -> EffExpr {
        EffExpr::Var(x)
    }

    fn int(c: i64) -> EffExpr {
        EffExpr::Int(c)
    }

    fn bin(op: BinOp, a: EffExpr, b: EffExpr) -> EffExpr {
        EffExpr::bin(op, a, b)
    }

    /// `0 ≤ e < n`, the goal of an access in a dimension of extent `n`.
    fn in_dim(e: EffExpr, n: EffExpr) -> EffExpr {
        int(0).le(e.clone()).and(e.lt(n))
    }

    /// A random path condition over 1–6 loop binders, outermost first,
    /// and the binders it bounds: literal, symbolic (a `size` `n`) and
    /// nested bounds, `/` and `%` splits, and hypotheses the prover must
    /// ignore (⊥, strides, `Ite`, `Or`, `Not`, non-literal divisors).
    fn path(rng: &mut Rng) -> (Vec<EffExpr>, Vec<Sym>) {
        let n = Sym::new("n");
        let mut hyp = vec![int(1).le(v(n))];
        let mut vars = vec![n];
        for k in 0..1 + rng.below(6) {
            let x = Sym::new(format!("i{k}"));
            let prev = v(rng.pick(&vars));
            let lo = match rng.below(4) {
                0 => prev.clone(),
                1 => bin(BinOp::Mul, int(rng.below(3) as i64), prev.clone()),
                _ => int(rng.below(4) as i64),
            };
            let hi = match rng.below(12) {
                0 => v(n),
                1 => prev.add(int(rng.below(4) as i64)),
                2 => bin(BinOp::Mul, int(4), prev).add(int(rng.below(5) as i64)),
                3 => bin(BinOp::Div, prev, int(1 + rng.below(4) as i64)),
                4 => bin(BinOp::Mod, prev, int(1 + rng.below(4) as i64)),
                5 => EffExpr::Unknown,
                6 => EffExpr::Stride(n, 0),
                7 => EffExpr::ite(v(n).lt(int(4)), int(3), int(8)),
                8 => bin(BinOp::Div, int(16), prev),
                _ => lo.clone().add(int(rng.below(10) as i64)),
            };
            hyp.push(bd(x, &lo, &hi));
            vars.push(x);
            match rng.below(8) {
                0 => {
                    let q = Sym::new("q");
                    let op = rng.pick(&[BinOp::Div, BinOp::Mod]);
                    hyp.push(v(q).eq(bin(op, v(x), int(1 + rng.below(5) as i64))));
                    vars.push(q);
                }
                1 => hyp.push(EffExpr::bin(BinOp::Or, v(x).lt(int(2)), int(5).le(v(x)))),
                2 => hyp.push(EffExpr::not(v(x).lt(int(3)))),
                3 => hyp.push(EffExpr::Unknown),
                4 => hyp.push(bin(BinOp::Gt, v(x), EffExpr::Unknown)),
                _ => {}
            }
        }
        (hyp, vars)
    }

    /// A random quasi-affine index over `vars`: coefficients of either
    /// sign (tile indices `16·jo + ji`, offsets `lo + i`), sometimes
    /// divided or reduced by a literal, sometimes with ⊥, a stride or a
    /// non-literal factor in it.
    fn index(rng: &mut Rng, vars: &[Sym]) -> EffExpr {
        let mut e = int(rng.below(6) as i64 - 2);
        for _ in 0..1 + rng.below(3) {
            let c = rng.pick(&[-2, -1, 1, 1, 1, 2, 4, 16]);
            let t = bin(BinOp::Mul, int(c), v(rng.pick(vars)));
            e = if rng.below(6) == 0 {
                EffExpr::Bin(BinOp::Add, Arc::new(e), Arc::new(t))
            } else {
                e.add(t)
            };
        }
        match rng.below(10) {
            0 => bin(BinOp::Div, e, int(1 + rng.below(8) as i64)),
            1 | 2 => bin(BinOp::Mod, e, int(1 + rng.below(8) as i64)),
            3 => bin(BinOp::Sub, e, v(rng.pick(vars))),
            4 => match rng.below(4) {
                0 => e.add(EffExpr::Unknown),
                1 => e.add(EffExpr::Stride(vars[0], 1)),
                2 => bin(BinOp::Mul, e, v(rng.pick(vars))),
                _ => bin(BinOp::Mod, e, v(rng.pick(vars))),
            },
            _ => e,
        }
    }

    /// A random goal over `vars`: an in-dimension pair, a one-sided
    /// bound in any of the four directions, or a conjunction of those.
    fn goal(rng: &mut Rng, vars: &[Sym]) -> EffExpr {
        let e = index(rng, vars);
        let c = int(rng.below(40) as i64 - 4);
        match rng.below(8) {
            0 | 1 => in_dim(e, c),
            2 => bin(BinOp::Le, e, c),
            3 => bin(BinOp::Lt, c, e),
            4 => bin(BinOp::Ge, e, c),
            5 => bin(BinOp::Gt, c, e),
            6 => bin(BinOp::Le, e, index(rng, vars)),
            _ => goal(rng, vars).and(goal(rng, vars)),
        }
    }

    /// Whenever the prover says valid, the full lowering, decided by the
    /// solver, says valid too.
    #[test]
    fn every_proof_is_confirmed_by_the_solver() {
        let mut proved = 0;
        let cases = 3000;
        for seed in 0..cases {
            let mut rng = Rng::new(seed);
            let (hyp, vars) = path(&mut rng);
            let g = goal(&mut rng, &vars);
            if proves(&hyp, &g) {
                proved += 1;
                assert_eq!(
                    solver(&hyp, &g),
                    Answer::Yes,
                    "seed {seed}: proved {g:?}\nunder {hyp:?}"
                );
            }
        }
        // the oracle tests something: a fair share of the goals is proved
        assert!(proved * 10 > cases, "{proved} of {cases} proved");
    }

    /// The shapes the case-study schedules pose, and a near miss of each
    /// that the prover must not prove and the solver refutes.
    #[test]
    fn case_study_shapes() {
        let [io, jo, ji, i, n] = ["io", "jo", "ji", "i", "n"].map(Sym::new);
        let tiles = vec![bd(jo, &int(0), &int(4)), bd(ji, &int(0), &int(16))];
        let tile = bin(BinOp::Mul, int(16), v(jo)).add(v(ji));
        // a window staged at `16·io` and read at `16·io + ji`
        let staged = vec![bd(io, &int(0), &int(4)), bd(ji, &int(0), &int(16))];
        let lo = bin(BinOp::Mul, int(16), v(io));
        let hi = lo.clone().add(int(16));
        let window = int(0).le(lo.clone()).and(hi.clone().le(int(64)));
        let sized = vec![int(1).le(v(n))];
        let empty = vec![bd(i, &int(4), &int(4))];
        let valid = [
            (&tiles, in_dim(tile.clone(), int(64))),
            (
                &tiles,
                in_dim(bin(BinOp::Mod, tile.clone(), int(8)), int(8)),
            ),
            (
                &tiles,
                in_dim(bin(BinOp::Div, tile.clone(), int(16)), int(4)),
            ),
            (&staged, window.clone()),
            (&staged, in_dim(lo.clone().add(v(ji)), int(64))),
            (&staged, in_dim(v(ji).add(EffExpr::neg(int(0))), int(16))),
            (&sized, int(1).le(v(n))),
            (&sized, int(1).le(int(16))),
            (&empty, in_dim(v(i), int(0))),
        ];
        for (hyp, g) in valid {
            assert!(proves(hyp, &g), "{g:?} under {hyp:?}");
            assert_eq!(solver(hyp, &g), Answer::Yes, "{g:?}");
        }
        let near_misses = [
            (&tiles, in_dim(tile.clone(), int(63))),
            (&tiles, in_dim(tile.clone().add(int(-1)), int(64))),
            (&tiles, in_dim(bin(BinOp::Mod, tile, int(8)), int(7))),
            (&staged, int(0).le(lo).and(hi.le(int(63)))),
            (&sized, int(2).le(v(n))),
        ];
        for (hyp, g) in near_misses {
            assert!(!proves(hyp, &g), "{g:?} under {hyp:?}");
            assert_eq!(solver(hyp, &g), Answer::No, "{g:?}");
        }
    }

    /// What the prover leaves to the solver: symbolic extents, ⊥, and
    /// goals it cannot read.
    #[test]
    fn symbolic_and_unknown_goals_are_left_to_the_solver() {
        let [i, n] = ["i", "n"].map(Sym::new);
        let hyp = vec![int(1).le(v(n)), bd(i, &int(0), &v(n))];
        assert!(!proves(&hyp, &in_dim(v(i), v(n))));
        assert_eq!(solver(&hyp, &in_dim(v(i), v(n))), Answer::Yes);
        assert!(!proves(&hyp, &v(i).lt(EffExpr::Unknown)));
        assert!(!proves(&hyp, &v(i).eq(v(i))));
        // a bound through ⊥ is ignored, not read as a bound
        let hyp = vec![bd(i, &int(0), &EffExpr::Unknown)];
        assert!(!proves(&hyp, &v(i).lt(int(1 << 40))));
        // an end past i128 becomes unbounded, not a wrapped value
        let hyp = vec![bd(i, &int(1), &int(3))];
        let cube = (0..3).fold(v(i), |e, _| bin(BinOp::Mul, int(i64::MAX), e));
        assert!(!proves(&hyp, &int(0).lt(cube)));
    }
}
