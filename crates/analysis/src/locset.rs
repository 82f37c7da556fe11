//! Location sets (paper §5.4–5.5): symbolic abstractions of sets of
//! store locations, with ternary membership and the definitely/maybe
//! collapses.
//!
//! Because effect expressions are three-valued, a location set carries an
//! upper and a lower bound on the real set: points definitely in, points
//! definitely out, and a penumbra. `D`/`M` collapse membership back to
//! classical formulas for the solver.

use std::sync::Arc;

use exo_core::hash::HashMap;
use exo_core::Sym;
use exo_smt::formula::Formula;
use exo_smt::linear::LinExpr;

use crate::effects::Effect;
use crate::effexpr::{EffExpr, LBool, LowerCtx};

/// A symbolic set of store locations.
///
/// Sub-sets, unions and coordinate lists are shared ([`Arc`]): the
/// sequencing rules of [`sets_of`] and the collapses `Rd`/`Wr`/`All`
/// reuse a set in several places, and cloning one is a reference-count
/// bump rather than a copy of the tree.
#[derive(Clone, PartialEq, Debug)]
pub enum LocSet {
    /// The empty set.
    Empty,
    /// One buffer point `{x, ee*}`.
    BufPoint {
        /// Buffer symbol.
        buf: Sym,
        /// Symbolic coordinates.
        idx: Arc<[EffExpr]>,
    },
    /// One global (configuration field).
    Global(Sym, Sym),
    /// Finite union.
    Union(Arc<[LocSet]>),
    /// Union over all integer values of a variable (`⋃ₓ L`); bounds are
    /// expressed by `Filter`s inside the body.
    BigUnion {
        /// Bound variable.
        var: Sym,
        /// Body set.
        body: Arc<LocSet>,
    },
    /// Restriction by a ternary condition (`filter(ee, L)`).
    Filter(EffExpr, Arc<LocSet>),
    /// Set difference.
    Diff(Arc<LocSet>, Arc<LocSet>),
    /// Removal of every point on the named buffers (allocation masking,
    /// `L − A(a)`).
    DiffBufs(Arc<LocSet>, Arc<[Sym]>),
}

impl LocSet {
    /// Finite union with unit elimination.
    pub fn union(parts: Vec<LocSet>) -> LocSet {
        let mut out = Vec::new();
        for p in parts {
            match p {
                LocSet::Empty => {}
                LocSet::Union(inner) => out.extend(inner.iter().cloned()),
                p => out.push(p),
            }
        }
        match out.len() {
            0 => LocSet::Empty,
            1 => out.pop().unwrap_or(LocSet::Empty),
            _ => LocSet::Union(out.into()),
        }
    }

    /// Union over all values of `var` with unit elimination.
    pub fn big_union(var: Sym, body: LocSet) -> LocSet {
        match body {
            LocSet::Empty => LocSet::Empty,
            body => LocSet::BigUnion {
                var,
                body: Arc::new(body),
            },
        }
    }

    /// Difference with unit elimination.
    pub fn diff(a: LocSet, b: LocSet) -> LocSet {
        match (&a, &b) {
            (LocSet::Empty, _) => LocSet::Empty,
            (_, LocSet::Empty) => a,
            _ => LocSet::Diff(Arc::new(a), Arc::new(b)),
        }
    }

    /// Buffer-name masking with unit elimination.
    pub fn diff_bufs(a: LocSet, bufs: &Arc<[Sym]>) -> LocSet {
        if bufs.is_empty() || a == LocSet::Empty {
            a
        } else {
            LocSet::DiffBufs(Arc::new(a), Arc::clone(bufs))
        }
    }

    /// Filtering with unit elimination.
    pub fn filter(cond: EffExpr, a: LocSet) -> LocSet {
        match a {
            LocSet::Empty => LocSet::Empty,
            a => LocSet::Filter(cond, Arc::new(a)),
        }
    }

    /// One buffer point.
    pub fn point(buf: Sym, idx: &[EffExpr]) -> LocSet {
        LocSet::BufPoint {
            buf,
            idx: idx.into(),
        }
    }

    /// Collects every buffer mentioned, with the maximum coordinate rank
    /// seen, and every global mentioned.
    pub fn collect_targets(&self, bufs: &mut HashMap<Sym, usize>, globals: &mut Vec<(Sym, Sym)>) {
        match self {
            LocSet::Empty => {}
            LocSet::BufPoint { buf, idx } => {
                let r = bufs.entry(*buf).or_insert(idx.len());
                *r = (*r).max(idx.len());
            }
            LocSet::Global(c, f) => {
                if !globals.contains(&(*c, *f)) {
                    globals.push((*c, *f));
                }
            }
            LocSet::Union(parts) => parts.iter().for_each(|p| p.collect_targets(bufs, globals)),
            LocSet::BigUnion { body, .. } | LocSet::Filter(_, body) => {
                body.collect_targets(bufs, globals)
            }
            LocSet::Diff(a, b) => {
                a.collect_targets(bufs, globals);
                b.collect_targets(bufs, globals);
            }
            LocSet::DiffBufs(a, _) => a.collect_targets(bufs, globals),
        }
    }
}

/// A membership target: one symbolic point.
#[derive(Clone, Debug)]
pub enum Target {
    /// A point on a buffer, with one fresh coordinate variable per
    /// dimension.
    Buf {
        /// Buffer symbol.
        buf: Sym,
        /// Fresh coordinate variables.
        coords: Vec<Sym>,
    },
    /// A global (configuration field).
    Global(Sym, Sym),
}

/// Ternary membership `target ∈ set` (paper §5.4).
///
/// A sub-set that [`misses`] the target is definitely without it, so its
/// membership is `known(False)` and it is not lowered: that is exactly
/// what lowering it would give, because in Kleene logic anything ∧
/// definitely-False is definitely-False, and its conditions would push no
/// side constraint and mint no symbol that survives.
///
/// Membership `p` of a loop union `⋃ₓ L` is defined where the point is
/// definitely in `L` for some `x` or definitely out of it for every `x`:
/// `def = (∃x. D p) ∨ (∀x. D ¬p)`. When the body's membership is defined
/// (`def` is `True`), that is `(∃x. v) ∨ (∀x. ¬v)`, which is valid, so
/// the union's membership is `known(∃x. v)` and the connectives around it
/// keep their defined fast paths instead of carrying a valid but
/// quantified `def`.
pub fn member(set: &LocSet, target: &Target, ctx: &mut LowerCtx) -> LBool {
    match set {
        LocSet::Empty => LBool::known(Formula::False),
        LocSet::BufPoint { buf, idx } => match target {
            Target::Buf { buf: tb, coords } if tb == buf => {
                if coords.len() != idx.len() {
                    // rank mismatch on same buffer: treat as unknown
                    // membership (should not happen for well-typed code)
                    return LBool {
                        def: Formula::False,
                        val: Formula::True,
                    };
                }
                let mut def = Vec::new();
                let mut val = Vec::new();
                for (e, c) in idx.iter().zip(coords) {
                    let li = ctx.lower_int(e);
                    def.push(li.def);
                    val.push(Formula::eq(li.val, LinExpr::var(*c)));
                }
                LBool {
                    def: Formula::and(def),
                    val: Formula::and(val),
                }
            }
            _ => LBool::known(Formula::False),
        },
        LocSet::Global(c, f) => match target {
            Target::Global(tc, tf) if tc == c && tf == f => LBool::known(Formula::True),
            _ => LBool::known(Formula::False),
        },
        LocSet::Union(parts) => {
            let mut acc = LBool::known(Formula::False);
            for p in parts.iter() {
                let m = member(p, target, ctx);
                acc = acc.or(m);
            }
            acc
        }
        LocSet::BigUnion { body, .. } if misses(body, target) => LBool::known(Formula::False),
        LocSet::BigUnion { var, body } => {
            // freshen the binder to avoid capture, then quantify:
            //   val  = ∃x. val(p)
            //   def  = (∃x. D p) ∨ (∀x. D ¬p)
            let fresh = var.copy();
            let mut map = HashMap::default();
            map.insert(*var, EffExpr::Var(fresh));
            let body = subst_set(body, &map);
            let m = member(&body, target, ctx);
            if m.is_known() {
                // `def` would be `(∃x. v) ∨ (∀x. ¬v)`, which is valid
                return LBool::known(m.val.exists(fresh));
            }
            let d_true = m.clone().definitely().exists(fresh);
            let d_false = m.clone().negate().definitely().forall(fresh);
            LBool {
                def: Formula::or(vec![d_true, d_false]),
                val: m.val.exists(fresh),
            }
        }
        LocSet::Filter(..) if misses(set, target) => LBool::known(Formula::False),
        LocSet::Filter(cond, body) => {
            let c = ctx.lower_bool(cond);
            let m = member(body, target, ctx);
            c.and(m)
        }
        LocSet::Diff(a, b) => {
            let ma = member(a, target, ctx);
            let mb = member(b, target, ctx);
            ma.and(mb.negate())
        }
        LocSet::DiffBufs(a, bufs) => match target {
            Target::Buf { buf, .. } if bufs.contains(buf) => LBool::known(Formula::False),
            _ => member(a, target, ctx),
        },
    }
}

/// Whether `set` has no point on `target` and every filter condition in
/// it lowers without side effects, so that [`member`] would return
/// `known(False)` having only minted symbols that do not survive.
fn misses(set: &LocSet, target: &Target) -> bool {
    match set {
        LocSet::Empty => true,
        LocSet::BufPoint { buf, .. } => !matches!(target, Target::Buf { buf: tb, .. } if tb == buf),
        LocSet::Global(c, f) => !matches!(target, Target::Global(tc, tf) if tc == c && tf == f),
        LocSet::Union(parts) => parts.iter().all(|p| misses(p, target)),
        LocSet::BigUnion { body, .. } => misses(body, target),
        LocSet::Filter(cond, body) => lowers_purely(cond) && misses(body, target),
        LocSet::Diff(a, b) => misses(a, target) && misses(b, target),
        LocSet::DiffBufs(a, bufs) => {
            matches!(target, Target::Buf { buf, .. } if bufs.contains(buf)) || misses(a, target)
        }
    }
}

/// Whether lowering `e` pushes no side constraint and registers no
/// stride: it has no `Ite`, `/`, `%` or stride.
fn lowers_purely(e: &EffExpr) -> bool {
    match e {
        EffExpr::Ite(..)
        | EffExpr::Stride(..)
        | EffExpr::Bin(exo_core::BinOp::Div | exo_core::BinOp::Mod, ..) => false,
        EffExpr::Bin(_, a, b) => lowers_purely(a) && lowers_purely(b),
        EffExpr::Neg(a) | EffExpr::Not(a) => lowers_purely(a),
        EffExpr::Var(_) | EffExpr::Int(_) | EffExpr::Bool(_) | EffExpr::Unknown => true,
    }
}

/// Substitutes control variables through a set.
pub fn subst_set(set: &LocSet, map: &HashMap<Sym, EffExpr>) -> LocSet {
    let sub = |s: &LocSet, map| Arc::new(subst_set(s, map));
    match set {
        LocSet::Empty => LocSet::Empty,
        LocSet::BufPoint { buf, idx } => LocSet::BufPoint {
            buf: *buf,
            idx: idx.iter().map(|e| e.subst(map)).collect(),
        },
        LocSet::Global(c, f) => LocSet::Global(*c, *f),
        LocSet::Union(parts) => LocSet::Union(parts.iter().map(|p| subst_set(p, map)).collect()),
        LocSet::BigUnion { var, body } => {
            let mut inner = map.clone();
            inner.remove(var);
            LocSet::BigUnion {
                var: *var,
                body: sub(body, &inner),
            }
        }
        LocSet::Filter(c, body) => LocSet::Filter(c.subst(map), sub(body, map)),
        LocSet::Diff(a, b) => LocSet::Diff(sub(a, map), sub(b, map)),
        LocSet::DiffBufs(a, bufs) => LocSet::DiffBufs(sub(a, map), Arc::clone(bufs)),
    }
}

/// Which primitive sets of a [`SetBundle`] to build. A kind that is not
/// asked for stays [`LocSet::Empty`]; the ones asked for are built
/// exactly as when all are.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SetKinds(u8);

impl SetKinds {
    /// Global reads (`Rdg`). Their sequencing rule reads `Wrg`, so they
    /// bring it along.
    pub const RD_G: SetKinds = SetKinds(1 | 2);
    /// Global writes (`Wrg`).
    pub const WR_G: SetKinds = SetKinds(2);
    /// Heap reads (`Rdh`). Their sequencing rule reads `Wrh`, so they
    /// bring it along.
    pub const RD_H: SetKinds = SetKinds(4 | 8);
    /// Heap writes (`Wrh`).
    pub const WR_H: SetKinds = SetKinds(8);
    /// Heap reductions (`R+h`).
    pub const RP_H: SetKinds = SetKinds(16);
    /// Every kind.
    pub const ALL: SetKinds = SetKinds(31);

    /// The kinds of `self` and of `other`.
    pub const fn with(self, other: SetKinds) -> SetKinds {
        SetKinds(self.0 | other.0)
    }

    fn has(self, kind: SetKinds) -> bool {
        self.0 & kind.0 == kind.0
    }
}

/// The bundle of primitive location sets for one effect (Def. 5.5).
#[derive(Clone, Debug)]
pub struct SetBundle {
    /// Global reads.
    pub rd_g: LocSet,
    /// Global writes.
    pub wr_g: LocSet,
    /// Heap (buffer) reads.
    pub rd_h: LocSet,
    /// Heap writes.
    pub wr_h: LocSet,
    /// Heap reductions.
    pub rp_h: LocSet,
    /// Buffers allocated (visible to subsequent statements).
    pub allocs: Vec<Sym>,
}

impl SetBundle {
    fn empty() -> SetBundle {
        SetBundle {
            rd_g: LocSet::Empty,
            wr_g: LocSet::Empty,
            rd_h: LocSet::Empty,
            wr_h: LocSet::Empty,
            rp_h: LocSet::Empty,
            allocs: Vec::new(),
        }
    }

    /// Applies `f` to the primitive sets of the given kinds.
    fn map(self, kinds: SetKinds, mut f: impl FnMut(LocSet) -> LocSet) -> SetBundle {
        let mut g = |kind: SetKinds, s: LocSet| if kinds.has(kind) { f(s) } else { s };
        SetBundle {
            rd_g: g(SetKinds::RD_G, self.rd_g),
            wr_g: g(SetKinds::WR_G, self.wr_g),
            rd_h: g(SetKinds::RD_H, self.rd_h),
            wr_h: g(SetKinds::WR_H, self.wr_h),
            rp_h: g(SetKinds::RP_H, self.rp_h),
            allocs: self.allocs,
        }
    }

    /// `Rd a = Rdg a ∪ Rdh a`.
    pub fn rd(&self) -> LocSet {
        LocSet::union(vec![self.rd_g.clone(), self.rd_h.clone()])
    }

    /// `Wr a = Wrg a ∪ Wrh a`.
    pub fn wr(&self) -> LocSet {
        LocSet::union(vec![self.wr_g.clone(), self.wr_h.clone()])
    }

    /// `R+ a = R+h a − Wrh a` (locations purely reduced).
    pub fn rplus(&self) -> LocSet {
        LocSet::diff(self.rp_h.clone(), self.wr_h.clone())
    }

    /// `Mod a = Wr a ∪ R+ a`.
    pub fn modified(&self) -> LocSet {
        LocSet::union(vec![self.wr(), self.rplus()])
    }

    /// `All a = Rd a ∪ Wr a ∪ R+ a`.
    pub fn all(&self) -> LocSet {
        LocSet::union(vec![self.rd(), self.wr(), self.rplus()])
    }
}

/// Computes the primitive sets of an effect, per Def. 5.5 (including the
/// sequencing rules that mask reads of freshly written locations and
/// anything on freshly allocated buffers). Only the `kinds` asked for are
/// built; the rest are empty.
pub fn sets_of(effect: &Effect, kinds: SetKinds) -> SetBundle {
    match effect {
        Effect::Empty => SetBundle::empty(),
        Effect::Seq(parts) => {
            let mut acc = SetBundle::empty();
            for p in parts {
                let b = sets_of(p, kinds);
                acc = seq_bundles(acc, b);
            }
            acc
        }
        Effect::Guard(c, body) => sets_of(body, kinds).map(kinds, |s| LocSet::filter(c.clone(), s)),
        Effect::Loop { var, lo, hi, body } => {
            let bound = EffExpr::Bin(
                exo_core::BinOp::And,
                Arc::new(lo.clone().le(EffExpr::Var(*var))),
                Arc::new(EffExpr::Var(*var).lt(hi.clone())),
            );
            sets_of(body, kinds).map(kinds, |s| {
                LocSet::big_union(*var, LocSet::filter(bound.clone(), s))
            })
        }
        Effect::GlobalRead(c, f) if kinds.has(SetKinds::RD_G) => SetBundle {
            rd_g: LocSet::Global(*c, *f),
            ..SetBundle::empty()
        },
        Effect::GlobalWrite(c, f) if kinds.has(SetKinds::WR_G) => SetBundle {
            wr_g: LocSet::Global(*c, *f),
            ..SetBundle::empty()
        },
        Effect::Read(b, idx) if kinds.has(SetKinds::RD_H) => SetBundle {
            rd_h: LocSet::point(*b, idx),
            ..SetBundle::empty()
        },
        Effect::Write(b, idx) if kinds.has(SetKinds::WR_H) => SetBundle {
            wr_h: LocSet::point(*b, idx),
            ..SetBundle::empty()
        },
        Effect::Reduce(b, idx) if kinds.has(SetKinds::RP_H) => SetBundle {
            rp_h: LocSet::point(*b, idx),
            ..SetBundle::empty()
        },
        Effect::Alloc(b) => SetBundle {
            allocs: vec![*b],
            ..SetBundle::empty()
        },
        Effect::GlobalRead(..)
        | Effect::GlobalWrite(..)
        | Effect::Read(..)
        | Effect::Write(..)
        | Effect::Reduce(..) => SetBundle::empty(),
    }
}

fn seq_bundles(a1: SetBundle, a2: SetBundle) -> SetBundle {
    // Def. 5.5 sequencing:
    //   Rdg (a1;a2) = Rdg a1 ∪ (Rdg a2 − Wrg a1 − A a1)
    //   Wrg (a1;a2) = Wrg a1 ∪ (Wrg a2 − A a1)
    //   Rdh (a1;a2) = Rdh a1 ∪ (Rdh a2 − Wrh a1 − A a1)
    //   Wrh (a1;a2) = Wrh a1 ∪ (Wrh a2 − A a1)
    //   R+h (a1;a2) = R+h a1 ∪ (R+h a2 − A a1)
    let allocs: Option<Arc<[Sym]>> = (!a1.allocs.is_empty()).then(|| a1.allocs.as_slice().into());
    let mask = |s: LocSet| match &allocs {
        Some(bufs) => LocSet::diff_bufs(s, bufs),
        None => s,
    };
    let rd_g = LocSet::union(vec![a1.rd_g, mask(LocSet::diff(a2.rd_g, a1.wr_g.clone()))]);
    let wr_g = LocSet::union(vec![a1.wr_g, mask(a2.wr_g)]);
    let rd_h = LocSet::union(vec![a1.rd_h, mask(LocSet::diff(a2.rd_h, a1.wr_h.clone()))]);
    let wr_h = LocSet::union(vec![a1.wr_h, mask(a2.wr_h)]);
    let rp_h = LocSet::union(vec![a1.rp_h, mask(a2.rp_h)]);
    let mut allocs = a1.allocs;
    allocs.extend(a2.allocs);
    SetBundle {
        rd_g,
        wr_g,
        rd_h,
        wr_h,
        rp_h,
        allocs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::SharedCheckCtx;
    use exo_smt::solver::{Answer, Solver};

    use crate::effexpr::testgen::{self, Rng, Vocab};
    use crate::effexpr::tests::reference;
    use exo_smt::canon::canonicalize;

    /// Membership as built before the short-circuit: every sub-set is
    /// lowered, with the general connectives. [`member`] must match it.
    fn reference_member(set: &LocSet, target: &Target, ctx: &mut LowerCtx) -> LBool {
        match set {
            LocSet::Union(parts) => {
                let mut acc = LBool::known(Formula::False);
                for p in parts.iter() {
                    acc = reference::or(&acc, &reference_member(p, target, ctx));
                }
                acc
            }
            LocSet::BigUnion { var, body } => {
                let fresh = var.copy();
                let mut map = HashMap::default();
                map.insert(*var, EffExpr::Var(fresh));
                let body = subst_set(body, &map);
                let m = reference_member(&body, target, ctx);
                let d_true = reference::definitely(&m).exists(fresh);
                let d_false = reference::definitely(&reference::negate(&m)).forall(fresh);
                LBool {
                    def: Formula::or(vec![d_true, d_false]),
                    val: m.val.exists(fresh),
                }
            }
            LocSet::Filter(cond, body) => {
                let c = ctx.lower_bool(cond);
                let m = reference_member(body, target, ctx);
                reference::and(&c, &m)
            }
            LocSet::Diff(a, b) => {
                let ma = reference_member(a, target, ctx);
                let mb = reference_member(b, target, ctx);
                reference::and(&ma, &reference::negate(&mb))
            }
            LocSet::DiffBufs(a, bufs) => match target {
                Target::Buf { buf, .. } if bufs.contains(buf) => LBool::known(Formula::False),
                _ => reference_member(a, target, ctx),
            },
            leaf => member(leaf, target, ctx),
        }
    }

    /// A random location set over `v`'s buffers and two globals. Filter
    /// conditions are pure or not at random, so both sides of the
    /// short-circuit's side-effect guard occur.
    fn random_set(rng: &mut Rng, v: &Vocab, globals: &[(Sym, Sym)], depth: usize) -> LocSet {
        if depth == 0 || rng.below(4) == 0 {
            return match rng.below(5) {
                0 => LocSet::Empty,
                1 => LocSet::Global(globals[0].0, rng.pick(globals).1),
                _ => {
                    let rank = 1 + rng.below(2);
                    let pure = rng.below(2) == 0;
                    let idx: Vec<EffExpr> =
                        (0..rank).map(|_| testgen::int(rng, v, 2, pure)).collect();
                    LocSet::point(rng.pick(&v.bufs), &idx)
                }
            };
        }
        let d = depth - 1;
        match rng.below(6) {
            0 => LocSet::union(
                (0..2 + rng.below(2))
                    .map(|_| random_set(rng, v, globals, d))
                    .collect(),
            ),
            1 => LocSet::BigUnion {
                var: rng.pick(&v.ints),
                body: Arc::new(random_set(rng, v, globals, d)),
            },
            2 | 3 => {
                let pure = rng.below(2) == 0;
                let cond = testgen::boolean(rng, v, 3, pure);
                LocSet::filter(cond, random_set(rng, v, globals, d))
            }
            4 => LocSet::diff(
                random_set(rng, v, globals, d),
                random_set(rng, v, globals, d),
            ),
            _ => {
                let bufs: Arc<[Sym]> = [rng.pick(&v.bufs)].as_slice().into();
                LocSet::diff_bufs(random_set(rng, v, globals, d), &bufs)
            }
        }
    }

    /// `val`, the side constraints and `def`, canonically renamed: the two
    /// constructions mint their fresh symbols separately, so they agree up
    /// to those symbols' identities, in the same order. `anchor` names the
    /// symbols both share (the vocabulary and the target's coordinates)
    /// first, so that each gets the same canonical name on both sides
    /// whatever part it first occurs in.
    fn canonical(m: LBool, ctx: &LowerCtx, anchor: &[Sym]) -> [Formula; 3] {
        let anchor = anchor
            .iter()
            .map(|&s| Formula::Atom(exo_smt::formula::Atom::Eq(LinExpr::var(s))))
            .collect();
        let Formula::And(parts) = canonicalize(&Formula::And(vec![
            Formula::And(anchor),
            m.val,
            Formula::And(ctx.side.clone()),
            m.def,
        ])) else {
            unreachable!("canonicalize keeps the shape")
        };
        let [_, val, side, def]: [Formula; 4] =
            parts.try_into().expect("canonicalize keeps the shape");
        [val, side, def]
    }

    /// The short-circuit and the defined fast paths give the value and the
    /// side constraints of the general construction on random sets and
    /// targets, and a `def` the solver proves equivalent under those side
    /// constraints (the `BigUnion` rule writes the valid
    /// `(∃x. v) ∨ (∀x. ¬v)` as `True`).
    #[test]
    fn member_short_circuit_matches_the_general_construction() {
        let v = Vocab::new();
        let cfg = Sym::new("Cfg");
        let globals = [(cfg, Sym::new("a")), (cfg, Sym::new("b"))];
        let mut skipped = 0;
        let mut proved = 0;
        for seed in 0..3_000 {
            let mut rng = Rng::new(seed);
            let set = random_set(&mut rng, &v, &globals, 4);
            let target = match rng.below(3) {
                0 => Target::Global(cfg, rng.pick(&globals).1),
                _ => Target::Buf {
                    buf: rng.pick(&v.bufs),
                    coords: (0..1 + rng.below(2))
                        .map(|d| Sym::new(format!("pt{d}")))
                        .collect(),
                },
            };
            let mut anchor: Vec<Sym> = v.ints.clone();
            if let Target::Buf { coords, .. } = &target {
                anchor.extend(coords);
            }
            skipped += usize::from(misses(&set, &target) && set != LocSet::Empty);
            let mut fast_ctx = LowerCtx::new();
            let fast = member(&set, &target, &mut fast_ctx);
            let mut ref_ctx = LowerCtx::new();
            let general = reference_member(&set, &target, &mut ref_ctx);
            assert_eq!(fast_ctx.side.len(), ref_ctx.side.len(), "seed {seed}");
            let [val, side, def] = canonical(fast, &fast_ctx, &anchor);
            let [ref_val, ref_side, ref_def] = canonical(general, &ref_ctx, &anchor);
            assert_eq!(val, ref_val, "seed {seed}: {set:?}");
            assert_eq!(side, ref_side, "seed {seed}: {set:?}");
            if def != ref_def {
                let same = side.implies(def.clone().iff(ref_def.clone()));
                assert_eq!(
                    Solver::new().check_valid(&same),
                    Answer::Yes,
                    "seed {seed}: {set:?}\n  def {def}\n  ref {ref_def}"
                );
                proved += 1;
            }
        }
        assert!(skipped > 300, "{skipped} sets short-circuited");
        assert!(proved > 40, "{proved} defs differ in spelling");
    }

    /// A loop union over a body whose membership is known is known, with
    /// the general construction's value.
    #[test]
    fn big_union_over_a_known_body_is_known() {
        let a = Sym::new("A");
        let i = Sym::new("i");
        let set = LocSet::big_union(
            i,
            LocSet::filter(
                EffExpr::Int(0)
                    .le(EffExpr::Var(i))
                    .and(EffExpr::Var(i).lt(EffExpr::Int(4))),
                LocSet::point(a, &[EffExpr::Var(i)]),
            ),
        );
        let c = Sym::new("c");
        let tgt = Target::Buf {
            buf: a,
            coords: vec![c],
        };
        let mut ctx = LowerCtx::new();
        let fast = member(&set, &tgt, &mut ctx);
        let mut ref_ctx = LowerCtx::new();
        let general = reference_member(&set, &tgt, &mut ref_ctx);
        assert_eq!(fast.def, Formula::True);
        assert_ne!(general.def, Formula::True, "the reference spells it out");
        let anchor = [i, c];
        assert_eq!(
            canonical(fast, &ctx, &anchor)[0],
            canonical(general, &ref_ctx, &anchor)[0]
        );
    }

    /// A loop union over the empty set is empty, as the other
    /// constructors' unit elimination gives.
    #[test]
    fn big_union_over_empty_is_empty() {
        assert_eq!(
            LocSet::big_union(Sym::new("i"), LocSet::Empty),
            LocSet::Empty
        );
        let eff = Effect::Loop {
            var: Sym::new("i"),
            lo: EffExpr::Int(0),
            hi: EffExpr::Int(4),
            body: Box::new(Effect::Read(Sym::new("A"), vec![EffExpr::Int(0)])),
        };
        let sets = sets_of(&eff, SetKinds::ALL);
        assert!(matches!(sets.rd_h, LocSet::BigUnion { .. }));
        for s in [&sets.rd_g, &sets.wr_g, &sets.wr_h, &sets.rp_h] {
            assert_eq!(s, &LocSet::Empty);
        }
    }

    fn random_effect(rng: &mut Rng, v: &Vocab, globals: &[(Sym, Sym)], depth: usize) -> Effect {
        let idx = |rng: &mut Rng| vec![testgen::int(rng, v, 2, false)];
        if depth == 0 || rng.below(4) == 0 {
            let (c, f) = rng.pick(globals);
            return match rng.below(6) {
                0 => Effect::GlobalRead(c, f),
                1 => Effect::GlobalWrite(c, f),
                2 => Effect::Read(rng.pick(&v.bufs), idx(rng)),
                3 => Effect::Write(rng.pick(&v.bufs), idx(rng)),
                4 => Effect::Reduce(rng.pick(&v.bufs), idx(rng)),
                _ => Effect::Alloc(rng.pick(&v.bufs)),
            };
        }
        let d = depth - 1;
        match rng.below(3) {
            0 => Effect::seq_all(
                (0..2 + rng.below(3))
                    .map(|_| random_effect(rng, v, globals, d))
                    .collect(),
            ),
            1 => Effect::Guard(
                testgen::boolean(rng, v, 2, false),
                Box::new(random_effect(rng, v, globals, d)),
            ),
            _ => Effect::Loop {
                var: rng.pick(&v.ints),
                lo: testgen::int(rng, v, 1, false),
                hi: testgen::int(rng, v, 1, false),
                body: Box::new(random_effect(rng, v, globals, d)),
            },
        }
    }

    /// Building only some kinds gives those kinds exactly as building all
    /// of them does, and leaves the others empty.
    #[test]
    fn set_kinds_build_exactly_the_kinds_asked_for() {
        let v = Vocab::new();
        let cfg = Sym::new("Cfg");
        let globals = [(cfg, Sym::new("a")), (cfg, Sym::new("b"))];
        let kinds = [
            SetKinds::RD_G,
            SetKinds::WR_G,
            SetKinds::RD_H,
            SetKinds::WR_H,
            SetKinds::RP_H,
            SetKinds::WR_G.with(SetKinds::WR_H).with(SetKinds::RP_H),
            SetKinds::RD_G.with(SetKinds::RD_H),
        ];
        for seed in 0..1_000 {
            let mut rng = Rng::new(seed);
            let eff = random_effect(&mut rng, &v, &globals, 4);
            let all = sets_of(&eff, SetKinds::ALL);
            for k in kinds {
                let some = sets_of(&eff, k);
                let field = |kind: SetKinds, got: &LocSet, want: &LocSet| {
                    let want = if k.has(kind) { want } else { &LocSet::Empty };
                    assert_eq!(got, want, "seed {seed}, kinds {k:?}");
                };
                field(SetKinds::RD_G, &some.rd_g, &all.rd_g);
                field(SetKinds::WR_G, &some.wr_g, &all.wr_g);
                field(SetKinds::RD_H, &some.rd_h, &all.rd_h);
                field(SetKinds::WR_H, &some.wr_h, &all.wr_h);
                field(SetKinds::RP_H, &some.rp_h, &all.rp_h);
                assert_eq!(some.allocs, all.allocs);
            }
        }
    }

    fn solve_valid(ctx: &LowerCtx, goal: Formula) -> Answer {
        let s = SharedCheckCtx::fresh();
        s.check_valid(ctx.assumptions().implies(goal))
    }

    #[test]
    fn point_membership() {
        let b = Sym::new("A");
        let set = LocSet::point(b, &[EffExpr::Int(3)]);
        let c = Sym::new("c");
        let tgt = Target::Buf {
            buf: b,
            coords: vec![c],
        };
        let mut ctx = LowerCtx::new();
        let m = member(&set, &tgt, &mut ctx);
        // membership holds exactly when c == 3
        let s = SharedCheckCtx::fresh();
        let is_three = Formula::eq(LinExpr::var(c), LinExpr::constant(3));
        assert_eq!(s.check_valid(m.definitely().iff(is_three)), Answer::Yes);
    }

    #[test]
    fn different_buffers_never_member() {
        let a = Sym::new("A");
        let b = Sym::new("B");
        let set = LocSet::point(a, &[EffExpr::Int(0)]);
        let tgt = Target::Buf {
            buf: b,
            coords: vec![Sym::new("c")],
        };
        let mut ctx = LowerCtx::new();
        let m = member(&set, &tgt, &mut ctx);
        assert_eq!(m.val, Formula::False);
    }

    #[test]
    fn big_union_membership_is_existential() {
        // ⋃_i filter(0 ≤ i < 4, {A, 2·i}) contains exactly even c ∈ [0,8)
        let a = Sym::new("A");
        let i = Sym::new("i");
        let set = LocSet::BigUnion {
            var: i,
            body: Arc::new(LocSet::filter(
                EffExpr::Int(0)
                    .le(EffExpr::Var(i))
                    .and(EffExpr::Var(i).lt(EffExpr::Int(4))),
                LocSet::point(
                    a,
                    &[EffExpr::bin(
                        exo_core::BinOp::Mul,
                        EffExpr::Int(2),
                        EffExpr::Var(i),
                    )],
                ),
            )),
        };
        let c = Sym::new("c");
        let tgt = Target::Buf {
            buf: a,
            coords: vec![c],
        };
        let mut ctx = LowerCtx::new();
        let m = member(&set, &tgt, &mut ctx);
        let s = SharedCheckCtx::fresh();
        // c = 6 is in
        let at6 = m.clone().definitely().subst(c, &LinExpr::constant(6));
        assert_eq!(s.check_valid(ctx.assumptions().implies(at6)), Answer::Yes);
        // c = 5 is out, c = 8 is out
        for v in [5, 8] {
            let at = m.clone().maybe().subst(c, &LinExpr::constant(v)).negate();
            assert_eq!(
                s.check_valid(ctx.assumptions().implies(at)),
                Answer::Yes,
                "c = {v}"
            );
        }
    }

    #[test]
    fn filter_with_unknown_is_maybe() {
        let a = Sym::new("A");
        let set = LocSet::filter(EffExpr::Unknown, LocSet::point(a, &[EffExpr::Int(0)]));
        let c = Sym::new("c");
        let tgt = Target::Buf {
            buf: a,
            coords: vec![c],
        };
        let mut ctx = LowerCtx::new();
        let m = member(&set, &tgt, &mut ctx);
        // at c = 0: not definitely in, but maybe in
        let d = m.clone().definitely().subst(c, &LinExpr::constant(0));
        let mm = m.maybe().subst(c, &LinExpr::constant(0));
        assert_eq!(solve_valid(&ctx, d), Answer::No);
        assert_eq!(solve_valid(&ctx, mm), Answer::Yes);
    }

    #[test]
    fn alloc_masking_hides_fresh_buffers() {
        // effect: alloc t; read t[0]; read A[0]
        let t = Sym::new("t");
        let a = Sym::new("A");
        let eff = Effect::seq_all(vec![
            Effect::Alloc(t),
            Effect::Read(t, vec![EffExpr::Int(0)]),
            Effect::Read(a, vec![EffExpr::Int(0)]),
        ]);
        let sets = sets_of(&eff, SetKinds::ALL);
        // t's read is masked (it is a fresh allocation); A's read is not
        let ct = Sym::new("ct");
        let mut ctx = LowerCtx::new();
        let m_t = member(
            &sets.rd(),
            &Target::Buf {
                buf: t,
                coords: vec![ct],
            },
            &mut ctx,
        );
        assert_eq!(solve_valid(&ctx, m_t.maybe().negate()), Answer::Yes);
        let ca = Sym::new("ca");
        let m_a = member(
            &sets.rd(),
            &Target::Buf {
                buf: a,
                coords: vec![ca],
            },
            &mut ctx,
        );
        let at0 = m_a.definitely().subst(ca, &LinExpr::constant(0));
        assert_eq!(solve_valid(&ctx, at0), Answer::Yes);
    }

    #[test]
    fn read_after_write_masked_in_seq() {
        // A[0] = …; x = A[0]  ⇒  the sequence does not *read* A[0] from
        // the initial store
        let a = Sym::new("A");
        let eff = Effect::seq_all(vec![
            Effect::Write(a, vec![EffExpr::Int(0)]),
            Effect::Read(a, vec![EffExpr::Int(0)]),
            Effect::Read(a, vec![EffExpr::Int(1)]),
        ]);
        let sets = sets_of(&eff, SetKinds::ALL);
        let c = Sym::new("c");
        let mut ctx = LowerCtx::new();
        let m = member(
            &sets.rd(),
            &Target::Buf {
                buf: a,
                coords: vec![c],
            },
            &mut ctx,
        );
        let at0 = m.clone().maybe().subst(c, &LinExpr::constant(0)).negate();
        assert_eq!(
            solve_valid(&ctx, at0),
            Answer::Yes,
            "read of A[0] is masked"
        );
        let at1 = m.definitely().subst(c, &LinExpr::constant(1));
        assert_eq!(solve_valid(&ctx, at1), Answer::Yes, "read of A[1] remains");
    }

    #[test]
    fn reduce_not_in_write_set() {
        let a = Sym::new("A");
        let eff = Effect::Reduce(a, vec![EffExpr::Int(0)]);
        let sets = sets_of(&eff, SetKinds::ALL);
        let c = Sym::new("c");
        let mut ctx = LowerCtx::new();
        let mw = member(
            &sets.wr(),
            &Target::Buf {
                buf: a,
                coords: vec![c],
            },
            &mut ctx,
        );
        assert_eq!(solve_valid(&ctx, mw.maybe().negate()), Answer::Yes);
        let mr = member(
            &sets.rplus(),
            &Target::Buf {
                buf: a,
                coords: vec![c],
            },
            &mut ctx,
        );
        let at0 = mr.definitely().subst(c, &LinExpr::constant(0));
        assert_eq!(solve_valid(&ctx, at0), Answer::Yes);
    }
}
