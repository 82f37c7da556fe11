//! Location sets (paper §5.4–5.5): symbolic abstractions of sets of
//! store locations, with ternary membership and the definitely/maybe
//! collapses.
//!
//! Because effect expressions are three-valued, a location set carries an
//! upper and a lower bound on the real set: points definitely in, points
//! definitely out, and a penumbra. `D`/`M` collapse membership back to
//! classical formulas for the solver.

use exo_core::hash::HashMap;
use exo_core::Sym;
use exo_smt::formula::Formula;
use exo_smt::linear::LinExpr;

use crate::effects::Effect;
use crate::effexpr::{EffExpr, LBool, LowerCtx};

/// A symbolic set of store locations.
#[derive(Clone, PartialEq, Debug)]
pub enum LocSet {
    /// The empty set.
    Empty,
    /// One buffer point `{x, ee*}`.
    BufPoint {
        /// Buffer symbol.
        buf: Sym,
        /// Symbolic coordinates.
        idx: Vec<EffExpr>,
    },
    /// One global (configuration field).
    Global(Sym, Sym),
    /// Finite union.
    Union(Vec<LocSet>),
    /// Union over all integer values of a variable (`⋃ₓ L`); bounds are
    /// expressed by `Filter`s inside the body.
    BigUnion {
        /// Bound variable.
        var: Sym,
        /// Body set.
        body: Box<LocSet>,
    },
    /// Restriction by a ternary condition (`filter(ee, L)`).
    Filter(EffExpr, Box<LocSet>),
    /// Set difference.
    Diff(Box<LocSet>, Box<LocSet>),
    /// Removal of every point on the named buffers (allocation masking,
    /// `L − A(a)`).
    DiffBufs(Box<LocSet>, Vec<Sym>),
}

impl LocSet {
    /// Finite union with unit elimination.
    pub fn union(parts: Vec<LocSet>) -> LocSet {
        let mut out = Vec::new();
        for p in parts {
            match p {
                LocSet::Empty => {}
                LocSet::Union(inner) => out.extend(inner),
                p => out.push(p),
            }
        }
        match out.len() {
            0 => LocSet::Empty,
            1 => out.pop().unwrap_or(LocSet::Empty),
            _ => LocSet::Union(out),
        }
    }

    /// Difference with unit elimination.
    pub fn diff(a: LocSet, b: LocSet) -> LocSet {
        match (&a, &b) {
            (LocSet::Empty, _) => LocSet::Empty,
            (_, LocSet::Empty) => a,
            _ => LocSet::Diff(Box::new(a), Box::new(b)),
        }
    }

    /// Buffer-name masking with unit elimination.
    pub fn diff_bufs(a: LocSet, bufs: Vec<Sym>) -> LocSet {
        if bufs.is_empty() || a == LocSet::Empty {
            a
        } else {
            LocSet::DiffBufs(Box::new(a), bufs)
        }
    }

    /// Filtering with unit elimination.
    pub fn filter(cond: EffExpr, a: LocSet) -> LocSet {
        match a {
            LocSet::Empty => LocSet::Empty,
            a => LocSet::Filter(cond, Box::new(a)),
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
            for p in parts {
                let m = member(p, target, ctx);
                acc = acc.or(&m);
            }
            acc
        }
        LocSet::BigUnion { var, body } => {
            // freshen the binder to avoid capture, then quantify:
            //   val  = ∃x. val(p)
            //   def  = (∃x. D p) ∨ (∀x. D ¬p)
            let fresh = var.copy();
            let mut map = HashMap::default();
            map.insert(*var, EffExpr::Var(fresh));
            let body = subst_set(body, &map);
            let m = member(&body, target, ctx);
            let d_true = m.definitely().exists(fresh);
            let d_false = m.negate().definitely().forall(fresh);
            LBool {
                def: Formula::or(vec![d_true, d_false]),
                val: m.val.exists(fresh),
            }
        }
        LocSet::Filter(cond, body) => {
            let c = ctx.lower_bool(cond);
            let m = member(body, target, ctx);
            c.and(&m)
        }
        LocSet::Diff(a, b) => {
            let ma = member(a, target, ctx);
            let mb = member(b, target, ctx);
            ma.and(&mb.negate())
        }
        LocSet::DiffBufs(a, bufs) => match target {
            Target::Buf { buf, .. } if bufs.contains(buf) => LBool::known(Formula::False),
            _ => member(a, target, ctx),
        },
    }
}

/// Substitutes control variables through a set.
pub fn subst_set(set: &LocSet, map: &HashMap<Sym, EffExpr>) -> LocSet {
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
                body: Box::new(subst_set(body, &inner)),
            }
        }
        LocSet::Filter(c, body) => LocSet::Filter(c.subst(map), Box::new(subst_set(body, map))),
        LocSet::Diff(a, b) => {
            LocSet::Diff(Box::new(subst_set(a, map)), Box::new(subst_set(b, map)))
        }
        LocSet::DiffBufs(a, bufs) => LocSet::DiffBufs(Box::new(subst_set(a, map)), bufs.clone()),
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
/// anything on freshly allocated buffers).
pub fn sets_of(effect: &Effect) -> SetBundle {
    match effect {
        Effect::Empty => SetBundle::empty(),
        Effect::Seq(parts) => {
            let mut acc = SetBundle::empty();
            for p in parts {
                let b = sets_of(p);
                acc = seq_bundles(acc, b);
            }
            acc
        }
        Effect::Guard(c, body) => {
            let b = sets_of(body);
            SetBundle {
                rd_g: LocSet::filter(c.clone(), b.rd_g),
                wr_g: LocSet::filter(c.clone(), b.wr_g),
                rd_h: LocSet::filter(c.clone(), b.rd_h),
                wr_h: LocSet::filter(c.clone(), b.wr_h),
                rp_h: LocSet::filter(c.clone(), b.rp_h),
                allocs: b.allocs,
            }
        }
        Effect::Loop { var, lo, hi, body } => {
            let b = sets_of(body);
            let bound = EffExpr::Bin(
                exo_core::BinOp::And,
                Box::new(lo.clone().le(EffExpr::Var(*var))),
                Box::new(EffExpr::Var(*var).lt(hi.clone())),
            );
            let wrap = |s: LocSet| LocSet::BigUnion {
                var: *var,
                body: Box::new(LocSet::filter(bound.clone(), s)),
            };
            SetBundle {
                rd_g: wrap(b.rd_g),
                wr_g: wrap(b.wr_g),
                rd_h: wrap(b.rd_h),
                wr_h: wrap(b.wr_h),
                rp_h: wrap(b.rp_h),
                allocs: b.allocs,
            }
        }
        Effect::GlobalRead(c, f) => SetBundle {
            rd_g: LocSet::Global(*c, *f),
            ..SetBundle::empty()
        },
        Effect::GlobalWrite(c, f) => SetBundle {
            wr_g: LocSet::Global(*c, *f),
            ..SetBundle::empty()
        },
        Effect::Read(b, idx) => SetBundle {
            rd_h: LocSet::BufPoint {
                buf: *b,
                idx: idx.clone(),
            },
            ..SetBundle::empty()
        },
        Effect::Write(b, idx) => SetBundle {
            wr_h: LocSet::BufPoint {
                buf: *b,
                idx: idx.clone(),
            },
            ..SetBundle::empty()
        },
        Effect::Reduce(b, idx) => SetBundle {
            rp_h: LocSet::BufPoint {
                buf: *b,
                idx: idx.clone(),
            },
            ..SetBundle::empty()
        },
        Effect::Alloc(b) => SetBundle {
            allocs: vec![*b],
            ..SetBundle::empty()
        },
    }
}

fn seq_bundles(a1: SetBundle, a2: SetBundle) -> SetBundle {
    // Def. 5.5 sequencing:
    //   Rdg (a1;a2) = Rdg a1 ∪ (Rdg a2 − Wrg a1 − A a1)
    //   Wrg (a1;a2) = Wrg a1 ∪ (Wrg a2 − A a1)
    //   Rdh (a1;a2) = Rdh a1 ∪ (Rdh a2 − Wrh a1 − A a1)
    //   Wrh (a1;a2) = Wrh a1 ∪ (Wrh a2 − A a1)
    //   R+h (a1;a2) = R+h a1 ∪ (R+h a2 − A a1)
    let mask = |s: LocSet| LocSet::diff_bufs(s, a1.allocs.clone());
    let rd_g = LocSet::union(vec![
        a1.rd_g.clone(),
        mask(LocSet::diff(a2.rd_g, a1.wr_g.clone())),
    ]);
    let wr_g = LocSet::union(vec![a1.wr_g, mask(a2.wr_g)]);
    let rd_h = LocSet::union(vec![
        a1.rd_h.clone(),
        mask(LocSet::diff(a2.rd_h, a1.wr_h.clone())),
    ]);
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
    use exo_smt::solver::Answer;

    fn solve_valid(ctx: &LowerCtx, goal: Formula) -> Answer {
        let s = SharedCheckCtx::process();
        s.check_valid(&ctx.assumptions().implies(goal))
    }

    #[test]
    fn point_membership() {
        let b = Sym::new("A");
        let set = LocSet::BufPoint {
            buf: b,
            idx: vec![EffExpr::Int(3)],
        };
        let c = Sym::new("c");
        let tgt = Target::Buf {
            buf: b,
            coords: vec![c],
        };
        let mut ctx = LowerCtx::new();
        let m = member(&set, &tgt, &mut ctx);
        // membership holds exactly when c == 3
        let s = SharedCheckCtx::process();
        let is_three = Formula::eq(LinExpr::var(c), LinExpr::constant(3));
        assert_eq!(s.check_valid(&m.definitely().iff(is_three)), Answer::Yes);
    }

    #[test]
    fn different_buffers_never_member() {
        let a = Sym::new("A");
        let b = Sym::new("B");
        let set = LocSet::BufPoint {
            buf: a,
            idx: vec![EffExpr::Int(0)],
        };
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
            body: Box::new(LocSet::filter(
                EffExpr::Int(0)
                    .le(EffExpr::Var(i))
                    .and(EffExpr::Var(i).lt(EffExpr::Int(4))),
                LocSet::BufPoint {
                    buf: a,
                    idx: vec![EffExpr::bin(
                        exo_core::BinOp::Mul,
                        EffExpr::Int(2),
                        EffExpr::Var(i),
                    )],
                },
            )),
        };
        let c = Sym::new("c");
        let tgt = Target::Buf {
            buf: a,
            coords: vec![c],
        };
        let mut ctx = LowerCtx::new();
        let m = member(&set, &tgt, &mut ctx);
        let s = SharedCheckCtx::process();
        // c = 6 is in
        let at6 = m.definitely().subst(c, &LinExpr::constant(6));
        assert_eq!(s.check_valid(&ctx.assumptions().implies(at6)), Answer::Yes);
        // c = 5 is out, c = 8 is out
        for v in [5, 8] {
            let at = m.maybe().subst(c, &LinExpr::constant(v)).negate();
            assert_eq!(
                s.check_valid(&ctx.assumptions().implies(at)),
                Answer::Yes,
                "c = {v}"
            );
        }
    }

    #[test]
    fn filter_with_unknown_is_maybe() {
        let a = Sym::new("A");
        let set = LocSet::filter(
            EffExpr::Unknown,
            LocSet::BufPoint {
                buf: a,
                idx: vec![EffExpr::Int(0)],
            },
        );
        let c = Sym::new("c");
        let tgt = Target::Buf {
            buf: a,
            coords: vec![c],
        };
        let mut ctx = LowerCtx::new();
        let m = member(&set, &tgt, &mut ctx);
        // at c = 0: not definitely in, but maybe in
        let d = m.definitely().subst(c, &LinExpr::constant(0));
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
        let sets = sets_of(&eff);
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
        let sets = sets_of(&eff);
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
        let at0 = m.maybe().subst(c, &LinExpr::constant(0)).negate();
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
        let sets = sets_of(&eff);
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
