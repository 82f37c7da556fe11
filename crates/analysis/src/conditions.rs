//! Safety conditions for program rewrites (paper §5.7–5.8).
//!
//! Each condition is built as a classical [`Formula`] over the free
//! control variables of the procedure; the scheduling layer conjoins the
//! site's assumptions (procedure preconditions, enclosing loop bounds and
//! guards) and asks the solver for validity. An `Unknown` answer fails
//! safe: the rewrite is rejected.

use exo_core::hash::HashMap;
use exo_core::Sym;
use exo_smt::formula::Formula;

use crate::affine::{affine, defined, Affine};
use crate::effects::Effect;
use crate::effexpr::{EffExpr, LowerCtx};
use crate::locset::{member, sets_of, LocSet, SetBundle, SetKinds, Target};

/// Builds `∀ shared targets. ¬(M(t ∈ a) ∧ M(t ∈ b))` — the sets are
/// definitely disjoint.
pub fn disjoint(a: &LocSet, b: &LocSet, ctx: &mut LowerCtx) -> Formula {
    let mut bufs_a = HashMap::default();
    let mut globals_a = Vec::new();
    a.collect_targets(&mut bufs_a, &mut globals_a);
    let mut bufs_b = HashMap::default();
    let mut globals_b = Vec::new();
    b.collect_targets(&mut bufs_b, &mut globals_b);

    let mut parts = Vec::new();
    for (&buf, &rank_a) in &bufs_a {
        let Some(&rank_b) = bufs_b.get(&buf) else {
            continue;
        };
        let rank = rank_a.max(rank_b);
        let coords: Vec<Sym> = (0..rank).map(|d| Sym::new(format!("pt{d}"))).collect();
        let tgt = Target::Buf {
            buf,
            coords: coords.clone(),
        };
        let ma = member(a, &tgt, ctx);
        let mb = member(b, &tgt, ctx);
        let mut f = Formula::and(vec![ma.maybe(), mb.maybe()]).negate();
        for c in coords.into_iter().rev() {
            f = f.forall(c);
        }
        parts.push(f);
    }
    for g in &globals_a {
        if globals_b.contains(g) {
            let tgt = Target::Global(g.0, g.1);
            let ma = member(a, &tgt, ctx);
            let mb = member(b, &tgt, ctx);
            parts.push(Formula::and(vec![ma.maybe(), mb.maybe()]).negate());
        }
    }
    Formula::and(parts)
}

/// `Commutes a₁ a₂` (Def. 5.6): non-interference of effects, with the
/// exception that two reductions into the same location commute.
pub fn commutes(a1: &Effect, a2: &Effect, ctx: &mut LowerCtx) -> Formula {
    let s1 = sets_of(a1, SetKinds::ALL);
    let s2 = sets_of(a2, SetKinds::ALL);
    commutes_sets(&s1, &s2, ctx)
}

/// `Commutes` on precomputed set bundles.
pub fn commutes_sets(s1: &SetBundle, s2: &SetBundle, ctx: &mut LowerCtx) -> Formula {
    Formula::and(vec![
        disjoint(&s1.wr(), &s2.all(), ctx),
        disjoint(&s2.wr(), &s1.all(), ctx),
        disjoint(&s1.rplus(), &s2.rd(), ctx),
        disjoint(&s2.rplus(), &s1.rd(), ctx),
    ])
}

/// `Shadows a₁ a₂` (Def. 5.7): every location possibly modified by `a₁`
/// is definitely overwritten — and not read — by `a₂`, so `a₁;a₂ ≡ a₂`.
pub fn shadows(a1: &Effect, a2: &Effect, ctx: &mut LowerCtx) -> Formula {
    let s1 = sets_of(a1, SetKinds::WR_G.with(SetKinds::WR_H).with(SetKinds::RP_H));
    let s2 = sets_of(a2, SetKinds::RD_G.with(SetKinds::RD_H));
    let m1 = s1.modified();
    let rd2 = s2.rd();
    let wr2 = s2.wr();

    let mut bufs = HashMap::default();
    let mut globals = Vec::new();
    m1.collect_targets(&mut bufs, &mut globals);

    let mut parts = Vec::new();
    for (&buf, &rank) in &bufs {
        let coords: Vec<Sym> = (0..rank).map(|d| Sym::new(format!("sh{d}"))).collect();
        let tgt = Target::Buf {
            buf,
            coords: coords.clone(),
        };
        let m_mod = member(&m1, &tgt, ctx);
        let m_rd = member(&rd2, &tgt, ctx);
        let m_wr = member(&wr2, &tgt, ctx);
        let mut f = m_mod
            .maybe()
            .implies(Formula::and(vec![m_rd.maybe().negate(), m_wr.definitely()]));
        for c in coords.into_iter().rev() {
            f = f.forall(c);
        }
        parts.push(f);
    }
    for g in &globals {
        let tgt = Target::Global(g.0, g.1);
        let m_mod = member(&m1, &tgt, ctx);
        let m_rd = member(&rd2, &tgt, ctx);
        let m_wr = member(&wr2, &tgt, ctx);
        parts.push(
            m_mod
                .maybe()
                .implies(Formula::and(vec![m_rd.maybe().negate(), m_wr.definitely()])),
        );
    }
    Formula::and(parts)
}

/// Every point of the rectangular `window` of `buf` (one half-open
/// `(lo, hi)` per dimension) is definitely written by `a`.
pub fn overwrites(
    a: &Effect,
    buf: Sym,
    window: &[(EffExpr, EffExpr)],
    ctx: &mut LowerCtx,
) -> Formula {
    let coords: Vec<Sym> = (0..window.len())
        .map(|d| Sym::new(format!("ow{d}")))
        .collect();
    let mut inside = Vec::new();
    for ((lo, hi), &c) in window.iter().zip(&coords) {
        let pt = EffExpr::Var(c);
        inside.push(
            ctx.lower_bool(&lo.clone().le(pt.clone()).and(pt.lt(hi.clone())))
                .maybe(),
        );
    }
    let tgt = Target::Buf {
        buf,
        coords: coords.clone(),
    };
    let wr = sets_of(a, SetKinds::WR_G.with(SetKinds::WR_H)).wr();
    let written = member(&wr, &tgt, ctx).definitely();
    let f = Formula::and(inside).implies(written);
    coords.into_iter().rev().fold(f, Formula::forall)
}

/// Ternary in-bounds predicate `Bd(x) = lo ≤ x < hi`.
pub fn bd(var: Sym, lo: &EffExpr, hi: &EffExpr) -> EffExpr {
    lo.clone()
        .le(EffExpr::Var(var))
        .and(EffExpr::Var(var).lt(hi.clone()))
}

/// Condition for reordering two perfectly nested loops
/// `for x do for y do s ~> for y do for x do s` (§5.8): the loop bounds
/// must commute with the body, and any iteration pair that changes
/// relative order must commute.
///
/// When [`reorder_commutes`] proves the condition from the body's
/// location sets, the goal is the literal `True` and nothing is lowered;
/// otherwise it is the full formula, which the solver decides.
pub fn loop_reorder(
    x: Sym,
    x_bounds: (&EffExpr, &EffExpr),
    y: Sym,
    y_bounds: (&EffExpr, &EffExpr),
    bounds_effect: &Effect,
    body: &Effect,
    ctx: &mut LowerCtx,
) -> Formula {
    if reorder_commutes(x, y, bounds_effect, body) {
        return Formula::True;
    }
    reorder_formula(x, x_bounds, y, y_bounds, bounds_effect, body, ctx)
}

/// The §5.8 reordering condition as a formula, built in full.
pub(crate) fn reorder_formula(
    x: Sym,
    x_bounds: (&EffExpr, &EffExpr),
    y: Sym,
    y_bounds: (&EffExpr, &EffExpr),
    bounds_effect: &Effect,
    body: &Effect,
    ctx: &mut LowerCtx,
) -> Formula {
    // condition 1: ∀x,y. M Bd(x,y) ⇒ Commutes(aₓ;a_y, a)
    let bd_xy = bd(x, x_bounds.0, x_bounds.1).and(bd(y, y_bounds.0, y_bounds.1));
    let m_bd = ctx.lower_bool(&bd_xy).maybe();
    let c1 = m_bd.implies(commutes(bounds_effect, body, ctx));

    // condition 2: reordered iteration pairs commute
    let x2 = x.copy();
    let y2 = y.copy();
    let mut map = HashMap::default();
    map.insert(x, EffExpr::Var(x2));
    map.insert(y, EffExpr::Var(y2));
    let body2 = body.subst(&map);
    let bd2 = bd(x2, x_bounds.0, x_bounds.1).and(bd(y2, y_bounds.0, y_bounds.1));
    let order = EffExpr::Var(x)
        .lt(EffExpr::Var(x2))
        .and(EffExpr::Var(y2).lt(EffExpr::Var(y)));
    let hyp = ctx.lower_bool(&bd_xy.and(bd2).and(order)).maybe();
    let c2 = hyp.implies(commutes(body, &body2, ctx));

    Formula::and(vec![c1, c2])
}

/// A sound, incomplete dependence test for [`loop_reorder`]: `true` only
/// if the §5.8 condition holds, `false` for "don't know".
///
/// Condition 1 holds when the bounds effect names no buffer or global
/// the body names. Condition 2 asks that the body at `(x, y)` commute
/// with the body at `(x′, y′)` whenever `x < x′` and `y′ < y`: each
/// conflicting pair of points (`Wr × All` and `R+ × Rd`, both ways)
/// must differ. Two points on different buffers always differ. Two
/// points on one buffer differ if some coordinate reads the same affine
/// form `a·x + b·y + …` in both (so their difference across the two
/// iterations is `a(x − x′) + b(y − y′)`), mentions no loop-union binder
/// of its set, and has `(a, b) ≠ (0, 0)` with `a·b ≤ 0`: then
/// `x − x′ < 0 < y − y′` makes the difference non-zero. The form is the
/// same for both orders of a pair, so one test covers both directions.
///
/// Membership reads a point as possibly everywhere when one of its
/// coordinates may be undefined (⊥, `Ite`, a non-literal factor or
/// divisor) or its rank differs from the largest rank its buffer has in
/// the sets compared, so such a point, or any point on a buffer seen at
/// two ranks, differs from nothing here.
///
/// A global write in the body leaves the test undecided: it is a
/// conflict of its own, and it could change a global an index reads.
/// Filters and the subtrahend of a difference are dropped, which only
/// adds points; a buffer mask drops its buffers' points, as membership
/// does.
fn reorder_commutes(x: Sym, y: Sym, bounds_effect: &Effect, body: &Effect) -> bool {
    let sets = sets_of(body, SetKinds::ALL);
    if sets.wr_g != LocSet::Empty {
        return false;
    }
    let bounds = sets_of(bounds_effect, SetKinds::ALL);
    if shares_name(&bounds.all(), &sets.all()) {
        return false;
    }
    let points = |set: &LocSet| {
        let mut out = Vec::new();
        collect_points(set, &mut Vec::new(), &mut Vec::new(), &mut out);
        out
    };
    let wr = points(&sets.wr_h);
    let rd = points(&sets.rd_h);
    let rp = points(&sets.rp_h);
    let all: Vec<&Point> = rd.iter().chain(&wr).chain(&rp).collect();
    let mut ranks = HashMap::default();
    for set in [&sets.rd_h, &sets.wr_h, &sets.rp_h] {
        note_ranks(set, &mut ranks);
    }
    let apart = |p: &Point, q: &Point| {
        p.buf != q.buf || (ranks.get(&p.buf).is_some_and(Option::is_some) && differs(p, q, x, y))
    };
    wr.iter().all(|p| all.iter().all(|q| apart(p, q)))
        && rp.iter().all(|p| rd.iter().all(|q| apart(p, q)))
}

/// Whether two sets name a common buffer or global.
fn shares_name(a: &LocSet, b: &LocSet) -> bool {
    let (mut bufs_a, mut globals_a) = (HashMap::default(), Vec::new());
    a.collect_targets(&mut bufs_a, &mut globals_a);
    if bufs_a.is_empty() && globals_a.is_empty() {
        return false;
    }
    let (mut bufs_b, mut globals_b) = (HashMap::default(), Vec::new());
    b.collect_targets(&mut bufs_b, &mut globals_b);
    bufs_a.keys().any(|buf| bufs_b.contains_key(buf))
        || globals_a.iter().any(|g| globals_b.contains(g))
}

/// Records the rank of every buffer point of `set`, subtracted and
/// masked ones included (they count towards the rank of a membership
/// target); `None` marks a buffer seen at two ranks.
fn note_ranks(set: &LocSet, ranks: &mut HashMap<Sym, Option<usize>>) {
    match set {
        LocSet::Empty | LocSet::Global(..) => {}
        LocSet::BufPoint { buf, idx } => {
            let r = ranks.entry(*buf).or_insert(Some(idx.len()));
            if *r != Some(idx.len()) {
                *r = None;
            }
        }
        LocSet::Union(parts) => parts.iter().for_each(|p| note_ranks(p, ranks)),
        LocSet::BigUnion { body, .. } | LocSet::Filter(_, body) | LocSet::DiffBufs(body, _) => {
            note_ranks(body, ranks)
        }
        LocSet::Diff(a, b) => {
            note_ranks(a, ranks);
            note_ranks(b, ranks);
        }
    }
}

/// A buffer point of a set: whether every coordinate lowers defined,
/// and each coordinate as its affine form, or `None` where it is not
/// affine or mentions a binder of a loop union around the point.
struct Point {
    buf: Sym,
    defined: bool,
    coords: Vec<Option<Affine>>,
}

/// Collects the buffer points of `set` that survive the masks around
/// them, with the loop-union `binders` around each.
fn collect_points(
    set: &LocSet,
    binders: &mut Vec<Sym>,
    masks: &mut Vec<Sym>,
    out: &mut Vec<Point>,
) {
    match set {
        LocSet::Empty | LocSet::Global(..) => {}
        LocSet::BufPoint { buf, idx } => {
            if masks.contains(buf) {
                return;
            }
            let coords = idx
                .iter()
                .map(|e| affine(e).filter(|a| !binders.iter().any(|&v| a.coef(v) != 0)))
                .collect();
            out.push(Point {
                buf: *buf,
                defined: idx.iter().all(defined),
                coords,
            });
        }
        LocSet::Union(parts) => {
            for p in parts.iter() {
                collect_points(p, binders, masks, out);
            }
        }
        LocSet::BigUnion { var, body } => {
            binders.push(*var);
            collect_points(body, binders, masks, out);
            binders.pop();
        }
        LocSet::Filter(_, body) | LocSet::Diff(body, _) => {
            collect_points(body, binders, masks, out)
        }
        LocSet::DiffBufs(body, bufs) => {
            let depth = masks.len();
            masks.extend(bufs.iter());
            collect_points(body, binders, masks, out);
            masks.truncate(depth);
        }
    }
}

/// Whether `p` at `(x, y)` and `q` at `(x′, y′)` provably differ for all
/// `x < x′` and `y′ < y` (see [`reorder_commutes`]).
fn differs(p: &Point, q: &Point, x: Sym, y: Sym) -> bool {
    p.defined
        && q.defined
        && p.coords.len() == q.coords.len()
        && p.coords.iter().zip(&q.coords).any(|(a, b)| match (a, b) {
            (Some(a), Some(b)) if a == b => {
                let (cx, cy) = (a.coef(x), a.coef(y));
                (cx, cy) != (0, 0) && cx.checked_mul(cy).is_some_and(|c| c <= 0)
            }
            _ => false,
        })
}

/// Condition for loop fission/fusion
/// `for x do s₁;s₂ ⇌ (for x do s₁); (for x do s₂)` (§5.8).
pub fn loop_fission(
    x: Sym,
    bounds: (&EffExpr, &EffExpr),
    bounds_effect: &Effect,
    s1: &Effect,
    s2: &Effect,
    ctx: &mut LowerCtx,
) -> Formula {
    // condition 1: bounds commute with s₁ while in bounds
    let m_bd = ctx.lower_bool(&bd(x, bounds.0, bounds.1)).maybe();
    let c1 = m_bd.implies(commutes(bounds_effect, s1, ctx));

    // condition 2: s₁(x) commutes with s₂(x') for earlier iterations x' < x
    let x2 = x.copy();
    let mut map = HashMap::default();
    map.insert(x, EffExpr::Var(x2));
    let s2_prev = s2.subst(&map);
    let hyp_e = bd(x, bounds.0, bounds.1)
        .and(bd(x2, bounds.0, bounds.1))
        .and(EffExpr::Var(x2).lt(EffExpr::Var(x)));
    let hyp = ctx.lower_bool(&hyp_e).maybe();
    let c2 = hyp.implies(commutes(s1, &s2_prev, ctx));

    Formula::and(vec![c1, c2])
}

/// Condition for loop removal `for x do s ~> s` (§5.8): the loop must
/// definitely run at least once and the body must be idempotent
/// (`Shadows(a, a)`); the caller separately checks that `x` is not free
/// in `s`.
pub fn loop_remove(
    x: Sym,
    bounds: (&EffExpr, &EffExpr),
    body: &Effect,
    ctx: &mut LowerCtx,
) -> Formula {
    let d_bd = ctx
        .lower_bool(&bd(x, bounds.0, bounds.1))
        .definitely()
        .exists(x);
    Formula::and(vec![d_bd, shadows(body, body, ctx)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::SharedCheckCtx;
    use exo_smt::solver::Answer;

    fn check(ctx: &LowerCtx, goal: &Formula) -> Answer {
        let s = SharedCheckCtx::fresh();
        s.check_valid(ctx.assumptions().implies(goal.clone()))
    }

    fn idx(i: i64) -> Vec<EffExpr> {
        vec![EffExpr::Int(i)]
    }

    #[test]
    fn disjoint_writes_commute() {
        let a = Sym::new("A");
        let e1 = Effect::Write(a, idx(0));
        let e2 = Effect::Write(a, idx(1));
        let mut ctx = LowerCtx::new();
        let f = commutes(&e1, &e2, &mut ctx);
        assert_eq!(check(&ctx, &f), Answer::Yes);
    }

    #[test]
    fn overlapping_write_read_do_not_commute() {
        let a = Sym::new("A");
        let e1 = Effect::Write(a, idx(0));
        let e2 = Effect::Read(a, idx(0));
        let mut ctx = LowerCtx::new();
        let f = commutes(&e1, &e2, &mut ctx);
        assert_eq!(check(&ctx, &f), Answer::No);
    }

    #[test]
    fn reductions_commute_with_each_other() {
        let a = Sym::new("A");
        let e1 = Effect::Reduce(a, idx(0));
        let e2 = Effect::Reduce(a, idx(0));
        let mut ctx = LowerCtx::new();
        let f = commutes(&e1, &e2, &mut ctx);
        assert_eq!(check(&ctx, &f), Answer::Yes);
    }

    #[test]
    fn reduction_does_not_commute_with_read() {
        let a = Sym::new("A");
        let e1 = Effect::Reduce(a, idx(0));
        let e2 = Effect::Read(a, idx(0));
        let mut ctx = LowerCtx::new();
        let f = commutes(&e1, &e2, &mut ctx);
        assert_eq!(check(&ctx, &f), Answer::No);
    }

    #[test]
    fn different_buffers_commute() {
        let a = Sym::new("A");
        let b = Sym::new("B");
        let e1 = Effect::Write(a, idx(0));
        let e2 = Effect::Write(b, idx(0));
        let mut ctx = LowerCtx::new();
        let f = commutes(&e1, &e2, &mut ctx);
        assert_eq!(check(&ctx, &f), Answer::Yes);
    }

    #[test]
    fn symbolic_tile_disjointness() {
        // writes at 16·io + ii vs reads at 16·jo + ji with (io,ii) ≠ (jo,ji)
        // bounded — commute only when tiles differ; as free variables they
        // may alias, so the unconditional query must fail
        let a = Sym::new("A");
        let io = Sym::new("io");
        let jo = Sym::new("jo");
        let tile_idx = |o: Sym| {
            vec![EffExpr::bin(
                exo_core::BinOp::Mul,
                EffExpr::Int(16),
                EffExpr::Var(o),
            )]
        };
        let e1 = Effect::Write(a, tile_idx(io));
        let e2 = Effect::Read(a, tile_idx(jo));
        let mut ctx = LowerCtx::new();
        let f = commutes(&e1, &e2, &mut ctx);
        // without constraints io may equal jo → refutable
        assert_eq!(check(&ctx, &f), Answer::No);
        // under io ≠ jo the condition holds
        let hyp = Formula::eq(
            exo_smt::linear::LinExpr::var(io),
            exo_smt::linear::LinExpr::var(jo),
        )
        .negate();
        let s = SharedCheckCtx::fresh();
        let goal = Formula::and(vec![hyp, ctx.assumptions()]).implies(f);
        assert_eq!(s.check_valid(goal), Answer::Yes);
    }

    #[test]
    fn shadows_full_overwrite() {
        // s1 writes A[i] for i in 0..4; s2 writes A[i] for i in 0..4 too
        let a = Sym::new("A");
        let i = Sym::new("i");
        let mk = || Effect::Loop {
            var: i,
            lo: EffExpr::Int(0),
            hi: EffExpr::Int(4),
            body: Box::new(Effect::Write(a, vec![EffExpr::Var(i)])),
        };
        let mut ctx = LowerCtx::new();
        let f = shadows(&mk(), &mk(), &mut ctx);
        assert_eq!(check(&ctx, &f), Answer::Yes);
    }

    #[test]
    fn shadows_partial_overwrite_fails() {
        // s1 writes A[0..4]; s2 writes only A[0..2]
        let a = Sym::new("A");
        let i = Sym::new("i");
        let mk = |hi: i64| Effect::Loop {
            var: i,
            lo: EffExpr::Int(0),
            hi: EffExpr::Int(hi),
            body: Box::new(Effect::Write(a, vec![EffExpr::Var(i)])),
        };
        let mut ctx = LowerCtx::new();
        let f = shadows(&mk(4), &mk(2), &mut ctx);
        assert_eq!(check(&ctx, &f), Answer::No);
    }

    #[test]
    fn shadows_rejects_read_of_modified() {
        // s2 reads what s1 wrote before overwriting
        let a = Sym::new("A");
        let e1 = Effect::Write(a, idx(0));
        let e2 = Effect::seq(Effect::Read(a, idx(0)), Effect::Write(a, idx(0)));
        let mut ctx = LowerCtx::new();
        let f = shadows(&e1, &e2, &mut ctx);
        assert_eq!(check(&ctx, &f), Answer::No);
    }

    #[test]
    fn config_write_shadows_config_write() {
        let c = Sym::new("Cfg");
        let fld = Sym::new("s");
        let e = Effect::GlobalWrite(c, fld);
        let mut ctx = LowerCtx::new();
        let f = shadows(&e, &e, &mut ctx);
        assert_eq!(check(&ctx, &f), Answer::Yes);
    }

    #[test]
    fn loop_remove_requires_nonempty_and_idempotent() {
        let a = Sym::new("A");
        let i = Sym::new("i");
        // body writes A[0] (no dependence on i): idempotent
        let body = Effect::Write(a, idx(0));
        let mut ctx = LowerCtx::new();
        let f = loop_remove(i, (&EffExpr::Int(0), &EffExpr::Int(4)), &body, &mut ctx);
        assert_eq!(check(&ctx, &f), Answer::Yes);
        // possibly-empty loop: 0..n for free n — must fail
        let n = Sym::new("n");
        let mut ctx2 = LowerCtx::new();
        let f2 = loop_remove(i, (&EffExpr::Int(0), &EffExpr::Var(n)), &body, &mut ctx2);
        assert_eq!(check(&ctx2, &f2), Answer::No);
        // reduce body: not idempotent
        let body3 = Effect::Reduce(a, idx(0));
        let mut ctx3 = LowerCtx::new();
        let f3 = loop_remove(i, (&EffExpr::Int(0), &EffExpr::Int(4)), &body3, &mut ctx3);
        assert_eq!(check(&ctx3, &f3), Answer::No);
    }

    #[test]
    fn loop_reorder_independent_iterations() {
        // for i: for j: A[i, j] = … — iterations touch disjoint points
        let a = Sym::new("A");
        let i = Sym::new("i");
        let j = Sym::new("j");
        let body = Effect::Write(a, vec![EffExpr::Var(i), EffExpr::Var(j)]);
        let mut ctx = LowerCtx::new();
        let f = loop_reorder(
            i,
            (&EffExpr::Int(0), &EffExpr::Int(8)),
            j,
            (&EffExpr::Int(0), &EffExpr::Int(8)),
            &Effect::Empty,
            &body,
            &mut ctx,
        );
        assert_eq!(check(&ctx, &f), Answer::Yes);
    }

    #[test]
    fn loop_reorder_carried_dependence_fails() {
        // for i: for j: A[j] = A[j-ish] pattern — body writes A[j] and
        // reads A[i]: reordering pairs (i<i', j'<j) write/read alias
        let a = Sym::new("A");
        let i = Sym::new("i");
        let j = Sym::new("j");
        let body = Effect::seq(
            Effect::Read(a, vec![EffExpr::Var(i)]),
            Effect::Write(a, vec![EffExpr::Var(j)]),
        );
        let mut ctx = LowerCtx::new();
        let f = loop_reorder(
            i,
            (&EffExpr::Int(0), &EffExpr::Int(8)),
            j,
            (&EffExpr::Int(0), &EffExpr::Int(8)),
            &Effect::Empty,
            &body,
            &mut ctx,
        );
        assert_eq!(check(&ctx, &f), Answer::No);
    }

    use crate::effexpr::testgen::Rng;

    fn v(x: Sym) -> EffExpr {
        EffExpr::Var(x)
    }

    fn mul(c: i64, e: EffExpr) -> EffExpr {
        EffExpr::bin(exo_core::BinOp::Mul, EffExpr::Int(c), e)
    }

    /// The names a random nest draws from: the two loops, an inner loop
    /// binder, a variable shared by both iterations (an enclosing loop or
    /// a size), a canonical global, three buffers and a configuration
    /// field.
    struct Nest {
        x: Sym,
        y: Sym,
        k: Sym,
        z: Sym,
        cfg: Sym,
        bufs: [Sym; 3],
        field: (Sym, Sym),
    }

    impl Nest {
        fn new() -> Nest {
            Nest {
                x: Sym::new("x"),
                y: Sym::new("y"),
                k: Sym::new("k"),
                z: Sym::new("z"),
                cfg: Sym::new("Cfg_s"),
                bufs: ["A", "B", "C"].map(Sym::new),
                field: (Sym::new("Cfg"), Sym::new("s")),
            }
        }

        /// One index coordinate: mostly an affine form over `x`, `y`,
        /// the binder (inside an inner loop), `z` and an offset, with
        /// coefficients of either sign and in several spellings;
        /// sometimes a form the test cannot read.
        fn coord(&self, rng: &mut Rng, in_loop: bool) -> EffExpr {
            let odd = match rng.below(16) {
                0 => Some(EffExpr::Unknown),
                1 => Some(EffExpr::Stride(self.bufs[0], 0)),
                2 => Some(EffExpr::bin(
                    exo_core::BinOp::Div,
                    v(self.x),
                    EffExpr::Int(2),
                )),
                3 => Some(EffExpr::bin(
                    exo_core::BinOp::Mod,
                    v(self.x).add(v(self.y)),
                    EffExpr::Int(2),
                )),
                4 => Some(EffExpr::ite(v(self.x).lt(v(self.y)), v(self.x), v(self.y))),
                5 => Some(EffExpr::bin(exo_core::BinOp::Mul, v(self.x), v(self.y))),
                _ => None,
            };
            if let Some(e) = odd {
                return e;
            }
            let mut terms = Vec::new();
            let coef = |rng: &mut Rng| [-2, -1, 0, 0, 1, 1, 2][rng.below(7)];
            for (var, c) in [
                (self.x, coef(rng)),
                (self.y, coef(rng)),
                (self.k, if in_loop { coef(rng) } else { 0 }),
                (self.z, i64::from(rng.below(4) == 0)),
                (self.cfg, i64::from(rng.below(6) == 0)),
            ] {
                let term = match (c, rng.below(3)) {
                    (0, _) => continue,
                    (1, _) => v(var),
                    (-1, 0) => EffExpr::neg(v(var)),
                    (c, 0) => EffExpr::bin(exo_core::BinOp::Mul, v(var), EffExpr::Int(c)),
                    (c, _) => mul(c, v(var)),
                };
                terms.push(term);
            }
            let off = rng.below(3) as i64 - 1;
            let mut e = EffExpr::Int(off);
            for t in terms {
                e = if rng.below(4) == 0 {
                    EffExpr::bin(exo_core::BinOp::Sub, e, EffExpr::neg(t))
                } else {
                    e.add(t)
                };
            }
            e
        }

        /// One access on one of the first `nbufs` buffers, of rank 1 or 2
        /// by buffer (`A` and `C` rank 1, `B` rank 2), sometimes the
        /// other rank.
        fn access(&self, rng: &mut Rng, nbufs: usize, in_loop: bool) -> Effect {
            let b = rng.below(nbufs);
            let rank = if b == 1 { 2 } else { 1 };
            let rank = if rng.below(12) == 0 { 3 - rank } else { rank };
            let idx = (0..rank).map(|_| self.coord(rng, in_loop)).collect();
            match rng.below(3) {
                0 => Effect::Read(self.bufs[b], idx),
                1 => Effect::Write(self.bufs[b], idx),
                _ => Effect::Reduce(self.bufs[b], idx),
            }
        }

        /// A body of one to four parts: accesses, guarded accesses, an
        /// inner loop over `k ∈ [0, 2)`, configuration reads and writes,
        /// and allocations that mask the accesses after them.
        fn body(&self, rng: &mut Rng) -> Effect {
            let nbufs = 1 + rng.below(3);
            let parts = (0..1 + rng.below(4))
                .map(|_| match rng.below(12) {
                    0 => Effect::Loop {
                        var: self.k,
                        lo: EffExpr::Int(0),
                        hi: EffExpr::Int(2),
                        body: Box::new(self.access(rng, nbufs, true)),
                    },
                    1 => Effect::Guard(
                        v(self.x).lt(v(self.y).add(EffExpr::Int(1))),
                        Box::new(self.access(rng, nbufs, false)),
                    ),
                    2 => Effect::GlobalRead(self.field.0, self.field.1),
                    3 if rng.below(2) == 0 => Effect::GlobalWrite(self.field.0, self.field.1),
                    4 => Effect::Alloc(self.bufs[rng.below(nbufs)]),
                    _ => self.access(rng, nbufs, false),
                })
                .collect();
            Effect::Seq(parts)
        }

        /// The effect of the inner loop's bounds: usually none, sometimes
        /// a configuration read or a read of a buffer.
        fn bounds_effect(&self, rng: &mut Rng) -> Effect {
            match rng.below(8) {
                0 => Effect::GlobalRead(self.field.0, self.field.1),
                1 => Effect::Read(self.bufs[2], vec![EffExpr::Int(0)]),
                _ => Effect::Empty,
            }
        }

        /// Decides one reorder both ways: the dependence test, and the
        /// full formula on a fresh context.
        fn decide(
            &self,
            hi: (&EffExpr, &EffExpr),
            bounds: &Effect,
            body: &Effect,
        ) -> (bool, Answer) {
            let mut ctx = LowerCtx::new();
            let zero = EffExpr::Int(0);
            let f = reorder_formula(
                self.x,
                (&zero, hi.0),
                self.y,
                (&zero, hi.1),
                bounds,
                body,
                &mut ctx,
            );
            (
                reorder_commutes(self.x, self.y, bounds, body),
                check(&ctx, &f),
            )
        }
    }

    /// Whenever the dependence test decides a reorder, the full §5.8
    /// formula, decided by the solver, is valid too.
    #[test]
    fn every_decided_reorder_is_confirmed_by_the_solver() {
        let nest = Nest::new();
        let extents = [EffExpr::Int(2), EffExpr::Int(3), v(Sym::new("n"))];
        let mut decided = 0;
        let cases = 3000;
        for seed in 0..cases {
            let mut rng = Rng::new(seed);
            let hx = extents[rng.below(3)].clone();
            let hy = extents[rng.below(3)].clone();
            let bounds = nest.bounds_effect(&mut rng);
            let body = nest.body(&mut rng);
            if !reorder_commutes(nest.x, nest.y, &bounds, &body) {
                continue;
            }
            decided += 1;
            let (_, answer) = nest.decide((&hx, &hy), &bounds, &body);
            assert_eq!(
                answer,
                Answer::Yes,
                "seed {seed}: decided over x < {hx:?}, y < {hy:?}\nbounds {bounds:?}\nbody {body:?}"
            );
        }
        // the oracle tests something: a fair share of the cases is decided
        assert!(decided * 10 > cases, "{decided} of {cases} decided");
    }

    /// The shapes the case-study reorders pose, each decided, and near
    /// misses the test leaves to the solver, which refutes or proves them.
    #[test]
    fn case_study_reorders_and_near_misses() {
        let nest = Nest::new();
        let (x, y, k, z) = (nest.x, nest.y, nest.k, nest.z);
        let [a, b, c] = nest.bufs;
        let (two, four) = (EffExpr::Int(2), EffExpr::Int(4));
        let hi = (&four, &two);
        let tile = |o: Sym, i: Sym| mul(16, v(o)).add(v(i));
        let decided = [
            // a Gemmini stage-loop copy: res[ld0, 16*cl1o + cl1i] = src[…]
            Effect::seq(
                Effect::Read(b, vec![v(x), tile(z, y)]),
                Effect::Write(a, vec![v(x), tile(z, y)]),
            ),
            // a matmul body: reads, one reduction into another buffer
            Effect::seq(
                Effect::seq(Effect::Read(a, vec![v(x)]), Effect::Read(c, vec![v(y)])),
                Effect::Reduce(b, vec![v(x), v(y)]),
            ),
            // an inner loop writes a row of its own iteration
            Effect::Loop {
                var: k,
                lo: EffExpr::Int(0),
                hi: EffExpr::Int(2),
                body: Box::new(Effect::Write(b, vec![v(y).add(v(z)), v(k)])),
            },
            // x − y separates the iterations, whatever z is
            Effect::Write(a, vec![v(x).add(EffExpr::neg(v(y))).add(v(z))]),
            // a write to a buffer allocated earlier in the body
            Effect::seq(Effect::Alloc(c), Effect::Write(c, vec![EffExpr::Int(0)])),
        ];
        for body in &decided {
            let (test, answer) = nest.decide(hi, &Effect::Empty, body);
            assert!(test, "{body:?}");
            assert_eq!(answer, Answer::Yes, "{body:?}");
        }
        let refuted = [
            // a·b > 0: x + y meets x′ + y′
            Effect::Write(a, vec![v(x).add(v(y))]),
            // the binder does not cancel: x + k meets x′ + k′
            Effect::Loop {
                var: k,
                lo: EffExpr::Int(0),
                hi: EffExpr::Int(2),
                body: Box::new(Effect::Write(a, vec![v(x).add(v(k))])),
            },
            // a configuration write conflicts with itself
            Effect::seq(
                Effect::GlobalWrite(nest.field.0, nest.field.1),
                Effect::Write(a, vec![v(x), v(y)]),
            ),
            // a write read back across iterations: A[x] meets A[y′]
            Effect::seq(Effect::Write(a, vec![v(x)]), Effect::Read(a, vec![v(y)])),
            // a masked write of another rank widens the membership
            // target, so A[x] reads as possibly everywhere
            Effect::Seq(vec![
                Effect::Write(a, vec![v(x)]),
                Effect::Alloc(a),
                Effect::Write(a, vec![v(x), v(y)]),
            ]),
            // a reduction read at the same point: the forms differ in ⊥
            Effect::seq(
                Effect::Reduce(b, vec![v(x), v(y)]),
                Effect::Read(b, vec![v(x), EffExpr::Unknown]),
            ),
        ];
        for body in &refuted {
            let (test, answer) = nest.decide(hi, &Effect::Empty, body);
            assert!(!test, "{body:?}");
            assert_eq!(answer, Answer::No, "{body:?}");
        }
        let proved = [
            // 2x + y with y ∈ [0, 2): a·b > 0, yet the solver proves it
            Effect::Write(a, vec![mul(2, v(x)).add(v(y))]),
            // the bounds read C[0]; the body writes C[x − y + 8] only
            Effect::Write(c, vec![v(x).add(EffExpr::neg(v(y))).add(EffExpr::Int(8))]),
        ];
        let bounds = [Effect::Empty, Effect::Read(c, vec![EffExpr::Int(0)])];
        for (body, bounds) in proved.iter().zip(&bounds) {
            let (test, answer) = nest.decide(hi, bounds, body);
            assert!(!test, "{body:?}");
            assert_eq!(answer, Answer::Yes, "{body:?}");
        }
    }

    #[test]
    fn loop_fission_independent_statements() {
        // for i: { A[i] = …; B[i] = … } fissions
        let a = Sym::new("A");
        let b = Sym::new("B");
        let i = Sym::new("i");
        let s1 = Effect::Write(a, vec![EffExpr::Var(i)]);
        let s2 = Effect::Write(b, vec![EffExpr::Var(i)]);
        let mut ctx = LowerCtx::new();
        let f = loop_fission(
            i,
            (&EffExpr::Int(0), &EffExpr::Int(8)),
            &Effect::Empty,
            &s1,
            &s2,
            &mut ctx,
        );
        assert_eq!(check(&ctx, &f), Answer::Yes);
    }

    #[test]
    fn loop_fission_forward_dependence_ok_backward_fails() {
        let a = Sym::new("A");
        let i = Sym::new("i");
        // s1: A[i] = …; s2: reads A[i] (same iteration) — fission is fine
        let s1 = Effect::Write(a, vec![EffExpr::Var(i)]);
        let s2 = Effect::Read(a, vec![EffExpr::Var(i)]);
        let mut ctx = LowerCtx::new();
        let f = loop_fission(
            i,
            (&EffExpr::Int(0), &EffExpr::Int(8)),
            &Effect::Empty,
            &s1,
            &s2,
            &mut ctx,
        );
        assert_eq!(check(&ctx, &f), Answer::Yes);

        // s2 reads A[i+1] (next iteration's write) — fission unsafe
        let s2b = Effect::Read(a, vec![EffExpr::Var(i).add(EffExpr::Int(1))]);
        let mut ctx2 = LowerCtx::new();
        let f2 = loop_fission(
            i,
            (&EffExpr::Int(0), &EffExpr::Int(8)),
            &Effect::Empty,
            &s1,
            &s2b,
            &mut ctx2,
        );
        assert_eq!(check(&ctx2, &f2), Answer::No);
    }
}
