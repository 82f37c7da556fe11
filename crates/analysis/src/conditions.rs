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
pub fn loop_reorder(
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
