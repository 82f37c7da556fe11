//! Loop-carried dependence / race detection (the tentpole analysis).
//!
//! For a candidate loop `for x in [lo, hi): s`, the detector asks
//! whether two *distinct* iterations can interfere. The per-iteration
//! effect of `s` is flattened into primitive access atoms (buffer,
//! index, enclosing guards and effect-loop binders); any cross-iteration
//! conflict must be between one atom of iteration `x` and one atom of a
//! symbolically distinct iteration `x′`, so each conflicting pair
//! becomes one small satisfiability probe under the hypothesis
//! `Bd(x) ∧ Bd(x′) ∧ x ≠ x′` (both iterations in bounds and distinct),
//! with the second copy alpha-freshened. Buffers allocated inside the
//! body are iteration-private and erased first. The verdict lattice:
//!
//! * **`Parallel`** — every conflicting pair is *refuted*: no location
//!   is touched by two iterations in any conflicting mode. A plain
//!   `#pragma omp parallel for` is sound.
//! * **`ReductionParallel`** — all non-reduction pairs are refuted, but
//!   distinct iterations may `+=` into the same location. Reduction is
//!   commutative and associative for the analysis (paper Def. 5.6), so
//!   the loop parallelizes with an OpenMP `reduction(+:…)` clause over
//!   the conflicting buffers.
//! * **`Sequential`** — some pair was *confirmed* (it comes with a
//!   concrete [`Witness`]: the pair of accesses shown to collide) or
//!   could not be refuted. `Unknown` answers always land here — the
//!   lattice only ever degrades toward `Sequential`, never toward
//!   `Parallel` (fail-safe, chaos-tested).
//!
//! Each probe is decided by the cheapest of three steps, every one of
//! which answers exactly what the solver would:
//!
//! 1. **Refuted before lowering.** The probe's hypotheses (the site's,
//!    the pair hypothesis, both access contexts) narrow one interval per
//!    variable ([`exo_analysis::interval::Env`]). An empty box, or a
//!    coordinate whose two affine forms differ at every point of it
//!    ([`never_equal`]: ZIV, strong SIV with a bounded residual, GCD),
//!    answers `No`.
//! 2. **Confirmed by a model.** Otherwise the probe is lowered, and
//!    [`SiteQuery::sat`] evaluates the whole conjunction at `x = lo`,
//!    `x′ = lo + 1` (either way round) with every other variable at an
//!    end of its interval; a point that satisfies it answers `Yes`.
//! 3. **Decided by the solver.** Whatever is left is canonicalized and
//!    cached through [`SharedCheckCtx`], shared with the scheduler.
//!
//! Decomposing into per-pair probes (instead of one monolithic
//! `Commutes` validity goal over the whole body effect) keeps each probe
//! small enough for the first two steps, and the solver's within its
//! work limits even for fully scheduled kernels. On the case-study
//! kernels the first two steps decide every probe, so linting them poses
//! no check query.

use std::fmt;

use exo_analysis::affine::never_equal;
use exo_analysis::conditions::bd;
use exo_analysis::context::SiteQuery;
use exo_analysis::interval::Env;
use exo_analysis::{EffExpr, Effect, GlobalReg, LowerCtx, SharedCheckCtx};
use exo_core::hash::{HashMap, HashSet};
use exo_core::ir::{BinOp, Stmt};
use exo_core::path::{stmt_at, visit_paths, StmtPath};
use exo_core::{Proc, Sym};
use exo_smt::solver::Answer;

/// An error from the analysis driver itself (bad path, not a loop).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LintError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for LintError {}

fn lerr(msg: impl Into<String>) -> LintError {
    LintError {
        message: msg.into(),
    }
}

/// How an access touches a location.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessKind {
    /// Plain read.
    Read,
    /// Overwrite.
    Write,
    /// Commutative `+=` reduction.
    Reduce,
}

impl AccessKind {
    /// Lower-case name for rendering and JSON.
    pub fn name(self) -> &'static str {
        match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
            AccessKind::Reduce => "reduce",
        }
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A confirmed pair of conflicting accesses from distinct iterations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Witness {
    /// Buffer both accesses touch.
    pub buf: Sym,
    /// Access in iteration `x`.
    pub first: AccessKind,
    /// Rendered index of the first access.
    pub first_idx: String,
    /// Access in the distinct iteration `x′`.
    pub second: AccessKind,
    /// Rendered index of the second access.
    pub second_idx: String,
    /// The loop iteration variable the conflict is carried by.
    pub iter: Sym,
}

impl fmt::Display for Witness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}[{}] in iteration {} can collide with {} {}[{}] in a distinct iteration",
            self.first,
            self.buf.name(),
            self.first_idx,
            self.iter.name(),
            self.second,
            self.buf.name(),
            self.second_idx,
        )
    }
}

/// The dependence verdict lattice (top to bottom: most to least
/// parallel; `Unknown` solver answers always collapse downward).
#[derive(Clone, PartialEq, Debug)]
pub enum LoopVerdict {
    /// Distinct iterations are fully independent.
    Parallel,
    /// Iterations only conflict through `+=` reductions into the listed
    /// buffers; parallel with a reduction clause.
    ReductionParallel {
        /// Buffers reduced into by multiple iterations.
        bufs: Vec<Sym>,
    },
    /// A loop-carried dependence exists (with witness when the solver
    /// confirmed a concrete colliding pair) or could not be ruled out.
    Sequential {
        /// Confirmed conflicting access pair, if one was found.
        witness: Option<Witness>,
    },
}

impl LoopVerdict {
    /// Short name for tables and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            LoopVerdict::Parallel => "parallel",
            LoopVerdict::ReductionParallel { .. } => "reduction-parallel",
            LoopVerdict::Sequential { .. } => "sequential",
        }
    }

    /// Whether `parallelize` may accept this loop.
    pub fn is_parallelizable(&self) -> bool {
        !matches!(self, LoopVerdict::Sequential { .. })
    }
}

/// Renders a symbolic index expression for witness messages.
pub(crate) fn render_effexpr(e: &EffExpr) -> String {
    match e {
        EffExpr::Var(s) => s.name().to_string(),
        EffExpr::Int(i) => i.to_string(),
        EffExpr::Bool(b) => b.to_string(),
        EffExpr::Unknown => "⊥".to_string(),
        EffExpr::Bin(op, a, b) => {
            let o = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "/",
                BinOp::Mod => "%",
                BinOp::And => "and",
                BinOp::Or => "or",
                BinOp::Lt => "<",
                BinOp::Le => "<=",
                BinOp::Gt => ">",
                BinOp::Ge => ">=",
                BinOp::Eq => "==",
            };
            format!("({} {o} {})", render_effexpr(a), render_effexpr(b))
        }
        EffExpr::Neg(a) => format!("-{}", render_effexpr(a)),
        EffExpr::Not(a) => format!("not {}", render_effexpr(a)),
        EffExpr::Ite(c, t, e) => format!(
            "({} ? {} : {})",
            render_effexpr(c),
            render_effexpr(t),
            render_effexpr(e)
        ),
        EffExpr::Stride(b, d) => format!("stride({}, {d})", b.name()),
    }
}

fn render_idx(idx: &[EffExpr]) -> String {
    let parts: Vec<String> = idx.iter().map(render_effexpr).collect();
    parts.join(", ")
}

/// Collects every buffer allocated *inside* the effect — those are
/// created afresh each iteration, so accesses to them can never carry a
/// dependence across iterations.
fn allocated_in(eff: &Effect, out: &mut HashSet<Sym>) {
    match eff {
        Effect::Seq(parts) => {
            for p in parts {
                allocated_in(p, out);
            }
        }
        Effect::Guard(_, e) | Effect::Loop { body: e, .. } => allocated_in(e, out),
        Effect::Alloc(b) => {
            out.insert(*b);
        }
        _ => {}
    }
}

/// Drops all accesses to iteration-private buffers from the effect.
/// Sound for cross-iteration analysis: a buffer allocated in the body is
/// a fresh object each iteration, so its accesses cannot collide with
/// any other iteration's.
fn privatize(eff: &Effect, private: &HashSet<Sym>) -> Effect {
    match eff {
        Effect::Seq(parts) => {
            Effect::seq_all(parts.iter().map(|p| privatize(p, private)).collect())
        }
        Effect::Guard(c, e) => match privatize(e, private) {
            Effect::Empty => Effect::Empty,
            inner => Effect::Guard(c.clone(), Box::new(inner)),
        },
        Effect::Loop { var, lo, hi, body } => match privatize(body, private) {
            Effect::Empty => Effect::Empty,
            inner => Effect::Loop {
                var: *var,
                lo: lo.clone(),
                hi: hi.clone(),
                body: Box::new(inner),
            },
        },
        Effect::Read(b, _) | Effect::Write(b, _) | Effect::Reduce(b, _) | Effect::Alloc(b)
            if private.contains(b) =>
        {
            Effect::Empty
        }
        other => other.clone(),
    }
}

/// One primitive access inside an effect, with enough enclosing
/// context (guards and effect-loop binders) to re-pose it to the solver.
#[derive(Clone, Debug)]
struct Atom {
    kind: AccessKind,
    buf: Sym,
    /// For configuration accesses: the field (the pair `(buf, field)`
    /// names one global cell, and two atoms only collide on equal pairs).
    field: Option<Sym>,
    idx: Vec<EffExpr>,
    /// Guard conditions and binder-bound predicates on the path to the
    /// access, as one conjunction of ternary expressions.
    ctx: Vec<EffExpr>,
    /// Effect-loop binders enclosing the access (for freshening).
    binders: Vec<Sym>,
}

fn collect_atoms(
    eff: &Effect,
    ctx: &mut Vec<EffExpr>,
    binders: &mut Vec<Sym>,
    out: &mut Vec<Atom>,
) {
    match eff {
        Effect::Seq(parts) => {
            for p in parts {
                collect_atoms(p, ctx, binders, out);
            }
        }
        Effect::Empty | Effect::Alloc(_) => {}
        Effect::Guard(c, e) => {
            ctx.push(c.clone());
            collect_atoms(e, ctx, binders, out);
            ctx.pop();
        }
        Effect::Loop { var, lo, hi, body } => {
            ctx.push(bd(*var, lo, hi));
            binders.push(*var);
            collect_atoms(body, ctx, binders, out);
            binders.pop();
            ctx.pop();
        }
        Effect::GlobalRead(c, f) => out.push(Atom {
            kind: AccessKind::Read,
            buf: *c,
            field: Some(*f),
            idx: Vec::new(),
            ctx: ctx.clone(),
            binders: binders.clone(),
        }),
        Effect::GlobalWrite(c, f) => out.push(Atom {
            kind: AccessKind::Write,
            buf: *c,
            field: Some(*f),
            idx: Vec::new(),
            ctx: ctx.clone(),
            binders: binders.clone(),
        }),
        Effect::Read(b, idx) => out.push(Atom {
            kind: AccessKind::Read,
            buf: *b,
            field: None,
            idx: idx.clone(),
            ctx: ctx.clone(),
            binders: binders.clone(),
        }),
        Effect::Write(b, idx) => out.push(Atom {
            kind: AccessKind::Write,
            buf: *b,
            field: None,
            idx: idx.clone(),
            ctx: ctx.clone(),
            binders: binders.clone(),
        }),
        Effect::Reduce(b, idx) => out.push(Atom {
            kind: AccessKind::Reduce,
            buf: *b,
            field: None,
            idx: idx.clone(),
            ctx: ctx.clone(),
            binders: binders.clone(),
        }),
    }
}

/// Whether a pair of access kinds can violate `Commutes` (reductions
/// commute with each other, reads commute with reads).
fn conflicting(a: AccessKind, b: AccessKind) -> bool {
    !matches!(
        (a, b),
        (AccessKind::Read, AccessKind::Read) | (AccessKind::Reduce, AccessKind::Reduce)
    )
}

/// The probe of `a1` in iteration `x` against `a2` in a distinct
/// iteration `x′`, with `a2`'s copy alpha-freshened (`x ↦ x′`, inner
/// effect-loop binders renamed) so the two iterations are unrelated.
struct Pair {
    /// `a2`'s substituted index.
    idx2: Vec<EffExpr>,
    /// The pair hypothesis `Bd(x) ∧ Bd(x′) ∧ x ≠ x′`, then both access
    /// contexts, as conjuncts.
    hyps: Vec<EffExpr>,
}

impl Pair {
    fn new(a1: &Atom, a2: &Atom, x: Sym, x2: Sym, (lo, hi): (&EffExpr, &EffExpr)) -> Pair {
        let mut map: HashMap<Sym, EffExpr> = HashMap::default();
        map.insert(x, EffExpr::Var(x2));
        for b in &a2.binders {
            map.insert(*b, EffExpr::Var(b.copy()));
        }
        let mut hyps = vec![
            bd(x, lo, hi),
            bd(x2, lo, hi),
            EffExpr::not(EffExpr::Var(x).eq(EffExpr::Var(x2))),
        ];
        hyps.extend(a1.ctx.iter().cloned());
        hyps.extend(a2.ctx.iter().map(|e| e.subst(&map)));
        Pair {
            idx2: a2.idx.iter().map(|e| e.subst(&map)).collect(),
            hyps,
        }
    }

    /// The probe as one ternary conjunction: the hypotheses and the
    /// equality of the two indices.
    fn conj(&self, a1: &Atom) -> EffExpr {
        let eqs = a1.idx.iter().zip(&self.idx2);
        self.hyps
            .iter()
            .cloned()
            .chain(eqs.map(|(e1, e2)| e1.clone().eq(e2.clone())))
            .reduce(EffExpr::and)
            .unwrap_or(EffExpr::Bool(true))
    }
}

/// How a probe was answered.
struct Probe {
    answer: Answer,
    /// `a2`'s substituted index (for rendering).
    idx2: Vec<EffExpr>,
    /// Whether the answer came without a check query: refuted by the
    /// dependence tests, or confirmed by a model.
    decided: bool,
}

/// Whether `a1` in iteration `x` and `a2` in a distinct iteration `x′`
/// can touch the same location: one *satisfiability* question — site
/// assumptions ∧ [`Pair`]'s hypotheses ∧ index equality.
///
/// It is refuted before anything is lowered when the box of those
/// hypotheses is empty, or when some coordinate differs in every point
/// of it ([`never_equal`]). Otherwise it is lowered and posed through
/// [`SiteQuery::sat`], which tries a model at `x = lo`, `x′ = lo + 1`
/// (either way round) before the solver.
fn pair_collides(
    a1: &Atom,
    a2: &Atom,
    x: Sym,
    x2: Sym,
    bounds: (&EffExpr, &EffExpr),
    q: &mut SiteQuery<'_>,
) -> Probe {
    let pair = Pair::new(a1, a2, x, x2, bounds);
    let refuted = |env: &Env| {
        a1.idx
            .iter()
            .zip(&pair.idx2)
            .any(|(e1, e2)| never_equal(e1, e2, (x, x2), env))
    };
    let Some(env) = q.narrowed(&pair.hyps).filter(|env| !refuted(env)) else {
        return Probe {
            answer: Answer::No,
            idx2: pair.idx2,
            decided: true,
        };
    };
    // each pair is its own probe: start from a fresh lowering
    q.lctx = LowerCtx::new();
    let m_conflict = q.lctx.lower_bool(&pair.conj(a1)).maybe();
    let models = q.models();
    let answer = q.sat(m_conflict, &env, Some((x, x2)));
    Probe {
        answer,
        idx2: pair.idx2,
        decided: q.models() > models,
    }
}

/// Builds the witness record for a confirmed colliding pair.
fn witness_of(a1: &Atom, a2: &Atom, idx2: &[EffExpr], x: Sym) -> Witness {
    let (first_idx, second_idx) = match a1.field {
        // Config accesses have no index; show the field name instead.
        Some(f) => (f.name(), f.name()),
        None => (render_idx(&a1.idx), render_idx(idx2)),
    };
    Witness {
        buf: a1.buf,
        first: a1.kind,
        first_idx,
        second: a2.kind,
        second_idx,
        iter: x,
    }
}

/// Classifies the loop at `path` in `proc`.
///
/// Probes the dependence tests and a model do not decide go through
/// `check` (canonicalized and cached), and `reg` supplies canonical
/// names for configuration fields — pass the scheduler's own
/// context/registry to share them. The `lint.classify_loop` span records
/// the probes posed (`pairs`) and how many were `decided` without a
/// check query.
pub fn classify_loop(
    proc: &Proc,
    path: &StmtPath,
    check: &SharedCheckCtx,
    reg: &mut GlobalReg,
) -> Result<LoopVerdict, LintError> {
    let Some(lp @ Stmt::For { iter, lo, hi, body }) = stmt_at(&proc.body, path) else {
        return Err(lerr(format!(
            "classify_loop: no for-loop at path {path} in {}",
            proc.name.name()
        )));
    };
    let mut span = exo_obs::Span::enter("lint.classify_loop")
        .with_field("iter", exo_obs::Json::Str(iter.name()));
    let mut q = SiteQuery::new(proc, path, reg, check)
        .ok_or_else(|| lerr(format!("classify_loop: invalid path {path}")))?;
    let lo_e = q.lift(lo);
    let hi_e = q.lift(hi);

    let [eff] = q.body_effects(&[lp], [body]);
    // Buffers allocated inside the body (staged tiles, spilled registers)
    // are iteration-private — exclude them from the dependence question.
    let mut private = HashSet::default();
    allocated_in(&eff, &mut private);
    let eff = privatize(&eff, &private);

    let mut atoms = Vec::new();
    collect_atoms(&eff, &mut Vec::new(), &mut Vec::new(), &mut atoms);
    let mut tally = Tally::default();
    let verdict = classify_atoms(&atoms, *iter, (&lo_e, &hi_e), &mut q, &mut tally);
    span.field("pairs", exo_obs::Json::uint(tally.pairs));
    span.field("decided", exo_obs::Json::uint(tally.decided));
    Ok(verdict)
}

/// Probes posed by one classification, and those decided without a
/// check query.
#[derive(Default)]
struct Tally {
    pairs: u64,
    decided: u64,
}

/// The dependence question, decomposed: any cross-iteration conflict is
/// between one access of iteration `x` and one access of iteration `x′`,
/// so each conflicting access pair is one *small* satisfiability probe.
/// All pairs refuted → Parallel; only reduce/reduce pairs can collide →
/// ReductionParallel; a confirmed pair → Sequential with that pair as
/// the witness; an unprovable pair → Sequential (fail safe).
fn classify_atoms(
    atoms: &[Atom],
    x: Sym,
    bounds: (&EffExpr, &EffExpr),
    q: &mut SiteQuery<'_>,
    tally: &mut Tally,
) -> LoopVerdict {
    let x2 = x.copy();
    let mut reduction_bufs: Vec<Sym> = Vec::new();
    let mut unknown = false;
    for (n1, a1) in atoms.iter().enumerate() {
        // Conflict is symmetric: unordered pairs, self-pairs included
        // (an access can collide with its own copy in iteration x′).
        for a2 in &atoms[n1..] {
            if a1.buf != a2.buf || a1.field != a2.field || a1.idx.len() != a2.idx.len() {
                continue;
            }
            let reduce_pair = a1.kind == AccessKind::Reduce && a2.kind == AccessKind::Reduce;
            if !reduce_pair && !conflicting(a1.kind, a2.kind) {
                continue; // read/read
            }
            let probe = pair_collides(a1, a2, x, x2, bounds, q);
            tally.pairs += 1;
            tally.decided += u64::from(probe.decided);
            if reduce_pair {
                // Yes or Unknown: cover the buffer with a reduction
                // clause — sound either way, a clause over a location
                // that never collides is merely redundant.
                if probe.answer != Answer::No && !reduction_bufs.contains(&a1.buf) {
                    reduction_bufs.push(a1.buf);
                }
            } else {
                match probe.answer {
                    Answer::No => {}
                    Answer::Yes => {
                        return LoopVerdict::Sequential {
                            witness: Some(witness_of(a1, a2, &probe.idx2, x)),
                        };
                    }
                    // The solver gave up: keep scanning for a provable
                    // witness, but the verdict can no longer be Parallel.
                    _ => unknown = true,
                }
            }
        }
    }

    if unknown {
        return LoopVerdict::Sequential { witness: None };
    }
    if !reduction_bufs.is_empty() {
        reduction_bufs.sort_by_key(|b| (b.name(), b.id()));
        return LoopVerdict::ReductionParallel {
            bufs: reduction_bufs,
        };
    }
    LoopVerdict::Parallel
}

/// Classifies every `for` loop in `proc`, outermost first (pre-order).
pub fn classify_loops(
    proc: &Proc,
    check: &SharedCheckCtx,
    reg: &mut GlobalReg,
) -> Vec<(StmtPath, Sym, LoopVerdict)> {
    let mut loops = Vec::new();
    visit_paths(&proc.body, |path, stmt| {
        if let Stmt::For { iter, .. } = stmt {
            loops.push((path.clone(), *iter));
        }
    });
    loops
        .into_iter()
        .filter_map(|(path, iter)| {
            classify_loop(proc, &path, check, reg)
                .ok()
                .map(|v| (path, iter, v))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use exo_core::build::ProcBuilder;
    use exo_core::ir::Expr;
    use exo_smt::formula::Formula;

    /// SplitMix64: a small deterministic generator.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }

        /// A value in `lo..=hi`.
        fn range(&mut self, lo: i64, hi: i64) -> i64 {
            lo + self.below((hi - lo + 1) as usize) as i64
        }
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

    /// A site guard over `n` and `o`.
    type Guard = fn(Expr, Expr) -> Expr;

    /// The loop `for x in [lo, hi)` a probe is posed at, in
    /// `for o in [0, n): [if guard:] for x in [lo, hi): pass`.
    struct Site {
        proc: Arc<Proc>,
        path: StmtPath,
        n: Sym,
        o: Sym,
        x: Sym,
    }

    impl Site {
        /// `guard` and the loop's bounds are built from `n` and `o`.
        fn new(guard: Option<Guard>, bounds: impl Fn(Expr, Expr) -> (Expr, Expr)) -> Site {
            let mut b = ProcBuilder::new("site");
            let n = b.size("n");
            let o = b.begin_for("o", Expr::int(0), Expr::var(n));
            let mut path = StmtPath::top(0);
            if let Some(g) = guard {
                b.begin_if(g(Expr::var(n), Expr::var(o)));
                path = path.child(0, 0);
            }
            let (lo, hi) = bounds(Expr::var(n), Expr::var(o));
            let x = b.begin_for("x", lo, hi);
            b.stmt(Stmt::Pass);
            b.end_for();
            if guard.is_some() {
                b.end_if();
            }
            b.end_for();
            Site {
                proc: b.finish(),
                path: path.child(0, 0),
                n,
                o,
                x,
            }
        }

        /// Sizes, literal and outer-dependent extents, and guards the
        /// box narrows, guards no candidate point meets, and guards no
        /// point meets at all (`n < o` under `o < n`, `2·o = 1`).
        fn random(rng: &mut Rng) -> Site {
            let guards: [Option<Guard>; 8] = [
                None,
                None,
                None,
                Some(|_, o| o.lt(Expr::int(2))),
                Some(|_, o| o.rem(Expr::int(2)).eq(Expr::int(1))),
                Some(|n, o| n.lt(o)),
                Some(|_, o| Expr::int(2).mul(o).eq(Expr::int(1))),
                Some(|n, o| o.add(Expr::int(2)).le(n)),
            ];
            let guard = guards[rng.below(guards.len())];
            let e = rng.range(1, 3);
            match rng.below(5) {
                0 => Site::new(guard, |n, _| (Expr::int(0), n)),
                1 => Site::new(guard, move |_, o| (o.clone(), o.add(Expr::int(e)))),
                _ => Site::new(guard, move |_, _| (Expr::int(0), Expr::int(e))),
            }
        }

        /// Decides the probe of `a1` against `a2` as the classifier does,
        /// on a fresh context, and returns its answer, whether it was
        /// decided without a check query, and the solver's answer to the
        /// full probe on another fresh context.
        fn decide(&self, a1: &Atom, a2: &Atom) -> (Answer, bool, Answer) {
            let Some(Stmt::For { lo, hi, .. }) = stmt_at(&self.proc.body, &self.path) else {
                panic!("the site is a loop");
            };
            let x2 = self.x.copy();
            let (check, mut reg) = (SharedCheckCtx::fresh(), GlobalReg::new());
            let mut q = SiteQuery::new(&self.proc, &self.path, &mut reg, &check).unwrap();
            let (lo, hi) = (q.lift(lo), q.lift(hi));
            let probe = pair_collides(a1, a2, self.x, x2, (&lo, &hi), &mut q);
            assert_eq!(
                check.stats().queries,
                usize::from(!probe.decided),
                "a decided probe poses no query"
            );

            let check = SharedCheckCtx::fresh();
            let mut q = SiteQuery::new(&self.proc, &self.path, &mut reg, &check).unwrap();
            let pair = Pair::new(a1, a2, self.x, x2, (&lo, &hi));
            let m = q.lctx.lower_bool(&pair.conj(a1)).maybe();
            let full = check.check_sat(&Formula::and(vec![q.hypothesis(), m]));
            (probe.answer, probe.decided, full)
        }
    }

    /// The names an access draws on: the site's, a configuration field
    /// read as a control value, and the access's own inner binders.
    struct Names {
        n: Sym,
        o: Sym,
        x: Sym,
        cfg: Sym,
        buf: Sym,
    }

    impl Names {
        /// One coordinate: mostly an affine form with coefficients in
        /// −3…3 and an offset; sometimes ⊥, `/` or `%` by a literal,
        /// `Ite`, a stride or a product of two variables.
        fn coord(&self, rng: &mut Rng, binders: &[Sym]) -> EffExpr {
            let mut vars = vec![self.x, self.x, self.x, self.o, self.o, self.n, self.cfg];
            vars.extend(binders);
            vars.extend(binders);
            vars.extend(binders);
            let mut e = int(rng.range(-2, 2));
            for _ in 0..1 + rng.below(3) {
                let var = vars[rng.below(vars.len())];
                let term = match rng.range(-3, 3) {
                    0 => continue,
                    1 => v(var),
                    -1 => EffExpr::neg(v(var)),
                    c => bin(BinOp::Mul, int(c), v(var)),
                };
                e = if rng.below(4) == 0 {
                    bin(BinOp::Sub, e, EffExpr::neg(term))
                } else {
                    e.add(term)
                };
            }
            match rng.below(16) {
                0 => EffExpr::Unknown,
                1 => e.add(EffExpr::Stride(self.buf, 0)),
                2 => bin(BinOp::Div, e, int(rng.range(1, 3))),
                3 => bin(BinOp::Mod, e, int(rng.range(2, 3))),
                4 => EffExpr::ite(v(self.x).lt(v(self.o)), e, int(0)),
                5 => bin(BinOp::Mul, v(self.x), v(self.o)),
                _ => e,
            }
        }

        /// The bound of an inner binder: literal, symbolic, or dependent
        /// on an enclosing variable.
        fn bounds(&self, rng: &mut Rng) -> (EffExpr, EffExpr) {
            let e = int(rng.range(1, 3));
            match rng.below(5) {
                0 => (int(0), v(self.n)),
                1 => (v(self.o), v(self.o).add(e)),
                2 => (v(self.x), v(self.x).add(e)),
                _ => (int(0), e),
            }
        }

        /// One access: a buffer point of rank 1 or 2 inside up to two
        /// inner loops, sometimes under a guard; or a configuration
        /// field.
        fn atom(&self, rng: &mut Rng) -> Atom {
            let kind = [AccessKind::Read, AccessKind::Write, AccessKind::Reduce][rng.below(3)];
            if rng.below(16) == 0 {
                return Atom {
                    kind,
                    buf: self.cfg,
                    field: Some(self.cfg),
                    idx: Vec::new(),
                    ctx: Vec::new(),
                    binders: Vec::new(),
                };
            }
            let mut ctx = Vec::new();
            let mut binders = Vec::new();
            for _ in 0..rng.below(3) {
                let k = Sym::new("k");
                let (lo, hi) = self.bounds(rng);
                ctx.push(bd(k, &lo, &hi));
                binders.push(k);
            }
            match rng.below(8) {
                0 => ctx.push(v(self.x).lt(v(self.o).add(int(1)))),
                1 => ctx.push(v(self.x).lt(EffExpr::Unknown)),
                2 => ctx.push(bin(BinOp::Mod, v(self.x), int(2)).eq(int(0))),
                _ => {}
            }
            let idx = (0..1 + rng.below(2))
                .map(|_| self.coord(rng, &binders))
                .collect();
            Atom {
                kind,
                buf: self.buf,
                field: None,
                idx,
                ctx,
                binders,
            }
        }

        /// `a` with one coordinate moved by a small offset.
        fn nudged(&self, rng: &mut Rng, a: &Atom) -> Atom {
            let mut b = a.clone();
            let d = rng.below(b.idx.len().max(1));
            if let Some(e) = b.idx.get_mut(d) {
                *e = e.clone().add(int(rng.range(-3, 3)));
            }
            b
        }
    }

    /// Whenever the dependence tests refute a probe, the solver refutes
    /// the full probe; whenever a model confirms one, the solver confirms
    /// it. A fair share of the probes is decided either way.
    #[test]
    fn every_decided_probe_is_confirmed_by_the_solver() {
        let (mut pairs, mut refuted, mut modelled) = (0, 0, 0);
        for seed in 0..2500 {
            let mut rng = Rng(seed);
            let site = Site::random(&mut rng);
            let names = Names {
                n: site.n,
                o: site.o,
                x: site.x,
                cfg: Sym::new("Cfg_s"),
                buf: Sym::new("A"),
            };
            let a1 = names.atom(&mut rng);
            let a2 = match rng.below(3) {
                0 => a1.clone(),
                1 => names.nudged(&mut rng, &a1),
                _ => names.atom(&mut rng),
            };
            if a1.idx.len() != a2.idx.len() || a1.field != a2.field {
                continue;
            }
            let (answer, decided, full) = site.decide(&a1, &a2);
            pairs += 1;
            if decided {
                assert_eq!(
                    answer,
                    full,
                    "seed {seed}: {} {:?}\n  a1 {a1:?}\n  a2 {a2:?}",
                    if answer == Answer::No {
                        "refuted"
                    } else {
                        "modelled"
                    },
                    site.proc,
                );
                match answer {
                    Answer::No => refuted += 1,
                    _ => modelled += 1,
                }
            } else {
                assert_eq!(answer, full, "seed {seed}: the solver answers the probe");
            }
        }
        let decided = refuted + modelled;
        assert!(pairs >= 2000, "{pairs} pairs");
        assert!(
            decided * 3 > pairs,
            "{decided} of {pairs} decided ({refuted} refuted, {modelled} modelled)"
        );
        // both deciders are exercised
        assert!(
            refuted * 10 > pairs && modelled * 20 > pairs,
            "{refuted} refuted, {modelled} modelled of {pairs}"
        );
    }

    /// An access to `buf` at `idx` inside inner loops `k ∈ [lo, hi)`.
    fn access(kind: AccessKind, buf: Sym, idx: Vec<EffExpr>, loops: &[(Sym, i64, i64)]) -> Atom {
        Atom {
            kind,
            buf,
            field: None,
            idx,
            ctx: loops
                .iter()
                .map(|&(k, lo, hi)| bd(k, &int(lo), &int(hi)))
                .collect(),
            binders: loops.iter().map(|&(k, ..)| k).collect(),
        }
    }

    /// The shapes the case-study kernels pose, each decided without a
    /// query and confirmed by the solver, and near misses the deciders
    /// leave to the solver.
    #[test]
    fn case_study_probes() {
        let [a, c, i, j] = ["A", "C", "i", "j"].map(Sym::new);
        let tiles = Site::new(None, |_, _| (Expr::int(0), Expr::int(4)));
        let (x, o) = (tiles.x, tiles.o);
        let tile = |i: EffExpr| bin(BinOp::Mul, int(16), v(x)).add(i);
        let write =
            |idx: Vec<EffExpr>, loops: &[(Sym, i64, i64)]| access(AccessKind::Write, a, idx, loops);
        // `16·(x − x′) + (i − i″)` with `i, i″ ∈ [0, 16)`: refuted
        let tiled = write(vec![tile(v(i))], &[(i, 0, 16)]);
        let read = access(AccessKind::Read, a, vec![tile(v(i))], &[(i, 0, 16)]);
        for (a1, a2) in [(&tiled, &tiled), (&tiled, &read)] {
            assert_eq!(tiles.decide(a1, a2), (Answer::No, true, Answer::No));
        }
        // a reduction whose index does not mention `x`: confirmed
        let reduce = access(AccessKind::Reduce, c, vec![v(o), v(j)], &[(j, 0, 16)]);
        assert_eq!(
            tiles.decide(&reduce, &reduce),
            (Answer::Yes, true, Answer::Yes)
        );

        // `r`'s interval touches `±|c|`: `i ∈ [0, 17)` reaches the next
        // tile (`x = 0, i = 16` meets `x′ = 1, i″ = 0`)
        let wide = write(vec![tile(v(i))], &[(i, 0, 17)]);
        // unequal coefficients of `x`: `2·3` meets `3·2`
        let twice = write(vec![bin(BinOp::Mul, int(2), v(x))], &[]);
        let thrice = access(
            AccessKind::Read,
            a,
            vec![bin(BinOp::Mul, int(3), v(x))],
            &[],
        );
        // a ⊥ coordinate has no affine form, and lowers to a variable no
        // point assigns
        let unknown = write(vec![tile(EffExpr::Unknown)], &[]);
        for (a1, a2) in [(&wide, &wide), (&twice, &thrice), (&unknown, &unknown)] {
            assert_eq!(
                tiles.decide(a1, a2),
                (Answer::Yes, false, Answer::Yes),
                "{a1:?} against {a2:?}"
            );
        }
        // with one iteration there is no distinct pair, but only the
        // solver can tell through ⊥
        let single = Site::new(None, |_, _| (Expr::int(0), Expr::int(1)));
        let unknown = access(AccessKind::Write, a, vec![EffExpr::Unknown], &[]);
        assert_eq!(
            single.decide(&unknown, &unknown),
            (Answer::No, false, Answer::No)
        );
    }
}
