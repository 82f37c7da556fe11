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
//!   concrete [`Witness`]: the pair of accesses the solver proved can
//!   collide) or could not be refuted. `Unknown` answers always land
//!   here — the lattice only ever degrades toward `Sequential`, never
//!   toward `Parallel` (fail-safe, chaos-tested).
//!
//! Decomposing into per-pair probes (instead of one monolithic
//! `Commutes` validity goal over the whole body effect) keeps every
//! query within the solver's work limits even for fully scheduled
//! kernels, and each probe is canonicalized and cached through
//! [`SharedCheckCtx`]: linting a kernel warms the very cache that
//! scheduling (and `parallelize`) will hit later in the process.

use std::fmt;

use exo_analysis::conditions::bd;
use exo_analysis::context::SiteQuery;
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

/// The distinct-iteration-pair hypothesis `Bd(x) ∧ Bd(x′) ∧ x ≠ x′`.
fn pair_hypothesis(x: Sym, x2: Sym, lo: &EffExpr, hi: &EffExpr) -> EffExpr {
    bd(x, lo, hi)
        .and(bd(x2, lo, hi))
        .and(EffExpr::not(EffExpr::Var(x).eq(EffExpr::Var(x2))))
}

/// Asks the solver whether `a1` in iteration `x` and `a2` in a distinct
/// iteration `x′` can touch the same location: one *satisfiability*
/// query — site assumptions ∧ pair hypothesis ∧ both access contexts ∧
/// index equality — with `a2`'s copy alpha-freshened (`x ↦ x′`, inner
/// effect-loop binders renamed) so the two iterations are unrelated.
/// Returns the answer plus `a2`'s substituted index (for rendering).
fn pair_collides(
    a1: &Atom,
    a2: &Atom,
    x: Sym,
    x2: Sym,
    (lo, hi): (&EffExpr, &EffExpr),
    q: &mut SiteQuery<'_>,
) -> (Answer, Vec<EffExpr>) {
    let mut map: HashMap<Sym, EffExpr> = HashMap::default();
    map.insert(x, EffExpr::Var(x2));
    for b in &a2.binders {
        map.insert(*b, EffExpr::Var(b.copy()));
    }
    let idx2: Vec<EffExpr> = a2.idx.iter().map(|e| e.subst(&map)).collect();
    let ctx2: Vec<EffExpr> = a2.ctx.iter().map(|e| e.subst(&map)).collect();

    let mut conj = pair_hypothesis(x, x2, lo, hi);
    for c in a1.ctx.iter().chain(ctx2.iter()) {
        conj = conj.and(c.clone());
    }
    for (e1, e2) in a1.idx.iter().zip(idx2.iter()) {
        conj = conj.and(e1.clone().eq(e2.clone()));
    }

    // each pair is its own probe: start from a fresh lowering
    q.lctx = LowerCtx::new();
    let m_conflict = q.lctx.lower_bool(&conj).maybe();
    (q.sat(m_conflict), idx2)
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
/// Queries go through `check` (canonicalized and cached) and `reg`
/// supplies canonical names for configuration fields — pass the
/// scheduler's own context/registry to share its caches.
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
    let _span = exo_obs::Span::enter("lint.classify_loop")
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

    // The dependence question, decomposed: any cross-iteration conflict
    // is between one access of iteration x and one access of iteration
    // x′, so we enumerate conflicting access pairs and pose each as one
    // *small* satisfiability probe. All pairs refuted → Parallel; only
    // reduce/reduce pairs can collide → ReductionParallel; a confirmed
    // pair → Sequential with that pair as the witness; an unprovable
    // pair → Sequential (fail safe). Unlike one monolithic Commutes
    // validity goal over the whole body effect, each probe is tiny and
    // independently cacheable — scheduled kernels with dozens of nested
    // accesses stay within the solver's work limits.
    let x = *iter;
    let x2 = x.copy();
    let mut atoms = Vec::new();
    collect_atoms(&eff, &mut Vec::new(), &mut Vec::new(), &mut atoms);

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
            let (ans, idx2) = pair_collides(a1, a2, x, x2, (&lo_e, &hi_e), &mut q);
            if reduce_pair {
                // Yes or Unknown: cover the buffer with a reduction
                // clause — sound either way, a clause over a location
                // that never collides is merely redundant.
                if ans != Answer::No && !reduction_bufs.contains(&a1.buf) {
                    reduction_bufs.push(a1.buf);
                }
            } else {
                match ans {
                    Answer::No => {}
                    Answer::Yes => {
                        return Ok(LoopVerdict::Sequential {
                            witness: Some(witness_of(a1, a2, &idx2, x)),
                        });
                    }
                    // The solver gave up: keep scanning for a provable
                    // witness, but the verdict can no longer be Parallel.
                    _ => unknown = true,
                }
            }
        }
    }

    if unknown {
        return Ok(LoopVerdict::Sequential { witness: None });
    }
    if !reduction_bufs.is_empty() {
        reduction_bufs.sort_by_key(|b| (b.name(), b.id()));
        return Ok(LoopVerdict::ReductionParallel {
            bufs: reduction_bufs,
        });
    }
    Ok(LoopVerdict::Parallel)
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
