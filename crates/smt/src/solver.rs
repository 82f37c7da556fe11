//! The solver façade used by the analyses.
//!
//! Wraps [`crate::qe`] with free-variable closure and query statistics.
//! [`SolverStats`] is the one record of solver work (queries, answers,
//! QE nodes, decision time): no registry counter mirrors it, and it
//! reads the same with the `exo-obs` registry switched off. Each
//! decided query is also an `smt.decide` span, its trace record.
//! Every query is decided; memoization lives one layer up, in
//! `exo-analysis`'s `CheckCtx`, which keys verdicts on the canonical
//! (alpha-normalized) formula. Paper §3.3 notes that keeping solver
//! cost low is essential as scheduling complicates procedures; that
//! verdict cache plus the provenance "simplest equivalent definition"
//! optimization in `exo-sched` are the two levers.

use std::time::Instant;

use exo_core::sym::Sym;

use crate::formula::{Atom, Formula};
use crate::linear::gcd;
use crate::qe::{eliminate_all, QeBudget, TooHard};

/// Outcome of a satisfiability/validity query.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Answer {
    /// The query is true.
    Yes,
    /// The query is false.
    No,
    /// The solver gave up (work limit); callers must fail safe.
    Unknown,
}

impl Answer {
    /// Whether the answer is a definite yes.
    pub fn is_yes(self) -> bool {
        self == Answer::Yes
    }
}

/// Counters describing solver activity.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SolverStats {
    /// Queries answered.
    pub queries: usize,
    /// Always 0: the solver has no cache (verdicts are memoized by
    /// `exo-analysis`'s `CheckCtx`). Kept so existing readers compile.
    pub cache_hits: usize,
    /// Queries that exceeded the work limit.
    pub gave_up: usize,
    /// Total QE nodes produced.
    pub nodes: usize,
    /// Queries answered `Yes`.
    pub yes: usize,
    /// Queries answered `No`.
    pub no: usize,
    /// Total wall-clock time spent deciding, µs.
    pub time_us: u64,
}

/// A Presburger-arithmetic solver.
///
/// # Examples
///
/// ```
/// use exo_smt::solver::{Answer, Solver};
/// use exo_smt::formula::Formula;
/// use exo_smt::linear::LinExpr;
/// use exo_core::sym::Sym;
///
/// let mut s = Solver::new();
/// let x = Sym::new("x");
/// // x ≤ x + 1 is valid
/// let f = Formula::le(LinExpr::var(x), LinExpr::var(x).offset(1));
/// assert_eq!(s.check_valid(&f), Answer::Yes);
/// ```
#[derive(Debug)]
pub struct Solver {
    stats: SolverStats,
    max_size: usize,
}

impl Default for Solver {
    fn default() -> Solver {
        Solver::new()
    }
}

impl Solver {
    /// Creates a solver with the default work limit.
    pub fn new() -> Solver {
        Solver {
            stats: SolverStats::default(),
            max_size: 5_000_000,
        }
    }

    /// Creates a solver with a custom work limit (QE nodes per query).
    pub fn with_limit(max_size: usize) -> Solver {
        Solver {
            max_size,
            ..Solver::new()
        }
    }

    /// Returns activity counters.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Checks whether `f` is satisfiable (free variables are
    /// existentially quantified).
    pub fn check_sat(&mut self, f: &Formula) -> Answer {
        self.stats.queries += 1;
        // Chaos injection: pretend QE blew its budget. `Unknown` is always
        // a sound (conservative) answer, so injection can only turn
        // accepts into rejects.
        if exo_chaos::should_inject(exo_chaos::FaultSite::SmtTooHard) {
            self.stats.gave_up += 1;
            return Answer::Unknown;
        }
        let mut span = exo_obs::Span::enter("smt.decide");
        span.field("size", exo_obs::Json::uint(f.size() as u64));
        let start = Instant::now();
        let answer = match self.decide(f) {
            Ok(true) => Answer::Yes,
            Ok(false) => Answer::No,
            Err(TooHard { .. }) => Answer::Unknown,
        };
        let us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.stats.time_us = self.stats.time_us.saturating_add(us);
        span.field(
            "answer",
            exo_obs::Json::Str(
                match answer {
                    Answer::Yes => "yes",
                    Answer::No => "no",
                    Answer::Unknown => "unknown",
                }
                .into(),
            ),
        );
        drop(span);
        match answer {
            Answer::Yes => self.stats.yes += 1,
            Answer::No => self.stats.no += 1,
            Answer::Unknown => self.stats.gave_up += 1,
        }
        answer
    }

    /// Checks whether `f` is valid (free variables universally
    /// quantified): `valid(f) ⇔ ¬sat(¬f)`.
    pub fn check_valid(&mut self, f: &Formula) -> Answer {
        match self.check_sat(&f.clone().negate()) {
            Answer::Yes => Answer::No,
            Answer::No => Answer::Yes,
            Answer::Unknown => Answer::Unknown,
        }
    }

    fn decide(&mut self, f: &Formula) -> Result<bool, TooHard> {
        let mut budget = QeBudget {
            max_size: self.max_size,
            produced: 0,
        };
        // First make the body quantifier-free; the ∃-closure over free
        // variables is then decided disjunct-by-disjunct with early exit.
        let result = eliminate_all(f, &mut budget).and_then(|qf| sat_qf(&qf, &mut budget));
        self.stats.nodes += budget.produced;
        result
    }
}

/// Decides satisfiability of a quantifier-free formula, existentially
/// closing its free variables. Splits top-level disjunctions (early exit
/// on the first satisfiable disjunct), then eliminates one variable and
/// recurses. The variable is one with a unit coefficient in a top-level
/// equality if there is one (Cooper substitutes it, no enumeration);
/// otherwise the one minimising `(λ, occurrences)`, where λ is the lcm of
/// its coefficients and so the rescaling period it adds.
fn sat_qf(f: &Formula, budget: &mut QeBudget) -> Result<bool, TooHard> {
    match f {
        Formula::True => return Ok(true),
        Formula::False => return Ok(false),
        Formula::Or(fs) => {
            for g in fs {
                if sat_qf(g, budget)? {
                    return Ok(true);
                }
            }
            return Ok(false);
        }
        _ => {}
    }
    let unit_eq = f.conjuncts().iter().find_map(|g| match g {
        Formula::Atom(Atom::Eq(e)) => e.coeffs.iter().find(|(_, c)| c.abs() == 1).map(|(&v, _)| v),
        _ => None,
    });
    let x = match unit_eq {
        Some(x) => x,
        None => {
            let mut costs = Vec::new();
            elimination_costs(f, &mut costs);
            match costs.into_iter().min_by_key(|&(v, lam, n)| (lam, n, v)) {
                Some((x, ..)) => x,
                // ground: atoms mostly fold at construction, but a few paths
                // (e.g. Cooper rescaling) build atoms directly — evaluate here.
                None => return Ok(eval_ground(f)),
            }
        }
    };
    let g = crate::qe::eliminate_exists(x, f, budget)?;
    sat_qf(&g, budget)
}

/// Evaluates a ground (variable-free) formula.
///
/// # Panics
///
/// Panics if the formula mentions a variable — unreachable by construction:
/// callers run full quantifier elimination first, which either grounds the
/// formula or fails with `TooHard` before this point.
#[allow(clippy::expect_used)]
fn eval_ground(f: &Formula) -> bool {
    match f {
        Formula::True => true,
        Formula::False => false,
        Formula::Atom(a) => a.eval_ground().expect("formula is not ground"),
        Formula::Not(g) => !eval_ground(g),
        Formula::And(fs) => fs.iter().all(eval_ground),
        Formula::Or(fs) => fs.iter().any(eval_ground),
        Formula::Exists(_, g) | Formula::Forall(_, g) => eval_ground(g),
    }
}

/// Heuristic elimination cost of every variable of the quantifier-free
/// `f`, in one walk: `(x, λ, n)` with λ the lcm of `x`'s coefficients'
/// magnitudes (saturating) and `n` the number of atoms mentioning it.
fn elimination_costs(f: &Formula, costs: &mut Vec<(Sym, i64, usize)>) {
    match f {
        Formula::Atom(Atom::Le(e) | Atom::Eq(e) | Atom::Dvd(_, e)) => {
            for (&x, &c) in &e.coeffs {
                let (l, m) = if c == 0 { (1, 0) } else { (c.abs(), 1) };
                match costs.iter_mut().find(|(v, ..)| *v == x) {
                    Some((_, lam, n)) => {
                        *lam = (*lam / gcd(*lam, l)).saturating_mul(l);
                        *n += m;
                    }
                    None => costs.push((x, l, m)),
                }
            }
        }
        Formula::Not(g) => elimination_costs(g, costs),
        Formula::And(fs) | Formula::Or(fs) => fs.iter().for_each(|g| elimination_costs(g, costs)),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinExpr;

    #[test]
    fn sat_and_valid_are_dual() {
        let mut s = Solver::new();
        let x = Sym::new("x");
        let f = Formula::le(LinExpr::var(x), LinExpr::constant(0));
        assert_eq!(s.check_sat(&f), Answer::Yes); // x = 0 works
        assert_eq!(s.check_valid(&f), Answer::No); // x = 1 refutes
    }

    #[test]
    fn entailment() {
        let mut s = Solver::new();
        let x = Sym::new("x");
        // x ≥ 4 ⊢ x ≥ 2
        let hyp = Formula::ge(LinExpr::var(x), LinExpr::constant(4));
        let goal = Formula::ge(LinExpr::var(x), LinExpr::constant(2));
        assert_eq!(
            s.check_valid(&hyp.clone().implies(goal.clone())),
            Answer::Yes
        );
        assert_eq!(
            s.check_valid(&goal.clone().implies(hyp.clone())),
            Answer::No
        );
    }

    #[test]
    fn every_query_is_decided() {
        let mut s = Solver::new();
        let x = Sym::new("x");
        let f = Formula::le(LinExpr::var(x), LinExpr::constant(0));
        let _ = s.check_sat(&f);
        let _ = s.check_sat(&f);
        let st = s.stats();
        assert_eq!((st.queries, st.yes, st.cache_hits), (2, 2, 0));
    }

    #[test]
    fn work_limit_fails_safe() {
        // a formula with many interacting divisibilities blows up; a tiny
        // budget must yield Unknown, never a wrong answer
        let mut s = Solver::with_limit(4);
        let x = Sym::new("x");
        let y = Sym::new("y");
        let f = Formula::and(vec![
            Formula::dvd(7, LinExpr::var(x).add(&LinExpr::scaled_var(3, y))),
            Formula::dvd(11, LinExpr::var(x).sub(&LinExpr::scaled_var(5, y))),
            Formula::ge(LinExpr::var(x), LinExpr::constant(0)),
            Formula::le(LinExpr::var(x), LinExpr::constant(1000)),
        ]);
        assert_eq!(s.check_sat(&f), Answer::Unknown);
        assert_eq!(s.stats().gave_up, 1);
    }

    #[test]
    fn split_loop_bounds_query() {
        // the guard condition produced by split-with-tail: the tail guard
        // 16·io + ii < n is implied when io < n/16 (floor) and ii < 16 …
        // only when 16 | n. Check both directions.
        let mut s = Solver::new();
        let io = Sym::new("io");
        let ii = Sym::new("ii");
        let n = Sym::new("n");
        let hyp = Formula::and(vec![
            Formula::ge(LinExpr::var(io), LinExpr::constant(0)),
            Formula::lt(LinExpr::scaled_var(16, io), LinExpr::var(n)),
            Formula::ge(LinExpr::var(ii), LinExpr::constant(0)),
            Formula::lt(LinExpr::var(ii), LinExpr::constant(16)),
            Formula::dvd(16, LinExpr::var(n)),
        ]);
        let goal = Formula::lt(
            LinExpr::scaled_var(16, io).add(&LinExpr::var(ii)),
            LinExpr::var(n),
        );
        assert_eq!(
            s.check_valid(&hyp.clone().implies(goal.clone())),
            Answer::Yes
        );
        // without the divisibility assumption the entailment fails
        let hyp_weak = Formula::and(vec![
            Formula::ge(LinExpr::var(io), LinExpr::constant(0)),
            Formula::lt(LinExpr::scaled_var(16, io), LinExpr::var(n)),
            Formula::ge(LinExpr::var(ii), LinExpr::constant(0)),
            Formula::lt(LinExpr::var(ii), LinExpr::constant(16)),
        ]);
        assert_eq!(
            s.check_valid(&hyp_weak.clone().implies(goal.clone())),
            Answer::No
        );
    }
}
