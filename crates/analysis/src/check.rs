//! The shared checking context: one reusable solver plus the one
//! verdict cache.
//!
//! Every scheduling operator is independently checked (paper §3.3), and a
//! long schedule re-derives near-identical safety obligations after every
//! rewrite — identical except that rewrites mint fresh
//! [`exo_core::sym::Sym`]s, so a structurally keyed cache would never see
//! a repeat. [`SharedCheckCtx`] closes that gap:
//!
//! * all validity/satisfiability queries of one scheduling state funnel
//!   through its context's one solver instead of per-call-site
//!   `Solver::new()` throwaways;
//! * each query is first alpha-normalized by [`exo_smt::canonicalize`]
//!   and memoized keyed by the *canonical formula* (full structural
//!   equality, not a hash, so collisions cannot corrupt verdicts);
//! * the cache is bounded: when it holds `CACHE_CAP` (65 536) verdicts it is
//!   cleared before the next one goes in, so a long-lived context (one
//!   state scheduling many kernels) cannot grow it without limit;
//! * [`CheckStats`] ([`SharedCheckCtx::stats`]) is the one record of
//!   the context's work: queries, hits, misses, live entries, clears of
//!   a full cache and budget refusals. No registry counter mirrors it,
//!   and it reads the same with the `exo-obs` registry switched off; the
//!   per-operator split is the deltas `exo-sched` takes of it around
//!   each operator, the `checks` and `hits` fields of its span.
//!
//! Contexts are cached by default; [`SharedCheckCtx::with_cache`]`(false)`
//! sends every query to the solver, for measuring the cache's effect and
//! for the verdict-parity tests. Verdicts are identical either way
//! because canonical renaming is semantics-preserving.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use exo_core::budget::ResourceBudget;
use exo_core::hash::HashMap;
use exo_smt::canon::canonicalize;
use exo_smt::formula::Formula;
use exo_smt::solver::{Answer, Solver, SolverStats};

/// The most verdicts one cache holds. A full cache is cleared before the
/// next insert, and each clear counts as one [`CheckStats::evictions`].
/// The benchmark workloads stay far below it: a cold schedule of the
/// Fig. 4a chain leaves 1 entry, the largest measured, and linting the
/// case-study kernels leaves none.
const CACHE_CAP: usize = 1 << 16;

/// Counters describing checking-context activity.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CheckStats {
    /// Queries answered through the context (including cache hits).
    pub queries: usize,
    /// Queries answered from the canonical verdict cache.
    pub hits: usize,
    /// Queries that fell through to the solver.
    pub misses: usize,
    /// Entries currently in the canonical verdict cache.
    pub entries: usize,
    /// Times a full cache was cleared before an insert.
    pub evictions: usize,
    /// Queries answered `Unknown` because the fuel/deadline budget was
    /// exhausted.
    pub budget_unknown: usize,
    /// Always 0: effect summaries are not memoized (every extraction
    /// derives them fresh). Kept so existing readers compile.
    pub effect_hits: usize,
    /// Always 0, like [`Self::effect_hits`].
    pub effect_misses: usize,
}

/// A checking context: one solver and one canonical verdict cache.
/// Reached only through [`SharedCheckCtx`].
#[derive(Debug)]
struct CheckCtx {
    solver: Solver,
    cache: HashMap<Formula, Answer>,
    /// [`CACHE_CAP`]; a field only so that unit tests can lower it.
    cap: usize,
    enabled: bool,
    /// The tallies [`SharedCheckCtx::stats`] reports (`entries` aside,
    /// which is the live cache size).
    stats: CheckStats,
    /// Fuel/deadline pool every query draws from; exhaustion answers
    /// `Unknown` (fail-safe rejection) instead of hanging.
    budget: ResourceBudget,
}

impl CheckCtx {
    fn with_cache(enabled: bool) -> CheckCtx {
        CheckCtx {
            solver: Solver::new(),
            cache: HashMap::default(),
            cap: CACHE_CAP,
            enabled,
            stats: CheckStats::default(),
            budget: ResourceBudget::unlimited(),
        }
    }

    fn check_sat(&mut self, f: &Formula) -> Answer {
        self.stats.queries += 1;
        // Budget: one fuel unit per query. Every safety analysis funnels its
        // obligations through here, so exhausting the pool mid-fixpoint
        // degrades the remaining obligations to `Unknown` — the rewrite is
        // rejected, the process never hangs on a pathological query stream.
        if self.budget.charge(1).is_err() {
            self.stats.budget_unknown += 1;
            return Answer::Unknown;
        }
        // While a chaos plan is armed, injected verdicts may flow back from
        // the solver; keep them out of the canonical cache entirely so a
        // later clean run over the same (possibly shared) context
        // sees pristine verdicts.
        let chaos_armed = exo_chaos::armed();
        let forced_miss =
            chaos_armed && exo_chaos::should_inject(exo_chaos::FaultSite::AnalysisCacheMiss);
        if !self.enabled {
            return self.solver.check_sat(f);
        }
        let key = canonicalize(f);
        if !forced_miss {
            if let Some(&a) = self.cache.get(&key) {
                self.stats.hits += 1;
                return a;
            }
        }
        // Decide on the canonical form (semantics-preserving).
        let a = self.solver.check_sat(&key);
        self.stats.misses += 1;
        if !chaos_armed {
            if self.cache.len() >= self.cap {
                self.cache.clear();
                self.stats.evictions += 1;
            }
            self.cache.insert(key, a);
        }
        a
    }
}

/// A cloneable handle to one checking context (a solver plus the
/// canonical verdict cache) behind a mutex.
///
/// This is what `SchedState` and the analyses carry. Every method locks
/// internally and only for its own duration. Lock ordering across the
/// workspace is `SchedState → SharedCheckCtx`.
#[derive(Clone, Debug)]
pub struct SharedCheckCtx(Arc<Mutex<CheckCtx>>);

impl SharedCheckCtx {
    /// A fresh, private context with the canonical cache enabled.
    pub fn fresh() -> SharedCheckCtx {
        SharedCheckCtx::with_cache(true)
    }

    /// A fresh, private context with the cache explicitly on or off.
    pub fn with_cache(enabled: bool) -> SharedCheckCtx {
        SharedCheckCtx(Arc::new(Mutex::new(CheckCtx::with_cache(enabled))))
    }

    /// Locks the context. Poisoning is ignored: the cache only ever holds
    /// sound verdicts, so a panic elsewhere cannot corrupt it.
    fn lock(&self) -> MutexGuard<'_, CheckCtx> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Installs the fuel/deadline pool queries draw from (shared with the
    /// owning `SchedState` when scheduling).
    pub fn set_budget(&self, budget: ResourceBudget) {
        self.lock().budget = budget;
    }

    /// Checks satisfiability of `f` (free variables existential).
    ///
    /// With the cache enabled the query is alpha-normalized first and the
    /// verdict memoized keyed by the canonical formula, so any
    /// alpha-variant asked later — including the same obligation
    /// re-derived over fresh syms after a rewrite — is a hit.
    pub fn check_sat(&self, f: &Formula) -> Answer {
        self.lock().check_sat(f)
    }

    /// Checks validity of `f` (free variables universal):
    /// `valid(f) ⇔ ¬sat(¬f)`. Shares cache entries with [`Self::check_sat`].
    /// Takes the goal by value: it is negated in place, not copied.
    pub fn check_valid(&self, f: Formula) -> Answer {
        match self.check_sat(&f.negate()) {
            Answer::Yes => Answer::No,
            Answer::No => Answer::Yes,
            Answer::Unknown => Answer::Unknown,
        }
    }

    /// Activity counters for this context.
    pub fn stats(&self) -> CheckStats {
        let ck = self.lock();
        CheckStats {
            entries: ck.cache.len(),
            ..ck.stats
        }
    }

    /// Counters of the underlying solver.
    pub fn solver_stats(&self) -> SolverStats {
        self.lock().solver.stats()
    }

    /// A copy of the verdict cache: every `(canonical formula, answer)`
    /// entry, in no particular order.
    pub fn verdicts(&self) -> Vec<(Formula, Answer)> {
        let ck = self.lock();
        ck.cache.iter().map(|(f, &a)| (f.clone(), a)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_core::sym::Sym;
    use exo_smt::linear::LinExpr;

    fn valid_shape(c: i64) -> Formula {
        // x ≤ x + c is valid for c ≥ 0; fresh syms each call
        let x = Sym::new("x");
        Formula::le(LinExpr::var(x), LinExpr::var(x).offset(c))
    }

    #[test]
    fn alpha_variants_hit_the_cache() {
        let ctx = SharedCheckCtx::with_cache(true);
        assert_eq!(ctx.check_valid(valid_shape(1)), Answer::Yes);
        assert_eq!(ctx.check_valid(valid_shape(1)), Answer::Yes); // fresh sym, same shape
        let st = ctx.stats();
        assert_eq!(st.queries, 2);
        assert_eq!(st.hits, 1);
        assert_eq!(st.misses, 1);
        assert_eq!(st.entries, 1);
    }

    #[test]
    fn disabled_cache_never_hits_but_agrees() {
        let on = SharedCheckCtx::with_cache(true);
        let off = SharedCheckCtx::with_cache(false);
        for c in [0, 1, -1, 3, -1, 1] {
            assert_eq!(
                on.check_valid(valid_shape(c)),
                off.check_valid(valid_shape(c))
            );
        }
        assert_eq!(off.stats().hits, 0);
        assert!(on.stats().hits > 0);
    }

    #[test]
    fn distinct_constants_get_distinct_entries() {
        let ctx = SharedCheckCtx::with_cache(true);
        assert_eq!(ctx.check_valid(valid_shape(1)), Answer::Yes);
        assert_eq!(ctx.check_valid(valid_shape(-1)), Answer::No);
        assert_eq!(ctx.stats().entries, 2);
        assert_eq!(ctx.stats().hits, 0);
    }

    /// `0 ≤ x ≤ c`: satisfiable iff `c ≥ 0`, one canonical key per `c`.
    fn bounded(c: i64) -> Formula {
        let x = Sym::new("x");
        Formula::and(vec![
            Formula::ge(LinExpr::var(x), LinExpr::constant(0)),
            Formula::le(LinExpr::var(x), LinExpr::constant(c)),
        ])
    }

    #[test]
    fn a_full_cache_is_cleared_and_verdicts_survive() {
        let ctx = SharedCheckCtx::with_cache(true);
        ctx.lock().cap = 2;
        // 0 and -1 fill the cache; 1 and then 0 (gone by then) each clear
        // it; the last 0 hits the entry made after the second clear
        let mut entries = Vec::new();
        for c in [0, -1, 1, -2, 0, -1, 0] {
            let want = if c >= 0 { Answer::Yes } else { Answer::No };
            assert_eq!(ctx.check_sat(&bounded(c)), want, "c = {c}");
            entries.push(ctx.stats().entries);
        }
        assert_eq!(entries, [1, 2, 1, 2, 1, 2, 2]);
        let st = ctx.stats();
        assert_eq!((st.queries, st.misses, st.hits), (7, 6, 1));
        assert_eq!(st.evictions, 2);
    }

    #[test]
    fn budget_refusals_are_counted() {
        let ctx = SharedCheckCtx::with_cache(true);
        ctx.set_budget(ResourceBudget::with_fuel(1));
        assert_eq!(ctx.check_valid(valid_shape(1)), Answer::Yes);
        assert_eq!(ctx.check_valid(valid_shape(2)), Answer::Unknown);
        let st = ctx.stats();
        assert_eq!((st.queries, st.budget_unknown), (2, 1));
    }

    #[test]
    fn shared_handles_alias_one_context() {
        let a = SharedCheckCtx::with_cache(true);
        let b = a.clone();
        let before = a.stats().queries;
        let _ = b.check_valid(valid_shape(2));
        assert_eq!(a.stats().queries, before + 1);
    }
}
