//! # exo-chaos
//!
//! Deterministic fault injection for the exo-rs pipeline.
//!
//! The paper's central safety claim (§5–§6) is that every scheduling rewrite
//! is independently checked and the system *fails safe*: an analysis that
//! cannot prove equivalence answers `Unknown` and the rewrite is rejected
//! rather than miscompiled. This crate exists to *test* that claim under
//! adversarial conditions. A [`FaultPlan`] names a set of injection sites
//! ([`FaultSite`]) with per-site probabilities, driven by a seeded
//! deterministic PRNG, so a chaos run is exactly reproducible from its seed.
//!
//! Library crates register injection points by calling [`should_inject`] at
//! the places where real resource exhaustion or analysis imprecision would
//! surface:
//!
//! * `exo-smt` — [`FaultSite::SmtTooHard`]: the solver pretends quantifier
//!   elimination blew its budget and answers `Unknown` (without caching the
//!   injected verdict).
//! * `exo-analysis` — [`FaultSite::AnalysisBottom`]: the ValG dataflow drops
//!   a config field to ⊥; [`FaultSite::AnalysisCacheMiss`]: the canonical
//!   verdict cache pretends it missed.
//! * `exo-sched` — [`FaultSite::PatternNoMatch`] / [`FaultSite::PatternAmbiguous`]:
//!   pattern resolution fails as if the pattern matched nothing, or matched
//!   more than once without an index.
//! * `exo-interp` — [`FaultSite::InterpFuel`]: the interpreter pretends its
//!   fuel budget is exhausted.
//!
//! Every site is *conservative by construction*: an injected fault can only
//! turn an accept into a reject/`Unknown`, never the reverse, so soundness
//! monotonicity (nothing accepted under injection that a clean run rejects)
//! holds for any plan.
//!
//! ## Zero cost when disarmed
//!
//! No plan is armed by default. [`should_inject`] first reads one relaxed
//! `AtomicBool`; when no plan is armed it returns `false` without locking or
//! touching the PRNG, so production builds pay a single predictable branch.

// Panic-free library surface: input-reachable failures must be typed
// errors, not aborts. Unit tests may unwrap freely.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// A named fault-injection site in the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// `exo-smt`: force `Solver::check_sat` to answer `Unknown` as if
    /// `QeBudget` were exhausted (`TooHard`).
    SmtTooHard,
    /// `exo-analysis`: force the ValG config dataflow to drop a value to ⊥
    /// (`EffExpr::Unknown`).
    AnalysisBottom,
    /// `exo-analysis`: force the canonical verdict cache to miss,
    /// exercising the uncached path.
    AnalysisCacheMiss,
    /// `exo-sched`: force pattern resolution to report "no match".
    PatternNoMatch,
    /// `exo-sched`: force pattern resolution to report an ambiguity
    /// (multiple matches, no index given).
    PatternAmbiguous,
    /// `exo-interp`: force the interpreter's fuel budget to report
    /// exhaustion.
    InterpFuel,
}

impl FaultSite {
    /// All known sites, in a stable order.
    pub const ALL: [FaultSite; 6] = [
        FaultSite::SmtTooHard,
        FaultSite::AnalysisBottom,
        FaultSite::AnalysisCacheMiss,
        FaultSite::PatternNoMatch,
        FaultSite::PatternAmbiguous,
        FaultSite::InterpFuel,
    ];

    /// Stable lowercase name, used in reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::SmtTooHard => "smt-too-hard",
            FaultSite::AnalysisBottom => "analysis-bottom",
            FaultSite::AnalysisCacheMiss => "analysis-cache-miss",
            FaultSite::PatternNoMatch => "pattern-no-match",
            FaultSite::PatternAmbiguous => "pattern-ambiguous",
            FaultSite::InterpFuel => "interp-fuel",
        }
    }

    fn index(self) -> usize {
        match self {
            FaultSite::SmtTooHard => 0,
            FaultSite::AnalysisBottom => 1,
            FaultSite::AnalysisCacheMiss => 2,
            FaultSite::PatternNoMatch => 3,
            FaultSite::PatternAmbiguous => 4,
            FaultSite::InterpFuel => 5,
        }
    }
}

/// splitmix64: tiny, high-quality, seedable. The whole point is determinism —
/// the same seed replays the same fault sequence, so a chaos failure is
/// reproducible from its `(plan, seed)` pair alone.
#[derive(Debug, Clone)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A seeded fault plan: which sites fire, with what probability.
///
/// Probability 1.0 means "every time the site is reached"; fractional
/// probabilities draw from the plan's deterministic PRNG. Sites not listed
/// never fire.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    // Probability per site, indexed by FaultSite::index(); 0.0 = never.
    probs: [f64; 6],
}

impl FaultPlan {
    /// An empty plan with the given seed; add sites with [`FaultPlan::with_site`].
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            probs: [0.0; 6],
        }
    }

    /// A plan that fires every listed site deterministically (p = 1.0).
    pub fn always(seed: u64, sites: &[FaultSite]) -> FaultPlan {
        let mut plan = FaultPlan::new(seed);
        for &s in sites {
            plan.probs[s.index()] = 1.0;
        }
        plan
    }

    /// Add (or update) a site with a firing probability in [0, 1].
    pub fn with_site(mut self, site: FaultSite, prob: f64) -> FaultPlan {
        self.probs[site.index()] = prob.clamp(0.0, 1.0);
        self
    }
}

struct ArmedPlan {
    plan: FaultPlan,
    rng: SplitMix64,
    injected: [u64; 6],
}

static ARMED: AtomicBool = AtomicBool::new(false);
static PLAN: Mutex<Option<ArmedPlan>> = Mutex::new(None);

fn plan_lock() -> std::sync::MutexGuard<'static, Option<ArmedPlan>> {
    // A panic while holding this lock (e.g. one injected under catch_unwind)
    // must not wedge the harness for the rest of the process.
    PLAN.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Arm a fault plan process-wide. Replaces any previously armed plan and
/// resets the PRNG to the plan's seed. Returns a [`ChaosGuard`] that disarms
/// on drop, so a panicking test cannot leak an armed plan into later tests.
#[must_use = "the plan disarms when the guard drops"]
pub fn arm(plan: FaultPlan) -> ChaosGuard {
    let seed = plan.seed;
    *plan_lock() = Some(ArmedPlan {
        rng: SplitMix64::new(seed),
        plan,
        injected: [0; 6],
    });
    ARMED.store(true, Ordering::SeqCst);
    exo_obs::event(
        "chaos.armed",
        vec![("seed".to_string(), exo_obs::Json::uint(seed))],
    );
    ChaosGuard { _priv: () }
}

/// Disarm any armed plan. Idempotent. Prefer letting the [`ChaosGuard`] drop.
pub fn disarm() {
    ARMED.store(false, Ordering::SeqCst);
    *plan_lock() = None;
}

/// RAII guard returned by [`arm`]; disarms the plan when dropped.
pub struct ChaosGuard {
    _priv: (),
}

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        disarm();
    }
}

/// Is any plan armed? One relaxed atomic load — this is the fast path that
/// keeps the harness zero-cost in production.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Should the fault at `site` fire now?
///
/// Returns `false` immediately when no plan is armed. When armed, draws from
/// the plan's deterministic PRNG (sites with probability 1.0 always fire and
/// do not consume a draw, so all-or-nothing plans are schedule-independent).
/// Each firing is tallied once, in the plan's [`injection_counts`].
#[inline]
pub fn should_inject(site: FaultSite) -> bool {
    if !armed() {
        return false;
    }
    should_inject_slow(site)
}

#[cold]
fn should_inject_slow(site: FaultSite) -> bool {
    let mut guard = plan_lock();
    let armed_plan = match guard.as_mut() {
        Some(p) => p,
        None => return false,
    };
    let p = armed_plan.plan.probs[site.index()];
    let fire = if p >= 1.0 {
        true
    } else if p <= 0.0 {
        false
    } else {
        armed_plan.rng.next_f64() < p
    };
    if fire {
        armed_plan.injected[site.index()] += 1;
    }
    fire
}

/// Per-site injection counts for the currently armed plan (zeros if none).
/// Indexed in [`FaultSite::ALL`] order; pairs are `(site, count)`.
pub fn injection_counts() -> Vec<(FaultSite, u64)> {
    let guard = plan_lock();
    match guard.as_ref() {
        Some(p) => FaultSite::ALL
            .iter()
            .map(|&s| (s, p.injected[s.index()]))
            .collect(),
        None => FaultSite::ALL.iter().map(|&s| (s, 0)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The armed plan is process-global, so tests that arm must not run
    // concurrently; serialize them through a local mutex.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disarmed_never_fires() {
        let _s = serial();
        disarm();
        assert!(!armed());
        for &site in &FaultSite::ALL {
            assert!(!should_inject(site));
        }
    }

    #[test]
    fn always_plan_fires_every_time() {
        let _s = serial();
        let _g = arm(FaultPlan::always(1, &[FaultSite::SmtTooHard]));
        for _ in 0..10 {
            assert!(should_inject(FaultSite::SmtTooHard));
            assert!(!should_inject(FaultSite::InterpFuel));
        }
    }

    #[test]
    fn guard_disarms_on_drop() {
        let _s = serial();
        {
            let _g = arm(FaultPlan::always(2, &[FaultSite::PatternNoMatch]));
            assert!(armed());
        }
        assert!(!armed());
        assert!(!should_inject(FaultSite::PatternNoMatch));
    }

    #[test]
    fn fractional_probability_is_deterministic() {
        let _s = serial();
        let draw = |seed: u64| -> Vec<bool> {
            let _g = arm(FaultPlan::new(seed).with_site(FaultSite::AnalysisCacheMiss, 0.5));
            (0..64)
                .map(|_| should_inject(FaultSite::AnalysisCacheMiss))
                .collect()
        };
        let a = draw(42);
        let b = draw(42);
        let c = draw(43);
        assert_eq!(a, b, "same seed must replay the same fault sequence");
        assert_ne!(a, c, "different seeds should diverge");
        assert!(a.iter().any(|&x| x) && a.iter().any(|&x| !x));
    }

    #[test]
    fn counts_are_tracked() {
        let _s = serial();
        let _g = arm(FaultPlan::always(3, &[FaultSite::InterpFuel]));
        for _ in 0..5 {
            assert!(should_inject(FaultSite::InterpFuel));
        }
        let counts = injection_counts();
        let fuel = counts
            .iter()
            .find(|(s, _)| *s == FaultSite::InterpFuel)
            .map(|(_, n)| *n);
        assert_eq!(fuel, Some(5));
    }
}
