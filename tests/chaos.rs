//! Chaos suite: the fig4a (Gemmini GEMM) and fig5a (x86 SGEMM) schedule
//! chains driven under a matrix of seeded fault plans.
//!
//! Invariants asserted, per `DESIGN.md` §Failure model:
//!
//! 1. **No panic escapes** a library-crate boundary under any plan —
//!    every injected fault surfaces as a typed `SchedError`/`InterpError`.
//! 2. **Transactionality** — a failed operator leaves the source
//!    `Procedure`'s `show()` output and provenance transcript
//!    byte-identical.
//! 3. **Soundness monotonicity** — injections only ever turn accepts
//!    into rejects; a chain that succeeds *under* injection implies the
//!    clean chain succeeds, and the clean result is unchanged.
//! 4. **No cache contamination** — after every chaos run, the clean
//!    chains still produce the same accepted schedule.
//!
//! The fault plan is process-global, so every test in this file
//! serializes on `CHAOS_LOCK`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};

use exo::chaos::{self, FaultPlan, FaultSite};
use exo::hwlibs::{Avx512Lib, GemminiLib};
use exo::kernels::{gemmini_gemm, schedlib, x86_gemm};
use exo::prelude::DataType;
use exo::sched::{Procedure, SchedError, SchedState, StateRef};

static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn chaos_lock() -> MutexGuard<'static, ()> {
    CHAOS_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn fresh_state() -> StateRef {
    Arc::new(Mutex::new(SchedState::default()))
}

/// The fig4a chain at a small shape (divisible by the 16×16×16 tile).
fn fig4a_chain(state: &StateRef) -> Result<Procedure, SchedError> {
    gemmini_gemm::schedule_matmul(&GemminiLib::new(), state, 32, 32, 32)
}

/// The fig5a chain at a small shape (one 6×64 microkernel tile ×2).
fn fig5a_chain(state: &StateRef) -> Result<Procedure, SchedError> {
    x86_gemm::schedule_sgemm(&Avx512Lib::new(), state, 12, 128, 8, 6, 64)
}

type Chain = fn(&StateRef) -> Result<Procedure, SchedError>;

const CHAINS: [(&str, Chain); 2] = [("fig4a", fig4a_chain), ("fig5a", fig5a_chain)];

/// Runs a chain with panics trapped at the test boundary: `Ok(result)`
/// when the library held its no-panic contract, `Err(())` when a panic
/// escaped.
fn run_trapped(chain: Chain) -> Result<Result<Procedure, SchedError>, ()> {
    let state = fresh_state();
    catch_unwind(AssertUnwindSafe(|| chain(&state))).map_err(|_| ())
}

#[test]
fn clean_chains_accept() {
    let _g = chaos_lock();
    chaos::disarm();
    for (name, chain) in CHAINS {
        let r = chain(&fresh_state());
        assert!(r.is_ok(), "{name} clean chain rejected: {:?}", r.err());
    }
}

/// The full matrix: every site × several seeds × both chains, at
/// probability 1.0 (deterministic fire) and 0.5 (seeded coin flips).
/// No panic may escape, and success under injection implies clean
/// success with an identical schedule (monotonicity).
#[test]
fn fault_matrix_no_panic_and_monotone() {
    let _g = chaos_lock();

    // Clean baselines first, before any plan has ever been armed.
    chaos::disarm();
    let mut clean: Vec<(usize, String)> = Vec::new();
    for (i, (name, chain)) in CHAINS.iter().enumerate() {
        let p = chain(&fresh_state()).unwrap_or_else(|e| panic!("{name} clean: {e}"));
        clean.push((i, p.show()));
    }

    for site in FaultSite::ALL {
        for seed in [1u64, 7, 42] {
            for prob in [1.0f64, 0.5] {
                let plan = FaultPlan::new(seed).with_site(site, prob);
                for (i, (name, chain)) in CHAINS.iter().enumerate() {
                    let guard = chaos::arm(plan.clone());
                    let outcome = run_trapped(*chain);
                    drop(guard);
                    let ctx = format!("{name} under {}@{prob} seed={seed}", site.name());
                    let result = outcome.unwrap_or_else(|()| panic!("panic escaped: {ctx}"));
                    if let Ok(p) = result {
                        // Monotonicity: an accept under injection must
                        // match the clean accept (injections may only
                        // remove behaviours, never add them).
                        assert_eq!(p.show(), clean[i].1, "schedule diverged: {ctx}");
                    }
                }
            }
        }
    }

    // The caches the chaos runs touched must not have been contaminated:
    // clean chains still accept, with byte-identical schedules.
    chaos::disarm();
    for (i, (name, chain)) in CHAINS.iter().enumerate() {
        let p = chain(&fresh_state()).unwrap_or_else(|e| panic!("{name} post-chaos clean: {e}"));
        assert_eq!(
            p.show(),
            clean[i].1,
            "{name} clean schedule changed after chaos runs"
        );
    }
}

/// Certain-fire plans on the scheduling-facing sites must reject the
/// chains (the first pattern lookup / solver query fails), proving the
/// injection points are actually on the hot path. The fig5a chain poses
/// no solver query (its reorders are decided by the dependence test, its
/// bounds by intervals), so always-`SmtTooHard` never fires there and its
/// schedule is the clean one; the fig4a chain poses queries and is
/// rejected.
#[test]
fn certain_faults_reject() {
    let _g = chaos_lock();
    chaos::disarm();
    let clean_fig5a = fig5a_chain(&fresh_state())
        .expect("clean fig5a chain")
        .show();
    for site in [
        FaultSite::PatternNoMatch,
        FaultSite::PatternAmbiguous,
        FaultSite::SmtTooHard,
    ] {
        let _guard = chaos::arm(FaultPlan::always(3, &[site]));
        for (name, chain) in CHAINS {
            let state = fresh_state();
            let r = chain(&state);
            if site == FaultSite::SmtTooHard && name == "fig5a" {
                let p = r.unwrap_or_else(|e| panic!("fig5a rejected without a query: {e}"));
                assert_eq!(
                    p.show(),
                    clean_fig5a,
                    "fig5a diverged under always-smt-too-hard"
                );
                let queries = state.lock().unwrap().check.stats().queries;
                assert_eq!(queries, 0, "fig5a posed {queries} queries");
            } else {
                assert!(r.is_err(), "{name} accepted under always-{}", site.name());
            }
        }
    }
}

/// A failed operator is transactional: the source `Procedure`'s printed
/// form and provenance transcript are byte-identical afterwards.
#[test]
fn failed_operator_leaves_procedure_unchanged() {
    let _g = chaos_lock();
    chaos::disarm();

    let state = fresh_state();
    let p = Procedure::with_state(gemmini_gemm::naive_matmul(32, 32, 32), state)
        .split("for i in _: _", 16, "io", "ii")
        .expect("clean split");
    let shown = p.show();
    let transcript = p.transcript_text();

    // Force the next pattern lookup to fail mid-chain.
    {
        let _guard = chaos::arm(FaultPlan::always(9, &[FaultSite::PatternNoMatch]));
        let err = p.split("for j in _: _", 16, "jo", "ji");
        assert!(err.is_err(), "chaos no-match should reject the split");
    }

    assert_eq!(p.show(), shown, "failed operator mutated the procedure");
    assert_eq!(
        p.transcript_text(),
        transcript,
        "failed operator extended the transcript"
    );

    // And the handle is still fully usable: the same rewrite succeeds
    // once the plan is disarmed.
    let q = p.split("for j in _: _", 16, "jo", "ji").expect("retry");
    assert!(q.transcript().len() > p.transcript().len());
}

/// The `InterpFuel` site stops the interpreter with a typed budget
/// error rather than letting the run complete (or hang).
#[test]
fn interp_fuel_site_stops_run() {
    let _g = chaos_lock();
    chaos::disarm();

    let state = fresh_state();
    let p = fig4a_chain(&state).expect("clean schedule");

    let _guard = chaos::arm(FaultPlan::always(5, &[FaultSite::InterpFuel]));
    let args = schedlib::gemm_args(32, 32, 32, DataType::I8, DataType::I32);
    let Err(err) = schedlib::run_patterned(p.proc(), &args, false) else {
        panic!("InterpFuel injection did not stop the machine");
    };
    assert!(err.budget_exhausted, "not a budget error: {err}");
    let fired = chaos::injection_counts()
        .into_iter()
        .find(|&(s, _)| s == FaultSite::InterpFuel);
    assert!(matches!(fired, Some((_, n)) if n > 0));
}
