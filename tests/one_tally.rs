//! One tally per fact: the solver's `SolverStats`, the checking context's
//! `CheckStats` and the chaos plan's `injection_counts` are the only
//! records of their facts. They read the same whether the global
//! registry records or not, and the registry holds spans only: no
//! counter, no histogram, no mirror of them.
//!
//! One test in its own binary, because it switches the process-wide
//! registry off and on.

use std::sync::{Arc, Mutex};

use exo::analysis::SharedCheckCtx;
use exo::chaos::{FaultPlan, FaultSite};
use exo::hwlibs::Avx512Lib;
use exo::kernels::x86_gemm::schedule_sgemm;
use exo::obs::{Json, Registry};
use exo::prelude::{DataType, Expr, Proc, ProcBuilder};
use exo::sched::{Procedure, SchedState};
use exo::smt::formula::Formula;
use exo::smt::solver::SolverStats;

/// `for i in 0..8: for j in 0..2: A[2·i + j] = 0.0`: a reorder that
/// the dependence test leaves to the solver.
fn interleaved_fill() -> std::sync::Arc<Proc> {
    let mut b = ProcBuilder::new("interleave");
    let a = b.tensor("A", DataType::F32, vec![Expr::int(16)]);
    let i = b.begin_for("i", Expr::int(0), Expr::int(8));
    let j = b.begin_for("j", Expr::int(0), Expr::int(2));
    let idx = Expr::int(2).mul(Expr::var(i)).add(Expr::var(j));
    b.assign(a, vec![idx], Expr::float(0.0));
    b.end_for().end_for();
    b.finish()
}

/// Schedules the Fig. 5a SGEMM chain on a fresh state, then reorders
/// [`interleaved_fill`] on it (the chain alone poses no solver query),
/// and returns its checking-context and solver stats (`time_us` zeroed:
/// wall time is the one field two runs need not share).
fn schedule_stats(lib: &Avx512Lib) -> (exo::analysis::CheckStats, SolverStats) {
    let st = Arc::new(Mutex::new(SchedState::default()));
    schedule_sgemm(lib, &st, 48, 128, 64, 6, 64).expect("the Fig. 5a schedule applies");
    Procedure::with_state(interleaved_fill(), Arc::clone(&st))
        .reorder("for i in _: _", "j")
        .expect("the interleaved nest reorders");
    let check = st.lock().unwrap().check.clone();
    let solver = SolverStats {
        time_us: 0,
        ..check.solver_stats()
    };
    (check.stats(), solver)
}

#[test]
fn stats_are_the_only_tally_and_read_the_same_with_the_registry_off() {
    let lib = Avx512Lib::new();
    let reg = Registry::global();

    reg.set_enabled(true);
    let (check_on, solver_on) = schedule_stats(&lib);
    reg.set_enabled(false);
    let (check_off, solver_off) = schedule_stats(&lib);
    reg.set_enabled(true);

    assert!(check_on.queries > 0 && solver_on.queries > 0);
    assert_eq!(check_on, check_off);
    assert_eq!(solver_on, solver_off);

    // an injected fault is tallied by the plan alone
    {
        let _chaos = exo::chaos::arm(FaultPlan::always(1, &[FaultSite::AnalysisCacheMiss]));
        let _ = SharedCheckCtx::fresh().check_sat(&Formula::True);
        let fired = exo::chaos::injection_counts()
            .into_iter()
            .find(|&(s, _)| s == FaultSite::AnalysisCacheMiss);
        assert_eq!(fired, Some((FaultSite::AnalysisCacheMiss, 1)));
    }

    // the registry keeps spans only: no counter, histogram or other
    // mirror of a stat lands in its export
    let dump = reg.json_lines();
    assert!(!dump.is_empty(), "the fig5a chain recorded no span");
    let others: Vec<&str> = dump
        .lines()
        .filter(|l| {
            let record = Json::parse(l).expect("a JSON line parses");
            record.get("type").and_then(Json::as_str) != Some("span")
        })
        .collect();
    assert!(others.is_empty(), "non-span records: {others:?}");
}
