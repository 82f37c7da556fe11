//! One tally per fact: the solver's `SolverStats`, the checking context's
//! `CheckStats` and the chaos plan's `injection_counts` are the only
//! records of their facts. They read the same whether the global
//! registry records or not, and the registry holds no mirror of them and
//! no histogram.
//!
//! One test in its own binary, because it switches the process-wide
//! registry off and on.

use std::sync::{Arc, Mutex};

use exo::analysis::SharedCheckCtx;
use exo::chaos::{FaultPlan, FaultSite};
use exo::hwlibs::Avx512Lib;
use exo::kernels::x86_gemm::schedule_sgemm;
use exo::obs::Registry;
use exo::sched::SchedState;
use exo::smt::formula::Formula;
use exo::smt::solver::SolverStats;

/// Schedules the Fig. 5a SGEMM chain on a fresh isolated state and
/// returns its checking-context and solver stats (`time_us` zeroed: wall
/// time is the one field two runs need not share).
fn fig5a_stats(lib: &Avx512Lib) -> (exo::analysis::CheckStats, SolverStats) {
    let st = Arc::new(Mutex::new(SchedState::isolated()));
    schedule_sgemm(lib, &st, 48, 128, 64, 6, 64).expect("the Fig. 5a schedule applies");
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
    let (check_on, solver_on) = fig5a_stats(&lib);
    reg.set_enabled(false);
    let (check_off, solver_off) = fig5a_stats(&lib);
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

    let mirrors: Vec<(&str, u64)> = reg
        .counters()
        .into_iter()
        .filter(|(name, _)| {
            name.starts_with("smt.")
                || name.starts_with("check.")
                || name.starts_with("chaos.injected.")
                || *name == "sched.ops"
        })
        .collect();
    assert!(mirrors.is_empty(), "registry mirrors of stats: {mirrors:?}");
    let hists: Vec<String> = reg
        .json_lines()
        .lines()
        .filter(|l| l.contains(r#""type":"hist""#))
        .map(str::to_string)
        .collect();
    assert!(hists.is_empty(), "histogram lines: {hists:?}");
}
