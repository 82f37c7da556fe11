//! Resource-budget regression tests: a runaway interpreter run must
//! terminate with a typed budget error — never a hang — and budgeted
//! schedule chains must degrade to conservative rejection.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use exo::core::ResourceBudget;
use exo::hwlibs::GemminiLib;
use exo::kernels::gemmini_gemm;
use exo::prelude::*;
use exo::sched::SchedState;

/// A loop nest that would run for ~16.7M statements finishes (with an
/// error) after a 1 000-step fuel budget instead.
#[test]
fn runaway_loop_stops_on_fuel() {
    let proc = gemmini_gemm::naive_matmul(256, 256, 256);
    let mut machine = Machine::new();
    machine.set_budget(ResourceBudget::with_fuel(1_000));

    let n = 256usize;
    let a = machine.alloc_extern("A", DataType::F32, &[n, n], &vec![0.0; n * n]);
    let b = machine.alloc_extern("B", DataType::F32, &[n, n], &vec![0.0; n * n]);
    let c = machine.alloc_extern("C", DataType::F32, &[n, n], &vec![0.0; n * n]);

    let err = machine
        .run(
            &proc,
            &[ArgVal::Tensor(a), ArgVal::Tensor(b), ArgVal::Tensor(c)],
        )
        .expect_err("a 16M-statement run must exhaust 1000 fuel");
    assert!(err.budget_exhausted, "error not marked as budget: {err}");
    assert!(
        machine.steps() <= 1_001,
        "machine kept running past its fuel: {} steps",
        machine.steps()
    );
}

/// An already-expired deadline rejects the very first statement.
#[test]
fn expired_deadline_stops_immediately() {
    let proc = gemmini_gemm::naive_matmul(16, 16, 16);
    let mut machine = Machine::new();
    machine.set_budget(ResourceBudget::with_deadline(Duration::ZERO));

    let n = 16usize;
    let a = machine.alloc_extern("A", DataType::F32, &[n, n], &vec![0.0; n * n]);
    let b = machine.alloc_extern("B", DataType::F32, &[n, n], &vec![0.0; n * n]);
    let c = machine.alloc_extern("C", DataType::F32, &[n, n], &vec![0.0; n * n]);

    let err = machine
        .run(
            &proc,
            &[ArgVal::Tensor(a), ArgVal::Tensor(b), ArgVal::Tensor(c)],
        )
        .expect_err("expired deadline must reject");
    assert!(err.budget_exhausted);
}

/// A schedule chain under a tiny fuel budget is rejected with a typed
/// error (never a hang, never a partial schedule), and the same chain
/// succeeds with the budget lifted.
#[test]
fn schedule_chain_degrades_under_fuel() {
    let state = Arc::new(Mutex::new(SchedState::default()));
    {
        let mut st = state.lock().unwrap();
        st.set_budget(ResourceBudget::with_fuel(2));
    }
    let r = gemmini_gemm::schedule_matmul(&GemminiLib::new(), &state, 32, 32, 32);
    // Depending on where the pool drains, the rejection comes from
    // operator dispatch ("budget exhausted") or a safety obligation
    // degrading to Unknown — either way it is a typed error, not a hang.
    let _err = r.expect_err("2 fuel cannot cover the fig4a chain");

    // Lifting the budget on the same state lets the chain through —
    // budget exhaustion must not have poisoned any cache.
    {
        let mut st = state.lock().unwrap();
        st.set_budget(ResourceBudget::unlimited());
    }
    gemmini_gemm::schedule_matmul(&GemminiLib::new(), &state, 32, 32, 32)
        .expect("unlimited budget accepts");
}

/// Every `SchedState::default()` checks with a context of its own: a
/// budget installed through one schedule's root reaches no other state,
/// and a new state starts with no verdicts and no counts.
#[test]
fn a_default_state_shares_nothing() {
    let lib = GemminiLib::new();
    let first = Arc::new(Mutex::new(SchedState::default()));
    gemmini_gemm::schedule_matmul(&lib, &first, 32, 32, 32).expect("first schedule");
    assert!(first.lock().unwrap().check.stats().queries > 0);

    Procedure::new(gemmini_gemm::naive_matmul(32, 32, 32)).set_budget(ResourceBudget::with_fuel(1));

    let second = Arc::new(Mutex::new(SchedState::default()));
    let check = second.lock().unwrap().check.clone();
    assert_eq!(check.stats(), Default::default());
    gemmini_gemm::schedule_matmul(&lib, &second, 32, 32, 32).expect("second schedule");
    assert_eq!(check.stats().budget_unknown, 0);
}
