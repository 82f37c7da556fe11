//! Exact `InterpError` messages, and the step at which each fires.
//!
//! Every error here is dynamic: it fires when the faulty statement runs,
//! after the statements before it have run, and never for a statement
//! that does not run. The chaos test arms a process-wide fault plan, so
//! every test in this file takes one lock.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use exo_chaos::{FaultPlan, FaultSite};
use exo_core::budget::ResourceBudget;
use exo_core::build::{read, ProcBuilder};
use exo_core::ir::{Expr, Proc, Stmt, WAccess};
use exo_core::types::{DataType, MemName};
use exo_core::Sym;
use exo_interp::{ArgVal, InterpError, Machine};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `p` on fresh buffers of the given 1-D lengths (initialized to
/// zero) and returns the error with the machine's `steps()`.
fn fail(p: &Proc, lens: &[usize]) -> (InterpError, u64) {
    fail_on(&mut Machine::new(), p, lens)
}

fn fail_on(m: &mut Machine, p: &Proc, lens: &[usize]) -> (InterpError, u64) {
    let args: Vec<ArgVal> = lens
        .iter()
        .map(|&n| ArgVal::Tensor(m.alloc_extern("t", DataType::F32, &[n], &vec![0.0; n])))
        .collect();
    let e = m.run(p, &args).expect_err("run must fail");
    (e, m.steps())
}

fn assert_fails(p: &Proc, lens: &[usize], message: &str, steps: u64) {
    let (e, got_steps) = fail(p, lens);
    assert_eq!(e.message, message);
    assert!(!e.budget_exhausted);
    assert_eq!(got_steps, steps, "steps at {message:?}");
}

/// `A : f32[4]` followed by whatever `body` adds.
fn with_a(body: impl FnOnce(&mut ProcBuilder, Sym)) -> Arc<Proc> {
    let mut b = ProcBuilder::new("p");
    let a = b.tensor("A", DataType::F32, vec![Expr::int(4)]);
    b.stmt(Stmt::Pass);
    body(&mut b, a);
    b.finish()
}

#[test]
fn out_of_bounds_read_and_store() {
    let _g = serial();
    let p = with_a(|b, a| {
        b.assign(a, vec![Expr::int(0)], read(a, vec![Expr::int(4)]));
    });
    assert_fails(&p, &[4], "out-of-bounds read of A at [4]", 2);
    let p = with_a(|b, a| {
        b.assign(a, vec![Expr::int(7)], Expr::float(1.0));
    });
    assert_fails(&p, &[4], "out-of-bounds store to A at [7]", 2);
    // rank mismatch reports the coordinates as given
    let p = with_a(|b, a| {
        b.reduce(a, vec![Expr::int(1), Expr::int(2)], Expr::float(1.0));
    });
    assert_fails(&p, &[4], "out-of-bounds store to A at [1, 2]", 2);
    // coordinates of a window access are window coordinates
    let p = with_a(|b, a| {
        let w = b.window("w", a, vec![WAccess::Interval(Expr::int(1), Expr::int(3))]);
        b.assign(w, vec![Expr::int(2)], Expr::float(1.0));
    });
    assert_fails(&p, &[4], "out-of-bounds store to w at [2]", 3);
    let p = with_a(|b, a| {
        b.assign(a, vec![Expr::int(-1)], Expr::float(1.0));
    });
    assert_fails(&p, &[4], "negative index -1", 2);
}

#[test]
fn uninitialized_read_and_reduction() {
    let _g = serial();
    let p = with_a(|b, a| {
        let t = b.alloc("t", DataType::F32, vec![Expr::int(2)], MemName::dram());
        b.assign(t, vec![Expr::int(0)], Expr::float(1.0));
        b.assign(a, vec![Expr::int(0)], read(t, vec![Expr::int(1)]));
    });
    assert_fails(&p, &[4], "read of uninitialized t[[1]]", 4);
    let p = with_a(|b, _| {
        let t = b.alloc("t", DataType::F32, vec![], MemName::dram());
        b.reduce(t, vec![], Expr::float(1.0));
    });
    assert_fails(&p, &[4], "reduction into uninitialized location of t", 3);
}

/// Runs `p` as [`assert_fails`] does, under the unlimited budget and
/// under a limited one that never runs out (which runs every loop an
/// iteration at a time).
fn assert_fails_under_both_budgets(p: &Proc, lens: &[usize], message: &str, steps: u64) {
    assert_fails(p, lens, message, steps);
    let mut m = Machine::new();
    m.set_budget(ResourceBudget::with_fuel(u64::MAX - 1));
    let (e, got_steps) = fail_on(&mut m, p, lens);
    assert_eq!(e.message, message);
    assert_eq!(got_steps, steps, "limited budget: steps at {message:?}");
}

#[test]
fn an_alloc_that_runs_again_starts_uninitialized() {
    let _g = serial();
    // for j < 2: t : f32[4]; if j == 1: A[0] = t[0]; for i < 4: t[i] = A[i]
    let p = with_a(|b, a| {
        let j = b.begin_for("j", Expr::int(0), Expr::int(2));
        let t = b.alloc("t", DataType::F32, vec![Expr::int(4)], MemName::dram());
        b.begin_if(Expr::var(j).eq(Expr::int(1)));
        b.assign(a, vec![Expr::int(0)], read(t, vec![Expr::int(0)]));
        b.end_if();
        let i = b.begin_for("i", Expr::int(0), Expr::int(4));
        b.assign(t, vec![Expr::var(i)], read(a, vec![Expr::var(i)]));
        b.end_for();
        b.end_for();
    });
    assert_fails_under_both_budgets(&p, &[4], "read of uninitialized t[[0]]", 12);
    // for j < 2: t : f32[8]; t[i] = A[i] for i < 4; if j == 0:
    // t[i + 4] = A[i] for i < 4; A[0] = t[i] for i < 8
    let p = with_a(|b, a| {
        let j = b.begin_for("j", Expr::int(0), Expr::int(2));
        let t = b.alloc("t", DataType::F32, vec![Expr::int(8)], MemName::dram());
        let i = b.begin_for("i", Expr::int(0), Expr::int(4));
        b.assign(t, vec![Expr::var(i)], read(a, vec![Expr::var(i)]));
        b.end_for();
        b.begin_if(Expr::var(j).eq(Expr::int(0)));
        let i = b.begin_for("i", Expr::int(0), Expr::int(4));
        b.assign(
            t,
            vec![Expr::var(i).add(Expr::int(4))],
            read(a, vec![Expr::var(i)]),
        );
        b.end_for();
        b.end_if();
        let i = b.begin_for("i", Expr::int(0), Expr::int(8));
        b.assign(a, vec![Expr::int(0)], read(t, vec![Expr::var(i)]));
        b.end_for();
        b.end_for();
    });
    assert_fails_under_both_budgets(&p, &[4], "read of uninitialized t[[4]]", 36);
}

#[test]
fn unknown_symbols() {
    let _g = serial();
    let ghost = Sym::new("ghost");
    let p = with_a(|b, a| {
        b.assign(a, vec![Expr::int(0)], read(ghost, vec![Expr::int(0)]));
    });
    assert_fails(&p, &[4], "read of unknown buffer ghost", 2);
    let p = with_a(|b, _| {
        b.assign(ghost, vec![Expr::int(0)], Expr::float(1.0));
    });
    assert_fails(&p, &[4], "store to unknown buffer ghost", 2);
    let p = with_a(|b, a| {
        b.assign(a, vec![Expr::var(ghost)], Expr::float(1.0));
    });
    assert_fails(&p, &[4], "unbound control variable ghost", 2);
    let p = with_a(|b, a| {
        b.window("w", ghost, vec![WAccess::Point(Expr::int(0))]);
        let _ = a;
    });
    assert_fails(&p, &[4], "window over unknown symbol ghost", 2);
    let p = with_a(|b, a| {
        b.assign(
            a,
            vec![Expr::Stride { buf: ghost, dim: 0 }],
            Expr::float(1.0),
        );
    });
    assert_fails(&p, &[4], "stride() of unknown buffer ghost", 2);
    // the coordinates are evaluated before the buffer is looked up
    let p = with_a(|b, _| {
        b.assign(ghost, vec![Expr::int(-2)], Expr::float(1.0));
    });
    assert_fails(&p, &[4], "negative index -2", 2);
}

#[test]
fn kind_mismatches() {
    let _g = serial();
    let p = with_a(|b, a| {
        b.assign(a, vec![Expr::var(a)], Expr::float(1.0));
    });
    assert_fails(&p, &[4], "A is a buffer, not a control value", 2);
    let p = with_a(|b, a| {
        b.assign(a, vec![read(a, vec![Expr::int(0)])], Expr::float(1.0));
    });
    assert_fails(&p, &[4], "data expression in control position", 2);
    let p = with_a(|b, a| {
        let i = b.begin_for("i", Expr::int(0), Expr::int(2));
        b.assign(a, vec![Expr::int(0)], Expr::var(i));
        b.end_for();
    });
    assert_fails(&p, &[4], "control expression in data position", 3);
    let p = with_a(|b, a| {
        b.assign(a, vec![Expr::bool(true)], Expr::float(1.0));
    });
    assert_fails(&p, &[4], "expected integer, got boolean", 2);
    let p = with_a(|b, a| {
        b.assign(a, vec![Expr::float(0.5)], Expr::float(1.0));
    });
    assert_fails(&p, &[4], "float literal in control position", 2);
    let mut m = Machine::new();
    let e = m.run(&with_a(|_, _| {}), &[ArgVal::Int(3)]).unwrap_err();
    assert_eq!(e.message, "argument kind mismatch for parameter A");
}

#[test]
fn window_bounds_and_arity() {
    let _g = serial();
    let p = with_a(|b, a| {
        b.window("w", a, vec![WAccess::Point(Expr::int(4))]);
    });
    assert_fails(&p, &[4], "window point 4 out of bounds on A", 2);
    let p = with_a(|b, a| {
        b.window("w", a, vec![WAccess::Interval(Expr::int(1), Expr::int(5))]);
    });
    assert_fails(&p, &[4], "window interval 1:5 out of bounds on A", 2);
    let p = with_a(|b, a| {
        b.window(
            "w",
            a,
            vec![
                WAccess::Point(Expr::int(0)),
                WAccess::Interval(Expr::int(0), Expr::int(1)),
            ],
        );
    });
    assert_fails(&p, &[4], "window arity mismatch over A", 2);
}

/// `callee(x : f32[n])` with an empty body, called from `p` on `arg`.
fn call_with(arg: impl FnOnce(Sym) -> Vec<Expr>) -> Arc<Proc> {
    let mut cb = ProcBuilder::new("callee");
    let n = cb.size("n");
    cb.tensor("x", DataType::F32, vec![Expr::var(n)]);
    cb.stmt(Stmt::Pass);
    let callee = cb.finish();
    with_a(|b, a| {
        b.call(&callee, arg(a));
    })
}

#[test]
fn call_argument_errors() {
    let _g = serial();
    let p = call_with(|a| vec![Expr::int(4), read(a, vec![Expr::int(5)])]);
    assert_fails(&p, &[4], "out-of-bounds point access into A", 2);
    let p = call_with(|a| vec![Expr::int(4), read(a, vec![Expr::int(0), Expr::int(0)])]);
    assert_fails(&p, &[4], "wrong arity point access into A", 2);
    let p = call_with(|a| vec![Expr::int(3), read(a, vec![])]);
    assert_fails(&p, &[4], "extent mismatch for x: declared 3, got 4", 2);
    let p = call_with(|a| {
        let w = Expr::Window {
            buf: a,
            coords: vec![WAccess::Point(Expr::int(1))],
        };
        vec![Expr::int(4), w]
    });
    assert_fails(&p, &[4], "rank mismatch for x: declared 1, got 0", 2);
}

#[test]
fn config_and_builtin_errors() {
    let _g = serial();
    let cfg = Sym::new("Cfg");
    let field = Sym::new("stride");
    let p = with_a(|b, a| {
        let rc = Expr::ReadConfig { config: cfg, field };
        b.assign(a, vec![rc], Expr::float(1.0));
    });
    assert_fails(&p, &[4], "read of unset configuration Cfg.stride", 2);
    let p = with_a(|b, a| {
        let call = Expr::BuiltIn {
            func: Sym::new("frobnicate"),
            args: vec![Expr::float(1.0)],
        };
        b.assign(a, vec![Expr::int(0)], call);
    });
    assert_fails(&p, &[4], "unknown builtin frobnicate", 2);
    let p = with_a(|b, a| {
        let call = Expr::BuiltIn {
            func: Sym::new("max"),
            args: vec![Expr::float(1.0)],
        };
        b.assign(a, vec![Expr::int(0)], call);
    });
    assert_fails(&p, &[4], "builtin max expects 2 arguments", 2);
    let p = with_a(|b, a| {
        let call = Expr::BuiltIn {
            func: Sym::new("relu"),
            args: vec![Expr::float(1.0), Expr::float(2.0)],
        };
        b.assign(a, vec![Expr::int(0)], call);
    });
    assert_fails(&p, &[4], "builtin relu expects 1 argument", 2);
}

#[test]
fn errors_fire_only_when_the_statement_runs() {
    let _g = serial();
    let ghost = Sym::new("ghost");
    let p = with_a(|b, a| {
        b.begin_if(Expr::bool(false));
        b.assign(ghost, vec![Expr::var(ghost)], read(a, vec![Expr::int(9)]));
        b.end_if();
        let i = b.begin_for("i", Expr::int(0), Expr::int(0));
        b.assign(
            a,
            vec![Expr::var(i)],
            Expr::BuiltIn {
                func: Sym::new("frobnicate"),
                args: vec![],
            },
        );
        b.end_for();
        b.assign(a, vec![Expr::int(3)], Expr::float(2.0));
    });
    let mut m = Machine::new();
    let id = m.alloc_extern("A", DataType::F32, &[4], &[0.0; 4]);
    m.run(&p, &[ArgVal::Tensor(id)]).unwrap();
    assert_eq!(m.steps(), 4);
    assert_eq!(m.buffer_values(id).unwrap(), vec![0.0, 0.0, 0.0, 2.0]);
}

#[test]
fn fuel_stop_reports_exact_step() {
    let _g = serial();
    let p = with_a(|b, a| {
        b.begin_for("i", Expr::int(0), Expr::int(10));
        b.assign(a, vec![Expr::int(0)], Expr::float(1.0));
        b.end_for();
    });
    let mut m = Machine::new();
    m.set_budget(ResourceBudget::with_fuel(5));
    let (e, steps) = fail_on(&mut m, &p, &[4]);
    assert_eq!(
        e.message,
        "interpreter stopped after 6 steps: fuel budget exhausted (limit 5)"
    );
    assert!(e.budget_exhausted);
    assert_eq!(steps, 6);
}

#[test]
fn chaos_fuel_stop_reports_exact_step() {
    let _g = serial();
    let p = with_a(|b, a| {
        b.begin_for("i", Expr::int(0), Expr::int(100));
        b.assign(a, vec![Expr::int(0)], Expr::float(1.0));
        b.end_for();
    });
    let plan = FaultPlan::new(11).with_site(FaultSite::InterpFuel, 0.05);
    let (e, steps) = {
        let _chaos = exo_chaos::arm(plan);
        fail(&p, &[4])
    };
    assert_eq!(
        e.message,
        format!("interpreter stopped after {steps} steps: fuel budget exhausted (chaos)")
    );
    assert!(e.budget_exhausted);
    assert_eq!(steps, 42);
}

#[test]
fn control_arithmetic_overflow_is_a_typed_error() {
    let _g = serial();
    let max = || Expr::int(i64::MAX);
    let min = || Expr::int(i64::MIN);
    for (index, message) in [
        (
            max().add(Expr::int(1)),
            "integer overflow in 9223372036854775807 + 1",
        ),
        (
            min().sub(Expr::int(1)),
            "integer overflow in -9223372036854775808 - 1",
        ),
        (
            max().mul(Expr::int(2)),
            "integer overflow in 9223372036854775807 * 2",
        ),
        (
            Expr::Neg(Box::new(min())),
            "integer overflow in -(-9223372036854775808)",
        ),
    ] {
        let p = with_a(|b, a| {
            b.assign(a, vec![index], Expr::float(1.0));
        });
        assert_fails(&p, &[4], message, 2);
    }
}
