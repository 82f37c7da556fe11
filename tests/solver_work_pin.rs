//! Pins the solver work of the `schedule-cold` benchmark's five
//! schedules and of the `lint-cold` benchmark's seven lint subjects:
//! each runs on a fresh checking context, and its `SolverStats`
//! afterwards — queries, answers, give-ups and QE nodes — must match
//! exactly. A change to how obligations are built or decided that makes
//! the solver do more (or less) work fails here and has to re-pin the
//! row it moves.
//!
//! The verdict corpus (`crates/kernels/tests/verdict_corpus.rs`) pins
//! every formula of the same subjects, but it runs in release; this pin
//! keeps the totals in the default `cargo test -q`.

use std::sync::{Arc, Mutex};

use exo::analysis::{GlobalReg, SharedCheckCtx};
use exo::core::Proc;
use exo::hwlibs::{Avx512Lib, GemminiLib};
use exo::kernels::gemmini_conv::{naive_conv, schedule_conv, ConvShape};
use exo::kernels::gemmini_gemm::{naive_matmul, schedule_matmul};
use exo::kernels::x86_conv::schedule_conv_avx512;
use exo::kernels::x86_gemm::{naive_sgemm, schedule_sgemm};
use exo::sched::{Procedure, SchedError, SchedState, StateRef};

/// One schedule's solver work: `(queries, yes, no, gave_up, nodes)`.
type Work = (usize, usize, usize, usize, usize);

/// `(subject, work)` of each `schedule-cold` schedule, in the
/// benchmark's order.
const PINNED: [(&str, Work); 5] = [
    ("matmul_64x64x64", (1, 0, 1, 0, 1)),
    ("matmul_32x256x1024", (1, 0, 1, 0, 1)),
    ("gemmini_conv_4", (1, 0, 1, 0, 1)),
    ("sgemm_24x128x32", (0, 0, 0, 0, 0)),
    ("x86_conv_4", (0, 0, 0, 0, 0)),
];

/// `(subject, work)` of each `lint-cold` subject, in the benchmark's
/// order: three naive procedures, then four scheduled ones.
const LINT_PINNED: [(&str, Work); 7] = [
    ("naive_sgemm_6x128x8", (0, 0, 0, 0, 0)),
    ("naive_matmul_32", (0, 0, 0, 0, 0)),
    ("naive_gemmini_conv_4", (0, 0, 0, 0, 0)),
    ("scheduled_matmul_32", (0, 0, 0, 0, 0)),
    ("scheduled_sgemm_6x128x8", (0, 0, 0, 0, 0)),
    ("scheduled_x86_conv_8", (0, 0, 0, 0, 0)),
    ("scheduled_gemmini_conv_4", (0, 0, 0, 0, 0)),
];

/// Schedules on a fresh context and reads its solver's totals.
fn work(run: impl FnOnce(&StateRef) -> Result<Procedure, SchedError>) -> Work {
    let check = SharedCheckCtx::with_cache(true);
    let state: StateRef = Arc::new(Mutex::new(SchedState::with_check(check.clone())));
    run(&state).expect("schedule");
    let s = check.solver_stats();
    (s.queries, s.yes, s.no, s.gave_up, s.nodes)
}

#[test]
fn schedule_cold_solver_work_is_pinned() {
    let gemmini = GemminiLib::new();
    let avx = Avx512Lib::new();
    let gconv = ConvShape::fig4b(4, 32, 32);
    let xconv = ConvShape {
        batch: 1,
        out_dim: 4,
        oc: 32,
        ic: 16,
        kdim: 3,
    };
    let got = [
        (
            "matmul_64x64x64",
            work(|s| schedule_matmul(&gemmini, s, 64, 64, 64)),
        ),
        (
            "matmul_32x256x1024",
            work(|s| schedule_matmul(&gemmini, s, 32, 256, 1024)),
        ),
        (
            "gemmini_conv_4",
            work(|s| schedule_conv(&gemmini, s, &gconv)),
        ),
        (
            "sgemm_24x128x32",
            work(|s| schedule_sgemm(&avx, s, 24, 128, 32, 6, 64)),
        ),
        (
            "x86_conv_4",
            work(|s| schedule_conv_avx512(&avx, s, &xconv, 4)),
        ),
    ];
    assert_eq!(
        got, PINNED,
        "(queries, yes, no, gave_up, nodes) per schedule"
    );
}

/// Schedules on a fresh context whose solver work is not pinned: the
/// lint subjects' set-up.
fn scheduled(run: impl FnOnce(&StateRef) -> Result<Procedure, SchedError>) -> Arc<Proc> {
    let state: StateRef = Arc::new(Mutex::new(SchedState::default()));
    run(&state).expect("schedule").proc().clone()
}

/// Lints and classifies the loops of `proc` on a fresh context and
/// global registry, as `lint-cold` does, and reads the solver's totals.
fn lint_work(proc: &Arc<Proc>) -> Work {
    let check = SharedCheckCtx::with_cache(true);
    let mut reg = GlobalReg::new();
    let _ = exo::lint::lint_proc_with(proc, &check, &mut reg);
    let _ = exo::lint::classify_loops(proc, &check, &mut reg);
    let s = check.solver_stats();
    (s.queries, s.yes, s.no, s.gave_up, s.nodes)
}

#[test]
fn lint_cold_solver_work_is_pinned() {
    let gemmini = GemminiLib::new();
    let avx = Avx512Lib::new();
    let gconv = ConvShape::fig4b(4, 32, 32);
    let xconv = ConvShape {
        batch: 1,
        out_dim: 8,
        oc: 32,
        ic: 16,
        kdim: 3,
    };
    let subjects = [
        ("naive_sgemm_6x128x8", naive_sgemm(6, 128, 8)),
        ("naive_matmul_32", naive_matmul(32, 32, 32)),
        ("naive_gemmini_conv_4", naive_conv(&gconv)),
        (
            "scheduled_matmul_32",
            scheduled(|s| schedule_matmul(&gemmini, s, 32, 32, 32)),
        ),
        (
            "scheduled_sgemm_6x128x8",
            scheduled(|s| schedule_sgemm(&avx, s, 6, 128, 8, 6, 64)),
        ),
        (
            "scheduled_x86_conv_8",
            scheduled(|s| schedule_conv_avx512(&avx, s, &xconv, 4)),
        ),
        (
            "scheduled_gemmini_conv_4",
            scheduled(|s| schedule_conv(&gemmini, s, &gconv)),
        ),
    ];
    let got = subjects.map(|(subject, proc)| (subject, lint_work(&proc)));
    assert_eq!(
        got, LINT_PINNED,
        "(queries, yes, no, gave_up, nodes) per lint subject"
    );
}
