//! Pins the solver work of the `schedule-cold` benchmark's five
//! schedules: each runs on a fresh checking context, and its
//! `SolverStats` afterwards — queries, answers, give-ups and QE nodes —
//! must match exactly. A change to how obligations are built or decided
//! that makes the solver do more (or less) work fails here and has to
//! re-pin the row it moves.
//!
//! The verdict corpus (`crates/kernels/tests/verdict_corpus.rs`) pins
//! every formula of the same schedules, but it runs in release; this pin
//! keeps the totals in the default `cargo test -q`.

use std::sync::{Arc, Mutex};

use exo::analysis::SharedCheckCtx;
use exo::hwlibs::{Avx512Lib, GemminiLib};
use exo::kernels::gemmini_conv::{schedule_conv, ConvShape};
use exo::kernels::gemmini_gemm::schedule_matmul;
use exo::kernels::x86_conv::schedule_conv_avx512;
use exo::kernels::x86_gemm::schedule_sgemm;
use exo::sched::{Procedure, SchedError, SchedState, StateRef};

/// One schedule's solver work: `(queries, yes, no, gave_up, nodes)`.
type Work = (usize, usize, usize, usize, usize);

/// `(subject, work)` of each `schedule-cold` schedule, in the
/// benchmark's order.
const PINNED: [(&str, Work); 5] = [
    ("matmul_64x64x64", (17, 0, 17, 0, 984)),
    ("matmul_32x256x1024", (19, 0, 19, 0, 1266)),
    ("gemmini_conv_4", (28, 0, 28, 0, 3457)),
    ("sgemm_24x128x32", (17, 0, 17, 0, 883)),
    ("x86_conv_4", (18, 0, 18, 0, 1288)),
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
