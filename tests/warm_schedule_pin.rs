//! Pins the invariant warm Gemmini scheduling rests on: scheduling the
//! Fig. 4a matmul chain a second time on the same `SchedState` poses the
//! same safety obligations as the first time and answers every one of
//! them from the verdict cache, so nothing reaches the solver. The shapes
//! are the `gemmini-fig4a` benchmark workload's (`N` divided by 16,
//! rounded to a multiple of 16, at least 32). Each shape's count of
//! check queries is pinned, and beside it the bounds obligations its
//! `analysis.check_bounds` spans record (the interval prover decides
//! most of those without a check query): a change to how obligations
//! are built must pose exactly as many, warm as cold.

use std::sync::{Arc, Mutex};

use exo::analysis::SharedCheckCtx;
use exo::hwlibs::GemminiLib;
use exo::kernels::gemmini_gemm::schedule_matmul;
use exo::obs::Registry;
use exo::sched::{SchedState, StateRef};

/// `(N, M, K)` of each scaled Fig. 4a shape, the check queries one
/// schedule of it poses and the bounds obligations it poses.
type Shape = ((i64, i64, i64), usize, i64);

const SHAPES: [Shape; 12] = [
    ((784, 64, 64), 4, 40),
    ((784, 64, 256), 4, 40),
    ((784, 256, 64), 4, 40),
    ((192, 128, 128), 4, 40),
    ((192, 128, 512), 4, 40),
    ((192, 512, 128), 4, 40),
    ((48, 256, 256), 4, 40),
    ((48, 256, 1024), 4, 52),
    ((48, 1024, 256), 4, 52),
    ((32, 512, 512), 4, 52),
    ((32, 512, 2048), 4, 52),
    ((32, 2048, 512), 4, 52),
];

/// The summed `obligations` of the `analysis.check_bounds` spans in the
/// registry. This file is its own test process, so they are this test's.
fn bounds_obligations() -> i64 {
    Registry::global()
        .traces()
        .iter()
        .filter(|t| t.name == "analysis.check_bounds")
        .map(|t| {
            t.fields
                .iter()
                .find(|(k, _)| k == "obligations")
                .and_then(|(_, v)| v.as_int())
                .expect("an integer obligations field")
        })
        .sum()
}

#[test]
fn warm_fig4a_schedules_send_nothing_to_the_solver() {
    let lib = GemminiLib::new();
    let check = SharedCheckCtx::with_cache(true);
    let state: StateRef = Arc::new(Mutex::new(SchedState::with_check(check.clone())));
    let mut got = Vec::new();
    for pass in ["cold", "warm"] {
        for &((n, m, k), ..) in &SHAPES {
            Registry::global().clear();
            let before = check.stats();
            let solved = check.solver_stats();
            schedule_matmul(&lib, &state, n, m, k).expect("schedule");
            let after = check.stats();
            let queries = after.queries - before.queries;
            got.push(((n, m, k), queries, bounds_obligations()));
            if pass == "warm" {
                assert_eq!(
                    after.misses, before.misses,
                    "{pass} {n}x{m}x{k}: cache misses"
                );
                assert_eq!(
                    check.solver_stats(),
                    solved,
                    "{pass} {n}x{m}x{k}: the solver ran"
                );
            }
        }
    }
    let (cold, warm) = got.split_at(SHAPES.len());
    assert_eq!(cold, warm, "both passes pose the same obligations");
    let pinned: Vec<_> = SHAPES.to_vec();
    assert_eq!(
        cold, pinned,
        "check queries and bounds obligations per shape"
    );
}
