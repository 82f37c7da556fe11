//! Pins the invariant warm Gemmini scheduling rests on: scheduling the
//! Fig. 4a matmul chain a second time on the same `SchedState` poses the
//! same safety obligations as the first time and answers every one of
//! them from the verdict cache, so nothing reaches the solver. The shapes
//! are the `gemmini-fig4a` benchmark workload's (`N` divided by 16,
//! rounded to a multiple of 16, at least 32). Each shape's count of
//! check queries is pinned: a change to how obligations are built must
//! pose exactly as many.

use std::sync::{Arc, Mutex};

use exo::analysis::SharedCheckCtx;
use exo::hwlibs::GemminiLib;
use exo::kernels::gemmini_gemm::schedule_matmul;
use exo::sched::{SchedState, StateRef};

/// `(N, M, K)` of each scaled Fig. 4a shape and the check queries one
/// schedule of it poses.
const SHAPES: [((i64, i64, i64), usize); 12] = [
    ((784, 64, 64), 67),
    ((784, 64, 256), 67),
    ((784, 256, 64), 67),
    ((192, 128, 128), 67),
    ((192, 128, 512), 67),
    ((192, 512, 128), 67),
    ((48, 256, 256), 67),
    ((48, 256, 1024), 78),
    ((48, 1024, 256), 78),
    ((32, 512, 512), 78),
    ((32, 512, 2048), 78),
    ((32, 2048, 512), 78),
];

#[test]
fn warm_fig4a_schedules_send_nothing_to_the_solver() {
    let lib = GemminiLib::new();
    let check = SharedCheckCtx::with_cache(true);
    let state: StateRef = Arc::new(Mutex::new(SchedState::with_check(check.clone())));
    let mut got = Vec::new();
    for pass in ["cold", "warm"] {
        for &((n, m, k), _) in &SHAPES {
            let before = check.stats();
            let solved = check.solver_stats();
            schedule_matmul(&lib, &state, n, m, k).expect("schedule");
            let after = check.stats();
            let queries = after.queries - before.queries;
            got.push(((n, m, k), queries));
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
    assert_eq!(cold, pinned, "check queries per shape");
}
