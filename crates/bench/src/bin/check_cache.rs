//! Measures the canonical-formula verdict cache on the Gemmini matmul
//! schedule chain, whose `configwrite_at` context-extension checks are
//! the obligations that still reach the cache (its reorders are decided
//! by the dependence test, its bounds by intervals): the same chain is
//! scheduled with the cache cold, warm (same context, second run), and
//! disabled, and the wall time plus query/hit counters of each phase are
//! written to `BENCH_check_cache.json`, with the query count of the
//! Fig. 5a AVX-512 SGEMM chain, which poses none.
//!
//! The binary exits nonzero if a cached run reports zero hits — the
//! regression guard for the cache plumbing — or if the Fig. 5a chain
//! poses a query.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use exo_bench::{fresh_state, write_bench_json};
use exo_hwlibs::{Avx512Lib, GemminiLib};
use exo_kernels::gemmini_gemm::schedule_matmul;
use exo_kernels::x86_gemm::schedule_sgemm;
use exo_obs::Json;
use exo_sched::{SchedState, SharedCheckCtx, StateRef};

struct Phase {
    name: &'static str,
    wall_us: u64,
    queries: usize,
    hits: usize,
    misses: usize,
}

/// The matmul problem size `(N, M, K)` every phase schedules.
const DIMS: (i64, i64, i64) = (64, 64, 64);

/// The check queries `schedule` poses on `state`, with its wall time.
fn measure(state: &StateRef, name: &'static str, schedule: impl FnOnce(&StateRef)) -> Phase {
    let stats = || {
        state
            .lock()
            .expect("scheduler state poisoned")
            .check
            .stats()
    };
    let before = stats();
    let start = Instant::now();
    schedule(state);
    let wall_us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
    let after = stats();
    Phase {
        name,
        wall_us,
        queries: after.queries - before.queries,
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
    }
}

fn run_chain(lib: &GemminiLib, state: &StateRef, name: &'static str) -> Phase {
    let (n, m, k) = DIMS;
    measure(state, name, |s| {
        schedule_matmul(lib, s, n, m, k)
            .unwrap_or_else(|e| panic!("schedule_matmul({n},{m},{k}): {e}"));
    })
}

fn ratio(p: &Phase) -> f64 {
    if p.queries == 0 {
        0.0
    } else {
        p.hits as f64 / p.queries as f64
    }
}

fn main() {
    let lib = GemminiLib::new();

    // cold + warm share one private cache-enabled context; nocache gets
    // its own cache-disabled context.
    let cached = fresh_state();
    let cold = run_chain(&lib, &cached, "cold");
    let warm = run_chain(&lib, &cached, "warm");
    let nocache_state = Arc::new(Mutex::new(SchedState::with_check(
        SharedCheckCtx::with_cache(false),
    )));
    let nocache = run_chain(&lib, &nocache_state, "nocache");
    let fig5a = measure(&fresh_state(), "fig5a", |s| {
        schedule_sgemm(&Avx512Lib::new(), s, 12, 128, 8, 6, 64)
            .unwrap_or_else(|e| panic!("schedule_sgemm(12,128,8): {e}"));
    });

    println!(
        "== check-cache — Gemmini matmul chain {}x{}x{} ==",
        DIMS.0, DIMS.1, DIMS.2
    );
    println!(
        "{:<9} {:>9} {:>8} {:>8} {:>8} {:>7}",
        "phase", "wall_us", "queries", "hits", "misses", "ratio"
    );
    let mut records = Vec::new();
    for p in [&cold, &warm, &nocache] {
        println!(
            "{:<9} {:>9} {:>8} {:>8} {:>8} {:>6.0}%",
            p.name,
            p.wall_us,
            p.queries,
            p.hits,
            p.misses,
            ratio(p) * 100.0
        );
        records.push(Json::obj(vec![
            ("type".into(), Json::Str("check_cache_phase".into())),
            ("phase".into(), Json::Str(p.name.into())),
            ("wall_us".into(), Json::uint(p.wall_us)),
            ("queries".into(), Json::uint(p.queries as u64)),
            ("hits".into(), Json::uint(p.hits as u64)),
            ("misses".into(), Json::uint(p.misses as u64)),
            ("hit_ratio".into(), Json::Float(ratio(p))),
        ]));
    }
    let combined = (cold.hits + warm.hits) as f64 / (cold.queries + warm.queries).max(1) as f64;
    println!(
        "combined cached hit ratio {:.0}% | warm vs cold wall {:.2}x | cached vs nocache wall {:.2}x",
        combined * 100.0,
        cold.wall_us as f64 / warm.wall_us.max(1) as f64,
        nocache.wall_us as f64 / cold.wall_us.max(1) as f64
    );
    println!(
        "fig5a SGEMM chain 12x128x8 (6x64 microkernel): {} queries",
        fig5a.queries
    );
    records.push(Json::obj(vec![
        ("type".into(), Json::Str("check_cache_summary".into())),
        ("combined_hit_ratio".into(), Json::Float(combined)),
        ("n".into(), Json::uint(DIMS.0 as u64)),
        ("m".into(), Json::uint(DIMS.1 as u64)),
        ("k".into(), Json::uint(DIMS.2 as u64)),
    ]));
    records.push(Json::obj(vec![
        ("type".into(), Json::Str("check_cache_fig5a".into())),
        ("queries".into(), Json::uint(fig5a.queries as u64)),
    ]));
    write_bench_json("check_cache", &records).expect("write BENCH_check_cache.json");

    if cold.hits + warm.hits == 0 {
        eprintln!("FAIL: cached runs reported zero cache hits on the matmul chain");
        std::process::exit(1);
    }
    if warm.hits == 0 {
        eprintln!("FAIL: warm rerun reported zero cache hits");
        std::process::exit(1);
    }
    if fig5a.queries != 0 {
        eprintln!(
            "FAIL: the fig5a chain posed {} check queries, expected none",
            fig5a.queries
        );
        std::process::exit(1);
    }
}
