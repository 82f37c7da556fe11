//! Cache-correctness suite for the memoized checking engine: every
//! scheduling operator must reach the same verdict — accepted with the
//! same output, or rejected with the same message — whether the
//! canonical-formula verdict cache is on or off
//! (`SharedCheckCtx::with_cache` parity), and cached verdicts must never leak across semantically
//! different obligations (invalidation).

use std::sync::{Arc, Mutex};

use exo_core::build::{read, ProcBuilder};
use exo_core::ir::{Expr, Proc, Stmt};
use exo_core::types::{DataType, MemName};
use exo_core::Sym;
use exo_sched::{Position, Procedure, SchedError, SchedState, SharedCheckCtx, StateRef};

fn state_with_cache(enabled: bool) -> StateRef {
    Arc::new(Mutex::new(SchedState::with_check(
        SharedCheckCtx::with_cache(enabled),
    )))
}

/// The canonical small GEMM (same shape as the sched_ops suite).
fn gemm(n: i64) -> Arc<Proc> {
    let mut b = ProcBuilder::new("gemm");
    let ne = Expr::int(n);
    let a = b.tensor("A", DataType::F32, vec![ne.clone(), ne.clone()]);
    let bb = b.tensor("B", DataType::F32, vec![ne.clone(), ne.clone()]);
    let c = b.tensor("C", DataType::F32, vec![ne.clone(), ne.clone()]);
    let i = b.begin_for("i", Expr::int(0), ne.clone());
    let j = b.begin_for("j", Expr::int(0), ne.clone());
    let k = b.begin_for("k", Expr::int(0), ne);
    b.reduce(
        c,
        vec![Expr::var(i), Expr::var(j)],
        read(a, vec![Expr::var(i), Expr::var(k)]).mul(read(bb, vec![Expr::var(k), Expr::var(j)])),
    );
    b.end_for().end_for().end_for();
    b.finish()
}

/// [`gemm`] reducing into `C[(2·i) / 2, j]`: `(2·i) / 2` is `i`, but it
/// has no affine form and lowers to a quotient, so the `i` loop's
/// dependence probes reach the checking context.
fn halved_gemm(n: i64) -> Arc<Proc> {
    let mut b = ProcBuilder::new("halved_gemm");
    let ne = Expr::int(n);
    let a = b.tensor("A", DataType::F32, vec![ne.clone(), ne.clone()]);
    let bb = b.tensor("B", DataType::F32, vec![ne.clone(), ne.clone()]);
    let c = b.tensor("C", DataType::F32, vec![ne.clone(), ne.clone()]);
    let i = b.begin_for("i", Expr::int(0), ne.clone());
    let j = b.begin_for("j", Expr::int(0), ne.clone());
    let k = b.begin_for("k", Expr::int(0), ne);
    let row = Expr::int(2).mul(Expr::var(i)).div(Expr::int(2));
    b.reduce(
        c,
        vec![row, Expr::var(j)],
        read(a, vec![Expr::var(i), Expr::var(k)]).mul(read(bb, vec![Expr::var(k), Expr::var(j)])),
    );
    b.end_for().end_for().end_for();
    b.finish()
}

/// `for i in 0..hi: A[i] = 0.0` with `A : f32[len]`.
fn fill_loop(len: i64, hi: i64) -> Arc<Proc> {
    let mut b = ProcBuilder::new("fill");
    let a = b.tensor("A", DataType::F32, vec![Expr::int(len)]);
    let i = b.begin_for("i", Expr::int(0), Expr::int(hi));
    b.assign(a, vec![Expr::var(i)], Expr::float(0.0));
    b.end_for();
    b.finish()
}

/// `for i in 0..8: for j in 0..2: A[2·i + j] = 0.0` with `A : f32[16]`:
/// the two loops reorder, but only the solver proves it (the write's
/// coefficients on `i` and `j` have one sign).
fn interleaved_fill() -> Arc<Proc> {
    let mut b = ProcBuilder::new("interleave");
    let a = b.tensor("A", DataType::F32, vec![Expr::int(16)]);
    let i = b.begin_for("i", Expr::int(0), Expr::int(8));
    let j = b.begin_for("j", Expr::int(0), Expr::int(2));
    b.assign(
        a,
        vec![Expr::int(2).mul(Expr::var(i)).add(Expr::var(j))],
        Expr::float(0.0),
    );
    b.end_for().end_for();
    b.finish()
}

/// Finds the (current) symbol of a loop iterator by name.
fn find_iter(p: &Procedure, name: &str) -> Sym {
    let mut found = None;
    exo_core::visit::visit_stmts(p.body(), &mut |s| {
        if let Stmt::For { iter, .. } = s {
            if iter.name() == name && found.is_none() {
                found = Some(*iter);
            }
        }
    });
    found.unwrap_or_else(|| panic!("no loop iterator named {name}"))
}

type Verdicts = Vec<(&'static str, Result<String, String>)>;

/// Runs one battery of scheduling operators — accepting and rejecting
/// paths both — against `state`, recording each operator's verdict as
/// either the resulting pretty-printed procedure or the error message.
/// Every call builds fresh IR (fresh symbols), so a second battery on
/// the same state exercises the canonicalizer, not pointer equality.
fn run_battery(state: &StateRef) -> Verdicts {
    let mut out: Verdicts = Vec::new();
    let mut push = |name: &'static str, r: Result<Procedure, SchedError>| {
        out.push((name, r.map(|p| p.show()).map_err(|e| e.to_string())));
    };

    // -- loop restructuring on the GEMM nest --
    let g = Procedure::with_state(gemm(8), Arc::clone(state));
    push("split_ok", g.split("for i in _: _", 4, "io", "ii"));
    push("split_reject", g.split("for i in _: _", 3, "io", "ii"));
    push("split_guard", g.split_guard("for i in _: _", 3, "io", "ii"));
    push("partition_ok", g.partition_loop("for i in _: _", 3));
    push("partition_reject", g.partition_loop("for i in _: _", 9));
    let tiled = g
        .split("for i in _: _", 4, "io", "ii")
        .expect("4 divides 8");
    push("reorder_ok", tiled.reorder("for ii in _: _", "j"));
    push("unroll", tiled.unroll("for ii in _: _"));
    let gi = find_iter(&g, "i");
    push(
        "add_guard_ok",
        g.add_guard("C[_,_] += _", Expr::var(gi).lt(Expr::int(8))),
    );
    push(
        "add_guard_reject",
        g.add_guard("C[_,_] += _", Expr::var(gi).lt(Expr::int(7))),
    );
    push(
        "stage_mem_reject",
        g.stage_mem(
            "for i in _: _",
            "C",
            &[(Expr::int(0), Expr::int(2)), (Expr::int(0), Expr::int(2))],
            "res",
            MemName::dram(),
        ),
    );

    // -- fission / fusion --
    let mut b = ProcBuilder::new("fiss");
    let a = b.tensor("A", DataType::F32, vec![Expr::int(8)]);
    let a2 = b.tensor("A2", DataType::F32, vec![Expr::int(8)]);
    let i = b.begin_for("i", Expr::int(0), Expr::int(8));
    b.assign(a2, vec![Expr::var(i)], read(a, vec![Expr::var(i)]));
    b.assign(
        a,
        vec![Expr::var(i)],
        read(a2, vec![Expr::var(i)]).mul(Expr::float(2.0)),
    );
    b.end_for();
    let f = Procedure::with_state(b.finish(), Arc::clone(state));
    push("fission_ok", f.fission_after("A2[_] = _"));
    if let Ok(fissioned) = f.fission_after("A2[_] = _") {
        push("fuse_ok", fissioned.fuse_loop("for i in _: _"));
    }
    // flow dependence across iterations: C[i] = A[i]; A[i+1] = 0
    let mut b2 = ProcBuilder::new("fiss2");
    let fa = b2.tensor("A", DataType::F32, vec![Expr::int(9)]);
    let fc = b2.tensor("C", DataType::F32, vec![Expr::int(8)]);
    let fi = b2.begin_for("i", Expr::int(0), Expr::int(8));
    b2.assign(fc, vec![Expr::var(fi)], read(fa, vec![Expr::var(fi)]));
    b2.assign(fa, vec![Expr::var(fi).add(Expr::int(1))], Expr::float(0.0));
    b2.end_for();
    let f2 = Procedure::with_state(b2.finish(), Arc::clone(state));
    push("fission_reject", f2.fission_after("C[_] = _"));

    // -- statement reordering / deletion --
    let mut b3 = ProcBuilder::new("pair");
    let pa = b3.tensor("A", DataType::F32, vec![Expr::int(2)]);
    let pc = b3.tensor("C", DataType::F32, vec![Expr::int(2)]);
    b3.assign(pa, vec![Expr::int(0)], Expr::float(1.0));
    b3.assign(pc, vec![Expr::int(0)], Expr::float(2.0));
    let pr = Procedure::with_state(b3.finish(), Arc::clone(state));
    push("reorder_stmts_ok", pr.reorder_stmts("A[_] = _"));

    let mut b4 = ProcBuilder::new("dep");
    let da = b4.tensor("A", DataType::F32, vec![Expr::int(2)]);
    let dc = b4.tensor("C", DataType::F32, vec![Expr::int(2)]);
    b4.assign(da, vec![Expr::int(0)], Expr::float(1.0));
    b4.assign(dc, vec![Expr::int(0)], read(da, vec![Expr::int(0)]));
    let dp = Procedure::with_state(b4.finish(), Arc::clone(state));
    push("reorder_stmts_reject", dp.reorder_stmts("A[_] = _"));

    let mut b5 = ProcBuilder::new("shadow");
    let sx = b5.tensor("x", DataType::F32, vec![Expr::int(4)]);
    b5.assign(sx, vec![Expr::int(0)], Expr::float(1.0));
    b5.assign(sx, vec![Expr::int(0)], Expr::float(2.0));
    let sp = Procedure::with_state(b5.finish(), Arc::clone(state));
    push("shadow_delete_ok", sp.shadow_delete("x[_] = _"));

    // -- loop removal --
    let mut b6 = ProcBuilder::new("idem");
    let ix = b6.tensor("x", DataType::F32, vec![Expr::int(4)]);
    let _ii = b6.begin_for("i", Expr::int(0), Expr::int(4));
    b6.assign(ix, vec![Expr::int(0)], Expr::float(5.0));
    b6.end_for();
    let ip = Procedure::with_state(b6.finish(), Arc::clone(state));
    push("remove_loop_ok", ip.remove_loop("for i in _: _"));
    push("remove_loop_reject", {
        let mut b7 = ProcBuilder::new("nonidem");
        let nx = b7.tensor("x", DataType::F32, vec![Expr::int(4)]);
        let _ni = b7.begin_for("i", Expr::int(0), Expr::int(4));
        b7.reduce(nx, vec![Expr::int(0)], Expr::float(1.0));
        b7.end_for();
        Procedure::with_state(b7.finish(), Arc::clone(state)).remove_loop("for i in _: _")
    });

    // -- configuration writes (context-extension obligations) --
    let cfg = Sym::new("Cfg");
    let field = Sym::new("s");
    let cp = Procedure::with_state(fill_loop(8, 8), Arc::clone(state));
    push(
        "configwrite_at(After)",
        cp.configwrite_at("for i in _: _", Position::After, cfg, field, Expr::int(64)),
    );
    push(
        "configwrite_at(Before)",
        cp.configwrite_at("for i in _: _", Position::Before, cfg, field, Expr::int(64)),
    );

    out
}

/// Tentpole parity check: the full operator battery reaches identical
/// verdicts with the verdict cache enabled and disabled, and running it
/// twice over one shared cache-enabled context (fresh symbols each time)
/// still matches — i.e. cache hits never change an answer. Two states
/// with their own `GlobalReg`s sharing one cached context (handed to both
/// through `SchedState::with_check`) match too.
#[test]
fn verdicts_identical_with_and_without_cache() {
    let cached = state_with_cache(true);
    let uncached = state_with_cache(false);

    let cold = run_battery(&cached);
    let warm = run_battery(&cached);
    let plain = run_battery(&uncached);

    assert_eq!(cold, plain, "cold cached run diverges from uncached run");
    assert_eq!(warm, plain, "warm cached run diverges from uncached run");

    let shared = SharedCheckCtx::with_cache(true);
    let first = Arc::new(Mutex::new(SchedState::with_check(shared.clone())));
    let second = Arc::new(Mutex::new(SchedState::with_check(shared)));
    assert_eq!(
        run_battery(&first),
        plain,
        "first state on a shared context diverges from uncached run"
    );
    assert_eq!(
        run_battery(&second),
        plain,
        "second state on a shared context diverges from uncached run"
    );

    let stats = cached
        .lock()
        .expect("scheduler state poisoned")
        .check
        .stats();
    assert!(stats.queries > 0, "battery issued no SMT queries");
    assert!(
        stats.hits > 0,
        "warm battery rerun produced no cache hits: {stats:?}"
    );
    let plain_stats = uncached
        .lock()
        .expect("scheduler state poisoned")
        .check
        .stats();
    assert_eq!(
        plain_stats.hits, 0,
        "cache-disabled context must never report hits"
    );
}

/// Invalidation: a verdict proved for one loop bound must not be replayed
/// for a different bound. `i < 8` holds inside `for i in 0..8` but not
/// inside `for i in 0..9`; a stale cache entry keyed too loosely would
/// accept the second guard.
#[test]
fn changed_loop_bounds_do_not_reuse_stale_entries() {
    let state = state_with_cache(true);

    let p8 = Procedure::with_state(fill_loop(16, 8), Arc::clone(&state));
    let i8 = find_iter(&p8, "i");
    p8.add_guard("A[_] = _", Expr::var(i8).lt(Expr::int(8)))
        .expect("i < 8 is provable for a 0..8 loop");

    // same context, same cache — structurally near-identical proc, larger
    // bound. The obligation differs only in the constant 9 vs 8.
    let p9 = Procedure::with_state(fill_loop(16, 9), Arc::clone(&state));
    let i9 = find_iter(&p9, "i");
    let err = p9
        .add_guard("A[_] = _", Expr::var(i9).lt(Expr::int(8)))
        .expect_err("i < 8 must be refuted for a 0..9 loop even with a warm cache");
    assert!(err.to_string().contains("add_guard"), "{err}");
}

/// Scheduling the same kernel twice through one shared context hits the
/// cache on the second pass even though the IR symbols are fresh — the
/// canonicalizer maps alpha-variant obligations to one cache line.
#[test]
fn repeat_scheduling_hits_cache_across_fresh_symbols() {
    let state = state_with_cache(true);
    for round in 0..2 {
        let p = Procedure::with_state(interleaved_fill(), Arc::clone(&state));
        p.reorder("for i in _: _", "j")
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
    }
    let stats = state
        .lock()
        .expect("scheduler state poisoned")
        .check
        .stats();
    assert!(
        stats.misses > 0,
        "the reorder's goal never reached the solver: {stats:?}"
    );
    assert!(
        stats.hits > 0,
        "second identical schedule produced no cache hits: {stats:?}"
    );
}

/// Dependence-classification queries flow through the shared canonical
/// cache: classifying two alpha-variant builds of one kernel through a
/// single context hits the cache on the second pass, and a subsequent
/// `parallelize` on a third build replays the same obligations for free.
/// The kernel indexes through a quotient, so its probes reach the
/// cache; plain `gemm`'s are all decided before it.
#[test]
fn dependence_queries_hit_canonical_cache_across_runs() {
    let state = state_with_cache(true);
    let check = state
        .lock()
        .expect("scheduler state poisoned")
        .check
        .clone();
    let mut reg = exo_analysis::GlobalReg::new();
    let top = exo_core::path::StmtPath::top(0);

    let v1 = exo_lint::classify_loop(&halved_gemm(8), &top, &check, &mut reg).expect("classify");
    assert_eq!(v1, exo_lint::LoopVerdict::Parallel);
    let cold = check.stats();

    // A fresh build has fresh symbols — only the canonicalizer can match
    // these obligations to the first run's cache lines.
    let v2 = exo_lint::classify_loop(&halved_gemm(8), &top, &check, &mut reg).expect("classify");
    assert_eq!(v1, v2, "cache hits must not change the verdict");
    let warm = check.stats();
    assert!(
        warm.hits > cold.hits,
        "alpha-variant classification produced no cache hits: {warm:?}"
    );

    // `parallelize` re-poses the classifier's queries through the state's
    // own context — sharing that context makes the gate nearly free.
    let p = Procedure::with_state(halved_gemm(8), Arc::clone(&state));
    let before = check.stats();
    p.parallelize("for i in _: _").expect("provably parallel");
    let after = check.stats();
    assert!(
        after.hits > before.hits,
        "parallelize after classification produced no cache hits: {after:?}"
    );

    // `gemm`'s `i` loop is decided by the dependence tests alone
    let v = exo_lint::classify_loop(&gemm(8), &top, &check, &mut reg).expect("classify");
    assert_eq!(v, exo_lint::LoopVerdict::Parallel);
    assert_eq!(
        check.stats().queries,
        after.queries,
        "classifying gemm's i loop posed check queries"
    );
}
