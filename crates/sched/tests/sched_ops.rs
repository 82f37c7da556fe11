//! End-to-end tests of the scheduling operators, using the reference
//! interpreter as an equivalence oracle: every accepted rewrite must
//! leave the procedure's observable behavior unchanged on random inputs.

use std::sync::Arc;

use exo_core::build::{read, ProcBuilder};
use exo_core::ir::{Expr, Proc, Stmt};
use exo_core::types::{DataType, MemName};
use exo_core::Sym;
use exo_interp::{ArgVal, Machine};
use exo_sched::Procedure;
use rand::{Rng, SeedableRng};

/// Runs `proc` on the given inputs and returns the final contents of the
/// output buffer (the last tensor argument).
fn run_on(proc: &Proc, inputs: &[Vec<f64>], shapes: &[Vec<usize>]) -> Vec<f64> {
    let mut m = Machine::new();
    let ids: Vec<_> = inputs
        .iter()
        .zip(shapes)
        .enumerate()
        .map(|(k, (data, shape))| m.alloc_extern(&format!("buf{k}"), DataType::F32, shape, data))
        .collect();
    let args: Vec<ArgVal> = ids.iter().map(|&id| ArgVal::Tensor(id)).collect();
    m.run(proc, &args).expect("interpretation failed");
    m.buffer_values(*ids.last().expect("at least one buffer"))
        .expect("output uninitialized")
}

/// Asserts two schedules of the same signature agree on random inputs.
fn assert_equiv(p: &Procedure, q: &Procedure, shapes: &[Vec<usize>]) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(12345);
    for trial in 0..3 {
        let inputs: Vec<Vec<f64>> = shapes
            .iter()
            .map(|s| {
                (0..s.iter().product::<usize>().max(1))
                    .map(|_| rng.gen_range(-4.0..4.0f64).round())
                    .collect()
            })
            .collect();
        let a = run_on(p.proc(), &inputs, shapes);
        let b = run_on(q.proc(), &inputs, shapes);
        assert_eq!(a, b, "schedules diverge on trial {trial}");
    }
}

/// The 16×16×16 GEMM used throughout (small enough for fast oracles).
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

fn gemm_shapes(n: usize) -> Vec<Vec<usize>> {
    vec![vec![n, n], vec![n, n], vec![n, n]]
}

#[test]
fn split_divisible_preserves_semantics() {
    let p = Procedure::new(gemm(8));
    let q = p.split("for i in _: _", 4, "io", "ii").unwrap();
    assert_eq!(q.directives(), 1);
    assert!(q.show().contains("for io in seq(0, 2)"), "{}", q.show());
    assert_equiv(&p, &q, &gemm_shapes(8));
}

#[test]
fn split_rejects_nondivisible() {
    let p = Procedure::new(gemm(9));
    let e = p.split("for i in _: _", 4, "io", "ii").unwrap_err();
    assert!(e.message.contains("divisible"), "{e}");
}

#[test]
fn split_guard_handles_tails() {
    let p = Procedure::new(gemm(9));
    let q = p.split_guard("for i in _: _", 4, "io", "ii").unwrap();
    assert!(q.show().contains("if"), "{}", q.show());
    assert_equiv(&p, &q, &gemm_shapes(9));
}

#[test]
fn reorder_independent_loops() {
    let p = Procedure::new(gemm(6));
    let q = p.reorder("for i in _: _", "j").unwrap();
    assert_equiv(&p, &q, &gemm_shapes(6));
    // j is now outermost
    assert!(
        q.show().trim_start().lines().any(|l| l.contains("for j")),
        "{}",
        q.show()
    );
}

#[test]
fn reorder_rejects_carried_dependence() {
    // for i: for j: A[j] = A[i] + 1 has a real dependence
    let mut b = ProcBuilder::new("dep");
    let a = b.tensor("A", DataType::F32, vec![Expr::int(4)]);
    let i = b.begin_for("i", Expr::int(0), Expr::int(4));
    let j = b.begin_for("j", Expr::int(0), Expr::int(4));
    b.assign(
        a,
        vec![Expr::var(j)],
        read(a, vec![Expr::var(i)]).add(Expr::float(1.0)),
    );
    b.end_for().end_for();
    let p = Procedure::new(b.finish());
    assert!(p.reorder("for i in _: _", "j").is_err());
}

#[test]
fn full_tiling_pipeline() {
    // the §2.1 example: tile all three gemm loops to 4×4×4
    let p = Procedure::new(gemm(8));
    let q = p
        .split("for i in _: _", 4, "io", "ii")
        .unwrap()
        .split("for j in _: _", 4, "jo", "ji")
        .unwrap()
        .split("for k in _: _", 4, "ko", "ki")
        .unwrap()
        .reorder("for ii in _: _", "jo")
        .unwrap()
        .reorder("for ji in _: _", "ko")
        .unwrap()
        .reorder("for ii in _: _", "ko")
        .unwrap();
    assert_eq!(q.directives(), 6);
    assert_equiv(&p, &q, &gemm_shapes(8));
}

#[test]
fn unroll_small_loop() {
    let p = Procedure::new(gemm(4));
    let q = p
        .split("for k in _: _", 2, "ko", "ki")
        .unwrap()
        .unroll("for ki in _: _")
        .unwrap();
    assert!(!q.show().contains("for ki"), "{}", q.show());
    assert_equiv(&p, &q, &gemm_shapes(4));
}

#[test]
fn fission_and_fuse_roundtrip() {
    // for i: { A2[i] = A[i]; C[i] = A2[i] * 2 } — fissionable
    let mut b = ProcBuilder::new("p");
    let a = b.tensor("A", DataType::F32, vec![Expr::int(8)]);
    let a2 = b.tensor("A2", DataType::F32, vec![Expr::int(8)]);
    let c = b.tensor("C", DataType::F32, vec![Expr::int(8)]);
    let i = b.begin_for("i", Expr::int(0), Expr::int(8));
    b.assign(a2, vec![Expr::var(i)], read(a, vec![Expr::var(i)]));
    b.assign(
        c,
        vec![Expr::var(i)],
        read(a2, vec![Expr::var(i)]).mul(Expr::float(2.0)),
    );
    b.end_for();
    let p = Procedure::new(b.finish());
    let shapes = vec![vec![8], vec![8], vec![8]];

    let fissioned = p.fission_after("A2[_] = _").unwrap();
    assert_equiv(&p, &fissioned, &shapes);
    let refused = fissioned.show();
    assert_eq!(refused.matches("for ").count(), 2, "{refused}");

    let fused = fissioned.fuse_loop("for i in _: _").unwrap();
    assert_equiv(&p, &fused, &shapes);
}

#[test]
fn fission_rejects_backward_dependence() {
    // anti-dependences are preserved by fission: C[i] = A[i+1]; A[i] = 0
    // moves the writes later, which is legal
    let mut b = ProcBuilder::new("p");
    let a = b.tensor("A", DataType::F32, vec![Expr::int(9)]);
    let c = b.tensor("C", DataType::F32, vec![Expr::int(8)]);
    let i = b.begin_for("i", Expr::int(0), Expr::int(8));
    b.assign(
        c,
        vec![Expr::var(i)],
        read(a, vec![Expr::var(i).add(Expr::int(1))]),
    );
    b.assign(a, vec![Expr::var(i)], Expr::float(0.0));
    b.end_for();
    let p = Procedure::new(b.finish());
    assert!(p.fission_after("C[_] = _").is_ok());

    // flow dependence across iterations is NOT: C[i] = A[i]; A[i+1] = 0
    // (iteration x reads what iteration x−1 wrote)
    let mut b2 = ProcBuilder::new("p2");
    let a2 = b2.tensor("A", DataType::F32, vec![Expr::int(9)]);
    let c2 = b2.tensor("C", DataType::F32, vec![Expr::int(8)]);
    let i2 = b2.begin_for("i", Expr::int(0), Expr::int(8));
    b2.assign(c2, vec![Expr::var(i2)], read(a2, vec![Expr::var(i2)]));
    b2.assign(a2, vec![Expr::var(i2).add(Expr::int(1))], Expr::float(0.0));
    b2.end_for();
    let p2 = Procedure::new(b2.finish());
    assert!(p2.fission_after("C[_] = _").is_err());
}

#[test]
fn partition_loop_splits_range() {
    let p = Procedure::new(gemm(8));
    let q = p.partition_loop("for i in _: _", 3).unwrap();
    assert_equiv(&p, &q, &gemm_shapes(8));
    let e = p.partition_loop("for i in _: _", 9).unwrap_err();
    assert!(e.message.contains("refuted"), "{e}");
}

#[test]
fn lift_alloc_and_set_memory() {
    // for i: { t : R[4]; t[...] = ...; C[i] = t[0] }
    let mut b = ProcBuilder::new("p");
    let c = b.tensor("C", DataType::F32, vec![Expr::int(4)]);
    let i = b.begin_for("i", Expr::int(0), Expr::int(4));
    let t = b.alloc("t", DataType::F32, vec![Expr::int(4)], MemName::dram());
    b.assign(t, vec![Expr::int(0)], Expr::float(1.0));
    b.assign(c, vec![Expr::var(i)], read(t, vec![Expr::int(0)]));
    b.end_for();
    let p = Procedure::new(b.finish());
    let q = p.lift_alloc("t : _").unwrap();
    // the alloc is now top-level (before the loop)
    assert!(matches!(q.body()[0], Stmt::Alloc { .. }), "{}", q.show());
    assert_equiv(&p, &q, &[vec![4]]);

    let scratch = MemName(Sym::new("SCRATCH"));
    let r = q.set_memory("t : _", scratch).unwrap();
    assert!(r.show().contains("@ SCRATCH"), "{}", r.show());

    let s = r.set_precision("t : _", DataType::F64).unwrap();
    assert!(s.show().contains("f64[4]"), "{}", s.show());
}

#[test]
fn bind_expr_hoists_read() {
    let p = Procedure::new(gemm(4));
    // bind A[i,k] in the innermost statement
    let q = p.bind_expr("C[_,_] += _", "A[_]", "a_val").unwrap();
    assert!(q.show().contains("a_val"), "{}", q.show());
    assert_equiv(&p, &q, &gemm_shapes(4));
}

#[test]
fn stage_mem_tiles_accumulator() {
    // tile gemm 8×8×8 by 4, then stage the C tile like §2.2's `res`
    let p = Procedure::new(gemm(8));
    let tiled = p
        .split("for i in _: _", 4, "io", "ii")
        .unwrap()
        .split("for j in _: _", 4, "jo", "ji")
        .unwrap()
        .reorder("for ii in _: _", "jo")
        .unwrap();
    // now: io / jo / ii / ji / k ; stage C[4io:4io+4, 4jo:4jo+4] around
    // the ii loop
    let io = Expr::var(find_iter(&tiled, "io"));
    let jo = Expr::var(find_iter(&tiled, "jo"));
    let staged = tiled
        .stage_mem(
            "for ii in _: _",
            "C",
            &[
                (
                    io.clone().mul(Expr::int(4)),
                    io.mul(Expr::int(4)).add(Expr::int(4)),
                ),
                (
                    jo.clone().mul(Expr::int(4)),
                    jo.mul(Expr::int(4)).add(Expr::int(4)),
                ),
            ],
            "res",
            MemName(Sym::new("ACCUM")),
        )
        .unwrap();
    assert!(
        staged.show().contains("res : f32[4, 4] @ ACCUM"),
        "{}",
        staged.show()
    );
    assert_equiv(&p, &staged, &gemm_shapes(8));
}

#[test]
fn stage_mem_rejects_undersized_window() {
    let p = Procedure::new(gemm(8));
    let io = Expr::var(find_iter(&p, "i"));
    let _ = io;
    // stage C[0:2, 0:2] around the whole i loop — window too small
    let e = p
        .stage_mem(
            "for i in _: _",
            "C",
            &[(Expr::int(0), Expr::int(2)), (Expr::int(0), Expr::int(2))],
            "res",
            MemName::dram(),
        )
        .unwrap_err();
    assert!(e.message.contains("memory-safe"), "{e}");
}

#[test]
fn inline_expands_call() {
    // callee: copy(n, src, dst); caller calls it; inline
    let mut cb = ProcBuilder::new("copy");
    let n = cb.size("n");
    let src = cb.tensor("src", DataType::F32, vec![Expr::var(n)]);
    let dst = cb.tensor("dst", DataType::F32, vec![Expr::var(n)]);
    let i = cb.begin_for("i", Expr::int(0), Expr::var(n));
    cb.assign(dst, vec![Expr::var(i)], read(src, vec![Expr::var(i)]));
    cb.end_for();
    let copy = cb.finish();

    let mut b = ProcBuilder::new("main");
    let a = b.tensor("A", DataType::F32, vec![Expr::int(8)]);
    let c = b.tensor("C", DataType::F32, vec![Expr::int(8)]);
    b.call(&copy, vec![Expr::int(8), read(a, vec![]), read(c, vec![])]);
    let p = Procedure::new(b.finish());
    let q = p.inline("copy(_)").unwrap();
    assert!(!q.show().contains("copy("), "{}", q.show());
    assert_equiv(&p, &q, &[vec![8], vec![8]]);
}

#[test]
fn reorder_stmts_commuting() {
    // A[0] = 1; B[0] = 2 commute
    let mut b = ProcBuilder::new("p");
    let a = b.tensor("A", DataType::F32, vec![Expr::int(2)]);
    let c = b.tensor("C", DataType::F32, vec![Expr::int(2)]);
    b.assign(a, vec![Expr::int(0)], Expr::float(1.0));
    b.assign(c, vec![Expr::int(0)], Expr::float(2.0));
    let p = Procedure::new(b.finish());
    let q = p.reorder_stmts("A[_] = _").unwrap();
    assert!(matches!(&q.body()[0], Stmt::Assign { buf, .. } if buf.name() == "C"));

    // A[0] = 1; C[0] = A[0] do not commute
    let mut b2 = ProcBuilder::new("p2");
    let a2 = b2.tensor("A", DataType::F32, vec![Expr::int(2)]);
    let c2 = b2.tensor("C", DataType::F32, vec![Expr::int(2)]);
    b2.assign(a2, vec![Expr::int(0)], Expr::float(1.0));
    b2.assign(c2, vec![Expr::int(0)], read(a2, vec![Expr::int(0)]));
    let p2 = Procedure::new(b2.finish());
    assert!(p2.reorder_stmts("A[_] = _").is_err());
}

#[test]
fn add_guard_requires_provable_condition() {
    let p = Procedure::new(gemm(4));
    let i = find_iter(&p, "i");
    // i < 4 is provable inside the loop
    let q = p
        .add_guard("C[_,_] += _", Expr::var(i).lt(Expr::int(4)))
        .unwrap();
    assert!(q.show().contains("if i < 4:"), "{}", q.show());
    // the transcript names the condition as well as the statement
    assert_eq!(q.transcript()[0].target, "C[_,_] += _, i < 4");
    assert_equiv(&p, &q, &gemm_shapes(4));
    // i < 3 is not
    assert!(p
        .add_guard("C[_,_] += _", Expr::var(i).lt(Expr::int(3)))
        .is_err());
}

#[test]
fn lift_if_hoists_invariant_guard() {
    // for i: if n > 2: A[i] = 0
    let mut b = ProcBuilder::new("p");
    let n = b.size("n");
    let a = b.tensor("A", DataType::F32, vec![Expr::int(8)]);
    let i = b.begin_for("i", Expr::int(0), Expr::int(8));
    b.begin_if(Expr::var(n).gt(Expr::int(2)));
    b.assign(a, vec![Expr::var(i)], Expr::float(0.0));
    b.end_if();
    b.end_for();
    let p = Procedure::new(b.finish());
    let q = p.lift_if("if _: _").unwrap();
    assert!(matches!(&q.body()[0], Stmt::If { .. }), "{}", q.show());
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
    found.unwrap_or_else(|| panic!("no loop named {name}"))
}
