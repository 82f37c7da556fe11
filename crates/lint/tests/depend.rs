//! Dependence-classifier matrix: known-parallel, reduction, and
//! loop-carried kernels, plus witness-pair correctness.

use exo_analysis::{GlobalReg, SharedCheckCtx};
use exo_core::build::{read, ProcBuilder};
use exo_core::ir::Expr;
use exo_core::path::StmtPath;
use exo_core::types::DataType;
use exo_lint::{classify_loop, classify_loops, AccessKind, LoopVerdict};

fn ctx() -> (SharedCheckCtx, GlobalReg) {
    // A context per test, so no verdict depends on another test's.
    (SharedCheckCtx::fresh(), GlobalReg::new())
}

/// `for i: A[i] = B[i] * 2` — iterations touch disjoint locations.
#[test]
fn elementwise_map_is_parallel() {
    let mut b = ProcBuilder::new("map");
    let n = b.size("n");
    let a = b.tensor("A", DataType::F32, vec![Expr::var(n)]);
    let bb = b.tensor("B", DataType::F32, vec![Expr::var(n)]);
    let i = b.begin_for("i", Expr::int(0), Expr::var(n));
    b.assign(
        a,
        vec![Expr::var(i)],
        read(bb, vec![Expr::var(i)]).mul(Expr::int(2)),
    );
    b.end_for();
    let p = b.finish();
    let (check, mut reg) = ctx();
    let v = classify_loop(&p, &StmtPath::top(0), &check, &mut reg).unwrap();
    assert_eq!(v, LoopVerdict::Parallel);
}

/// `for i: s += A[i]` — iterations conflict only via `+=` into `s`.
#[test]
fn scalar_sum_is_reduction_parallel() {
    let mut b = ProcBuilder::new("sum");
    let n = b.size("n");
    let a = b.tensor("A", DataType::F32, vec![Expr::var(n)]);
    let s = b.scalar("s", DataType::F32);
    let i = b.begin_for("i", Expr::int(0), Expr::var(n));
    b.reduce(s, vec![], read(a, vec![Expr::var(i)]));
    b.end_for();
    let p = b.finish();
    let (check, mut reg) = ctx();
    let v = classify_loop(&p, &StmtPath::top(0), &check, &mut reg).unwrap();
    match v {
        LoopVerdict::ReductionParallel { bufs } => {
            assert_eq!(bufs.len(), 1);
            assert_eq!(bufs[0].name(), "s");
        }
        other => panic!("expected ReductionParallel, got {other:?}"),
    }
}

/// `for i in [0, n-1): A[i] = A[i+1] + 1` — a classic loop-carried
/// anti-dependence: iteration i writes what iteration i+1... reads.
#[test]
fn shifted_copy_is_sequential_with_witness() {
    let mut b = ProcBuilder::new("shift");
    let n = b.size("n");
    let a = b.tensor("A", DataType::F32, vec![Expr::var(n)]);
    let i = b.begin_for("i", Expr::int(0), Expr::var(n).sub(Expr::int(1)));
    b.assign(
        a,
        vec![Expr::var(i)],
        read(a, vec![Expr::var(i).add(Expr::int(1))]).add(Expr::int(1)),
    );
    b.end_for();
    let p = b.finish();
    let (check, mut reg) = ctx();
    let v = classify_loop(&p, &StmtPath::top(0), &check, &mut reg).unwrap();
    let LoopVerdict::Sequential { witness } = v else {
        panic!("expected Sequential, got {v:?}");
    };
    let w = witness.expect("racy loop should come with a witness pair");
    assert_eq!(w.buf.name(), "A");
    // The collision must involve the write; the pair is (write, read) or
    // (read, write) or (write, write) depending on enumeration order —
    // for this kernel only write-vs-read collides across iterations.
    assert!(
        (w.first == AccessKind::Write) ^ (w.second == AccessKind::Write),
        "exactly one side of the witness is the write: {w}"
    );
    assert_eq!(w.iter.name(), "i");
}

/// `for i: s = s + A[i]` spelled as an *assignment* (not `+=`) is a
/// genuine write-write + read-write race between iterations.
#[test]
fn non_reduction_accumulation_is_sequential() {
    let mut b = ProcBuilder::new("acc");
    let n = b.size("n");
    let a = b.tensor("A", DataType::F32, vec![Expr::var(n)]);
    let s = b.scalar("s", DataType::F32);
    let i = b.begin_for("i", Expr::int(0), Expr::var(n));
    b.assign(s, vec![], read(s, vec![]).add(read(a, vec![Expr::var(i)])));
    b.end_for();
    let p = b.finish();
    let (check, mut reg) = ctx();
    let v = classify_loop(&p, &StmtPath::top(0), &check, &mut reg).unwrap();
    let LoopVerdict::Sequential { witness } = v else {
        panic!("expected Sequential, got {v:?}");
    };
    let w = witness.expect("write-write race should have a witness");
    assert_eq!(w.buf.name(), "s");
}

/// The three GEMM loops: `i`/`j` are parallel (each iteration owns a
/// disjoint slice of C), `k` is reduction-parallel into C.
#[test]
fn gemm_loop_nest_classifies_on_the_full_lattice() {
    // The 8×8×8 GEMM from paper §2.1 (built inline to keep the crate
    // graph acyclic — `exo-kernels` sits above `exo-lint`).
    let mut b = ProcBuilder::new("gemm");
    let a = b.tensor("A", DataType::F32, vec![Expr::int(8), Expr::int(8)]);
    let bb = b.tensor("B", DataType::F32, vec![Expr::int(8), Expr::int(8)]);
    let c = b.tensor("C", DataType::F32, vec![Expr::int(8), Expr::int(8)]);
    let i = b.begin_for("i", Expr::int(0), Expr::int(8));
    let j = b.begin_for("j", Expr::int(0), Expr::int(8));
    let k = b.begin_for("k", Expr::int(0), Expr::int(8));
    b.reduce(
        c,
        vec![Expr::var(i), Expr::var(j)],
        read(a, vec![Expr::var(i), Expr::var(k)]).mul(read(bb, vec![Expr::var(k), Expr::var(j)])),
    );
    b.end_for().end_for().end_for();
    let p = b.finish();
    let (check, mut reg) = ctx();
    let verdicts = classify_loops(&p, &check, &mut reg);
    assert_eq!(verdicts.len(), 3);
    let by_name: Vec<(String, &LoopVerdict)> = verdicts
        .iter()
        .map(|(_, iter, v)| (iter.name(), v))
        .collect();
    for (name, v) in &by_name {
        match name.as_str() {
            "i" | "j" => assert_eq!(**v, LoopVerdict::Parallel, "loop {name}: {v:?}"),
            "k" => match v {
                LoopVerdict::ReductionParallel { bufs } => {
                    assert_eq!(bufs.len(), 1);
                    assert_eq!(bufs[0].name(), "C");
                }
                other => panic!("loop k: expected ReductionParallel, got {other:?}"),
            },
            other => panic!("unexpected loop {other}"),
        }
    }
}

/// A loop whose body writes through an index that folds to a constant:
/// every iteration writes A[0] — sequential, witness on A.
#[test]
fn constant_index_write_is_sequential() {
    let mut b = ProcBuilder::new("const_idx");
    let n = b.size("n");
    let a = b.tensor("A", DataType::F32, vec![Expr::var(n)]);
    let i = b.begin_for("i", Expr::int(0), Expr::var(n));
    b.assign(
        a,
        vec![Expr::int(0)],
        Expr::var(i).mul(Expr::int(0)).add(Expr::int(1)),
    );
    b.end_for();
    let p = b.finish();
    let (check, mut reg) = ctx();
    let v = classify_loop(&p, &StmtPath::top(0), &check, &mut reg).unwrap();
    let LoopVerdict::Sequential { witness } = v else {
        panic!("expected Sequential, got {v:?}");
    };
    let w = witness.expect("write-write collision on A[0]");
    assert_eq!(w.buf.name(), "A");
    assert_eq!(w.first, AccessKind::Write);
    assert_eq!(w.second, AccessKind::Write);
}

/// Asking about a non-loop path is a typed error, not a panic.
#[test]
fn classify_non_loop_is_an_error() {
    let mut b = ProcBuilder::new("flat");
    let a = b.tensor("A", DataType::F32, vec![Expr::int(4)]);
    b.assign(a, vec![Expr::int(0)], Expr::int(1));
    let p = b.finish();
    let (check, mut reg) = ctx();
    let err = classify_loop(&p, &StmtPath::top(0), &check, &mut reg).unwrap_err();
    assert!(err.message.contains("no for-loop"), "{err}");
}
