//! The `lint.classify_loop` span is the one record of how many
//! dependence probes a classification posed and how each was answered:
//! its `pairs` field equals its `decided` field (the probes the
//! dependence tests refuted or a model confirmed) plus the check queries
//! the classification sent to its context. This file is its own test
//! process, so the global registry sees only these classifications.

use exo_analysis::{GlobalReg, SharedCheckCtx};
use exo_core::build::{read, ProcBuilder};
use exo_core::ir::Expr;
use exo_core::path::StmtPath;
use exo_core::types::DataType;
use exo_lint::{classify_loop, LoopVerdict};
use exo_obs::Registry;

/// The `(pairs, decided)` fields of the one `lint.classify_loop` span
/// recorded for the loop over `iter`.
fn span_counts(iter: &str) -> (i64, i64) {
    let spans: Vec<_> = Registry::global()
        .traces()
        .into_iter()
        .filter(|t| t.name == "lint.classify_loop")
        .filter(|t| {
            t.fields
                .iter()
                .any(|(k, v)| k == "iter" && v.as_str() == Some(iter))
        })
        .collect();
    assert_eq!(spans.len(), 1, "one classify_loop span for {iter}");
    let field = |key: &str| {
        spans[0]
            .fields
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_int())
            .unwrap_or_else(|| panic!("{iter}: no integer field {key}"))
    };
    (field("pairs"), field("decided"))
}

/// `for i in [0, 8): for j in [0, 8): C[(2·i) / 2, j] += A[i, j];
/// B[i, j] = A[i, j]`. Each loop poses two probes, the reduction into
/// `C` and the write of `B` against itself: the tests refute both for
/// `j`, whose coordinate is affine in both, and `B`'s for `i`, but `C`'s
/// row `(2·i) / 2` has no affine form and goes to the solver.
#[test]
fn classify_loop_span_counts_its_probes() {
    let mut b = ProcBuilder::new("halved");
    let shape = vec![Expr::int(8), Expr::int(8)];
    let a = b.tensor("A", DataType::F32, shape.clone());
    let bb = b.tensor("B", DataType::F32, shape.clone());
    let c = b.tensor("C", DataType::F32, shape);
    let i = b.begin_for("i", Expr::int(0), Expr::int(8));
    let j = b.begin_for("j", Expr::int(0), Expr::int(8));
    let at = vec![Expr::var(i), Expr::var(j)];
    let row = Expr::int(2).mul(Expr::var(i)).div(Expr::int(2));
    b.reduce(c, vec![row, Expr::var(j)], read(a, at.clone()));
    b.assign(bb, at.clone(), read(a, at));
    b.end_for().end_for();
    let p = b.finish();

    Registry::global().clear();
    for (iter, path, decided) in [
        ("i", StmtPath::top(0), 1),
        ("j", StmtPath::top(0).child(0, 0), 2),
    ] {
        let check = SharedCheckCtx::fresh();
        let v = classify_loop(&p, &path, &check, &mut GlobalReg::new()).expect("a loop");
        assert_eq!(v, LoopVerdict::Parallel, "{iter}");
        let queries = check.stats().queries as i64;
        assert_eq!(
            span_counts(iter),
            (decided + queries, decided),
            "{iter}: pairs = decided + check queries"
        );
        assert_eq!(decided + queries, 2, "{iter}: pairs");
    }
}
