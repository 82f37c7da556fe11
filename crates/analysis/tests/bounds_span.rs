//! The `analysis.check_bounds` span is the one record of how many proof
//! obligations a bounds check posed and how each was discharged: its
//! `obligations` field equals its `decided` field (the obligations the
//! interval prover proved) plus the check queries the check sent to its
//! context, and `errors` the violations it returned. This file is its own
//! test process, so the global registry sees only these checks.

use exo_analysis::{check_bounds, GlobalReg, SharedCheckCtx};
use exo_core::build::{read, ProcBuilder};
use exo_core::ir::Expr;
use exo_core::types::DataType;
use exo_obs::Registry;

/// `for i in seq(0, n): for j in seq(0, 4): C[i, j] = A[i, j + shift]`
/// with `A: f32[n, 4]`, `C: f32[n, 4]`, named `name`.
fn copy(name: &str, shift: i64) -> std::sync::Arc<exo_core::ir::Proc> {
    let mut b = ProcBuilder::new(name);
    let n = b.size("n");
    let a = b.tensor("A", DataType::F32, vec![Expr::var(n), Expr::int(4)]);
    let c = b.tensor("C", DataType::F32, vec![Expr::var(n), Expr::int(4)]);
    let i = b.begin_for("i", Expr::int(0), Expr::var(n));
    let j = b.begin_for("j", Expr::int(0), Expr::int(4));
    let src = read(a, vec![Expr::var(i), Expr::var(j).add(Expr::int(shift))]);
    b.assign(c, vec![Expr::var(i), Expr::var(j)], src);
    b.end_for();
    b.end_for();
    b.finish()
}

/// The `(obligations, decided, errors)` fields of the one
/// `analysis.check_bounds` span recorded for `proc`.
fn span_counts(proc: &str) -> (i64, i64, i64) {
    let spans: Vec<_> = Registry::global()
        .traces()
        .into_iter()
        .filter(|t| t.name == "analysis.check_bounds")
        .filter(|t| {
            t.fields
                .iter()
                .any(|(k, v)| k == "proc" && v.as_str() == Some(proc))
        })
        .collect();
    assert_eq!(spans.len(), 1, "one check_bounds span for {proc}");
    let field = |key: &str| {
        spans[0]
            .fields
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_int())
            .unwrap_or_else(|| panic!("{proc}: no integer field {key}"))
    };
    (field("obligations"), field("decided"), field("errors"))
}

/// Both procs pose four obligations, two per access: `0 ≤ i < n` (`n`
/// symbolic) goes to the solver, and `0 ≤ j < 4` is decided by intervals,
/// except `shifted`'s `0 ≤ j + 1 < 4`, which is not valid: the solver
/// refutes it, and that is its one error.
#[test]
fn check_bounds_span_counts_its_obligations() {
    for (name, shift, decided, violations) in [("in_bounds", 0, 2, 0), ("shifted", 1, 1, 1)] {
        let check = SharedCheckCtx::fresh();
        let result = check_bounds(&copy(name, shift), &mut GlobalReg::new(), &check);
        let errors = result.err().map_or(0, |e| e.len());
        assert_eq!(errors, violations, "{name}");
        let queries = check.stats().queries as i64;
        assert!(queries > 0, "{name} sent nothing to the solver");
        assert_eq!(
            span_counts(name),
            (decided + queries, decided, errors as i64),
            "{name}: obligations = decided + check queries"
        );
        assert_eq!(decided + queries, 4, "{name}: obligations");
    }
}
