//! Fail-safe under fault injection: when the solver is forced to give up
//! on every query, the classifier must degrade to `Sequential` — it may
//! never upgrade a verdict to `Parallel` on an unproven loop.
//!
//! Probes the dependence tests refute or a model confirms never reach the
//! solver, so a give-up cannot touch them: a loop decided that way keeps
//! its unfaulted verdict. A loop whose probes do reach the solver (here
//! an index through `/`, which has no affine form and lowers to a
//! quotient no model assigns) must degrade to `Sequential` with no
//! witness.
//!
//! Chaos arming is process-global, so this lives in its own integration
//! test binary (own process) to avoid poisoning the other suites.

use std::sync::Arc;

use exo_analysis::{GlobalReg, SharedCheckCtx};
use exo_chaos::{FaultPlan, FaultSite};
use exo_core::build::{read, ProcBuilder};
use exo_core::ir::{Expr, Proc};
use exo_core::path::StmtPath;
use exo_core::types::DataType;
use exo_lint::{classify_loop, LoopVerdict};

/// `for i in [0, n): A[index(i)] = B[i] * 2`, with `n` a size argument
/// or, given `extent`, that literal.
fn map(name: &str, extent: Option<i64>, index: impl Fn(Expr) -> Expr) -> Arc<Proc> {
    let mut b = ProcBuilder::new(name);
    let n = match extent {
        Some(c) => Expr::int(c),
        None => Expr::var(b.size("n")),
    };
    let a = b.tensor("A", DataType::F32, vec![n.clone()]);
    let bb = b.tensor("B", DataType::F32, vec![n.clone()]);
    let i = b.begin_for("i", Expr::int(0), n);
    b.assign(
        a,
        vec![index(Expr::var(i))],
        read(bb, vec![Expr::var(i)]).mul(Expr::int(2)),
    );
    b.end_for();
    b.finish()
}

/// `for i in [0, 15): A[i] = A[i + 1] + 1`: a carried dependence a
/// model confirms.
fn shifted_copy() -> Arc<Proc> {
    let mut b = ProcBuilder::new("shift");
    let a = b.tensor("A", DataType::F32, vec![Expr::int(16)]);
    let i = b.begin_for("i", Expr::int(0), Expr::int(15));
    b.assign(
        a,
        vec![Expr::var(i)],
        read(a, vec![Expr::var(i).add(Expr::int(1))]).add(Expr::int(1)),
    );
    b.end_for();
    b.finish()
}

/// The loop's verdict on a fresh context, and the check queries it
/// posed.
fn classify(p: &Proc) -> (LoopVerdict, usize) {
    let check = SharedCheckCtx::fresh();
    let mut reg = GlobalReg::new();
    let v = classify_loop(p, &StmtPath::top(0), &check, &mut reg)
        .expect("classification succeeds, faulted or not");
    (v, check.stats().queries)
}

/// Position on the lattice, most parallel first.
fn rank(v: &LoopVerdict) -> u8 {
    match v {
        LoopVerdict::Parallel => 0,
        LoopVerdict::ReductionParallel { .. } => 1,
        LoopVerdict::Sequential { .. } => 2,
    }
}

#[test]
fn solver_giveups_degrade_to_sequential_never_parallel() {
    // `A[(2i) / 2]` is `A[i]`, but only the solver can tell
    let halved = map("halved", None, |i| Expr::int(2).mul(i).div(Expr::int(2)));
    let decided = [
        map("doubled", None, |i| i),
        shifted_copy(),
        map("constant", Some(8), |_| Expr::int(0)),
    ];

    // Sanity: unfaulted, the solver proves the quotient loop Parallel,
    // and the decided loops pose no check query.
    let (v, queries) = classify(&halved);
    assert_eq!(v, LoopVerdict::Parallel);
    assert!(queries > 0, "the quotient loop reached the solver");
    let clean: Vec<LoopVerdict> = decided
        .iter()
        .map(|p| {
            let (v, queries) = classify(p);
            assert_eq!(queries, 0, "{}: {v:?}", p.name.name());
            v
        })
        .collect();
    assert_eq!(clean[0], LoopVerdict::Parallel);
    assert!(matches!(
        &clean[1],
        LoopVerdict::Sequential { witness: Some(_) }
    ));

    // Armed: every solver query reports Unknown. The classifier must not
    // trust an unproven independence claim.
    let guard = exo_chaos::arm(FaultPlan::always(0xDEC0DE, &[FaultSite::SmtTooHard]));
    match classify(&halved).0 {
        LoopVerdict::Sequential { witness } => {
            // With the solver refusing every SAT probe there is no proven
            // collision either — the verdict is conservative, not a lie.
            assert!(
                witness.is_none(),
                "give-ups cannot manufacture a witness: {witness:?}"
            );
        }
        other => panic!("faulted classification must fail safe, got {other:?}"),
    }
    // A decided loop never asks, so a give-up cannot move its verdict,
    // and in particular never toward Parallel.
    for (p, want) in decided.iter().zip(&clean) {
        let (v, queries) = classify(p);
        assert_eq!(&v, want, "{}", p.name.name());
        assert!(rank(&v) >= rank(want), "{}: {v:?}", p.name.name());
        assert_eq!(queries, 0, "{}", p.name.name());
    }
    drop(guard);

    // Disarmed again, the proof comes back.
    assert_eq!(classify(&halved).0, LoopVerdict::Parallel);
}
