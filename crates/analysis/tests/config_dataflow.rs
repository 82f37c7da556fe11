//! Configuration state seen by the bounds checker and the effect
//! extractor: both must move it past every statement with the one `ValG`
//! rule (paper §5.3), including calls, both branches of an `if`, and the
//! state at the start of an arbitrary loop iteration — also when a site
//! query extracts parts of a loop body.

use std::sync::Arc;

use exo_analysis::context::SiteQuery;
use exo_analysis::{check_bounds, effect_of_proc, EffExpr, Effect, GlobalReg, SharedCheckCtx};
use exo_core::build::{read, ProcBuilder};
use exo_core::ir::{Expr, Proc, Stmt};
use exo_core::path::StmtPath;
use exo_core::types::DataType;
use exo_core::Sym;

fn cfg_n() -> (Sym, Sym) {
    (Sym::new("Cfg"), Sym::new("n"))
}

fn read_n((config, field): (Sym, Sym)) -> Expr {
    Expr::ReadConfig { config, field }
}

fn bounds_ok(p: &Proc) -> bool {
    check_bounds(p, &mut GlobalReg::new(), &SharedCheckCtx::fresh()).is_ok()
}

/// Checking the offending statement at `path`, and each of its
/// ancestors, at its site fails with the whole-procedure check's
/// messages: the site's `PreValG` carries the configuration state there.
fn rejected_at_site(p: &Proc, path: StmtPath) {
    let messages = |r: Result<(), Vec<exo_analysis::CheckError>>| -> Vec<String> {
        r.err()
            .unwrap_or_default()
            .into_iter()
            .map(|e| e.message)
            .collect()
    };
    let check = SharedCheckCtx::fresh();
    let whole = messages(check_bounds(p, &mut GlobalReg::new(), &check));
    assert!(!whole.is_empty());
    let mut site = Some(path);
    while let Some(at) = site {
        let mut reg = GlobalReg::new();
        let mut q = SiteQuery::new(p, &at, &mut reg, &check).expect("valid path");
        assert_eq!(messages(q.check_bounds()), whole, "checked at {at}");
        site = at.parent();
    }
}

/// The index of the one write to `buf` anywhere in `eff`.
fn write_index(eff: &Effect, buf: Sym) -> Option<EffExpr> {
    match eff {
        Effect::Write(b, idx) if *b == buf => idx.first().cloned(),
        Effect::Seq(parts) => parts.iter().find_map(|e| write_index(e, buf)),
        Effect::Guard(_, body) | Effect::Loop { body, .. } => write_index(body, buf),
        _ => None,
    }
}

/// `Cfg.n = 4; set_n(); for i in seq(0, Cfg.n): A[i] = 0.0` with
/// `A: f32[10]` and `set_n` writing `Cfg.n = v`.
fn loop_after_call(v: i64) -> Arc<Proc> {
    let n = cfg_n();
    let mut cb = ProcBuilder::new("set_n");
    cb.write_config(n.0, n.1, Expr::int(v));
    let set_n = cb.finish();

    let mut b = ProcBuilder::new("p");
    let a = b.tensor("A", DataType::F32, vec![Expr::int(10)]);
    b.write_config(n.0, n.1, Expr::int(4));
    b.call(&set_n, vec![]);
    let i = b.begin_for("i", Expr::int(0), read_n(n));
    b.assign(a, vec![Expr::var(i)], Expr::float(0.0));
    b.end_for();
    b.finish()
}

#[test]
fn bounds_see_config_written_by_a_call() {
    assert!(
        !bounds_ok(&loop_after_call(100)),
        "A[0..100] overruns f32[10]"
    );
    rejected_at_site(&loop_after_call(100), StmtPath::top(2).child(0, 0));
    assert!(bounds_ok(&loop_after_call(4)));
}

/// `Cfg.n = 64; [Cfg.n = 3;] needs_64()` where `needs_64` asserts
/// `Cfg.n == 64`.
fn call_needing_64(overwrite: bool) -> Arc<Proc> {
    let n = cfg_n();
    let mut cb = ProcBuilder::new("needs_64");
    cb.assert_pred(read_n(n).eq(Expr::int(64)));
    cb.stmt(exo_core::ir::Stmt::Pass);
    let needs_64 = cb.finish();

    let mut b = ProcBuilder::new("p");
    b.write_config(n.0, n.1, Expr::int(64));
    if overwrite {
        b.write_config(n.0, n.1, Expr::int(3));
    }
    b.call(&needs_64, vec![]);
    b.finish()
}

#[test]
fn callee_precondition_reads_caller_config_state() {
    assert!(bounds_ok(&call_needing_64(false)));
    assert!(!bounds_ok(&call_needing_64(true)));
    rejected_at_site(&call_needing_64(true), StmtPath::top(2));
}

#[test]
fn effect_after_if_keeps_the_then_branch_write() {
    // for j in seq(0, 1):
    //     Cfg.n = 4
    //     if x < 5: Cfg.n = 100
    //     A[Cfg.n] = 1.0
    let n = cfg_n();
    let mut b = ProcBuilder::new("p");
    let x = b.size("x");
    let a = b.tensor("A", DataType::F32, vec![Expr::int(200)]);
    b.begin_for("j", Expr::int(0), Expr::int(1));
    b.write_config(n.0, n.1, Expr::int(4));
    b.begin_if(Expr::var(x).lt(Expr::int(5)));
    b.write_config(n.0, n.1, Expr::int(100));
    b.end_if();
    b.assign(a, vec![read_n(n)], Expr::float(1.0));
    b.end_for();
    let p = b.finish();

    let idx = write_index(&effect_of_proc(&p, &mut GlobalReg::new()), a).expect("A is written");
    assert_ne!(idx, EffExpr::Int(4));
    assert!(matches!(idx, EffExpr::Ite(..)), "{idx:?}");
}

#[test]
fn effect_in_loop_body_reads_the_loop_state() {
    // Cfg.n = 7
    // for i in seq(0, 8):
    //     A[Cfg.n * 25] = 1.0
    //     Cfg.n = i
    let n = cfg_n();
    let mut b = ProcBuilder::new("p");
    let a = b.tensor("A", DataType::F32, vec![Expr::int(200)]);
    b.write_config(n.0, n.1, Expr::int(7));
    let i = b.begin_for("i", Expr::int(0), Expr::int(8));
    b.assign(a, vec![read_n(n).mul(Expr::int(25))], Expr::float(1.0));
    b.write_config(n.0, n.1, Expr::var(i));
    b.end_for();
    let p = b.finish();

    let idx = write_index(&effect_of_proc(&p, &mut GlobalReg::new()), a).expect("A is written");
    assert!(
        idx.has_unknown(),
        "later iterations read Cfg.n = i: {idx:?}"
    );
}

#[test]
fn effect_in_nested_callee_reads_outer_callee_config() {
    // inner(y): y[Cfg.n] = 1.0
    // outer(m, x): Cfg.n = m; inner(x)
    // p(A): outer(5, A)   — the write lands at A[5]
    let n = cfg_n();
    let mut ib = ProcBuilder::new("inner");
    let y = ib.tensor("y", DataType::F32, vec![Expr::int(8)]);
    ib.assign(y, vec![read_n(n)], Expr::float(1.0));
    let inner = ib.finish();

    let mut ob = ProcBuilder::new("outer");
    let m = ob.size("m");
    let x = ob.tensor("x", DataType::F32, vec![Expr::int(8)]);
    ob.write_config(n.0, n.1, Expr::var(m));
    ob.call(&inner, vec![read(x, vec![])]);
    let outer = ob.finish();

    let mut b = ProcBuilder::new("p");
    let a = b.tensor("A", DataType::F32, vec![Expr::int(8)]);
    b.call(&outer, vec![Expr::int(5), read(a, vec![])]);
    let p = b.finish();

    let idx = write_index(&effect_of_proc(&p, &mut GlobalReg::new()), a).expect("A is written");
    assert_eq!(idx, EffExpr::Int(5));
}

#[test]
fn site_query_body_parts_read_the_loop_state() {
    // Cfg.n = 0
    // for i in seq(0, 4):
    //     A[Cfg.n] = 1.0
    //     Cfg.n = 5
    //     for j in seq(0, 2):
    //         B[Cfg.n + j] = 2.0
    let n = cfg_n();
    let mut b = ProcBuilder::new("p");
    let a = b.tensor("A", DataType::F32, vec![Expr::int(16)]);
    let bb = b.tensor("B", DataType::F32, vec![Expr::int(16)]);
    b.write_config(n.0, n.1, Expr::int(0));
    b.begin_for("i", Expr::int(0), Expr::int(4));
    b.assign(a, vec![read_n(n)], Expr::float(1.0));
    b.write_config(n.0, n.1, Expr::int(5));
    let j = b.begin_for("j", Expr::int(0), Expr::int(2));
    b.assign(bb, vec![read_n(n).add(Expr::var(j))], Expr::float(2.0));
    b.end_for();
    b.end_for();
    let p = b.finish();
    let outer = &p.body[1];
    let Stmt::For { body, .. } = outer else {
        panic!("statement 1 is the loop over i");
    };

    let (mut reg, check) = (GlobalReg::new(), SharedCheckCtx::fresh());
    let mut q = SiteQuery::new(&p, &StmtPath::top(1), &mut reg, &check).expect("valid path");
    // the site itself is in the loop-entry state
    assert_eq!(q.lift(&read_n(n)), EffExpr::Int(0));
    // an arbitrary iteration starts with Cfg.n unknown; the second part
    // starts after the first part's write
    let [first, second] = q.body_effects(&[outer], [&body[..2], &body[2..]]);
    let a_idx = write_index(&first, a).expect("A is written");
    assert!(
        a_idx.has_unknown(),
        "iteration 1 reads Cfg.n = 5: {a_idx:?}"
    );
    let b_idx = write_index(&second, bb).expect("B is written");
    assert!(!b_idx.has_unknown(), "{b_idx:?}");
    // nested loops compose: the inner body starts in the outer loop's state
    let Stmt::For { body: inner, .. } = &body[2] else {
        panic!("statement 2 of the body is the loop over j");
    };
    let [nested] = q.body_effects(&[outer, &body[2]], [inner]);
    let idx = write_index(&nested, bb).expect("B is written");
    assert!(idx.has_unknown(), "{idx:?}");
}

/// `[Cfg.flag = flag;] if Cfg.flag: A[8] = 1.0` with `A: f32[8]`.
fn store_guarded_by_flag(flag: Option<bool>) -> Arc<Proc> {
    let (cfg, f) = (Sym::new("Cfg"), Sym::new("flag"));
    let mut b = ProcBuilder::new("p");
    let a = b.tensor("A", DataType::F32, vec![Expr::int(8)]);
    if let Some(v) = flag {
        b.write_config(cfg, f, Expr::bool(v));
    }
    b.begin_if(Expr::ReadConfig {
        config: cfg,
        field: f,
    });
    b.assign(a, vec![Expr::int(8)], Expr::float(1.0));
    b.end_if();
    b.finish()
}

#[test]
fn a_boolean_config_guard_is_read_soundly() {
    // the field's entry value is not known: the guard may hold
    assert!(!bounds_ok(&store_guarded_by_flag(None)));
    assert!(!bounds_ok(&store_guarded_by_flag(Some(true))));
    // a guard known to fail makes the store unreachable
    assert!(bounds_ok(&store_guarded_by_flag(Some(false))));
}
