//! One positive and one negative test per lint rule.

use std::sync::Arc;

use exo_analysis::SharedCheckCtx;
use exo_core::build::{read, ProcBuilder};
use exo_core::diag::{Diagnostic, Severity};
use exo_core::ir::{Expr, Proc, WAccess};
use exo_core::types::{DataType, MemName};
use exo_core::Sym;
use exo_lint::lint_proc;

fn findings(p: &Arc<Proc>) -> Vec<Diagnostic> {
    lint_proc(p, &SharedCheckCtx::fresh())
}

/// The findings and the check queries the rules posed on a fresh
/// context.
fn findings_and_queries(p: &Arc<Proc>) -> (Vec<Diagnostic>, usize) {
    let check = SharedCheckCtx::fresh();
    let diags = lint_proc(p, &check);
    (diags, check.stats().queries)
}

fn rules_of(diags: &[Diagnostic]) -> Vec<&str> {
    diags.iter().map(|d| d.rule.as_str()).collect()
}

fn assert_fires(diags: &[Diagnostic], rule: &str) {
    assert!(
        diags.iter().any(|d| d.rule == rule),
        "expected {rule} to fire, got {:?}",
        rules_of(diags)
    );
}

fn assert_silent(diags: &[Diagnostic], rule: &str) {
    assert!(
        diags.iter().all(|d| d.rule != rule),
        "expected {rule} to stay silent, got {:?}",
        rules_of(diags)
    );
}

// ------------------------------------------------------------- dead-alloc

#[test]
fn dead_alloc_fires_on_write_only_buffer() {
    let mut b = ProcBuilder::new("dead");
    let t = b.alloc("T", DataType::F32, vec![Expr::int(4)], MemName::dram());
    let i = b.begin_for("i", Expr::int(0), Expr::int(4));
    b.assign(t, vec![Expr::var(i)], Expr::int(1));
    b.end_for();
    let p = b.finish();
    let diags = findings(&p);
    assert_fires(&diags, "dead-alloc");
    let d = diags.iter().find(|d| d.rule == "dead-alloc").unwrap();
    assert_eq!(d.severity, Severity::Warning);
    assert!(d.path.is_some(), "dead-alloc should anchor to the alloc");
}

#[test]
fn dead_alloc_silent_when_buffer_is_read() {
    let mut b = ProcBuilder::new("live");
    let c = b.tensor("C", DataType::F32, vec![Expr::int(4)]);
    let t = b.alloc("T", DataType::F32, vec![Expr::int(4)], MemName::dram());
    let i = b.begin_for("i", Expr::int(0), Expr::int(4));
    b.assign(t, vec![Expr::var(i)], Expr::int(1));
    b.assign(c, vec![Expr::var(i)], read(t, vec![Expr::var(i)]));
    b.end_for();
    let p = b.finish();
    assert_silent(&findings(&p), "dead-alloc");
}

// ----------------------------------------------------------- uninit-read

#[test]
fn uninit_read_fires_on_read_before_any_write() {
    let mut b = ProcBuilder::new("uninit");
    let c = b.tensor("C", DataType::F32, vec![Expr::int(4)]);
    let t = b.alloc("T", DataType::F32, vec![Expr::int(4)], MemName::dram());
    b.assign(c, vec![Expr::int(0)], read(t, vec![Expr::int(0)]));
    let p = b.finish();
    let diags = findings(&p);
    assert_fires(&diags, "uninit-read");
    let d = diags.iter().find(|d| d.rule == "uninit-read").unwrap();
    assert_eq!(d.severity, Severity::Error, "uninit reads gate CI");
}

#[test]
fn uninit_read_silent_after_initializing_write() {
    let mut b = ProcBuilder::new("init");
    let c = b.tensor("C", DataType::F32, vec![Expr::int(4)]);
    let t = b.alloc("T", DataType::F32, vec![Expr::int(4)], MemName::dram());
    b.assign(t, vec![Expr::int(0)], Expr::int(1));
    b.assign(c, vec![Expr::int(0)], read(t, vec![Expr::int(0)]));
    let p = b.finish();
    assert_silent(&findings(&p), "uninit-read");
}

// -------------------------------------------------------- config-clobber

#[test]
fn config_clobber_fires_on_backtoback_writes() {
    let cfg = Sym::new("CFG");
    let f = Sym::new("stride");
    let mut b = ProcBuilder::new("clobber");
    b.write_config(cfg, f, Expr::int(1));
    b.write_config(cfg, f, Expr::int(2));
    let p = b.finish();
    let diags = findings(&p);
    assert_fires(&diags, "config-clobber");
    let d = diags.iter().find(|d| d.rule == "config-clobber").unwrap();
    assert!(
        d.notes.iter().any(|n| n.contains("previous write")),
        "clobber should point at the shadowed write: {d}"
    );
}

#[test]
fn config_clobber_silent_when_read_intervenes() {
    let cfg = Sym::new("CFG");
    let f = Sym::new("stride");
    let mut b = ProcBuilder::new("ok_cfg");
    let c = b.tensor("C", DataType::F32, vec![Expr::int(4)]);
    b.write_config(cfg, f, Expr::int(1));
    // An If guard reading the field observes the first write.
    b.begin_if(
        Expr::ReadConfig {
            config: cfg,
            field: f,
        }
        .eq(Expr::int(1)),
    );
    b.assign(c, vec![Expr::int(0)], Expr::int(1));
    b.end_if();
    b.write_config(cfg, f, Expr::int(2));
    let p = b.finish();
    assert_silent(&findings(&p), "config-clobber");
}

// --------------------------------------------------------- window-alias

/// `for o in [0, 4): w1 = A[8·o : 8·o + 8]; w2 = A[8·o + shift : 8·o +
/// shift + 8]` over `A: f32[48]`.
fn tiled_windows(shift: i64) -> Arc<Proc> {
    let mut b = ProcBuilder::new("tiled_windows");
    let a = b.tensor("A", DataType::F32, vec![Expr::int(48)]);
    let o = b.begin_for("o", Expr::int(0), Expr::int(4));
    let at = |off: i64| Expr::int(8).mul(Expr::var(o)).add(Expr::int(off));
    b.window("w1", a, vec![WAccess::Interval(at(0), at(8))]);
    b.window("w2", a, vec![WAccess::Interval(at(shift), at(shift + 8))]);
    b.end_for();
    b.finish()
}

#[test]
fn window_alias_fires_on_overlapping_windows() {
    let mut b = ProcBuilder::new("alias");
    let a = b.tensor("A", DataType::F32, vec![Expr::int(16)]);
    b.window("w1", a, vec![WAccess::Interval(Expr::int(0), Expr::int(8))]);
    b.window(
        "w2",
        a,
        vec![WAccess::Interval(Expr::int(4), Expr::int(12))],
    );
    let p = b.finish();
    assert_fires(&findings(&p), "window-alias");
    // inside a loop, a model at `o = 0` shows the overlap: no query
    let (diags, queries) = findings_and_queries(&tiled_windows(4));
    assert_fires(&diags, "window-alias");
    assert_eq!(queries, 0, "the overlap was confirmed without the solver");
}

#[test]
fn window_alias_silent_on_disjoint_windows() {
    let mut b = ProcBuilder::new("no_alias");
    let a = b.tensor("A", DataType::F32, vec![Expr::int(16)]);
    b.window("w1", a, vec![WAccess::Interval(Expr::int(0), Expr::int(8))]);
    b.window(
        "w2",
        a,
        vec![WAccess::Interval(Expr::int(8), Expr::int(16))],
    );
    let p = b.finish();
    assert_silent(&findings(&p), "window-alias");
    // no model exists, so the solver refutes the overlap
    let (diags, queries) = findings_and_queries(&tiled_windows(8));
    assert_silent(&diags, "window-alias");
    assert_eq!(queries, 1, "the solver refuted the overlap");
}

// --------------------------------------------------- precision-mismatch

fn callee_f32() -> Arc<Proc> {
    let mut b = ProcBuilder::new("consume_f32");
    let x = b.tensor("x", DataType::F32, vec![Expr::int(4)]);
    let s = b.scalar("acc", DataType::F32);
    b.reduce(s, vec![], read(x, vec![Expr::int(0)]));
    b.finish()
}

#[test]
fn precision_mismatch_fires_on_f64_into_f32_formal() {
    let callee = callee_f32();
    let mut b = ProcBuilder::new("mixed");
    let a = b.tensor("A", DataType::F64, vec![Expr::int(4)]);
    let s = b.scalar("s", DataType::F64);
    b.call(&callee, vec![Expr::var(a), Expr::var(s)]);
    let p = b.finish();
    let diags = findings(&p);
    assert_fires(&diags, "precision-mismatch");
    let d = diags
        .iter()
        .find(|d| d.rule == "precision-mismatch")
        .unwrap();
    assert!(d.message.contains("consume_f32"), "{d}");
}

#[test]
fn precision_mismatch_silent_on_matching_precisions() {
    let callee = callee_f32();
    let mut b = ProcBuilder::new("matched");
    let a = b.tensor("A", DataType::F32, vec![Expr::int(4)]);
    let s = b.scalar("s", DataType::F32);
    b.call(&callee, vec![Expr::var(a), Expr::var(s)]);
    let p = b.finish();
    assert_silent(&findings(&p), "precision-mismatch");
}

// ------------------------------------------------------------ empty-loop

#[test]
fn empty_loop_fires_on_provably_empty_range() {
    let mut b = ProcBuilder::new("empty");
    let a = b.tensor("A", DataType::F32, vec![Expr::int(4)]);
    let i = b.begin_for("i", Expr::int(4), Expr::int(2));
    b.assign(a, vec![Expr::var(i)], Expr::int(1));
    b.end_for();
    let p = b.finish();
    assert_fires(&findings(&p), "empty-loop");
}

#[test]
fn empty_loop_silent_on_symbolic_nonempty_range() {
    let mut b = ProcBuilder::new("nonempty");
    let n = b.size("n");
    let a = b.tensor("A", DataType::F32, vec![Expr::var(n)]);
    let i = b.begin_for("i", Expr::int(0), Expr::var(n));
    b.assign(a, vec![Expr::var(i)], Expr::int(1));
    b.end_for();
    let p = b.finish();
    assert_silent(&findings(&p), "empty-loop");
}

/// `if n + 1 < n: for i in [0, n): …` never runs. No ground point of
/// the box meets the guard, so the solver answers, and the loop is
/// reported as empty.
#[test]
fn empty_loop_fires_under_an_unsatisfiable_guard() {
    let mut b = ProcBuilder::new("guarded");
    let n = b.size("n");
    let a = b.tensor("A", DataType::F32, vec![Expr::var(n)]);
    b.begin_if(Expr::var(n).add(Expr::int(1)).lt(Expr::var(n)));
    let i = b.begin_for("i", Expr::int(0), Expr::var(n));
    b.assign(a, vec![Expr::var(i)], Expr::int(1));
    b.end_for();
    b.end_if();
    let p = b.finish();
    let (diags, queries) = findings_and_queries(&p);
    assert_fires(&diags, "empty-loop");
    assert_eq!(queries, 1, "the solver decided the guarded loop");
}

/// A loop with literal ends, nested in another: a model of the site shows
/// that it runs, without the solver.
#[test]
fn empty_loop_silent_on_literal_nonempty_range_without_a_query() {
    let mut b = ProcBuilder::new("nonempty");
    let a = b.tensor("A", DataType::F32, vec![Expr::int(8), Expr::int(16)]);
    let o = b.begin_for("o", Expr::int(0), Expr::int(8));
    let i = b.begin_for("i", Expr::int(0), Expr::int(16));
    b.assign(a, vec![Expr::var(o), Expr::var(i)], Expr::int(1));
    b.end_for();
    b.end_for();
    let p = b.finish();
    let (diags, queries) = findings_and_queries(&p);
    assert_silent(&diags, "empty-loop");
    assert_eq!(queries, 0, "both loops were shown to run by a model");
}

// ------------------------------------------------------------- plumbing

#[test]
fn diagnostics_export_as_json() {
    let mut b = ProcBuilder::new("dead");
    let t = b.alloc("T", DataType::F32, vec![Expr::int(4)], MemName::dram());
    b.assign(t, vec![Expr::int(0)], Expr::int(1));
    let p = b.finish();
    let diags = findings(&p);
    let json = exo_lint::diagnostics_json(&diags);
    let text = json.to_string();
    // Round-trips through the strict parser and carries the rule id.
    let parsed = exo_obs::Json::parse(&text).expect("lint JSON parses");
    assert!(text.contains("dead-alloc"), "{text}");
    match parsed {
        exo_obs::Json::Arr(items) => assert_eq!(items.len(), diags.len()),
        other => panic!("expected array, got {other:?}"),
    }
}
