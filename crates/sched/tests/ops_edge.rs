//! Edge-case tests for scheduling operators not covered by the main
//! suites: deletion ops, scalar expansion, argument-level rewrites, and
//! the error paths that keep unsound rewrites out.

use std::sync::Arc;

use exo_core::build::{read, ProcBuilder};
use exo_core::ir::{Expr, Proc, Stmt};
use exo_core::types::{DataType, MemName};
use exo_core::Sym;
use exo_interp::{ArgVal, Machine};
use exo_sched::Procedure;

fn run_vec(proc: &Proc, n: usize) -> Vec<f64> {
    let mut m = Machine::new();
    let x = m.alloc_extern(
        "x",
        DataType::F32,
        &[n],
        &(0..n).map(|i| i as f64).collect::<Vec<_>>(),
    );
    m.run(proc, &[ArgVal::Tensor(x)]).unwrap();
    m.buffer_values(x).unwrap()
}

#[test]
fn shadow_delete_removes_dead_store() {
    // x[0] = 1.0; x[0] = 2.0 — the first store is shadowed
    let mut b = ProcBuilder::new("p");
    let x = b.tensor("x", DataType::F32, vec![Expr::int(4)]);
    b.assign(x, vec![Expr::int(0)], Expr::float(1.0));
    b.assign(x, vec![Expr::int(0)], Expr::float(2.0));
    let p = Procedure::new(b.finish());
    let q = p.shadow_delete("x[_] = _").unwrap();
    assert_eq!(q.body().len(), 1);
    assert_eq!(run_vec(p.proc(), 4), run_vec(q.proc(), 4));

    // x[0] = 1.0; x[1] = 2.0 — not shadowed (different locations)
    let mut b2 = ProcBuilder::new("p2");
    let x2 = b2.tensor("x", DataType::F32, vec![Expr::int(4)]);
    b2.assign(x2, vec![Expr::int(0)], Expr::float(1.0));
    b2.assign(x2, vec![Expr::int(1)], Expr::float(2.0));
    let p2 = Procedure::new(b2.finish());
    assert!(p2.shadow_delete("x[_] = _").is_err());
}

#[test]
fn shadow_delete_rejects_read_between() {
    // x[0] = 1.0; x[1] = x[0]; (second statement reads before overwriting
    // a different cell) — deleting the first store would change x[1]
    let mut b = ProcBuilder::new("p");
    let x = b.tensor("x", DataType::F32, vec![Expr::int(4)]);
    b.assign(x, vec![Expr::int(0)], Expr::float(1.0));
    b.assign(
        x,
        vec![Expr::int(0)],
        read(x, vec![Expr::int(0)]).add(Expr::float(1.0)),
    );
    let p = Procedure::new(b.finish());
    assert!(p.shadow_delete("x[_] = _").is_err());
}

#[test]
fn delete_pass_shrinks_body() {
    let mut b = ProcBuilder::new("p");
    let x = b.tensor("x", DataType::F32, vec![Expr::int(4)]);
    b.stmt(Stmt::Pass);
    b.assign(x, vec![Expr::int(0)], Expr::float(1.0));
    let p = Procedure::new(b.finish());
    let q = p.delete_pass().unwrap();
    assert_eq!(q.body().len(), 1);
    // no pass left: a second call errs
    assert!(q.delete_pass().is_err());
}

#[test]
fn expand_scalar_requires_lane_invariance() {
    // expression uses the lane variable: rejected
    let mut b = ProcBuilder::new("p");
    let x = b.tensor("x", DataType::F32, vec![Expr::int(16)]);
    let l = b.begin_for("lane", Expr::int(0), Expr::int(16));
    b.assign(
        x,
        vec![Expr::var(l)],
        read(x, vec![Expr::var(l)]).mul(Expr::float(2.0)),
    );
    b.end_for();
    let p = Procedure::new(b.finish());
    let e = p
        .expand_scalar("for lane in _: _", "x[_]", "lane", "bc", MemName::dram())
        .unwrap_err();
    assert!(e.message.contains("lane"), "{e}");
}

#[test]
fn expand_scalar_correctness() {
    // y[l] += x[3] * 2 for 16 lanes: expand x[3]
    let mut b = ProcBuilder::new("p");
    let x = b.tensor("x", DataType::F32, vec![Expr::int(16)]);
    let l = b.begin_for("lane", Expr::int(0), Expr::int(16));
    b.reduce(
        x,
        vec![Expr::var(l)],
        read(x, vec![Expr::int(3)]).mul(Expr::float(0.0)),
    );
    b.end_for();
    let p = Procedure::new(b.finish());
    let q = p
        .expand_scalar("for lane in _: _", "x[_]", "lane", "bc", MemName::dram())
        .unwrap();
    assert!(q.show().contains("bc"), "{}", q.show());
    assert_eq!(run_vec(p.proc(), 16), run_vec(q.proc(), 16));
}

#[test]
fn set_arg_precision_and_memory() {
    let mut b = ProcBuilder::new("p");
    let x = b.tensor("x", DataType::R, vec![Expr::int(4)]);
    b.assign(x, vec![Expr::int(0)], Expr::float(1.0));
    let p = Procedure::new(b.finish());

    let q = p.set_arg_precision("x", DataType::F64).unwrap();
    assert!(q.show().contains("f64[4]"), "{}", q.show());

    let spad = MemName(Sym::new("SPAD_EDGE"));
    let r = q.set_arg_memory("x", spad).unwrap();
    assert!(r.show().contains("@ SPAD_EDGE"), "{}", r.show());

    assert!(p.set_arg_precision("nope", DataType::F32).is_err());
}

#[test]
fn lift_alloc_rejects_iteration_dependent_shape() {
    let mut b = ProcBuilder::new("p");
    let x = b.tensor("x", DataType::F32, vec![Expr::int(8)]);
    let i = b.begin_for("i", Expr::int(1), Expr::int(4));
    let t = b.alloc("t", DataType::F32, vec![Expr::var(i)], MemName::dram());
    b.assign(t, vec![Expr::int(0)], Expr::float(0.0));
    b.assign(x, vec![Expr::var(i)], read(t, vec![Expr::int(0)]));
    b.end_for();
    let p = Procedure::new(b.finish());
    let e = p.lift_alloc("t : _").unwrap_err();
    assert!(e.message.contains("depends on the loop iterator"), "{e}");
}

#[test]
fn remove_loop_needs_all_three_conditions() {
    // uses the iteration variable → rejected structurally
    let mut b = ProcBuilder::new("p");
    let x = b.tensor("x", DataType::F32, vec![Expr::int(8)]);
    let i = b.begin_for("i", Expr::int(0), Expr::int(4));
    b.assign(x, vec![Expr::var(i)], Expr::float(0.0));
    b.end_for();
    let p = Procedure::new(b.finish());
    let e = p.remove_loop("for i in _: _").unwrap_err();
    assert!(e.message.contains("iteration variable"), "{e}");
}

#[test]
fn inline_handles_window_arguments() {
    let mut cb = ProcBuilder::new("setter");
    let n = cb.size("n");
    let dst = cb.window_arg("dst", DataType::F32, vec![Expr::var(n)], MemName::dram());
    let i = cb.begin_for("i", Expr::int(0), Expr::var(n));
    cb.assign(dst, vec![Expr::var(i)], Expr::float(9.0));
    cb.end_for();
    let setter = cb.finish();

    let mut b = ProcBuilder::new("main");
    let x = b.tensor("x", DataType::F32, vec![Expr::int(8)]);
    b.call(
        &setter,
        vec![
            Expr::int(4),
            Expr::Window {
                buf: x,
                coords: vec![exo_core::WAccess::Interval(Expr::int(2), Expr::int(6))],
            },
        ],
    );
    let p = Procedure::new(b.finish());
    let q = p.inline("setter(_)").unwrap();
    assert!(!q.show().contains("setter("), "{}", q.show());
    let out = run_vec(q.proc(), 8);
    assert_eq!(out, vec![0.0, 1.0, 9.0, 9.0, 9.0, 9.0, 6.0, 7.0]);
}

#[test]
fn directive_counting_is_monotone() {
    let mut b = ProcBuilder::new("p");
    let x = b.tensor("x", DataType::F32, vec![Expr::int(16)]);
    let i = b.begin_for("i", Expr::int(0), Expr::int(16));
    b.assign(x, vec![Expr::var(i)], Expr::float(0.0));
    b.end_for();
    let p = Procedure::new(b.finish());
    assert_eq!(p.directives(), 0);
    let q = p.split("for i in _: _", 4, "io", "ii").unwrap();
    assert_eq!(q.directives(), 1);
    let r = q.simplify();
    assert_eq!(r.directives(), 2);
    // original untouched
    assert_eq!(p.directives(), 0);
}

#[test]
fn replace_multi_statement_block() {
    // an @instr whose body is two statements: zero then accumulate
    let mut ib = ProcBuilder::new("zero_and_add");
    let dst = ib.window_arg("dst", DataType::F32, vec![Expr::int(4)], MemName::dram());
    let src = ib.window_arg("src", DataType::F32, vec![Expr::int(4)], MemName::dram());
    ib.instr("zero_add({dst}.data, {src}.data);");
    let i = ib.begin_for("i", Expr::int(0), Expr::int(4));
    ib.assign(dst, vec![Expr::var(i)], Expr::float(0.0));
    ib.end_for();
    let j = ib.begin_for("j", Expr::int(0), Expr::int(4));
    ib.reduce(dst, vec![Expr::var(j)], read(src, vec![Expr::var(j)]));
    ib.end_for();
    let instr = ib.finish();

    let mut b = ProcBuilder::new("main");
    let x = b.tensor("x", DataType::F32, vec![Expr::int(8)]);
    let i = b.begin_for("i", Expr::int(0), Expr::int(4));
    b.assign(x, vec![Expr::var(i)], Expr::float(0.0));
    b.end_for();
    let j = b.begin_for("j", Expr::int(0), Expr::int(4));
    b.reduce(
        x,
        vec![Expr::var(j)],
        read(x, vec![Expr::var(j).add(Expr::int(4))]),
    );
    b.end_for();
    let p = Procedure::new(b.finish());
    let q = p.replace("for i in _: _", &Arc::clone(&instr)).unwrap();
    assert!(q.show().contains("zero_and_add("), "{}", q.show());
    assert_eq!(q.body().len(), 1, "{}", q.show());
    assert_eq!(run_vec(p.proc(), 8), run_vec(q.proc(), 8));
}

/// `A[100]` after running `proc` on a zeroed `A: f32[200]` (and `x = 1`
/// when the procedure takes a size first).
fn a100(proc: &Proc) -> f64 {
    let mut m = Machine::new();
    let a = m.alloc_extern("A", DataType::F32, &[200], &[0.0; 200]);
    let mut args = vec![ArgVal::Tensor(a)];
    if proc.args.len() == 2 {
        args.insert(0, ArgVal::Int(1));
    }
    m.run(proc, &args).unwrap();
    m.buffer_values(a).unwrap()[100]
}

#[test]
fn reorder_stmts_sees_config_written_under_if() {
    // for j in seq(0, 1):
    //     Cfg.n = 4
    //     if x < 5: Cfg.n = 100
    //     A[Cfg.n] = 1.0
    // A[100] = 2.0
    let (cfg, n) = (Sym::new("Cfg"), Sym::new("n"));
    let mut b = ProcBuilder::new("p");
    let x = b.size("x");
    let a = b.tensor("A", DataType::F32, vec![Expr::int(200)]);
    b.begin_for("j", Expr::int(0), Expr::int(1));
    b.write_config(cfg, n, Expr::int(4));
    b.begin_if(Expr::var(x).lt(Expr::int(5)));
    b.write_config(cfg, n, Expr::int(100));
    b.end_if();
    let cfg_n = Expr::ReadConfig {
        config: cfg,
        field: n,
    };
    b.assign(a, vec![cfg_n], Expr::float(1.0));
    b.end_for();
    b.assign(a, vec![Expr::int(100)], Expr::float(2.0));
    let p = Procedure::new(b.finish());
    assert_eq!(a100(p.proc()), 2.0);
    // the swap would leave A[100] = 1.0
    assert!(p.reorder_stmts("for j in _: _").is_err());
}

#[test]
fn reorder_stmts_sees_config_read_before_write_in_loop() {
    // Cfg.n = 7
    // for i in seq(0, 8):
    //     A[Cfg.n * 25] = 1.0
    //     Cfg.n = i
    // A[100] = 2.0
    let (cfg, n) = (Sym::new("Cfg"), Sym::new("n"));
    let mut b = ProcBuilder::new("p");
    let a = b.tensor("A", DataType::F32, vec![Expr::int(200)]);
    b.write_config(cfg, n, Expr::int(7));
    let i = b.begin_for("i", Expr::int(0), Expr::int(8));
    let cfg_n = Expr::ReadConfig {
        config: cfg,
        field: n,
    };
    b.assign(a, vec![cfg_n.mul(Expr::int(25))], Expr::float(1.0));
    b.write_config(cfg, n, Expr::var(i));
    b.end_for();
    b.assign(a, vec![Expr::int(100)], Expr::float(2.0));
    let p = Procedure::new(b.finish());
    assert_eq!(a100(p.proc()), 2.0);
    // iteration 5 writes A[4 * 25]: the swap would leave A[100] = 1.0
    assert!(p.reorder_stmts("for i in _: _").is_err());
}

/// `[Cfg.flag = flag]` then `for j in seq(0, 1): if Cfg.flag: A[100] =
/// 1.0`, then `A[100] = 2.0`.
fn guarded_by_flag(flag: Option<bool>) -> Procedure {
    let (cfg, f) = (Sym::new("Cfg"), Sym::new("flag"));
    let mut b = ProcBuilder::new("p");
    let a = b.tensor("A", DataType::F32, vec![Expr::int(200)]);
    if let Some(v) = flag {
        b.write_config(cfg, f, Expr::bool(v));
    }
    b.begin_for("j", Expr::int(0), Expr::int(1));
    b.begin_if(Expr::ReadConfig {
        config: cfg,
        field: f,
    });
    b.assign(a, vec![Expr::int(100)], Expr::float(1.0));
    b.end_if();
    b.end_for();
    b.assign(a, vec![Expr::int(100)], Expr::float(2.0));
    Procedure::new(b.finish())
}

#[test]
fn reorder_stmts_sees_a_boolean_config_guard() {
    // a guard that holds makes the swap unsafe: it would leave
    // A[100] = 1.0
    let on = guarded_by_flag(Some(true));
    assert_eq!(a100(on.proc()), 2.0);
    assert!(on.reorder_stmts("for j in _: _").is_err());
    // the field's entry value is not known: the guard may hold
    assert!(guarded_by_flag(None)
        .reorder_stmts("for j in _: _")
        .is_err());
    // a guard known to fail leaves the loop without effect
    let off = guarded_by_flag(Some(false));
    let swapped = off.reorder_stmts("for j in _: _").unwrap();
    assert_eq!(a100(off.proc()), a100(swapped.proc()));
}

/// `Cfg.n = 0` followed by `for i in seq(0, 4)` over `A[Cfg.n] = 1.0;
/// Cfg.n = 5`, the head shared by the two loop-state tests below.
fn write_then_bump(b: &mut ProcBuilder, a: Sym, cfg: Sym, n: Sym) -> Sym {
    b.write_config(cfg, n, Expr::int(0));
    let i = b.begin_for("i", Expr::int(0), Expr::int(4));
    let cfg_n = Expr::ReadConfig {
        config: cfg,
        field: n,
    };
    b.assign(a, vec![cfg_n], Expr::float(1.0));
    b.write_config(cfg, n, Expr::int(5));
    i
}

#[test]
fn fission_after_sees_config_written_in_an_earlier_iteration() {
    // Cfg.n = 0
    // for i in seq(0, 4):
    //     A[Cfg.n] = 1.0
    //     Cfg.n = 5
    //     A[100 + i] = A[5]
    let (cfg, n) = (Sym::new("Cfg"), Sym::new("n"));
    let mut b = ProcBuilder::new("p");
    let a = b.tensor("A", DataType::F32, vec![Expr::int(200)]);
    let i = write_then_bump(&mut b, a, cfg, n);
    b.assign(
        a,
        vec![Expr::int(100).add(Expr::var(i))],
        read(a, vec![Expr::int(5)]),
    );
    b.end_for();
    let p = Procedure::new(b.finish());
    assert_eq!(a100(p.proc()), 0.0);
    // iteration 1 writes A[5]: after the fission A[100] would read 1.0
    assert!(p.fission_after("Cfg.n = _ #1").is_err());
}

#[test]
fn fuse_loop_sees_config_written_in_an_earlier_iteration() {
    // Cfg.n = 0
    // for i in seq(0, 4):
    //     A[Cfg.n] = 1.0
    //     Cfg.n = 5
    // for j in seq(0, 4):
    //     A[100 + j] = A[5]
    let (cfg, n) = (Sym::new("Cfg"), Sym::new("n"));
    let mut b = ProcBuilder::new("p");
    let a = b.tensor("A", DataType::F32, vec![Expr::int(200)]);
    write_then_bump(&mut b, a, cfg, n);
    b.end_for();
    let j = b.begin_for("j", Expr::int(0), Expr::int(4));
    b.assign(
        a,
        vec![Expr::int(100).add(Expr::var(j))],
        read(a, vec![Expr::int(5)]),
    );
    b.end_for();
    let p = Procedure::new(b.finish());
    assert_eq!(a100(p.proc()), 1.0);
    // fused, iteration 0 reads A[5] before iteration 1 writes it: A[100]
    // would be 0.0
    assert!(p.fuse_loop("for i in _: _").is_err());
}

/// `A: f32[16]`, `B: f32[2]`; with `unit_loop`, first
/// `for z in seq(0, 1): {B[0] = 1.0; B[1] = 2.0}`; then
/// `for o in seq(0, 4): for i in seq(0, 16): A[i] = 0.0`.
fn staged_after_unit_loop(unit_loop: bool) -> Procedure {
    let mut b = ProcBuilder::new("p");
    let a = b.tensor("A", DataType::F32, vec![Expr::int(16)]);
    let bb = b.tensor("B", DataType::F32, vec![Expr::int(2)]);
    if unit_loop {
        b.begin_for("z", Expr::int(0), Expr::int(1));
        b.assign(bb, vec![Expr::int(0)], Expr::float(1.0));
        b.assign(bb, vec![Expr::int(1)], Expr::float(2.0));
        b.end_for();
    }
    b.begin_for("o", Expr::int(0), Expr::int(4));
    let i = b.begin_for("i", Expr::int(0), Expr::int(16));
    b.assign(a, vec![Expr::var(i)], Expr::float(0.0));
    b.end_for().end_for();
    Procedure::new(b.finish())
}

#[test]
fn stage_mem_checks_the_staged_block_after_folding() {
    // Staging A[0:2] around `for i` writes res[i] for i < 16 into
    // res: f32[2]. Folding inlines the unit `z` loop ahead of it, which
    // shifts the staged block's path; the check must still find it.
    for unit_loop in [false, true] {
        let p = staged_after_unit_loop(unit_loop);
        let r = p.stage_mem(
            "for i in _: _",
            "A",
            &[(Expr::int(0), Expr::int(2))],
            "res",
            MemName::dram(),
        );
        let err = r.expect_err("undersized staging accepted");
        assert!(err.message.contains("not memory-safe"), "{err}");
    }
}

#[test]
fn stage_mem_of_a_write_only_block_keeps_unwritten_cells() {
    // for i in seq(0, 4): x[i] = 1.0 — staged through xs = x[0:8], whose
    // store-back also copies xs[4:8] to x[4:8]: those cells must have
    // been loaded from x first.
    let mut b = ProcBuilder::new("p");
    let x = b.tensor("x", DataType::F32, vec![Expr::int(8)]);
    let i = b.begin_for("i", Expr::int(0), Expr::int(4));
    b.assign(x, vec![Expr::var(i)], Expr::float(1.0));
    b.end_for();
    let p = Procedure::new(b.finish());
    let q = p
        .stage_mem(
            "for i in _: _",
            "x",
            &[(Expr::int(0), Expr::int(8))],
            "xs",
            MemName::dram(),
        )
        .unwrap();
    assert_eq!(run_vec(p.proc(), 8), run_vec(q.proc(), 8));
}

/// `Cfg.k`, the field the `bind_config` tests bind.
fn cfg_k() -> (Sym, Sym) {
    (Sym::new("Cfg"), Sym::new("k"))
}

fn read_cfg((config, field): (Sym, Sym)) -> Expr {
    Expr::ReadConfig { config, field }
}

#[test]
fn bind_config_accepts_a_binding_no_later_code_reads() {
    // for i in seq(0, 4): x[i] = 1.0
    // x[3] = 1.0
    let (cfg, k) = cfg_k();
    let mut b = ProcBuilder::new("p");
    let x = b.tensor("x", DataType::F32, vec![Expr::int(8)]);
    let i = b.begin_for("i", Expr::int(0), Expr::int(4));
    b.assign(x, vec![Expr::var(i)], Expr::float(1.0));
    b.end_for();
    b.assign(x, vec![Expr::int(3)], Expr::float(1.0));
    let p = Procedure::new(b.finish());
    let q = p.bind_config("for i in _: _", "4", cfg, k).unwrap();
    assert!(q.show().contains("Cfg.k = 4"), "{}", q.show());
    assert_eq!(run_vec(p.proc(), 8), run_vec(q.proc(), 8));
    let r = p.bind_config("x[_] = _ #1", "3", cfg, k).unwrap();
    assert!(r.show().contains("x[Cfg.k] = 1.0"), "{}", r.show());
    assert!(r.polluted().contains(&(cfg, k)));
    assert_eq!(run_vec(p.proc(), 8), run_vec(r.proc(), 8));
}

#[test]
fn bind_config_rejects_a_later_reader() {
    // for i in seq(0, 4): x[i] = 1.0
    // x[Cfg.k] = 2.0 — reads the field the binding pollutes
    let (cfg, k) = cfg_k();
    let mut b = ProcBuilder::new("p");
    let x = b.tensor("x", DataType::F32, vec![Expr::int(8)]);
    b.write_config(cfg, k, Expr::int(6));
    let i = b.begin_for("i", Expr::int(0), Expr::int(4));
    b.assign(x, vec![Expr::var(i)], Expr::float(1.0));
    b.end_for();
    b.assign(x, vec![read_cfg((cfg, k))], Expr::float(2.0));
    let p = Procedure::new(b.finish());
    let err = p.bind_config("for i in _: _", "4", cfg, k).unwrap_err();
    assert!(err.message.contains("may read Cfg.k"), "{err}");
}

#[test]
fn bind_config_rejects_a_statement_that_writes_what_the_expression_reads() {
    // Cfg.m = 0
    // for i in seq(0, 2):
    //     Cfg.m = 5
    //     x[Cfg.m] = 1.0
    // Binding `Cfg.m` to Cfg.k before the loop would freeze its value at
    // 0 and move the store from x[5] to x[0].
    let (cfg, k) = cfg_k();
    let m = Sym::new("m");
    let mut b = ProcBuilder::new("p");
    let x = b.tensor("x", DataType::F32, vec![Expr::int(8)]);
    b.write_config(cfg, m, Expr::int(0));
    b.begin_for("i", Expr::int(0), Expr::int(2));
    b.write_config(cfg, m, Expr::int(5));
    b.assign(x, vec![read_cfg((cfg, m))], Expr::float(1.0));
    b.end_for();
    let p = Procedure::new(b.finish());
    assert_eq!(run_vec(p.proc(), 8)[5], 1.0);
    let err = p.bind_config("for i in _: _", "Cfg.m", cfg, k).unwrap_err();
    assert!(
        err.message.contains("a field the expression reads"),
        "{err}"
    );
}

#[test]
fn stage_mem_of_an_init_loop_loads_nothing() {
    // acc: f32[8]
    // for i in seq(0, 8): acc[i] = 0.0 — staged through accs = acc[0:8]
    // for i in seq(0, 8): x[i] = acc[i] + x[i]
    // The block writes the whole window, so no load reads the
    // uninitialised acc.
    let mut b = ProcBuilder::new("p");
    let x = b.tensor("x", DataType::F32, vec![Expr::int(8)]);
    let acc = b.alloc("acc", DataType::F32, vec![Expr::int(8)], MemName::dram());
    let i = b.begin_for("i", Expr::int(0), Expr::int(8));
    b.assign(acc, vec![Expr::var(i)], Expr::float(0.0));
    b.end_for();
    let j = b.begin_for("j", Expr::int(0), Expr::int(8));
    b.assign(
        x,
        vec![Expr::var(j)],
        read(acc, vec![Expr::var(j)]).add(read(x, vec![Expr::var(j)])),
    );
    b.end_for();
    let p = Procedure::new(b.finish());
    let q = p
        .stage_mem(
            "for i in _: _",
            "acc",
            &[(Expr::int(0), Expr::int(8))],
            "accs",
            MemName::dram(),
        )
        .unwrap();
    assert_eq!(run_vec(p.proc(), 8), run_vec(q.proc(), 8));
    assert!(!q.show().contains("ld0"), "{}", q.show());
}

#[test]
fn bind_config_rejects_a_statement_that_reads_the_field() {
    // Cfg.k = 6
    // for i in seq(0, 2): x[Cfg.k] = 1.0
    // Binding `2` to Cfg.k before the loop would move the store from
    // x[6] to x[2], with no code after the loop to notice.
    let (cfg, k) = cfg_k();
    let mut b = ProcBuilder::new("p");
    let x = b.tensor("x", DataType::F32, vec![Expr::int(8)]);
    b.write_config(cfg, k, Expr::int(6));
    b.begin_for("i", Expr::int(0), Expr::int(2));
    b.assign(x, vec![read_cfg((cfg, k))], Expr::float(1.0));
    b.end_for();
    let p = Procedure::new(b.finish());
    assert_eq!(run_vec(p.proc(), 8)[6], 1.0);
    let err = p.bind_config("for i in _: _", "2", cfg, k).unwrap_err();
    assert!(err.message.contains("already reads Cfg.k"), "{err}");
}
