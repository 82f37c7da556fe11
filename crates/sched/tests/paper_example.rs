//! Reproduces the worked example of paper §2: scheduling a GEMM onto a
//! Gemmini-like accelerator ISA — staging into explicitly managed
//! memories, mapping loops to `@instr` procedures with `replace()`, and
//! hoisting configuration writes out of loops.

use std::sync::Arc;

use exo_core::build::{read, ProcBuilder};
use exo_core::ir::{Expr, Proc};
use exo_core::types::{DataType, MemName};
use exo_core::Sym;
use exo_interp::{ArgVal, Machine};
use exo_sched::{Position, Procedure};
use rand::{Rng, SeedableRng};

fn scratchpad() -> MemName {
    MemName(Sym::new("SCRATCHPAD"))
}

/// `ld_data` from §2.3: a scratchpad load instruction whose C template
/// fuses the stride configuration.
fn ld_data_instr() -> Arc<Proc> {
    let mut b = ProcBuilder::new("ld_data");
    let n = b.size("n");
    let m = b.size("m");
    let src = b.window_arg(
        "src",
        DataType::F32,
        vec![Expr::var(n), Expr::var(m)],
        MemName::dram(),
    );
    let dst = b.window_arg(
        "dst",
        DataType::F32,
        vec![Expr::var(n), Expr::var(m)],
        scratchpad(),
    );
    b.assert_pred(Expr::var(m).le(Expr::int(16)));
    b.instr("config_ld({src}.strides[0]);\nmvin({src}.data, {dst}.data, {n}, {m});");
    let i = b.begin_for("i", Expr::int(0), Expr::var(n));
    let j = b.begin_for("j", Expr::int(0), Expr::var(m));
    b.assign(
        dst,
        vec![Expr::var(i), Expr::var(j)],
        read(src, vec![Expr::var(i), Expr::var(j)]),
    );
    b.end_for().end_for();
    b.finish()
}

/// `config_ld_def` and `real_ld_data` from §2.4: the configuration write
/// is split out, and the load asserts the configured stride.
fn config_parts() -> (Sym, Sym, Arc<Proc>, Arc<Proc>) {
    let cfg = Sym::new("ConfigLoad");
    let field = Sym::new("src_stride");

    let mut cb = ProcBuilder::new("config_ld_def");
    let s = cb.ctrl("s", exo_core::CtrlType::Stride);
    cb.instr("config_ld({s});");
    cb.write_config(cfg, field, Expr::var(s));
    let config_ld_def = cb.finish();

    let mut rb = ProcBuilder::new("real_ld_data");
    let n = rb.size("n");
    let m = rb.size("m");
    let src = rb.window_arg(
        "src",
        DataType::F32,
        vec![Expr::var(n), Expr::var(m)],
        MemName::dram(),
    );
    let dst = rb.window_arg(
        "dst",
        DataType::F32,
        vec![Expr::var(n), Expr::var(m)],
        scratchpad(),
    );
    rb.assert_pred(Expr::var(m).le(Expr::int(16)));
    rb.assert_pred(Expr::ReadConfig { config: cfg, field }.eq(Expr::Stride { buf: src, dim: 0 }));
    rb.instr("mvin({src}.data, {dst}.data, {n}, {m});");
    let i = rb.begin_for("i", Expr::int(0), Expr::var(n));
    let j = rb.begin_for("j", Expr::int(0), Expr::var(m));
    rb.assign(
        dst,
        vec![Expr::var(i), Expr::var(j)],
        read(src, vec![Expr::var(i), Expr::var(j)]),
    );
    rb.end_for().end_for();
    let real_ld = rb.finish();

    (cfg, field, config_ld_def, real_ld)
}

/// An 8×8 copy kernel standing in for the gemm load phase.
fn copy_kernel() -> Arc<Proc> {
    let mut b = ProcBuilder::new("load_tile");
    let a = b.tensor("A", DataType::F32, vec![Expr::int(8), Expr::int(8)]);
    let spad = b.tensor_in(
        "spad",
        DataType::F32,
        vec![Expr::int(8), Expr::int(8)],
        scratchpad(),
    );
    let io = b.begin_for("io", Expr::int(0), Expr::int(2));
    let i = b.begin_for("i", Expr::int(0), Expr::int(4));
    let j = b.begin_for("j", Expr::int(0), Expr::int(8));
    b.assign(
        spad,
        vec![
            Expr::var(io).mul(Expr::int(4)).add(Expr::var(i)),
            Expr::var(j),
        ],
        read(
            a,
            vec![
                Expr::var(io).mul(Expr::int(4)).add(Expr::var(i)),
                Expr::var(j),
            ],
        ),
    );
    b.end_for().end_for().end_for();
    b.finish()
}

fn run_copy(proc: &Proc) -> (Vec<f64>, Vec<exo_interp::HwOp>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let a: Vec<f64> = (0..64)
        .map(|_| rng.gen_range(-4.0..4.0f64).round())
        .collect();
    let mut m = Machine::new();
    let ida = m.alloc_extern("A", DataType::F32, &[8, 8], &a);
    let ids = m.alloc_extern("spad", DataType::F32, &[8, 8], &vec![0.0; 64]);
    m.run(proc, &[ArgVal::Tensor(ida), ArgVal::Tensor(ids)])
        .expect("run failed");
    (m.buffer_values(ids).unwrap(), m.take_trace())
}

#[test]
fn replace_selects_fused_instruction() {
    let ld = ld_data_instr();
    let p = Procedure::new(copy_kernel());
    // map the i–j loop nest to the ld_data instruction
    let q = p.replace("for i in _: _", &ld).unwrap();
    assert!(q.show().contains("ld_data("), "{}", q.show());

    // semantics preserved, and the instruction trace appears
    let (base, trace0) = run_copy(p.proc());
    let (opt, trace1) = run_copy(q.proc());
    assert_eq!(base, opt);
    assert!(trace0.is_empty());
    assert_eq!(trace1.len(), 2, "one ld_data per io iteration");
    assert_eq!(trace1[0].instr, "ld_data");
    assert_eq!(trace1[0].int_arg("n"), Some(4));
    assert_eq!(trace1[0].int_arg("m"), Some(8));
    // the src windows of the two calls start at rows 0 and 4
    let t0 = trace1[0].tensor_arg("src").unwrap();
    let t1 = trace1[1].tensor_arg("src").unwrap();
    assert_eq!(t0.base_offset, 0);
    assert_eq!(t1.base_offset, 32);
    assert_eq!(t0.shape(), [4, 8]);
}

#[test]
fn replace_rejects_wrong_shape() {
    // an instruction with m ≤ 4 cannot absorb an m = 8 loop
    let mut b = ProcBuilder::new("ld_small");
    let n = b.size("n");
    let m = b.size("m");
    let src = b.window_arg(
        "src",
        DataType::F32,
        vec![Expr::var(n), Expr::var(m)],
        MemName::dram(),
    );
    let dst = b.window_arg(
        "dst",
        DataType::F32,
        vec![Expr::var(n), Expr::var(m)],
        scratchpad(),
    );
    b.assert_pred(Expr::var(m).le(Expr::int(4)));
    b.instr("mvin_small(…);");
    let i = b.begin_for("i", Expr::int(0), Expr::var(n));
    let j = b.begin_for("j", Expr::int(0), Expr::var(m));
    b.assign(
        dst,
        vec![Expr::var(i), Expr::var(j)],
        read(src, vec![Expr::var(i), Expr::var(j)]),
    );
    b.end_for().end_for();
    let ld_small = b.finish();

    let p = Procedure::new(copy_kernel());
    let e = p.replace("for i in _: _", &ld_small).unwrap_err();
    assert!(e.message.contains("replace"), "{e}");
}

#[test]
fn config_write_workflow_of_section_2_4() {
    let (cfg, field, config_ld_def, real_ld) = config_parts();

    // Start from ld_data's semantic body as an application procedure:
    //   for i: for j: dst[i,j] = src[i,j]
    let mut b = ProcBuilder::new("ld_app");
    let n = b.size("n");
    let m = b.size("m");
    let src = b.window_arg(
        "src",
        DataType::F32,
        vec![Expr::var(n), Expr::var(m)],
        MemName::dram(),
    );
    let dst = b.window_arg(
        "dst",
        DataType::F32,
        vec![Expr::var(n), Expr::var(m)],
        scratchpad(),
    );
    b.assert_pred(Expr::var(m).le(Expr::int(16)));
    let i = b.begin_for("i", Expr::int(0), Expr::var(n));
    let j = b.begin_for("j", Expr::int(0), Expr::var(m));
    b.assign(
        dst,
        vec![Expr::var(i), Expr::var(j)],
        read(src, vec![Expr::var(i), Expr::var(j)]),
    );
    b.end_for().end_for();
    let p = Procedure::new(b.finish());

    // configwrite_at(Before): materialize ConfigLoad.src_stride = stride(src, 0)
    let with_cfg = p
        .configwrite_at(
            "for i in _: _",
            Position::Before,
            cfg,
            field,
            Expr::Stride { buf: src, dim: 0 },
        )
        .unwrap();
    assert!(with_cfg.polluted().contains(&(cfg, field)));
    assert!(
        with_cfg
            .show()
            .contains("ConfigLoad.src_stride = stride(src, 0)"),
        "{}",
        with_cfg.show()
    );

    // replace the loop with real_ld_data — the assert about the config
    // state is discharged by the dataflow value of the preceding write —
    // then the write itself with a call to config_ld_def
    let with_call = with_cfg.replace("for i in _: _", &real_ld).unwrap();
    let done = with_call
        .replace("ConfigLoad.src_stride = _", &config_ld_def)
        .unwrap();
    let shown = done.show();
    assert!(shown.contains("real_ld_data("), "{shown}");
    assert!(shown.contains("config_ld_def(stride(src, 0))"), "{shown}");

    // the scheduled procedure behaves identically
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let data: Vec<f64> = (0..32)
        .map(|_| rng.gen_range(-4.0..4.0f64).round())
        .collect();
    for proc in [p.proc(), done.proc()] {
        let mut m = Machine::new();
        let ids = m.alloc_extern("src", DataType::F32, &[4, 8], &data);
        let idd = m.alloc_extern("dst", DataType::F32, &[4, 8], &vec![0.0; 32]);
        m.run(
            proc,
            &[
                ArgVal::Int(4),
                ArgVal::Int(8),
                ArgVal::Tensor(ids),
                ArgVal::Tensor(idd),
            ],
        )
        .expect("run failed");
        assert_eq!(m.buffer_values(idd).unwrap(), data);
    }
}

#[test]
fn real_ld_precondition_rejected_without_config() {
    // replacing the loop with real_ld_data *without* the configuration
    // write must fail: the callee's precondition about ConfigLoad cannot
    // be discharged
    let (_, _, _, real_ld) = config_parts();
    let mut b = ProcBuilder::new("ld_app2");
    let n = b.size("n");
    let m = b.size("m");
    let src = b.window_arg(
        "src",
        DataType::F32,
        vec![Expr::var(n), Expr::var(m)],
        MemName::dram(),
    );
    let dst = b.window_arg(
        "dst",
        DataType::F32,
        vec![Expr::var(n), Expr::var(m)],
        scratchpad(),
    );
    b.assert_pred(Expr::var(m).le(Expr::int(16)));
    let i = b.begin_for("i", Expr::int(0), Expr::var(n));
    let j = b.begin_for("j", Expr::int(0), Expr::var(m));
    b.assign(
        dst,
        vec![Expr::var(i), Expr::var(j)],
        read(src, vec![Expr::var(i), Expr::var(j)]),
    );
    b.end_for().end_for();
    let p = Procedure::new(b.finish());
    assert!(p.replace("for i in _: _", &real_ld).is_err());
}

#[test]
fn hoist_config_out_of_loop() {
    // for ko: { Cfg.s = 64; spad[ko] = A[ko] } — hoist the config write
    // per §2.4: fission the loop after the write, then remove the
    // config-only loop (idempotent body, provably non-empty range)
    let cfg = Sym::new("Cfg");
    let field = Sym::new("s");
    let mut b = ProcBuilder::new("hoistable");
    let a = b.tensor("A", DataType::F32, vec![Expr::int(8)]);
    let spad = b.tensor_in("spad", DataType::F32, vec![Expr::int(8)], scratchpad());
    let ko = b.begin_for("ko", Expr::int(0), Expr::int(8));
    b.write_config(cfg, field, Expr::int(64));
    b.assign(spad, vec![Expr::var(ko)], read(a, vec![Expr::var(ko)]));
    b.end_for();
    let p = Procedure::new(b.finish());

    let fissioned = p.fission_after("Cfg.s = _").unwrap();
    let hoisted = fissioned.remove_loop("for ko in _: _").unwrap();
    let shown = hoisted.show();
    let cfg_pos = shown.find("Cfg.s = 64").expect("config write survives");
    let loop_pos = shown.find("for ko").expect("work loop survives");
    assert!(cfg_pos < loop_pos, "{shown}");
    // exactly one loop remains
    assert_eq!(shown.matches("for ko").count(), 1, "{shown}");

    // and a redundant second write can be deleted outright
    let redundant = hoisted
        .configwrite_at("Cfg.s = _", Position::After, cfg, field, Expr::int(64))
        .unwrap();
    let cleaned = redundant.delete_config("Cfg.s = _ #1").unwrap();
    assert_eq!(cleaned.show().matches("Cfg.s = 64").count(), 1);
}
