//! Pins the C that `compile_c` emits, byte for byte.
//!
//! Each program's translation unit is reduced to its byte length and an
//! FNV-1a digest. The programs are the four Fig. 7 kernels (scheduled
//! and naive), the `perfbench` census sizes, and small procedures that
//! reach the emitter paths the kernels miss: window definitions, window
//! and scalar arguments, 0-d allocations, `stride()`, configuration
//! writes, `@instr` expansion and `parallelize`d loops. The constants
//! were recorded before the emitter's buffer handling was rewritten; a
//! change to any rendered access, allocation or argument fails here.
//!
//! Everything runs in one test so that symbol ids (which pick the
//! suffix of a renamed C identifier) are allocated in a fixed order.

use std::sync::{Arc, Mutex};

use exo_codegen::{compile_c, CodegenCtx, Memory};
use exo_core::build::{read, ProcBuilder};
use exo_core::ir::{Expr, Stmt, WAccess};
use exo_core::{ConfigDecl, CtrlType, DataType, MemName, Proc, Sym};
use exo_hwlibs::{Avx512Lib, GemminiLib};
use exo_kernels::gemmini_conv::{naive_conv, schedule_conv, ConvShape};
use exo_kernels::gemmini_gemm::{naive_matmul, schedule_matmul};
use exo_kernels::x86_conv::{fig6_shape, naive_conv_f32, schedule_conv_avx512};
use exo_kernels::x86_gemm::{naive_sgemm, schedule_sgemm};
use exo_sched::{Procedure, SchedState, StateRef};

fn state() -> StateRef {
    Arc::new(Mutex::new(SchedState::default()))
}

/// FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn c_of(p: &Arc<Proc>, ctx: &CodegenCtx) -> String {
    compile_c(std::slice::from_ref(p), ctx).expect("codegen")
}

fn c_of_scheduled(p: Result<Procedure, exo_sched::SchedError>, ctx: &CodegenCtx) -> String {
    c_of(p.expect("schedule").proc(), ctx)
}

fn v(s: Sym) -> Expr {
    Expr::var(s)
}

fn interval(lo: Expr, hi: Expr) -> WAccess {
    WAccess::Interval(lo, hi)
}

/// A window over a window over a dense tensor, read and written through
/// both levels.
fn window_def() -> Arc<Proc> {
    let mut b = ProcBuilder::new("window_def");
    let n = b.size("n");
    let a = b.tensor("A", DataType::F32, vec![v(n), Expr::int(8), Expr::int(4)]);
    let i = b.begin_for("i", Expr::int(0), v(n));
    let row = b.window(
        "row",
        a,
        vec![
            WAccess::Point(v(i)),
            interval(Expr::int(1), Expr::int(7)),
            interval(Expr::int(0), Expr::int(4)),
        ],
    );
    let col = b.window(
        "col",
        row,
        vec![
            interval(Expr::int(2), Expr::int(6)),
            WAccess::Point(Expr::int(3)),
        ],
    );
    let j = b.begin_for("j", Expr::int(0), Expr::int(4));
    b.assign(col, vec![v(j)], read(row, vec![v(j), Expr::int(0)]));
    b.end_for();
    let pt = b.window("pt", col, vec![WAccess::Point(Expr::int(1))]);
    b.reduce(pt, vec![], Expr::float(0.5));
    b.end_for();
    b.finish()
}

/// Dense tensors, window expressions and window variables passed to
/// window and dense formals of a plain (non-`@instr`) callee.
fn window_arg() -> Arc<Proc> {
    let mut cb = ProcBuilder::new("scale");
    let m = cb.size("m");
    let x = cb.window_arg(
        "x",
        DataType::F32,
        vec![v(m), Expr::int(4)],
        MemName::dram(),
    );
    let i = cb.begin_for("i", Expr::int(0), v(m));
    let j = cb.begin_for("j", Expr::int(0), Expr::int(4));
    cb.assign(
        x,
        vec![v(i), v(j)],
        read(x, vec![v(i), v(j)]).mul(Expr::int(2)),
    );
    cb.end_for().end_for();
    let scale = cb.finish();

    let mut db = ProcBuilder::new("fill");
    let d = db.tensor("D", DataType::F32, vec![Expr::int(6), Expr::int(4)]);
    let k = db.begin_for("k", Expr::int(0), Expr::int(6));
    db.assign(d, vec![v(k), Expr::int(0)], Expr::float(1.0));
    db.end_for();
    let fill = db.finish();

    let mut b = ProcBuilder::new("window_arg");
    let n = b.size("n");
    let a = b.tensor("A", DataType::F32, vec![v(n), Expr::int(4)]);
    let c = b.tensor("C", DataType::F32, vec![Expr::int(6), Expr::int(4)]);
    b.call(&scale, vec![v(n), read(a, vec![])]);
    b.call(
        &scale,
        vec![
            Expr::int(2),
            Expr::Window {
                buf: a,
                coords: vec![
                    interval(Expr::int(1), Expr::int(3)),
                    interval(Expr::int(0), Expr::int(4)),
                ],
            },
        ],
    );
    let w = b.window(
        "w",
        c,
        vec![
            interval(Expr::int(0), Expr::int(6)),
            interval(Expr::int(0), Expr::int(4)),
        ],
    );
    b.call(&scale, vec![Expr::int(6), read(w, vec![])]);
    b.call(&fill, vec![read(c, vec![])]);
    b.finish()
}

/// Scalar formals fed by a scalar argument, a dense element, a window
/// element and a 0-d allocation.
fn scalar_arg() -> Arc<Proc> {
    let mut cb = ProcBuilder::new("bump");
    let s = cb.scalar("s", DataType::F32);
    let t = cb.scalar("t", DataType::F32);
    cb.reduce(s, vec![], read(t, vec![]));
    let bump = cb.finish();

    let mut b = ProcBuilder::new("scalar_arg");
    let x = b.scalar("x", DataType::F32);
    let a = b.tensor("A", DataType::F32, vec![Expr::int(4), Expr::int(4)]);
    let w = b.window(
        "w",
        a,
        vec![
            WAccess::Point(Expr::int(1)),
            interval(Expr::int(0), Expr::int(4)),
        ],
    );
    let z = b.alloc("z", DataType::F32, vec![], MemName::dram());
    b.assign(z, vec![], Expr::float(3.0));
    b.call(
        &bump,
        vec![read(x, vec![]), read(a, vec![Expr::int(2), Expr::int(3)])],
    );
    b.call(&bump, vec![read(w, vec![Expr::int(1)]), read(z, vec![])]);
    b.call(&bump, vec![read(z, vec![]), read(x, vec![])]);
    b.finish()
}

/// 0-d and n-d DRAM allocations, with every data-expression form.
fn alloc_0d() -> Arc<Proc> {
    let mut b = ProcBuilder::new("alloc_0d");
    let n = b.size("n");
    let a = b.tensor("A", DataType::F32, vec![v(n)]);
    let q = b.tensor("Q", DataType::I8, vec![v(n)]);
    let acc = b.alloc("acc", DataType::F32, vec![], MemName::dram());
    let tmp = b.alloc(
        "tmp",
        DataType::F64,
        vec![v(n), Expr::int(2)],
        MemName::dram(),
    );
    b.assign(acc, vec![], Expr::int(0));
    let i = b.begin_for("i", Expr::int(0), v(n));
    let builtin = |f: &str, args: Vec<Expr>| Expr::BuiltIn {
        func: Sym::new(f),
        args,
    };
    let ai = read(a, vec![v(i)]);
    b.reduce(
        acc,
        vec![],
        builtin("max", vec![ai.clone(), Expr::float(0.25)])
            .add(builtin("min", vec![ai.clone(), Expr::int(1)]))
            .sub(builtin("relu", vec![Expr::Neg(Box::new(ai.clone()))]))
            .div(builtin("abs", vec![ai.clone()])),
    );
    b.assign(
        tmp,
        vec![v(i), Expr::int(1)],
        builtin("sqrt", vec![read(acc, vec![])]),
    );
    b.assign(q, vec![v(i)], read(acc, vec![]));
    b.end_for();
    b.finish()
}

/// `stride()` of a window, of a dense tensor and of a window variable,
/// written to a materialized configuration.
fn stride_config(cfg: &ConfigDecl) -> Arc<Proc> {
    let (lo, hi) = (cfg.fields[0].name, cfg.fields[1].name);
    let mut b = ProcBuilder::new("stride_config");
    let n = b.size("n");
    let x = b.window_arg(
        "x",
        DataType::I8,
        vec![v(n), Expr::int(16)],
        MemName::dram(),
    );
    let a = b.tensor("A", DataType::I8, vec![v(n), Expr::int(16), Expr::int(3)]);
    b.write_config(cfg.name, lo, Expr::Stride { buf: x, dim: 0 });
    b.write_config(
        cfg.name,
        hi,
        Expr::Stride { buf: a, dim: 0 }.add(Expr::Stride { buf: a, dim: 2 }),
    );
    let w = b.window(
        "w",
        a,
        vec![
            interval(Expr::int(0), v(n)),
            WAccess::Point(Expr::int(0)),
            interval(Expr::int(0), Expr::int(3)),
        ],
    );
    b.write_config(
        cfg.name,
        lo,
        Expr::Stride { buf: w, dim: 1 }.mul(Expr::int(4)),
    );
    b.finish()
}

/// A configuration write read back into a loop bound and a condition.
fn config_write(cfg: &ConfigDecl) -> Arc<Proc> {
    let (lo, hi) = (cfg.fields[0].name, cfg.fields[1].name);
    let mut b = ProcBuilder::new("config_write");
    let n = b.size("n");
    let a = b.tensor("A", DataType::I32, vec![v(n)]);
    b.write_config(cfg.name, lo, v(n).sub(Expr::int(1)));
    b.write_config(cfg.name, hi, Expr::int(7).rem(Expr::int(3)));
    let rd = |f| Expr::ReadConfig {
        config: cfg.name,
        field: f,
    };
    let i = b.begin_for("i", Expr::int(0), rd(lo));
    b.begin_if(v(i).lt(rd(hi)).or(v(i).eq(Expr::int(0))));
    b.assign(a, vec![v(i)], Expr::int(1));
    b.begin_else();
    b.stmt(Stmt::Pass);
    b.end_if();
    b.end_for();
    b.finish()
}

/// An `@instr` whose template uses `{x}` and `{x_data}` holes, called
/// with a dense tensor, a window expression and a window variable.
fn instr_call() -> Arc<Proc> {
    let mut ib = ProcBuilder::new("hw_copy");
    let n = ib.size("n");
    let src = ib.window_arg("src", DataType::F32, vec![v(n)], MemName::dram());
    let dst = ib.window_arg("dst", DataType::F32, vec![v(n)], MemName::dram());
    ib.instr("hw_copy({dst_data}, {src}.data, {src}.strides[0], {n});\n// copied {n}");
    let i = ib.begin_for("i", Expr::int(0), v(n));
    ib.assign(dst, vec![v(i)], read(src, vec![v(i)]));
    ib.end_for();
    let hw_copy = ib.finish();

    let mut b = ProcBuilder::new("instr_call");
    let a = b.tensor("A", DataType::F32, vec![Expr::int(8)]);
    let c = b.tensor("C", DataType::F32, vec![Expr::int(4), Expr::int(8)]);
    let w = b.window(
        "w",
        c,
        vec![
            WAccess::Point(Expr::int(2)),
            interval(Expr::int(0), Expr::int(8)),
        ],
    );
    b.call(
        &hw_copy,
        vec![Expr::int(8), read(a, vec![]), read(w, vec![])],
    );
    b.call(
        &hw_copy,
        vec![
            Expr::int(4),
            Expr::Window {
                buf: c,
                coords: vec![
                    interval(Expr::int(0), Expr::int(4)),
                    WAccess::Point(Expr::int(5)),
                ],
            },
            Expr::Window {
                buf: a,
                coords: vec![interval(Expr::int(4), Expr::int(8))],
            },
        ],
    );
    b.finish()
}

/// A dot product whose loop `parallelize` approves with a reduction.
fn parallel_dot() -> Procedure {
    let mut b = ProcBuilder::new("dot");
    let n = b.size("n");
    let a = b.tensor("A", DataType::F32, vec![v(n)]);
    let bb = b.tensor("B", DataType::F32, vec![v(n)]);
    let s = b.scalar("s", DataType::F32);
    let i = b.begin_for("i", Expr::int(0), v(n));
    b.reduce(s, vec![], read(a, vec![v(i)]).mul(read(bb, vec![v(i)])));
    b.end_for();
    Procedure::new(b.finish())
        .parallelize("for i in _: _")
        .expect("parallelize")
}

fn with_marks(p: &Procedure, mut ctx: CodegenCtx) -> String {
    for mark in p.parallel_marks() {
        ctx.mark_parallel(mark.iter, mark.reductions.clone());
    }
    c_of(p.proc(), &ctx)
}

/// Every pinned program, in order: `(label, generated C)`.
fn programs() -> Vec<(&'static str, String)> {
    let glib = GemminiLib::new();
    let xlib = Avx512Lib::new();
    let (gctx, xctx) = (glib.codegen_ctx(), xlib.codegen_ctx());
    let st = state();
    let gconv = ConvShape::fig4b(28, 128, 128);
    let xconv = fig6_shape();
    let small_xconv = ConvShape {
        batch: 1,
        out_dim: 4,
        oc: 32,
        ic: 16,
        kdim: 3,
    };
    let cfg = ConfigDecl::new("Cfg", vec![("lo", CtrlType::Stride), ("hi", CtrlType::Int)]);
    let mut cfg_ctx = CodegenCtx::new();
    cfg_ctx.configs.push(cfg.clone());
    let dram = CodegenCtx::new();
    let sgemm_io = schedule_sgemm(&xlib, &st, 12, 128, 8, 6, 64)
        .and_then(|p| p.parallelize("for io in _: _"))
        .expect("parallelize sgemm");
    // A library memory beside DRAM, so the pinned text covers globals.
    let mut spad_ctx = CodegenCtx::new();
    spad_ctx.mems.register(Memory {
        c_global: Some("#define SPAD_GLOBAL 1".into()),
        ..Memory::dram()
    });
    vec![
        (
            "matmul_512_naive",
            c_of(&naive_matmul(512, 512, 512), &gctx),
        ),
        (
            "matmul_512",
            c_of_scheduled(schedule_matmul(&glib, &st, 512, 512, 512), &gctx),
        ),
        ("gemmini_conv_fig7_naive", c_of(&naive_conv(&gconv), &gctx)),
        (
            "gemmini_conv_fig7",
            c_of_scheduled(schedule_conv(&glib, &st, &gconv), &gctx),
        ),
        ("sgemm_384_naive", c_of(&naive_sgemm(384, 384, 384), &xctx)),
        (
            "sgemm_384",
            c_of_scheduled(schedule_sgemm(&xlib, &st, 384, 384, 384, 6, 64), &xctx),
        ),
        ("x86_conv_fig7_naive", c_of(&naive_conv_f32(&xconv), &xctx)),
        (
            "x86_conv_fig7",
            c_of_scheduled(schedule_conv_avx512(&xlib, &st, &xconv, 4), &xctx),
        ),
        (
            "matmul_64",
            c_of_scheduled(schedule_matmul(&glib, &st, 64, 64, 64), &gctx),
        ),
        (
            "sgemm_24x128x32",
            c_of_scheduled(schedule_sgemm(&xlib, &st, 24, 128, 32, 6, 64), &xctx),
        ),
        (
            "x86_conv_4x32x16",
            c_of_scheduled(schedule_conv_avx512(&xlib, &st, &small_xconv, 4), &xctx),
        ),
        ("window_def", c_of(&window_def(), &dram)),
        ("window_arg", c_of(&window_arg(), &dram)),
        ("scalar_arg", c_of(&scalar_arg(), &dram)),
        ("alloc_0d", c_of(&alloc_0d(), &spad_ctx)),
        ("stride_config", c_of(&stride_config(&cfg), &cfg_ctx)),
        ("config_write", c_of(&config_write(&cfg), &cfg_ctx)),
        ("instr_call", c_of(&instr_call(), &dram)),
        (
            "parallel_dot",
            with_marks(&parallel_dot(), CodegenCtx::new()),
        ),
        (
            "parallel_sgemm_io",
            with_marks(&sgemm_io, xlib.codegen_ctx()),
        ),
    ]
}

/// `(label, byte length, FNV-1a)` of each program's C.
const PINNED: &[(&str, usize, u64)] = &[
    ("matmul_512_naive", 1329, 0x91831711b3e49d5e),
    ("matmul_512", 3460, 0x5d410c1f5722ba1c),
    ("gemmini_conv_fig7_naive", 2170, 0xef8144648b921a99),
    ("gemmini_conv_fig7", 5220, 0x9db61fdaa3c40002),
    ("sgemm_384_naive", 724, 0xfdd319545dc22d35),
    ("sgemm_384", 2506, 0x7d043d06fcac972c),
    ("x86_conv_fig7_naive", 1423, 0x8ab6b5565490c8f6),
    ("x86_conv_fig7", 3301, 0x82d30d86d4dab004),
    ("matmul_64", 3480, 0xef10a4cc8857097d),
    ("sgemm_24x128x32", 2502, 0xb88f0f76c189bf40),
    ("x86_conv_4x32x16", 2926, 0xed541b1e3bf6aad4),
    ("window_def", 1106, 0x32e9b3da5fa58d97),
    ("window_arg", 1275, 0x70b42a3c307c399e),
    ("scalar_arg", 829, 0x7206e6b0e1c6edff),
    ("alloc_0d", 1180, 0x99a35f16047820ee),
    ("stride_config", 869, 0x0459cc1716b070f4),
    ("config_write", 689, 0x67022932273d51eb),
    ("instr_call", 872, 0x57491be6d02df4c4),
    ("parallel_dot", 510, 0x4620b9c95e3265a3),
    ("parallel_sgemm_io", 2528, 0x89d8c51793ab4f4c),
];

#[test]
fn generated_c_is_byte_identical() {
    let got: Vec<(&str, usize, u64)> = programs()
        .iter()
        .map(|(label, c)| (*label, c.len(), fnv1a(c.as_bytes())))
        .collect();
    let current: String = got
        .iter()
        .map(|(l, n, h)| format!("    (\"{l}\", {n}, 0x{h:016x}),\n"))
        .collect();
    assert_eq!(got, PINNED, "current pins:\n{current}");
}
