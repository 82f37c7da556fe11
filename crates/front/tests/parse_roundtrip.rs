//! Parser tests: the paper's §2 examples in surface syntax, parsed,
//! checked, executed, and round-tripped through the pretty-printer.

use exo_core::check::check_proc;
use exo_core::types::DataType;
use exo_front::{parse_library, parse_proc, ParseEnv};
use exo_interp::{ArgVal, Machine};

#[test]
fn parses_the_paper_gemm() {
    let src = r#"
@proc
def gemm(A: f32[128, 128] @ DRAM, B: f32[128, 128] @ DRAM, C: f32[128, 128] @ DRAM):
    for i in seq(0, 128):
        for j in seq(0, 128):
            for k in seq(0, 128):
                C[i, j] += A[i, k] * B[k, j]
"#;
    let p = parse_proc(src, &ParseEnv::new()).unwrap();
    check_proc(&p).unwrap();
    assert_eq!(p.args.len(), 3);
    assert_eq!(p.name.name(), "gemm");
    let printed = exo_core::printer::proc_to_string(&p);
    assert!(
        printed.contains("C[i, j] += A[i, k] * B[k, j]"),
        "{printed}"
    );
}

#[test]
fn parsed_gemm_executes() {
    let src = r#"
@proc
def gemm(n: size, A: f32[n, n], B: f32[n, n], C: f32[n, n]):
    for i in seq(0, n):
        for j in seq(0, n):
            for k in seq(0, n):
                C[i, j] += A[i, k] * B[k, j]
"#;
    let p = parse_proc(src, &ParseEnv::new()).unwrap();
    check_proc(&p).unwrap();
    let n = 4;
    let a: Vec<f64> = (0..16).map(|i| i as f64).collect();
    let b: Vec<f64> = (0..16).map(|i| ((i * 3) % 5) as f64).collect();
    let mut m = Machine::new();
    let ida = m.alloc_extern("A", DataType::F32, &[n, n], &a);
    let idb = m.alloc_extern("B", DataType::F32, &[n, n], &b);
    let idc = m.alloc_extern("C", DataType::F32, &[n, n], &[0.0; 16]);
    m.run(
        &p,
        &[
            ArgVal::Int(4),
            ArgVal::Tensor(ida),
            ArgVal::Tensor(idb),
            ArgVal::Tensor(idc),
        ],
    )
    .unwrap();
    let c = m.buffer_values(idc).unwrap();
    for i in 0..n {
        for j in 0..n {
            let want: f64 = (0..n).map(|k| a[i * n + k] * b[k * n + j]).sum();
            assert_eq!(c[i * n + j], want);
        }
    }
}

#[test]
fn parses_instr_and_calls_it() {
    // the §2.3 ld_data shape: an @instr with a window signature and
    // preconditions, then an application calling it
    let src = r#"
@instr("mvin( {src}.data, {dst}.data );")
def ld_data(n: size, m: size, src: [f32][n, m] @ DRAM, dst: [f32][n, m] @ SCRATCHPAD):
    assert m <= 16
    for i in seq(0, n):
        for j in seq(0, m):
            dst[i, j] = src[i, j]

@proc
def app(A: f32[8, 8] @ DRAM, spad: f32[8, 8] @ SCRATCHPAD):
    ld_data(8, 8, A[0:8, 0:8], spad[0:8, 0:8])
"#;
    let procs = parse_library(src, &ParseEnv::new()).unwrap();
    assert_eq!(procs.len(), 2);
    assert!(procs[0].is_instr());
    check_proc(&procs[0]).unwrap();
    check_proc(&procs[1]).unwrap();

    // the call executes the semantic body and records the trace
    let mut m = Machine::new();
    let a = m.alloc_extern("A", DataType::F32, &[8, 8], &vec![2.5; 64]);
    let sp = m.alloc_extern("spad", DataType::F32, &[8, 8], &vec![0.0; 64]);
    m.run(&procs[1], &[ArgVal::Tensor(a), ArgVal::Tensor(sp)])
        .unwrap();
    assert_eq!(m.buffer_values(sp).unwrap(), vec![2.5; 64]);
    assert_eq!(m.trace().len(), 1);
    assert_eq!(m.trace()[0].instr, "ld_data");
}

#[test]
fn memory_annotations_resolve_to_one_name() {
    use exo_core::ir::{ArgType, Stmt};
    use exo_core::types::MemName;
    use exo_core::Sym;
    let src = r#"
@proc
def p(a: f32[4] @ SPAD, b: f32[4] @ SPAD, c: f32[4] @ ACC):
    t : f32[4] @ SPAD
    pass
"#;
    let mem = |arg: &ArgType| match arg {
        ArgType::Tensor { mem, .. } | ArgType::Scalar { mem, .. } => *mem,
        ArgType::Ctrl(_) => MemName::dram(),
    };
    // an unregistered spelling is minted once per source
    let p = parse_proc(src, &ParseEnv::new()).unwrap();
    let spad = mem(&p.args[0].ty);
    assert_eq!(mem(&p.args[1].ty), spad);
    assert_ne!(mem(&p.args[2].ty), spad);
    assert!(matches!(p.body[0], Stmt::Alloc { mem, .. } if mem == spad));
    // a registered memory resolves to the registered name
    let acc = MemName(Sym::new("ACC"));
    let p = parse_proc(src, ParseEnv::new().add_mem(acc)).unwrap();
    assert_eq!(mem(&p.args[2].ty), acc);
}

#[test]
fn instr_templates_round_trip_through_the_printer() {
    let src = r##"
@instr("#pragma x\nf(\"{a}\", '\\0');")  # a comment
def f(a: size):
    pass
"##;
    let p = parse_proc(src, &ParseEnv::new()).unwrap();
    let template = &p.instr.as_ref().unwrap().c_instr;
    assert_eq!(template, "#pragma x\nf(\"{a}\", '\\0');");
    let printed = exo_core::printer::proc_to_string(&p);
    let q = parse_proc(&printed, &ParseEnv::new()).unwrap();
    assert_eq!(q.instr, p.instr, "{printed}");
}

#[test]
fn parses_configuration_state() {
    let src = r#"
@proc
def ld(n: size, src: [f32][n, 16] @ DRAM, dst: [f32][n, 16] @ SPAD):
    ConfigLoad.src_stride = stride(src, 0)
    for i in seq(0, n):
        for j in seq(0, 16):
            dst[i, j] = src[i, j]
"#;
    let p = parse_proc(src, &ParseEnv::new()).unwrap();
    check_proc(&p).unwrap();
    let printed = exo_core::printer::proc_to_string(&p);
    assert!(
        printed.contains("ConfigLoad.src_stride = stride(src, 0)"),
        "{printed}"
    );
}

#[test]
fn parses_windows_allocs_and_conditionals() {
    let src = r#"
@proc
def p(n: size, x: f32[n, n]):
    assert n >= 4
    t : f32[4] @ DRAM
    row = x[2, 0:n]
    for i in seq(0, 4):
        if i < 2:
            t[i] = row[i] * 2.0
        else:
            t[i] = 0.0 - row[i]
"#;
    let p = parse_proc(src, &ParseEnv::new()).unwrap();
    check_proc(&p).unwrap();
    let printed = exo_core::printer::proc_to_string(&p);
    assert!(printed.contains("row = x[2, 0:n]"), "{printed}");
    assert!(printed.contains("else:"), "{printed}");
}

#[test]
fn scalars_and_builtins() {
    let src = r#"
@proc
def p(x: f32, y: f32):
    y = relu(x) + max(x, 2.0)
"#;
    let p = parse_proc(src, &ParseEnv::new()).unwrap();
    check_proc(&p).unwrap();
    let mut m = Machine::new();
    let x = m.alloc_extern("x", DataType::F32, &[], &[-3.0]);
    let y = m.alloc_extern("y", DataType::F32, &[], &[0.0]);
    m.run(&p, &[ArgVal::Tensor(x), ArgVal::Tensor(y)]).unwrap();
    assert_eq!(m.buffer_values(y).unwrap(), vec![2.0]); // relu(-3) + max(-3, 2)
}

#[test]
fn error_reporting_has_lines() {
    let src = "@proc\ndef p():\n    x !! y\n";
    let e = parse_proc(src, &ParseEnv::new()).unwrap_err();
    assert_eq!(e.line, 3, "{e}");

    let e2 = parse_proc("@proc\ndef p(:\n    pass\n", &ParseEnv::new()).unwrap_err();
    assert_eq!(e2.line, 2, "{e2}");
}

#[test]
fn parsed_procs_can_be_scheduled() {
    // the full pipeline: text → IR → scheduling → instruction mapping
    let src = r#"
@proc
def scale(n: size, x: f32[n]):
    for i in seq(0, n):
        x[i] = x[i] * 2.0
"#;
    let p = parse_proc(src, &ParseEnv::new()).unwrap();
    let sched = exo_sched::Procedure::new(p);
    let tiled = sched.split_guard("for i in _: _", 4, "io", "ii").unwrap();
    assert!(tiled.show().contains("for io"), "{}", tiled.show());
}
