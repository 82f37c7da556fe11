//! Cross-crate integration tests: the full exocompilation pipeline from
//! surface syntax through scheduling, analysis, code generation, and
//! simulation.

use std::sync::{Arc, Mutex};

use exo::front::{parse_library, ParseEnv};
use exo::hwlibs::{Avx512Lib, GemminiLib};
use exo::prelude::*;
use exo::sched::SchedState;

#[test]
fn text_to_c_pipeline() {
    // parse → check → schedule → bounds-check → codegen
    let src = r#"
@proc
def blur(n: size, src: f32[n], dst: f32[n]):
    assert n % 8 == 0
    assert n >= 16
    for i in seq(0, n - 2):
        dst[i] = (src[i] + src[i + 1] + src[i + 2]) / 3.0
"#;
    let procs = parse_library(src, &ParseEnv::new()).unwrap();
    let blur = procs[0].clone();
    exo::core::check::check_proc(&blur).unwrap();

    let p = Procedure::new(blur.clone());
    let q = p.split_guard("for i in _: _", 8, "io", "ii").unwrap();

    // static memory safety of the scheduled version
    {
        let mut st = q.state().lock().unwrap();
        let st = &mut *st;
        exo::analysis::check_bounds(q.proc(), &mut st.reg, &st.check).unwrap();
    }

    let c = exo::codegen::compile_c(&[q.proc().clone()], &Default::default()).unwrap();
    assert!(c.contains("void blur("), "{c}");

    // semantics agree
    let run = |proc: &Proc| {
        let mut m = Machine::new();
        let s = m.alloc_extern(
            "src",
            DataType::F32,
            &[16],
            &(0..16).map(|i| i as f64).collect::<Vec<_>>(),
        );
        let d = m.alloc_extern("dst", DataType::F32, &[16], &[0.0; 16]);
        m.run(
            proc,
            &[ArgVal::Int(16), ArgVal::Tensor(s), ArgVal::Tensor(d)],
        )
        .unwrap();
        m.buffer_values(d).unwrap()
    };
    assert_eq!(run(&blur), run(q.proc()));
}

#[test]
fn gemmini_pipeline_to_simulation() {
    let lib = GemminiLib::new();
    let st = Arc::new(Mutex::new(SchedState::default()));
    let p = exo::kernels::gemmini_gemm::schedule_matmul(&lib, &st, 64, 64, 64).unwrap();
    let trace = exo::kernels::gemmini_gemm::trace_matmul(p.proc(), 64, 64, 64, false);
    let report = gemmini_sim::Simulator::new(gemmini_sim::SimConfig::software()).run(&trace);
    assert_eq!(report.macs, 64 * 64 * 64);
    assert!(report.utilization > 0.3, "{}", report.utilization);

    // code generation with the Gemmini memories succeeds and contains the
    // accelerator intrinsics, not raw scratchpad accesses
    let c = exo::codegen::compile_c(&[p.proc().clone()], &lib.codegen_ctx()).unwrap();
    assert!(c.contains("gemmini_extended_mvin"), "{c}");
    assert!(c.contains("gemmini_extended_preload"), "{c}");
}

#[test]
fn avx512_pipeline_profile_consistency() {
    // the trace profile (dynamic) and the static IR profile agree
    let lib = Avx512Lib::new();
    let st = Arc::new(Mutex::new(SchedState::default()));
    let p = exo::kernels::x86_gemm::schedule_sgemm(&lib, &st, 12, 128, 8, 6, 64).unwrap();

    let static_profile = x86_sim::profile_proc(p.proc()).unwrap();

    let mut m = Machine::new();
    m.execute_instr_bodies = false;
    let a = m.alloc_extern_uninit("A", DataType::F32, &[12, 8]);
    let b = m.alloc_extern_uninit("B", DataType::F32, &[8, 128]);
    let c = m.alloc_extern_uninit("C", DataType::F32, &[12, 128]);
    m.run(
        p.proc(),
        &[ArgVal::Tensor(a), ArgVal::Tensor(b), ArgVal::Tensor(c)],
    )
    .unwrap();
    let dynamic_profile = x86_sim::profile_trace(m.trace());

    assert_eq!(static_profile.fmas, dynamic_profile.fmas);
    assert_eq!(static_profile.vec_loads, dynamic_profile.vec_loads);
    assert_eq!(static_profile.vec_stores, dynamic_profile.vec_stores);
    assert_eq!(static_profile.broadcasts, dynamic_profile.broadcasts);
}

#[test]
fn call_eqv_swaps_provably_equivalent_procs() {
    // schedule a callee two ways; swap the call via provenance
    let src = r#"
@proc
def fill(n: size, dst: f32[n]):
    assert n % 8 == 0
    for i in seq(0, n):
        dst[i] = 1.0

@proc
def app(x: f32[32]):
    fill(32, x[0:32])
"#;
    let procs = parse_library(src, &ParseEnv::new()).unwrap();
    let fill = Procedure::new(procs[0].clone());
    let app = Procedure::with_state(procs[1].clone(), fill.state().clone());

    let fill_fast = fill.split("for i in _: _", 8, "io", "ii").unwrap();
    let swapped = app.call_eqv("fill(_)", &fill_fast).unwrap();
    assert!(swapped.show().contains("fill("), "{}", swapped.show());

    // behavior unchanged
    let run = |proc: &Proc| {
        let mut m = Machine::new();
        let x = m.alloc_extern("x", DataType::F32, &[32], &vec![0.0; 32]);
        m.run(proc, &[ArgVal::Tensor(x)]).unwrap();
        m.buffer_values(x).unwrap()
    };
    assert_eq!(run(app.proc()), run(swapped.proc()));

    // a procedure with no provenance link is rejected, even if it looks
    // identical (it was parsed separately and shares no scheduling root)
    let reparsed = parse_library(src, &ParseEnv::new()).unwrap();
    let stranger = Procedure::new(reparsed[0].clone());
    assert!(app.call_eqv("fill(_)", &stranger).is_err());
}

#[test]
fn non_addressable_memory_enforced_end_to_end() {
    // staging into the scratchpad without mapping loads to instructions
    // must be caught by the backend checks
    let lib = GemminiLib::new();
    let mut b = ProcBuilder::new("direct");
    let a = b.tensor("A", DataType::I8, vec![Expr::int(16)]);
    let s = b.tensor_in("spad", DataType::I8, vec![Expr::int(16)], lib.scratchpad);
    let i = b.begin_for("i", Expr::int(0), Expr::int(16));
    b.assign(
        s,
        vec![Expr::var(i)],
        exo::core::build::read(a, vec![Expr::var(i)]),
    );
    b.end_for();
    let p = b.finish();
    let e = exo::codegen::compile_c(&[p], &lib.codegen_ctx()).unwrap_err();
    assert!(e.message.contains("not addressable"), "{e}");
}

#[test]
fn transcript_records_full_gemmini_schedule() {
    // the provenance transcript of the scheduled GEMM names every rewrite
    // in application order, and the `sched.<op>` spans of the calls
    // account for every check the schedule posed
    let lib = GemminiLib::new();
    let st = Arc::new(Mutex::new(SchedState::default()));
    let p = exo::kernels::gemmini_gemm::schedule_matmul(&lib, &st, 64, 64, 64).unwrap();

    let t = p.transcript();
    assert!(!t.is_empty(), "schedule produced no provenance events");
    assert_eq!(t.len(), p.directives());
    let ops: Vec<&str> = t.iter().map(|e| e.op).collect();
    assert!(ops.contains(&"split"), "{ops:?}");
    assert!(ops.contains(&"replace"), "{ops:?}");

    // the human rendering lists exactly one numbered line per event
    let text = p.transcript_text();
    assert_eq!(text.lines().count(), 1 + t.len(), "{text}");
    for (i, (line, e)) in text.lines().skip(1).zip(&t).enumerate() {
        assert_eq!(
            line.trim_start(),
            format!("{}. {}({})", i + 1, e.op, e.target)
        );
    }

    // every check is attributed to a directive: the state is fresh, so
    // the `checks` and `hits` of this thread's `sched.*` spans sum to
    // its `CheckStats`
    let stats = st.lock().unwrap().check.stats();
    assert!(stats.queries > 0, "the schedule posed no check");
    let tid = exo::obs::span::current_tid();
    let (mut checks, mut hits) = (0, 0);
    for span in exo::obs::Registry::global().traces() {
        if span.tid != tid || !span.name.starts_with("sched.") {
            continue;
        }
        let count = |key: &str| {
            span.fields
                .iter()
                .find(|(k, _)| k == key)
                .and_then(|(_, v)| v.as_int())
                .unwrap_or_else(|| panic!("{} carries no `{key}`", span.name))
        };
        checks += count("checks");
        hits += count("hits");
    }
    assert_eq!((checks, hits), (stats.queries as i64, stats.hits as i64));
}

#[test]
fn pollution_tracked_through_pipeline() {
    let lib = GemminiLib::new();
    let st = Arc::new(Mutex::new(SchedState::default()));
    let p = exo::kernels::gemmini_gemm::schedule_matmul(&lib, &st, 32, 32, 32).unwrap();
    // the schedule inserted four configuration writes: all four fields are
    // recorded as polluted relative to the naive root
    assert_eq!(p.polluted().len(), 4, "{:?}", p.polluted());
}
