//! Reproduces paper Fig. 7: source-code sizes for the four case-study
//! kernels — generated C lines, reference-library C lines (quoted from
//! the paper; MKL/oneDNN/Gemmini-lib sources are not redistributable),
//! algorithm lines, and scheduling directives.

use std::sync::Arc;

use exo_bench::{fresh_state, solver_stats_json, write_bench_json};
use exo_codegen::{compile_c, CodegenCtx};
use exo_core::ir::Proc;
use exo_hwlibs::{Avx512Lib, GemminiLib};
use exo_kernels::gemmini_conv::{naive_conv, schedule_conv, ConvShape};
use exo_kernels::gemmini_gemm::{naive_matmul, schedule_matmul};
use exo_kernels::x86_conv::{fig6_shape, naive_conv_f32, schedule_conv_avx512};
use exo_kernels::x86_gemm::{naive_sgemm, schedule_sgemm};
use exo_obs::Json;
use exo_sched::{Procedure, SchedError};

/// One Fig. 7 row: app, platform, reference C lines, the paper's row, and
/// the kernel (naive algorithm, schedule, codegen context), built in that
/// order when the row runs.
type Row<'a> = (
    &'a str,
    &'a str,
    u64,
    &'a str,
    &'a dyn Fn() -> (Arc<Proc>, Result<Procedure, SchedError>, CodegenCtx),
);

fn loc(text: &str) -> usize {
    text.lines().filter(|l| !l.trim().is_empty()).count()
}

fn codesize_row(
    app: &str,
    platform: &str,
    c_gen: usize,
    c_ref: u64,
    alg: usize,
    sched: usize,
) -> Json {
    Json::obj(vec![
        ("type".into(), Json::Str("codesize_row".into())),
        ("app".into(), Json::Str(app.into())),
        ("platform".into(), Json::Str(platform.into())),
        ("c_gen".into(), Json::uint(c_gen as u64)),
        ("c_ref".into(), Json::uint(c_ref)),
        ("alg".into(), Json::uint(alg as u64)),
        ("sched".into(), Json::uint(sched as u64)),
    ])
}

fn main() {
    let glib = GemminiLib::new();
    let xlib = Avx512Lib::new();
    let st = fresh_state();

    println!("== Fig. 7 — source code sizes ==");
    println!(
        "{:<10} {:<9} {:>8} {:>8} {:>6} {:>7}",
        "App.", "Platform", "C(gen)", "C(ref)", "Alg.", "Sched."
    );
    let mut records = Vec::new();
    let gconv = ConvShape::fig4b(28, 128, 128);
    let xconv = fig6_shape();
    let rows: [Row; 4] = [
        ("MATMUL", "Gemmini", 313, "462 / 313 / 23 / 43", &|| {
            let naive = naive_matmul(512, 512, 512);
            let p = schedule_matmul(&glib, &st, 512, 512, 512);
            (naive, p, glib.codegen_ctx())
        }),
        ("CONV", "Gemmini", 450, "8317 / 450 / 26 / 44", &|| {
            let naive = naive_conv(&gconv);
            let p = schedule_conv(&glib, &st, &gconv);
            (naive, p, glib.codegen_ctx())
        }),
        ("SGEMM", "x86", 1690, "846 / >1690 / 11 / 162", &|| {
            let naive = naive_sgemm(384, 384, 384);
            let p = schedule_sgemm(&xlib, &st, 384, 384, 384, 6, 64);
            (naive, p, xlib.codegen_ctx())
        }),
        ("CONV", "x86", 5400, "102 / >5400 / 23 / 39", &|| {
            let naive = naive_conv_f32(&xconv);
            let p = schedule_conv_avx512(&xlib, &st, &xconv, 4);
            (naive, p, xlib.codegen_ctx())
        }),
    ];
    for (app, platform, c_ref, paper, kernel) in rows {
        eprintln!("fig7: {} {} …", platform.to_lowercase(), app.to_lowercase());
        let (naive, p, ctx) = kernel();
        let p = p.expect("schedule");
        let c = compile_c(&[p.proc().clone()], &ctx).expect("codegen");
        let (c_gen, alg) = (loc(&c), loc(&exo_core::printer::proc_to_string(&naive)));
        let sched = p.directives();
        println!(
            "{app:<10} {platform:<9} {c_gen:>8} {c_ref:>8} {alg:>6} {sched:>7}   (paper: {paper})"
        );
        records.push(codesize_row(app, platform, c_gen, c_ref, alg, sched));
    }

    println!();
    println!("C(ref) values are quoted from the paper (closed/unvendored sources).");
    records.push(solver_stats_json(&st));
    write_bench_json("fig7", &records).expect("write BENCH_fig7.json");
}
