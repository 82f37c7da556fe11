//! Pins every verdict the case-study schedules and the lint rule pack
//! ask the solver for.
//!
//! Each subject runs on a fresh checking context, and afterwards every
//! entry of that context's verdict cache becomes one line of the corpus:
//! the subject, the cached answer, the QE nodes a fresh `Solver` spends
//! re-deciding the canonical formula, and the byte length and FNV-1a of
//! the formula's `Display` text. Lines are sorted, so the corpus does not
//! depend on the cache's iteration order. A change to formula
//! construction, canonical renaming or quantifier elimination that moves
//! any answer, any node count or any canonical key fails here.
//!
//! The subjects are the `schedule-cold` benchmark's five schedules (x86
//! SGEMM and CONV, Gemmini matmul twice and conv) and `lint-cold`'s seven
//! lint subjects (three naive procedures, four scheduled ones), each
//! linted and loop-classified as that workload does. Everything runs in
//! one test, in a fixed order.

use std::sync::{Arc, Mutex};

use exo_analysis::{GlobalReg, SharedCheckCtx};
use exo_core::Proc;
use exo_hwlibs::{Avx512Lib, GemminiLib};
use exo_kernels::gemmini_conv::{naive_conv, schedule_conv, ConvShape};
use exo_kernels::gemmini_gemm::{naive_matmul, schedule_matmul};
use exo_kernels::x86_conv::schedule_conv_avx512;
use exo_kernels::x86_gemm::{naive_sgemm, schedule_sgemm};
use exo_sched::{Procedure, SchedError, SchedState, StateRef};
use exo_smt::solver::Solver;

/// The recorded corpus, one `subject answer qe_nodes bytes fnv` line per
/// cache entry.
const CORPUS: &str = include_str!("verdict_corpus.txt");

/// FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn fresh(check: &SharedCheckCtx) -> StateRef {
    Arc::new(Mutex::new(SchedState::with_check(check.clone())))
}

/// Appends one line per entry of `check`'s verdict cache, or one
/// `subject none` line when the subject asked the solver nothing.
fn record(subject: &str, check: &SharedCheckCtx, out: &mut Vec<String>) {
    let mut lines: Vec<String> = check
        .verdicts()
        .into_iter()
        .map(|(f, answer)| {
            let mut solver = Solver::new();
            assert_eq!(solver.check_sat(&f), answer, "{subject}: {f}");
            let text = f.to_string();
            format!(
                "{subject} {answer:?} {} {} {:016x}",
                solver.stats().nodes,
                text.len(),
                fnv1a(text.as_bytes())
            )
        })
        .collect();
    if lines.is_empty() {
        lines.push(format!("{subject} none"));
    }
    lines.sort();
    out.extend(lines);
}

/// Schedules on a fresh context and records its verdicts.
fn schedule(
    subject: &str,
    out: &mut Vec<String>,
    run: impl FnOnce(&StateRef) -> Result<Procedure, SchedError>,
) -> Arc<Proc> {
    let check = SharedCheckCtx::with_cache(true);
    let p = run(&fresh(&check)).unwrap_or_else(|e| panic!("{subject}: {e}"));
    record(subject, &check, out);
    p.proc().clone()
}

/// Schedules on a fresh context without recording: the lint subjects'
/// set-up, as in `lint-cold`.
fn scheduled(run: impl FnOnce(&StateRef) -> Result<Procedure, SchedError>) -> Arc<Proc> {
    let p = run(&fresh(&SharedCheckCtx::with_cache(true))).expect("schedule");
    p.proc().clone()
}

/// Lints and classifies the loops of `proc` on a fresh context, as the
/// `lint-cold` workload does, and records its verdicts.
fn lint(subject: &str, proc: &Arc<Proc>, out: &mut Vec<String>) {
    let check = SharedCheckCtx::with_cache(true);
    let mut reg = GlobalReg::new();
    let _ = exo_lint::lint_proc_with(proc, &check, &mut reg);
    let _ = exo_lint::classify_loops(proc, &check, &mut reg);
    record(subject, &check, out);
}

fn corpus() -> String {
    let gemmini = GemminiLib::new();
    let avx = Avx512Lib::new();
    let mut out = Vec::new();

    let x86_conv = ConvShape {
        batch: 1,
        out_dim: 4,
        oc: 32,
        ic: 16,
        kdim: 3,
    };
    schedule("schedule_sgemm_24x128x32", &mut out, |s| {
        schedule_sgemm(&avx, s, 24, 128, 32, 6, 64)
    });
    schedule("schedule_x86_conv_4", &mut out, |s| {
        schedule_conv_avx512(&avx, s, &x86_conv, 4)
    });
    schedule("schedule_matmul_64x64x64", &mut out, |s| {
        schedule_matmul(&gemmini, s, 64, 64, 64)
    });
    schedule("schedule_matmul_32x256x1024", &mut out, |s| {
        schedule_matmul(&gemmini, s, 32, 256, 1024)
    });
    let gconv = ConvShape::fig4b(4, 32, 32);
    schedule("schedule_gemmini_conv_4", &mut out, |s| {
        schedule_conv(&gemmini, s, &gconv)
    });

    lint(
        "lint_naive_sgemm_6x128x8",
        &naive_sgemm(6, 128, 8),
        &mut out,
    );
    lint("lint_naive_matmul_32", &naive_matmul(32, 32, 32), &mut out);
    lint("lint_naive_gemmini_conv_4", &naive_conv(&gconv), &mut out);
    let p = scheduled(|s| schedule_matmul(&gemmini, s, 32, 32, 32));
    lint("lint_scheduled_matmul_32", &p, &mut out);
    let p = scheduled(|s| schedule_sgemm(&avx, s, 6, 128, 8, 6, 64));
    lint("lint_scheduled_sgemm_6x128x8", &p, &mut out);
    let x86_conv8 = ConvShape {
        out_dim: 8,
        ..x86_conv
    };
    let p = scheduled(|s| schedule_conv_avx512(&avx, s, &x86_conv8, 4));
    lint("lint_scheduled_x86_conv_8", &p, &mut out);
    let p = scheduled(|s| schedule_conv(&gemmini, s, &gconv));
    lint("lint_scheduled_gemmini_conv_4", &p, &mut out);

    out.iter().map(|l| format!("{l}\n")).collect()
}

#[test]
fn verdicts_match_the_recorded_corpus() {
    let got = corpus();
    if got != CORPUS {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("verdict_corpus.txt");
        let _ = std::fs::write(&path, &got);
        let first = got
            .lines()
            .zip(CORPUS.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(got.lines().count().min(CORPUS.lines().count()));
        panic!(
            "verdict corpus differs from tests/verdict_corpus.txt at line {} \
             ({} lines now, {} recorded); the current corpus is in {}",
            first + 1,
            got.lines().count(),
            CORPUS.lines().count(),
            path.display()
        );
    }
}
