//! Profiles the solver queries of the cold benchmark subjects, one query
//! at a time:
//!
//! ```sh
//! cargo run --release --example solver_profile [REPS] [TOP]
//! ```
//!
//! Schedules the `schedule-cold` benchmark's five kernels and lints (and
//! loop-classifies) the `lint-cold` benchmark's seven subjects, each on a
//! fresh checking context. Every entry of each context's verdict cache
//! is then re-decided `REPS` times (default 20), each time by a fresh
//! `Solver`, and its fastest time is kept. It prints each subject's total
//! and the `TOP` (default 10) slowest queries with their answer, formula
//! size and QE nodes, so a change to how obligations are built can be
//! aimed at the queries that cost the most.
//!
//! The cached formulas are the canonical ones the checker decided; the
//! times are the solver's alone, without lowering or canonical renaming.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use exo::analysis::{GlobalReg, SharedCheckCtx};
use exo::core::Proc;
use exo::hwlibs::{Avx512Lib, GemminiLib};
use exo::kernels::gemmini_conv::{naive_conv, schedule_conv, ConvShape};
use exo::kernels::gemmini_gemm::{naive_matmul, schedule_matmul};
use exo::kernels::x86_conv::schedule_conv_avx512;
use exo::kernels::x86_gemm::{naive_sgemm, schedule_sgemm};
use exo::sched::{Procedure, SchedError, SchedState, StateRef};
use exo::smt::formula::Formula;
use exo::smt::solver::{Answer, Solver};

/// One re-decided query.
struct Query {
    subject: &'static str,
    answer: Answer,
    size: usize,
    nodes: usize,
    time: Duration,
}

fn fresh(check: &SharedCheckCtx) -> StateRef {
    Arc::new(Mutex::new(SchedState::with_check(check.clone())))
}

/// Re-decides every verdict `check` cached, `reps` times each.
fn profile(subject: &'static str, check: &SharedCheckCtx, reps: usize, out: &mut Vec<Query>) {
    for (f, answer) in check.verdicts() {
        out.push(redecide(subject, &f, answer, reps));
    }
}

fn redecide(subject: &'static str, f: &Formula, answer: Answer, reps: usize) -> Query {
    let mut time = Duration::MAX;
    let mut nodes = 0;
    for _ in 0..reps.max(1) {
        let mut solver = Solver::new();
        let t = Instant::now();
        let got = solver.check_sat(f);
        time = time.min(t.elapsed());
        assert_eq!(
            got, answer,
            "{subject}: the solver changed its answer on {f}"
        );
        nodes = solver.stats().nodes;
    }
    Query {
        subject,
        answer,
        size: f.size(),
        nodes,
        time,
    }
}

fn schedule(
    subject: &'static str,
    reps: usize,
    out: &mut Vec<Query>,
    run: impl FnOnce(&StateRef) -> Result<Procedure, SchedError>,
) {
    let check = SharedCheckCtx::with_cache(true);
    run(&fresh(&check)).unwrap_or_else(|e| panic!("{subject}: {e}"));
    profile(subject, &check, reps, out);
}

fn scheduled(run: impl FnOnce(&StateRef) -> Result<Procedure, SchedError>) -> Arc<Proc> {
    let p = run(&fresh(&SharedCheckCtx::with_cache(true))).expect("schedule");
    p.proc().clone()
}

fn lint(subject: &'static str, proc: &Arc<Proc>, reps: usize, out: &mut Vec<Query>) {
    let check = SharedCheckCtx::with_cache(true);
    let mut reg = GlobalReg::new();
    let _ = exo::lint::lint_proc_with(proc, &check, &mut reg);
    let _ = exo::lint::classify_loops(proc, &check, &mut reg);
    profile(subject, &check, reps, out);
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut arg = |default: usize| {
        args.next()
            .map(|a| a.parse().expect("REPS and TOP are counts"))
            .unwrap_or(default)
    };
    let reps = arg(20);
    let top = arg(10);

    let gemmini = GemminiLib::new();
    let avx = Avx512Lib::new();
    let gconv = ConvShape::fig4b(4, 32, 32);
    let xconv = ConvShape {
        batch: 1,
        out_dim: 4,
        oc: 32,
        ic: 16,
        kdim: 3,
    };
    let mut qs = Vec::new();

    // schedule-cold
    schedule("schedule_matmul_64x64x64", reps, &mut qs, |s| {
        schedule_matmul(&gemmini, s, 64, 64, 64)
    });
    schedule("schedule_matmul_32x256x1024", reps, &mut qs, |s| {
        schedule_matmul(&gemmini, s, 32, 256, 1024)
    });
    schedule("schedule_gemmini_conv_4", reps, &mut qs, |s| {
        schedule_conv(&gemmini, s, &gconv)
    });
    schedule("schedule_sgemm_24x128x32", reps, &mut qs, |s| {
        schedule_sgemm(&avx, s, 24, 128, 32, 6, 64)
    });
    schedule("schedule_x86_conv_4", reps, &mut qs, |s| {
        schedule_conv_avx512(&avx, s, &xconv, 4)
    });

    // lint-cold
    lint(
        "lint_naive_sgemm_6x128x8",
        &naive_sgemm(6, 128, 8),
        reps,
        &mut qs,
    );
    lint(
        "lint_naive_matmul_32",
        &naive_matmul(32, 32, 32),
        reps,
        &mut qs,
    );
    lint(
        "lint_naive_gemmini_conv_4",
        &naive_conv(&gconv),
        reps,
        &mut qs,
    );
    let p = scheduled(|s| schedule_matmul(&gemmini, s, 32, 32, 32));
    lint("lint_scheduled_matmul_32", &p, reps, &mut qs);
    let p = scheduled(|s| schedule_sgemm(&avx, s, 6, 128, 8, 6, 64));
    lint("lint_scheduled_sgemm_6x128x8", &p, reps, &mut qs);
    let xconv8 = ConvShape {
        out_dim: 8,
        ..xconv
    };
    let p = scheduled(|s| schedule_conv_avx512(&avx, s, &xconv8, 4));
    lint("lint_scheduled_x86_conv_8", &p, reps, &mut qs);
    let p = scheduled(|s| schedule_conv(&gemmini, s, &gconv));
    lint("lint_scheduled_gemmini_conv_4", &p, reps, &mut qs);

    println!("solver time per subject (fastest of {reps} fresh-solver runs per query):");
    println!(
        "{:<32} {:>7} {:>9} {:>9}",
        "subject", "queries", "nodes", "ms"
    );
    let mut subjects: Vec<&str> = qs.iter().map(|q| q.subject).collect();
    subjects.dedup();
    for subject in subjects {
        let of = || qs.iter().filter(|q| q.subject == subject);
        let time: Duration = of().map(|q| q.time).sum();
        let nodes: usize = of().map(|q| q.nodes).sum();
        println!(
            "{subject:<32} {:>7} {nodes:>9} {:>9.3}",
            of().count(),
            ms(time)
        );
    }
    let total: Duration = qs.iter().map(|q| q.time).sum();
    println!(
        "{:<32} {:>7} {:>9} {:>9.3}",
        "total",
        qs.len(),
        "",
        ms(total)
    );

    qs.sort_by_key(|q| std::cmp::Reverse(q.time));
    println!();
    println!("the {top} slowest queries:");
    println!(
        "{:<32} {:>6} {:>6} {:>7} {:>9} {:>7}",
        "subject", "answer", "size", "nodes", "ms", "share"
    );
    for q in qs.iter().take(top) {
        println!(
            "{:<32} {:>6} {:>6} {:>7} {:>9.3} {:>6.1}%",
            q.subject,
            format!("{:?}", q.answer),
            q.size,
            q.nodes,
            ms(q.time),
            100.0 * q.time.as_secs_f64() / total.as_secs_f64().max(f64::MIN_POSITIVE)
        );
    }
}
