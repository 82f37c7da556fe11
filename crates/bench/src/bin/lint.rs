//! Whole-program lint + dependence-classification bench: runs the
//! exo-lint rule pack and the loop classifier over the naive and fully
//! scheduled kernels of the paper's two evaluation chains (Gemmini
//! MATMUL, x86 SGEMM), then writes `BENCH_lint.json` with per-rule hit
//! counts, per-loop verdicts, and wall time.
//!
//! Exits nonzero if any finding is `Error`-severity — this is the CI
//! gate for the kernels the repo ships.

use std::sync::Arc;
use std::time::Instant;

use exo_analysis::GlobalReg;
use exo_bench::{fresh_state, solver_stats_json, write_bench_json};
use exo_core::{Diagnostic, Proc, Severity};
use exo_hwlibs::{Avx512Lib, GemminiLib};
use exo_kernels::{gemmini_gemm, x86_gemm};
use exo_obs::Json;
use exo_sched::StateRef;

struct Subject {
    label: String,
    proc: Arc<Proc>,
}

fn subjects(state: &StateRef) -> Vec<Subject> {
    let (m, n, k) = (12, 128, 8);
    let (gn, gm, gk) = (32, 32, 32);

    let avx = Avx512Lib::new();
    let gem = GemminiLib::new();
    let sgemm_sched = x86_gemm::schedule_sgemm(&avx, state, m, n, k, 6, 64)
        .expect("sgemm schedule")
        .proc()
        .clone();
    let matmul_sched = gemmini_gemm::schedule_matmul(&gem, state, gn, gm, gk)
        .expect("gemmini schedule")
        .proc()
        .clone();
    vec![
        Subject {
            label: format!("sgemm_naive_{m}x{n}x{k}"),
            proc: x86_gemm::naive_sgemm(m, n, k),
        },
        Subject {
            label: format!("sgemm_scheduled_{m}x{n}x{k}"),
            proc: sgemm_sched,
        },
        Subject {
            label: format!("matmul_naive_{gn}x{gm}x{gk}"),
            proc: gemmini_gemm::naive_matmul(gn, gm, gk),
        },
        Subject {
            label: format!("matmul_scheduled_{gn}x{gm}x{gk}"),
            proc: matmul_sched,
        },
    ]
}

fn main() {
    let state = fresh_state();
    let check = state
        .lock()
        .expect("scheduler state poisoned")
        .check
        .clone();
    let mut reg = GlobalReg::new();

    let subjects = subjects(&state);
    let mut records = Vec::new();
    let mut rule_hits: Vec<(String, usize)> = Vec::new();
    let mut worst = Severity::Info;
    let total = Instant::now();

    println!("exo-lint — whole-program diagnostics + loop classification");
    println!("{:-<72}", "");
    for s in &subjects {
        let t = Instant::now();
        let diags: Vec<Diagnostic> = exo_lint::lint_proc_with(&s.proc, &check, &mut reg);
        let verdicts = exo_lint::classify_loops(&s.proc, &check, &mut reg);
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;

        for d in &diags {
            if d.severity > worst {
                worst = d.severity;
            }
            match rule_hits.iter_mut().find(|(r, _)| *r == d.rule) {
                Some((_, n)) => *n += 1,
                None => rule_hits.push((d.rule.clone(), 1)),
            }
        }
        let n_par = verdicts
            .iter()
            .filter(|(_, _, v)| v.is_parallelizable())
            .count();
        println!(
            "{:<28} {:>2} findings  {:>2}/{:<2} loops parallelizable  {:>9.1} ms",
            s.label,
            diags.len(),
            n_par,
            verdicts.len(),
            wall_ms
        );
        for d in &diags {
            println!("    {d}");
        }
        for (path, iter, v) in &verdicts {
            println!("    loop {iter} at {path}: {}", v.name());
        }

        records.push(Json::obj(vec![
            ("type".into(), Json::Str("lint_subject".into())),
            ("label".into(), Json::Str(s.label.clone())),
            ("findings".into(), exo_lint::diagnostics_json(&diags)),
            (
                "loops".into(),
                Json::Arr(
                    verdicts
                        .iter()
                        .map(|(path, iter, v)| exo_lint::verdict_json(path, *iter, v))
                        .collect(),
                ),
            ),
            ("wall_ms".into(), Json::Float(wall_ms)),
        ]));
    }

    println!("{:-<72}", "");
    println!("total {:.1} ms", total.elapsed().as_secs_f64() * 1e3);
    for (rule, n) in &rule_hits {
        println!("  {rule}: {n}");
    }

    records.push(Json::obj(vec![
        ("type".into(), Json::Str("lint_summary".into())),
        (
            "rule_hits".into(),
            Json::obj(
                rule_hits
                    .iter()
                    .map(|(r, n)| (r.clone(), Json::uint(*n as u64)))
                    .collect(),
            ),
        ),
        ("worst_severity".into(), Json::Str(worst.name().into())),
        (
            "total_wall_ms".into(),
            Json::Float(total.elapsed().as_secs_f64() * 1e3),
        ),
    ]));
    records.push(solver_stats_json(&state));
    write_bench_json("lint", &records).expect("write BENCH_lint.json");

    if worst >= Severity::Error {
        eprintln!("error-severity findings present — failing");
        std::process::exit(1);
    }
}
