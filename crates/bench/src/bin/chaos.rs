//! Chaos bench: drives the fig4a (Gemmini GEMM) and fig5a (x86 SGEMM)
//! schedule chains under a matrix of seeded fault plans and reports how
//! the pipeline absorbed the faults.
//!
//! Per run, the outcome is classified as:
//!
//! * `clean` — no fault fired; the chain accepted as usual
//! * `recovered` — faults fired but the chain still produced the
//!   byte-identical accepted schedule (retries/slack)
//! * `degraded` — faults fired and the chain rejected with a typed
//!   error (the conservative, sound outcome)
//! * `violation` — a panic escaped the library boundary, or the chain
//!   accepted a schedule *different* from the clean baseline
//!   (soundness-monotonicity breach)
//!
//! Any `violation` makes the binary exit nonzero — `ci.sh` runs it as a
//! release gate. Results go to `BENCH_chaos.json`
//! (`EXO_BENCH_DIR` honoured) through `exo-obs`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use exo_bench::{fresh_state, write_bench_json};
use exo_chaos::{FaultPlan, FaultSite};
use exo_hwlibs::{Avx512Lib, GemminiLib};
use exo_kernels::{gemmini_gemm, x86_gemm};
use exo_obs::Json;
use exo_sched::{Procedure, SchedError, StateRef};

fn fig4a(state: &StateRef) -> Result<Procedure, SchedError> {
    gemmini_gemm::schedule_matmul(&GemminiLib::new(), state, 64, 64, 64)
}

fn fig5a(state: &StateRef) -> Result<Procedure, SchedError> {
    x86_gemm::schedule_sgemm(&Avx512Lib::new(), state, 24, 256, 16, 6, 64)
}

type Chain = fn(&StateRef) -> Result<Procedure, SchedError>;

struct RunRecord {
    chain: &'static str,
    site: FaultSite,
    seed: u64,
    prob: f64,
    injected: u64,
    outcome: &'static str,
    detail: String,
}

impl RunRecord {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("type".into(), Json::Str("chaos_run".into())),
            ("chain".into(), Json::Str(self.chain.into())),
            ("site".into(), Json::Str(self.site.name().into())),
            ("seed".into(), Json::uint(self.seed)),
            ("prob".into(), Json::Float(self.prob)),
            ("injected".into(), Json::uint(self.injected)),
            ("outcome".into(), Json::Str(self.outcome.into())),
            ("detail".into(), Json::Str(self.detail.clone())),
        ])
    }
}

fn main() {
    let chains: [(&'static str, Chain); 2] = [("fig4a", fig4a), ("fig5a", fig5a)];

    // Clean baselines (and a sanity gate: the clean chains must accept).
    exo_chaos::disarm();
    let mut baseline = Vec::new();
    for (name, chain) in chains {
        match chain(&fresh_state()) {
            Ok(p) => baseline.push(p.show()),
            Err(e) => {
                eprintln!("FATAL: {name} clean chain rejected: {e}");
                std::process::exit(1);
            }
        }
    }

    let mut records = Vec::new();
    let (mut injected_total, mut recovered, mut degraded, mut clean_runs) =
        (0u64, 0u64, 0u64, 0u64);
    let mut violations = 0u64;

    for site in FaultSite::ALL {
        for seed in [1, 42] {
            for prob in [1.0, 0.5] {
                for (i, (name, chain)) in chains.iter().enumerate() {
                    let guard = exo_chaos::arm(FaultPlan::new(seed).with_site(site, prob));
                    let outcome = catch_unwind(AssertUnwindSafe(|| chain(&fresh_state())));
                    let injected: u64 = exo_chaos::injection_counts().iter().map(|&(_, n)| n).sum();
                    drop(guard);
                    injected_total += injected;

                    let (kind, detail) = match outcome {
                        Err(_) => {
                            violations += 1;
                            (
                                "violation",
                                "panic escaped the library boundary".to_string(),
                            )
                        }
                        Ok(Ok(p)) if p.show() == baseline[i] => {
                            if injected > 0 {
                                recovered += 1;
                                ("recovered", format!("{injected} faults absorbed"))
                            } else {
                                clean_runs += 1;
                                ("clean", String::new())
                            }
                        }
                        Ok(Ok(_)) => {
                            violations += 1;
                            (
                                "violation",
                                "accepted schedule diverges from clean baseline".to_string(),
                            )
                        }
                        Ok(Err(e)) => {
                            degraded += 1;
                            ("degraded", e.to_string())
                        }
                    };
                    records.push(RunRecord {
                        chain: name,
                        site,
                        seed,
                        prob,
                        injected,
                        outcome: kind,
                        detail,
                    });
                }
            }
        }
    }

    // Post-chaos cache-contamination gate: clean chains must still
    // reproduce the baseline schedules exactly.
    exo_chaos::disarm();
    for (i, (name, chain)) in chains.iter().enumerate() {
        match chain(&fresh_state()) {
            Ok(p) if p.show() == baseline[i] => {}
            Ok(_) => {
                violations += 1;
                eprintln!("VIOLATION: {name} clean schedule changed after chaos runs");
            }
            Err(e) => {
                violations += 1;
                eprintln!("VIOLATION: {name} clean chain rejected after chaos runs: {e}");
            }
        }
    }

    let total = records.len() as u64;
    println!(
        "chaos matrix: {total} runs over {} sites",
        FaultSite::ALL.len()
    );
    println!("  injected faults : {injected_total}");
    println!("  clean           : {clean_runs}");
    println!("  recovered       : {recovered}");
    println!("  degraded        : {degraded}");
    println!("  violations      : {violations}");

    let mut out: Vec<Json> = records.iter().map(RunRecord::to_json).collect();
    out.push(Json::obj(vec![
        ("type".into(), Json::Str("chaos_summary".into())),
        ("runs".into(), Json::uint(total)),
        ("injected".into(), Json::uint(injected_total)),
        ("clean".into(), Json::uint(clean_runs)),
        ("recovered".into(), Json::uint(recovered)),
        ("degraded".into(), Json::uint(degraded)),
        ("violations".into(), Json::uint(violations)),
    ]));
    if let Err(e) = write_bench_json("chaos", &out) {
        eprintln!("FATAL: could not write BENCH_chaos.json: {e}");
        std::process::exit(1);
    }

    if violations > 0 {
        eprintln!("chaos bench FAILED: {violations} violations");
        std::process::exit(1);
    }
    println!("chaos bench OK");
}
