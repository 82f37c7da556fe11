//! Prints the schedule-provenance transcript of the paper's Fig. 5a
//! x86 SGEMM case study — every rewrite applied, in order, as
//! `op(target)` — then exports the causal trace tree as Chrome
//! `trace_event` JSON and collapsed flamegraph stacks, where each
//! call's `sched.<op>` span carries its time and its `checks` and
//! `hits`:
//!
//! ```sh
//! cargo run --example schedule_transcript
//! # open target/trace_schedule.json in chrome://tracing or Perfetto
//! # third_party flamegraph.pl target/trace_schedule.folded > flame.svg
//! ```
//!
//! The example doubles as the acceptance check for the trace export: it
//! validates the exported Chrome trace with the strict `exo_obs::json`
//! parser, and checks that the trace attributes all the checking work
//! to operators — each `smt.decide` span in the ring reaches a `sched.*`
//! span through its parent links, and the `checks` of the `sched.*`
//! spans sum to the state's `CheckStats` queries. It exits 1 if any
//! check fails. It ends with the solver's own totals (`SolverStats`).
//!
//! The Fig. 5a chain poses no solver query (the dependence test decides
//! its reorders, the interval prover its bounds), so the example then
//! reorders, on the same state, a nest writing `A[2·i + j]` with
//! `j ∈ [0, 2)`, which only the solver proves: that query is the one the
//! attribution check follows.

use std::path::Path;
use std::sync::{Arc, Mutex};

use exo::hwlibs::Avx512Lib;
use exo::kernels::x86_gemm::schedule_sgemm;
use exo::obs::{Json, Registry};
use exo::prelude::{DataType, Expr, ProcBuilder};
use exo::sched::{Procedure, SchedState};

fn main() {
    let lib = Avx512Lib::new();
    let st = Arc::new(Mutex::new(SchedState::default()));

    // The Fig. 5a chain: block 6×64, vectorize, hoist B packing.
    let (m, n, k) = (48, 128, 64);
    let p = schedule_sgemm(&lib, &st, m, n, k, 6, 64).expect("the paper's SGEMM schedule applies");
    print!("{}", p.transcript_text());

    // A reorder the solver decides, for the attribution checks below.
    let mut b = ProcBuilder::new("interleave");
    let a = b.tensor("A", DataType::F32, vec![Expr::int(16)]);
    let i = b.begin_for("i", Expr::int(0), Expr::int(8));
    let j = b.begin_for("j", Expr::int(0), Expr::int(2));
    let idx = Expr::int(2).mul(Expr::var(i)).add(Expr::var(j));
    b.assign(a, vec![idx], Expr::float(0.0));
    b.end_for().end_for();
    Procedure::with_state(b.finish(), Arc::clone(&st))
        .reorder("for i in _: _", "j")
        .expect("the interleaved nest reorders");

    // Measure the scheduled kernel on the port-pressure core model so
    // the trace also contains a simulator invocation.
    let core = x86_sim::CoreModel::tiger_lake();
    let traffic = x86_sim::traffic::Traffic::default();
    if let Some((_, cycles)) = x86_sim::evaluate(p.proc(), &core, &traffic) {
        let flops = 2 * (m * n * k) as u64;
        let gf = core.gflops(flops, cycles);
        println!();
        println!(
            "simulated: {cycles:.0} cycles, {gf:.1} GFLOP/s ({:.0}% of peak)",
            gf / core.peak_gflops() * 100.0
        );
    }

    println!();
    println!("global metrics after scheduling:");
    print!("{}", Registry::global().transcript());

    // ---- trace exports ----
    let reg = Registry::global();
    std::fs::create_dir_all("target").expect("create target/");
    let trace_path = Path::new("target/trace_schedule.json");
    let folded_path = Path::new("target/trace_schedule.folded");
    reg.write_chrome_trace(trace_path)
        .expect("write Chrome trace");
    reg.write_collapsed_stacks(folded_path)
        .expect("write collapsed stacks");
    println!();
    println!(
        "wrote {} ({} spans) and {}",
        trace_path.display(),
        reg.traces().len(),
        folded_path.display()
    );

    // ---- acceptance check: the exported trace is strict JSON ----
    let text = std::fs::read_to_string(trace_path).expect("read back trace");
    let parsed = match Json::parse(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("FAIL: exported Chrome trace is not valid JSON: {e:?}");
            std::process::exit(1);
        }
    };
    let n_events = match parsed.get("traceEvents") {
        Some(Json::Arr(evs)) if !evs.is_empty() => evs.len(),
        _ => {
            eprintln!("FAIL: Chrome trace has no traceEvents");
            std::process::exit(1);
        }
    };
    println!("trace OK: {n_events} trace events validate under the strict parser");

    // ---- acceptance check: every solver query has an operator ancestor ----
    let traces = reg.traces();
    let by_id: std::collections::HashMap<u64, &exo::obs::TraceSpan> =
        traces.iter().map(|t| (t.id, t)).collect();
    let has_operator_ancestor = |t: &exo::obs::TraceSpan| {
        let mut cursor = t.parent.and_then(|id| by_id.get(&id));
        while let Some(p) = cursor {
            if p.name.starts_with("sched.") {
                return true;
            }
            cursor = p.parent.and_then(|id| by_id.get(&id));
        }
        false
    };
    let decides: Vec<_> = traces.iter().filter(|t| t.name == "smt.decide").collect();
    let orphans = decides.iter().filter(|t| !has_operator_ancestor(t)).count();
    if decides.is_empty() || orphans > 0 {
        eprintln!(
            "FAIL: {orphans} of {} smt.decide spans have no sched.* ancestor",
            decides.len()
        );
        std::process::exit(1);
    }
    println!(
        "attribution OK: all {} smt.decide spans descend from a sched.* span",
        decides.len()
    );

    // ---- acceptance check: every check is on an operator's span ----
    let queries = st
        .lock()
        .expect("scheduler state poisoned")
        .check
        .stats()
        .queries;
    let attributed: i64 = traces
        .iter()
        .filter(|t| t.name.starts_with("sched."))
        .filter_map(|t| t.fields.iter().find(|(k, _)| k == "checks"))
        .filter_map(|(_, v)| v.as_int())
        .sum();
    if attributed != queries as i64 {
        eprintln!("FAIL: sched.* spans carry {attributed} checks, the state counted {queries}");
        std::process::exit(1);
    }
    println!("attribution OK: the sched.* spans carry all {queries} checks");

    // ---- solver totals ----
    let s = st
        .lock()
        .expect("scheduler state poisoned")
        .check
        .solver_stats();
    println!();
    println!(
        "solver: {} queries ({} yes, {} no, {} gave up), {} QE nodes, {}",
        s.queries,
        s.yes,
        s.no,
        s.gave_up,
        s.nodes,
        exo::obs::registry::format_us(s.time_us)
    );
}
