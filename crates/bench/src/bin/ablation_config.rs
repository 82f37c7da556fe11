//! Ablation for §2.4: what configuration-write hoisting is worth.
//! Takes the scheduled Exo GEMM trace and compares it against the same
//! trace with a configuration write re-fused before every `mvin` (the
//! behavior the paper's rewrites eliminate).

use exo_bench::{fresh_state, solver_stats_json, write_bench_json};
use exo_hwlibs::GemminiLib;
use exo_interp::{HwOp, Instr, TraceArg};
use exo_kernels::gemmini_gemm::{schedule_matmul, trace_matmul};
use exo_obs::Json;
use gemmini_sim::{SimConfig, Simulator};

fn labeled(label: &str, report: Json) -> Json {
    match report {
        Json::Obj(mut fields) => {
            fields.push(("variant".into(), Json::Str(label.into())));
            Json::Obj(fields)
        }
        other => other,
    }
}

fn main() {
    let lib = GemminiLib::new();
    let st = fresh_state();
    let (n, m, k) = (784, 256, 256);
    let p = schedule_matmul(&lib, &st, n, m, k).expect("schedule");
    let hoisted = trace_matmul(p.proc(), n, m, k, false);

    // re-fuse: insert a config instruction before every load
    let config_ld = HwOp::new(
        Instr::intern("gemmini_config_ld", &["s"]),
        [TraceArg::Int(k)],
    );
    let mut fused: Vec<HwOp> = Vec::new();
    for op in &hoisted {
        if op.instr.as_str().starts_with("gemmini_mvin") {
            fused.push(config_ld.clone());
        }
        fused.push(op.clone());
    }

    let r_hoisted = Simulator::new(SimConfig::software()).run(&hoisted);
    let r_fused = Simulator::new(SimConfig::software()).run(&fused);
    println!("== Ablation: configuration hoisting (shape {n}x{m}x{k}) ==");
    println!(
        "hoisted configs: {:>4} flushes, {:>12} cycles, {:>5.1}% util",
        r_hoisted.flushes,
        r_hoisted.cycles,
        r_hoisted.utilization * 100.0
    );
    println!(
        "fused configs:   {:>4} flushes, {:>12} cycles, {:>5.1}% util",
        r_fused.flushes,
        r_fused.cycles,
        r_fused.utilization * 100.0
    );
    println!(
        "hoisting is worth {:.1}x (the §2.4 motivation)",
        r_fused.cycles as f64 / r_hoisted.cycles as f64
    );
    let records = vec![
        labeled("hoisted", r_hoisted.to_json()),
        labeled("fused", r_fused.to_json()),
        solver_stats_json(&st),
    ];
    write_bench_json("ablation_config", &records).expect("write BENCH_ablation_config.json");
}
