//! # exo-bench
//!
//! The benchmark harness regenerating every table and figure of the
//! paper's evaluation (§7):
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig4a` | Gemmini MATMUL utilization (Old-lib / Exo-lib / Hardware) |
//! | `fig4b` | Gemmini CONV utilization |
//! | `fig5a` | x86 SGEMM GFLOP/s on square sizes (Exo / MKL) |
//! | `fig5b` | x86 SGEMM vs output aspect ratio |
//! | `fig6`  | x86 CONV % of peak (Exo) |
//! | `fig7`  | code-size table (C generated / C reference / alg / sched) |
//! | `ablation_config` | §2.4: cost of fused vs hoisted configuration |
//! | `ablation_overlap` | decoupled-queue overlap vs serialized issue |
//! | `ablation_microkernel` | 6×64 vs alternative x86 microkernels |
//!
//! Each binary prints a table with the paper's reference values beside
//! the reproduced ones. Absolute numbers come from simulators/cost
//! models (see `DESIGN.md`); the claims under test are the *shapes*:
//! who wins, by roughly what factor, and where crossovers fall.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use exo_hwlibs::GemminiLib;
use exo_interp::HwOp;
use exo_kernels::gemmini_conv::{self, ConvShape};
use exo_kernels::gemmini_gemm;
use exo_obs::Json;
use exo_sched::{SchedState, StateRef};
use gemmini_sim::{SimConfig, Simulator};

/// The twelve ResNet-50 (batch 4) GEMM shapes of Fig. 4a as `(N, M, K)`.
pub fn fig4a_shapes() -> Vec<(i64, i64, i64)> {
    vec![
        (12544, 64, 64),
        (12544, 64, 256),
        (12544, 256, 64),
        (3136, 128, 128),
        (3136, 128, 512),
        (3136, 512, 128),
        (784, 256, 256),
        (784, 256, 1024),
        (784, 1024, 256),
        (224, 512, 512),
        (224, 512, 2048),
        (224, 2048, 512),
    ]
}

/// The three conv shapes of Fig. 4b (output dim × out channels × in
/// channels, batch 4, 3×3).
pub fn fig4b_shapes() -> Vec<ConvShape> {
    vec![
        ConvShape::fig4b(56, 64, 64),
        ConvShape::fig4b(28, 128, 128),
        ConvShape::fig4b(14, 256, 256),
    ]
}

/// One row of a utilization figure.
#[derive(Clone, Debug)]
pub struct UtilRow {
    /// Shape label.
    pub label: String,
    /// Handwritten-library baseline utilization.
    pub old_lib: f64,
    /// exo-rs schedule utilization.
    pub exo_lib: f64,
    /// Hardware-loop-unroller utilization.
    pub hardware: f64,
    /// Simulated cycles of the exo-rs schedule (software issue).
    pub exo_cycles: u64,
}

/// Runs one Fig. 4a shape end to end: schedule → trace → simulate, for
/// all three series.
pub fn fig4a_row(lib: &GemminiLib, state: &StateRef, n: i64, m: i64, k: i64) -> UtilRow {
    let p = gemmini_gemm::schedule_matmul(lib, state, n, m, k)
        .unwrap_or_else(|e| panic!("schedule_matmul({n},{m},{k}): {e}"));
    let exo_trace = gemmini_gemm::trace_matmul(p.proc(), n, m, k, false);
    let old_trace = gemmini_gemm::old_lib_matmul_trace(n, m, k);
    simulate_row(format!("{n}x{m}x{k}"), &exo_trace, &old_trace)
}

/// Runs one Fig. 4b conv shape end to end.
pub fn fig4b_row(lib: &GemminiLib, state: &StateRef, s: &ConvShape) -> UtilRow {
    let p = gemmini_conv::schedule_conv(lib, state, s)
        .unwrap_or_else(|e| panic!("schedule_conv({s:?}): {e}"));
    let exo_trace = gemmini_conv::trace_conv(p.proc(), s, false);
    let old_trace = gemmini_conv::old_lib_conv_trace(s);
    simulate_row(
        format!("{} x {} x {}", s.out_dim, s.oc, s.ic),
        &exo_trace,
        &old_trace,
    )
}

/// The three simulations of a utilization row: the exo-rs trace with
/// software issue, the Old-lib trace, and the exo-rs trace on the
/// hardware loop unroller.
fn simulate_row(label: String, exo_trace: &[HwOp], old_trace: &[HwOp]) -> UtilRow {
    let exo_report = Simulator::new(SimConfig::software()).run(exo_trace);
    UtilRow {
        label,
        old_lib: Simulator::new(SimConfig::software())
            .run(old_trace)
            .utilization,
        exo_lib: exo_report.utilization,
        hardware: Simulator::new(SimConfig::hardware_unroller())
            .run(exo_trace)
            .utilization,
        exo_cycles: exo_report.cycles,
    }
}

impl UtilRow {
    /// JSON form (one trajectory line of a `BENCH_*.json` file).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("type".into(), Json::Str("util_row".into())),
            ("shape".into(), Json::Str(self.label.clone())),
            ("old_lib".into(), Json::Float(self.old_lib)),
            ("exo_lib".into(), Json::Float(self.exo_lib)),
            ("hardware".into(), Json::Float(self.hardware)),
            ("exo_cycles".into(), Json::uint(self.exo_cycles)),
        ])
    }
}

/// A fresh scheduling state with a private, cached checking context:
/// the phases a binary schedules on one state share its verdicts, and
/// no other state sees them.
pub fn fresh_state() -> StateRef {
    Arc::new(Mutex::new(SchedState::default()))
}

/// JSON summary of the checking context's activity (canonical-cache and
/// solver counters) — attached to every `BENCH_*.json` export so
/// scheduling cost is visible next to the performance numbers.
pub fn solver_stats_json(state: &StateRef) -> Json {
    let check = state
        .lock()
        .expect("scheduler state poisoned")
        .check
        .clone();
    let stats = check.solver_stats();
    let cstats = check.stats();
    Json::obj(vec![
        ("type".into(), Json::Str("smt_stats".into())),
        ("queries".into(), Json::uint(stats.queries as u64)),
        ("yes".into(), Json::uint(stats.yes as u64)),
        ("no".into(), Json::uint(stats.no as u64)),
        ("gave_up".into(), Json::uint(stats.gave_up as u64)),
        ("qe_nodes".into(), Json::uint(stats.nodes as u64)),
        ("time_us".into(), Json::uint(stats.time_us)),
        ("check_queries".into(), Json::uint(cstats.queries as u64)),
        ("check_cache_hits".into(), Json::uint(cstats.hits as u64)),
        (
            "check_cache_entries".into(),
            Json::uint(cstats.entries as u64),
        ),
    ])
}

/// Writes a `BENCH_<name>.json` trajectory file: the given records, one
/// JSON object per line, followed by the global registry's spans and
/// events. The directory defaults to `target/` (kept out
/// of version control; committed baselines live in `bench/baselines/`)
/// and can be overridden with `EXO_BENCH_DIR`. Returns the path written.
pub fn write_bench_json(name: &str, records: &[Json]) -> std::io::Result<PathBuf> {
    let dir = std::env::var_os("EXO_BENCH_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("BENCH_{name}.json"));
    let mut out = String::with_capacity(4096);
    for r in records {
        out.push_str(&r.to_string());
        out.push('\n');
    }
    out.push_str(&exo_obs::Registry::global().json_lines());
    std::fs::write(&path, out)?;
    eprintln!("wrote {}", path.display());
    Ok(path)
}

/// Pretty-prints a utilization table plus the §7.1 aggregates.
pub fn print_util_table(title: &str, rows: &[UtilRow]) {
    println!("== {title} ==");
    println!(
        "{:<18} {:>9} {:>9} {:>9}",
        "shape", "Old-lib", "Exo-lib", "Hardware"
    );
    for r in rows {
        println!(
            "{:<18} {:>8.0}% {:>8.0}% {:>8.0}%",
            r.label,
            r.old_lib * 100.0,
            r.exo_lib * 100.0,
            r.hardware * 100.0
        );
    }
    let avg = |f: fn(&UtilRow) -> f64| rows.iter().map(f).sum::<f64>() / rows.len() as f64;
    let speedup: f64 = rows.iter().map(|r| r.exo_lib / r.old_lib).sum::<f64>() / rows.len() as f64;
    println!(
        "avg: old {:.0}%, exo {:.0}%, hw {:.0}% | exo/old speedup {:.1}x | exo = {:.0}% of hw",
        avg(|r| r.old_lib) * 100.0,
        avg(|r| r.exo_lib) * 100.0,
        avg(|r| r.hardware) * 100.0,
        speedup,
        avg(|r| r.exo_lib) / avg(|r| r.hardware) * 100.0
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4a_headline_claims_hold_on_a_sample() {
        // one representative shape: Exo ≫ Old-lib, Hardware ≥ Exo
        let lib = GemminiLib::new();
        let st = fresh_state();
        let row = fig4a_row(&lib, &st, 784, 256, 256);
        assert!(
            row.exo_lib > 2.0 * row.old_lib,
            "exo {:.2} vs old {:.2}",
            row.exo_lib,
            row.old_lib
        );
        assert!(
            row.hardware >= row.exo_lib,
            "hw {:.2} vs exo {:.2}",
            row.hardware,
            row.exo_lib
        );
        assert!(row.exo_lib > 0.4, "exo too low: {:.2}", row.exo_lib);
    }

    #[test]
    fn fig4b_headline_claims_hold_on_a_sample() {
        let lib = GemminiLib::new();
        let st = fresh_state();
        let row = fig4b_row(&lib, &st, &ConvShape::fig4b(28, 128, 128));
        assert!(
            row.exo_lib > 2.0 * row.old_lib,
            "exo {:.2} vs old {:.2}",
            row.exo_lib,
            row.old_lib
        );
        assert!(row.hardware >= row.exo_lib);
    }

    #[test]
    fn bench_json_file_is_valid_json_lines() {
        let lib = GemminiLib::new();
        let st = fresh_state();
        let row = fig4a_row(&lib, &st, 784, 256, 256);
        let dir = std::env::temp_dir();
        std::env::set_var("EXO_BENCH_DIR", &dir);
        let path = write_bench_json("libtest", &[row.to_json(), solver_stats_json(&st)])
            .expect("write BENCH_libtest.json");
        let text = std::fs::read_to_string(&path).expect("read back");
        assert!(text.lines().count() >= 2);
        let mut saw_stats = false;
        let mut saw_cycles = false;
        for line in text.lines() {
            let v = Json::parse(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e:?}"));
            if let Json::Obj(fields) = &v {
                let get = |k: &str| fields.iter().find(|(n, _)| n == k).map(|(_, v)| v);
                if get("type") == Some(&Json::Str("smt_stats".into())) {
                    saw_stats = true;
                    assert!(matches!(get("queries"), Some(Json::Int(q)) if *q > 0));
                }
                if get("type") == Some(&Json::Str("util_row".into())) {
                    saw_cycles = matches!(get("exo_cycles"), Some(Json::Int(c)) if *c > 0);
                }
            } else {
                panic!("non-object line: {line}");
            }
        }
        assert!(saw_stats, "no smt_stats record in the export");
        assert!(saw_cycles, "no cycle count in the util row");
        std::fs::remove_file(&path).ok();
    }
}
