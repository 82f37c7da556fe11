//! Command-line entry point of the exo-rs benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <gemmini-fig4a|x86-oracle|schedule-cold|lint-cold> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with the program's shipped
//! defaults (obs registry on, benchmark spans off). `--trace 1` makes the
//! traced run instead: benchmark spans on, per-layer metrics out, the
//! Chrome trace written to `perfbench/out/trace_<workload>.json`, and the
//! observability tax measured on a second instance. The last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`;
//! the line before it holds the run's metadata (commit, host, counts).
//!
//! `--setup-only 1` (used internally) sets the workload up once in this
//! fresh process and prints only the scaled set-up time, in seconds.

use std::path::Path;
use std::process::{Command, ExitCode};

use exo_obs::Json;
use exo_perfbench::{obs_tax, percentile, run, set_up, Layer, Outcome, Start, Workload};

/// The percentile reported as `op_ms_tail`.
const TAIL_PERCENTILE: f64 = 90.0;
/// Fresh processes that each time one more set-up; `setup_s` is the
/// median over them and this process.
const SETUP_CHILDREN: usize = 4;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut setup_only) = (1u64, 10.0f64, false, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" | "--setup-only" => {
                let on = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                };
                if flag == "--trace" {
                    trace = on;
                } else {
                    setup_only = on;
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds}: expected 0 < s <= 600"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        setup_only,
    })
}

/// Refuses to measure a different program than the one users run.
fn guard() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("debug build: measure a release build (cargo run --release)".into());
    }
    if std::env::var_os("EXO_CHAOS").is_some_and(|v| !v.is_empty()) || exo_chaos::armed() {
        return Err("EXO_CHAOS is set: fault injection would be measured".into());
    }
    if std::env::var("EXO_CHECK_CACHE").is_ok_and(|v| v == "0") {
        return Err("EXO_CHECK_CACHE=0: the verdict cache would be off".into());
    }
    Ok(())
}

/// The checked-out commit, read from `.git` in the working directory.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(name)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn metric(name: &str, value: f64, unit: &str) -> (String, Json) {
    (
        name.to_string(),
        Json::obj(vec![
            ("value".into(), Json::Float(value)),
            ("unit".into(), Json::Str(unit.into())),
        ]),
    )
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// One more set-up time from each of [`SETUP_CHILDREN`] fresh processes.
fn child_setups(args: &Args) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let seed = args.seed.to_string();
    (0..SETUP_CHILDREN)
        .map(|_| {
            let out = Command::new(&exe)
                .args(["--workload", args.workload.name(), "--seed", &seed])
                .args(["--setup-only", "1"])
                .output()
                .map_err(|e| e.to_string())?;
            let text = String::from_utf8_lossy(&out.stdout);
            match (out.status.success(), text.trim().parse::<f64>()) {
                (true, Ok(s)) => Ok(s),
                _ => Err(format!(
                    "set-up child failed: {}",
                    String::from_utf8_lossy(&out.stderr).trim()
                )),
            }
        })
        .collect()
}

/// The end-to-end metrics; the `gen_*` ones are left out when the census
/// is incomplete (the run is then also not `correct`).
fn end_to_end(o: &mut Outcome, setups: &mut [f64]) -> Vec<(String, Json)> {
    let ops = o.op_ms.len() as f64;
    let op_s: f64 = o.op_ms.iter().sum::<f64>() / 1e3;
    let mut m = vec![
        metric("setup_s", percentile(setups, 50.0), "s"),
        metric("ops_per_s", ratio(ops, op_s), "1/s"),
        metric("op_ms_p50", percentile(&mut o.op_ms, 50.0), "ms"),
        metric(
            "op_ms_tail",
            percentile(&mut o.op_ms, TAIL_PERCENTILE),
            "ms",
        ),
        metric(
            "ok_ratio",
            ratio((o.attempted - o.failed) as f64, o.attempted as f64),
            "ratio",
        ),
        metric("peak_rss_mb", o.peak_rss_mb, "MB"),
    ];
    if let Some(g) = o.gen {
        m.extend([
            metric("gen_hw_instrs", g.hw_instrs as f64, "count"),
            metric("gen_bytes_moved", g.bytes_moved as f64, "bytes"),
            metric("gen_c_bytes", g.c_bytes as f64, "bytes"),
        ]);
    }
    m
}

/// Per-layer metrics of the traced run: per-op means and shares of the
/// ops' wall time (both unscaled), and the layers' own rates and ratios.
fn per_layer(o: &Outcome, tax: f64, calib_ms: f64) -> Vec<(String, Json)> {
    let p = &o.probe;
    let ops = o.op_ms.len() as f64;
    let per_op = |key: &str| ratio(p.get(key) as f64, ops);
    let ms = |l: Layer| ratio(p.wall(l).as_secs_f64() * 1e3, ops);
    let share = |l: Layer| ratio(p.self_time(l).as_secs_f64(), o.ops_s);
    let secs = |l: Layer| p.wall(l).as_secs_f64();
    let mut m = Vec::new();
    for l in Layer::ALL {
        let name = if l == Layer::Kernels {
            "kernels.old_lib_trace_ms".to_string()
        } else {
            format!("{}.ms", l.name())
        };
        m.push(metric(&name, ms(l), "ms/op"));
        m.push(metric(&format!("{}.share", l.name()), share(l), "share"));
    }
    for l in [Layer::Sched, Layer::Lint] {
        let self_ms = ratio(p.self_time(l).as_secs_f64() * 1e3, ops);
        m.push(metric(&format!("{}.self_ms", l.name()), self_ms, "ms/op"));
    }
    let accounted: f64 = Layer::ALL.iter().map(|&l| share(l)).sum();
    for (key, unit) in [
        ("gemmini_sim.cycles", "count/op"),
        ("gemmini_sim.flushes", "count/op"),
        ("interp.steps", "count/op"),
        ("interp.hw_ops", "count/op"),
        ("smt.queries", "count/op"),
        ("smt.qe_nodes", "count/op"),
        ("smt.gave_up", "count/op"),
        ("smt.cache_hits", "count/op"),
        ("analysis.check_queries", "count/op"),
        ("sched.directives", "count/op"),
        ("lint.loops", "count/op"),
        ("lint.findings", "count/op"),
        ("codegen.c_bytes", "bytes/op"),
        ("x86_sim.fmas", "count/op"),
    ] {
        m.push(metric(key, per_op(key), unit));
    }
    let get = |k: &str| p.get(k) as f64;
    m.extend([
        metric(
            "gemmini_sim.instrs_per_s",
            ratio(get("gemmini_sim.instrs"), secs(Layer::GemminiSim)),
            "1/s",
        ),
        metric(
            "interp.steps_per_s",
            ratio(get("interp.steps"), secs(Layer::Interp)),
            "1/s",
        ),
        metric(
            "front.bytes_per_s",
            ratio(get("front.bytes"), secs(Layer::Front)),
            "bytes/s",
        ),
        metric(
            "analysis.check_hit_ratio",
            ratio(get("analysis.check_hits"), get("analysis.check_queries")),
            "ratio",
        ),
        metric(
            "analysis.effect_memo_hit_ratio",
            ratio(
                get("analysis.effect_hits"),
                get("analysis.effect_hits") + get("analysis.effect_misses"),
            ),
            "ratio",
        ),
        metric(
            "analysis.check_cache_entries",
            get("analysis.check_cache_entries"),
            "count",
        ),
        metric("obs.tax_share", tax, "share"),
        metric("bench.unaccounted_share", 1.0 - accounted, "share"),
        metric("bench.calib_ms", calib_ms, "ms"),
    ]);
    m
}

fn main() -> ExitCode {
    let start = Start::now();
    let args = match parse_args().and_then(|a| guard().map(|()| a)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    if args.setup_only {
        let s = set_up(w, args.seed, start);
        if let Some(e) = s.warm_up_error {
            eprintln!("perfbench: warm-up: {e}");
            return ExitCode::FAILURE;
        }
        println!("{}", s.setup_s);
        return ExitCode::SUCCESS;
    }
    let (mut outcome, metrics, extra_attempted, extra_failed);
    let mut setups = Vec::new();
    if args.trace {
        // half the time for the traced run, half for the tax pairs
        let half = args.seconds / 2.0;
        outcome = run(w, args.seed, half, true, start);
        if let Err(e) = std::fs::create_dir_all("perfbench/out").and_then(|()| {
            exo_obs::Registry::global()
                .write_chrome_trace(Path::new(&format!("perfbench/out/trace_{}.json", w.name())))
        }) {
            eprintln!("perfbench: writing the Chrome trace: {e}");
        }
        let (tax, attempted, failed) = obs_tax(w, args.seed, half);
        let calib_ms = percentile(&mut outcome.reference_ms.clone(), 50.0);
        metrics = per_layer(&outcome, tax, calib_ms);
        (extra_attempted, extra_failed) = (attempted, failed);
    } else {
        outcome = run(w, args.seed, args.seconds, false, start);
        setups.push(outcome.setup_s);
        match child_setups(&args) {
            Ok(s) => setups.extend(s),
            Err(e) => outcome.errors.push(e),
        }
        metrics = end_to_end(&mut outcome, &mut setups);
        (extra_attempted, extra_failed) = (0, 0);
    }
    let ops = outcome.op_ms.len();
    let beyond = ops - (TAIL_PERCENTILE / 100.0 * ops as f64).ceil() as usize;
    let floats = |xs: &[f64]| Json::Arr(xs.iter().map(|&x| Json::Float(x)).collect());
    let meta = Json::obj(vec![(
        "meta".into(),
        Json::obj(vec![
            ("workload".into(), Json::Str(w.name().into())),
            ("seed".into(), Json::uint(args.seed)),
            ("trace".into(), Json::Bool(args.trace)),
            ("commit".into(), Json::Str(commit())),
            (
                "nproc".into(),
                Json::uint(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
            ),
            (
                "calib_ms".into(),
                Json::Float(percentile(&mut outcome.reference_ms.clone(), 50.0)),
            ),
            ("timed_ops".into(), Json::uint(ops as u64)),
            ("cycles".into(), Json::uint(u64::from(outcome.cycles))),
            ("ops_wall_s".into(), Json::Float(outcome.ops_s)),
            ("tail_percentile".into(), Json::Float(TAIL_PERCENTILE)),
            ("tail_samples_beyond".into(), Json::uint(beyond as u64)),
            ("setup_s".into(), floats(&setups)),
            (
                "errors".into(),
                Json::Arr(
                    outcome
                        .errors
                        .iter()
                        .take(5)
                        .map(|e| Json::Str(e.clone()))
                        .collect(),
                ),
            ),
        ]),
    )]);
    for e in outcome.errors.iter().take(5) {
        eprintln!("perfbench: {e}");
    }
    let attempted = outcome.attempted + extra_attempted;
    let failed = outcome.failed + extra_failed;
    let correct = failed == 0 && outcome.errors.is_empty();
    println!("{meta}");
    let result = Json::obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::uint(attempted)),
        ("failed".into(), Json::uint(failed)),
        ("metrics".into(), Json::obj(metrics)),
    ]);
    println!("{result}");
    ExitCode::SUCCESS
}
