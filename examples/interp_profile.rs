//! Profiles the interpreter on the kernels of the `x86-oracle`
//! benchmark workload:
//!
//! ```sh
//! cargo run --release --example interp_profile [REPS]
//! ```
//!
//! Schedules the workload's four SGEMMs and its CONV as the benchmark
//! does, then runs each item's naive proc, its scheduled proc and the
//! scheduled proc with instruction bodies skipped (a timing-only trace)
//! `REPS` times (default 30) on dyadic inputs. It prints the median time
//! of each, `steps()`, the trace length and the buffers each run
//! allocated (its executed `Alloc`s and scalar temporaries). Then it
//! times a flat store loop `z[i] += x[i] * y[i]` over 4 to 128 lanes and
//! prints the least-squares fit of one loop's time: a fixed part plus a
//! part per element.
//!
//! Times are scaled the way the benchmark scales them: each measurement
//! sits between two runs of a fixed allocation- and hashing-heavy
//! reference loop, like the benchmark's, and is multiplied by
//! `1 ms / mean(before, after)`, so they are in "ns at a 1 ms reference
//! loop" and track the program rather than the load on the host.
//!
//! Exits 1 if a scheduled output differs from the naive one.

use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use exo::hwlibs::Avx512Lib;
use exo::kernels::gemmini_conv::ConvShape;
use exo::kernels::schedlib::{conv_args, gemm_args, TensorArg};
use exo::kernels::x86_conv::{naive_conv_f32, schedule_conv_avx512};
use exo::kernels::x86_gemm::{naive_sgemm, schedule_sgemm};
use exo::prelude::*;
use exo::sched::SchedState;

/// The reference loop: 3000 formatted strings inserted into a `BTreeMap`
/// under seeded keys, 3000 appends into a `HashMap` over 700 string keys
/// with a fixed-key hasher, and a clone of that map. Returns its time, ms.
fn reference_ms() -> f64 {
    let start = Instant::now();
    let mut seed = black_box(3u64);
    let mut next = move || {
        seed = seed
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        seed >> 17
    };
    let mut tree = BTreeMap::new();
    for i in 0..3000u32 {
        tree.insert(next(), format!("k{i}"));
    }
    let mut table: HashMap<String, Vec<u32>, BuildHasherDefault<std::hash::DefaultHasher>> =
        HashMap::default();
    for i in 0..3000u32 {
        table
            .entry(format!("s{}", next() % 700))
            .or_default()
            .push(i);
    }
    black_box((&tree, table.clone()));
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs `f` `reps` times and returns its median time, ns, scaled by the
/// reference loop around the whole set.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let before = reference_ms();
    let mut times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e9
        })
        .collect();
    let after = reference_ms();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2] / ((before + after) / 2.0)
}

/// Multiples of 1/8 in [-2, 2] from a fixed linear congruential stream:
/// every partial sum of these kernels is exact in f32, so the scheduled
/// output must equal the naive one bit for bit.
fn dyadic(len: usize, seed: &mut u64) -> Vec<f64> {
    (0..len)
        .map(|_| {
            *seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((*seed >> 33) % 33) as f64 / 8.0 - 2.0
        })
        .collect()
}

/// One run: the machine it leaves and its output's values.
fn run(proc: &Proc, args: &[TensorArg], data: &[Vec<f64>], bodies: bool) -> (Machine, Vec<f64>) {
    let mut m = Machine::new();
    m.execute_instr_bodies = bodies;
    let ids: Vec<_> = args
        .iter()
        .zip(data)
        .map(|((name, dtype, shape), d)| m.alloc_extern(name, *dtype, shape, d))
        .collect();
    let actuals: Vec<ArgVal> = ids.iter().map(|&id| ArgVal::Tensor(id)).collect();
    m.run(proc, &actuals).expect("kernel runs");
    let out = match bodies {
        true => m.buffer_values(ids[ids.len() - 1]).expect("output written"),
        false => Vec::new(),
    };
    (m, out)
}

/// One workload item: its naive and scheduled procs and their tensor
/// arguments (the output last).
struct Item {
    label: String,
    naive: Arc<Proc>,
    scheduled: Arc<Proc>,
    args: Vec<TensorArg>,
}

/// `p(x, y, z: f32[lanes])`: `for r < reps: for i < lanes: z[i] += x[i] * y[i]`.
fn flat_loop(lanes: i64, reps: i64) -> Arc<Proc> {
    let mut b = ProcBuilder::new("flat");
    let [x, y, z] = ["x", "y", "z"].map(|n| b.tensor(n, DataType::F32, vec![Expr::int(lanes)]));
    b.begin_for("r", Expr::int(0), Expr::int(reps));
    let i = b.begin_for("i", Expr::int(0), Expr::int(lanes));
    let at = || vec![Expr::var(i)];
    b.reduce(z, at(), read(x, at()).mul(read(y, at())));
    b.end_for().end_for();
    b.finish()
}

/// The least-squares line `y = a + b·x`.
fn fit(points: &[(f64, f64)]) -> (f64, f64) {
    let n = points.len() as f64;
    let (sx, sy) = points
        .iter()
        .fold((0.0, 0.0), |(sx, sy), (x, y)| (sx + x, sy + y));
    let (mx, my) = (sx / n, sy / n);
    let sxy: f64 = points.iter().map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = points.iter().map(|(x, _)| (x - mx) * (x - mx)).sum();
    let b = sxy / sxx;
    (my - b * mx, b)
}

fn main() -> ExitCode {
    let reps: usize = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("REPS is a count"))
        .unwrap_or(30);
    let lib = Avx512Lib::new();
    let state = || Arc::new(Mutex::new(SchedState::default()));
    let conv = ConvShape {
        batch: 1,
        out_dim: 4,
        oc: 32,
        ic: 16,
        kdim: 3,
    };
    let mut items = Vec::new();
    for (m, n, k) in [(12, 128, 32), (6, 128, 64), (18, 128, 24), (12, 192, 24)] {
        let p = schedule_sgemm(&lib, &state(), m, n, k, 6, 64).expect("schedule");
        items.push(Item {
            label: format!("sgemm_{m}x{n}x{k}"),
            naive: naive_sgemm(m, n, k),
            scheduled: p.proc().clone(),
            args: gemm_args(m, n, k, DataType::F32, DataType::F32).to_vec(),
        });
    }
    let p = schedule_conv_avx512(&lib, &state(), &conv, 4).expect("schedule");
    items.push(Item {
        label: "conv_o4_oc32_ic16".into(),
        naive: naive_conv_f32(&conv),
        scheduled: p.proc().clone(),
        args: conv_args(&conv, DataType::F32, DataType::F32).to_vec(),
    });

    println!("interpreter time per run, µs (median of {reps}, at a 1 ms reference loop), steps(), trace length and buffers allocated:");
    println!(
        "{:<20} {:>9} {:>9} {:>9} {:>11} {:>11} {:>6} {:>7}",
        "item", "naive", "sched", "no-body", "naive steps", "sched steps", "trace", "allocs"
    );
    let mut same = true;
    let mut seed = 3;
    for Item {
        label,
        naive,
        scheduled,
        args,
    } in &items
    {
        let data: Vec<Vec<f64>> = args
            .iter()
            .map(|(_, _, shape)| dyadic(shape.iter().product(), &mut seed))
            .collect();
        let (naive_m, want) = run(naive, args, &data, true);
        let (sched_m, got) = run(scheduled, args, &data, true);
        if got != want {
            eprintln!("{label}: scheduled output differs from naive");
            same = false;
        }
        let time = |p: &Proc, bodies| median_ns(reps, || drop(run(p, args, &data, bodies))) / 1e3;
        println!(
            "{label:<20} {:>9.1} {:>9.1} {:>9.1} {:>11} {:>11} {:>6} {:>7}",
            time(naive, true),
            time(scheduled, true),
            time(scheduled, false),
            naive_m.steps(),
            sched_m.steps(),
            sched_m.trace().len(),
            sched_m.buffers().len() - args.len(),
        );
    }

    const SWEEPS: i64 = 256;
    let mut points = Vec::new();
    for lanes in [4, 8, 16, 32, 64, 128] {
        let p = flat_loop(lanes, SWEEPS);
        let args: Vec<TensorArg> = ["x", "y", "z"]
            .map(|n| (n, DataType::F32, vec![lanes as usize]))
            .to_vec();
        let data = vec![dyadic(lanes as usize, &mut seed); 3];
        let ns = median_ns(reps, || drop(run(&p, &args, &data, true))) / SWEEPS as f64;
        points.push((lanes as f64, ns));
    }
    let (fixed, per) = fit(&points);
    println!();
    println!("flat store loop z[i] += x[i] * y[i], ns per loop (median of {reps}, {SWEEPS} loops a run):");
    for (lanes, ns) in &points {
        println!("  {lanes:>4} lanes {ns:>8.1}");
    }
    println!("  fit: {fixed:.1} ns fixed + {per:.2} ns per element");

    if same {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
