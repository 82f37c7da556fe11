//! # exo-perfbench
//!
//! The exo-rs benchmark: four closed-loop, single-threaded workloads that
//! issue one operation ("op") at a time against the toolchain's public
//! API, and report end-to-end metrics (set-up time, op throughput and
//! latency, failures, peak memory, generated-code size) or, in a traced
//! run, how the op time splits across the toolchain's layers.
//!
//! The layer split is measured from outside the program: [`Probe`] times
//! each call into a crate's public functions and reads the statistics the
//! program already exposes (checking-context and solver counters,
//! simulator reports, interpreter step counts). In a traced run it also
//! wraps each call in an `exo_obs::Span`, so the Chrome trace shows the
//! benchmark's layer spans with the program's own spans nested inside.
//!
//! See `README.md` beside this crate for why each workload exists and
//! which layer metric should move which end-to-end metric.

pub mod workloads;

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use exo_analysis::SharedCheckCtx;
use exo_obs::Span;

pub use workloads::{setup, Bench, Gen, Workload};

/// The layers a traced run splits op time into, named after the crates
/// whose public functions the benchmark times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `gemmini-sim`: `Simulator::run`.
    GemminiSim,
    /// `exo-interp`: `Machine::run`.
    Interp,
    /// `exo-smt`: solver time inside scheduling and lint calls, read from
    /// the checking context's `SolverStats::time_us`.
    Smt,
    /// `exo-sched` (with the effect analysis of `exo-analysis`): the
    /// case-study `schedule_*` functions.
    Sched,
    /// `exo-lint`: `lint_proc_with` and `classify_loops`.
    Lint,
    /// `exo-codegen`: `compile_c`.
    Codegen,
    /// `x86-sim`: `simulate_trace` and `profile_proc`.
    X86Sim,
    /// `exo-front` (with the `exo-core` printer): print and re-parse.
    Front,
    /// `exo-kernels` baselines: `old_lib_matmul_trace`.
    Kernels,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 9] = [
        Layer::GemminiSim,
        Layer::Interp,
        Layer::Smt,
        Layer::Sched,
        Layer::Lint,
        Layer::Codegen,
        Layer::X86Sim,
        Layer::Front,
        Layer::Kernels,
    ];

    /// Metric-name prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::GemminiSim => "gemmini_sim",
            Layer::Interp => "interp",
            Layer::Smt => "smt",
            Layer::Sched => "sched",
            Layer::Lint => "lint",
            Layer::Codegen => "codegen",
            Layer::X86Sim => "x86_sim",
            Layer::Front => "front",
            Layer::Kernels => "kernels",
        }
    }
}

/// Per-layer wall time and exact counts gathered while ops run.
#[derive(Clone, Debug, Default)]
pub struct Probe {
    traced: bool,
    wall: [Duration; Layer::ALL.len()],
    /// Solver time spent inside each layer's calls (attributed to
    /// [`Layer::Smt`], subtracted from the caller's self time).
    smt_inside: [Duration; Layer::ALL.len()],
    counts: BTreeMap<&'static str, u64>,
}

impl Probe {
    /// A probe; `traced` also opens an `exo_obs::Span` per layer call.
    pub fn new(traced: bool) -> Probe {
        Probe {
            traced,
            ..Probe::default()
        }
    }

    /// Runs `f` as one call into `layer`, adding its wall time.
    pub fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let _span = self
            .traced
            .then(|| Span::enter(format!("bench.{}", layer.name())));
        let start = Instant::now();
        let out = f();
        self.wall[layer as usize] += start.elapsed();
        out
    }

    /// [`Probe::time`] for a call that discharges obligations through
    /// `check`: the solver time spent inside is attributed to
    /// [`Layer::Smt`], and the solver and checking-context counters are
    /// tallied.
    pub fn time_checked<T>(
        &mut self,
        layer: Layer,
        check: &SharedCheckCtx,
        f: impl FnOnce() -> T,
    ) -> T {
        let (c0, s0) = (check.stats(), check.solver_stats());
        let out = self.time(layer, f);
        let (c1, s1) = (check.stats(), check.solver_stats());
        let smt = Duration::from_micros(s1.time_us.saturating_sub(s0.time_us));
        self.smt_inside[layer as usize] += smt;
        self.wall[Layer::Smt as usize] += smt;
        let d = |a: usize, b: usize| a.saturating_sub(b) as u64;
        self.count("smt.queries", d(s1.queries, s0.queries));
        self.count("smt.qe_nodes", d(s1.nodes, s0.nodes));
        self.count("smt.gave_up", d(s1.gave_up, s0.gave_up));
        self.count("smt.cache_hits", d(s1.cache_hits, s0.cache_hits));
        self.count("analysis.check_queries", d(c1.queries, c0.queries));
        self.count("analysis.check_hits", d(c1.hits, c0.hits));
        self.count("analysis.effect_hits", d(c1.effect_hits, c0.effect_hits));
        self.count(
            "analysis.effect_misses",
            d(c1.effect_misses, c0.effect_misses),
        );
        let entries = self
            .counts
            .entry("analysis.check_cache_entries")
            .or_insert(0);
        *entries = (*entries).max(c1.entries as u64);
        out
    }

    /// Adds `n` to an exact count.
    pub fn count(&mut self, key: &'static str, n: u64) {
        *self.counts.entry(key).or_insert(0) += n;
    }

    /// An exact count (0 if never touched).
    pub fn get(&self, key: &str) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// Total wall time spent in `layer`'s calls (for [`Layer::Smt`], the
    /// solver's own decision time).
    pub fn wall(&self, layer: Layer) -> Duration {
        self.wall[layer as usize]
    }

    /// `layer`'s wall time minus the solver time spent inside it.
    pub fn self_time(&self, layer: Layer) -> Duration {
        self.wall[layer as usize].saturating_sub(self.smt_inside[layer as usize])
    }
}

/// The timed cycle after which `peak_rss_mb` is read (or the last cycle,
/// if the run ends sooner). Every 20 s run does at least 9 cycles on
/// every workload, so the figure counts the same ops whatever the
/// throughput, including the state each op leaves behind.
pub const RSS_CYCLES: u32 = 5;

/// What one run measured. Op and set-up times are scaled to the host
/// speed at which [`reference_ms`] takes [`REFERENCE_MS`] (see
/// [`reference_ms`] for why).
#[derive(Debug)]
pub struct Outcome {
    /// Scaled set-up time, s: process start to the end of the warm-up op.
    pub setup_s: f64,
    /// Scaled time of every timed op, ms.
    pub op_ms: Vec<f64>,
    /// Unscaled wall time of the timed ops (reference loops excluded), s.
    pub ops_s: f64,
    /// Every reference-loop time taken, ms.
    pub reference_ms: Vec<f64>,
    /// Peak resident set size after [`RSS_CYCLES`] timed cycles, MB.
    pub peak_rss_mb: f64,
    /// Complete cycles the timed loop ran.
    pub cycles: u32,
    /// Ops attempted, the warm-up op and one census per item included.
    pub attempted: u64,
    /// Ops and censuses whose output check failed, that returned an
    /// error, or that panicked.
    pub failed: u64,
    /// Failure messages (op failures, then census failures).
    pub errors: Vec<String>,
    /// Layer times and counts of the timed ops.
    pub probe: Probe,
    /// Generated-code census over the workload's items; `None` if any
    /// item's census failed, so a missing item never reads as smaller
    /// generated code.
    pub gen: Option<Gen>,
}

/// The time [`reference_ms`] takes on a quiet host, ms: reported times
/// are scaled to this host speed.
pub const REFERENCE_MS: f64 = 1.0;

/// Runs a fixed allocation- and hashing-heavy loop and returns its wall
/// time, ms: 3000 formatted strings inserted into a `BTreeMap` under
/// seeded keys, 3000 appends into a `HashMap` over 700 string keys, and
/// a clone of that map.
///
/// On a shared host the same op can take 1.7× longer for seconds at a
/// time while neighbours compete for the core and its caches. This loop
/// slows down with the host in step with the toolchain's own allocation-
/// and pointer-heavy code, so each op is timed between two runs of it
/// and scaled by `REFERENCE_MS / mean(before, after)`: the scaled time
/// tracks the program, not the neighbours. The loop is benchmark code;
/// no change to the program changes it.
pub fn reference_ms() -> f64 {
    let start = Instant::now();
    let mut rng = Rng::new(black_box(3));
    let mut tree = BTreeMap::new();
    for i in 0..3000u32 {
        tree.insert(rng.next_u64(), format!("k{i}"));
    }
    // a fixed-key hasher, so every run does the same work
    let mut table: HashMap<String, Vec<u32>, BuildHasherDefault<DefaultHasher>> =
        HashMap::default();
    for i in 0..3000u32 {
        table
            .entry(format!("s{}", rng.below(700)))
            .or_default()
            .push(i);
    }
    black_box((&tree, table.clone()));
    start.elapsed().as_secs_f64() * 1e3
}

/// Scale factor for a span of work bracketed by two reference loops.
fn scale(before_ms: f64, after_ms: f64) -> f64 {
    REFERENCE_MS / ((before_ms + after_ms) / 2.0)
}

/// Process start, and the reference loop timed right after it (the
/// first bracket of the set-up time).
#[derive(Clone, Copy, Debug)]
pub struct Start {
    at: Instant,
    reference_ms: f64,
}

impl Start {
    /// Call first thing in `main`.
    pub fn now() -> Start {
        let at = Instant::now();
        Start {
            at,
            reference_ms: reference_ms(),
        }
    }
}

/// Runs one op under `catch_unwind`, so a panic counts as a failed op.
fn attempt(bench: &mut dyn Bench, item: usize, probe: &mut Probe) -> Result<(), String> {
    match catch_unwind(AssertUnwindSafe(|| bench.op(item, probe))) {
        Ok(r) => r,
        Err(payload) => Err(panic_message(&payload)),
    }
}

/// One op between two reference loops: `(wall s, scaled ms, result)`.
fn timed_op(
    bench: &mut dyn Bench,
    item: usize,
    probe: &mut Probe,
    refs: &mut Vec<f64>,
) -> (f64, f64, Result<(), String>) {
    let before = reference_ms();
    let start = Instant::now();
    let r = attempt(bench, item, probe);
    let wall = start.elapsed().as_secs_f64();
    let after = reference_ms();
    refs.extend([before, after]);
    (wall, wall * 1e3 * scale(before, after), r)
}

fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    let msg = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("non-string payload");
    format!("panic: {msg}")
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A set-up workload instance and how long setting it up took.
pub struct SetUp {
    /// The instance, warmed up.
    pub bench: Box<dyn Bench>,
    /// Scaled set-up time, s: process start to the end of the warm-up op.
    pub setup_s: f64,
    /// The two reference loops bracketing the set-up, ms.
    pub reference_ms: [f64; 2],
    /// Why the warm-up op failed, if it did.
    pub warm_up_error: Option<String>,
}

/// Sets `w` up, runs one untimed warm-up op on item 0, and times both
/// from `start`.
pub fn set_up(w: Workload, seed: u64, start: Start) -> SetUp {
    let mut bench = setup(w, seed);
    let warm_up_error = attempt(bench.as_mut(), 0, &mut Probe::new(false)).err();
    // the first reference loop ran inside the set-up window
    let setup_s = start.at.elapsed().as_secs_f64() - start.reference_ms / 1e3;
    let after = reference_ms();
    SetUp {
        bench,
        setup_s: setup_s * scale(start.reference_ms, after),
        reference_ms: [start.reference_ms, after],
        warm_up_error,
    }
}

/// Sets `w` up (see [`set_up`]); then runs the timed loop, where each
/// cycle issues every item once, in a fresh seeded order, until `seconds`
/// have passed (checked after each whole cycle, so `0.0` runs exactly
/// one); finally takes the generated-code census, untimed.
pub fn run(w: Workload, seed: u64, seconds: f64, traced: bool, start: Start) -> Outcome {
    let SetUp {
        mut bench,
        setup_s,
        reference_ms,
        warm_up_error,
    } = set_up(w, seed, start);
    let mut out = Outcome {
        setup_s,
        op_ms: Vec::new(),
        ops_s: 0.0,
        reference_ms: reference_ms.to_vec(),
        peak_rss_mb: 0.0,
        cycles: 0,
        attempted: 1,
        failed: u64::from(warm_up_error.is_some()),
        errors: warm_up_error
            .map(|e| format!("warm-up: {e}"))
            .into_iter()
            .collect(),
        probe: Probe::new(traced),
        gen: None,
    };

    let mut rng = Rng::new(seed);
    let mut order: Vec<usize> = (0..bench.items()).collect();
    let loop_start = Instant::now();
    loop {
        rng.shuffle(&mut order);
        for &item in &order {
            let (wall, ms, r) =
                timed_op(bench.as_mut(), item, &mut out.probe, &mut out.reference_ms);
            out.ops_s += wall;
            out.op_ms.push(ms);
            out.attempted += 1;
            if let Err(e) = r {
                out.failed += 1;
                out.errors.push(e);
            }
        }
        out.cycles += 1;
        let done = loop_start.elapsed().as_secs_f64() >= seconds;
        if out.cycles == RSS_CYCLES || (done && out.cycles < RSS_CYCLES) {
            out.peak_rss_mb = peak_rss_mb();
        }
        if done {
            break;
        }
    }

    let mut gen = Gen::default();
    let mut complete = true;
    for item in 0..bench.items() {
        out.attempted += 1;
        let err = match catch_unwind(AssertUnwindSafe(|| bench.census(item))) {
            Ok(Ok(g)) => {
                gen.add(&g);
                continue;
            }
            Ok(Err(e)) => e,
            Err(p) => panic_message(&p),
        };
        complete = false;
        out.failed += 1;
        out.errors.push(format!("census: {err}"));
    }
    out.gen = complete.then_some(gen);
    out
}

/// Measures the observability tax: pairs of cycles over the same item
/// order, one with the global `exo_obs::Registry` enabled and one with
/// it disabled (which half goes first alternates), until `seconds` have
/// passed (at least two pairs). Returns `(enabled − disabled) / enabled`
/// over the summed scaled op times, plus the ops attempted and failed.
pub fn obs_tax(w: Workload, seed: u64, seconds: f64) -> (f64, u64, u64) {
    let registry = exo_obs::Registry::global();
    let mut bench = setup(w, seed);
    let mut rng = Rng::new(seed ^ 0x0b5_7a5);
    let mut order: Vec<usize> = (0..bench.items()).collect();
    let (mut on, mut off) = (0.0, 0.0);
    let (mut attempted, mut failed) = (0, 0);
    let mut refs = Vec::new();
    let start = Instant::now();
    let mut pairs = 0;
    while pairs < 2 || start.elapsed().as_secs_f64() < seconds {
        rng.shuffle(&mut order);
        let first = pairs % 2 == 0;
        for enabled in [first, !first] {
            registry.set_enabled(enabled);
            for &item in &order {
                let (_, ms, r) = timed_op(bench.as_mut(), item, &mut Probe::new(false), &mut refs);
                attempted += 1;
                failed += u64::from(r.is_err());
                if enabled {
                    on += ms;
                } else {
                    off += ms;
                }
            }
        }
        pairs += 1;
    }
    registry.set_enabled(true);
    ((on - off) / on, attempted, failed)
}

/// The `p`-th percentile of `xs` (linear interpolation between order
/// statistics); 0 for an empty slice. Sorts `xs`.
pub fn percentile(xs: &mut [f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let pos = p / 100.0 * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// SplitMix64: the benchmark's seeded generator (inputs and op order).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}
