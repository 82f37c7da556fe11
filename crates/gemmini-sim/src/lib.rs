//! # gemmini-sim
//!
//! A cycle-approximate simulator for a Gemmini-class accelerator
//! (16×16 weight-stationary systolic array, 256 KiB scratchpad, 64 KiB
//! accumulator), standing in for the RTL/FireSim measurements of paper
//! §7.1 (Fig. 4).
//!
//! The model captures exactly the mechanisms the paper's evaluation
//! turns on:
//!
//! * **Decoupled queues** — loads (`mvin*`), execution (`matmul`,
//!   `zero_acc`), and stores (`mvout*`) issue to three in-order queues
//!   that run concurrently; data dependencies (RAW/WAW/WAR on scratchpad
//!   and accumulator ranges) are what actually serialize them. Good
//!   schedules overlap data movement with compute.
//! * **Configuration flushes** — `config_ld`/`config_st` wait for *all*
//!   in-flight operations and stall the pipe (paper §2: "instructions to
//!   configure such state usually flush the accelerator pipeline"), so
//!   hoisting configuration writes out of loops (§2.4) is visible as a
//!   large utilization gain.
//! * **Software dispatch cost** — each instruction is issued by the host
//!   CPU; the per-instruction cost bounds software scheduling. The
//!   *hardware loop unroller* mode ([`SimConfig::hardware_unroller`])
//!   removes it, modeling Gemmini's optional dynamically-scheduled
//!   hardware at extra area/power — it should outperform even the best
//!   software schedule, as in Fig. 4.

// Panic-free library surface: input-reachable failures must be typed
// errors, not aborts. Unit tests may unwrap freely.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::HashMap;

use exo_core::budget::ResourceBudget;
#[cfg(test)]
use exo_interp::TraceArg;
use exo_interp::{HwOp, TensorRef};

mod report;
pub use report::{SimReport, UnitBusy};

/// The systolic array dimension.
pub const DIM: u64 = 16;
/// Peak multiply-accumulates per cycle (16×16 PEs).
pub const PEAK_MACS_PER_CYCLE: u64 = DIM * DIM;

/// Timing parameters of the simulated accelerator.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Host cycles to dispatch one instruction (RoCC issue + loop
    /// overhead in the surrounding C code). Zero in hardware-unroller
    /// mode.
    pub dispatch_cost: u64,
    /// Cycles a configuration instruction stalls after draining.
    pub flush_cost: u64,
    /// DMA startup cycles per `mvin`/`mvout`.
    pub dma_startup: u64,
    /// DMA bus width in bytes per cycle.
    pub bus_bytes: u64,
    /// Issue-to-issue cycles of one systolic-array pass (weight preload
    /// overlapped with compute when back-to-back).
    pub matmul_interval: u64,
    /// Extra cycles for the first pass after the pipe was idle.
    pub matmul_startup: u64,
}

impl SimConfig {
    /// The software-controlled accelerator (both the handwritten library
    /// and exo-rs schedules run in this mode).
    pub fn software() -> SimConfig {
        SimConfig {
            dispatch_cost: 6,
            flush_cost: 40,
            dma_startup: 10,
            bus_bytes: 16,
            matmul_interval: DIM + 2,
            matmul_startup: 2 * DIM,
        }
    }

    /// Gemmini's optional hardware loop unrollers: dedicated hardware
    /// dispatches the inner loops, removing the per-instruction host
    /// cost and most startup overhead (at the cost of chip area/power
    /// and scheduling flexibility — paper §7.1).
    pub fn hardware_unroller() -> SimConfig {
        SimConfig {
            dispatch_cost: 0,
            flush_cost: 40,
            dma_startup: 2,
            bus_bytes: 16,
            matmul_interval: DIM,
            matmul_startup: DIM,
        }
    }
}

/// Which functional unit an instruction occupies.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Unit {
    /// DMA load engine (`mvin`, `mvin_acc`).
    Load,
    /// Systolic array (`matmul`, `zero_acc`).
    Execute,
    /// DMA store engine (`mvout`).
    Store,
}

impl Unit {
    /// Stable lowercase name (used in JSON reports).
    pub fn name(self) -> &'static str {
        match self {
            Unit::Load => "load",
            Unit::Execute => "execute",
            Unit::Store => "store",
        }
    }
}

#[derive(Clone, Debug)]
struct Access {
    buf: usize,
    lo: u64,
    hi: u64, // exclusive
    time: u64,
}

fn overlaps(a: &Access, buf: usize, lo: u64, hi: u64) -> bool {
    a.buf == buf && a.lo < hi && lo < a.hi
}

/// The simulator.
#[derive(Debug)]
pub struct Simulator {
    cfg: SimConfig,
    cpu_time: u64,
    unit_free: HashMap<Unit, u64>,
    unit_busy: HashMap<Unit, u64>,
    writers: Vec<Access>,
    readers: Vec<Access>,
    last_flush: u64,
    finish: u64,
    macs: u64,
    instructions: u64,
    flushes: u64,
    bytes_moved: u64,
    budget: ResourceBudget,
}

impl Simulator {
    /// Creates a simulator with the given timing model.
    pub fn new(cfg: SimConfig) -> Simulator {
        Simulator {
            cfg,
            cpu_time: 0,
            unit_free: HashMap::new(),
            unit_busy: HashMap::new(),
            writers: Vec::new(),
            readers: Vec::new(),
            last_flush: 0,
            finish: 0,
            macs: 0,
            instructions: 0,
            flushes: 0,
            bytes_moved: 0,
            budget: ResourceBudget::unlimited(),
        }
    }

    /// Installs a fuel/deadline pool on the instruction loop (one unit per
    /// trace instruction). Exhaustion stops simulation early and marks the
    /// report [`SimReport::truncated`] instead of hanging on a runaway
    /// trace.
    pub fn with_budget(mut self, budget: ResourceBudget) -> Simulator {
        self.budget = budget;
        self
    }

    /// Runs a full instruction trace and produces the report.
    pub fn run(mut self, trace: &[HwOp]) -> SimReport {
        let span = exo_obs::Span::enter("gemmini_sim.run");
        exo_obs::counter_add("gemmini_sim.runs", 1);
        let mut truncated = false;
        for op in trace {
            if self.budget.charge(1).is_err() {
                exo_obs::counter_add("gemmini_sim.budget_stops", 1);
                truncated = true;
                break;
            }
            self.step(op);
        }
        let cycles = self.finish.max(self.cpu_time).max(1);
        let util = self.macs as f64 / (cycles * PEAK_MACS_PER_CYCLE) as f64;
        drop(
            span.with_field("instructions", exo_obs::Json::uint(self.instructions))
                .with_field("cycles", exo_obs::Json::uint(cycles))
                .with_field("utilization", exo_obs::Json::Float(util)),
        );
        SimReport {
            cycles,
            macs: self.macs,
            utilization: util,
            instructions: self.instructions,
            flushes: self.flushes,
            bytes_moved: self.bytes_moved,
            truncated,
            busy: self
                .unit_busy
                .iter()
                .map(|(&u, &b)| UnitBusy {
                    unit: u,
                    busy_cycles: b,
                })
                .collect(),
        }
    }

    fn step(&mut self, op: &HwOp) {
        self.instructions += 1;
        match op.instr.as_str() {
            s if s.starts_with("gemmini_config") => self.config(),
            s if s.starts_with("gemmini_mvin") => {
                self.dma(op, Unit::Load);
            }
            s if s.starts_with("gemmini_mvout") => {
                self.dma(op, Unit::Store);
            }
            "gemmini_zero_acc" => self.zero(op),
            "gemmini_matmul" => self.matmul(op),
            _ => {
                // unknown instructions execute as 1-cycle no-ops on the
                // execute queue (e.g. fences, prefetch escape hatches)
                let issue = self.issue(1);
                let start = issue.max(self.unit_available(Unit::Execute));
                self.complete(Unit::Execute, start, 1);
            }
        }
    }

    fn issue(&mut self, n_instrs: u64) -> u64 {
        self.cpu_time += self.cfg.dispatch_cost * n_instrs;
        self.cpu_time
    }

    fn unit_available(&self, u: Unit) -> u64 {
        self.unit_free
            .get(&u)
            .copied()
            .unwrap_or(0)
            .max(self.last_flush)
    }

    fn complete(&mut self, u: Unit, start: u64, cost: u64) -> u64 {
        let end = start + cost;
        self.unit_free.insert(u, end);
        *self.unit_busy.entry(u).or_insert(0) += cost;
        self.finish = self.finish.max(end);
        end
    }

    fn config(&mut self) {
        // drain everything, then stall
        let issue = self.issue(1);
        let drain = self
            .unit_free
            .values()
            .copied()
            .max()
            .unwrap_or(0)
            .max(issue);
        self.last_flush = drain + self.cfg.flush_cost;
        self.cpu_time = self.cpu_time.max(self.last_flush);
        self.finish = self.finish.max(self.last_flush);
        self.flushes += 1;
    }

    fn dma(&mut self, op: &HwOp, unit: Unit) -> u64 {
        let (reads, writes, bytes, rows) = dma_ranges(op);
        self.bytes_moved += bytes;
        let issue = self.issue(1);
        let dep = self.dep_time(&reads, &writes);
        let start = issue.max(self.unit_available(unit)).max(dep);
        let cost = self.cfg.dma_startup
            + rows * ((bytes / rows.max(1)).div_ceil(self.cfg.bus_bytes)).max(1);
        let end = self.complete(unit, start, cost);
        self.note(&reads, &writes, end);
        end
    }

    fn zero(&mut self, op: &HwOp) {
        let writes = tensor_ranges(op, &["dst"]);
        let issue = self.issue(1);
        let dep = self.dep_time(&[], &writes);
        let start = issue.max(self.unit_available(Unit::Execute)).max(dep);
        let end = self.complete(Unit::Execute, start, 2);
        self.note(&[], &writes, end);
    }

    fn matmul(&mut self, op: &HwOp) {
        let n = op.int_arg("n").unwrap_or(DIM as i64) as u64;
        let m = op.int_arg("m").unwrap_or(DIM as i64) as u64;
        let k = op.int_arg("k").unwrap_or(DIM as i64) as u64;
        self.macs += n * m * k;
        let reads = tensor_ranges(op, &["a", "b"]);
        let writes = tensor_ranges(op, &["c"]);
        // preload + compute are two host instructions
        let issue = self.issue(2);
        let dep = self.dep_time(&reads, &writes);
        let avail = self.unit_available(Unit::Execute);
        let idle = dep.max(issue) > avail;
        let start = issue.max(avail).max(dep);
        let cost = if idle {
            self.cfg.matmul_startup
        } else {
            self.cfg.matmul_interval
        };
        let end = self.complete(Unit::Execute, start, cost);
        self.note(&reads, &writes, end);
    }

    /// Earliest start permitted by data dependencies: RAW (our reads wait
    /// on overlapping writers), WAW and WAR (our writes wait on
    /// overlapping writers and readers).
    fn dep_time(&self, reads: &[(usize, u64, u64)], writes: &[(usize, u64, u64)]) -> u64 {
        let mut t = 0;
        for &(buf, lo, hi) in reads {
            for w in &self.writers {
                if overlaps(w, buf, lo, hi) {
                    t = t.max(w.time);
                }
            }
        }
        for &(buf, lo, hi) in writes {
            for w in &self.writers {
                if overlaps(w, buf, lo, hi) {
                    t = t.max(w.time);
                }
            }
            for r in &self.readers {
                if overlaps(r, buf, lo, hi) {
                    t = t.max(r.time);
                }
            }
        }
        t
    }

    fn note(&mut self, reads: &[(usize, u64, u64)], writes: &[(usize, u64, u64)], end: u64) {
        for &(buf, lo, hi) in reads {
            self.readers.push(Access {
                buf,
                lo,
                hi,
                time: end,
            });
        }
        for &(buf, lo, hi) in writes {
            self.writers.push(Access {
                buf,
                lo,
                hi,
                time: end,
            });
        }
        // prune to bound cost on long traces
        if self.writers.len() > 4096 {
            let horizon = self.finish.saturating_sub(10_000);
            self.writers.retain(|a| a.time > horizon);
        }
        if self.readers.len() > 4096 {
            let horizon = self.finish.saturating_sub(10_000);
            self.readers.retain(|a| a.time > horizon);
        }
    }
}

/// The (buffer, linear range) footprint of one tensor argument.
fn footprint(t: &TensorRef) -> (usize, u64, u64) {
    let mut span = 1u64;
    for (&n, &s) in t.shape.iter().zip(&t.strides) {
        if n > 0 {
            span += (n as u64 - 1) * s as u64;
        }
    }
    (t.buf.0, t.base_offset as u64, t.base_offset as u64 + span)
}

/// A set of `(buffer id, start byte, end byte)` footprints.
type Ranges = Vec<(usize, u64, u64)>;

fn tensor_ranges(op: &HwOp, names: &[&str]) -> Ranges {
    names
        .iter()
        .filter_map(|n| op.tensor_arg(n).map(footprint))
        .collect()
}

/// Classifies a DMA op: (reads, writes, total bytes, rows).
fn dma_ranges(op: &HwOp) -> (Ranges, Ranges, u64, u64) {
    let src = op.tensor_arg("src");
    let dst = op.tensor_arg("dst");
    let reads: Vec<_> = src.map(footprint).into_iter().collect();
    let writes: Vec<_> = dst.map(footprint).into_iter().collect();
    let elem = src
        .or(dst)
        .map(|t| t.dtype.size_bytes() as u64)
        .unwrap_or(1);
    let volume: u64 = src
        .or(dst)
        .map(|t| t.shape.iter().product::<usize>() as u64)
        .unwrap_or(0);
    let rows = src
        .or(dst)
        .and_then(|t| t.shape.first().copied())
        .unwrap_or(1)
        .max(1) as u64;
    (reads, writes, volume * elem, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_core::types::{DataType, MemName};
    use exo_interp::BufId;

    fn tensor(buf: usize, offset: usize, shape: &[usize], strides: &[usize]) -> TraceArg {
        TraceArg::Tensor(TensorRef {
            buf: BufId(buf),
            mem: MemName::dram(),
            dtype: DataType::I8,
            base_offset: offset,
            shape: shape.to_vec(),
            strides: strides.to_vec(),
        })
    }

    fn mvin(buf_src: usize, buf_dst: usize, dst_off: usize) -> HwOp {
        HwOp {
            instr: "gemmini_mvin".into(),
            args: vec![
                ("n".into(), TraceArg::Int(16)),
                ("m".into(), TraceArg::Int(16)),
                ("src".into(), tensor(buf_src, 0, &[16, 16], &[128, 1])),
                ("dst".into(), tensor(buf_dst, dst_off, &[16, 16], &[16, 1])),
            ],
        }
    }

    fn matmul(a: (usize, usize), b: (usize, usize), c: (usize, usize)) -> HwOp {
        HwOp {
            instr: "gemmini_matmul".into(),
            args: vec![
                ("n".into(), TraceArg::Int(16)),
                ("m".into(), TraceArg::Int(16)),
                ("k".into(), TraceArg::Int(16)),
                ("a".into(), tensor(a.0, a.1, &[16, 16], &[16, 1])),
                ("b".into(), tensor(b.0, b.1, &[16, 16], &[16, 1])),
                ("c".into(), tensor(c.0, c.1, &[16, 16], &[16, 1])),
            ],
        }
    }

    fn config() -> HwOp {
        HwOp {
            instr: "gemmini_config_ld".into(),
            args: vec![("s".into(), TraceArg::Int(128))],
        }
    }

    #[test]
    fn empty_trace_is_zero_util() {
        let r = Simulator::new(SimConfig::software()).run(&[]);
        assert_eq!(r.macs, 0);
        assert_eq!(r.utilization, 0.0);
    }

    #[test]
    fn config_flushes_serialize() {
        // config before every mvin ⇒ no overlap, way more cycles
        let fused: Vec<HwOp> = (0..16)
            .flat_map(|i| vec![config(), mvin(0, 1, i * 256)])
            .collect();
        let hoisted: Vec<HwOp> = std::iter::once(config())
            .chain((0..16).map(|i| mvin(0, 1, i * 256)))
            .collect();
        let r_fused = Simulator::new(SimConfig::software()).run(&fused);
        let r_hoisted = Simulator::new(SimConfig::software()).run(&hoisted);
        assert!(
            r_fused.cycles > 2 * r_hoisted.cycles,
            "fused {} vs hoisted {}",
            r_fused.cycles,
            r_hoisted.cycles
        );
        assert_eq!(r_fused.flushes, 16);
        assert_eq!(r_hoisted.flushes, 1);
    }

    #[test]
    fn independent_load_and_compute_overlap() {
        // loads into one scratchpad region while matmuls run on another:
        // total time ≈ max of the two streams, not the sum
        let mut trace = vec![config()];
        trace.push(mvin(0, 1, 0));
        trace.push(mvin(0, 1, 256));
        for i in 0..32 {
            trace.push(mvin(0, 1, 4096 + i * 256));
            trace.push(matmul((1, 0), (1, 256), (2, 0)));
        }
        let r = Simulator::new(SimConfig::software()).run(&trace);
        let busy_load = r.busy_of(Unit::Load);
        let busy_exec = r.busy_of(Unit::Execute);
        assert!(
            r.cycles < busy_load + busy_exec,
            "no overlap: {} !< {} + {}",
            r.cycles,
            busy_load,
            busy_exec
        );
    }

    #[test]
    fn raw_dependency_stalls_compute() {
        // matmul reading a tile must wait for its mvin
        let trace = vec![
            config(),
            mvin(0, 1, 0),
            mvin(0, 1, 256),
            matmul((1, 0), (1, 256), (2, 0)),
        ];
        let r = Simulator::new(SimConfig::software()).run(&trace);
        let cfg = SimConfig::software();
        // both loads and the matmul must be serial (matmul reads both)
        let load_cost = cfg.dma_startup + 16;
        assert!(r.cycles >= cfg.flush_cost + 2 * load_cost + cfg.matmul_startup);
    }

    #[test]
    fn hardware_mode_beats_software() {
        let mut trace = vec![config()];
        for i in 0..64 {
            trace.push(mvin(0, 1, (i % 8) * 256));
            trace.push(matmul((1, (i % 8) * 256), (1, 0), (2, 0)));
        }
        let sw = Simulator::new(SimConfig::software()).run(&trace);
        let hw = Simulator::new(SimConfig::hardware_unroller()).run(&trace);
        assert!(
            hw.cycles < sw.cycles,
            "hw {} !< sw {}",
            hw.cycles,
            sw.cycles
        );
        assert!(hw.utilization > sw.utilization);
    }

    #[test]
    fn compute_bound_trace_reaches_high_utilization() {
        // operands resident: back-to-back matmuls on preloaded tiles
        let mut trace = vec![config(), mvin(0, 1, 0), mvin(0, 1, 256)];
        for _ in 0..256 {
            trace.push(matmul((1, 0), (1, 256), (2, 0)));
        }
        let r = Simulator::new(SimConfig::hardware_unroller()).run(&trace);
        assert!(r.utilization > 0.85, "util {}", r.utilization);
    }

    #[test]
    fn macs_counted_from_matmuls() {
        let trace = vec![
            config(),
            mvin(0, 1, 0),
            mvin(0, 1, 256),
            matmul((1, 0), (1, 256), (2, 0)),
        ];
        let r = Simulator::new(SimConfig::software()).run(&trace);
        assert_eq!(r.macs, 16 * 16 * 16);
        assert_eq!(r.instructions, 4);
    }
}
