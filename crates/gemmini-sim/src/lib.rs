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
//!   that run concurrently; data dependencies are what actually serialize
//!   them. Good schedules overlap data movement with compute. Each tensor
//!   argument's footprint is the linear element span `[lo, hi)` its window
//!   covers in its buffer (DRAM, scratchpad or accumulator). An
//!   instruction starts no earlier than the latest completion of every
//!   prior access whose footprint overlaps one of its own: prior writes
//!   for its reads (RAW), prior writes and reads for its writes (WAW,
//!   WAR). The scoreboard is one journal per run of the accesses since
//!   the last flush; each entry links to the previous one of its log, one
//!   log per buffer, side (reads, writes) and unit, and each operand finds
//!   its buffer's logs once per op. Completion times never decrease along
//!   a log. A query starts from the floor `T = max(issue, unit
//!   available)`, the earliest start the instruction already has, and
//!   walks each log newest-first. It stops at the first overlapping entry,
//!   which is that log's latest overlapping completion, or at the first
//!   entry completing at or before `T`, since neither it nor any older
//!   entry can raise the start above `T`. A flush clears the journal: it
//!   completes after every noted access and every later floor is at or
//!   past it. So the result is the exact maximum over every prior
//!   overlapping access; at worst a query visits every entry of one log
//!   that completes above the floor.
//! * **Configuration flushes** — `config_ld`/`config_st` wait for *all*
//!   in-flight operations and stall the pipe (paper §2: "instructions to
//!   configure such state usually flush the accelerator pipeline"), so
//!   hoisting configuration writes out of loops (§2.4) is visible as a
//!   large utilization gain.
//! * **Decode once** — each run decodes every distinct instruction
//!   handle in its trace once ([`decode`]): the op class comes from the
//!   opcode table [`OPCODES`], and the positions of the formals the class
//!   reads from the instruction's signature. Each op then dispatches on
//!   its class and reads its arguments by position. An instruction the
//!   table does not name executes as a 1-cycle no-op on the execute
//!   queue.
//! * **Software dispatch cost** — each instruction is issued by the host
//!   CPU; the per-instruction cost bounds software scheduling. The
//!   *hardware loop unroller* mode ([`SimConfig::hardware_unroller`])
//!   removes it, modeling Gemmini's optional dynamically-scheduled
//!   hardware at extra area/power — it should outperform even the best
//!   software schedule, as in Fig. 4.

// Panic-free library surface: input-reachable failures must be typed
// errors, not aborts. Unit tests may unwrap freely.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::ops::Range;

use exo_core::hash::HashMap;
use exo_interp::{HwOp, Instr, TensorRef};

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

/// How the timing model executes an instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpClass {
    /// A configuration write: drains every queue and stalls.
    Config,
    /// A DMA load into the scratchpad or accumulator.
    Mvin,
    /// A DMA store to DRAM.
    Mvout,
    /// Zeroing an accumulator tile on the execute queue.
    Zero,
    /// One preload + compute pass of the systolic array.
    Matmul,
    /// Not a Gemmini instruction: a 1-cycle no-op on the execute queue
    /// (fences, prefetch escape hatches).
    Other,
}

impl OpClass {
    /// The formals an instruction of this class reads, by name, in the
    /// order of [`Decoded`]'s positions.
    fn operands(self) -> &'static [&'static str] {
        match self {
            OpClass::Mvin | OpClass::Mvout => &["src", "dst"],
            OpClass::Zero => &["dst"],
            OpClass::Matmul => &["n", "m", "k", "a", "b", "c"],
            OpClass::Config | OpClass::Other => &[],
        }
    }
}

/// The opcode table: the class of each instruction of the Gemmini
/// library (`gemmini.exo`). Any other instruction is [`OpClass::Other`].
pub const OPCODES: [(&str, OpClass); 13] = [
    ("gemmini_config_ld", OpClass::Config),
    ("gemmini_config_ld2", OpClass::Config),
    ("gemmini_config_ld_acc", OpClass::Config),
    ("gemmini_config_st", OpClass::Config),
    ("gemmini_mvin", OpClass::Mvin),
    ("gemmini_mvin2", OpClass::Mvin),
    ("gemmini_mvin_acc", OpClass::Mvin),
    ("gemmini_mvout", OpClass::Mvout),
    ("gemmini_mvout_relu", OpClass::Mvout),
    ("gemmini_mvout_acc", OpClass::Mvout),
    ("gemmini_mvout_acc_relu", OpClass::Mvout),
    ("gemmini_zero_acc", OpClass::Zero),
    ("gemmini_matmul", OpClass::Matmul),
];

/// The most operands a class reads (the matmul's `n, m, k, a, b, c`).
const MAX_OPERANDS: usize = 6;

/// An instruction decoded for the timing model: its class and, for each
/// operand the class reads, the index of that formal in the
/// instruction's signature (`None` when it has no such formal).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Decoded {
    /// How the instruction executes.
    pub class: OpClass,
    at: [Option<usize>; MAX_OPERANDS],
}

/// Decodes `instr`: its class from [`OPCODES`], and the position of each
/// formal its class reads.
pub fn decode(instr: Instr) -> Decoded {
    let class = OPCODES
        .iter()
        .find(|(name, _)| instr == *name)
        .map_or(OpClass::Other, |&(_, class)| class);
    let mut at = [None; MAX_OPERANDS];
    for (slot, name) in at.iter_mut().zip(class.operands()) {
        *slot = instr.position(name);
    }
    Decoded { class, at }
}

impl Decoded {
    /// Whether the instruction has a formal for every operand its class
    /// reads.
    pub fn is_complete(&self) -> bool {
        self.at[..self.class.operands().len()]
            .iter()
            .all(Option::is_some)
    }

    /// The `k`-th operand of `op`, if it is a bound integer.
    #[inline]
    fn int(&self, op: &HwOp, k: usize) -> Option<i64> {
        op.args.int(self.at[k]?)
    }

    /// The `k`-th operand of `op`, if it is a bound tensor.
    #[inline]
    fn tensor<'a>(&self, op: &'a HwOp, k: usize) -> Option<&'a TensorRef> {
        op.args.tensor(self.at[k]?)
    }
}

/// The decoded form of each distinct instruction of one run, in order of
/// first appearance (a trace names a handful).
#[derive(Default)]
struct Decoder(Vec<(Instr, Decoded)>);

impl Decoder {
    #[inline]
    fn get(&mut self, instr: Instr) -> &Decoded {
        let i = match self.0.iter().position(|(seen, _)| *seen == instr) {
            Some(i) => i,
            None => {
                self.0.push((instr, decode(instr)));
                self.0.len() - 1
            }
        };
        &self.0[i].1
    }
}

/// A `(slot, lo, hi)` footprint: the linear element span `[lo, hi)` an
/// access touches within the buffer of one [`Board`] slot.
type Footprint = (usize, u64, u64);

/// A slot's write logs, per [`Unit`]; its read logs come first.
const WRITES: Range<usize> = 3..6;

/// The end of a log: no older entry.
const NIL: usize = usize::MAX;

/// A noted access, `(lo, hi, end, prev)`: its span `[lo, hi)`, its
/// completion time, and the journal index of the previous entry of its
/// log ([`NIL`] for none).
type Entry = (u64, u64, u64, usize);

/// The most journal entries a run reserves up front (2 MiB).
const RESERVE_CAP: usize = 1 << 16;

/// The dependence scoreboard since the last flush: one journal of every
/// noted access, in program order, and per buffer slot the newest entry
/// of each of six logs: its reads per [`Unit`], then its writes per
/// [`Unit`]. A log is the chain of its entries through `prev`; a unit's
/// completion times never decrease along it.
#[derive(Debug, Default)]
struct Board {
    /// The slot of each buffer id.
    slots: HashMap<usize, usize>,
    heads: Vec<[usize; 6]>,
    journal: Vec<Entry>,
}

impl Board {
    /// The footprint of tensor argument `t`, its buffer's slot allocated
    /// on first sight. The arithmetic saturates, so `lo <= hi` holds for
    /// any window.
    fn footprint(&mut self, t: &TensorRef) -> Footprint {
        let next = self.heads.len();
        let slot = *self.slots.entry(t.buf.0).or_insert(next);
        if slot == next {
            self.heads.push([NIL; 6]);
        }
        let lo = t.base_offset as u64;
        (slot, lo, lo.saturating_add(t.span()))
    }

    /// `floor`, raised to the latest completion in `logs` of `slot` of an
    /// access overlapping `[lo, hi)`. Each walk runs newest-first: the
    /// first overlapping entry is its log's latest, and once an entry's
    /// time is at most the floor, so is every older one.
    fn latest(&self, (slot, lo, hi): Footprint, logs: Range<usize>, mut floor: u64) -> u64 {
        for &head in &self.heads[slot][logs] {
            let mut i = head;
            while let Some(&(e_lo, e_hi, end, prev)) = self.journal.get(i) {
                if end <= floor {
                    break;
                }
                if e_lo < hi && lo < e_hi {
                    floor = end;
                    break;
                }
                i = prev;
            }
        }
        floor
    }

    fn push(&mut self, (slot, lo, hi): Footprint, log: usize, end: u64) {
        let prev = self.heads[slot][log];
        debug_assert!(
            self.journal.get(prev).is_none_or(|&(_, _, t, _)| t <= end),
            "a unit's completion times must not decrease"
        );
        self.heads[slot][log] = self.journal.len();
        self.journal.push((lo, hi, end, prev));
    }

    /// Forgets every access; the buffers keep their slots and the journal
    /// its capacity.
    fn clear(&mut self) {
        self.journal.clear();
        self.heads.fill([NIL; 6]);
    }
}

/// The simulator.
#[derive(Debug)]
pub struct Simulator {
    cfg: SimConfig,
    cpu_time: u64,
    /// Per [`Unit`] (indexed by `unit as usize`): when it next idles.
    unit_free: [u64; 3],
    /// Per [`Unit`]: cycles spent executing.
    unit_busy: [u64; 3],
    board: Board,
    last_flush: u64,
    finish: u64,
    macs: u64,
    instructions: u64,
    flushes: u64,
    bytes_moved: u64,
}

impl Simulator {
    /// Creates a simulator with the given timing model.
    pub fn new(cfg: SimConfig) -> Simulator {
        Simulator {
            cfg,
            cpu_time: 0,
            unit_free: [0; 3],
            unit_busy: [0; 3],
            board: Board::default(),
            last_flush: 0,
            finish: 0,
            macs: 0,
            instructions: 0,
            flushes: 0,
            bytes_moved: 0,
        }
    }

    /// Runs a full instruction trace and produces the report.
    pub fn run(mut self, trace: &[HwOp]) -> SimReport {
        let span = exo_obs::Span::enter("gemmini_sim.run");
        let mut decoder = Decoder::default();
        // an op notes at most three accesses (a matmul: two reads, a write)
        let notes = trace.len().saturating_mul(3);
        self.board.journal.reserve(notes.min(RESERVE_CAP));
        for op in trace {
            self.step(op, decoder.get(op.instr));
        }
        let cycles = self.finish.max(self.cpu_time).max(1);
        let util = self.macs as f64 / cycles.saturating_mul(PEAK_MACS_PER_CYCLE) as f64;
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
            truncated: false,
            busy: [Unit::Load, Unit::Execute, Unit::Store]
                .into_iter()
                .filter(|&u| self.unit_busy[u as usize] > 0)
                .map(|u| UnitBusy {
                    unit: u,
                    busy_cycles: self.unit_busy[u as usize],
                })
                .collect(),
        }
    }

    fn step(&mut self, op: &HwOp, d: &Decoded) {
        self.instructions += 1;
        match d.class {
            OpClass::Config => self.config(),
            OpClass::Mvin => self.dma(op, d, Unit::Load),
            OpClass::Mvout => self.dma(op, d, Unit::Store),
            OpClass::Zero => self.zero(op, d),
            OpClass::Matmul => self.matmul(op, d),
            OpClass::Other => {
                let issue = self.issue(1);
                let start = issue.max(self.unit_available(Unit::Execute));
                self.complete(Unit::Execute, start, 1);
            }
        }
    }

    fn issue(&mut self, n_instrs: u64) -> u64 {
        self.cpu_time = self
            .cpu_time
            .saturating_add(self.cfg.dispatch_cost.saturating_mul(n_instrs));
        self.cpu_time
    }

    fn unit_available(&self, u: Unit) -> u64 {
        self.unit_free[u as usize].max(self.last_flush)
    }

    fn complete(&mut self, u: Unit, start: u64, cost: u64) -> u64 {
        let end = start.saturating_add(cost);
        self.unit_free[u as usize] = end;
        self.unit_busy[u as usize] = self.unit_busy[u as usize].saturating_add(cost);
        self.finish = self.finish.max(end);
        end
    }

    fn config(&mut self) {
        // drain everything, then stall; every later start is at or past
        // `last_flush`, so no noted access can delay it any more
        let issue = self.issue(1);
        let drain = self.unit_free.into_iter().fold(issue, u64::max);
        self.last_flush = drain.saturating_add(self.cfg.flush_cost);
        self.cpu_time = self.cpu_time.max(self.last_flush);
        self.finish = self.finish.max(self.last_flush);
        self.flushes += 1;
        self.board.clear();
    }

    fn dma(&mut self, op: &HwOp, d: &Decoded, unit: Unit) {
        // operands: src, dst
        let (src, dst) = (d.tensor(op, 0), d.tensor(op, 1));
        let (bytes, rows) = dma_size(src.or(dst));
        self.bytes_moved = self.bytes_moved.saturating_add(bytes);
        let reads = [src.map(|t| self.board.footprint(t))];
        let writes = [dst.map(|t| self.board.footprint(t))];
        let issue = self.issue(1);
        let floor = issue.max(self.unit_available(unit));
        let start = self.dep_time(floor, &reads, &writes);
        let cost = self.cfg.dma_startup.saturating_add(
            rows.saturating_mul((bytes / rows).div_ceil(self.cfg.bus_bytes).max(1)),
        );
        let end = self.complete(unit, start, cost);
        self.note(unit, &reads, &writes, end);
    }

    fn zero(&mut self, op: &HwOp, d: &Decoded) {
        // operand: dst
        let writes = [d.tensor(op, 0).map(|t| self.board.footprint(t))];
        let issue = self.issue(1);
        let floor = issue.max(self.unit_available(Unit::Execute));
        let start = self.dep_time(floor, &[], &writes);
        let end = self.complete(Unit::Execute, start, 2);
        self.note(Unit::Execute, &[], &writes, end);
    }

    fn matmul(&mut self, op: &HwOp, d: &Decoded) {
        // operands: n, m, k, a, b, c
        let dim = |k| d.int(op, k).unwrap_or(DIM as i64) as u64;
        let macs = dim(0).saturating_mul(dim(1)).saturating_mul(dim(2));
        self.macs = self.macs.saturating_add(macs);
        let reads = [3, 4].map(|k| d.tensor(op, k).map(|t| self.board.footprint(t)));
        let writes = [d.tensor(op, 5).map(|t| self.board.footprint(t))];
        // preload + compute are two host instructions
        let issue = self.issue(2);
        let avail = self.unit_available(Unit::Execute);
        let start = self.dep_time(issue.max(avail), &reads, &writes);
        // the pipe idles unless this pass follows the previous one directly
        let cost = if start > avail {
            self.cfg.matmul_startup
        } else {
            self.cfg.matmul_interval
        };
        let end = self.complete(Unit::Execute, start, cost);
        self.note(Unit::Execute, &reads, &writes, end);
    }

    /// Earliest start: `floor` (the issue time and unit availability),
    /// raised by data dependencies. RAW: our reads wait on overlapping
    /// writers. WAW and WAR: our writes wait on overlapping writers and
    /// readers. Accesses completing at or before the floor cannot raise
    /// it, so each log walk stops at the first of them.
    fn dep_time(
        &self,
        floor: u64,
        reads: &[Option<Footprint>],
        writes: &[Option<Footprint>],
    ) -> u64 {
        let mut t = floor;
        for &f in reads.iter().flatten() {
            t = self.board.latest(f, WRITES, t);
        }
        for &f in writes.iter().flatten() {
            t = self.board.latest(f, 0..6, t);
        }
        t
    }

    fn note(
        &mut self,
        unit: Unit,
        reads: &[Option<Footprint>],
        writes: &[Option<Footprint>],
        end: u64,
    ) {
        for &f in reads.iter().flatten() {
            self.board.push(f, unit as usize, end);
        }
        for &f in writes.iter().flatten() {
            self.board.push(f, WRITES.start + unit as usize, end);
        }
    }
}

/// The bytes and rows a DMA of `t` moves: its volume times its element
/// size (saturating on windows too large for a `u64`), and its first
/// extent (at least 1).
fn dma_size(t: Option<&TensorRef>) -> (u64, u64) {
    let Some(t) = t else { return (0, 1) };
    let shape = t.shape();
    let volume = shape.iter().fold(1u64, |v, &n| v.saturating_mul(n as u64));
    let rows = shape.first().map_or(1, |&n| n.max(1) as u64);
    (volume.saturating_mul(t.dtype.size_bytes() as u64), rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_core::types::{DataType, MemName};
    use exo_interp::{BufId, TraceArg};

    fn tensor(buf: usize, offset: usize, shape: [usize; 2], strides: [usize; 2]) -> TraceArg {
        let axes = [(shape[0], strides[0]), (shape[1], strides[1])];
        TraceArg::Tensor(TensorRef::new(
            BufId(buf),
            MemName::dram(),
            DataType::I8,
            offset,
            &axes,
        ))
    }

    fn mvin(buf_src: usize, buf_dst: usize, dst_off: usize) -> HwOp {
        HwOp::new(
            Instr::intern("gemmini_mvin", &["n", "m", "src", "dst"]),
            [
                TraceArg::Int(16),
                TraceArg::Int(16),
                tensor(buf_src, 0, [16, 16], [128, 1]),
                tensor(buf_dst, dst_off, [16, 16], [16, 1]),
            ],
        )
    }

    fn matmul_with(n: i64, a: (usize, usize), b: (usize, usize), c: (usize, usize)) -> HwOp {
        HwOp::new(
            Instr::intern("gemmini_matmul", &["n", "m", "k", "a", "b", "c"]),
            [
                TraceArg::Int(n),
                TraceArg::Int(16),
                TraceArg::Int(16),
                tensor(a.0, a.1, [16, 16], [16, 1]),
                tensor(b.0, b.1, [16, 16], [16, 1]),
                tensor(c.0, c.1, [16, 16], [16, 1]),
            ],
        )
    }

    fn matmul(a: (usize, usize), b: (usize, usize), c: (usize, usize)) -> HwOp {
        matmul_with(16, a, b, c)
    }

    fn config() -> HwOp {
        HwOp::new(
            Instr::intern("gemmini_config_ld", &["s"]),
            [TraceArg::Int(128)],
        )
    }

    /// A DMA op of `instr` with only `src` and `dst` formals.
    fn dma(instr: &str, src: TraceArg, dst: TraceArg) -> HwOp {
        HwOp::new(Instr::intern(instr, &["src", "dst"]), [src, dst])
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
        let busy = |unit| {
            r.busy
                .iter()
                .find(|b| b.unit == unit)
                .map_or(0, |b| b.busy_cycles)
        };
        let busy_load = busy(Unit::Load);
        let busy_exec = busy(Unit::Execute);
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

    #[test]
    fn deep_load_queue_keeps_every_dependence() {
        // 5000 loads queue up; the matmul reads load #3000's tile, so it
        // (and the mvout reading its result) must wait for 3001 loads
        let mut trace = vec![config()];
        trace.extend((0..5000).map(|i| mvin(0, 1, i * 256)));
        trace.push(matmul((1, 3000 * 256), (1, 3000 * 256), (2, 0)));
        trace.push(dma(
            "gemmini_mvout",
            tensor(2, 0, [1, 1_600_000], [1_600_000, 1]),
            tensor(3, 0, [1, 1_600_000], [1_600_000, 1]),
        ));
        let cfg = SimConfig::software();
        let r = Simulator::new(cfg.clone()).run(&trace);
        let raw_chain = cfg.flush_cost
            + 3001 * (cfg.dma_startup + 16)
            + cfg.dma_startup
            + 1_600_000 / cfg.bus_bytes;
        assert!(r.cycles >= raw_chain, "{} < {raw_chain}", r.cycles);
    }

    #[test]
    fn reports_are_deterministic() {
        let mut trace = vec![config()];
        for i in 0..32 {
            trace.push(mvin(0, 1, (i % 4) * 256));
            trace.push(matmul((1, (i % 4) * 256), (1, 0), (2, (i % 2) * 256)));
        }
        for cfg in [SimConfig::software(), SimConfig::hardware_unroller()] {
            let sim = |t: &[HwOp]| Simulator::new(cfg.clone()).run(t);
            let r = sim(&trace);
            assert_eq!(r, sim(&trace));
            let units: Vec<Unit> = r.busy.iter().map(|b| b.unit).collect();
            assert_eq!(units, [Unit::Load, Unit::Execute]);
        }
    }

    #[test]
    fn negative_matmul_dims_do_not_panic() {
        let op = matmul_with(-1, (1, 0), (1, 256), (2, 0));
        let r = Simulator::new(SimConfig::software()).run(&[op.clone(), op]);
        assert_eq!(r.macs, u64::MAX);
        assert_eq!(r.instructions, 2);
    }

    #[test]
    fn huge_dma_window_does_not_panic() {
        let huge = dma(
            "gemmini_mvin",
            tensor(0, 0, [1 << 40, 1 << 40], [1 << 40, 1]),
            tensor(1, 0, [1 << 40, 1 << 40], [1 << 40, 1]),
        );
        let trace = [huge.clone(), huge, config(), mvin(0, 1, 0)];
        let r = Simulator::new(SimConfig::software()).run(&trace);
        assert_eq!(r.bytes_moved, u64::MAX);
        assert_eq!(r.instructions, 4);
    }

    #[test]
    fn absurd_windows_do_not_panic() {
        // spans past u64::MAX, starting anywhere up to the last element
        let op = |off| {
            dma(
                "gemmini_mvin",
                tensor(0, off, [2, 1], [usize::MAX, 1]),
                tensor(1, off, [2, 1], [usize::MAX, 1]),
            )
        };
        let r = Simulator::new(SimConfig::software()).run(&[op(0), op(usize::MAX), op(7)]);
        assert_eq!(r.instructions, 3);
    }

    #[test]
    fn each_library_opcode_decodes_to_its_class() {
        for (name, class) in OPCODES {
            let formals = class.operands();
            let d = decode(Instr::intern(name, formals));
            assert_eq!(d.class, class, "{name}");
            assert!(d.is_complete(), "{name}");
        }
        let unknown = decode(Instr::intern("gemmini_fence", &[]));
        assert_eq!(unknown.class, OpClass::Other);
        assert!(!decode(Instr::intern("gemmini_matmul", &["a", "b"])).is_complete());
    }

    #[test]
    fn operands_are_read_by_position_whatever_the_formal_order() {
        // the same mvin with its formals in another order decodes to other
        // positions and simulates identically
        let t = |buf, off| tensor(buf, off, [16, 16], [16, 1]);
        let fwd = dma("gemmini_mvin", t(0, 0), t(1, 256));
        let rev = HwOp::new(
            Instr::intern("gemmini_mvin", &["dst", "src"]),
            [t(1, 256), t(0, 0)],
        );
        let sim = |op: &HwOp| Simulator::new(SimConfig::software()).run(&[config(), op.clone()]);
        assert_eq!(sim(&fwd), sim(&rev));
        assert_eq!(sim(&fwd).bytes_moved, 256);
    }
}
