//! Differential test: the simulator's per-buffer scoreboard against a
//! reference simulator that keeps every past access in a list and scans
//! it linearly, never pruning. Both must produce identical reports on
//! seeded random traces: short ones over a few shared buffers, ones that
//! allocate a fresh buffer per tile, ones with buffer ids near
//! `usize::MAX`, and long ones, some with no dispatch cost. A second test
//! aims at the journal the scoreboard keeps its accesses in: small, large
//! and near-`usize::MAX` ids in one trace, flushes in mid-run after
//! thousands of accesses, and long chains of matmuls, each noting three
//! accesses. The reference keeps its own decoding: it finds each op's
//! kind from the instruction's name and each operand by its formal's
//! name.

use std::collections::HashMap;

use exo_core::types::{DataType, MemName};
use exo_interp::{BufId, HwOp, Instr, TensorRef, TraceArg};
use gemmini_sim::{SimConfig, SimReport, Simulator, Unit, UnitBusy, DIM, PEAK_MACS_PER_CYCLE};

/// A past access: `(buffer, lo, hi, completion time)`.
type Access = (usize, u64, u64, u64);
type Footprint = (usize, u64, u64);

/// The reference timing model: the same queues, flushes and costs as
/// [`Simulator`], with every access kept and scanned on each dependence
/// query.
struct Reference {
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
}

impl Reference {
    fn run(cfg: SimConfig, trace: &[HwOp]) -> SimReport {
        let mut s = Reference {
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
        };
        for op in trace {
            s.step(op);
        }
        let cycles = s.finish.max(s.cpu_time).max(1);
        SimReport {
            cycles,
            macs: s.macs,
            utilization: s.macs as f64 / (cycles * PEAK_MACS_PER_CYCLE) as f64,
            instructions: s.instructions,
            flushes: s.flushes,
            bytes_moved: s.bytes_moved,
            truncated: false,
            busy: [Unit::Load, Unit::Execute, Unit::Store]
                .into_iter()
                .filter_map(|unit| {
                    let busy_cycles = *s.unit_busy.get(&unit)?;
                    Some(UnitBusy { unit, busy_cycles })
                })
                .collect(),
        }
    }

    fn step(&mut self, op: &HwOp) {
        self.instructions += 1;
        match op.instr.as_str() {
            s if s.starts_with("gemmini_config") => self.config(),
            s if s.starts_with("gemmini_mvin") => self.dma(op, Unit::Load),
            s if s.starts_with("gemmini_mvout") => self.dma(op, Unit::Store),
            "gemmini_zero_acc" => self.zero(op),
            "gemmini_matmul" => self.matmul(op),
            _ => {
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

    fn dma(&mut self, op: &HwOp, unit: Unit) {
        let src = op.tensor_arg("src");
        let dst = op.tensor_arg("dst");
        let reads = ranges(op, &["src"]);
        let writes = ranges(op, &["dst"]);
        let t = src.or(dst);
        let elem = t.map(|t| t.dtype.size_bytes() as u64).unwrap_or(1);
        let volume = t
            .map(|t| t.shape().iter().product::<usize>() as u64)
            .unwrap_or(0);
        let rows = t
            .and_then(|t| t.shape().first().copied())
            .unwrap_or(1)
            .max(1) as u64;
        let bytes = volume * elem;
        self.bytes_moved += bytes;
        let issue = self.issue(1);
        let dep = self.dep_time(&reads, &writes);
        let start = issue.max(self.unit_available(unit)).max(dep);
        let cost = self.cfg.dma_startup
            + rows * ((bytes / rows.max(1)).div_ceil(self.cfg.bus_bytes)).max(1);
        let end = self.complete(unit, start, cost);
        self.note(&reads, &writes, end);
    }

    fn zero(&mut self, op: &HwOp) {
        let writes = ranges(op, &["dst"]);
        let issue = self.issue(1);
        let dep = self.dep_time(&[], &writes);
        let start = issue.max(self.unit_available(Unit::Execute)).max(dep);
        let end = self.complete(Unit::Execute, start, 2);
        self.note(&[], &writes, end);
    }

    fn matmul(&mut self, op: &HwOp) {
        let dim = |name| op.int_arg(name).unwrap_or(DIM as i64) as u64;
        self.macs += dim("n") * dim("m") * dim("k");
        let reads = ranges(op, &["a", "b"]);
        let writes = ranges(op, &["c"]);
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

    fn dep_time(&self, reads: &[Footprint], writes: &[Footprint]) -> u64 {
        let latest = |list: &[Access], (buf, lo, hi): Footprint| {
            list.iter()
                .filter(|a| a.0 == buf && a.1 < hi && lo < a.2)
                .map(|a| a.3)
                .max()
                .unwrap_or(0)
        };
        let raw = reads.iter().map(|&f| latest(&self.writers, f));
        let waw_war = writes
            .iter()
            .map(|&f| latest(&self.writers, f).max(latest(&self.readers, f)));
        raw.chain(waw_war).max().unwrap_or(0)
    }

    fn note(&mut self, reads: &[Footprint], writes: &[Footprint], end: u64) {
        self.readers
            .extend(reads.iter().map(|&(b, lo, hi)| (b, lo, hi, end)));
        self.writers
            .extend(writes.iter().map(|&(b, lo, hi)| (b, lo, hi, end)));
    }
}

fn ranges(op: &HwOp, names: &[&str]) -> Vec<Footprint> {
    names
        .iter()
        .filter_map(|n| op.tensor_arg(n))
        .map(|t| {
            let span: usize = 1 + t
                .shape()
                .iter()
                .zip(t.strides().iter())
                .map(|(&n, &s)| n.saturating_sub(1) * s)
                .sum::<usize>();
            (t.buf.0, t.base_offset as u64, (t.base_offset + span) as u64)
        })
        .collect()
}

/// xorshift64*: a tiny seeded generator, so every failing trace is
/// reproducible from its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> usize {
        (self.next() % n) as usize
    }
}

/// Buffers: 0 and 3 are DRAM matrices (row stride 64 or 128), 1 a
/// scratchpad and 2 an accumulator (row stride 16).
const DRAM: [usize; 2] = [0, 3];

/// How a trace names its buffers.
enum Ids {
    /// The buffer numbers themselves.
    Small,
    /// The same four buffers, numbered down from `usize::MAX`.
    High,
    /// The four buffers under ids of three kinds in one trace: small (0
    /// and 3), near `usize::MAX` (1) and past a million (2).
    Mixed,
    /// DRAM as in `Small`; every on-chip slot is a buffer of its own,
    /// allocated afresh under the next id by each tile written into it
    /// (as exo's per-iteration allocations are), so a trace names
    /// hundreds of ids. `live` maps `(buffer, slot)` to its current id.
    Fresh {
        live: HashMap<(usize, usize), usize>,
        next: usize,
    },
}

impl Ids {
    /// The id of buffer `buf`; for an on-chip tile in `slot`, a new one
    /// when the tile is written first (`alloc`).
    fn id(&mut self, buf: usize, slot: usize, alloc: bool) -> usize {
        match self {
            Ids::Small => buf,
            Ids::High => usize::MAX - buf,
            Ids::Mixed => [buf, usize::MAX - buf, buf + (1 << 20)][buf % 3],
            Ids::Fresh { .. } if DRAM.contains(&buf) => buf,
            Ids::Fresh { live, next } => {
                let id = live.entry((buf, slot)).or_insert(0);
                if alloc || *id == 0 {
                    *next += 1;
                    *id = *next;
                }
                *id
            }
        }
    }
}

/// The shape of a random trace.
#[derive(Clone, Copy)]
struct Mix {
    /// On-chip tile slots per buffer.
    slots: u64,
    /// Relative frequency of config, fence, mvin, mvout, zero_acc and
    /// matmul.
    weights: [u64; 6],
}

/// Short traces revisit a few slots, each with its own random mix, so
/// that each queue gets to be the bottleneck. Long traces are load-heavy
/// over many slots with rare flushes, so the load queue runs far ahead of
/// issue.
fn short_mix(rng: &mut Rng) -> Mix {
    Mix {
        slots: 2 + rng.below(30) as u64,
        weights: [0, 1, 2, 3, 4, 5].map(|i| rng.below(if i < 2 { 2 } else { 9 }) as u64 + 1),
    }
}

const LONG: Mix = Mix {
    slots: 1024,
    weights: [1, 5, 700, 60, 20, 214],
};

fn tensor(buf: usize, offset: usize, shape: [usize; 2], row_stride: usize) -> TraceArg {
    TraceArg::Tensor(TensorRef::new(
        BufId(buf),
        MemName::dram(),
        DataType::I8,
        offset,
        &[(shape[0], row_stride), (shape[1], 1)],
    ))
}

/// The instructions a random trace draws from, resolved once per trace.
struct Isa {
    config_ld: Instr,
    fence: Instr,
    mvin: [Instr; 2],
    mvout: Instr,
    zero_acc: Instr,
    matmul: Instr,
}

impl Isa {
    fn new() -> Isa {
        let dma = |name| Instr::intern(name, &["src", "dst"]);
        Isa {
            config_ld: Instr::intern("gemmini_config_ld", &["s"]),
            fence: Instr::intern("gemmini_fence", &[]),
            mvin: [dma("gemmini_mvin"), dma("gemmini_mvin_acc")],
            mvout: dma("gemmini_mvout"),
            zero_acc: Instr::intern("gemmini_zero_acc", &["dst"]),
            matmul: Instr::intern("gemmini_matmul", &["n", "m", "k", "a", "b", "c"]),
        }
    }
}

/// Mostly 0, so footprints repeat exactly; else up to a tile, so they
/// overlap their neighbours partially. A shift of 255 starts a full tile
/// on the last element of the aligned tile in its slot.
fn shift(rng: &mut Rng) -> usize {
    match rng.below(8) {
        0..=3 => 0,
        4 => 255,
        5 => 1,
        6 => 16 * rng.below(16),
        _ => rng.below(256),
    }
}

/// A DRAM tile: a strided footprint, so tiles side by side in the same
/// rows overlap as linear spans.
fn dram_tile(rng: &mut Rng, ids: &mut Ids, shape: [usize; 2]) -> TraceArg {
    let buf = DRAM[rng.below(2)];
    let stride = if buf == 0 { 64 } else { 128 };
    let offset = rng.below(8) * stride * 4 + rng.below(4) * 16 + shift(rng);
    tensor(ids.id(buf, 0, false), offset, shape, stride)
}

/// An on-chip tile in one of `mix.slots` slots, written first when
/// `alloc`.
fn local_tile(
    rng: &mut Rng,
    mix: Mix,
    ids: &mut Ids,
    buf: usize,
    alloc: bool,
    shape: [usize; 2],
) -> TraceArg {
    let slot = rng.below(mix.slots);
    let offset = slot * 256 + shift(rng);
    tensor(ids.id(buf, slot, alloc), offset, shape, 16)
}

fn random_op(isa: &Isa, rng: &mut Rng, mix: Mix, ids: &mut Ids) -> HwOp {
    // mostly full tiles, so footprints repeat
    let full = rng.below(4) != 0;
    let mut dim = || if full { 16 } else { 1 + rng.below(16) };
    let (n, m, k) = (dim(), dim(), dim());
    let mut pick = rng.below(mix.weights.iter().sum()) as u64;
    let kind = mix.weights.iter().position(|&w| {
        let hit = pick < w;
        pick = pick.saturating_sub(w);
        hit
    });
    match kind {
        Some(0) => HwOp::new(isa.config_ld, [TraceArg::Int(128)]),
        Some(1) => HwOp::new(isa.fence, []),
        Some(2) => {
            let instr = isa.mvin[rng.below(2)];
            let buf = 1 + rng.below(2);
            let dst = local_tile(rng, mix, ids, buf, true, [n, m]);
            HwOp::new(instr, [dram_tile(rng, ids, [n, m]), dst])
        }
        Some(3) => {
            let buf = 1 + rng.below(2);
            let src = local_tile(rng, mix, ids, buf, false, [n, m]);
            HwOp::new(isa.mvout, [src, dram_tile(rng, ids, [n, m])])
        }
        Some(4) => {
            let dst = local_tile(rng, mix, ids, 2, true, [n, m]);
            HwOp::new(isa.zero_acc, [dst])
        }
        _ => {
            let args = [
                TraceArg::Int(n as i64),
                TraceArg::Int(m as i64),
                TraceArg::Int(k as i64),
                local_tile(rng, mix, ids, 1, false, [n, k]),
                local_tile(rng, mix, ids, 1, false, [k, m]),
                local_tile(rng, mix, ids, 2, false, [n, m]),
            ];
            HwOp::new(isa.matmul, args)
        }
    }
}

/// A timing model with random costs, so that each queue and each
/// dependence kind gets to be the one that binds.
fn random_config(rng: &mut Rng) -> SimConfig {
    SimConfig {
        dispatch_cost: rng.below(8) as u64,
        flush_cost: rng.below(64) as u64,
        dma_startup: rng.below(64) as u64,
        bus_bytes: 1 + rng.below(32) as u64,
        matmul_interval: 1 + rng.below(40) as u64,
        matmul_startup: 1 + rng.below(64) as u64,
    }
}

/// The number of accesses `trace` notes.
fn noted(trace: &[HwOp]) -> usize {
    trace
        .iter()
        .map(|op| ranges(op, &["src", "dst", "a", "b", "c"]).len())
        .sum()
}

/// Checks that the simulator and the reference report `trace` alike
/// under the software, hardware-unroller and `random` timing models.
fn assert_same_reports(trace: &[HwOp], random: SimConfig, seed: u64) {
    for cfg in [
        SimConfig::software(),
        SimConfig::hardware_unroller(),
        random,
    ] {
        let got = Simulator::new(cfg.clone()).run(trace);
        assert_eq!(got, Reference::run(cfg, trace), "seed {seed}");
    }
}

#[test]
fn scoreboard_matches_the_unpruned_scan() {
    // the long mix without its flushes, and matmuls alone over 16 slots
    let unflushed = Mix {
        weights: [0, 5, 700, 60, 20, 214],
        ..LONG
    };
    let chain = Mix {
        slots: 16,
        weights: [0, 0, 0, 0, 0, 1],
    };
    let (mut noted_max, mut ids_max) = (0, 0);
    let (mut flushed_after, mut chained) = (usize::MAX, 0);
    for seed in 1..=200u64 {
        let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut ids = match seed % 10 {
            1 | 6 => Ids::Fresh {
                live: HashMap::new(),
                next: 3,
            },
            2 => Ids::High,
            5 => Ids::Mixed,
            _ => Ids::Small,
        };
        let isa = Isa::new();
        // every 25th trace is long: more than 4096 noted accesses; so are
        // the 5th and 15th past it, 3000 ops flushed only at ops 1000 and
        // 2000, and a chain of 2000 matmuls. Long traces at odd seeds get
        // no dispatch cost, so that cpu_time stands still between the rare
        // flushes while the logs run deep
        let (trace, long): (Vec<HwOp>, bool) = match seed % 25 {
            0 => (
                (0..2500)
                    .map(|_| random_op(&isa, &mut rng, LONG, &mut ids))
                    .collect(),
                true,
            ),
            5 => {
                let trace: Vec<HwOp> = (0..3000)
                    .map(|i| match i {
                        1000 | 2000 => HwOp::new(isa.config_ld, [TraceArg::Int(128)]),
                        _ => random_op(&isa, &mut rng, unflushed, &mut ids),
                    })
                    .collect();
                flushed_after = flushed_after.min(noted(&trace[..1000]));
                (trace, true)
            }
            15 => {
                let trace: Vec<HwOp> = (0..2000)
                    .map(|_| random_op(&isa, &mut rng, chain, &mut ids))
                    .collect();
                assert_eq!(noted(&trace), 3 * trace.len(), "seed {seed}");
                chained += 1;
                (trace, true)
            }
            _ => {
                let (len, mix) = if matches!(ids, Ids::Fresh { .. }) {
                    (300 + rng.below(300), short_mix(&mut rng))
                } else {
                    (1 + rng.below(300), short_mix(&mut rng))
                };
                let trace = (0..len)
                    .map(|_| random_op(&isa, &mut rng, mix, &mut ids))
                    .collect();
                (trace, false)
            }
        };
        noted_max = noted_max.max(noted(&trace));
        if let Ids::Fresh { next, .. } = ids {
            ids_max = ids_max.max(next);
        }
        let mut random = random_config(&mut rng);
        if long && seed % 2 == 1 {
            random.dispatch_cost = 0;
        }
        assert_same_reports(&trace, random, seed);
    }
    assert!(noted_max > 4096, "longest trace noted only {noted_max}");
    assert!(ids_max > 256, "fresh-id traces named at most {ids_max} ids");
    assert!(
        flushed_after > 1500,
        "first flush after {flushed_after} accesses"
    );
    assert_eq!(chained, 8);
}
