//! # x86-sim
//!
//! A throughput/latency cost model of a Tiger Lake-class x86 core with
//! AVX-512, standing in for the Intel i7-1185G7 @ 4.3 GHz of paper §7.2
//! (Figs. 5 and 6): peak single-precision throughput 137.60 GFLOP/s —
//! one 512-bit FMA (16 lanes × 2 FLOPs) per cycle.
//!
//! Two modes:
//!
//! * **Trace mode** ([`simulate_trace`]) — replay a [`HwOp`] trace from
//!   the interpreter with a port-pressure model; used at small sizes
//!   where functional execution is cheap.
//! * **Analytic mode** ([`CoreModel::cycles`]) — bottleneck analysis over
//!   a [`KernelProfile`] (exact instruction counts statically extracted
//!   from the scheduled IR by [`profile_proc`]) plus cache traffic from
//!   the standard blocked-GEMM footprint analysis ([`traffic`] module);
//!   used for the large parameter sweeps of Fig. 5.
//!
//! Both modes classify an instruction through one decode ([`decode`]):
//! its class comes from the opcode table [`OPCODES`], once per distinct
//! instruction handle of a trace, or once per distinct callee of a
//! procedure.

// Panic-free library surface: input-reachable failures must be typed
// errors, not aborts. Unit tests may unwrap freely.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::sync::Arc;

use exo_core::ir::{Proc, Stmt};
use exo_interp::{HwOp, Instr};

pub mod traffic;

/// f32 lanes per 512-bit vector.
pub const LANES: u64 = 16;

/// Core microarchitecture parameters (Tiger Lake-flavored).
#[derive(Clone, Debug)]
pub struct CoreModel {
    /// Clock frequency in GHz.
    pub freq_ghz: f64,
    /// 512-bit FMA issue rate per cycle (client TGL: 1).
    pub fma_per_cycle: f64,
    /// Vector load issue rate per cycle.
    pub loads_per_cycle: f64,
    /// Vector store issue rate per cycle.
    pub stores_per_cycle: f64,
    /// Front-end micro-op issue width.
    pub issue_width: f64,
    /// Scalar micro-ops of loop overhead per loop iteration.
    pub loop_overhead_uops: f64,
    /// L1 data cache bytes.
    pub l1_bytes: u64,
    /// L2 cache bytes.
    pub l2_bytes: u64,
    /// L3 cache bytes.
    pub l3_bytes: u64,
    /// Cache line bytes.
    pub line_bytes: u64,
    /// Sustained L2 bandwidth, bytes per cycle.
    pub l2_bw: f64,
    /// Sustained L3 bandwidth, bytes per cycle.
    pub l3_bw: f64,
    /// Sustained DRAM bandwidth, bytes per cycle.
    pub mem_bw: f64,
    /// Fraction of nominal throughput sustained in practice (covers
    /// misc stalls a throughput model omits: branch misses, cache-line
    /// splits, TLB walks). Applied as a ceiling on every bottleneck.
    pub sustained: f64,
}

impl CoreModel {
    /// The paper's benchmark machine: Intel i7-1185G7 at 4.3 GHz.
    pub fn tiger_lake() -> CoreModel {
        CoreModel {
            freq_ghz: 4.3,
            fma_per_cycle: 1.0,
            loads_per_cycle: 2.0,
            stores_per_cycle: 1.0,
            issue_width: 5.0,
            loop_overhead_uops: 2.0,
            l1_bytes: 48 * 1024,
            l2_bytes: 1280 * 1024,
            l3_bytes: 12 * 1024 * 1024,
            line_bytes: 64,
            l2_bw: 48.0,
            l3_bw: 24.0,
            mem_bw: 12.0,
            sustained: 0.92,
        }
    }

    /// Peak GFLOP/s (two FLOPs per lane per FMA).
    pub fn peak_gflops(&self) -> f64 {
        self.freq_ghz * self.fma_per_cycle * LANES as f64 * 2.0
    }

    /// Bottleneck cycle count for a profile plus memory traffic
    /// (bytes per level).
    pub fn cycles(&self, p: &KernelProfile, t: &traffic::Traffic) -> f64 {
        let fma_cycles = p.fmas as f64 / self.fma_per_cycle;
        let load_cycles = (p.vec_loads + p.broadcasts) as f64 / self.loads_per_cycle;
        let store_cycles = p.vec_stores as f64 / self.stores_per_cycle;
        let uops = (p.fmas + p.vec_loads + p.vec_stores + p.broadcasts + p.other_vec) as f64
            + p.scalar_uops as f64
            + p.loop_iters as f64 * self.loop_overhead_uops;
        let issue_cycles = uops / self.issue_width;
        let l2_cycles = t.l2_bytes as f64 / self.l2_bw;
        let l3_cycles = t.l3_bytes as f64 / self.l3_bw;
        let mem_cycles = t.mem_bytes as f64 / self.mem_bw;
        fma_cycles
            .max(load_cycles)
            .max(store_cycles)
            .max(issue_cycles)
            .max(l2_cycles)
            .max(l3_cycles)
            .max(mem_cycles)
            / self.sustained
    }

    /// GFLOP/s achieved by a kernel performing `flops` useful FLOPs in
    /// `cycles`.
    pub fn gflops(&self, flops: u64, cycles: f64) -> f64 {
        if cycles <= 0.0 {
            return 0.0;
        }
        flops as f64 / cycles * self.freq_ghz
    }
}

/// Exact instruction counts of one kernel execution.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct KernelProfile {
    /// 512-bit FMA instructions.
    pub fmas: u64,
    /// Vector loads (including masked).
    pub vec_loads: u64,
    /// Vector stores (including masked).
    pub vec_stores: u64,
    /// Broadcast loads.
    pub broadcasts: u64,
    /// Other vector ops (zeroing, ReLU, …).
    pub other_vec: u64,
    /// Scalar statements executed outside vector instructions.
    pub scalar_uops: u64,
    /// Total loop iterations at every nesting level (drives loop
    /// overhead).
    pub loop_iters: u64,
    /// Useful FLOPs.
    pub flops: u64,
}

impl KernelProfile {
    /// Sums two profiles.
    pub fn add(&self, o: &KernelProfile) -> KernelProfile {
        KernelProfile {
            fmas: self.fmas + o.fmas,
            vec_loads: self.vec_loads + o.vec_loads,
            vec_stores: self.vec_stores + o.vec_stores,
            broadcasts: self.broadcasts + o.broadcasts,
            other_vec: self.other_vec + o.other_vec,
            scalar_uops: self.scalar_uops + o.scalar_uops,
            loop_iters: self.loop_iters + o.loop_iters,
            flops: self.flops + o.flops,
        }
    }

    /// Scales a profile by an execution count.
    pub fn scale(&self, n: u64) -> KernelProfile {
        KernelProfile {
            fmas: self.fmas * n,
            vec_loads: self.vec_loads * n,
            vec_stores: self.vec_stores * n,
            broadcasts: self.broadcasts * n,
            other_vec: self.other_vec * n,
            scalar_uops: self.scalar_uops * n,
            loop_iters: self.loop_iters * n,
            flops: self.flops * n,
        }
    }

    /// JSON form of the instruction counts.
    pub fn to_json(&self) -> exo_obs::Json {
        use exo_obs::Json;
        Json::obj(vec![
            ("fmas".into(), Json::uint(self.fmas)),
            ("vec_loads".into(), Json::uint(self.vec_loads)),
            ("vec_stores".into(), Json::uint(self.vec_stores)),
            ("broadcasts".into(), Json::uint(self.broadcasts)),
            ("other_vec".into(), Json::uint(self.other_vec)),
            ("scalar_uops".into(), Json::uint(self.scalar_uops)),
            ("loop_iters".into(), Json::uint(self.loop_iters)),
            ("flops".into(), Json::uint(self.flops)),
        ])
    }
}

/// How the cost model counts an instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpClass {
    /// A 512-bit FMA.
    Fma,
    /// A vector load (including masked).
    Load,
    /// A vector store (including masked).
    Store,
    /// A broadcast load.
    Broadcast,
    /// Another vector op (zeroing, ReLU, …).
    Other,
    /// Not an AVX-512 instruction: one scalar micro-op.
    Scalar,
}

/// The opcode table: the class of each instruction of the AVX-512
/// library (`avx512.exo`). Any other instruction is [`OpClass::Scalar`].
pub const OPCODES: [(&str, OpClass); 8] = [
    ("mm512_fmadd_ps", OpClass::Fma),
    ("mm512_loadu_ps", OpClass::Load),
    ("mm512_mask_loadu_ps", OpClass::Load),
    ("mm512_storeu_ps", OpClass::Store),
    ("mm512_mask_storeu_ps", OpClass::Store),
    ("mm512_broadcast_ss", OpClass::Broadcast),
    ("mm512_set0_ps", OpClass::Other),
    ("mm512_relu_ps", OpClass::Other),
];

/// Decodes `instr` to its class in [`OPCODES`].
pub fn decode(instr: Instr) -> OpClass {
    OPCODES
        .iter()
        .find(|(name, _)| instr == *name)
        .map_or(OpClass::Scalar, |&(_, class)| class)
}

impl OpClass {
    /// Counts one executed instruction of this class.
    fn count(self, profile: &mut KernelProfile, lanes: u64) {
        match self {
            OpClass::Fma => {
                profile.fmas += 1;
                profile.flops += 2 * lanes;
            }
            OpClass::Load => profile.vec_loads += 1,
            OpClass::Store => profile.vec_stores += 1,
            OpClass::Broadcast => profile.broadcasts += 1,
            OpClass::Other => profile.other_vec += 1,
            OpClass::Scalar => profile.scalar_uops += 1,
        }
    }
}

/// The class of each distinct instruction met so far, in order of first
/// appearance (a kernel names a handful).
struct Decoder<K>(Vec<(K, OpClass)>);

impl<K: PartialEq + Copy> Decoder<K> {
    fn new() -> Decoder<K> {
        Decoder(Vec::new())
    }

    /// The class of `key`, decoded from `instr()` on first sight.
    #[inline]
    fn class(&mut self, key: K, instr: impl FnOnce() -> Instr) -> OpClass {
        if let Some(&(_, class)) = self.0.iter().find(|(k, _)| *k == key) {
            return class;
        }
        let class = decode(instr());
        self.0.push((key, class));
        class
    }
}

/// Statically profiles a scheduled procedure: every loop must have
/// constant bounds (true after scheduling for a fixed problem size).
/// Returns `None` when a bound is not constant.
pub fn profile_proc(proc: &Proc) -> Option<KernelProfile> {
    /// Callees are decoded once each, keyed by their `Arc`'s address.
    type Callees = Decoder<*const Proc>;
    fn go(stmts: &[Stmt], profile: &mut KernelProfile, callees: &mut Callees) -> Option<()> {
        for s in stmts {
            match s {
                Stmt::For { lo, hi, body, .. } => {
                    let lo = lo.as_int()?;
                    let hi = hi.as_int()?;
                    let trips = (hi - lo).max(0) as u64;
                    let mut inner = KernelProfile::default();
                    go(body, &mut inner, callees)?;
                    inner.loop_iters += 1;
                    *profile = profile.add(&inner.scale(trips));
                }
                Stmt::If { body, orelse, .. } => {
                    // count the larger branch (conservative for tails)
                    let mut a = KernelProfile::default();
                    go(body, &mut a, callees)?;
                    let mut b = KernelProfile::default();
                    go(orelse, &mut b, callees)?;
                    let take = if a.fmas + a.vec_loads >= b.fmas + b.vec_loads {
                        a
                    } else {
                        b
                    };
                    profile.scalar_uops += 1; // the branch itself
                    *profile = profile.add(&take);
                }
                Stmt::Call { proc, args: _ } => {
                    if proc.is_instr() {
                        callees
                            .class(Arc::as_ptr(proc), || Instr::of_proc(proc))
                            .count(profile, LANES);
                    } else {
                        let mut inner = KernelProfile::default();
                        go(&proc.body, &mut inner, callees)?;
                        *profile = profile.add(&inner);
                    }
                }
                Stmt::Assign { .. } | Stmt::Reduce { .. } => profile.scalar_uops += 1,
                Stmt::WindowDef { .. } | Stmt::Alloc { .. } => profile.scalar_uops += 1,
                Stmt::WriteConfig { .. } | Stmt::Pass => {}
            }
        }
        Some(())
    }
    let mut p = KernelProfile::default();
    go(&proc.body, &mut p, &mut Decoder::new())?;
    Some(p)
}

/// Profiles an interpreter trace (small-size validation path).
pub fn profile_trace(trace: &[HwOp]) -> KernelProfile {
    let mut p = KernelProfile::default();
    let mut decoder = Decoder::new();
    for op in trace {
        // masked ops have fewer useful lanes but the same issue cost
        decoder.class(op.instr, || op.instr).count(&mut p, LANES);
    }
    p
}

/// Simulates a trace with no cache traffic (all-resident assumption) —
/// the small-kernel port-pressure model.
pub fn simulate_trace(trace: &[HwOp], core: &CoreModel) -> (KernelProfile, f64) {
    let p = profile_trace(trace);
    let t = traffic::Traffic::default();
    let cycles = core.cycles(&p, &t);
    (p, cycles)
}

/// Convenience: profile a procedure and evaluate it with given traffic.
pub fn evaluate(
    proc: &Arc<Proc>,
    core: &CoreModel,
    t: &traffic::Traffic,
) -> Option<(KernelProfile, f64)> {
    let _span = exo_obs::Span::enter("x86_sim.evaluate")
        .with_field("proc", exo_obs::Json::Str(proc.name.to_string()));
    let p = profile_proc(proc)?;
    let cycles = core.cycles(&p, t);
    Some((p, cycles))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_matches_paper() {
        let core = CoreModel::tiger_lake();
        assert!((core.peak_gflops() - 137.6).abs() < 0.01);
    }

    #[test]
    fn fma_bound_kernel_hits_peak() {
        // 1024 FMAs, few loads: FMA-bound
        let p = KernelProfile {
            fmas: 1024,
            vec_loads: 128,
            vec_stores: 32,
            broadcasts: 64,
            other_vec: 0,
            scalar_uops: 10,
            loop_iters: 64,
            flops: 1024 * 32,
        };
        let core = CoreModel::tiger_lake();
        let cycles = core.cycles(&p, &traffic::Traffic::default());
        let gf = core.gflops(p.flops, cycles);
        assert!(gf / core.peak_gflops() > 0.80, "{gf}");
        assert!(gf <= core.peak_gflops() + 1e-9);
    }

    #[test]
    fn load_bound_kernel_is_slower() {
        let p = KernelProfile {
            fmas: 100,
            vec_loads: 1000,
            flops: 100 * 32,
            ..KernelProfile::default()
        };
        let core = CoreModel::tiger_lake();
        let cycles = core.cycles(&p, &traffic::Traffic::default());
        assert!(cycles >= 500.0, "{cycles}");
    }

    #[test]
    fn memory_traffic_caps_throughput() {
        let p = KernelProfile {
            fmas: 1000,
            flops: 32_000,
            ..KernelProfile::default()
        };
        let t = traffic::Traffic {
            l2_bytes: 0,
            l3_bytes: 0,
            mem_bytes: 1_000_000,
        };
        let core = CoreModel::tiger_lake();
        let cycles = core.cycles(&p, &t);
        assert!(cycles >= 1_000_000.0 / core.mem_bw);
    }

    #[test]
    fn profile_static_loop_nest() {
        use exo_core::build::ProcBuilder;
        use exo_core::ir::Expr;
        let mut b = ProcBuilder::new("p");
        let a = b.tensor("A", exo_core::DataType::F32, vec![Expr::int(32)]);
        let i = b.begin_for("i", Expr::int(0), Expr::int(4));
        let j = b.begin_for("j", Expr::int(0), Expr::int(8));
        b.assign(
            a,
            vec![Expr::var(i).mul(Expr::int(8)).add(Expr::var(j))],
            Expr::float(0.0),
        );
        b.end_for().end_for();
        let p = profile_proc(&b.finish()).unwrap();
        assert_eq!(p.scalar_uops, 32);
        assert_eq!(p.loop_iters, 4 + 4 * 8);
    }

    #[test]
    fn profile_counts_instr_calls() {
        use exo_core::build::ProcBuilder;
        use exo_core::ir::Expr;
        let mut ib = ProcBuilder::new("mm512_fmadd_ps");
        ib.instr("…");
        ib.stmt(exo_core::Stmt::Pass);
        let fma = ib.finish();
        let mut b = ProcBuilder::new("k");
        let _i = b.begin_for("i", Expr::int(0), Expr::int(6));
        b.call(&fma, vec![]);
        b.end_for();
        let p = profile_proc(&b.finish()).unwrap();
        assert_eq!(p.fmas, 6);
        assert_eq!(p.flops, 6 * 32);
    }

    #[test]
    fn profile_rejects_symbolic_bounds() {
        use exo_core::build::ProcBuilder;
        use exo_core::ir::Expr;
        let mut b = ProcBuilder::new("p");
        let n = b.size("n");
        let _i = b.begin_for("i", Expr::int(0), Expr::var(n));
        b.stmt(exo_core::Stmt::Pass);
        b.end_for();
        assert!(profile_proc(&b.finish()).is_none());
    }
}
