//! The four workloads. Each is a fixed menu of items (kernel × size);
//! an op draws one item, and the seed decides the order in which every
//! cycle visits the menu and the input values, so runs with different
//! seeds do the same work in a different order.

use std::sync::{Arc, Mutex};

use exo_analysis::{GlobalReg, SharedCheckCtx};
use exo_codegen::{compile_c, CodegenCtx};
use exo_core::printer::proc_to_string;
use exo_core::visit::alpha_eq_proc;
use exo_core::{DataType, Proc, Severity};
use exo_front::{parse_proc, ParseEnv};
use exo_hwlibs::{Avx512Lib, GemminiLib};
use exo_interp::{ArgVal, HwOp, Machine};
use exo_kernels::gemmini_conv::{self, ConvShape};
use exo_kernels::{gemmini_gemm, x86_conv, x86_gemm};
use exo_sched::{Procedure, SchedError, SchedState, StateRef};
use gemmini_sim::{SimConfig, SimReport, Simulator};
use x86_sim::CoreModel;

use crate::{Layer, Probe, Rng};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 4a's Gemmini GEMM chain: schedule on one shared context,
    /// trace, Old-lib trace, three simulations.
    GemminiFig4a,
    /// x86 SGEMM/CONV scheduled on a fresh context, run functionally
    /// beside the naive proc on the interpreter, profiled with x86-sim.
    X86Oracle,
    /// The four case-study schedules on a fresh context, then C codegen
    /// and a print/re-parse of the naive algorithm.
    ScheduleCold,
    /// Lint rules and loop classification of one kernel on a fresh
    /// checking context.
    LintCold,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::GemminiFig4a,
        Workload::X86Oracle,
        Workload::ScheduleCold,
        Workload::LintCold,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GemminiFig4a => "gemmini-fig4a",
            Workload::X86Oracle => "x86-oracle",
            Workload::ScheduleCold => "schedule-cold",
            Workload::LintCold => "lint-cold",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Size of the generated code of one or more kernels.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Gen {
    /// Hardware instructions in the kernels' interpreter traces.
    pub hw_instrs: u64,
    /// Bytes addressed by those instructions' tensor operands.
    pub bytes_moved: u64,
    /// Bytes of C that `compile_c` emits for the kernels.
    pub c_bytes: u64,
}

impl Gen {
    /// Adds another census.
    pub fn add(&mut self, o: &Gen) {
        self.hw_instrs += o.hw_instrs;
        self.bytes_moved += o.bytes_moved;
        self.c_bytes += o.c_bytes;
    }
}

/// A set-up workload instance.
pub trait Bench {
    /// Number of menu items.
    fn items(&self) -> usize;
    /// One op on menu item `item`. `Err` when a call fails or the output
    /// check rejects the result.
    fn op(&mut self, item: usize, probe: &mut Probe) -> Result<(), String>;
    /// The generated code of menu item `item` (untimed).
    fn census(&mut self, item: usize) -> Result<Gen, String>;
}

/// Builds the instance for `w`: libraries, inputs, and whatever the
/// workload keeps across ops (untimed scheduling for `lint-cold`, the
/// shared context for `gemmini-fig4a`).
pub fn setup(w: Workload, seed: u64) -> Box<dyn Bench> {
    let libs = Libs::new();
    match w {
        Workload::GemminiFig4a => Box::new(Fig4a::new(libs)),
        Workload::X86Oracle => Box::new(Oracle::new(libs, seed)),
        Workload::ScheduleCold => Box::new(ScheduleCold::new(libs)),
        Workload::LintCold => Box::new(LintCold::new(libs)),
    }
}

/// The two instruction libraries and their codegen contexts.
struct Libs {
    gemmini: GemminiLib,
    avx: Avx512Lib,
    gemmini_c: CodegenCtx,
    avx_c: CodegenCtx,
}

impl Libs {
    fn new() -> Libs {
        let gemmini = GemminiLib::new();
        let avx = Avx512Lib::new();
        let gemmini_c = gemmini.codegen_ctx();
        let avx_c = avx.codegen_ctx();
        Libs {
            gemmini,
            avx,
            gemmini_c,
            avx_c,
        }
    }
}

/// A scheduling state with its own checking context (canonical cache
/// on), so nothing is served from the process-wide verdict cache.
fn fresh_state() -> StateRef {
    Arc::new(Mutex::new(SchedState::with_check(
        SharedCheckCtx::with_cache(true),
    )))
}

fn check_of(state: &StateRef) -> SharedCheckCtx {
    state
        .lock()
        .map(|s| s.check.clone())
        .unwrap_or_else(|e| e.into_inner().check.clone())
}

/// One case-study kernel at one size.
#[derive(Clone, Copy, Debug)]
enum Kernel {
    GemminiMatmul { n: i64, m: i64, k: i64 },
    GemminiConv(ConvShape),
    Sgemm { m: i64, n: i64, k: i64 },
    X86Conv(ConvShape),
}

/// Register blocking of the x86 CONV schedule (as in Fig. 6).
const X86_CONV_RB: i64 = 4;

impl Kernel {
    fn label(&self) -> String {
        match *self {
            Kernel::GemminiMatmul { n, m, k } => format!("matmul_{n}x{m}x{k}"),
            Kernel::GemminiConv(s) => format!("gemmini_conv_{}", conv_label(&s)),
            Kernel::Sgemm { m, n, k } => format!("sgemm_{m}x{n}x{k}"),
            Kernel::X86Conv(s) => format!("x86_conv_{}", conv_label(&s)),
        }
    }

    fn naive(&self) -> Arc<Proc> {
        match *self {
            Kernel::GemminiMatmul { n, m, k } => gemmini_gemm::naive_matmul(n, m, k),
            Kernel::GemminiConv(s) => gemmini_conv::naive_conv(&s),
            Kernel::Sgemm { m, n, k } => x86_gemm::naive_sgemm(m, n, k),
            Kernel::X86Conv(s) => x86_conv::naive_conv_f32(&s),
        }
    }

    fn schedule(&self, libs: &Libs, state: &StateRef) -> Result<Procedure, SchedError> {
        match *self {
            Kernel::GemminiMatmul { n, m, k } => {
                gemmini_gemm::schedule_matmul(&libs.gemmini, state, n, m, k)
            }
            Kernel::GemminiConv(s) => gemmini_conv::schedule_conv(&libs.gemmini, state, &s),
            Kernel::Sgemm { m, n, k } => x86_gemm::schedule_sgemm(&libs.avx, state, m, n, k, 6, 64),
            Kernel::X86Conv(s) => x86_conv::schedule_conv_avx512(&libs.avx, state, &s, X86_CONV_RB),
        }
    }

    fn codegen_ctx<'a>(&self, libs: &'a Libs) -> &'a CodegenCtx {
        match self {
            Kernel::GemminiMatmul { .. } | Kernel::GemminiConv(_) => &libs.gemmini_c,
            Kernel::Sgemm { .. } | Kernel::X86Conv(_) => &libs.avx_c,
        }
    }

    /// The tensor arguments, in order: (dtype, shape). The last one is
    /// the output.
    fn operands(&self) -> Vec<(DataType, Vec<usize>)> {
        let u = |x: i64| x as usize;
        let conv = |s: &ConvShape, inp: DataType, out: DataType| {
            vec![
                (inp, vec![u(s.batch), u(s.in_dim()), u(s.in_dim()), u(s.ic)]),
                (inp, vec![u(s.kdim), u(s.kdim), u(s.ic), u(s.oc)]),
                (out, vec![u(s.batch), u(s.out_dim), u(s.out_dim), u(s.oc)]),
            ]
        };
        match self {
            Kernel::GemminiMatmul { n, m, k } => vec![
                (DataType::I8, vec![u(*n), u(*k)]),
                (DataType::I8, vec![u(*k), u(*m)]),
                (DataType::I32, vec![u(*n), u(*m)]),
            ],
            Kernel::GemminiConv(s) => conv(s, DataType::I8, DataType::I32),
            Kernel::Sgemm { m, n, k } => vec![
                (DataType::F32, vec![u(*m), u(*k)]),
                (DataType::F32, vec![u(*k), u(*n)]),
                (DataType::F32, vec![u(*m), u(*n)]),
            ],
            Kernel::X86Conv(s) => conv(s, DataType::F32, DataType::F32),
        }
    }

    fn macs(&self) -> u64 {
        match *self {
            Kernel::GemminiMatmul { n, m, k } | Kernel::Sgemm { m, n, k } => (n * m * k) as u64,
            Kernel::GemminiConv(s) | Kernel::X86Conv(s) => s.macs(),
        }
    }
}

fn conv_label(s: &ConvShape) -> String {
    format!("b{}_o{}_oc{}_ic{}", s.batch, s.out_dim, s.oc, s.ic)
}

/// Runs `proc` on a fresh machine. With `data`, buffers start with those
/// values; without, they are left uninitialized. `functional` executes
/// instruction bodies; otherwise the run only records the trace. Returns
/// the machine (for trace and step count) and the output buffer's values
/// (empty when some are uninitialized).
fn interpret(
    proc: &Proc,
    operands: &[(DataType, Vec<usize>)],
    data: Option<&[Vec<f64>]>,
    functional: bool,
) -> Result<(Machine, Vec<f64>), String> {
    let mut machine = Machine::new();
    machine.execute_instr_bodies = functional;
    let mut ids = Vec::with_capacity(operands.len());
    for (i, (dtype, shape)) in operands.iter().enumerate() {
        let name = format!("t{i}");
        ids.push(match data {
            Some(d) => machine.alloc_extern(&name, *dtype, shape, &d[i]),
            None => machine.alloc_extern_uninit(&name, *dtype, shape),
        });
    }
    let args: Vec<ArgVal> = ids.iter().map(|&id| ArgVal::Tensor(id)).collect();
    machine.run(proc, &args).map_err(|e| e.to_string())?;
    let out = match (functional, ids.last()) {
        (true, Some(&id)) => machine.buffer_values(id).unwrap_or_default(),
        _ => Vec::new(),
    };
    Ok((machine, out))
}

/// Bytes addressed by an instruction's tensor operands.
fn operand_bytes(op: &HwOp) -> u64 {
    op.args
        .iter()
        .filter_map(|(_, a)| a.as_tensor())
        .map(|t| (t.len() * t.dtype.size_bytes()) as u64)
        .sum()
}

/// Census of one scheduled kernel: its timing-only trace and its C.
fn census_of(kernel: &Kernel, libs: &Libs, proc: &Arc<Proc>) -> Result<Gen, String> {
    let operands = kernel.operands();
    let zeros: Vec<Vec<f64>> = operands
        .iter()
        .map(|(_, s)| vec![0.0; s.iter().product()])
        .collect();
    let (machine, _) = interpret(proc, &operands, Some(&zeros), false)?;
    let c = compile_c(std::slice::from_ref(proc), kernel.codegen_ctx(libs))
        .map_err(|e| e.to_string())?;
    Ok(Gen {
        hw_instrs: machine.trace().len() as u64,
        bytes_moved: machine.trace().iter().map(operand_bytes).sum(),
        c_bytes: c.len() as u64,
    })
}

/// Schedules `kernel` on `state` inside the [`Layer::Sched`] timer.
fn schedule_timed(
    probe: &mut Probe,
    kernel: &Kernel,
    libs: &Libs,
    state: &StateRef,
) -> Result<Procedure, String> {
    let check = check_of(state);
    let p = probe
        .time_checked(Layer::Sched, &check, || kernel.schedule(libs, state))
        .map_err(|e| format!("{}: {e}", kernel.label()))?;
    probe.count("sched.directives", p.directives() as u64);
    Ok(p)
}

// ---------------------------------------------------------------- fig4a

/// `N` divisor applied to the Fig. 4a shapes: at full size one pass over
/// the twelve shapes takes ~23 s, longer than a run. `M` and `K` (which
/// fix the tile structure and the B-residency choice) are kept.
const FIG4A_N_DIVISOR: i64 = 16;

/// The Fig. 4a shapes with `N` divided by [`FIG4A_N_DIVISOR`], rounded
/// to a multiple of 16, and at least 32 (two row panels).
pub fn fig4a_scaled_shapes() -> Vec<(i64, i64, i64)> {
    exo_bench::fig4a_shapes()
        .into_iter()
        .map(|(n, m, k)| {
            let n = (n / FIG4A_N_DIVISOR + 8) / 16 * 16;
            (n.max(32), m, k)
        })
        .collect()
}

struct Fig4a {
    libs: Libs,
    state: StateRef,
    shapes: Vec<(i64, i64, i64)>,
}

impl Fig4a {
    fn new(libs: Libs) -> Fig4a {
        let shapes = fig4a_scaled_shapes();
        let state = fresh_state();
        // One context shared by every op, as in the fig4a binary; each
        // shape is scheduled once here so timed ops see a warm cache.
        for &(n, m, k) in &shapes {
            let _ = gemmini_gemm::schedule_matmul(&libs.gemmini, &state, n, m, k);
        }
        Fig4a {
            libs,
            state,
            shapes,
        }
    }
}

fn check_report(what: &str, r: &SimReport, macs: u64) -> Result<(), String> {
    if r.truncated {
        return Err(format!("{what}: truncated simulation"));
    }
    if r.macs != macs {
        return Err(format!(
            "{what}: {} MACs simulated, expected {macs}",
            r.macs
        ));
    }
    Ok(())
}

impl Bench for Fig4a {
    fn items(&self) -> usize {
        self.shapes.len()
    }

    fn op(&mut self, item: usize, probe: &mut Probe) -> Result<(), String> {
        let (n, m, k) = self.shapes[item];
        let kernel = Kernel::GemminiMatmul { n, m, k };
        let p = schedule_timed(probe, &kernel, &self.libs, &self.state)?;
        let operands = kernel.operands();
        let (machine, _) = probe.time(Layer::Interp, || {
            interpret(p.proc(), &operands, None, false)
        })?;
        let exo = machine.trace();
        probe.count("interp.steps", machine.steps());
        probe.count("interp.hw_ops", exo.len() as u64);
        let old = probe.time(Layer::Kernels, || {
            gemmini_gemm::old_lib_matmul_trace(n, m, k)
        });
        let reports = [
            (
                "exo",
                probe.time(Layer::GemminiSim, || {
                    Simulator::new(SimConfig::software()).run(exo)
                }),
            ),
            (
                "old-lib",
                probe.time(Layer::GemminiSim, || {
                    Simulator::new(SimConfig::software()).run(&old)
                }),
            ),
            (
                "hardware",
                probe.time(Layer::GemminiSim, || {
                    Simulator::new(SimConfig::hardware_unroller()).run(exo)
                }),
            ),
        ];
        for (what, r) in &reports {
            probe.count("gemmini_sim.instrs", r.instructions);
            probe.count("gemmini_sim.cycles", r.cycles);
            probe.count("gemmini_sim.flushes", r.flushes);
            check_report(what, r, kernel.macs())?;
        }
        let matmuls = exo.iter().filter(|op| op.instr == "gemmini_matmul").count() as i64;
        // freeing the traces is part of the layer that built them
        probe.time(Layer::Interp, || drop(machine));
        probe.time(Layer::Kernels, || drop(old));
        let tiles = (n / 16) * (m / 16) * (k / 16);
        if matmuls != tiles {
            return Err(format!(
                "{}: {matmuls} gemmini_matmul, expected {tiles}",
                kernel.label()
            ));
        }
        Ok(())
    }

    fn census(&mut self, item: usize) -> Result<Gen, String> {
        let (n, m, k) = self.shapes[item];
        let kernel = Kernel::GemminiMatmul { n, m, k };
        let p = kernel
            .schedule(&self.libs, &self.state)
            .map_err(|e| e.to_string())?;
        census_of(&kernel, &self.libs, p.proc())
    }
}

// ----------------------------------------------------------- x86-oracle

/// Seeded input values: multiples of 1/8 in [-2, 2], so every partial
/// sum of the small kernels is exact in f32 and the scheduled output
/// must equal the naive one bit for bit, whatever the summation order.
fn dyadic_inputs(rng: &mut Rng, operands: &[(DataType, Vec<usize>)]) -> Vec<Vec<f64>> {
    operands
        .iter()
        .map(|(_, shape)| {
            (0..shape.iter().product::<usize>())
                .map(|_| (rng.below(33) as f64 - 16.0) / 8.0)
                .collect()
        })
        .collect()
}

struct Oracle {
    libs: Libs,
    core: CoreModel,
    /// (kernel, naive proc, seeded inputs)
    items: Vec<(Kernel, Arc<Proc>, Vec<Vec<f64>>)>,
}

impl Oracle {
    fn new(libs: Libs, seed: u64) -> Oracle {
        let conv = |out_dim, oc, ic| ConvShape {
            batch: 1,
            out_dim,
            oc,
            ic,
            kdim: 3,
        };
        let kernels = [
            Kernel::Sgemm {
                m: 12,
                n: 128,
                k: 32,
            },
            Kernel::Sgemm {
                m: 6,
                n: 128,
                k: 64,
            },
            Kernel::Sgemm {
                m: 18,
                n: 128,
                k: 24,
            },
            Kernel::Sgemm {
                m: 12,
                n: 192,
                k: 24,
            },
            Kernel::X86Conv(conv(4, 32, 16)),
        ];
        let mut rng = Rng::new(seed);
        let items = kernels
            .into_iter()
            .map(|k| {
                let inputs = dyadic_inputs(&mut rng, &k.operands());
                (k, k.naive(), inputs)
            })
            .collect();
        Oracle {
            libs,
            core: CoreModel::tiger_lake(),
            items,
        }
    }
}

impl Bench for Oracle {
    fn items(&self) -> usize {
        self.items.len()
    }

    fn op(&mut self, item: usize, probe: &mut Probe) -> Result<(), String> {
        let (kernel, naive, inputs) = &self.items[item];
        let state = fresh_state();
        let p = schedule_timed(probe, kernel, &self.libs, &state)?;
        let operands = kernel.operands();
        let (reference, want) = probe.time(Layer::Interp, || {
            interpret(naive, &operands, Some(inputs), true)
        })?;
        let (got, out) = probe.time(Layer::Interp, || {
            interpret(p.proc(), &operands, Some(inputs), true)
        })?;
        probe.count("interp.steps", reference.steps() + got.steps());
        probe.count("interp.hw_ops", got.trace().len() as u64);
        if want.is_empty() || out != want {
            return Err(format!(
                "{}: scheduled output differs from naive",
                kernel.label()
            ));
        }
        let (profile, _cycles) = probe.time(Layer::X86Sim, || {
            x86_sim::simulate_trace(got.trace(), &self.core)
        });
        let fixed = probe.time(Layer::X86Sim, || x86_sim::profile_proc(p.proc()));
        probe.time(Layer::Interp, || drop((reference, got)));
        probe.count("x86_sim.fmas", profile.fmas);
        let want_fmas = kernel.macs() / 16;
        if profile.fmas != want_fmas || fixed.map(|f| f.fmas) != Some(want_fmas) {
            return Err(format!(
                "{}: {} traced / {:?} static FMAs, expected {want_fmas}",
                kernel.label(),
                profile.fmas,
                fixed.map(|f| f.fmas)
            ));
        }
        Ok(())
    }

    fn census(&mut self, item: usize) -> Result<Gen, String> {
        let (kernel, _, _) = &self.items[item];
        let p = kernel
            .schedule(&self.libs, &fresh_state())
            .map_err(|e| e.to_string())?;
        census_of(kernel, &self.libs, p.proc())
    }
}

// -------------------------------------------------------- schedule-cold

struct ScheduleCold {
    libs: Libs,
    /// (kernel, naive proc)
    items: Vec<(Kernel, Arc<Proc>)>,
}

impl ScheduleCold {
    fn new(libs: Libs) -> ScheduleCold {
        let kernels = [
            Kernel::GemminiMatmul {
                n: 64,
                m: 64,
                k: 64,
            },
            Kernel::GemminiMatmul {
                n: 32,
                m: 256,
                k: 1024,
            },
            Kernel::GemminiConv(ConvShape::fig4b(4, 32, 32)),
            Kernel::Sgemm {
                m: 24,
                n: 128,
                k: 32,
            },
            Kernel::X86Conv(ConvShape {
                batch: 1,
                out_dim: 4,
                oc: 32,
                ic: 16,
                kdim: 3,
            }),
        ];
        let items = kernels.into_iter().map(|k| (k, k.naive())).collect();
        ScheduleCold { libs, items }
    }
}

impl Bench for ScheduleCold {
    fn items(&self) -> usize {
        self.items.len()
    }

    fn op(&mut self, item: usize, probe: &mut Probe) -> Result<(), String> {
        let (kernel, naive) = &self.items[item];
        let p = schedule_timed(probe, kernel, &self.libs, &fresh_state())?;
        let ctx = kernel.codegen_ctx(&self.libs);
        let c = probe
            .time(Layer::Codegen, || {
                compile_c(std::slice::from_ref(p.proc()), ctx)
            })
            .map_err(|e| format!("{}: compile_c: {e}", kernel.label()))?;
        probe.count("codegen.c_bytes", c.len() as u64);
        let text = probe.time(Layer::Front, || proc_to_string(naive));
        let reparsed = probe
            .time(Layer::Front, || parse_proc(&text, &ParseEnv::new()))
            .map_err(|e| format!("{}: re-parse: {e}", kernel.label()))?;
        probe.count("front.bytes", text.len() as u64);
        if !alpha_eq_proc(naive, &reparsed) {
            return Err(format!("{}: re-parsed naive proc differs", kernel.label()));
        }
        Ok(())
    }

    fn census(&mut self, item: usize) -> Result<Gen, String> {
        let (kernel, _) = &self.items[item];
        let p = kernel
            .schedule(&self.libs, &fresh_state())
            .map_err(|e| e.to_string())?;
        census_of(kernel, &self.libs, p.proc())
    }
}

// ------------------------------------------------------------ lint-cold

/// Hand-checked loop verdicts: `subject iterator path verdict` per line.
const EXPECTED_LINT: &str = include_str!("../expected_lint.txt");

struct Subject {
    label: String,
    proc: Arc<Proc>,
    /// The scheduled kernel this subject is, if it is one.
    scheduled: Option<Kernel>,
    /// Expected `(iterator, path, verdict)` per loop, pre-order.
    expected: Vec<String>,
}

struct LintCold {
    libs: Libs,
    subjects: Vec<Subject>,
}

impl LintCold {
    fn new(libs: Libs) -> LintCold {
        let gconv = ConvShape::fig4b(4, 32, 32);
        let xconv = ConvShape {
            batch: 1,
            out_dim: 8,
            oc: 32,
            ic: 16,
            kdim: 3,
        };
        let naive = [
            Kernel::Sgemm { m: 6, n: 128, k: 8 },
            Kernel::GemminiMatmul {
                n: 32,
                m: 32,
                k: 32,
            },
            Kernel::GemminiConv(gconv),
        ];
        let scheduled = [
            Kernel::GemminiMatmul {
                n: 32,
                m: 32,
                k: 32,
            },
            Kernel::Sgemm { m: 6, n: 128, k: 8 },
            Kernel::X86Conv(xconv),
            Kernel::GemminiConv(gconv),
        ];
        let mut subjects = Vec::new();
        for k in naive {
            subjects.push((format!("naive_{}", k.label()), k.naive(), None));
        }
        for k in scheduled {
            // scheduling is set-up, not measured; if it fails, the naive
            // proc stands in and every op on it fails the verdict check
            let proc = match k.schedule(&libs, &fresh_state()) {
                Ok(p) => p.proc().clone(),
                Err(_) => k.naive(),
            };
            subjects.push((format!("scheduled_{}", k.label()), proc, Some(k)));
        }
        let subjects = subjects
            .into_iter()
            .map(|(label, proc, scheduled)| {
                let expected = EXPECTED_LINT
                    .lines()
                    .filter_map(|l| l.strip_prefix(label.as_str()))
                    .filter_map(|rest| rest.strip_prefix(' '))
                    .map(str::to_string)
                    .collect();
                Subject {
                    label,
                    proc,
                    scheduled,
                    expected,
                }
            })
            .collect();
        LintCold { libs, subjects }
    }
}

impl Bench for LintCold {
    fn items(&self) -> usize {
        self.subjects.len()
    }

    fn op(&mut self, item: usize, probe: &mut Probe) -> Result<(), String> {
        let s = &self.subjects[item];
        let check = SharedCheckCtx::with_cache(true);
        let mut reg = GlobalReg::new();
        let diags = probe.time_checked(Layer::Lint, &check, || {
            exo_lint::lint_proc_with(&s.proc, &check, &mut reg)
        });
        let verdicts = probe.time_checked(Layer::Lint, &check, || {
            exo_lint::classify_loops(&s.proc, &check, &mut reg)
        });
        probe.count("lint.loops", verdicts.len() as u64);
        probe.count("lint.findings", diags.len() as u64);
        if let Some(d) = diags.iter().find(|d| d.severity >= Severity::Error) {
            return Err(format!("{}: error finding: {d}", s.label));
        }
        let got: Vec<String> = verdicts
            .iter()
            .map(|(path, iter, v)| format!("{iter} {path} {}", v.name()))
            .collect();
        if got != s.expected {
            return Err(format!(
                "{}: loop verdicts {got:?}, expected {:?}",
                s.label, s.expected
            ));
        }
        Ok(())
    }

    fn census(&mut self, item: usize) -> Result<Gen, String> {
        let s = &self.subjects[item];
        match &s.scheduled {
            Some(k) => census_of(k, &self.libs, &s.proc),
            None => Ok(Gen::default()),
        }
    }
}
