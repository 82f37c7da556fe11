//! User-level scheduling library shared by the four case studies: the
//! idioms their schedules, oracles and baselines repeat, each written
//! once on top of `exo-sched`'s public operators (no new operator).
//!
//! - window intervals for `stage_mem`: [`tile`] and [`unit`];
//! - Gemmini configuration: [`write_gemmini_configs`] hoists the four
//!   stride writes, [`gemmini_config_instrs`] turns them into
//!   instructions;
//! - the naive GEMM algorithm [`naive_gemm`] (the conv one is
//!   [`crate::gemmini_conv::naive_conv_typed`]);
//! - the interpreter runner [`run_patterned`] over [`gemm_args`] /
//!   [`conv_args`];
//! - the instruction constructors of the Old-lib trace models
//!   ([`OldLib`]).

use std::sync::Arc;

use exo_core::build::{read, ProcBuilder};
use exo_core::ir::{Expr, Proc};
use exo_core::types::DataType;
use exo_core::{MemName, Sym};
use exo_hwlibs::GemminiLib;
use exo_interp::{ArgVal, BufId, HwOp, Instr, InterpError, Machine, TensorRef, TraceArg};
use exo_sched::{Position, Procedure, SchedError};

use crate::gemmini_conv::ConvShape;

/// The `x`-th tile of width `t`: `[x·t, x·t + t)`.
pub fn tile(x: Sym, t: i64) -> (Expr, Expr) {
    let lo = Expr::var(x).mul(Expr::int(t));
    (lo.clone(), lo.add(Expr::int(t)))
}

/// The single point `e`: `[e, e + 1)`.
pub fn unit(e: Expr) -> (Expr, Expr) {
    (e.clone(), e.add(Expr::int(1)))
}

/// Gemmini's four stride configurations, each with the instruction it
/// becomes, in schedule order: the first load mover (`A` / `In`), the
/// second (`B` / `W`), the accumulator load and the store (both `C`).
fn gemmini_configs(lib: &GemminiLib) -> [((Sym, Sym), &Arc<Proc>); 4] {
    [
        (lib.config_ld, &lib.config_ld_instr),
        (lib.config_ld2, &lib.config_ld2_instr),
        (lib.config_ld_acc, &lib.config_ld_acc_instr),
        (lib.config_st, &lib.config_st_instr),
    ]
}

/// Writes the four stride configurations before the statement matching
/// `anchor`: the two load movers get the strides of `a` and `b`, the
/// accumulator load and the store that of `c`, all along dimension `dim`.
///
/// # Errors
///
/// Fails if a buffer is missing or a write cannot be verified.
pub fn write_gemmini_configs(
    p: Procedure,
    lib: &GemminiLib,
    anchor: &str,
    [a, b, c]: [&str; 3],
    dim: usize,
) -> Result<Procedure, SchedError> {
    let (a, b, c) = (
        p.lookup_data_sym(a)?,
        p.lookup_data_sym(b)?,
        p.lookup_data_sym(c)?,
    );
    gemmini_configs(lib).into_iter().zip([a, b, c, c]).try_fold(
        p,
        |p, (((config, field), _), buf)| {
            p.configwrite_at(
                anchor,
                Position::Before,
                config,
                field,
                Expr::Stride { buf, dim },
            )
        },
    )
}

/// Replaces each of the four configuration writes with its instruction.
///
/// # Errors
///
/// Fails if a write is missing or does not unify with its instruction.
pub fn gemmini_config_instrs(p: Procedure, lib: &GemminiLib) -> Result<Procedure, SchedError> {
    gemmini_configs(lib)
        .into_iter()
        .try_fold(p, |p, ((config, field), instr)| {
            p.replace(
                format!("{}.{} = _", config.name(), field.name()).as_str(),
                instr,
            )
        })
}

/// The naive GEMM `C += A·B` named `name`: `A` is `rows × k`, `B` is
/// `k × cols`, operands are `in_ty` and the output `out_ty`.
pub fn naive_gemm(
    name: &str,
    rows: i64,
    cols: i64,
    k: i64,
    in_ty: DataType,
    out_ty: DataType,
) -> Arc<Proc> {
    let mut b = ProcBuilder::new(name);
    let a = b.tensor("A", in_ty, vec![Expr::int(rows), Expr::int(k)]);
    let bb = b.tensor("B", in_ty, vec![Expr::int(k), Expr::int(cols)]);
    let c = b.tensor("C", out_ty, vec![Expr::int(rows), Expr::int(cols)]);
    let i = b.begin_for("i", Expr::int(0), Expr::int(rows));
    let j = b.begin_for("j", Expr::int(0), Expr::int(cols));
    let kk = b.begin_for("k", Expr::int(0), Expr::int(k));
    b.reduce(
        c,
        vec![Expr::var(i), Expr::var(j)],
        read(a, vec![Expr::var(i), Expr::var(kk)]).mul(read(bb, vec![Expr::var(kk), Expr::var(j)])),
    );
    b.end_for().end_for().end_for();
    b.finish()
}

/// A tensor argument of [`run_patterned`]: name, element type, shape.
pub type TensorArg = (&'static str, DataType, Vec<usize>);

/// The tensor arguments of [`naive_gemm`].
pub fn gemm_args(
    rows: i64,
    cols: i64,
    k: i64,
    in_ty: DataType,
    out_ty: DataType,
) -> [TensorArg; 3] {
    let (rows, cols, k) = (rows as usize, cols as usize, k as usize);
    [
        ("A", in_ty, vec![rows, k]),
        ("B", in_ty, vec![k, cols]),
        ("C", out_ty, vec![rows, cols]),
    ]
}

/// The tensor arguments of [`crate::gemmini_conv::naive_conv_typed`].
pub fn conv_args(s: &ConvShape, in_ty: DataType, out_ty: DataType) -> [TensorArg; 3] {
    let [input, w, c] = s.tensor_shapes().map(|d| d.map(|x| x as usize).to_vec());
    [("In", in_ty, input), ("W", in_ty, w), ("C", out_ty, c)]
}

/// Runs `proc` on the interpreter with patterned inputs: element `i` of
/// the two operands is `i % 5 − 2` and `i % 7 − 3`, the output starts at
/// zero. When `functional` is false the buffers stay uninitialized and
/// instruction bodies are skipped (a timing-only trace). Returns the
/// machine and the output buffer.
///
/// # Errors
///
/// Fails if the procedure does not run on these arguments.
pub fn run_patterned(
    proc: &Proc,
    args: &[TensorArg; 3],
    functional: bool,
) -> Result<(Machine, BufId), InterpError> {
    let mut machine = Machine::new();
    machine.execute_instr_bodies = functional;
    let mut ids = [BufId(0); 3];
    for ((id, (name, dtype, shape)), (modulus, shift)) in
        ids.iter_mut().zip(args).zip([(5, 2.0), (7, 3.0), (1, 0.0)])
    {
        *id = if functional {
            let len = shape.iter().product::<usize>();
            let data: Vec<f64> = (0..len).map(|i| (i % modulus) as f64 - shift).collect();
            machine.alloc_extern(name, *dtype, shape, &data)
        } else {
            machine.alloc_extern_uninit(name, *dtype, shape)
        };
    }
    machine.run(proc, &ids.map(ArgVal::Tensor))?;
    Ok((machine, ids[2]))
}

/// The instructions of an Old-lib trace model, with the Gemmini
/// library's signatures, resolved once per trace. The model's buffers
/// are the DRAM operands `A`/`In` (0), `B`/`W` (1) and `C` (2), the two
/// scratchpad tiles (3, 4) and the accumulator tile (5); `C` and the
/// accumulator hold i32, the rest i8.
pub struct OldLib {
    dram: MemName,
    config_ld: Instr,
    config_st: Instr,
    mvin: Instr,
    mvin_acc: Instr,
    mvout_acc: Instr,
    matmul: Instr,
}

impl Default for OldLib {
    fn default() -> OldLib {
        OldLib::new()
    }
}

impl OldLib {
    /// Resolves the six instructions.
    pub fn new() -> OldLib {
        let config = |name| Instr::intern(name, &["s"]);
        let mov = |name| Instr::intern(name, &["n", "m", "src", "dst"]);
        OldLib {
            dram: MemName::dram(),
            config_ld: config("gemmini_config_ld"),
            config_st: config("gemmini_config_st"),
            mvin: mov("gemmini_mvin"),
            mvin_acc: mov("gemmini_mvin_acc"),
            mvout_acc: mov("gemmini_mvout_acc"),
            matmul: Instr::intern("gemmini_matmul", &["n", "m", "k", "a", "b", "c"]),
        }
    }

    /// A `rows × 16` window at element `off` of buffer `buf`, whose rows
    /// are `stride` elements apart.
    pub fn tile(&self, buf: usize, off: i64, rows: i64, stride: i64) -> TraceArg {
        let dtype = if buf == 2 || buf == 5 {
            DataType::I32
        } else {
            DataType::I8
        };
        let axes = [(rows as usize, stride as usize), (16, 1)];
        TraceArg::Tensor(TensorRef::new(
            BufId(buf),
            self.dram,
            dtype,
            off as usize,
            &axes,
        ))
    }

    /// The load configuration, setting stride `s`.
    pub fn config_ld(&self, s: i64) -> HwOp {
        HwOp::new(self.config_ld, [TraceArg::Int(s)])
    }

    /// The store configuration, setting stride `s`.
    pub fn config_st(&self, s: i64) -> HwOp {
        HwOp::new(self.config_st, [TraceArg::Int(s)])
    }

    /// A load of `rows × 16` i8 elements from `src` into the scratchpad.
    pub fn mvin(&self, rows: i64, src: TraceArg, dst: TraceArg) -> HwOp {
        move_op(self.mvin, rows, src, dst)
    }

    /// A load of `rows × 16` i32 elements from `src` into the accumulator.
    pub fn mvin_acc(&self, rows: i64, src: TraceArg, dst: TraceArg) -> HwOp {
        move_op(self.mvin_acc, rows, src, dst)
    }

    /// A store of `rows × 16` i32 elements from the accumulator to `dst`.
    pub fn mvout_acc(&self, rows: i64, src: TraceArg, dst: TraceArg) -> HwOp {
        move_op(self.mvout_acc, rows, src, dst)
    }

    /// One systolic pass over `rows` rows: scratchpad tiles 3 and 4 into
    /// the accumulator tile.
    pub fn matmul(&self, rows: i64) -> HwOp {
        HwOp::new(
            self.matmul,
            [
                TraceArg::Int(rows),
                TraceArg::Int(16),
                TraceArg::Int(16),
                self.tile(3, 0, rows, 16),
                self.tile(4, 0, 16, 16),
                self.tile(5, 0, rows, 16),
            ],
        )
    }
}

/// A move of `rows × 16` elements from `src` to `dst`.
fn move_op(instr: Instr, rows: i64, src: TraceArg, dst: TraceArg) -> HwOp {
    HwOp::new(instr, [TraceArg::Int(rows), TraceArg::Int(16), src, dst])
}
