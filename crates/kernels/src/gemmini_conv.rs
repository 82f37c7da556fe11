//! The Gemmini CONV case study (paper §7.1, Fig. 4b).
//!
//! A direct convolution (batch, NHWC layout, square kernel, unit stride,
//! no padding) is scheduled onto Gemmini with a weight-stationary-per-row
//! strategy: one output row (`OX × OC`) stays resident in the accumulator
//! while the reduction over `(ky, kx, ic)` streams weight panels and
//! input patches through the scratchpad; output-pixel × output-channel
//! tiles map to 14×16×16 systolic passes.

use std::sync::Arc;

use exo_core::build::{read, ProcBuilder};
use exo_core::ir::{Expr, Proc};
use exo_core::types::DataType;
use exo_hwlibs::GemminiLib;
use exo_interp::{HwOp, Trace};
use exo_sched::{Procedure, SchedError, StateRef};

use crate::schedlib::{
    conv_args, gemmini_config_instrs, run_patterned, tile, unit, write_gemmini_configs, OldLib,
};

/// The conv shapes of Fig. 4b: `(output dim, output channels, input
/// channels)`, batch 4, 3×3 kernel.
#[derive(Clone, Copy, Debug)]
pub struct ConvShape {
    /// Batch size.
    pub batch: i64,
    /// Output height = width.
    pub out_dim: i64,
    /// Output channels (multiple of 16).
    pub oc: i64,
    /// Input channels (multiple of 16).
    pub ic: i64,
    /// Kernel height = width.
    pub kdim: i64,
}

impl ConvShape {
    /// A Fig. 4b shape with batch 4 and 3×3 kernels.
    pub fn fig4b(out_dim: i64, oc: i64, ic: i64) -> ConvShape {
        ConvShape {
            batch: 4,
            out_dim,
            oc,
            ic,
            kdim: 3,
        }
    }

    /// Input spatial size (no padding, unit stride).
    pub fn in_dim(&self) -> i64 {
        self.out_dim + self.kdim - 1
    }

    /// The shapes of the input `In` (NHWC), the weights `W` (ky, kx, ic,
    /// oc) and the output `C` (NHWC).
    pub fn tensor_shapes(&self) -> [[i64; 4]; 3] {
        [
            [self.batch, self.in_dim(), self.in_dim(), self.ic],
            [self.kdim, self.kdim, self.ic, self.oc],
            [self.batch, self.out_dim, self.out_dim, self.oc],
        ]
    }

    /// Total multiply-accumulates.
    pub fn macs(&self) -> u64 {
        (self.batch * self.out_dim * self.out_dim * self.oc * self.ic * self.kdim * self.kdim)
            as u64
    }

    /// The output-pixel tile width (≤ 16, divides `out_dim`). Rows
    /// narrower than 16 use the whole row as one tile.
    pub fn ox_tile(&self) -> i64 {
        for t in [16, 14, 8, 7, 4, 2, 1] {
            if self.out_dim % t == 0 {
                return t;
            }
        }
        1
    }
}

/// The naive algorithm: `C[b,oy,ox,oc] += Σ In[b,oy+ky,ox+kx,ic] ·
/// W[ky,kx,ic,oc]` (NHWC, i8 operands, i32 accumulation).
pub fn naive_conv(s: &ConvShape) -> Arc<Proc> {
    naive_conv_typed(s, DataType::I8, DataType::I32)
}

/// [`naive_conv`] with chosen operand/accumulator precisions (the x86
/// case study uses f32 throughout).
pub fn naive_conv_typed(s: &ConvShape, in_ty: DataType, out_ty: DataType) -> Arc<Proc> {
    let [in_shape, w_shape, c_shape] = s.tensor_shapes().map(|d| d.map(Expr::int).to_vec());
    let mut b = ProcBuilder::new("conv");
    let input = b.tensor("In", in_ty, in_shape);
    let w = b.tensor("W", in_ty, w_shape);
    let c = b.tensor("C", out_ty, c_shape);
    let bb = b.begin_for("b", Expr::int(0), Expr::int(s.batch));
    let oy = b.begin_for("oy", Expr::int(0), Expr::int(s.out_dim));
    let ox = b.begin_for("ox", Expr::int(0), Expr::int(s.out_dim));
    let oc = b.begin_for("oc", Expr::int(0), Expr::int(s.oc));
    let ky = b.begin_for("ky", Expr::int(0), Expr::int(s.kdim));
    let kx = b.begin_for("kx", Expr::int(0), Expr::int(s.kdim));
    let ic = b.begin_for("ic", Expr::int(0), Expr::int(s.ic));
    b.reduce(
        c,
        vec![Expr::var(bb), Expr::var(oy), Expr::var(ox), Expr::var(oc)],
        read(
            input,
            vec![
                Expr::var(bb),
                Expr::var(oy).add(Expr::var(ky)),
                Expr::var(ox).add(Expr::var(kx)),
                Expr::var(ic),
            ],
        )
        .mul(read(
            w,
            vec![Expr::var(ky), Expr::var(kx), Expr::var(ic), Expr::var(oc)],
        )),
    );
    b.end_for()
        .end_for()
        .end_for()
        .end_for()
        .end_for()
        .end_for()
        .end_for();
    b.finish()
}

/// Schedules [`naive_conv`] onto Gemmini.
///
/// # Errors
///
/// Fails if a rewrite's safety condition cannot be verified or the
/// channel counts are not multiples of 16.
pub fn schedule_conv(
    lib: &GemminiLib,
    state: &StateRef,
    s: &ConvShape,
) -> Result<Procedure, SchedError> {
    let oxt = s.ox_tile();
    let p = Procedure::with_state(naive_conv(s), StateRef::clone(state));

    // ---- tiling ----
    // split pixels and channels: ox → oxo·oxt + oxi, oc → 16, ic → 16
    let p = p
        .split("for ox in _: _", oxt, "oxo", "oxi")?
        .split("for oc in _: _", 16, "oco", "oci")?
        .split("for ic in _: _", 16, "ico", "ici")?;
    // current order: b oy oxo oxi oco oci ky kx ico ici
    // target:        b oy ky kx ico oxo oco oxi oci ici
    // (the reduction loops surround the pixel/channel tiles, so that one
    // output *row* stays resident in the accumulator while each weight
    // panel and input patch is loaded once per reduction step — the
    // weight-stationary-per-row strategy)
    let p = p
        .reorder("for oxi in _: _", "oco")?
        .reorder("for oci in _: _", "ky")?
        .reorder("for oxi in _: _", "ky")?
        .reorder("for oco in _: _", "ky")?
        .reorder("for oxo in _: _", "ky")?
        .reorder("for oci in _: _", "kx")?
        .reorder("for oxi in _: _", "kx")?
        .reorder("for oco in _: _", "kx")?
        .reorder("for oxo in _: _", "kx")?
        .reorder("for oci in _: _", "ico")?
        .reorder("for oxi in _: _", "ico")?
        .reorder("for oco in _: _", "ico")?
        .reorder("for oxo in _: _", "ico")?;
    // now: b oy ky kx ico oxo oco oxi oci ici

    let b_sym = p.iter_sym("b")?;
    let oy = p.iter_sym("oy")?;
    let ky = p.iter_sym("ky")?;
    let kx = p.iter_sym("kx")?;
    let ico = p.iter_sym("ico")?;

    // ---- staging ----
    // one output row resident in the accumulator per (b, oy): stage at
    // the ky loop (the whole reduction)
    let p = p.stage_mem(
        "for ky in _: _",
        "C",
        &[
            unit(Expr::var(b_sym)),
            unit(Expr::var(oy)),
            (Expr::int(0), Expr::int(s.out_dim)),
            (Expr::int(0), Expr::int(s.oc)),
        ],
        "res",
        lib.accum,
    )?;
    // weight panel (ky, kx, 16 ic, all oc) per reduction step: stage so
    // every pixel tile in the row reuses it. When the row is a single
    // tile the oxo loop folds away, so the oco loop is the anchor.
    let stage_at = if s.out_dim / oxt >= 2 {
        "for oxo in _: _"
    } else {
        "for oco in _: _"
    };
    let p = p.stage_mem(
        stage_at,
        "W",
        &[
            unit(Expr::var(ky)),
            unit(Expr::var(kx)),
            tile(ico, 16),
            (Expr::int(0), Expr::int(s.oc)),
        ],
        "w_s",
        lib.scratchpad,
    )?;
    // input row patch (whole row of pixels × 16 ic): same anchor
    let p = p.stage_mem(
        stage_at,
        "In",
        &[
            unit(Expr::var(b_sym)),
            unit(Expr::var(oy).add(Expr::var(ky))),
            (Expr::var(kx), Expr::var(kx).add(Expr::int(s.out_dim))),
            tile(ico, 16),
        ],
        "in_s",
        lib.scratchpad,
    )?;
    let p = p.simplify(); // collapse the unit dimensions' loops

    // ---- configuration, hoisted to the top ----
    let p = write_gemmini_configs(p, lib, "for b in _: _", ["In", "W", "C"], 2)?;

    // ---- instruction selection ----
    // res load (out_dim × oc): tile and map to mvin_acc
    let p = p
        .split("for ld2 in _: _", oxt, "rl2o", "rl2i")?
        .split("for ld3 in _: _", 16, "rl3o", "rl3i")?
        .reorder("for rl2i in _: _", "rl3o")?
        .replace("for rl2i in _: _", &lib.mvin_acc)?;
    // weight panel load (16 × oc): tile oc, map to the second mover
    let p = p
        .split("for ld3 in _: _", 16, "wl3o", "wl3i")?
        .reorder("for ld2 in _: _", "wl3o")?
        .replace("for ld2 in _: _", &lib.mvin2)?;
    // input patch load (out_dim × 16): tile pixels, map to mvin
    let p = p
        .split("for ld2 in _: _", oxt, "il2o", "il2i")?
        .replace("for il2i in _: _", &lib.mvin)?;
    // compute: (oxi × oci × ici) → one systolic pass
    let p = p.replace("for oxi in _: _", &lib.matmul)?;
    // res store → mvout_acc
    let p = p
        .split("for st2 in _: _", oxt, "rs2o", "rs2i")?
        .split("for st3 in _: _", 16, "rs3o", "rs3i")?
        .reorder("for rs2i in _: _", "rs3o")?
        .replace("for rs2i in _: _", &lib.mvout_acc)?;

    // ---- configuration writes become instructions ----
    Ok(gemmini_config_instrs(p, lib)?.simplify())
}

/// Runs the scheduled conv and returns its instruction trace.
///
/// # Panics
///
/// Panics if the scheduled procedure fails to interpret — a schedule
/// accepted by the safety checks must also run, so this is a bug.
#[allow(clippy::expect_used)]
pub fn trace_conv(proc: &Proc, s: &ConvShape, functional: bool) -> Vec<HwOp> {
    let args = conv_args(s, DataType::I8, DataType::I32);
    let (mut machine, _) = run_patterned(proc, &args, functional).expect("scheduled conv must run");
    machine.take_trace()
}

/// The handwritten-library baseline for conv: an im2col-free tiled conv
/// with per-move fused configuration and no weight residency (one weight
/// tile load per systolic pass), following the Old-lib structure of
/// §7.1.
pub fn old_lib_conv_trace(s: &ConvShape) -> Trace {
    let lib = OldLib::new();
    let oxt = s.ox_tile();
    // per output tile: two configs, two accumulator moves, and a load
    // pair plus a matmul per kernel position and IC tile
    let tiles = s.batch * s.out_dim * (s.out_dim / oxt) * (s.oc / 16);
    let per_tile = 4 + 3 * s.kdim * s.kdim * (s.ic / 16);
    let mut trace = Trace::with_capacity((tiles * per_tile).max(0) as usize);
    // the instructions and on-chip tiles that do not depend on the tile
    // position, built once
    let (config_ld, config_st, matmul) =
        (lib.config_ld(s.ic), lib.config_st(s.ic), lib.matmul(oxt));
    let (spad_in, spad_w, acc) = (
        lib.tile(3, 0, oxt, 16),
        lib.tile(4, 0, 16, 16),
        lib.tile(5, 0, oxt, 16),
    );
    for b in 0..s.batch {
        for oy in 0..s.out_dim {
            for oxo in 0..s.out_dim / oxt {
                for oco in 0..s.oc / 16 {
                    let c_off = ((b * s.out_dim + oy) * s.out_dim + oxo * oxt) * s.oc + oco * 16;
                    let c = lib.tile(2, c_off, oxt, s.oc);
                    // per-tile configuration (the old library's coupled
                    // configs cannot be hoisted further, §7.1)
                    trace.push(config_ld.clone());
                    trace.push(lib.mvin_acc(oxt, c, acc));
                    for ky in 0..s.kdim {
                        for kx in 0..s.kdim {
                            for ico in 0..s.ic / 16 {
                                let in_off =
                                    ((b * s.in_dim() + oy + ky) * s.in_dim() + oxo * oxt + kx)
                                        * s.ic
                                        + ico * 16;
                                let input = lib.tile(0, in_off, oxt, s.ic);
                                trace.push(lib.mvin(oxt, input, spad_in));
                                let w_off =
                                    ((ky * s.kdim + kx) * s.ic + ico * 16) * s.oc + oco * 16;
                                let w = lib.tile(1, w_off, 16, s.oc);
                                trace.push(lib.mvin(16, w, spad_w));
                                trace.push(matmul.clone());
                            }
                        }
                    }
                    trace.push(config_st.clone());
                    trace.push(lib.mvout_acc(oxt, acc, c));
                }
            }
        }
    }
    trace
}

/// A small conv shape for tests in which every tiled loop has ≥ 2
/// iterations.
#[cfg(test)]
pub(crate) const SMALL_CONV: ConvShape = ConvShape {
    batch: 2,
    out_dim: 8,
    oc: 32,
    ic: 32,
    kdim: 3,
};

#[cfg(test)]
mod tests {
    use super::*;
    use exo_sched::SchedState;
    use std::sync::Mutex;

    #[test]
    fn schedule_small_conv_is_correct() {
        let lib = GemminiLib::new();
        let st: StateRef = Arc::new(Mutex::new(SchedState::default()));
        let shape = SMALL_CONV;
        let p = schedule_conv(&lib, &st, &shape).expect("schedule");
        assert!(p.show().contains("gemmini_matmul("), "{}", p.show());

        // oracle: scheduled == naive
        let args = conv_args(&shape, DataType::I8, DataType::I32);
        let run = |proc: &Proc| {
            let (machine, c) = run_patterned(proc, &args, true).expect("run");
            machine.buffer_values(c).unwrap()
        };
        assert_eq!(run(&naive_conv(&shape)), run(p.proc()));
    }

    #[test]
    fn conv_trace_hoists_configs() {
        let lib = GemminiLib::new();
        let st: StateRef = Arc::new(Mutex::new(SchedState::default()));
        let shape = SMALL_CONV;
        let p = schedule_conv(&lib, &st, &shape).expect("schedule");
        let trace = trace_conv(p.proc(), &shape, false);
        let configs: Vec<usize> = trace
            .iter()
            .enumerate()
            .filter(|(_, op)| op.instr.as_str().starts_with("gemmini_config"))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(configs.len(), 4);
        assert!(configs.iter().all(|&i| i < 4));
        let matmuls = trace
            .iter()
            .filter(|op| op.instr == "gemmini_matmul")
            .count();
        // b·oy·(ky·kx)·ico·oxo·oco = 2·8·9·2·1·2 = 576
        assert_eq!(matmuls, 576);
    }

    #[test]
    fn ox_tile_choices() {
        assert_eq!(ConvShape::fig4b(56, 64, 64).ox_tile(), 14);
        assert_eq!(ConvShape::fig4b(28, 128, 128).ox_tile(), 14);
        assert_eq!(ConvShape::fig4b(14, 256, 256).ox_tile(), 14);
        assert_eq!(SMALL_CONV.ox_tile(), 8);
    }
}
