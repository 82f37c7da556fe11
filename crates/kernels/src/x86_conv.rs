//! The x86 CONV case study (paper §7.2, Fig. 6).
//!
//! The paper's configuration: batch 5, 3×3 kernel, 80×100 output,
//! 128 input and output channels, unit stride, no padding, fused ReLU.
//! The schedule vectorizes over output channels (16 f32 lanes),
//! register-blocks output pixels, broadcasts input scalars, and streams
//! weight vectors — the same structure Halide's hand-tuned schedule and
//! oneDNN's JIT'd kernels use, which is why all three land within a
//! percent of each other in the paper.

use std::sync::Arc;

use exo_core::ir::{Expr, Proc};
use exo_core::types::DataType;
use exo_hwlibs::Avx512Lib;
use exo_sched::{Procedure, SchedError, StateRef};
use x86_sim::traffic::{conv_traffic, ConvShape as TrafficShape};
use x86_sim::{CoreModel, KernelProfile};

use crate::gemmini_conv::naive_conv_typed;
pub use crate::gemmini_conv::ConvShape;
use crate::schedlib::{tile, unit};

/// The Fig. 6 configuration.
pub fn fig6_shape() -> ConvShape {
    ConvShape {
        batch: 5,
        out_dim: 80,
        oc: 128,
        ic: 128,
        kdim: 3,
    }
}

/// Builds the naive f32 convolution.
pub fn naive_conv_f32(s: &ConvShape) -> Arc<Proc> {
    naive_conv_typed(s, DataType::F32, DataType::F32)
}

/// Schedules the f32 convolution for AVX-512: vectorize `oc` by 16,
/// register-block `ox` by `rb`, broadcast inputs, stream weight vectors.
///
/// # Errors
///
/// Fails when a rewrite cannot be verified, `oc % 16 != 0`, or
/// `out_dim % rb != 0`.
pub fn schedule_conv_avx512(
    lib: &Avx512Lib,
    state: &StateRef,
    s: &ConvShape,
    rb: i64,
) -> Result<Procedure, SchedError> {
    let p = Procedure::with_state(naive_conv_f32(s), StateRef::clone(state));

    // ---- blocking: b oy oxo oco ky kx ic oxi ocl ----
    let p = p
        .split("for oc in _: _", 16, "oco", "ocl")?
        .split("for ox in _: _", rb, "oxo", "oxi")?
        .reorder("for oxi in _: _", "oco")?
        .reorder("for ocl in _: _", "ky")?
        .reorder("for oxi in _: _", "ky")?
        .reorder("for ocl in _: _", "kx")?
        .reorder("for oxi in _: _", "kx")?
        .reorder("for ocl in _: _", "ic")?
        .reorder("for oxi in _: _", "ic")?;

    let b_sym = p.iter_sym("b")?;
    let oy = p.iter_sym("oy")?;
    let oxo = p.iter_sym("oxo")?;
    let oco = p.iter_sym("oco")?;
    let ky = p.iter_sym("ky")?;
    let kx = p.iter_sym("kx")?;
    let ic = p.iter_sym("ic")?;

    // ---- stage the C register tile (rb pixels × 16 channels) ----
    let p = p.stage_mem(
        "for ky in _: _",
        "C",
        &[
            unit(Expr::var(b_sym)),
            unit(Expr::var(oy)),
            tile(oxo, rb),
            tile(oco, 16),
        ],
        "c_reg",
        lib.reg,
    )?;

    // ---- stage the weight vector (one (ky,kx,ic) row of 16 oc) ----
    let p = p.stage_mem(
        "for oxi in _: _",
        "W",
        &[
            unit(Expr::var(ky)),
            unit(Expr::var(kx)),
            unit(Expr::var(ic)),
            tile(oco, 16),
        ],
        "w_vec",
        lib.reg,
    )?;
    let p = p.simplify();

    // ---- broadcast the input pixel across the lanes ----
    let p = p.expand_scalar("for ocl in _: _", "In[_]", "ocl", "in_bc", lib.reg)?;

    // ---- instruction selection ----
    let p = p.replace("for ocl in _: _", &lib.fmadd)?;
    let p = p.replace("for l in _: _", &lib.broadcast)?;
    // weight vector load and C tile loads/stores (16-lane loops)
    let p = p.replace("for ld3 in _: _ #1", &lib.loadu)?; // W (second remaining ld3)
    let p = p.replace("for ld3 in _: _", &lib.loadu)?; // C loads
    let p = p.replace("for st3 in _: _", &lib.storeu)?;

    Ok(p.simplify())
}

/// The Fig. 6 kernel modeled as a strategy: the vectorized direct
/// convolution with a given register blocking. The Halide-like and
/// oneDNN-like blockings would equal Exo at the Fig. 6 shape under this
/// model, so they are not modeled.
#[derive(Clone, Copy, Debug)]
pub struct ConvStrategy {
    /// Display name.
    pub name: &'static str,
    /// Output pixels register-blocked per tile.
    pub rb: u64,
}

impl ConvStrategy {
    /// The exo-rs schedule (4-pixel register block).
    pub fn exo() -> ConvStrategy {
        ConvStrategy { name: "Exo", rb: 4 }
    }

    /// Analytic per-shape instruction profile (cross-checked against the
    /// real scheduled procedure by the test suite).
    pub fn profile(&self, s: &ConvShape) -> KernelProfile {
        let pixels = (s.batch * s.out_dim * s.out_dim) as u64;
        let oc_groups = (s.oc as u64) / 16;
        let red = (s.kdim * s.kdim * s.ic) as u64;
        let tiles = pixels / self.rb * oc_groups;
        let fmas = tiles * red * self.rb;
        KernelProfile {
            fmas,
            vec_loads: tiles * red + tiles * self.rb, // W vector per red step + C loads
            vec_stores: tiles * self.rb,
            broadcasts: tiles * red * self.rb,
            other_vec: tiles * self.rb, // fused ReLU on each output vector
            scalar_uops: tiles * 2,
            loop_iters: tiles * (red + 2 * self.rb + 2),
            flops: 2 * fmas * 16,
        }
    }

    /// Predicted fraction of peak on a shape.
    pub fn fraction_of_peak(&self, s: &ConvShape, core: &CoreModel) -> f64 {
        let p = self.profile(s);
        let t = conv_traffic(
            &TrafficShape {
                n: s.batch as u64,
                oh: s.out_dim as u64,
                ow: s.out_dim as u64,
                ic: s.ic as u64,
                oc: s.oc as u64,
                kh: s.kdim as u64,
            },
            self.rb,
            core,
        );
        let cycles = core.cycles(&p, &t);
        let useful = s.macs() * 2;
        core.gflops(useful, cycles) / core.peak_gflops()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemmini_conv::SMALL_CONV;
    use crate::schedlib::{conv_args, run_patterned};
    use exo_sched::SchedState;
    use std::sync::Mutex;

    fn state() -> StateRef {
        Arc::new(Mutex::new(SchedState::default()))
    }

    #[test]
    fn scheduled_conv_is_correct() {
        let lib = Avx512Lib::new();
        let st = state();
        let shape = SMALL_CONV;
        let p = schedule_conv_avx512(&lib, &st, &shape, 4).expect("schedule");
        assert!(p.show().contains("mm512_fmadd_ps("), "{}", p.show());

        let args = conv_args(&shape, DataType::F32, DataType::F32);
        let run = |proc: &Proc| {
            let (machine, c) = run_patterned(proc, &args, true).expect("run");
            machine.buffer_values(c).unwrap()
        };
        assert_eq!(run(&naive_conv_f32(&shape)), run(p.proc()));
    }

    #[test]
    fn analytic_profile_matches_scheduled_ir() {
        let lib = Avx512Lib::new();
        let st = state();
        let shape = SMALL_CONV;
        let p = schedule_conv_avx512(&lib, &st, &shape, 4).expect("schedule");
        let got = x86_sim::profile_proc(p.proc()).expect("constant bounds");
        let want = ConvStrategy {
            name: "test",
            rb: 4,
        }
        .profile(&shape);
        assert_eq!(got.fmas, want.fmas, "fmas");
        assert_eq!(got.broadcasts, want.broadcasts, "broadcasts");
        assert_eq!(got.vec_stores, want.vec_stores, "stores");
    }

    #[test]
    fn exo_lands_at_a_plausible_fraction_of_peak() {
        let frac = ConvStrategy::exo().fraction_of_peak(&fig6_shape(), &CoreModel::tiger_lake());
        assert!(frac > 0.2 && frac < 0.95, "implausible: {frac}");
    }
}
