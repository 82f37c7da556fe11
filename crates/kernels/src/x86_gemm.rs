//! The x86 SGEMM case study (paper §7.2, Figs. 5a/5b).
//!
//! A naive three-loop f32 GEMM is scheduled into the paper's structure:
//! a register-blocked 6×64 microkernel (six rows × four zmm vectors of C
//! resident in registers) built from `mm512_loadu_ps` /
//! `mm512_broadcast_ss` / `mm512_fmadd_ps` / `mm512_storeu_ps`, with
//! every vector loop mapped to an instruction by `replace()`.
//!
//! The comparison library is modeled as a *strategy*: the same cost
//! model evaluated with its microkernel shapes and blocking parameters
//! (MKL-like: a family of specialized kernels chosen per shape — which
//! is exactly why MKL pulls ahead at extreme aspect ratios in Fig. 5b).
//! An OpenBLAS-like strategy (Exo's 6×64 kernel with packed panels)
//! would equal Exo at every Fig. 5 point under this model, so it is not
//! modeled.

use std::sync::Arc;

use exo_core::ir::{Expr, Proc};
use exo_core::types::DataType;
use exo_hwlibs::Avx512Lib;
use exo_sched::{Procedure, SchedError, StateRef};
use x86_sim::traffic::{gemm_traffic, GemmBlocking};
use x86_sim::{profile_proc, CoreModel, KernelProfile};

use crate::schedlib::{naive_gemm, tile, unit};

/// The naive algorithm: `C += A·B`, single precision.
pub fn naive_sgemm(m: i64, n: i64, k: i64) -> Arc<Proc> {
    naive_gemm("sgemm", m, n, k, DataType::F32, DataType::F32)
}

/// Schedules [`naive_sgemm`] into the paper's `mr×nr` register-blocked
/// microkernel (defaults 6×64). `m` must divide by `mr` and `n` by `nr`.
///
/// # Errors
///
/// Fails when a rewrite cannot be verified or the sizes don't divide.
pub fn schedule_sgemm(
    lib: &Avx512Lib,
    state: &StateRef,
    m: i64,
    n: i64,
    k: i64,
    mr: i64,
    nr: i64,
) -> Result<Procedure, SchedError> {
    assert!(nr % 16 == 0, "nr must be a multiple of the vector width");
    let p = Procedure::with_state(naive_sgemm(m, n, k), StateRef::clone(state));

    // ---- blocking: io jo k ii ji ----
    let p = p
        .split("for i in _: _", mr, "io", "ii")?
        .split("for j in _: _", nr, "jo", "ji")?
        .reorder("for ii in _: _", "jo")?
        .reorder("for ji in _: _", "k")?
        .reorder("for ii in _: _", "k")?;

    let io = p.iter_sym("io")?;
    let jo = p.iter_sym("jo")?;
    let k_sym = p.iter_sym("k")?;

    // ---- stage the C tile into vector registers across the k loop ----
    let p = p.stage_mem(
        "for k in _: _",
        "C",
        &[tile(io, mr), tile(jo, nr)],
        "c_reg",
        lib.reg,
    )?;

    // ---- vector shape: ji → jv (vectors) × jl (lanes) ----
    let p = p.split("for ji in _: _", 16, "jv", "jl")?;

    // ---- stage the B row (k, jo-panel) into registers ----
    let p = p.stage_mem(
        "for ii in _: _",
        "B",
        &[unit(Expr::var(k_sym)), tile(jo, nr)],
        "b_vec",
        lib.reg,
    )?;
    let p = p.simplify();

    // ---- broadcast the A scalar across the lanes ----
    let p = p.expand_scalar("for jv in _: _", "A[_]", "jl", "a_bc", lib.reg)?;

    // ---- instruction selection ----
    // innermost lane loop → FMA
    let p = p.replace("for jl in _: _", &lib.fmadd)?;
    // the broadcast fill loop (named l by expand_scalar)
    let p = p.replace("for l in _: _", &lib.broadcast)?;
    // B row load: 16-lane pieces
    let p = p
        .split("for ld1 in _: _", 16, "bl1o", "bl1i")?
        .replace("for bl1i in _: _", &lib.loadu)?;
    // C tile load / store
    let p = p
        .split("for ld1 in _: _", 16, "cl1o", "cl1i")?
        .replace("for cl1i in _: _", &lib.loadu)?
        .split("for st1 in _: _", 16, "cs1o", "cs1i")?
        .replace("for cs1i in _: _", &lib.storeu)?;

    Ok(p.simplify())
}

/// One library strategy for the Fig. 5 comparisons: a set of microkernel
/// shapes (MKL-like strategies carry several specialized variants) and
/// cache blocking.
#[derive(Clone, Debug)]
pub struct GemmStrategy {
    /// Display name.
    pub name: &'static str,
    /// Available microkernel shapes `(mr, nr)`.
    pub kernels: Vec<(u64, u64)>,
    /// Cache blocking parameters.
    pub blocking: GemmBlocking,
}

/// The cache blocking both strategies share around their 6×64 kernel,
/// with or without packed operand panels.
fn blocking_6x64(packed: bool) -> GemmBlocking {
    GemmBlocking {
        mr: 6,
        nr: 64,
        mc: 96,
        kc: 384,
        nc: 2048,
        packed,
    }
}

impl GemmStrategy {
    /// The exo-rs schedule of §7.2: one 6×64 microkernel plus the edge
    /// specializations produced by further scheduling (5 bottom sizes ×
    /// masked right edge, handled as masked full-cost tiles here).
    pub fn exo() -> GemmStrategy {
        GemmStrategy {
            name: "Exo",
            kernels: vec![(6, 64)],
            blocking: blocking_6x64(false),
        }
    }

    /// An MKL-like strategy: a family of specialized kernels (including
    /// tall/skinny shapes), the best chosen per problem.
    pub fn mkl_like() -> GemmStrategy {
        GemmStrategy {
            name: "MKL",
            kernels: vec![
                (6, 64),
                (12, 32),
                (24, 16),
                (2, 64),
                (48, 16),
                (1, 64),
                (64, 16),
            ],
            blocking: blocking_6x64(true),
        }
    }

    /// Predicted GFLOP/s on an `M×N×K` problem.
    pub fn gflops(&self, m: u64, n: u64, k: u64, core: &CoreModel) -> f64 {
        self.kernels
            .iter()
            .map(|&(mr, nr)| {
                let blocking = GemmBlocking {
                    mr,
                    nr,
                    ..self.blocking
                };
                evaluate_kernel(m, n, k, mr, nr, &blocking, core)
            })
            .fold(0.0, f64::max)
    }
}

/// Evaluates one microkernel shape on a problem: instruction counts per
/// micro-tile scaled over full and partial tiles (partial tiles execute
/// masked instructions at full cost but contribute only their useful
/// FLOPs), plus footprint cache traffic.
fn evaluate_kernel(
    m: u64,
    n: u64,
    k: u64,
    mr: u64,
    nr: u64,
    blocking: &GemmBlocking,
    core: &CoreModel,
) -> f64 {
    let vecs = nr / 16;
    // per k-step of one micro-tile: nr/16 B loads, mr broadcasts, mr·nr/16
    // FMAs; per tile: C loads + stores
    let tiles_m = m.div_ceil(mr);
    let tiles_n = n.div_ceil(nr);
    let tiles = tiles_m * tiles_n;
    let per_tile = KernelProfile {
        fmas: mr * vecs * k,
        vec_loads: vecs * k + mr * vecs * 2, // B rows + C in/out (loads+stores counted below)
        vec_stores: mr * vecs,
        broadcasts: mr * k,
        other_vec: 0,
        scalar_uops: 2,
        loop_iters: k + mr + vecs,
        flops: 0, // useful flops accounted separately
    };
    let profile = per_tile.scale(tiles);
    let t = gemm_traffic(m, n, k, blocking, core);
    let cycles = core.cycles(&profile, &t);
    let useful_flops = 2 * m * n * k;
    core.gflops(useful_flops, cycles)
}

/// Cross-checks the analytic per-tile instruction counts against a real
/// scheduled procedure (used by tests and the benches' self-check).
pub fn microkernel_profile_matches(
    lib: &Avx512Lib,
    state: &StateRef,
    mr: i64,
    nr: i64,
) -> Result<bool, SchedError> {
    let (m, n, k) = (mr * 2, nr * 2, 8);
    let p = schedule_sgemm(lib, state, m, n, k, mr, nr)?;
    let got = profile_proc(p.proc())
        .ok_or_else(|| SchedError::new("microkernel has non-constant bounds; cannot profile"))?;
    let tiles = ((m / mr) * (n / nr)) as u64;
    let vecs = (nr / 16) as u64;
    let expect_fmas = tiles * (mr as u64) * vecs * (k as u64);
    let expect_bc = tiles * (mr as u64) * (k as u64);
    let expect_stores = tiles * (mr as u64) * vecs;
    Ok(got.fmas == expect_fmas && got.broadcasts == expect_bc && got.vec_stores == expect_stores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedlib::{gemm_args, run_patterned};
    use exo_sched::SchedState;
    use std::sync::Mutex;

    fn state() -> StateRef {
        Arc::new(Mutex::new(SchedState::default()))
    }

    #[test]
    fn scheduled_sgemm_is_correct() {
        let lib = Avx512Lib::new();
        let st = state();
        let (m, n, k) = (12, 128, 8);
        let p = schedule_sgemm(&lib, &st, m, n, k, 6, 64).expect("schedule");
        assert!(p.show().contains("mm512_fmadd_ps("), "{}", p.show());
        assert!(p.show().contains("mm512_broadcast_ss("), "{}", p.show());

        let args = gemm_args(m, n, k, DataType::F32, DataType::F32);
        let run = |proc: &Proc| {
            let (machine, c) = run_patterned(proc, &args, true).expect("run");
            machine.buffer_values(c).unwrap()
        };
        assert_eq!(run(&naive_sgemm(m, n, k)), run(p.proc()));
    }

    #[test]
    fn microkernel_instruction_counts_match_model() {
        let lib = Avx512Lib::new();
        let st = state();
        assert!(microkernel_profile_matches(&lib, &st, 6, 64).unwrap());
    }

    /// The check queries the schedule poses on a fresh checking context,
    /// and the bounds obligations its `analysis.check_bounds` spans
    /// record.
    fn checks_posed(m: i64, k: i64) -> (usize, i64) {
        // the spans this thread opens inside `root` are the schedule's
        let root = exo_obs::Span::enter("test.checks_posed");
        let st = Arc::new(Mutex::new(SchedState::default()));
        schedule_sgemm(&Avx512Lib::new(), &st, m, 128, k, 6, 64).expect("schedule");
        let queries = st.lock().unwrap().check.stats().queries;
        let tid = exo_obs::span::current_tid();
        let obligations = exo_obs::Registry::global()
            .traces()
            .iter()
            .filter(|t| t.tid == tid && t.id > root.id() && t.name == "analysis.check_bounds")
            .map(|t| {
                t.fields
                    .iter()
                    .find(|(k, _)| k == "obligations")
                    .and_then(|(_, v)| v.as_int())
                    .unwrap()
            })
            .sum();
        (queries, obligations)
    }

    #[test]
    fn one_row_tile_stages_c_reg_with_every_check() {
        // With m = mr the `io` loop has one iteration and folds away once
        // c_reg is staged; the staged block is still re-checked, so the
        // one-tile schedule poses the same checks, and the same bounds
        // obligations, as the larger ones.
        assert_eq!(checks_posed(6, 64), (0, 28));
        assert_eq!(checks_posed(12, 32), (0, 28));
        assert_eq!(checks_posed(24, 32), (0, 28));
    }

    #[test]
    fn square_sizes_land_in_the_paper_band() {
        // Fig. 5a: 80–95 % of peak on large squares for every library
        let core = CoreModel::tiger_lake();
        for strat in [GemmStrategy::exo(), GemmStrategy::mkl_like()] {
            let gf = strat.gflops(1536, 1536, 1536, &core);
            let frac = gf / core.peak_gflops();
            assert!(
                (0.70..=1.0).contains(&frac),
                "{}: {frac:.2} of peak",
                strat.name
            );
        }
    }

    #[test]
    fn mkl_wins_at_extreme_aspect_ratios() {
        // Fig. 5b: K = 512, M·N = 512², extreme M/N — the kernel-family
        // strategy stays ahead of the fixed-kernel one
        let core = CoreModel::tiger_lake();
        let (m, n, k) = (8192, 32, 512);
        let exo = GemmStrategy::exo().gflops(m, n, k, &core);
        let mkl = GemmStrategy::mkl_like().gflops(m, n, k, &core);
        assert!(mkl > exo, "mkl {mkl:.1} !> exo {exo:.1}");
    }
}
