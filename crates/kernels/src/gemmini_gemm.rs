//! The Gemmini MATMUL case study (paper §7.1, Fig. 4a).
//!
//! A naive three-loop i8 GEMM is scheduled — with the rewrite primitives
//! of `exo-sched` and the instruction library of `exo-hwlibs` — into a
//! Gemmini kernel: output-stationary accumulator row-panels, scratchpad
//! staging for A tiles and B (whole-matrix when it fits, per-`ko` panels
//! otherwise), hoisted stride configuration, and every data-movement and
//! compute loop replaced by a Gemmini instruction via unification.
//!
//! The handwritten baseline ("Old-lib") is modeled by
//! [`old_lib_matmul_trace`]: the Gemmini C library's static loop order
//! with fused per-operation configuration, as described in §7.1.

use std::sync::Arc;

use exo_core::ir::{Expr, Proc};
use exo_core::types::DataType;
use exo_hwlibs::GemminiLib;
use exo_interp::{HwOp, Trace};
use exo_sched::{Procedure, SchedError, StateRef};

use crate::schedlib::{
    gemm_args, gemmini_config_instrs, naive_gemm, run_patterned, tile, write_gemmini_configs,
    OldLib,
};

/// Bytes of scratchpad we allow the resident-B strategy to occupy.
const B_RESIDENT_LIMIT: i64 = 192 * 1024;

/// The naive algorithm: `C += A·B` with i8 operands and an i32 output.
///
/// All of `n`, `m`, `k` must be multiples of 16.
pub fn naive_matmul(n: i64, m: i64, k: i64) -> Arc<Proc> {
    naive_gemm("matmul", n, m, k, DataType::I8, DataType::I32)
}

/// Schedules [`naive_matmul`] onto Gemmini. Returns the scheduled
/// procedure; `p.directives()` is the schedule length reported in the
/// Fig. 7 reproduction.
///
/// # Errors
///
/// Fails if a rewrite's safety condition cannot be verified (which would
/// indicate a bug — every step here is provably safe) or if the sizes
/// are not multiples of 16.
pub fn schedule_matmul(
    lib: &GemminiLib,
    state: &StateRef,
    n: i64,
    m: i64,
    k: i64,
) -> Result<Procedure, SchedError> {
    let p = Procedure::with_state(naive_matmul(n, m, k), StateRef::clone(state));

    // ---- tiling to 16×16×16 (the §2.1 rewrites) ----
    let p = p
        .split("for i in _: _", 16, "io", "ii")?
        .split("for j in _: _", 16, "jo", "ji")?
        .split("for k in _: _", 16, "ko", "ki")?
        .reorder("for ii in _: _", "jo")?
        .reorder("for ji in _: _", "ko")?
        .reorder("for ii in _: _", "ko")?
        // output-stationary: ko outside jo
        .reorder("for jo in _: _", "ko")?;

    let io = p.iter_sym("io")?;
    let ko = p.iter_sym("ko")?;
    let b_resident = k * m <= B_RESIDENT_LIMIT;

    // ---- staging (the §2.2 rewrites) ----
    // B: whole matrix resident in the scratchpad when it fits; otherwise
    // one 16×M row-panel per ko iteration.
    let p = if b_resident {
        p.stage_mem(
            "for io in _: _",
            "B",
            &[(Expr::int(0), Expr::int(k)), (Expr::int(0), Expr::int(m))],
            "b_s",
            lib.scratchpad,
        )?
    } else {
        p.stage_mem(
            "for jo in _: _",
            "B",
            &[tile(ko, 16), (Expr::int(0), Expr::int(m))],
            "b_s",
            lib.scratchpad,
        )?
    };
    // C row-panel accumulates across ko in the accumulator.
    let p = p.stage_mem(
        "for ko in _: _",
        "C",
        &[tile(io, 16), (Expr::int(0), Expr::int(m))],
        "res",
        lib.accum,
    )?;
    // A tile per (io, ko).
    let p = p.stage_mem(
        "for jo in _: _",
        "A",
        &[tile(io, 16), tile(ko, 16)],
        "a_s",
        lib.scratchpad,
    )?;

    // ---- configuration (the §2.4 rewrites) ----
    // the configuration writes go before the first statement of the body
    // (the b_s alloc when B is resident at top level, the io loop otherwise)
    let first_pat = if b_resident {
        "b_s : _"
    } else {
        "for io in _: _"
    };
    let p = write_gemmini_configs(p, lib, first_pat, ["A", "B", "C"], 0)?;

    // ---- instruction selection (the §2.3 rewrites) ----
    // patterns match in pre-order, so map the staging loops in the order
    // they appear: resident-B puts the B loads at the top of the body;
    // otherwise the res loads (start of the io body) come first.
    let replace_b = |p: Procedure| -> Result<Procedure, SchedError> {
        if b_resident {
            // K × M whole-matrix load: tile both dimensions
            let q = p
                .split("for ld0 in _: _", 16, "bl0o", "bl0i")?
                .split("for ld1 in _: _", 16, "bl1o", "bl1i")?
                .reorder("for bl0i in _: _", "bl1o")?;
            q.replace("for bl0i in _: _", &lib.mvin2)
        } else {
            // 16 × M panel: tile columns
            let q = p
                .split("for ld1 in _: _", 16, "bl1o", "bl1i")?
                .reorder("for ld0 in _: _", "bl1o")?;
            q.replace("for ld0 in _: _", &lib.mvin2)
        }
    };
    let replace_res = |p: Procedure| -> Result<Procedure, SchedError> {
        p.split("for ld1 in _: _", 16, "cl1o", "cl1i")?
            .reorder("for ld0 in _: _", "cl1o")?
            .replace("for ld0 in _: _", &lib.mvin_acc)
    };
    let p = if b_resident {
        replace_res(replace_b(p)?)?
    } else {
        replace_b(replace_res(p)?)?
    };
    // A tile load → mvin (already 16×16).
    let p = p.replace("for ld0 in _: _", &lib.mvin)?;
    // compute → one systolic pass per (jo).
    let p = p.replace("for ii in _: _", &lib.matmul)?;
    // res store loops → mvout_acc.
    let p = p
        .split("for st1 in _: _", 16, "cs1o", "cs1i")?
        .reorder("for st0 in _: _", "cs1o")?
        .replace("for st0 in _: _", &lib.mvout_acc)?;

    // ---- turn the configuration writes into instructions ----
    Ok(gemmini_config_instrs(p, lib)?.simplify())
}

/// Runs the scheduled kernel on the interpreter and returns the
/// instruction trace. When `functional` is false, instruction bodies are
/// skipped — traces for timing only (the buffers stay uninitialized).
///
/// # Panics
///
/// Panics if the scheduled procedure fails to interpret — a schedule
/// accepted by the safety checks must also run, so this is a bug.
#[allow(clippy::expect_used)]
pub fn trace_matmul(proc: &Proc, n: i64, m: i64, k: i64, functional: bool) -> Vec<HwOp> {
    let args = gemm_args(n, m, k, DataType::I8, DataType::I32);
    let (mut machine, _) =
        run_patterned(proc, &args, functional).expect("scheduled kernel must run");
    machine.take_trace()
}

/// A trace model of Gemmini's handwritten C library (the "Old-lib"
/// baseline of Fig. 4): static `i →j → k` tile order, A and B tiles
/// loaded per matmul (no cross-tile reuse), and the load/store
/// configuration re-issued around every move — the fused-configuration
/// behavior §2.4 describes.
pub fn old_lib_matmul_trace(n: i64, m: i64, k: i64) -> Trace {
    let lib = OldLib::new();
    // per output tile: two configs, two accumulator moves, and a load
    // pair plus a matmul per K tile
    let tiles = (n / 16) * (m / 16);
    let mut trace = Trace::with_capacity((tiles * (4 + 3 * (k / 16))).max(0) as usize);
    // the instructions and on-chip tiles that do not depend on the tile
    // position, built once
    let (config_ld, config_st, matmul) = (lib.config_ld(k), lib.config_st(k), lib.matmul(16));
    let [spad_a, spad_b, acc] = [3, 4, 5].map(|buf| lib.tile(buf, 0, 16, 16));
    for io in 0..n / 16 {
        for jo in 0..m / 16 {
            let c = lib.tile(2, (io * 16) * m + jo * 16, 16, m);
            // the handwritten library re-issues the (coupled) load and
            // store configuration once per output tile
            trace.push(config_ld.clone());
            trace.push(lib.mvin_acc(16, c, acc));
            for ko in 0..k / 16 {
                // A tile + B tile per matmul (no cross-tile reuse)
                let a = lib.tile(0, (io * 16) * k + ko * 16, 16, k);
                trace.push(lib.mvin(16, a, spad_a));
                let b = lib.tile(1, (ko * 16) * m + jo * 16, 16, m);
                trace.push(lib.mvin(16, b, spad_b));
                trace.push(matmul.clone());
            }
            // store C tile with fused store config
            trace.push(config_st.clone());
            trace.push(lib.mvout_acc(16, acc, c));
        }
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_sched::SchedState;
    use std::sync::Mutex;

    fn state() -> StateRef {
        Arc::new(Mutex::new(SchedState::default()))
    }

    #[test]
    fn schedule_small_matmul_is_correct() {
        let lib = GemminiLib::new();
        let st = state();
        let (n, m, k) = (32, 32, 32);
        let p = schedule_matmul(&lib, &st, n, m, k).expect("schedule");
        assert!(p.directives() >= 25, "directives: {}", p.directives());
        assert!(p.show().contains("gemmini_matmul("), "{}", p.show());
        assert!(p.show().contains("gemmini_config_ld("), "{}", p.show());

        // functional oracle: scheduled == naive
        let args = gemm_args(n, m, k, DataType::I8, DataType::I32);
        let run = |proc: &Proc| {
            let (machine, c) = run_patterned(proc, &args, true).expect("run");
            machine.buffer_values(c).unwrap()
        };
        assert_eq!(run(&naive_matmul(n, m, k)), run(p.proc()));
    }

    #[test]
    fn trace_contains_hoisted_configs() {
        let lib = GemminiLib::new();
        let st = state();
        let p = schedule_matmul(&lib, &st, 32, 32, 32).expect("schedule");
        let trace = trace_matmul(p.proc(), 32, 32, 32, false);
        // exactly 4 configuration instructions, all at the front
        let configs: Vec<usize> = trace
            .iter()
            .enumerate()
            .filter(|(_, op)| op.instr.as_str().starts_with("gemmini_config"))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(configs.len(), 4, "configs: {configs:?}");
        assert!(
            configs.iter().all(|&i| i < 4),
            "configs not hoisted: {configs:?}"
        );
        // 2×2×2 tiles: 8 matmuls
        let matmuls = trace
            .iter()
            .filter(|op| op.instr == "gemmini_matmul")
            .count();
        assert_eq!(matmuls, 8);
    }

    #[test]
    fn old_lib_trace_has_fused_configs() {
        let trace = old_lib_matmul_trace(32, 32, 32);
        let configs = trace
            .iter()
            .filter(|op| op.instr.as_str().starts_with("gemmini_config"))
            .count();
        // one load-config and one store-config per output tile: 4×2
        assert_eq!(configs, 4 * 2);
    }
}
