//! Pins the `(operator, target)` transcript of each case-study schedule
//! at small sizes covering both branches of every kernel: Gemmini matmul
//! with B resident in the scratchpad and B staged per `ko` panel, Gemmini
//! conv with one and with several pixel tiles per output row, and the two
//! AVX-512 kernels. The sequences were recorded before the schedules moved
//! their repeated idioms into `exo_kernels::schedlib`; any reordered,
//! added or dropped operator call fails here.

use std::sync::{Arc, Mutex};

use exo_hwlibs::{Avx512Lib, GemminiLib};
use exo_kernels::gemmini_conv::{schedule_conv, ConvShape};
use exo_kernels::gemmini_gemm::schedule_matmul;
use exo_kernels::x86_conv::schedule_conv_avx512;
use exo_kernels::x86_gemm::schedule_sgemm;
use exo_sched::{Procedure, SchedError, SchedState, StateRef};

fn state() -> StateRef {
    Arc::new(Mutex::new(SchedState::default()))
}

/// Compares a transcript with the recorded one.
fn assert_transcript(p: Result<Procedure, SchedError>, want: &[(&str, &str)]) {
    let p = p.expect("schedule");
    let events = p.transcript();
    let got: Vec<(&str, &str)> = events.iter().map(|e| (e.op, e.target.as_str())).collect();
    assert_eq!(got, want);
    assert_eq!(p.directives(), want.len());
}

#[test]
fn gemmini_matmul_resident_b() {
    let lib = GemminiLib::new();
    let p = schedule_matmul(&lib, &state(), 32, 32, 32);
    assert_transcript(p, MATMUL_RESIDENT_B);
}

#[test]
fn gemmini_matmul_panel_b() {
    let lib = GemminiLib::new();
    let p = schedule_matmul(&lib, &state(), 32, 256, 1024);
    assert_transcript(p, MATMUL_PANEL_B);
}

#[test]
fn gemmini_conv_one_tile_row() {
    let lib = GemminiLib::new();
    let p = schedule_conv(&lib, &state(), &ConvShape::fig4b(4, 32, 32));
    assert_transcript(p, CONV_ONE_TILE_ROW);
}

#[test]
fn gemmini_conv_multi_tile_row() {
    let lib = GemminiLib::new();
    let p = schedule_conv(&lib, &state(), &ConvShape::fig4b(28, 32, 32));
    assert_transcript(p, CONV_MULTI_TILE_ROW);
}

#[test]
fn x86_sgemm() {
    let lib = Avx512Lib::new();
    let p = schedule_sgemm(&lib, &state(), 12, 128, 8, 6, 64);
    assert_transcript(p, SGEMM);
}

#[test]
fn x86_conv() {
    let lib = Avx512Lib::new();
    let shape = ConvShape {
        batch: 2,
        out_dim: 8,
        oc: 32,
        ic: 32,
        kdim: 3,
    };
    let p = schedule_conv_avx512(&lib, &state(), &shape, 4);
    assert_transcript(p, CONV_AVX512);
}

const MATMUL_RESIDENT_B: &[(&str, &str)] = &[
    ("split", "for i in _: _, 16, io, ii"),
    ("split", "for j in _: _, 16, jo, ji"),
    ("split", "for k in _: _, 16, ko, ki"),
    ("reorder", "for ii in _: _, jo"),
    ("reorder", "for ji in _: _, ko"),
    ("reorder", "for ii in _: _, ko"),
    ("reorder", "for jo in _: _, ko"),
    (
        "stage_mem",
        "for io in _: _, B, [0:32, 0:32], b_s, MemName(SCRATCHPAD)",
    ),
    (
        "stage_mem",
        "for ko in _: _, C, [io * 16:io * 16 + 16, 0:32], res, MemName(ACCUM)",
    ),
    (
        "stage_mem",
        "for jo in _: _, A, [io * 16:io * 16 + 16, ko * 16:ko * 16 + 16], a_s, MemName(SCRATCHPAD)",
    ),
    (
        "configwrite_at",
        "b_s : _, before, ConfigLd.src_stride, stride(A, 0)",
    ),
    (
        "configwrite_at",
        "b_s : _, before, ConfigLd2.src_stride, stride(B, 0)",
    ),
    (
        "configwrite_at",
        "b_s : _, before, ConfigLdAcc.src_stride, stride(C, 0)",
    ),
    (
        "configwrite_at",
        "b_s : _, before, ConfigSt.dst_stride, stride(C, 0)",
    ),
    ("split", "for ld0 in _: _, 16, bl0o, bl0i"),
    ("split", "for ld1 in _: _, 16, bl1o, bl1i"),
    ("reorder", "for bl0i in _: _, bl1o"),
    ("replace", "for bl0i in _: _, gemmini_mvin2"),
    ("split", "for ld1 in _: _, 16, cl1o, cl1i"),
    ("reorder", "for ld0 in _: _, cl1o"),
    ("replace", "for ld0 in _: _, gemmini_mvin_acc"),
    ("replace", "for ld0 in _: _, gemmini_mvin"),
    ("replace", "for ii in _: _, gemmini_matmul"),
    ("split", "for st1 in _: _, 16, cs1o, cs1i"),
    ("reorder", "for st0 in _: _, cs1o"),
    ("replace", "for st0 in _: _, gemmini_mvout_acc"),
    ("replace", "ConfigLd.src_stride = _, gemmini_config_ld"),
    ("replace", "ConfigLd2.src_stride = _, gemmini_config_ld2"),
    (
        "replace",
        "ConfigLdAcc.src_stride = _, gemmini_config_ld_acc",
    ),
    ("replace", "ConfigSt.dst_stride = _, gemmini_config_st"),
    ("simplify", ""),
];
const MATMUL_PANEL_B: &[(&str, &str)] = &[
    ("split", "for i in _: _, 16, io, ii"),
    ("split", "for j in _: _, 16, jo, ji"),
    ("split", "for k in _: _, 16, ko, ki"),
    ("reorder", "for ii in _: _, jo"),
    ("reorder", "for ji in _: _, ko"),
    ("reorder", "for ii in _: _, ko"),
    ("reorder", "for jo in _: _, ko"),
    (
        "stage_mem",
        "for jo in _: _, B, [ko * 16:ko * 16 + 16, 0:256], b_s, MemName(SCRATCHPAD)",
    ),
    (
        "stage_mem",
        "for ko in _: _, C, [io * 16:io * 16 + 16, 0:256], res, MemName(ACCUM)",
    ),
    (
        "stage_mem",
        "for jo in _: _, A, [io * 16:io * 16 + 16, ko * 16:ko * 16 + 16], a_s, MemName(SCRATCHPAD)",
    ),
    (
        "configwrite_at",
        "for io in _: _, before, ConfigLd.src_stride, stride(A, 0)",
    ),
    (
        "configwrite_at",
        "for io in _: _, before, ConfigLd2.src_stride, stride(B, 0)",
    ),
    (
        "configwrite_at",
        "for io in _: _, before, ConfigLdAcc.src_stride, stride(C, 0)",
    ),
    (
        "configwrite_at",
        "for io in _: _, before, ConfigSt.dst_stride, stride(C, 0)",
    ),
    ("split", "for ld1 in _: _, 16, cl1o, cl1i"),
    ("reorder", "for ld0 in _: _, cl1o"),
    ("replace", "for ld0 in _: _, gemmini_mvin_acc"),
    ("split", "for ld1 in _: _, 16, bl1o, bl1i"),
    ("reorder", "for ld0 in _: _, bl1o"),
    ("replace", "for ld0 in _: _, gemmini_mvin2"),
    ("replace", "for ld0 in _: _, gemmini_mvin"),
    ("replace", "for ii in _: _, gemmini_matmul"),
    ("split", "for st1 in _: _, 16, cs1o, cs1i"),
    ("reorder", "for st0 in _: _, cs1o"),
    ("replace", "for st0 in _: _, gemmini_mvout_acc"),
    ("replace", "ConfigLd.src_stride = _, gemmini_config_ld"),
    ("replace", "ConfigLd2.src_stride = _, gemmini_config_ld2"),
    (
        "replace",
        "ConfigLdAcc.src_stride = _, gemmini_config_ld_acc",
    ),
    ("replace", "ConfigSt.dst_stride = _, gemmini_config_st"),
    ("simplify", ""),
];
const CONV_ONE_TILE_ROW: &[(&str, &str)] = &[
    ("split", "for ox in _: _, 4, oxo, oxi"),
    ("split", "for oc in _: _, 16, oco, oci"),
    ("split", "for ic in _: _, 16, ico, ici"),
    ("reorder", "for oxi in _: _, oco"),
    ("reorder", "for oci in _: _, ky"),
    ("reorder", "for oxi in _: _, ky"),
    ("reorder", "for oco in _: _, ky"),
    ("reorder", "for oxo in _: _, ky"),
    ("reorder", "for oci in _: _, kx"),
    ("reorder", "for oxi in _: _, kx"),
    ("reorder", "for oco in _: _, kx"),
    ("reorder", "for oxo in _: _, kx"),
    ("reorder", "for oci in _: _, ico"),
    ("reorder", "for oxi in _: _, ico"),
    ("reorder", "for oco in _: _, ico"),
    ("reorder", "for oxo in _: _, ico"),
    ("stage_mem", "for ky in _: _, C, [b:b + 1, oy:oy + 1, 0:4, 0:32], res, MemName(ACCUM)"),
    ("stage_mem", "for oco in _: _, W, [ky:ky + 1, kx:kx + 1, ico * 16:ico * 16 + 16, 0:32], w_s, MemName(SCRATCHPAD)"),
    ("stage_mem", "for oco in _: _, In, [b:b + 1, oy + ky:oy + ky + 1, kx:kx + 4, ico * 16:ico * 16 + 16], in_s, MemName(SCRATCHPAD)"),
    ("simplify", ""),
    ("configwrite_at", "for b in _: _, before, ConfigLd.src_stride, stride(In, 2)"),
    ("configwrite_at", "for b in _: _, before, ConfigLd2.src_stride, stride(W, 2)"),
    ("configwrite_at", "for b in _: _, before, ConfigLdAcc.src_stride, stride(C, 2)"),
    ("configwrite_at", "for b in _: _, before, ConfigSt.dst_stride, stride(C, 2)"),
    ("split", "for ld2 in _: _, 4, rl2o, rl2i"),
    ("split", "for ld3 in _: _, 16, rl3o, rl3i"),
    ("reorder", "for rl2i in _: _, rl3o"),
    ("replace", "for rl2i in _: _, gemmini_mvin_acc"),
    ("split", "for ld3 in _: _, 16, wl3o, wl3i"),
    ("reorder", "for ld2 in _: _, wl3o"),
    ("replace", "for ld2 in _: _, gemmini_mvin2"),
    ("split", "for ld2 in _: _, 4, il2o, il2i"),
    ("replace", "for il2i in _: _, gemmini_mvin"),
    ("replace", "for oxi in _: _, gemmini_matmul"),
    ("split", "for st2 in _: _, 4, rs2o, rs2i"),
    ("split", "for st3 in _: _, 16, rs3o, rs3i"),
    ("reorder", "for rs2i in _: _, rs3o"),
    ("replace", "for rs2i in _: _, gemmini_mvout_acc"),
    ("replace", "ConfigLd.src_stride = _, gemmini_config_ld"),
    ("replace", "ConfigLd2.src_stride = _, gemmini_config_ld2"),
    ("replace", "ConfigLdAcc.src_stride = _, gemmini_config_ld_acc"),
    ("replace", "ConfigSt.dst_stride = _, gemmini_config_st"),
    ("simplify", ""),
];
const CONV_MULTI_TILE_ROW: &[(&str, &str)] = &[
    ("split", "for ox in _: _, 14, oxo, oxi"),
    ("split", "for oc in _: _, 16, oco, oci"),
    ("split", "for ic in _: _, 16, ico, ici"),
    ("reorder", "for oxi in _: _, oco"),
    ("reorder", "for oci in _: _, ky"),
    ("reorder", "for oxi in _: _, ky"),
    ("reorder", "for oco in _: _, ky"),
    ("reorder", "for oxo in _: _, ky"),
    ("reorder", "for oci in _: _, kx"),
    ("reorder", "for oxi in _: _, kx"),
    ("reorder", "for oco in _: _, kx"),
    ("reorder", "for oxo in _: _, kx"),
    ("reorder", "for oci in _: _, ico"),
    ("reorder", "for oxi in _: _, ico"),
    ("reorder", "for oco in _: _, ico"),
    ("reorder", "for oxo in _: _, ico"),
    ("stage_mem", "for ky in _: _, C, [b:b + 1, oy:oy + 1, 0:28, 0:32], res, MemName(ACCUM)"),
    ("stage_mem", "for oxo in _: _, W, [ky:ky + 1, kx:kx + 1, ico * 16:ico * 16 + 16, 0:32], w_s, MemName(SCRATCHPAD)"),
    ("stage_mem", "for oxo in _: _, In, [b:b + 1, oy + ky:oy + ky + 1, kx:kx + 28, ico * 16:ico * 16 + 16], in_s, MemName(SCRATCHPAD)"),
    ("simplify", ""),
    ("configwrite_at", "for b in _: _, before, ConfigLd.src_stride, stride(In, 2)"),
    ("configwrite_at", "for b in _: _, before, ConfigLd2.src_stride, stride(W, 2)"),
    ("configwrite_at", "for b in _: _, before, ConfigLdAcc.src_stride, stride(C, 2)"),
    ("configwrite_at", "for b in _: _, before, ConfigSt.dst_stride, stride(C, 2)"),
    ("split", "for ld2 in _: _, 14, rl2o, rl2i"),
    ("split", "for ld3 in _: _, 16, rl3o, rl3i"),
    ("reorder", "for rl2i in _: _, rl3o"),
    ("replace", "for rl2i in _: _, gemmini_mvin_acc"),
    ("split", "for ld3 in _: _, 16, wl3o, wl3i"),
    ("reorder", "for ld2 in _: _, wl3o"),
    ("replace", "for ld2 in _: _, gemmini_mvin2"),
    ("split", "for ld2 in _: _, 14, il2o, il2i"),
    ("replace", "for il2i in _: _, gemmini_mvin"),
    ("replace", "for oxi in _: _, gemmini_matmul"),
    ("split", "for st2 in _: _, 14, rs2o, rs2i"),
    ("split", "for st3 in _: _, 16, rs3o, rs3i"),
    ("reorder", "for rs2i in _: _, rs3o"),
    ("replace", "for rs2i in _: _, gemmini_mvout_acc"),
    ("replace", "ConfigLd.src_stride = _, gemmini_config_ld"),
    ("replace", "ConfigLd2.src_stride = _, gemmini_config_ld2"),
    ("replace", "ConfigLdAcc.src_stride = _, gemmini_config_ld_acc"),
    ("replace", "ConfigSt.dst_stride = _, gemmini_config_st"),
    ("simplify", ""),
];
const SGEMM: &[(&str, &str)] = &[
    ("split", "for i in _: _, 6, io, ii"),
    ("split", "for j in _: _, 64, jo, ji"),
    ("reorder", "for ii in _: _, jo"),
    ("reorder", "for ji in _: _, k"),
    ("reorder", "for ii in _: _, k"),
    (
        "stage_mem",
        "for k in _: _, C, [io * 6:io * 6 + 6, jo * 64:jo * 64 + 64], c_reg, MemName(AVX512)",
    ),
    ("split", "for ji in _: _, 16, jv, jl"),
    (
        "stage_mem",
        "for ii in _: _, B, [k:k + 1, jo * 64:jo * 64 + 64], b_vec, MemName(AVX512)",
    ),
    ("simplify", ""),
    (
        "expand_scalar",
        "for jv in _: _, A[_], jl, a_bc, MemName(AVX512)",
    ),
    ("replace", "for jl in _: _, mm512_fmadd_ps"),
    ("replace", "for l in _: _, mm512_broadcast_ss"),
    ("split", "for ld1 in _: _, 16, bl1o, bl1i"),
    ("replace", "for bl1i in _: _, mm512_loadu_ps"),
    ("split", "for ld1 in _: _, 16, cl1o, cl1i"),
    ("replace", "for cl1i in _: _, mm512_loadu_ps"),
    ("split", "for st1 in _: _, 16, cs1o, cs1i"),
    ("replace", "for cs1i in _: _, mm512_storeu_ps"),
    ("simplify", ""),
];
const CONV_AVX512: &[(&str, &str)] = &[
    ("split", "for oc in _: _, 16, oco, ocl"),
    ("split", "for ox in _: _, 4, oxo, oxi"),
    ("reorder", "for oxi in _: _, oco"),
    ("reorder", "for ocl in _: _, ky"),
    ("reorder", "for oxi in _: _, ky"),
    ("reorder", "for ocl in _: _, kx"),
    ("reorder", "for oxi in _: _, kx"),
    ("reorder", "for ocl in _: _, ic"),
    ("reorder", "for oxi in _: _, ic"),
    ("stage_mem", "for ky in _: _, C, [b:b + 1, oy:oy + 1, oxo * 4:oxo * 4 + 4, oco * 16:oco * 16 + 16], c_reg, MemName(AVX512)"),
    ("stage_mem", "for oxi in _: _, W, [ky:ky + 1, kx:kx + 1, ic:ic + 1, oco * 16:oco * 16 + 16], w_vec, MemName(AVX512)"),
    ("simplify", ""),
    ("expand_scalar", "for ocl in _: _, In[_], ocl, in_bc, MemName(AVX512)"),
    ("replace", "for ocl in _: _, mm512_fmadd_ps"),
    ("replace", "for l in _: _, mm512_broadcast_ss"),
    ("replace", "for ld3 in _: _ #1, mm512_loadu_ps"),
    ("replace", "for ld3 in _: _, mm512_loadu_ps"),
    ("replace", "for st3 in _: _, mm512_storeu_ps"),
    ("simplify", ""),
];
