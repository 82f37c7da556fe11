//! Pins what the simulators report for the case-study traces, field for
//! field: the full `SimReport::to_json()` of the Exo, Old-lib and
//! hardware-unroller runs at three of the scaled Fig. 4a shapes (the
//! `gemmini-fig4a` benchmark workload's `N/16` sizes), and the x86-sim
//! `KernelProfile` of the scheduled SGEMM and CONV, from their traces and
//! from the procedures. A change to how a trace is built, stored or
//! decoded must leave every line here byte-identical.

use std::sync::{Arc, Mutex};

use exo::hwlibs::{Avx512Lib, GemminiLib};
use exo::kernels::gemmini_conv::ConvShape;
use exo::kernels::gemmini_gemm::{old_lib_matmul_trace, schedule_matmul, trace_matmul};
use exo::kernels::schedlib::{conv_args, gemm_args, run_patterned};
use exo::kernels::x86_conv::schedule_conv_avx512;
use exo::kernels::x86_gemm::schedule_sgemm;
use exo::prelude::*;
use exo::sched::{SchedState, StateRef};
use gemmini_sim::{SimConfig, Simulator};

fn state() -> StateRef {
    Arc::new(Mutex::new(SchedState::default()))
}

/// The three reports of one Fig. 4a shape, one JSON line each.
fn fig4a_reports(n: i64, m: i64, k: i64) -> [String; 3] {
    let lib = GemminiLib::new();
    let p = schedule_matmul(&lib, &state(), n, m, k).expect("schedule");
    let exo = trace_matmul(p.proc(), n, m, k, false);
    let old = old_lib_matmul_trace(n, m, k);
    [
        Simulator::new(SimConfig::software()).run(&exo),
        Simulator::new(SimConfig::software()).run(&old),
        Simulator::new(SimConfig::hardware_unroller()).run(&exo),
    ]
    .map(|r| r.to_json().to_string())
}

fn check_fig4a(n: i64, m: i64, k: i64, want: [&str; 3]) {
    assert_eq!(
        fig4a_reports(n, m, k),
        want,
        "exo, old-lib, hardware of {n}x{m}x{k}"
    );
}

#[test]
fn fig4a_784x64x64_reports() {
    check_fig4a(
        784,
        64,
        64,
        [
            r#"{"type":"sim_report","sim":"gemmini","cycles":20726,"macs":3211264,"utilization":0.6052301457107016,"instructions":1392,"flushes":4,"bytes_moved":455680,"truncated":false,"busy":{"execute":14798,"load":20016,"store":14504}}"#,
            r#"{"type":"sim_report","sim":"gemmini","cycles":112902,"macs":3211264,"utilization":0.1111052062850968,"instructions":3136,"flushes":392,"bytes_moved":802816,"truncated":false,"busy":{"execute":25088,"load":55272,"store":14504}}"#,
            r#"{"type":"sim_report","sim":"gemmini","cycles":17378,"macs":3211264,"utilization":0.7218322016342502,"instructions":1392,"flushes":4,"bytes_moved":455680,"truncated":false,"busy":{"execute":12544,"load":16752,"store":12936}}"#,
        ],
    );
}

#[test]
fn fig4a_192x128x512_reports() {
    check_fig4a(
        192,
        128,
        512,
        [
            r#"{"type":"sim_report","sim":"gemmini","cycles":63366,"macs":12582912,"utilization":0.7756841208218919,"instructions":3908,"flushes":4,"bytes_moved":360448,"truncated":false,"busy":{"execute":55310,"load":23744,"store":7104}}"#,
            r#"{"type":"sim_report","sim":"gemmini","cycles":281094,"macs":12582912,"utilization":0.1748596554889112,"instructions":9600,"flushes":192,"bytes_moved":1769472,"truncated":false,"busy":{"execute":98304,"load":166848,"store":7104}}"#,
            r#"{"type":"sim_report","sim":"gemmini","cycles":54994,"macs":12582912,"utilization":0.8937702294795796,"instructions":3908,"flushes":4,"bytes_moved":360448,"truncated":false,"busy":{"execute":49152,"load":17856,"store":6336}}"#,
        ],
    );
}

#[test]
fn fig4a_48x1024x256_reports() {
    check_fig4a(
        48,
        1024,
        256,
        [
            r#"{"type":"sim_report","sim":"gemmini","cycles":101420,"macs":12582912,"utilization":0.48463813843423387,"instructions":6580,"flushes":4,"bytes_moved":1191936,"truncated":false,"busy":{"execute":55968,"load":95328,"store":14208}}"#,
            r#"{"type":"sim_report","sim":"gemmini","cycles":304134,"macs":12582912,"utilization":0.1616129732289057,"instructions":9984,"flushes":384,"bytes_moved":1966080,"truncated":false,"busy":{"execute":98304,"load":173952,"store":14208}}"#,
            r#"{"type":"sim_report","sim":"gemmini","cycles":74240,"macs":12582912,"utilization":0.6620689655172414,"instructions":6580,"flushes":4,"bytes_moved":1191936,"truncated":false,"busy":{"execute":49152,"load":68832,"store":12672}}"#,
        ],
    );
}

#[test]
fn x86_sgemm_trace_profile() {
    let lib = Avx512Lib::new();
    let p = schedule_sgemm(&lib, &state(), 12, 128, 32, 6, 64).expect("schedule");
    let args = gemm_args(12, 128, 32, DataType::F32, DataType::F32);
    let (machine, _) = run_patterned(p.proc(), &args, false).expect("kernel runs");
    let profile = x86_sim::profile_trace(machine.trace());
    let fixed = x86_sim::profile_proc(p.proc()).expect("constant bounds");
    assert_eq!(
        fixed.to_json().to_string(),
        r#"{"fmas":3072,"vec_loads":608,"vec_stores":96,"broadcasts":768,"other_vec":0,"scalar_uops":900,"loop_iters":4726,"flops":98304}"#
    );
    assert_eq!(
        profile.to_json().to_string(),
        r#"{"fmas":3072,"vec_loads":608,"vec_stores":96,"broadcasts":768,"other_vec":0,"scalar_uops":0,"loop_iters":0,"flops":98304}"#
    );
}

#[test]
fn x86_conv_trace_profile() {
    let s = ConvShape {
        batch: 1,
        out_dim: 4,
        oc: 32,
        ic: 16,
        kdim: 3,
    };
    let lib = Avx512Lib::new();
    let p = schedule_conv_avx512(&lib, &state(), &s, 4).expect("schedule");
    let args = conv_args(&s, DataType::F32, DataType::F32);
    let (machine, _) = run_patterned(p.proc(), &args, false).expect("kernel runs");
    let profile = x86_sim::profile_trace(machine.trace());
    let fixed = x86_sim::profile_proc(p.proc()).expect("constant bounds");
    assert_eq!(
        fixed.to_json().to_string(),
        r#"{"fmas":4608,"vec_loads":1184,"vec_stores":32,"broadcasts":4608,"other_vec":0,"scalar_uops":5768,"loop_iters":5932,"flops":147456}"#
    );
    assert_eq!(
        profile.to_json().to_string(),
        r#"{"fmas":4608,"vec_loads":1184,"vec_stores":32,"broadcasts":4608,"other_vec":0,"scalar_uops":0,"loop_iters":0,"flops":147456}"#
    );
}
