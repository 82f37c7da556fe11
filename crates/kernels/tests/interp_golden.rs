//! Pins what the interpreter does on the case-study kernels: the exact
//! statement count, the hardware-instruction trace and the output store.
//!
//! The five x86 items are the SGEMM and CONV sizes of the `x86-oracle`
//! benchmark workload, run functionally (instruction bodies executed) in
//! their naive and scheduled forms on dyadic inputs, so both forms must
//! produce the same output bit for bit. The Gemmini matmul and conv are
//! timing-only runs (instruction bodies skipped), as the Fig. 4 benches
//! use them. The constants were recorded before the interpreter was
//! rewritten to resolve names once per run; any change to `steps()`, a
//! traced argument or a stored value fails here.

use std::sync::{Arc, Mutex};

use exo_core::{DataType, Proc};
use exo_hwlibs::{Avx512Lib, GemminiLib};
use exo_interp::{ArgVal, Machine};
use exo_kernels::gemmini_conv::{schedule_conv, ConvShape};
use exo_kernels::gemmini_gemm::schedule_matmul;
use exo_kernels::schedlib::{conv_args, gemm_args, run_patterned, TensorArg};
use exo_kernels::x86_conv::{naive_conv_f32, schedule_conv_avx512};
use exo_kernels::x86_gemm::{naive_sgemm, schedule_sgemm};
use exo_sched::{SchedState, StateRef};

fn state() -> StateRef {
    Arc::new(Mutex::new(SchedState::default()))
}

/// FNV-1a over a byte string.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Drops the `#<id>` suffix that `Sym`'s `Debug` form appends: memory
/// names print with their process-global symbol id, which depends on
/// interning order, not on what the interpreter did.
fn strip_sym_ids(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars().peekable();
    while let Some(c) = chars.next() {
        if c == '#' && chars.peek().is_some_and(char::is_ascii_digit) {
            while chars.peek().is_some_and(char::is_ascii_digit) {
                chars.next();
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// What one run left behind: `steps()`, trace length, digest of the
/// trace's `Debug` form, digest of the output buffer's `f64` bits
/// (uninitialized elements hash as `u64::MAX`).
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    steps: u64,
    trace_len: usize,
    trace_digest: u64,
    output_digest: u64,
}

fn golden(machine: &Machine, out: exo_interp::BufId) -> Golden {
    let trace = strip_sym_ids(&format!("{:?}", machine.trace()));
    let bits = machine
        .buffer(out)
        .values()
        .flat_map(|v| v.map_or(u64::MAX, f64::to_bits).to_le_bytes());
    Golden {
        steps: machine.steps(),
        trace_len: machine.trace().len(),
        trace_digest: fnv1a(trace.bytes()),
        output_digest: fnv1a(bits),
    }
}

/// Multiples of 1/8 in [-2, 2] from a fixed linear congruential stream:
/// every partial sum of these kernels is exact in f32.
fn dyadic(len: usize, seed: &mut u64) -> Vec<f64> {
    (0..len)
        .map(|_| {
            *seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((*seed >> 33) % 33) as f64 / 8.0 - 2.0
        })
        .collect()
}

/// Runs `proc` functionally on dyadic inputs (the output starts at
/// zero).
fn run_dyadic(proc: &Proc, args: &[TensorArg; 3]) -> Golden {
    let mut seed = 3;
    let mut machine = Machine::new();
    let mut ids = Vec::new();
    for (i, (name, dtype, shape)) in args.iter().enumerate() {
        let len = shape.iter().product::<usize>();
        let data = if i == 2 {
            vec![0.0; len]
        } else {
            dyadic(len, &mut seed)
        };
        ids.push(machine.alloc_extern(name, *dtype, shape, &data));
    }
    let actuals: Vec<ArgVal> = ids.iter().map(|&id| ArgVal::Tensor(id)).collect();
    machine.run(proc, &actuals).expect("kernel runs");
    golden(&machine, ids[2])
}

/// Checks the naive and scheduled forms of one x86 item.
fn check_x86(naive: &Proc, scheduled: &Proc, args: &[TensorArg; 3], want: [Golden; 2]) {
    let got = [run_dyadic(naive, args), run_dyadic(scheduled, args)];
    assert_eq!(
        got[0].output_digest, got[1].output_digest,
        "scheduled output differs from naive"
    );
    assert_eq!(got, want);
}

fn sgemm(m: i64, n: i64, k: i64, want: [Golden; 2]) {
    let lib = Avx512Lib::new();
    let p = schedule_sgemm(&lib, &state(), m, n, k, 6, 64).expect("schedule");
    let args = gemm_args(m, n, k, DataType::F32, DataType::F32);
    check_x86(&naive_sgemm(m, n, k), p.proc(), &args, want);
}

const fn g(steps: u64, trace_len: usize, trace_digest: u64, output_digest: u64) -> Golden {
    Golden {
        steps,
        trace_len,
        trace_digest,
        output_digest,
    }
}

#[test]
fn x86_sgemm_12x128x32() {
    sgemm(
        12,
        128,
        32,
        [
            g(50701, 0, 675868731199239589, 1559248432705108558),
            g(83779, 4544, 6257610179484461603, 1559248432705108558),
        ],
    );
}

#[test]
fn x86_sgemm_6x128x64() {
    sgemm(
        6,
        128,
        64,
        [
            g(49927, 0, 675868731199239589, 16923711456954242070),
            g(82017, 4448, 1662614619035493341, 16923711456954242070),
        ],
    );
}

#[test]
fn x86_sgemm_18x128x24() {
    sgemm(
        18,
        128,
        24,
        [
            g(57619, 0, 675868731199239589, 9420655655630573309),
            g(95572, 5184, 3046092253144614428, 9420655655630573309),
        ],
    );
}

#[test]
fn x86_sgemm_12x192x24() {
    sgemm(
        12,
        192,
        24,
        [
            g(57613, 0, 675868731199239589, 4498140985717100191),
            g(95571, 5184, 14340214534407344933, 4498140985717100191),
        ],
    );
}

#[test]
fn x86_conv_o4_oc32_ic16() {
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
    check_x86(
        &naive_conv_f32(&s),
        p.proc(),
        &args,
        [
            g(80406, 0, 675868731199239589, 4321452083053081558),
            g(194821, 10432, 10615764922850708827, 4321452083053081558),
        ],
    );
}

#[test]
fn gemmini_matmul_timing_trace() {
    let lib = GemminiLib::new();
    let p = schedule_matmul(&lib, &state(), 64, 64, 64).expect("schedule");
    let args = gemm_args(64, 64, 64, DataType::I8, DataType::I32);
    let (machine, out) = run_patterned(p.proc(), &args, false).expect("kernel runs");
    assert_eq!(
        golden(&machine, out),
        g(187, 132, 11188946718744646554, 10453329350862349093)
    );
}

#[test]
fn gemmini_conv_timing_trace() {
    let s = ConvShape::fig4b(4, 32, 32);
    let lib = GemminiLib::new();
    let p = schedule_conv(&lib, &state(), &s).expect("schedule");
    let args = conv_args(&s, DataType::I8, DataType::I32);
    let (machine, out) = run_patterned(p.proc(), &args, false).expect("kernel runs");
    assert_eq!(
        golden(&machine, out),
        g(2921, 1508, 13341329381391485014, 965379263009743653)
    );
}
