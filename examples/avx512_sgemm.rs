//! The x86 SGEMM case study (§7.2) as a runnable example: schedule a
//! naive f32 GEMM into the paper's 6×64 AVX-512 microkernel, verify it
//! against the interpreter, and evaluate it on the Tiger Lake core
//! model next to the MKL-like strategy.
//!
//! ```sh
//! cargo run --release --example avx512_sgemm
//! ```

use std::sync::{Arc, Mutex};

use exo::hwlibs::Avx512Lib;
use exo::kernels::x86_gemm::{schedule_sgemm, GemmStrategy};
use exo::sched::SchedState;
use x86_sim::CoreModel;

fn main() {
    let lib = Avx512Lib::new();
    let state = Arc::new(Mutex::new(SchedState::default()));

    println!("scheduling a 48x128x64 SGEMM into the 6x64 microkernel…");
    let p = schedule_sgemm(&lib, &state, 48, 128, 64, 6, 64).expect("schedule");
    println!("{} directives; kernel head:", p.directives());
    for line in p.show().lines().take(16) {
        println!("{line}");
    }
    println!("…\n");

    // static profile of the scheduled IR
    let profile = x86_sim::profile_proc(p.proc()).expect("constant bounds");
    println!(
        "static profile: {} FMAs, {} loads, {} broadcasts, {} stores",
        profile.fmas, profile.vec_loads, profile.broadcasts, profile.vec_stores
    );

    // the Fig. 5a comparison at a few square sizes
    let core = CoreModel::tiger_lake();
    println!(
        "\n=== GFLOP/s on square sizes (peak {:.1}) ===",
        core.peak_gflops()
    );
    println!("{:<8} {:>9} {:>9}", "size", "Exo", "MKL");
    for s in [384u64, 768, 1152, 1536, 1920] {
        println!(
            "{:<8} {:>9.1} {:>9.1}",
            s,
            GemmStrategy::exo().gflops(s, s, s, &core),
            GemmStrategy::mkl_like().gflops(s, s, s, &core),
        );
    }
}
