//! Reproduces paper Fig. 5a: SGEMM GFLOP/s on square matrices
//! (M = N = K), series Exo / MKL-like on the Tiger Lake core model
//! (peak 137.6 GFLOP/s).

use exo_bench::write_bench_json;
use exo_kernels::x86_gemm::GemmStrategy;
use exo_obs::Json;
use x86_sim::CoreModel;

fn main() {
    let core = CoreModel::tiger_lake();
    let strategies = [GemmStrategy::exo(), GemmStrategy::mkl_like()];
    println!(
        "== Fig. 5a — SGEMM GFLOP/s, square sizes (peak {:.1}) ==",
        core.peak_gflops()
    );
    println!("{:<8} {:>10} {:>10}", "size", "Exo", "MKL");
    let mut records = Vec::new();
    for i in 1..=10 {
        let s = (192 * i) as u64;
        let gf: Vec<f64> = strategies
            .iter()
            .map(|st| st.gflops(s, s, s, &core))
            .collect();
        println!(
            "{:<8} {:>9.1} {:>9.1}   ({:>3.0}% / {:>3.0}% of peak)",
            s,
            gf[0],
            gf[1],
            gf[0] / core.peak_gflops() * 100.0,
            gf[1] / core.peak_gflops() * 100.0
        );
        records.push(Json::obj(vec![
            ("type".into(), Json::Str("gflops_row".into())),
            ("size".into(), Json::uint(s)),
            ("exo".into(), Json::Float(gf[0])),
            ("mkl".into(), Json::Float(gf[1])),
            ("peak".into(), Json::Float(core.peak_gflops())),
        ]));
    }
    println!();
    println!("paper reference: all three within noise, 80-95% of peak across the range");
    write_bench_json("fig5a", &records).expect("write BENCH_fig5a.json");
}
