//! Reproduces paper Fig. 5b: SGEMM with fixed work (K = 512,
//! M·N = 512²) and variable output aspect ratio M/N — MKL's kernel
//! family pulls ahead of Exo's one kernel at extreme ratios.

use exo_bench::write_bench_json;
use exo_kernels::x86_gemm::GemmStrategy;
use exo_obs::Json;
use x86_sim::CoreModel;

fn main() {
    let core = CoreModel::tiger_lake();
    let strategies = [GemmStrategy::exo(), GemmStrategy::mkl_like()];
    println!("== Fig. 5b — SGEMM GFLOP/s vs aspect ratio (K=512, M*N=512^2) ==");
    println!(
        "{:<12} {:>7} {:>7} {:>10} {:>10}",
        "M/N", "M", "N", "Exo", "MKL"
    );
    let mut records = Vec::new();
    for i in -5i32..=5 {
        let m = (512.0 * 2f64.powi(i)) as u64;
        let n = (512.0 * 2f64.powi(-i)) as u64;
        let gf: Vec<f64> = strategies
            .iter()
            .map(|st| st.gflops(m, n, 512, &core))
            .collect();
        println!(
            "{:<12} {:>7} {:>7} {:>9.1} {:>9.1}",
            format!("2^{}", 2 * i),
            m,
            n,
            gf[0],
            gf[1]
        );
        records.push(Json::obj(vec![
            ("type".into(), Json::Str("gflops_row".into())),
            ("m".into(), Json::uint(m)),
            ("n".into(), Json::uint(n)),
            ("k".into(), Json::uint(512)),
            ("exo".into(), Json::Float(gf[0])),
            ("mkl".into(), Json::Float(gf[1])),
        ]));
    }
    println!();
    println!("paper reference: Exo matches OpenBLAS across ratios; MKL ahead at the extremes");
    write_bench_json("fig5b", &records).expect("write BENCH_fig5b.json");
}
