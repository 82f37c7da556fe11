//! Reproduces paper Fig. 4a: Gemmini MATMUL utilization across twelve
//! ResNet-50 GEMM shapes, three series (Old-lib / Exo-lib / Hardware).

use exo_bench::{
    fig4a_row, fig4a_shapes, fresh_state, print_util_table, solver_stats_json, write_bench_json,
};
use exo_hwlibs::GemminiLib;

fn main() {
    let lib = GemminiLib::new();
    let state = fresh_state();
    let rows: Vec<_> = fig4a_shapes()
        .into_iter()
        .map(|(n, m, k)| {
            eprintln!("scheduling {n}x{m}x{k} …");
            fig4a_row(&lib, &state, n, m, k)
        })
        .collect();
    print_util_table(
        "Fig. 4a — Gemmini MATMUL utilization (% of peak MACs)",
        &rows,
    );
    println!();
    println!("paper reference: Exo-lib ≈ 3.5x Old-lib on average; Exo ≈ 67% of Hardware;");
    println!("paper series span: Old-lib 14-20%, Exo-lib 40-95%, Hardware 62-98%");
    let mut records: Vec<_> = rows.iter().map(|r| r.to_json()).collect();
    records.push(solver_stats_json(&state));
    write_bench_json("fig4a", &records).expect("write BENCH_fig4a.json");
}
