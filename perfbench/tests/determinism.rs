//! Determinism self-check: for a given seed, every exact-count metric
//! the benchmark reports must repeat exactly, so a change in one of them
//! is a change in the program, never noise. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use exo_perfbench::{run, Gen, Start, Workload};

/// The exact per-layer counts compared (besides the `gen_*` census).
const EXACT: [&str; 5] = [
    "interp.steps",
    "smt.qe_nodes",
    "gemmini_sim.cycles",
    "sched.directives",
    "lint.loops",
];

/// The counts of one single-cycle run (a zero budget stops after the
/// first whole cycle).
fn counts(w: Workload, seed: u64) -> (Gen, Vec<u64>) {
    let o = run(w, seed, 0.0, false, Start::now());
    assert_eq!(o.failed, 0, "{}: {:?}", w.name(), o.errors);
    assert!(o.errors.is_empty(), "{}: {:?}", w.name(), o.errors);
    let gen = o.gen.expect("complete census");
    (gen, EXACT.iter().map(|k| o.probe.get(k)).collect())
}

#[test]
fn exact_counts_repeat_for_a_seed() {
    // Seed 1 was used while the benchmark was built; 90210 was not.
    for seed in [1, 90_210] {
        for w in Workload::ALL {
            let (gen, first) = counts(w, seed);
            let (gen_again, second) = counts(w, seed);
            assert_eq!(gen, gen_again, "{} seed {seed}: gen_* differ", w.name());
            for ((key, a), b) in EXACT.iter().zip(&first).zip(&second) {
                assert_eq!(a, b, "{} seed {seed}: {key} differs", w.name());
            }
            assert!(
                gen.hw_instrs > 0 && gen.c_bytes > 0,
                "{}: empty census",
                w.name()
            );
            // each workload exercises the layers it is there for
            let must = match w {
                Workload::GemminiFig4a => ["gemmini_sim.cycles", "interp.steps"],
                Workload::X86Oracle => ["interp.steps", "sched.directives"],
                Workload::ScheduleCold => ["smt.qe_nodes", "sched.directives"],
                Workload::LintCold => ["smt.qe_nodes", "lint.loops"],
            };
            for key in must {
                let i = EXACT.iter().position(|k| *k == key).expect("listed count");
                assert!(first[i] > 0, "{}: {key} is 0", w.name());
            }
        }
    }
}
