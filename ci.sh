#!/usr/bin/env bash
# Local CI: formatting, lints, and the tier-1 gate. Fully offline.
# EXO_CI_FULL=1 additionally runs the whole-workspace test suite
# (integration + simulator + bench crates; several minutes).
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (-D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q (incl. tests/warm_schedule_pin.rs: the Fig. 4a chain scheduled a second time on one SchedState has 0 cache misses, check queries and bounds obligations per shape pinned; tests/sweep_parity.rs: store-only loops swept under the unlimited budget, fused single stores included, match the general loop under a limited one; tests/replace_search.rs: which window embedding replace accepts and the last candidate's error text; tests/solver_work_pin.rs: queries, answers, give-ups and QE nodes of each schedule-cold schedule and of each lint-cold subject, linted and loop-classified on a fresh context) =="
cargo test -q

echo "== obs / smt / analysis unit + integration tests (the registry records spans only and SolverStats/CheckStats are the only tally, pinned by tests/one_tally.rs in tier-1; the analysis.check_bounds span's obligations field equals its decided field plus its check queries; interval.rs's soundness oracle: every bounds goal the interval prover proves on seeded random path conditions and goals, and on the case-study shapes, is proved by the solver on a fresh context; conditions.rs's reorder oracle: every reorder the dependence test decides on seeded random nests, and on the case-study shapes, is proved valid by the solver from the full §5.8 formula; incl. the Coeffs model test against a BTreeMap, formula.rs's checked_conjunctions_match_the_reference (Formula::and and subst, each conjunction checked once, byte for byte against the construction that compares every atom on every call, on seeded random conjunctions of 0-40 atoms), the shared-obligation equivalence tests in effexpr.rs/locset.rs (flat conjunction chains against the nested Kleene rule, Kleene fast paths, sharing substitution, membership short-circuit, set kinds against the general construction on seeded random inputs; a BigUnion over a defined body is known, its def proved equivalent by the solver) and the verdict corpus) =="
cargo test -q -p exo-obs -p exo-smt -p exo-analysis
cargo test -q --release -p exo-kernels --test verdict_corpus

echo "== core / chaos / bench tests (IR, budget and diagnostics unit tests; the seeded fault plans; perf_diff's unit and binary tests and the bench helpers) =="
cargo test -q -p exo-core -p exo-chaos -p exo-bench

echo "== front-end / hardware libraries (memory resolution, @instr print/parse round trip) =="
cargo test -q -p exo-front -p exo-hwlibs

echo "== C backend (emitter unit tests; compile_run.rs builds generated C with cc and compares with the interpreter) =="
cargo test -q -p exo-codegen

echo "== smt property suite (QE vs brute-force enumeration; the Coeffs model over 5 000 seeded sequences; ~4 s in debug) =="
cargo test -q -p exo-smt --features proptest-tests

echo "== root property suites (accepted random schedules preserve semantics, incl. configuration state, stage_mem windows and reorders of writes by i, j, i + j, 2i + j, i - j and inner binders, decided by the dependence test or by the solver; operator fail-safety; print/parse round trip) =="
cargo test -q --features proptest-tests --test prop_schedule --test prop_failsafe --test prop_roundtrip

echo "== gemmini-sim / x86-sim (decode-once opcode tables; the differential tests of gemmini-sim's access journal, its logs cut at the issue floor, against the unpruned reference scan, which decodes by name; x86-sim's cost model and static profile) =="
cargo test -q -p gemmini-sim
cargo test -q -p x86-sim

echo "== scheduler suite (operators, the shared (op, target) transcript chain (children share their parent's events), the checks and hits of a rejected call on its sched.<op> span, edge cases incl. the stage_mem pins (re-check after folding, write-only loads) and the bind_config pins in ops_edge.rs, cache-on/off verdict parity, replace's pruned candidate search against the exhaustive one on 800 seeded caller/callee pairs in unify.rs, each accepted call run on the interpreter against the original) =="
cargo test -q -p exo-sched

echo "== interpreter (error-message parity, overflow, a re-executed Alloc starting all-⊥, the outcome corpus of 500 seeded programs, the zero-extent buffer pin, unit tests incl. the plain-data trace: interned instr handles, inline Copy arguments, the rank-5 and 64-bit layout spill; release; the column-sweep parity of store-only loops is tests/sweep_parity.rs in tier-1) =="
cargo test -q --release -p exo-interp

echo "== case-study schedules (release; incl. the interpreter golden traces and the check count of the one-row-tile SGEMM; the simulators' reports on these traces are pinned in tier-1 by tests/sim_report_pin.rs, library decode conformance by tests/isa_decode.rs) =="
cargo test -q --release -p exo-kernels

echo "== check-cache bench (the Gemmini matmul chain's configwrite_at checks cold, warm and uncached; fails on zero cache hits, and if the fig5a chain, whose reorders and bounds are all decided before the solver, poses a query) =="
cargo run --release -q -p exo-bench --bin check_cache

echo "== lint suite (classifier matrix + rule pack + chaos degradation + the probe decider's soundness oracle, depend::tests::every_decided_probe_is_confirmed_by_the_solver: every refutation and every model confirmed by the solver on 2 000+ seeded probes) =="
cargo test -q -p exo-lint

echo "== lint bench (fails on error-severity findings) =="
cargo run --release -q -p exo-bench --bin lint

echo "== chaos suite (seeded fault-injection matrix; always-SmtTooHard rejects every chain that poses a solver query, and the fig5a chain, which poses none, keeps its clean schedule) =="
cargo test -q --test chaos --test budget

echo "== chaos bench (fails on escaped panic or monotonicity violation) =="
cargo run --release -q -p exo-bench --bin chaos

echo "== fig4a / fig4b benches (Gemmini utilization rows for the perf gate) =="
cargo run --release -q -p exo-bench --bin fig4a
cargo run --release -q -p exo-bench --bin fig4b

echo "== ablation benches (hand-built config-fused and phase-sorted Gemmini traces for the perf gate) =="
cargo run --release -q -p exo-bench --bin ablation_config
cargo run --release -q -p exo-bench --bin ablation_overlap

echo "== fig5a bench (GFLOP/s rows for the perf gate) =="
cargo run --release -q -p exo-bench --bin fig5a

echo "== fig7 bench (code-size rows for the perf gate) =="
cargo run --release -q -p exo-bench --bin fig7

echo "== trace exports (fig5a SGEMM schedule plus one solver-decided reorder; Chrome JSON parses strictly, every smt.decide span has a sched.* ancestor, the sched.* spans' checks sum to the state's CheckStats queries) =="
cargo run --release -q --example schedule_transcript > /dev/null

echo "== solver profile (every cached verdict of the schedule-cold and lint-cold subjects re-decided by a fresh solver; fails if an answer changes) =="
cargo run --release -q --example solver_profile > /dev/null

echo "== interpreter profile (the x86-oracle kernels naive, scheduled and bodies-off, and the sweep fit; fails if a scheduled output differs from the naive one) =="
cargo run --release -q --example interp_profile > /dev/null

echo "== perf gate (every bench/baselines line matched exactly in target/BENCH_*) =="
cargo run --release -q -p exo-bench --bin perf_diff

if [[ "${EXO_CI_FULL:-0}" == "1" ]]; then
    echo "== full: cargo test --workspace -q =="
    cargo test --workspace -q
fi

echo "CI OK"
