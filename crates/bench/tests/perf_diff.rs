//! Exit status of the `perf_diff` binary, run with its working directory
//! set to a temporary tree holding `bench/baselines/` and `target/`.

use std::path::{Path, PathBuf};
use std::process::Command;

const RECORD: &str = r#"{"type":"smt_stats","queries":61,"qe_nodes":1860356,"time_us":1683148}"#;

fn tree(tag: &str, baseline: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("perf_diff_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    for (dir, text) in [("bench/baselines", baseline), ("target", RECORD)] {
        std::fs::create_dir_all(root.join(dir)).expect("mkdir");
        std::fs::write(root.join(dir).join("BENCH_lint.json"), format!("{text}\n")).expect("write");
    }
    root
}

fn run(cwd: &Path, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perf_diff"))
        .current_dir(cwd)
        .args(args)
        .output()
        .expect("spawn perf_diff");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn exits_zero_on_a_match_and_one_on_a_moved_count() {
    let root = tree("ok", r#"{"type":"smt_stats","qe_nodes":1860356}"#);
    assert_eq!(run(&root, &[]), (Some(0), "BENCH_lint.json: ok\n".into()));

    let moved = r#"{"type":"smt_stats","qe_nodes":1860357}"#;
    let root = tree("moved", moved);
    let (code, log) = run(&root, &[]);
    assert_eq!(code, Some(1), "{log}");
    assert!(log.contains(moved), "the unmatched line is printed:\n{log}");
    assert!(
        log.contains(r#"current: {"type":"smt_stats","qe_nodes":1860356}"#),
        "{log}"
    );
}

#[test]
fn exits_two_on_an_argument_or_an_io_error() {
    let root = tree("args", RECORD);
    assert_eq!(run(&root, &["--warn-only"]).0, Some(2));
    // no bench/baselines/ under the working directory
    assert_eq!(run(&root.join("target"), &[]).0, Some(2));
}
