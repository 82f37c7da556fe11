//! Exact baseline gate, run from the repository root with no arguments.
//!
//! Each non-empty line of `bench/baselines/BENCH_<name>.json` is a JSON
//! object of deterministic fields: cost-model outputs, solver and cache
//! work counts, chaos outcome counts. It passes only if some record of
//! the current run's `target/BENCH_<name>.json` carries every one of its
//! fields with an equal value. Extra fields (wall clock) and extra
//! records (registry output) are ignored. Exit status: 0 when every line
//! matched, 1 otherwise, 2 on an I/O error or any argument.

use std::process::ExitCode;

use exo_obs::Json;

/// Checks one baseline file against the current run's file (`None` when
/// it is absent or unreadable). Returns one message per failing baseline
/// line. An unmatched line is printed beside the current records of its
/// `type`, cut down to the line's fields, so accepting a legitimate
/// change means copying one of them into the baseline.
fn gate_file(baseline: &str, current: Option<&str>) -> Vec<String> {
    let Some(current) = current else {
        return vec!["current file missing".into()];
    };
    let records: Vec<Json> = current.lines().flat_map(Json::parse).collect();
    let mut failures = Vec::new();
    for line in baseline.lines().filter(|l| !l.trim().is_empty()) {
        let Ok(Json::Obj(fields)) = Json::parse(line) else {
            failures.push(format!("malformed baseline line: {line}"));
            continue;
        };
        let carries_line = |r: &Json| fields.iter().all(|(k, v)| r.get(k) == Some(v));
        if records.iter().any(carries_line) {
            continue;
        }
        let ty = fields.iter().find(|(k, _)| k == "type").map(|(_, v)| v);
        let mut msg = format!("unmatched baseline: {line}");
        for r in records.iter().filter(|r| r.get("type") == ty) {
            let cut = fields
                .iter()
                .filter_map(|(k, _)| Some((k.clone(), r.get(k)?.clone())));
            msg.push_str(&format!("\n    current: {}", Json::Obj(cut.collect())));
        }
        failures.push(msg);
    }
    failures
}

fn gate() -> std::io::Result<bool> {
    let mut names = Vec::new();
    for entry in std::fs::read_dir("bench/baselines")? {
        let name = entry?.file_name().to_string_lossy().into_owned();
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            names.push(name);
        }
    }
    names.sort();
    let mut pass = true;
    for name in names {
        let baseline = std::fs::read_to_string(format!("bench/baselines/{name}"))?;
        let current = std::fs::read_to_string(format!("target/{name}")).ok();
        let failures = gate_file(&baseline, current.as_deref());
        let verdict = if failures.is_empty() { "ok" } else { "FAILED" };
        println!("{name}: {verdict}");
        for f in &failures {
            println!("  {f}");
        }
        pass &= failures.is_empty();
    }
    Ok(pass)
}

fn main() -> ExitCode {
    if std::env::args().len() > 1 {
        eprintln!("perf_diff takes no arguments");
        return ExitCode::from(2);
    }
    match gate() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf_diff: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CURRENT: &str = concat!(
        r#"{"type":"check_cache_phase","phase":"cold","wall_us":2975,"queries":42,"hits":25,"misses":17,"hit_ratio":0.5952380952380952}"#,
        "\n",
        r#"{"type":"smt_stats","queries":61,"yes":14,"no":47,"gave_up":0,"qe_nodes":1860356,"time_us":1683148}"#,
        "\n",
        r#"{"type":"counter","name":"smt.queries","value":61}"#,
        "\n",
    );

    #[test]
    fn identical_files_pass() {
        assert_eq!(gate_file(CURRENT, Some(CURRENT)), Vec::<String>::new());
    }

    #[test]
    fn a_gated_value_moved_by_one_fails_in_either_direction() {
        for moved in ["1860355", "1860357"] {
            let base = CURRENT.replace("1860356", moved);
            let failures = gate_file(&base, Some(CURRENT));
            assert_eq!(failures.len(), 1, "{failures:?}");
            assert!(failures[0].contains(moved), "{failures:?}");
            // the current record is shown cut down to the baseline's fields
            let cut = r#"current: {"type":"smt_stats","queries":61,"yes":14,"no":47,"gave_up":0,"qe_nodes":1860356,"time_us":1683148}"#;
            assert!(failures[0].contains(cut), "{failures:?}");
        }
        for ratio in ["0.5952380952380951", "0.5952380952380953"] {
            let base = CURRENT.replace("0.5952380952380952", ratio);
            assert_eq!(gate_file(&base, Some(CURRENT)).len(), 1);
        }
    }

    #[test]
    fn a_gated_field_missing_from_the_current_record_fails() {
        let cur = CURRENT.replace(r#""qe_nodes":1860356,"#, "");
        let failures = gate_file(CURRENT, Some(&cur));
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(
            failures[0].contains(r#""qe_nodes":1860356"#),
            "{failures:?}"
        );
    }

    #[test]
    fn a_missing_current_file_fails() {
        assert_eq!(gate_file(CURRENT, None), vec!["current file missing"]);
    }

    #[test]
    fn a_malformed_baseline_line_fails_rather_than_being_skipped() {
        for bad in [r#"{"type":"smt_stats","queries":61"#, "[1,2]", "61"] {
            let base = format!("{CURRENT}{bad}\n");
            let failures = gate_file(&base, Some(CURRENT));
            assert_eq!(failures, vec![format!("malformed baseline line: {bad}")]);
        }
    }

    #[test]
    fn extra_fields_and_records_pass() {
        let base = concat!(
            r#"{"type":"check_cache_phase","phase":"cold","hits":25,"misses":17}"#,
            "\n\n",
            r#"{"qe_nodes":1860356,"type":"smt_stats"}"#,
            "\n",
        );
        assert!(gate_file(base, Some(CURRENT)).is_empty());
    }
}
