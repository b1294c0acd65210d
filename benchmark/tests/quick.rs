//! Runs every workload with `--quick`, untraced and traced, and checks the
//! output contract: each metric `BENCHMARK.json` declares is printed
//! exactly once per workload with a finite value, nothing undeclared is
//! printed, and the last line is the result object. `--quick` numbers are
//! for this test only; they never become a baseline.

use std::collections::BTreeMap;
use std::process::Command;

const WORKLOADS: [&str; 5] = [
    "sim-dense",
    "sim-sparse",
    "real-threads",
    "serve-read",
    "serve-ingest",
];

/// Names listed under `key` in `BENCHMARK.json` (`"name": "..."` entries
/// between that key and the next `]`).
fn declared(manifest: &str, key: &str) -> Vec<String> {
    let section = &manifest[manifest
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))..];
    let section = &section[..section.find(']').expect("list is closed")];
    section
        .split("\"name\":")
        .skip(1)
        .map(|rest| {
            let rest = &rest[rest.find('"').expect("name is a string") + 1..];
            rest[..rest.find('"').expect("name is closed")].to_string()
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_polymer-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--trace",
            trace,
            "--quick",
        ])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} exited with {:?}:\n{stdout}\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn check(workload: &str, trace: &str, want: &[String]) {
    let stdout = run(workload, trace);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().expect("some output");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": ") && last.ends_with("}}"),
        "{workload}: last line is not the result object: {last}"
    );
    assert!(last.contains("\"failed\": 0, \"metrics\": {"), "{last}");

    let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
    for line in lines {
        let f: Vec<&str> = line.split(' ').collect();
        assert_eq!(
            f.len(),
            4,
            "{workload}: not `workload metric value unit`: {line}"
        );
        assert_eq!(f[0], workload);
        assert!(
            f[1].chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad metric name {}",
            f[1]
        );
        let value: f64 = f[2]
            .parse()
            .unwrap_or_else(|_| panic!("not a number: {line}"));
        assert!(value.is_finite(), "{line}");
        assert!(
            last.contains(&format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                f[1], f[2], f[3]
            )),
            "{workload}: {} is missing from the result object",
            f[1]
        );
        *seen.entry(f[1]).or_default() += 1;
    }
    for name in want {
        assert_eq!(
            seen.remove(name.as_str()),
            Some(1),
            "{workload} --trace {trace}: {name} must be printed exactly once"
        );
    }
    assert!(seen.is_empty(), "{workload}: undeclared metrics {seen:?}");
}

#[test]
fn every_declared_metric_is_printed_once_per_workload() {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let end_to_end = declared(&manifest, "end_to_end");
    let per_layer = declared(&manifest, "per_layer");
    assert_eq!(declared(&manifest, "workloads"), WORKLOADS);
    assert!(end_to_end.contains(&"setup_s".to_string()));
    for w in WORKLOADS {
        check(w, "0", &end_to_end);
        check(w, "1", &per_layer);
    }
}

#[test]
fn usage_errors_exit_with_2_and_no_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seconds", "0", "--all"],
        &[],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_polymer-benchmark"))
            .args(args)
            .output()
            .expect("benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
