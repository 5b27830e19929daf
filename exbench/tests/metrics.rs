//! Every metric `BENCHMARK.json` names is printed by the command, with its
//! unit, and the command prints no metric `BENCHMARK.json` does not name.

mod support;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use support::{parse, Json};

fn benchmark() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

/// Metric name → unit, as declared under `section`.
fn declared(bench: &Json, section: &str) -> BTreeMap<String, String> {
    bench
        .get(section)
        .items()
        .iter()
        .map(|m| (m.get("name").str().to_string(), m.get("unit").str().to_string()))
        .collect()
}

/// Metric name → unit, as printed on the result line of one short run.
fn printed(workload: &str, trace: bool) -> BTreeMap<String, String> {
    let target = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join(format!("exbench-test-{}-{workload}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_exbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.05"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .env("CARGO_TARGET_DIR", &target)
        .output()
        .expect("the benchmark binary runs");
    let _ = std::fs::remove_dir_all(&target);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{workload} failed:\n{stdout}");
    let result = parse(stdout.lines().last().expect("a result line"));
    assert_eq!(result.get("correct"), &Json::Bool(true));
    match result.get("attempted") {
        Json::Num(n) => assert!(*n >= 1.0),
        other => panic!("attempted is {other:?}"),
    }
    result
        .get("metrics")
        .members()
        .iter()
        .map(|(name, m)| {
            assert!(matches!(m.get("value"), Json::Num(_)), "{name} has no numeric value");
            (name.clone(), m.get("unit").str().to_string())
        })
        .collect()
}

#[test]
fn printed_metrics_match_the_declaration() {
    let bench = benchmark();
    let workloads: Vec<String> =
        bench.get("workloads").items().iter().map(|w| w.get("name").str().to_string()).collect();
    assert_eq!(workloads, youtopia_exbench::WORKLOADS);
    for workload in &workloads {
        assert_eq!(printed(workload, false), declared(&bench, "end_to_end"), "{workload}");
        assert_eq!(printed(workload, true), declared(&bench, "per_layer"), "{workload} traced");
    }
}
