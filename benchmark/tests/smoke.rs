//! `--quick` smoke of all five workloads through the built binary:
//! the single-workload command prints a well-formed result line, the
//! oracle finds nothing wrong, and every listed metric is there.

use std::process::Command;

const WORKLOADS: [&str; 5] = [
    "fanout_inline",
    "fanout_wire",
    "selective_ingest",
    "churn_interleaved",
    "federated_wire",
];

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_wsm-benchmark"))
        .args(["--workload", workload, "--seed", "42", "--seconds", "0.6"])
        .args(["--trace", trace, "--quick"])
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}"
    );
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_workload_runs_correct_and_prints_every_metric() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    // Names in file order: end_to_end first, then per_layer.
    let names = |section: &str| -> Vec<String> {
        let from = spec.find(&format!("\"{section}\"")).expect("section");
        let to = spec[from..].find(']').expect("section end") + from;
        spec[from..to]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("closing quote")].to_string())
            .collect()
    };
    let (end_to_end, per_layer) = (names("end_to_end"), names("per_layer"));
    assert_eq!(end_to_end.len(), 10);
    assert!(per_layer.len() > 50);

    for workload in WORKLOADS {
        for (trace, expected) in [("0", &end_to_end), ("1", &per_layer)] {
            let line = run(workload, trace);
            assert!(
                line.starts_with("{\"correct\":true,\"attempted\":")
                    && line.contains("\"failed\":0,"),
                "{workload} --trace {trace}: {line}"
            );
            for name in expected {
                assert!(
                    line.contains(&format!("\"{name}\":{{\"value\":")),
                    "{workload} --trace {trace} lacks {name}: {line}"
                );
            }
        }
    }
}

#[test]
fn a_bad_command_line_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_wsm-benchmark"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("the benchmark binary starts");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
