//! Smoke runs: every workload at tiny n, untraced and traced, must pass
//! all of its correctness gates and print exactly the metrics
//! `BENCHMARK.json` declares, in order and with their units.

use anatomy_obs::Json;
use std::process::{Command, Output};

const WORKLOADS: [&str; 3] = ["publish", "publish_sharded", "serve_drilldown"];

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("perfbench starts")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let field = |m: &Json, key: &str| m.get(key).and_then(Json::as_str).expect(key).to_string();
    doc.get(section)
        .and_then(Json::as_arr)
        .expect(section)
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

#[test]
fn every_workload_passes_its_gates_and_prints_the_declared_metrics() {
    for workload in WORKLOADS {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = perfbench(&[
                "--workload",
                workload,
                "--seed",
                "7",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--smoke",
            ]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                out.status.success(),
                "{workload} --trace {trace} failed:\n{stderr}"
            );
            let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
            let last = stdout.lines().last().expect("a result line");
            let result = Json::parse(last).expect("the last line is JSON");
            let keys: Vec<&str> = result
                .as_obj()
                .expect("an object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
            assert!(result.get("attempted").and_then(Json::as_u64) >= Some(1));
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
            let metrics = result
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics");
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    let unit = m.get("unit").and_then(Json::as_str).expect("a unit");
                    (name.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(printed, declared(section), "{workload} --trace {trace}");
            for (name, m) in metrics {
                let value = m.get("value").and_then(Json::as_f64).expect("a value");
                assert!(
                    trace == "1" || value > 0.0,
                    "{workload}: end-to-end metric {name} is {value}"
                );
            }
        }
    }
}

#[test]
fn bad_arguments_are_a_usage_error_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "publish", "--trace", "2"],
        &["--workload", "publish", "--seconds", "0"],
        &["--workload", "publish", "--bogus", "1"],
    ] {
        let out = perfbench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
