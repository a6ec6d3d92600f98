//! Runs every workload of the benchmark binary in smoke mode (about 1% of
//! the work) and checks the result-line contract: every metric named in
//! `BENCHMARK.json` is printed with its unit, outputs check correct, and
//! everything that does not depend on the wall clock repeats bit for bit —
//! across two runs of one seed and between the traced and untraced runs.

use serde_json::Value;
use std::process::Command;

/// Per-layer metrics measured on the wall clock (or a ratio of two wall
/// clocks); everything else is a count or a simulated quantity.
fn wall_clock(name: &str, unit: &str) -> bool {
    unit == "us" || name == "trace.overhead_ratio" || name == "speed_probe.slowdown"
}

/// Runs the benchmark and parses its result line.
fn benchmark(args: &[&str]) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{args:?} failed:\n{stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let last = stdout.lines().last().expect("a result line");
    serde_json::parse(last).expect("the result line is JSON")
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json = serde_json::parse(&text).expect("BENCHMARK.json parses");
    json.get(list)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn metric(result: &Value, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

fn counts(result: &Value) -> (u64, u64) {
    let field = |k: &str| result.get(k).and_then(Value::as_u64).expect(k);
    (field("attempted"), field("failed"))
}

/// Checks one result line against the declared metric list and returns the
/// values of the deterministic metrics.
fn check(result: &Value, list: &str) -> Vec<(String, u64)> {
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
    let (attempted, failed) = counts(result);
    assert!(attempted >= 1);
    assert_eq!(failed, 0, "smoke workloads have no failing operations");
    let metrics = result.get("metrics").and_then(Value::as_object).unwrap();
    let declared = declared(list);
    assert_eq!(
        metrics.len(),
        declared.len(),
        "exactly the declared metrics"
    );
    let mut deterministic = Vec::new();
    for (name, unit) in &declared {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
        let value = metric(result, name);
        assert!(value.is_finite(), "{name} = {value}");
        if list == "end_to_end" {
            assert!(value > 0.0, "end-to-end {name} is never 0");
        }
        let wall = if list == "end_to_end" {
            name != "sim_gbps"
        } else {
            wall_clock(name, unit)
        };
        if !wall {
            deterministic.push((name.clone(), value.to_bits()));
        }
    }
    deterministic
}

fn workload_is_deterministic_and_complete(workload: &str) {
    let base = ["--workload", workload, "--smoke", "--seed", "42"];
    let run = |trace: &str| benchmark(&[&base[..], &["--trace", trace]].concat());
    let (a, b) = (run("0"), run("0"));
    assert_eq!(check(&a, "end_to_end"), check(&b, "end_to_end"));
    assert_eq!(counts(&a), counts(&b));
    let (t, u) = (run("1"), run("1"));
    assert_eq!(check(&t, "per_layer"), check(&u, "per_layer"));
    assert_eq!(counts(&t), counts(&a), "traced and untraced runs agree");
}

#[test]
fn fleet_is_deterministic_and_complete() {
    workload_is_deterministic_and_complete("fleet");
}

#[test]
fn comm_init_is_deterministic_and_complete() {
    workload_is_deterministic_and_complete("comm_init");
}

#[test]
fn train_is_deterministic_and_complete() {
    workload_is_deterministic_and_complete("train");
}

#[test]
fn a_different_seed_changes_the_job_stream() {
    let run = |seed: &str| benchmark(&["--workload", "fleet", "--smoke", "--seed", seed]);
    let (a, b) = (run("42"), run("43"));
    assert!(
        counts(&a) != counts(&b) || metric(&a, "sim_gbps") != metric(&b, "sim_gbps"),
        "seeds 42 and 43 produced the same fleet"
    );
}

#[test]
fn bad_arguments_are_refused_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed"],
        &["--seconds", "0"],
        &["--frobnicate"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
            .args(args)
            .output()
            .expect("the benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
