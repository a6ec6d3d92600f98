//! The paper's evaluation in one run: every figure of
//! [`blink_bench::figures`], the Section 5.2 class counts (`sec5_2`) and
//! the Section 3.2.1 tree-minimisation case study and the per-class sweep
//! of exact lane packings against MWU plus minimisation (`class_sweep`,
//! counted in `class_sweep_summary`), each printed as a table and recorded
//! in `BENCH_paper.json` under its figure id. Figures 19 and
//! 20 plot one sweep, recorded once as `fig19_20`; `dgx2_race_sweep`
//! records the strategy a switch lowering picks (by kind for the rootless
//! kinds, by the race for Broadcast), and its simulated time, on DGX-2
//! slices of every size for four kinds. Every row is simulated,
//! so it is the same on every runner; `EXPERIMENTS.md` reads each paper
//! claim off a field of the recording.
//!
//! Without arguments: writes `BENCH_paper.json` (run from the repo root).
//!
//! With `--check`: compares every figure, row and field with
//! `BENCH_paper.json` by exact equality, both sides parsed from JSON text
//! (serde_json prints every `f64` in its shortest round-tripping form, so a
//! one-ulp move fails). Each difference, and each figure, row or field one
//! side lacks, is named by figure id, row index and field. Exits non-zero
//! on any difference.

use blink_bench::figures::*;
use blink_bench::print_rows;
use serde::Serialize;
use serde_json::{Map, Value};
use std::collections::BTreeSet;

/// One figure's rows as JSON values.
fn rows<T: Serialize>(rows: Vec<T>) -> Vec<Value> {
    let json = |row| serde_json::to_value(row).expect("figure rows serialise");
    rows.iter().map(json).collect()
}

/// Every figure once, in paper order: (figure id, rows).
fn run_figures() -> [(&'static str, Vec<Value>); 22] {
    let (sweep, sweep_summary) = class_sweep();
    [
        ("fig02", rows(fig02_broadcast_motivation())),
        ("fig03", rows(fig03_scheduler_allocations(40_000))),
        ("fig05", rows(fig05_comm_overhead())),
        ("fig07", rows(fig07_chain_reduce_forward())),
        ("fig08", rows(fig08_mimo_mca())),
        ("fig12", rows(fig12_chunk_autotune(8))),
        ("fig14", rows(fig14_theoretical_speedup())),
        ("sec5_2", rows(sec5_2_allocation_classes())),
        ("fig15", rows(fig15_broadcast_dgx1v())),
        ("fig16", rows(fig16_broadcast_dgx1p())),
        ("fig17", rows(fig17_allreduce_dgx1v())),
        ("fig18", rows(fig18_end_to_end_dgx1v())),
        ("fig19_20", rows(fig19_20_dgx2_allreduce(1024))),
        ("dgx2_race_sweep", rows(dgx2_race_sweep())),
        ("fig21", rows(fig21_hybrid_transfers())),
        ("fig22a", rows(fig22a_multi_server_training())),
        ("fig22b", rows(fig22b_bandwidth_projection())),
        ("fig24", rows(fig24_depth_tests())),
        ("fig26", rows(fig26_breadth_tests())),
        ("tab_tree_minimization", rows(vec![tab_tree_minimization()])),
        ("class_sweep", rows(sweep)),
        ("class_sweep_summary", rows(vec![sweep_summary])),
    ]
}

/// Every difference between `recorded` and `now`: one message per figure,
/// row or field that one side lacks or whose values differ, naming the
/// figure id, row index and field.
fn differences(recorded: &Value, now: &Value) -> Vec<String> {
    let mut out = Vec::new();
    diff("", Some(recorded), Some(now), &mut out);
    out
}

fn diff(at: &str, recorded: Option<&Value>, now: Option<&Value>, out: &mut Vec<String>) {
    match (recorded, now) {
        (Some(Value::Object(r)), Some(Value::Object(n))) => {
            for key in r.keys().chain(n.keys()).collect::<BTreeSet<_>>() {
                let at = match at {
                    "" => key.clone(),
                    row => format!("{row} field {key}"),
                };
                diff(&at, r.get(key), n.get(key), out);
            }
        }
        (Some(Value::Array(r)), Some(Value::Array(n))) => {
            for i in 0..r.len().max(n.len()) {
                diff(&format!("{at} row {i}"), r.get(i), n.get(i), out);
            }
        }
        (Some(r), Some(n)) if r != n => out.push(format!("{at}: {n}, the recording has {r}")),
        (Some(_), None) => out.push(format!("{at}: recorded, but no longer produced")),
        (None, Some(_)) => out.push(format!("{at}: produced, but not recorded")),
        _ => {}
    }
}

fn main() {
    let started = std::time::Instant::now();
    let mut paper = Map::new();
    for (id, rows) in run_figures() {
        print_rows(id, &rows);
        paper.insert(id.to_string(), Value::Array(rows));
    }
    let json = serde_json::to_string_pretty(&paper).expect("figure rows serialise");
    eprintln!(
        "{} figures in {:.2} s (context only)",
        paper.len(),
        started.elapsed().as_secs_f64()
    );

    if !std::env::args().any(|a| a == "--check") {
        std::fs::write("BENCH_paper.json", &json).expect("write BENCH_paper.json");
        return;
    }
    let recorded = std::fs::read_to_string("BENCH_paper.json").expect("BENCH_paper.json exists");
    let recorded = serde_json::parse(&recorded).expect("BENCH_paper.json parses");
    let failures = differences(&recorded, &serde_json::parse(&json).expect("rows parse"));
    for f in &failures {
        eprintln!("REGRESSION: {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
    eprintln!("paper check passed: every row equals BENCH_paper.json bit for bit");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-figure recording shaped like `BENCH_paper.json`.
    fn recording() -> Value {
        serde_json::parse(
            r#"{
              "fig17": [
                {"allocation": "0,1,2", "blink_gbps": 41.1, "gpus": 3},
                {"allocation": "0,1,2,3", "blink_gbps": 55.3, "gpus": 4}
              ],
              "tab_tree_minimization": [{"minimized_trees": 6, "rate_lanes": 6}]
            }"#,
        )
        .unwrap()
    }

    fn rows_of<'a>(v: &'a mut Value, id: &str) -> &'a mut Vec<Value> {
        match v {
            Value::Object(m) => match m.get_mut(id) {
                Some(Value::Array(rows)) => rows,
                _ => panic!("{id} has no rows"),
            },
            _ => panic!("not an object"),
        }
    }

    #[test]
    fn an_identical_recording_passes() {
        assert_eq!(
            differences(&recording(), &recording()),
            Vec::<String>::new()
        );
    }

    #[test]
    fn a_value_one_ulp_away_fails_naming_figure_row_and_field() {
        let now = recording();
        let mut recorded = recording();
        let Value::Object(row) = &mut rows_of(&mut recorded, "fig17")[1] else {
            panic!("rows are objects");
        };
        let moved = f64::from_bits(55.3f64.to_bits() + 1);
        row.insert(
            "blink_gbps".into(),
            Value::Number(serde_json::Number::from_f64(moved)),
        );
        // through text, as the check reads the recording
        let recorded = serde_json::parse(&recorded.to_string()).unwrap();
        assert_eq!(
            differences(&recorded, &now),
            vec![format!(
                "fig17 row 1 field blink_gbps: 55.3, the recording has {moved}"
            )]
        );
    }

    #[test]
    fn a_missing_or_extra_figure_fails_naming_it() {
        let mut recorded = recording();
        let Value::Object(m) = &mut recorded else {
            panic!("not an object");
        };
        m.remove("tab_tree_minimization");
        assert_eq!(
            differences(&recorded, &recording()),
            vec!["tab_tree_minimization: produced, but not recorded"]
        );
        assert_eq!(
            differences(&recording(), &recorded),
            vec!["tab_tree_minimization: recorded, but no longer produced"]
        );
    }

    #[test]
    fn a_dropped_or_added_row_fails_naming_it() {
        let mut fewer = recording();
        rows_of(&mut fewer, "fig17").pop();
        assert_eq!(
            differences(&fewer, &recording()),
            vec!["fig17 row 1: produced, but not recorded"]
        );
        assert_eq!(
            differences(&recording(), &fewer),
            vec!["fig17 row 1: recorded, but no longer produced"]
        );
    }

    #[test]
    fn a_missing_field_fails_naming_it() {
        let mut recorded = recording();
        let Value::Object(row) = &mut rows_of(&mut recorded, "fig17")[0] else {
            panic!("rows are objects");
        };
        row.remove("gpus");
        assert_eq!(
            differences(&recorded, &recording()),
            vec!["fig17 row 0 field gpus: produced, but not recorded"]
        );
    }
}
