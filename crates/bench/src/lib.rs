//! # blink-bench
//!
//! The experiment harness: one function per figure of the Blink paper's
//! evaluation, each regenerating the corresponding data series over the
//! simulated substrate. The `fig*`/`tab*` binaries in `src/bin/` are thin
//! wrappers that run one figure each and print the rows (and a JSON dump) to
//! stdout; the `bench_*` binaries there gate the hot paths against the
//! recorded `BENCH_*.json` trajectories.
//!
//! Run an individual figure with, e.g.
//!
//! ```text
//! cargo run -p blink-bench --release --bin fig15_broadcast_dgx1v
//! ```
//!
//! `EXPERIMENTS.md` at the repository root records paper-reported versus
//! measured values for every figure.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod figures;
pub mod measure;

pub use measure::{blink_collective, nccl_collective, CollectiveMeasurement};

/// Prints a slice of serialisable rows as an aligned text table followed by a
/// JSON dump (so results can be archived / plotted).
pub fn print_rows<T: serde::Serialize>(title: &str, rows: &[T]) {
    println!("== {title} ==");
    for row in rows {
        match serde_json::to_value(row) {
            Ok(serde_json::Value::Object(map)) => {
                let cells: Vec<String> = map
                    .iter()
                    .map(|(k, v)| format!("{k}={}", compact(v)))
                    .collect();
                println!("  {}", cells.join("  "));
            }
            Ok(v) => println!("  {v}"),
            Err(e) => println!("  <serialization error: {e}>"),
        }
    }
    match serde_json::to_string_pretty(rows) {
        Ok(json) => println!("--- json ---\n{json}"),
        Err(e) => println!("--- json unavailable: {e} ---"),
    }
}

fn compact(v: &serde_json::Value) -> String {
    match v {
        serde_json::Value::Number(n) => {
            if let Some(f) = n.as_f64() {
                if f.fract().abs() > 1e-9 {
                    return format!("{f:.2}");
                }
            }
            n.to_string()
        }
        other => other.to_string(),
    }
}
