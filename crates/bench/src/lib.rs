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

/// The CPUs this runner exposes (`std::thread::available_parallelism`, 1
/// when unknown) — what the `bench_*` binaries record as `workers` and arm
/// their wall-clock gates on.
pub fn runner_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Wall-clock latency percentiles of one sample set, as the `bench_*`
/// binaries record them.
#[derive(Debug, serde::Serialize)]
pub struct Percentiles {
    /// Median (nearest-rank) in µs.
    pub p50_us: f64,
    /// 99th percentile (nearest-rank) in µs.
    pub p99_us: f64,
    /// Arithmetic mean in µs.
    pub mean_us: f64,
    /// Number of samples.
    pub samples: usize,
}

/// Nearest-rank percentiles of `xs` (µs); all zero for an empty set.
pub fn percentiles(mut xs: Vec<f64>) -> Percentiles {
    let samples = xs.len();
    if samples == 0 {
        return Percentiles {
            p50_us: 0.0,
            p99_us: 0.0,
            mean_us: 0.0,
            samples,
        };
    }
    xs.sort_by(f64::total_cmp);
    let pct = |p: f64| {
        let idx = ((samples as f64 * p).ceil() as usize).max(1).min(samples) - 1;
        xs[idx]
    };
    Percentiles {
        p50_us: pct(0.50),
        p99_us: pct(0.99),
        mean_us: xs.iter().sum::<f64>() / samples as f64,
        samples,
    }
}

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
