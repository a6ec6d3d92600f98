//! # blink-bench
//!
//! The experiment harness: one function per figure of the Blink paper's
//! evaluation, each regenerating the corresponding data series over the
//! simulated substrate. The `bench_paper` binary in `src/bin/` runs every
//! figure, prints its rows and records them in `BENCH_paper.json`; the other
//! `bench_*` binaries there gate the hot paths' deterministic work against
//! their recorded `BENCH_*.json` trajectories. Run from the repository root:
//!
//! ```text
//! cargo run -p blink-bench --release --bin bench_paper
//! ```
//!
//! `EXPERIMENTS.md` at the repository root sets the paper's claims beside
//! the values `BENCH_paper.json` records for every figure.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alloc;
pub mod figures;
pub mod measure;

pub use measure::{blink_collective, nccl_collective, CollectiveMeasurement};

/// Wall-clock latency of one sample set, as the `bench_*` binaries record
/// it (context only, never gated): the median, the highest whole percentile
/// with at least ten samples beyond it, and the sample count.
#[derive(Debug, serde::Serialize)]
pub struct Percentiles {
    /// Median (nearest-rank) in µs; 0 for an empty set.
    pub p50_us: f64,
    /// The highest whole percentile with at least ten samples beyond it;
    /// `None` when that is not above the median (fewer than 21 samples).
    pub tail_pct: Option<usize>,
    /// The nearest-rank value at `tail_pct` in µs.
    pub tail_us: Option<f64>,
    /// Number of samples.
    pub samples: usize,
}

/// Nearest-rank median and tail of `xs` (µs).
pub fn percentiles(mut xs: Vec<f64>) -> Percentiles {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    // the ceil(n·p/100)-th smallest sample
    let at = |p: usize| xs[(n * p).div_ceil(100).max(1) - 1];
    // ceil(n·p/100) <= n - 10 holds exactly up to p = floor(100·(n-10)/n)
    let tail_pct = (n > 10).then(|| 100 * (n - 10) / n).filter(|&p| p > 50);
    Percentiles {
        p50_us: if n == 0 { 0.0 } else { at(50) },
        tail_pct,
        tail_us: tail_pct.map(at),
        samples: n,
    }
}

impl std::fmt::Display for Percentiles {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p50 {:.0} us", self.p50_us)?;
        if let (Some(pct), Some(us)) = (self.tail_pct, self.tail_us) {
            write!(f, ", p{pct} {us:.0} us")?;
        }
        write!(f, " over {} samples", self.samples)
    }
}

/// `--check`'s work gate: one failure per counter that `recorded` lacks or
/// that exceeds its recording. Counters are deterministic counts (MWU
/// iterations, trees, ops, packs, allocations), the same on every runner.
pub fn over_recording(
    label: &str,
    recorded: Option<&serde_json::Value>,
    counters: &[(&str, f64)],
) -> Vec<String> {
    counters
        .iter()
        .filter_map(|&(key, now)| {
            match recorded.and_then(|r| r.get(key)).and_then(|v| v.as_f64()) {
                Some(rec) if now > rec => {
                    Some(format!("{label} {key} is {now}, above the recorded {rec}"))
                }
                Some(_) => None,
                None => Some(format!("{label} {key} is not recorded")),
            }
        })
        .collect()
}

/// Prints a slice of serialisable rows as an aligned text table.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        let ms = |n: usize| (1..=n).map(|x| x as f64).collect::<Vec<_>>();
        // 16 spans: no percentile above the median has ten beyond it
        let p = percentiles(ms(16));
        assert_eq!(
            (p.p50_us, p.tail_pct, p.tail_us, p.samples),
            (8.0, None, None, 16)
        );
        // 321 samples: p96 is the 309th, with 12 beyond; p97 would leave 9
        let p = percentiles(ms(321));
        assert_eq!(
            (p.p50_us, p.tail_pct, p.tail_us),
            (161.0, Some(96), Some(309.0))
        );
        // 1,000 samples: p99 leaves exactly ten
        assert_eq!(percentiles(ms(1000)).tail_us, Some(990.0));
        assert_eq!(percentiles(Vec::new()).p50_us, 0.0);
    }
}
