//! Order statistics for latency samples.
//!
//! Percentiles use the nearest-rank definition: the `p`-th percentile of `n`
//! sorted samples is the sample of rank `ceil(n·p/100)`. A tail percentile
//! is only trusted when at least [`MIN_BEYOND`] samples lie beyond it;
//! [`tail`] otherwise falls back to the highest percentile that still has
//! that many, and says which percentile it reports.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile as reported: which one, its value, and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile actually reported, in `(0, 100]`.
    pub pct: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Number of samples it was taken from.
    pub samples: usize,
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of already sorted samples (`sorted` non-empty).
fn rank_value(sorted: &[f64], pct: f64) -> f64 {
    let n = sorted.len();
    let rank = ((n as f64 * pct / 100.0).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// The median (nearest rank), or `None` for no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| rank_value(&sorted(xs), 50.0))
}

/// The `want`-th percentile when at least [`MIN_BEYOND`] samples lie beyond
/// it; otherwise the highest percentile that has that many beyond it, never
/// below the median. `None` for no samples.
pub fn tail(xs: &[f64], want: f64) -> Option<Percentile> {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let wanted_rank = ((n as f64 * want / 100.0).ceil() as usize).clamp(1, n);
    let rank = wanted_rank
        .min(n.saturating_sub(MIN_BEYOND))
        .max(n.div_ceil(2));
    let pct = if rank == wanted_rank && n - rank >= MIN_BEYOND {
        want
    } else {
        100.0 * rank as f64 / n as f64
    };
    Some(Percentile {
        pct,
        value: v[rank - 1],
        samples: n,
    })
}

/// Geometric mean of strictly positive values, or `None` if there are none
/// or any is not positive and finite.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| !(x.is_finite() && x > 0.0)) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // shuffled order: the functions must sort
        (0..n).rev().map(|i| (i + 1) as f64).collect()
    }

    #[test]
    fn p99_of_1000_samples_has_exactly_ten_beyond() {
        let p = tail(&ramp(1000), 99.0).unwrap();
        assert_eq!(p.pct, 99.0);
        assert_eq!(p.value, 990.0);
        assert_eq!(p.samples, 1000);
    }

    #[test]
    fn p99_of_321_samples_falls_back_to_the_rank_with_ten_beyond() {
        let p = tail(&ramp(321), 99.0).unwrap();
        assert_eq!(p.value, 311.0, "rank 311 leaves samples 312..=321 beyond");
        assert!((p.pct - 100.0 * 311.0 / 321.0).abs() < 1e-12);
        assert!(p.pct < 99.0);
    }

    #[test]
    fn p99_of_99_samples_falls_back_to_the_rank_with_ten_beyond() {
        let p = tail(&ramp(99), 99.0).unwrap();
        assert_eq!(p.value, 89.0);
        assert!((p.pct - 100.0 * 89.0 / 99.0).abs() < 1e-12);
        assert_eq!(p.samples, 99);
    }

    #[test]
    fn tiny_samples_report_the_median_not_an_empty_tail() {
        let p = tail(&ramp(5), 99.0).unwrap();
        assert_eq!(p.value, 3.0);
        assert!(tail(&[], 99.0).is_none());
        assert_eq!(median(&ramp(5)), Some(3.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn geomean_rejects_non_positive_values() {
        assert!((geomean(&[1.0, 4.0]).unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[f64::INFINITY]), None);
        assert_eq!(geomean(&[]), None);
    }
}
