//! Job workload generation and allocation statistics.

use rand::distr::weighted::WeightedIndex;
use rand::prelude::*;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// A multi-GPU training job request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Job {
    /// Unique job id.
    pub id: u64,
    /// Number of GPUs requested.
    pub gpus: u32,
    /// Arrival time (abstract ticks).
    pub arrival: f64,
    /// Duration (abstract ticks).
    pub duration: f64,
}

/// Candidate job sizes. Multi-GPU requests are overwhelmingly powers of two
/// (the paper's observation), but clusters also run a large population of
/// single-GPU jobs; it is exactly those that punch odd-sized holes into
/// servers and force multi-GPU jobs into 3/5/6/7-GPU per-server fragments.
const JOB_SIZES: [u32; 5] = [1, 2, 4, 8, 16];
/// Relative weight of each of [`JOB_SIZES`].
const JOB_SIZE_WEIGHTS: [f64; 5] = [0.30, 0.25, 0.20, 0.17, 0.08];

/// Configuration of the synthetic workload.
///
/// Job sizes follow the shape reported for the Cloud-X trace: 1, 2, 4, 8 or
/// 16 GPUs with a strong preference for powers of two, and a heavy tail of
/// long-running jobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Mean inter-arrival time.
    pub mean_interarrival: f64,
    /// Mean job duration.
    pub mean_duration: f64,
    /// RNG seed (experiments are deterministic given the seed).
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            mean_interarrival: 1.0,
            mean_duration: 60.0,
            seed: 42,
        }
    }
}

/// Generates a deterministic stream of [`Job`]s.
#[derive(Debug)]
pub struct WorkloadGenerator {
    config: WorkloadConfig,
    rng: StdRng,
    next_id: u64,
    clock: f64,
    size_dist: WeightedIndex<f64>,
}

impl WorkloadGenerator {
    /// Creates a generator from a configuration.
    pub fn new(config: WorkloadConfig) -> Self {
        let size_dist =
            WeightedIndex::new(JOB_SIZE_WEIGHTS).expect("the size weights form a distribution");
        let rng = StdRng::seed_from_u64(config.seed);
        WorkloadGenerator {
            config,
            rng,
            next_id: 0,
            clock: 0.0,
            size_dist,
        }
    }

    /// Draws the next job.
    pub fn next_job(&mut self) -> Job {
        // exponential inter-arrival and duration via inverse CDF
        let u: f64 = self.rng.random::<f64>().max(1e-12);
        self.clock += -self.config.mean_interarrival * u.ln();
        let u: f64 = self.rng.random::<f64>().max(1e-12);
        let duration = -self.config.mean_duration * u.ln();
        let gpus = JOB_SIZES[self.size_dist.sample(&mut self.rng)];
        let job = Job {
            id: self.next_id,
            gpus,
            arrival: self.clock,
            duration,
        };
        self.next_id += 1;
        job
    }

    /// Draws `n` jobs.
    pub fn take(&mut self, n: usize) -> Vec<Job> {
        (0..n).map(|_| self.next_job()).collect()
    }
}

/// Histogram of per-server allocation sizes — the quantity plotted in
/// Figure 3.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AllocationHistogram {
    /// `counts[k]` = number of (job, server) pairs where the job holds `k`
    /// GPUs on that server (index 0 unused).
    pub counts: Vec<u64>,
}

impl AllocationHistogram {
    /// Creates an empty histogram for servers with `gpus_per_server` GPUs.
    pub fn new(gpus_per_server: usize) -> Self {
        AllocationHistogram {
            counts: vec![0; gpus_per_server + 1],
        }
    }

    /// Records one per-server allocation of `k` GPUs.
    pub fn record(&mut self, k: usize) {
        if k < self.counts.len() {
            self.counts[k] += 1;
        }
    }

    /// Total number of recorded per-server allocations of at least 2 GPUs.
    pub fn total_multi_gpu(&self) -> u64 {
        self.counts.iter().skip(2).sum()
    }

    /// Fraction of multi-GPU per-server allocations with exactly `k` GPUs
    /// (the y-axis of Figure 3).
    pub fn fraction(&self, k: usize) -> f64 {
        let total = self.total_multi_gpu();
        if total == 0 || k >= self.counts.len() {
            return 0.0;
        }
        self.counts[k] as f64 / total as f64
    }

    /// Fraction of multi-GPU per-server allocations that are *not* a power of
    /// two (3, 5, 6, 7 on an 8-GPU server) — the fragmentation the paper
    /// highlights.
    pub fn fragmented_fraction(&self) -> f64 {
        (2..self.counts.len())
            .filter(|k| !k.is_power_of_two())
            .map(|k| self.fraction(k))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_given_seed() {
        let a = WorkloadGenerator::new(WorkloadConfig::default()).take(50);
        let b = WorkloadGenerator::new(WorkloadConfig::default()).take(50);
        assert_eq!(a, b);
        let c = WorkloadGenerator::new(WorkloadConfig {
            seed: 7,
            ..Default::default()
        })
        .take(50);
        assert_ne!(a, c);
    }

    #[test]
    fn jobs_have_power_of_two_sizes_and_increasing_arrivals() {
        let jobs = WorkloadGenerator::new(WorkloadConfig::default()).take(200);
        assert!(jobs.iter().all(|j| j.gpus.is_power_of_two()));
        assert!(jobs.iter().any(|j| j.gpus >= 2));
        assert!(jobs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert!(jobs.iter().all(|j| j.duration > 0.0));
    }

    #[test]
    fn histogram_fractions_sum_to_one() {
        let mut h = AllocationHistogram::new(8);
        for k in [2usize, 3, 3, 4, 5, 8, 8, 8] {
            h.record(k);
        }
        let total: f64 = (2..=8).map(|k| h.fraction(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(h.fragmented_fraction() > 0.0);
        assert_eq!(h.total_multi_gpu(), 8);
        // out-of-range records are ignored
        h.record(99);
        assert_eq!(h.total_multi_gpu(), 8);
    }
}
