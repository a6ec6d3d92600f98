//! What every workload shares: run settings, seeded input generation, and
//! the outcome of one timed loop.

use crate::metrics::Values;
use blink_topology::presets::{placement_topology, ServerKind};
use blink_topology::{GpuId, Topology};

/// How much work a run does and which inputs it draws.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// Workload seed; every input is a function of it.
    pub seed: u64,
    /// Requested measuring time. The work is fixed per second requested, so
    /// two commits measured with the same settings do the same work. It is
    /// calibrated so the timed loop takes 50–70% of the request on the
    /// reference host (see `speed`), leaving room for the set-ups and for a
    /// slower host.
    pub seconds: u64,
    /// About 1% of the work, for tests.
    pub smoke: bool,
}

impl Settings {
    /// Repetitions of a unit of work: `per_10s` for every 10 s requested,
    /// at least one; one in smoke mode.
    pub fn repetitions(&self, per_10s: usize) -> usize {
        if self.smoke {
            1
        } else {
            ((per_10s as f64 * self.seconds as f64 / 10.0).round() as usize).max(1)
        }
    }
}

/// A seed for input stream `stream`, item `index`, derived from the
/// workload seed (SplitMix64 finaliser; distinct seeds give unrelated
/// streams).
pub fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small seeded generator for input choices.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one input stream of the workload seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(mix(seed, stream, 0))
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(1);
        (mix(self.0, 0, 0) % n as u64) as usize
    }
}

/// One planning problem for the traced replay: an allocation's induced
/// topology and the AllReduces issued over it as `(bytes, ready µs)`.
#[derive(Debug, Clone)]
pub struct Problem {
    /// Where the induced topology comes from.
    pub source: Source,
    /// AllReduce requests, in ready order.
    pub requests: Vec<(u64, f64)>,
}

/// How a [`Problem`]'s topology is induced.
#[derive(Debug, Clone)]
pub enum Source {
    /// One per-server slice of a scheduler placement.
    Slice {
        /// Server hardware.
        kind: ServerKind,
        /// NIC bandwidth of the fleet.
        nic_gbps: f64,
        /// `(server, global GPU ids)`.
        slice: (usize, Vec<GpuId>),
    },
    /// An allocation on an explicit machine.
    Allocation {
        /// The whole machine.
        machine: Topology,
        /// The allocated GPUs.
        allocation: Vec<GpuId>,
    },
}

impl Source {
    /// The induced topology.
    pub fn induce(&self) -> Result<Topology, String> {
        match self {
            Source::Slice {
                kind,
                nic_gbps,
                slice,
            } => placement_topology(*kind, *nic_gbps, std::slice::from_ref(slice)),
            Source::Allocation {
                machine,
                allocation,
            } => machine.induced(allocation),
        }
        .map_err(|e| e.to_string())
    }
}

/// One round of a timed loop.
#[derive(Debug, Default)]
pub struct Round {
    /// Operations completed.
    pub ops: u64,
    /// Wall time (s) of the timed regions they ran in.
    pub seconds: f64,
    /// Per-operation wall-clock latency samples (µs).
    pub latency_us: Vec<f64>,
    /// The host's slowdown while the round ran (see `speed`).
    pub slowdown: f64,
}

/// What one timed loop measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every round of the loop. Throughput is the median round's.
    pub rounds: Vec<Round>,
    /// Every host slowdown the loop's probes measured, in order.
    pub slowdowns: Vec<f64>,
    /// Simulated bandwidths (GB/s) whose geometric mean is `sim_gbps`.
    pub sim_gbps: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Wrong outputs and broken invariants found while measuring.
    pub errors: Vec<String>,
    /// Deterministic per-layer counters gathered by the loop.
    pub counters: Values,
    /// Context for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Wall time of every timed region (s).
    pub fn busy_s(&self) -> f64 {
        self.rounds.iter().map(|r| r.seconds).sum()
    }

    /// [`Outcome::busy_s`] in reference-host time: each round's wall time
    /// divided by its slowdown.
    pub fn reference_s(&self) -> f64 {
        self.rounds.iter().map(|r| r.seconds / r.slowdown).sum()
    }
}
