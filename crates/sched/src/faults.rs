//! Deterministic fault injection for the fleet pipeline.
//!
//! A [`FaultInjector`] turns a seed into a reproducible schedule of
//! [`FaultRecord`]s on the simulation clock: link flaps, GPU drops, NIC
//! degradations and whole-server losses, each paired with a heal event at
//! onset + outage. The schedule is a pure function of its
//! [`FaultConfig`] (and the server kind), exactly like the workload stream
//! is a pure function of its [`crate::WorkloadConfig`] — two pipelines over
//! the same `(workload seed, fault seed)` pair replay the identical chaos
//! experiment, which is what lets `bench_fleet`'s chaos replay gate on
//! bit-identical recovery outcomes.
//!
//! The injector does not know about jobs: [`crate::FleetPipeline`] pulls due
//! records at each arrival ([`FaultInjector::pull_until`]), translates them
//! into [`blink_topology::TopologyDelta`]s for every affected running job,
//! and walks each one through `Communicator::replan`'s graceful-degradation
//! ladder. Jobs whose every GPU is lost are evicted and requeued, at most
//! [`MAX_RETRY_ATTEMPTS`] times, after [`retry_delay`].

use blink_topology::presets::{dgx1p, dgx1v, dgx2, gpus_per_server, ServerKind};
use blink_topology::LinkKind;
use rand::distr::weighted::WeightedIndex;
use rand::prelude::*;
use rand::rngs::StdRng;
use serde::Serialize;
use std::collections::{BTreeSet, BinaryHeap};

/// One injected fault (or, with [`FaultRecord::heal`], its recovery).
///
/// Servers and GPUs are identified by the cluster convention: GPU `gpu` of
/// server `server` carries the global id
/// `gpus_per_server(kind) * server + gpu`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum FaultEvent {
    /// Every non-PCIe lane between local GPUs `a` and `b` of one server goes
    /// down (the PCIe mesh rides a different physical medium and survives).
    LinkFlap {
        /// Server index.
        server: usize,
        /// First local GPU index (always `< b`).
        a: usize,
        /// Second local GPU index.
        b: usize,
    },
    /// One GPU vanishes: every incident link dies and the device is
    /// quarantined in the cluster until the heal.
    GpuDrop {
        /// Server index.
        server: usize,
        /// Local GPU index.
        gpu: usize,
    },
    /// One server's NIC degrades to `factor` of its configured bandwidth
    /// (cross-server phases only; induced link graphs are untouched).
    NicDegrade {
        /// Server index.
        server: usize,
        /// Surviving fraction of the configured NIC bandwidth, in `(0, 1)`.
        factor: f64,
    },
    /// A whole server is lost: all of its GPUs vanish and are quarantined.
    ServerLoss {
        /// Server index.
        server: usize,
    },
}

impl FaultEvent {
    /// Short lower-case tag (`"link_flap"`, ...), for JSON reports.
    pub fn tag(&self) -> &'static str {
        match self {
            FaultEvent::LinkFlap { .. } => "link_flap",
            FaultEvent::GpuDrop { .. } => "gpu_drop",
            FaultEvent::NicDegrade { .. } => "nic_degrade",
            FaultEvent::ServerLoss { .. } => "server_loss",
        }
    }
}

/// One entry of the fault schedule: an onset (`heal == false`) or the
/// matching recovery (`heal == true`, same `fault_id`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FaultRecord {
    /// Links the onset to its heal; assigned in onset order starting at 0.
    pub fault_id: u64,
    /// Simulation time of the event.
    pub at: f64,
    /// What failed (or healed).
    pub event: FaultEvent,
    /// `false` for the onset, `true` for the recovery.
    pub heal: bool,
}

/// Relative frequency of each fault kind, in [`FaultEvent`] order: link
/// flap, GPU drop, NIC degradation, server loss.
const FAULT_WEIGHTS: [f64; 4] = [0.5, 0.2, 0.2, 0.1];

/// Seeded configuration of a [`FaultInjector`].
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// RNG seed; the whole schedule is a pure function of this (plus the
    /// cluster shape).
    pub seed: u64,
    /// Mean simulation-time gap between fault onsets (exponential).
    pub mean_interval: f64,
    /// Mean outage duration before the matching heal (exponential).
    pub mean_outage: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 1337,
            mean_interval: 25.0,
            mean_outage: 15.0,
        }
    }
}

/// Placement attempts an evicted job gets: a job whose replan or collective
/// failed, or whose every GPU was lost, is evicted, requeued and offered
/// again after [`retry_delay`], and counted lost once every attempt failed.
/// Requeue order is deterministic: ascending `(retry time, job id)`.
pub const MAX_RETRY_ATTEMPTS: u32 = 4;

/// Simulation-time delay before retry attempt `attempt` (0-based):
/// `2 · 2^attempt`.
pub fn retry_delay(attempt: u32) -> f64 {
    2.0 * 2.0f64.powi(attempt as i32)
}

/// A pending heal, min-ordered by `(time, fault id)`.
#[derive(Debug, PartialEq)]
struct PendingHeal(FaultRecord);

impl Eq for PendingHeal {}
impl Ord for PendingHeal {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .0
            .at
            .total_cmp(&self.0.at)
            .then(other.0.fault_id.cmp(&self.0.fault_id))
    }
}
impl PartialOrd for PendingHeal {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Generates the deterministic fault schedule for one cluster shape.
///
/// Mirrors [`crate::WorkloadGenerator`]: one seeded [`StdRng`], exponential
/// gaps, and a weighted choice of fault kind. Link-flap targets are drawn
/// from the server kind's *physical* non-PCIe connection list, so every flap
/// names a real duplex.
#[derive(Debug)]
pub struct FaultInjector {
    rng: StdRng,
    config: FaultConfig,
    servers: usize,
    gpus_per_server: usize,
    /// Unordered local non-PCIe pairs of one server, sorted.
    pairs: Vec<(usize, usize)>,
    kinds: WeightedIndex<f64>,
    clock: f64,
    next_id: u64,
    lookahead: Option<FaultRecord>,
    heals: BinaryHeap<PendingHeal>,
    /// `Some` for a [`FaultInjector::scripted`] injector: the remaining
    /// onsets, ascending by `(time, fault id)`; the RNG is never consulted.
    script: Option<std::collections::VecDeque<FaultRecord>>,
}

impl FaultInjector {
    /// Creates an injector for a cluster of `servers` machines of `kind`.
    pub fn new(config: FaultConfig, servers: usize, kind: ServerKind) -> Self {
        let machine = match kind {
            ServerKind::Dgx1P => dgx1p(),
            ServerKind::Dgx1V => dgx1v(),
            ServerKind::Dgx2 => dgx2(),
        };
        let pairs: Vec<(usize, usize)> = machine
            .links()
            .iter()
            .filter(|l| l.kind != LinkKind::Pcie)
            .map(|l| {
                let (a, b) = (l.src.index(), l.dst.index());
                (a.min(b), a.max(b))
            })
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let kinds =
            WeightedIndex::new(FAULT_WEIGHTS).expect("the fault weights form a distribution");
        let rng = StdRng::seed_from_u64(config.seed);
        FaultInjector {
            rng,
            config,
            servers,
            gpus_per_server: gpus_per_server(kind),
            pairs,
            kinds,
            clock: 0.0,
            next_id: 0,
            lookahead: None,
            heals: BinaryHeap::new(),
            script: None,
        }
    }

    fn exp(&mut self, mean: f64) -> f64 {
        let u = self.rng.random::<f64>().max(1e-12);
        -mean * u.ln()
    }

    /// Draws the next onset (advancing the clock) and queues its heal.
    fn gen_onset(&mut self) -> FaultRecord {
        let gap = self.exp(self.config.mean_interval);
        self.clock += gap;
        let server = self.rng.random_below(self.servers as u64) as usize;
        let event = match self.kinds.sample(&mut self.rng) {
            0 => {
                let pick = self.rng.random_below(self.pairs.len() as u64) as usize;
                let (a, b) = self.pairs[pick];
                FaultEvent::LinkFlap { server, a, b }
            }
            1 => FaultEvent::GpuDrop {
                server,
                gpu: self.rng.random_below(self.gpus_per_server as u64) as usize,
            },
            2 => FaultEvent::NicDegrade {
                server,
                factor: 0.25 + 0.5 * self.rng.random::<f64>(),
            },
            _ => FaultEvent::ServerLoss { server },
        };
        let outage = self.exp(self.config.mean_outage);
        let record = FaultRecord {
            fault_id: self.next_id,
            at: self.clock,
            event,
            heal: false,
        };
        self.next_id += 1;
        self.heals.push(PendingHeal(FaultRecord {
            at: record.at + outage,
            heal: true,
            ..record
        }));
        record
    }

    /// Every onset and heal due at or before `time`, in ascending
    /// `(time, fault id, heal)` order. Subsequent calls continue where the
    /// previous one stopped; `time` must not decrease between calls.
    pub fn pull_until(&mut self, time: f64) -> Vec<FaultRecord> {
        let mut due: Vec<FaultRecord> = Vec::new();
        if let Some(script) = self.script.as_mut() {
            while script.front().is_some_and(|r| r.at <= time) {
                due.push(script.pop_front().expect("peeked"));
            }
        } else {
            loop {
                let onset = match self.lookahead.take() {
                    Some(r) => r,
                    None => self.gen_onset(),
                };
                if onset.at > time {
                    self.lookahead = Some(onset);
                    break;
                }
                due.push(onset);
            }
        }
        while let Some(h) = self.heals.peek() {
            if h.0.at > time {
                break;
            }
            due.push(self.heals.pop().expect("peeked").0);
        }
        due.sort_by(|x, y| {
            x.at.total_cmp(&y.at)
                .then(x.fault_id.cmp(&y.fault_id))
                .then(x.heal.cmp(&y.heal))
        });
        due
    }

    /// Every *heal* due at or before `time`, without generating new onsets.
    /// Used after the job stream ends: the tail drain still recovers from
    /// outages already in flight but injects no fresh chaos.
    pub fn pull_heals_until(&mut self, time: f64) -> Vec<FaultRecord> {
        let mut due = Vec::new();
        while let Some(h) = self.heals.peek() {
            if h.0.at > time {
                break;
            }
            due.push(self.heals.pop().expect("peeked").0);
        }
        due
    }

    /// An injector that replays exactly `records` (already carrying their
    /// `heal` flags and times) instead of a seeded random schedule. For
    /// targeted tests: script a server loss at a chosen instant and assert
    /// the pipeline's eviction/retry behaviour.
    pub fn scripted(records: Vec<FaultRecord>, servers: usize, kind: ServerKind) -> Self {
        let mut inj = FaultInjector::new(FaultConfig::default(), servers, kind);
        let mut onsets: Vec<FaultRecord> = Vec::new();
        for rec in records {
            if rec.heal {
                inj.heals.push(PendingHeal(rec));
            } else {
                onsets.push(rec);
            }
        }
        onsets.sort_by(|x, y| x.at.total_cmp(&y.at).then(x.fault_id.cmp(&y.fault_id)));
        inj.script = Some(onsets.into());
        inj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> FaultConfig {
        FaultConfig {
            mean_interval: 5.0,
            mean_outage: 8.0,
            ..Default::default()
        }
    }

    #[test]
    fn schedules_are_a_pure_function_of_the_seed() {
        let pull = |seed: u64| {
            let mut inj =
                FaultInjector::new(FaultConfig { seed, ..config() }, 4, ServerKind::Dgx1V);
            inj.pull_until(500.0)
        };
        let a = pull(config().seed);
        let b = pull(config().seed);
        assert!(!a.is_empty());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.fault_id, y.fault_id);
            assert_eq!(x.at.to_bits(), y.at.to_bits());
            assert_eq!(x.event, y.event);
            assert_eq!(x.heal, y.heal);
        }
        let c = pull(7);
        assert!(a
            .iter()
            .zip(&c)
            .any(|(x, y)| x.event != y.event || x.at.to_bits() != y.at.to_bits()));
    }

    #[test]
    fn every_onset_has_a_later_heal_and_targets_are_valid() {
        let mut inj = FaultInjector::new(config(), 4, ServerKind::Dgx1V);
        let records = inj.pull_until(1_000.0);
        let onsets: Vec<&FaultRecord> = records.iter().filter(|r| !r.heal).collect();
        assert!(onsets.len() > 50, "only {} onsets", onsets.len());
        for onset in &onsets {
            let heal = records
                .iter()
                .find(|r| r.heal && r.fault_id == onset.fault_id);
            if let Some(heal) = heal {
                assert!(heal.at >= onset.at, "heal precedes onset");
                assert_eq!(heal.event, onset.event);
            }
            match onset.event {
                FaultEvent::LinkFlap { server, a, b } => {
                    assert!(server < 4 && a < b && b < 8);
                }
                FaultEvent::GpuDrop { server, gpu } => {
                    assert!(server < 4 && gpu < 8);
                }
                FaultEvent::NicDegrade { server, factor } => {
                    assert!(server < 4 && (0.25..0.75).contains(&factor));
                }
                FaultEvent::ServerLoss { server } => assert!(server < 4),
            }
        }
        // all four fault classes appear in a long enough schedule
        for tag in ["link_flap", "gpu_drop", "nic_degrade", "server_loss"] {
            assert!(
                onsets.iter().any(|r| r.event.tag() == tag),
                "no {tag} in {} onsets",
                onsets.len()
            );
        }
    }

    #[test]
    fn incremental_pulls_match_one_big_pull() {
        let mut whole = FaultInjector::new(config(), 2, ServerKind::Dgx2);
        let all = whole.pull_until(300.0);
        let mut step = FaultInjector::new(config(), 2, ServerKind::Dgx2);
        let mut merged = Vec::new();
        for t in 1..=300 {
            merged.extend(step.pull_until(t as f64));
        }
        assert_eq!(all.len(), merged.len());
        for (x, y) in all.iter().zip(&merged) {
            assert_eq!((x.fault_id, x.heal), (y.fault_id, y.heal));
            assert_eq!(x.at.to_bits(), y.at.to_bits());
        }
        // records are time-ordered
        assert!(all.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn link_flap_targets_are_physical_nvlink_pairs() {
        let inj = FaultInjector::new(config(), 1, ServerKind::Dgx1V);
        // the DGX-1 has exactly 16 physical NVLink neighbour pairs
        assert_eq!(inj.pairs.len(), 16);
        assert!(inj.pairs.contains(&(0, 4)));
        assert!(!inj.pairs.contains(&(1, 4)), "1-4 has no NVLink");
    }

    #[test]
    fn retry_policy_backs_off_exponentially() {
        assert_eq!(retry_delay(0), 2.0);
        assert_eq!(retry_delay(1), 4.0);
        assert_eq!(retry_delay(2), 8.0);
        assert!(retry_delay(1) > retry_delay(0));
    }
}
