//! `train`: steady-state data-parallel training iterations
//! (`TrainingSimulator::iteration` over the Blink backend), where gradient
//! buckets stream through `Communicator::run_streamed` as backward produces
//! them.
//!
//! Eleven cases: the four paper CNNs on a full DGX-1V and a full DGX-2 with
//! 25 MB buckets, ResNet18 with 2 MiB buckets on both, where buckets fall
//! under the fusion threshold, and VGG16 on a fragmented DGX-1V
//! allocation. Plans are cached after the warm-up iteration, so the timed
//! loop lowers and simulates programs and packs nothing. The seed shuffles
//! the order of cases within each round. The host's speed is probed after
//! every iteration, which also keeps one case's leftovers in the caches
//! from timing into the next.

use crate::metrics::add;
use crate::speed::Probes;
use crate::stats;
use crate::trace::{SpanId, Tracer};
use crate::workload::{Outcome, Problem, Rng, Round, Settings, Source};
use blink_core::{global_plan_cache, CollectiveKind, Communicator};
use blink_topology::presets::{dgx1v, dgx2};
use blink_topology::{GpuId, Topology};
use blink_train::{BlinkBackend, DnnModel, TrainerConfig, TrainingSimulator};
use std::time::Instant;

/// Rounds over every case per 10 s requested.
const ROUNDS_PER_10S: usize = 19;
/// Bucket size of the fusion cases.
const SMALL_BUCKET_BYTES: u64 = 2 << 20;
const ORDER_STREAM: u64 = 20;
/// The fragmented DGX-1V allocation of the paper's Figure 18 comparison.
const FRAGMENTED: [usize; 4] = [1, 4, 5, 6];

struct Case {
    machine: Topology,
    allocation: Vec<GpuId>,
    model: DnnModel,
    config: TrainerConfig,
    backend: BlinkBackend,
    /// Simulated iteration time of the warm-up iteration (µs).
    iteration_us: f64,
}

impl Case {
    fn iteration(&mut self) -> blink_train::IterationBreakdown {
        let (model, gpus) = (self.model.clone(), self.allocation.len());
        TrainingSimulator::new(model, gpus, self.config, &mut self.backend).iteration()
    }

    fn buckets(&mut self) -> Vec<(u64, f64)> {
        let (model, gpus) = (self.model.clone(), self.allocation.len());
        TrainingSimulator::new(model, gpus, self.config, &mut self.backend)
            .bucket_issue()
            .iter()
            .map(|b| (b.bytes, b.ready_us))
            .collect()
    }
}

/// The prepared backends of one run.
pub struct Train {
    cases: Vec<Case>,
    /// Case order of every round.
    order: Vec<Vec<usize>>,
}

/// Builds one backend per case and runs its warm-up iteration, which packs
/// and caches the plans.
pub fn setup(settings: &Settings) -> Result<Train, String> {
    let mut cases = Vec::new();
    for machine in [dgx1v(), dgx2()] {
        let small = TrainerConfig {
            bucket_bytes: SMALL_BUCKET_BYTES,
            ..Default::default()
        };
        let models = DnnModel::paper_models()
            .into_iter()
            .map(|m| (m, TrainerConfig::default()))
            .chain([(DnnModel::resnet18(), small)]);
        for (model, config) in models {
            let allocation = machine.gpu_ids();
            let backend =
                BlinkBackend::new(machine.clone(), &allocation).map_err(|e| e.to_string())?;
            let mut case = Case {
                machine: machine.clone(),
                allocation,
                model,
                config,
                backend,
                iteration_us: 0.0,
            };
            case.iteration_us = case.iteration().iteration_us;
            cases.push(case);
        }
    }
    let machine = dgx1v();
    let allocation = FRAGMENTED.map(GpuId).to_vec();
    let backend = BlinkBackend::new(machine.clone(), &allocation).map_err(|e| e.to_string())?;
    let mut case = Case {
        machine,
        allocation,
        model: DnnModel::vgg16(),
        config: TrainerConfig::default(),
        backend,
        iteration_us: 0.0,
    };
    case.iteration_us = case.iteration().iteration_us;
    cases.push(case);
    let mut rng = Rng::new(settings.seed, ORDER_STREAM);
    let order = (0..settings.repetitions(ROUNDS_PER_10S))
        .map(|_| {
            let mut left: Vec<usize> = (0..cases.len()).collect();
            (0..cases.len())
                .map(|_| left.remove(rng.below(left.len())))
                .collect()
        })
        .collect();
    Ok(Train { cases, order })
}

impl Train {
    /// Runs every case once per round, in the round's order.
    pub fn measure(&mut self, tr: &mut Tracer, root: SpanId) -> Outcome {
        let mut out = Outcome::default();
        let (hits0, misses0) = global_plan_cache().stats();
        let mut probes = Probes::start(tr, root);
        for round in &self.order {
            let mut timed = Round::default();
            for (k, &i) in round.iter().enumerate() {
                let case = &mut self.cases[i];
                out.attempted += 1;
                let t0 = Instant::now();
                let it = tr.time("train.step", root, || case.iteration());
                let elapsed = t0.elapsed().as_secs_f64();
                add(&mut out.counters, "train.step.calls", 1.0);
                if !it.iteration_us.is_finite() {
                    // the backend maps collective errors to an infinite time
                    out.failed += 1;
                    continue;
                }
                if it.iteration_us.to_bits() != case.iteration_us.to_bits() {
                    out.errors.push(format!(
                        "{} on {}: iteration {} us differs from the warm-up's {} us",
                        case.model.name,
                        case.machine.name(),
                        it.iteration_us,
                        case.iteration_us
                    ));
                }
                timed.ops += 1;
                timed.seconds += elapsed;
                timed.latency_us.push(elapsed * 1e6);
                if k + 1 < round.len() {
                    probes.probe(tr, root);
                }
            }
            timed.slowdown = probes.close_round(tr, root);
            out.rounds.push(timed);
        }
        out.slowdowns = probes.slowdowns;
        let (hits, misses) = global_plan_cache().stats();
        add(
            &mut out.counters,
            "core.plan_cache.hits",
            (hits - hits0) as f64,
        );
        add(
            &mut out.counters,
            "core.plan_cache.lookups",
            (hits + misses - hits0 - misses0) as f64,
        );
        let buckets_per_round: usize = self.cases.iter_mut().map(|c| c.buckets().len()).sum();
        add(
            &mut out.counters,
            "train.step.buckets",
            (buckets_per_round * self.order.len()) as f64,
        );
        // gradient bytes synchronised per simulated second of training
        out.sim_gbps = self
            .cases
            .iter()
            .filter(|c| c.iteration_us.is_finite() && c.iteration_us > 0.0)
            .map(|c| c.model.gradient_bytes() as f64 / (c.iteration_us * 1e3))
            .collect();
        let simulated: Vec<f64> = self.cases.iter().map(|c| c.iteration_us).collect();
        if let Some(us) = stats::geomean(&simulated) {
            out.notes.push(format!(
                "simulated iteration time: geomean {us:.1} us over {} cases",
                simulated.len()
            ));
        }
        out
    }

    /// Replays each case's overlapped bucket schedule through the
    /// value-level oracle, fused constituents included.
    pub fn verify(&mut self) -> Vec<String> {
        let mut errors = Vec::new();
        for case in &mut self.cases {
            let requests = case.buckets();
            let checked = Communicator::builder(case.machine.clone())
                .allocation(&case.allocation)
                .build()
                .and_then(|mut comm| {
                    comm.run_streamed_checked(CollectiveKind::AllReduce, &requests)
                });
            let label = format!("{} on {}", case.model.name, case.machine.name());
            match checked {
                Ok((_, checks)) => {
                    let bad = checks.iter().filter(|c| !c.is_correct()).count();
                    if bad > 0 {
                        errors.push(format!("{label}: {bad} oracle violations"));
                    }
                }
                Err(e) => errors.push(format!("{label}: {e}")),
            }
        }
        errors
    }

    /// One planning problem per case: the whole machine and the case's
    /// bucket schedule.
    pub fn problems(&mut self) -> Vec<Problem> {
        self.cases
            .iter_mut()
            .map(|c| Problem {
                source: Source::Allocation {
                    machine: c.machine.clone(),
                    allocation: c.allocation.clone(),
                },
                requests: c.buckets(),
            })
            .collect()
    }
}
