//! `comm_init`: what a job waits for before its first collective on a fresh
//! allocation — `CommunicatorBuilder::build` plus one 64 MiB AllReduce,
//! with plan sharing off so every communicator packs, minimises and
//! certifies its own trees.
//!
//! The shapes are every isomorphism class of 3–8 GPU allocations on a
//! DGX-1V and a DGX-1P (the paper's Section 5.2 binning) plus DGX-2
//! allocations of 4, 8, 12 and 16 GPUs. The seed picks which member of each
//! class, and which DGX-2 GPUs, a round allocates.

use crate::metrics::add;
use crate::speed::Probes;
use crate::trace::{SpanId, Tracer};
use crate::workload::{Outcome, Problem, Rng, Round, Settings, Source};
use blink_core::{CollectiveKind, Communicator};
use blink_sim::check_collective;
use blink_topology::enumerate::unique_allocations;
use blink_topology::presets::{dgx1p, dgx1v, dgx2};
use blink_topology::{GpuId, Topology};
use std::collections::BTreeMap;
use std::time::Instant;

/// The first collective and its size.
const ALLREDUCE: CollectiveKind = CollectiveKind::AllReduce;
const BYTES: u64 = 64 << 20;
/// Rounds over every shape per 10 s requested.
const ROUNDS_PER_10S: usize = 90;
const SHAPE_STREAM: u64 = 10;

/// One allocation to initialise a communicator on.
#[derive(Debug)]
struct Shape {
    machine: Topology,
    allocation: Vec<GpuId>,
}

/// The prepared shapes of one run.
#[derive(Debug)]
pub struct CommInit {
    shapes: Vec<Shape>,
    rounds: usize,
}

/// Enumerates the shapes (picking class members by seed) and warms up on
/// one communicator per machine.
pub fn setup(settings: &Settings) -> Result<CommInit, String> {
    let mut rng = Rng::new(settings.seed, SHAPE_STREAM);
    let mut shapes = Vec::new();
    for machine in [dgx1v(), dgx1p()] {
        let classes = unique_allocations(&machine, 3..=8).map_err(|e| e.to_string())?;
        for class in classes {
            let allocation = class.members[rng.below(class.members.len())].clone();
            shapes.push(Shape {
                machine: machine.clone(),
                allocation,
            });
        }
    }
    let machine = dgx2();
    for size in [4, 8, 12, 16] {
        let mut pool = machine.gpu_ids();
        let mut allocation: Vec<GpuId> = (0..size)
            .map(|_| pool.remove(rng.below(pool.len())))
            .collect();
        allocation.sort();
        shapes.push(Shape {
            machine: machine.clone(),
            allocation,
        });
    }
    for machine in [dgx1v(), dgx1p(), dgx2()] {
        let allocation = machine.gpu_ids();
        // a failing warm-up resurfaces in the measured loop
        let _ = isolated(machine, &allocation).and_then(|mut c| c.run(ALLREDUCE, BYTES));
    }
    Ok(CommInit {
        shapes,
        rounds: settings.repetitions(ROUNDS_PER_10S),
    })
}

/// A communicator over `allocation` with plan sharing off.
fn isolated(machine: Topology, allocation: &[GpuId]) -> blink_core::Result<Communicator> {
    Communicator::builder(machine)
        .allocation(allocation)
        .isolated_plans()
        .build()
}

impl CommInit {
    /// Initialises a communicator on every shape, round after round. The
    /// latency sample of one shape is build plus first AllReduce.
    pub fn measure(&self, tr: &mut Tracer, root: SpanId) -> Outcome {
        let mut out = Outcome::default();
        let mut first_round: Vec<Option<f64>> = vec![None; self.shapes.len()];
        let mut probes = Probes::start(tr, root);
        for round in 0..self.rounds {
            let mut timed = Round::default();
            for (i, shape) in self.shapes.iter().enumerate() {
                out.attempted += 1;
                let machine = shape.machine.clone();
                let t0 = Instant::now();
                let built = tr.time("core.build", root, || isolated(machine, &shape.allocation));
                let run = built.and_then(|mut comm| {
                    tr.time("core.first_allreduce", root, || comm.run(ALLREDUCE, BYTES))
                });
                let elapsed = t0.elapsed().as_secs_f64();
                add(&mut out.counters, "core.build.calls", 1.0);
                add(&mut out.counters, "core.first_allreduce.calls", 1.0);
                let report = match run {
                    Ok(report) => report,
                    Err(e) => {
                        out.failed += 1;
                        out.errors.push(format!("{:?}: {e}", shape.allocation));
                        continue;
                    }
                };
                timed.ops += 1;
                timed.seconds += elapsed;
                timed.latency_us.push(elapsed * 1e6);
                let gbps = report.algorithmic_bandwidth_gbps;
                if round == 0 {
                    first_round[i] = Some(gbps);
                } else if first_round[i].map(f64::to_bits) != Some(gbps.to_bits()) {
                    out.errors.push(format!(
                        "{:?}: rate {gbps} GB/s differs from the first round's",
                        shape.allocation
                    ));
                }
            }
            timed.slowdown = probes.close_round(tr, root);
            out.rounds.push(timed);
        }
        out.slowdowns = probes.slowdowns;
        out.sim_gbps = first_round.into_iter().flatten().collect();
        let mut per_machine: BTreeMap<&str, usize> = BTreeMap::new();
        for shape in &self.shapes {
            *per_machine.entry(shape.machine.name()).or_default() += 1;
        }
        out.notes
            .push(format!("shapes per machine: {per_machine:?}"));
        out
    }

    /// Replays one communicator per shape through the value-level oracle.
    pub fn verify(&self) -> Vec<String> {
        let mut errors = Vec::new();
        for shape in &self.shapes {
            let checked =
                isolated(shape.machine.clone(), &shape.allocation).and_then(|mut comm| {
                    let (_, program, spans) = comm.run_traced(ALLREDUCE, BYTES)?;
                    let spec = ALLREDUCE.spec();
                    Ok(check_collective(
                        spec,
                        &program,
                        &spans,
                        comm.allocation(),
                        BYTES,
                    ))
                });
            match checked {
                Ok(check) if check.is_correct() => {}
                Ok(check) => errors.push(format!("{:?}: {check}", shape.allocation)),
                Err(e) => errors.push(format!("{:?}: {e}", shape.allocation)),
            }
        }
        errors
    }

    /// One planning problem per shape.
    pub fn problems(&self) -> Vec<Problem> {
        self.shapes
            .iter()
            .map(|s| Problem {
                source: Source::Allocation {
                    machine: s.machine.clone(),
                    allocation: s.allocation.clone(),
                },
                requests: vec![(BYTES, 0.0)],
            })
            .collect()
    }
}
