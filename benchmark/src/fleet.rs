//! `fleet`: `blink-sched`'s closed submit → place → plan → run loop over the
//! contended Figure 3 job stream on 8 DGX-1V servers.
//!
//! Every repetition starts a fresh [`FleetPipeline`], so its plan cache
//! starts empty and the run mixes cache hits with cold packs.

use crate::metrics::add;
use crate::speed::Probes;
use crate::trace::{SpanId, Tracer};
use crate::workload::{mix, Outcome, Problem, Round, Settings, Source};
use blink_sched::{
    Cluster, FleetConfig, FleetPipeline, FleetReport, Job, Stage, WorkloadConfig, WorkloadGenerator,
};
use blink_topology::presets::gpus_per_server;
use blink_topology::GpuId;
use std::collections::BTreeSet;
use std::time::Instant;

/// Jobs per repetition.
const JOBS: usize = 2_000;
/// Jobs per repetition in smoke mode.
const SMOKE_JOBS: usize = 600;
/// Every 50th placed job's first collective is replayed through the
/// value-level oracle.
const CHECK_EVERY: usize = 50;
/// Repetitions per 10 s requested.
const REPS_PER_10S: usize = 90;
/// The set-up warm-up stream: the same for every workload seed, so set-up
/// time does not depend on the seed.
const WARMUP_JOBS: usize = 200;
const WARMUP_SEED: u64 = 0x5EED;

const WORKLOAD_STREAM: u64 = 1;

/// The prepared job streams of one run.
#[derive(Debug)]
pub struct Fleet {
    reps: Vec<(FleetConfig, Vec<Job>)>,
}

fn config(seed: u64, index: u64, jobs: usize) -> FleetConfig {
    FleetConfig {
        workload: WorkloadConfig {
            seed: mix(seed, WORKLOAD_STREAM, index),
            mean_interarrival: 0.5,
            mean_duration: 50.0,
            ..Default::default()
        },
        jobs,
        check_every: CHECK_EVERY,
        ..Default::default()
    }
}

/// Generates every repetition's job stream and warms the pipeline up on a
/// short stream outside the measured set.
pub fn setup(settings: &Settings) -> Fleet {
    let jobs = if settings.smoke { SMOKE_JOBS } else { JOBS };
    let reps = (0..settings.repetitions(REPS_PER_10S) as u64)
        .map(|i| {
            let config = config(settings.seed, i, jobs);
            let stream = WorkloadGenerator::new(config.workload.clone()).take(jobs);
            (config, stream)
        })
        .collect();
    // a warm-up failure resurfaces in the measured repetitions
    let _ = FleetPipeline::new(config(WARMUP_SEED, 0, WARMUP_JOBS)).run();
    Fleet { reps }
}

/// The span and call-counter names of a timed pipeline stage. Other stages
/// (instants, and the fault, heal, retry and subgroup-lift stages this
/// stream never enters) stay in their repetition's `sched.pipeline` self
/// time.
fn stage_metrics(stage: Stage) -> Option<(&'static str, &'static str)> {
    Some(match stage {
        Stage::Place => ("sched.place", "sched.place.calls"),
        Stage::Plan => ("sched.plan", "sched.plan.calls"),
        Stage::FirstCollective => ("sched.first_collective", "sched.first_collective.calls"),
        Stage::Consolidate => ("sched.consolidate", "sched.consolidate.calls"),
        _ => return None,
    })
}

impl Fleet {
    /// Runs every repetition through a fresh pipeline, probing the host's
    /// speed between repetitions. With tracing on, the pipeline's own
    /// `EventMonitor` stage spans become children of one `sched.pipeline`
    /// span per repetition.
    pub fn measure(&self, tr: &mut Tracer, root: SpanId) -> Outcome {
        let mut out = Outcome::default();
        let (mut submitted, mut placed, mut consolidations) = (0, 0, 0);
        let mut probes = Probes::start(tr, root);
        for (config, jobs) in &self.reps {
            let mut pipeline = FleetPipeline::new(config.clone());
            let span = tr.open("sched.pipeline", Some(root));
            let offset_us = tr.now_us() - pipeline.monitor().now_us();
            let t0 = Instant::now();
            let result = pipeline.run_jobs(jobs);
            let seconds = t0.elapsed().as_secs_f64();
            tr.close(span);
            for r in pipeline.monitor().records() {
                if let Some((name, calls)) = stage_metrics(r.stage) {
                    if r.duration_us() > 0.0 {
                        let (start, end) = (r.begin_us + offset_us, r.end_us + offset_us);
                        tr.record(name, start, end, span);
                        add(&mut out.counters, calls, 1.0);
                    }
                }
            }
            let slowdown = probes.close_round(tr, root);
            match result {
                Ok(report) => {
                    submitted += report.submitted;
                    placed += report.placed;
                    consolidations += report.consolidations;
                    let latency_us = account(&pipeline, &report, &mut out);
                    out.rounds.push(Round {
                        ops: report.submitted as u64,
                        seconds,
                        latency_us,
                        slowdown,
                    });
                }
                Err(e) => {
                    out.attempted += jobs.len() as u64;
                    out.failed += jobs.len() as u64;
                    out.errors.push(format!("fleet pipeline failed: {e}"));
                }
            }
        }
        out.slowdowns = probes.slowdowns;
        out.notes.push(format!(
            "{placed} of {submitted} jobs placed, {consolidations} consolidations"
        ));
        out
    }

    /// The planning problems of the measured streams: every distinct
    /// per-server slice a placement or consolidation handed a job, each with
    /// the job's first AllReduce. Placements are replayed on a bare
    /// [`Cluster`] with the pipeline's policy (best-fit arrival, consolidation
    /// after departures).
    pub fn problems(&self) -> Vec<Problem> {
        let mut slices: BTreeSet<(usize, Vec<GpuId>)> = BTreeSet::new();
        for (config, jobs) in &self.reps {
            let mut cluster = Cluster::new(config.servers, gpus_per_server(config.server_kind));
            let mut fragmented: BTreeSet<u64> = BTreeSet::new();
            for job in jobs {
                let departed = cluster.release_until(job.arrival);
                for id in &departed {
                    fragmented.remove(id);
                }
                if !departed.is_empty() && config.consolidate {
                    for id in fragmented.clone() {
                        if let Some(p) = cluster.try_consolidate(id) {
                            fragmented.remove(&id);
                            slices.extend(p.slices);
                        }
                    }
                }
                if let Some(p) = cluster.submit(job) {
                    if p.is_fragmented() {
                        fragmented.insert(job.id);
                    }
                    slices.extend(p.slices);
                }
            }
        }
        let (config, _) = &self.reps[0];
        slices
            .into_iter()
            .map(|slice| Problem {
                source: Source::Slice {
                    kind: config.server_kind,
                    nic_gbps: config.nic_gbps,
                    slice,
                },
                requests: vec![(config.collective_bytes, 0.0)],
            })
            .collect()
    }
}

/// Adds one repetition's simulated rates, failures and plan-cache counters
/// to `out` and returns its time-to-first-collective samples.
fn account(pipeline: &FleetPipeline, r: &FleetReport, out: &mut Outcome) -> Vec<f64> {
    let multi = r.outcomes.iter().filter(|o| o.gpus >= 2);
    let latency_us = multi.clone().map(|o| o.ttfc_us).collect();
    out.attempted += r.placed as u64;
    out.failed += r.checks_failed as u64;
    for o in multi {
        if o.rate_gbps > 0.0 {
            out.sim_gbps.push(o.rate_gbps);
        } else {
            out.failed += 1;
            out.errors
                .push(format!("job {} reported a zero rate", o.job_id));
        }
    }
    if r.checks_failed > 0 {
        out.errors.push(format!(
            "{} of {} sampled first collectives failed the value-level oracle",
            r.checks_failed, r.checks_run
        ));
    }
    let rejected = (r.rejected_capacity + r.rejected_contention) as usize;
    if r.placed + rejected != r.submitted {
        out.errors.push(format!(
            "fleet accounting broken: {} placed + {rejected} rejected of {} submitted",
            r.placed, r.submitted
        ));
    }
    let cache = pipeline.shared_cache();
    let (hits, misses) = cache.stats();
    let c = &mut out.counters;
    add(c, "core.plan_cache.hits", hits as f64);
    add(c, "core.plan_cache.lookups", (hits + misses) as f64);
    add(c, "core.plan_cache.evictions", cache.evictions() as f64);
    latency_us
}
