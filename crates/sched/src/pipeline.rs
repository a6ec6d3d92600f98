//! The fleet-service planning loop: submit → place → plan → run.
//!
//! [`FleetPipeline`] connects the cluster simulator to the planner. Each
//! arriving [`Job`] is placed by the [`Cluster`] (best-fit, possibly
//! fragmenting across servers), the placement is converted into its induced
//! slice topology
//! ([`blink_topology::presets::placement_topology`]), a
//! [`Communicator`] is spun up for the slice with a fleet-wide
//! [`SharedPlanCache`], and the job's first AllReduce runs on the simulator.
//! Departures are drained before every arrival; each one releases GPUs,
//! and — when [`FleetConfig::consolidate`] is on — fragmented survivors are
//! opportunistically re-packed onto a single server.
//!
//! A job starts on a placement one way, whether it is newly placed,
//! re-placed by a retry or moved by a consolidation: a
//! [`CommunicatorBuilder`] over the placement's topology, degraded by the
//! faults in force, and a first AllReduce on that communicator. A moved job
//! is a new communicator, as Blink builds one per allocation; only faults
//! and heals reach a live communicator, through [`Communicator::replan`].
//!
//! Every stage is instrumented with begin/end events on an
//! [`EventMonitor`]; see the crate docs for the exact event-ordering and
//! determinism contract.

use crate::cluster::{Cluster, Placement};
use crate::events::{EventMonitor, Stage};
use crate::faults::{
    retry_delay, FaultConfig, FaultEvent, FaultInjector, FaultRecord, MAX_RETRY_ATTEMPTS,
};
use crate::workload::{Job, WorkloadConfig, WorkloadGenerator};
use blink_core::communicator::TracedRun;
use blink_core::{
    BlinkError, CollectiveKind, CollectiveReport, Communicator, CommunicatorBuilder,
    DegradationLevel, RepairPath, SharedPlanCache,
};
use blink_topology::presets::{gpus_per_server, placement_topology, ServerKind};
use blink_topology::{GpuId, Link, LinkKind, ServerId, Topology, TopologyDelta};
use serde::Serialize;
use std::collections::BTreeMap;

/// Configuration of a [`FleetPipeline`].
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of servers in the cluster.
    pub servers: usize,
    /// Hardware model of every server.
    pub server_kind: ServerKind,
    /// Per-server NIC bandwidth (GB/s) for cross-server phases.
    pub nic_gbps: f64,
    /// The synthetic job stream (deterministic given its seed).
    pub workload: WorkloadConfig,
    /// How many jobs [`FleetPipeline::run`] draws from the workload.
    pub jobs: usize,
    /// Bytes of each job's first AllReduce.
    pub collective_bytes: u64,
    /// Replay every `check_every`-th placed job's first collective through
    /// the value-level oracle (`Communicator::run_checked`); 0 disables
    /// sampling.
    pub check_every: usize,
    /// Re-pack fragmented jobs onto a single server when departures free
    /// room. A moved job gets a new communicator over its new placement,
    /// which runs its first AllReduce before it replaces the old one.
    pub consolidate: bool,
    /// Seeded fault injection: `Some` weaves the deterministic fault
    /// schedule into the loop (see the crate-level "failure model" docs);
    /// `None` (the default) runs the pipeline fault-free.
    pub faults: Option<FaultConfig>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            servers: 8,
            server_kind: ServerKind::Dgx1V,
            nic_gbps: 5.0,
            workload: WorkloadConfig {
                mean_interarrival: 0.5,
                mean_duration: 50.0,
                ..Default::default()
            },
            jobs: 2_000,
            collective_bytes: 16 << 20,
            check_every: 0,
            consolidate: true,
            faults: None,
        }
    }
}

/// What happened to one *placed* job: its placement shape, per-stage wall
/// time, and its first collective's simulated outcome.
#[derive(Debug, Clone, Serialize)]
pub struct JobOutcome {
    /// The job's id.
    pub job_id: u64,
    /// GPUs the job received.
    pub gpus: usize,
    /// Whether the placement spans more than one server.
    pub fragmented: bool,
    /// Number of servers in the placement.
    pub servers: usize,
    /// Wall-clock time-to-first-collective: from the start of placement to
    /// the end of the first simulated collective (µs).
    pub ttfc_us: f64,
    /// Wall-clock placement time (µs).
    pub place_us: f64,
    /// Wall-clock communicator-construction time (µs). Tree packing is
    /// lazy, so planning cost lands in `first_collective_us`.
    pub plan_us: f64,
    /// Wall-clock time of the first collective, planning included (µs).
    pub first_collective_us: f64,
    /// The first collective's simulated algorithmic bandwidth (GB/s);
    /// deterministic given the workload seed.
    pub rate_gbps: f64,
    /// The lowering strategy the communicator chose.
    pub strategy: String,
    /// Whether this job's first collective was replayed through the
    /// value-level oracle.
    pub checked: bool,
}

/// Lifetime totals of a [`FleetPipeline`] plus the per-job outcomes of the
/// jobs placed so far. Returned by [`FleetPipeline::run_jobs`]; counters
/// accumulate across calls on the same pipeline.
#[derive(Debug, Clone, Default, Serialize)]
pub struct FleetReport {
    /// Jobs offered to the cluster.
    pub submitted: usize,
    /// Jobs that received a placement (and ran a first collective).
    pub placed: usize,
    /// Jobs larger than the whole cluster.
    pub rejected_capacity: u64,
    /// Jobs that fit the cluster but found too few free GPUs.
    pub rejected_contention: u64,
    /// Departures drained so far.
    pub departures: usize,
    /// Fragmented jobs re-packed onto a single server.
    pub consolidations: usize,
    /// Consolidations whose post-move collective beat the job's previous
    /// rate.
    pub consolidations_improved: usize,
    /// Shared-plan-cache hits across every communicator in the fleet.
    pub shared_hits: u64,
    /// Shared-plan-cache misses (fresh MWU packings).
    pub shared_misses: u64,
    /// First collectives replayed through the value-level oracle.
    pub checks_run: usize,
    /// Oracle replays that found a conformance violation (must stay 0).
    pub checks_failed: usize,
    /// Fault onsets injected so far.
    pub faults_injected: usize,
    /// Heal events applied so far.
    pub heals_applied: usize,
    /// Affected-job recoveries driven through `Communicator::replan` (one
    /// per running job touched by a fault or heal).
    pub fault_recoveries: usize,
    /// How many recoveries landed on each rung of the graceful-degradation
    /// ladder, keyed by [`DegradationLevel`]'s display tag
    /// (`"full-warm-repair"`, `"packed-replan"`, ...).
    pub recovery_rungs: BTreeMap<String, usize>,
    /// Recoveries that reported [`DegradationLevel::FullWarmRepair`].
    pub recoveries_full_warm: usize,
    /// Of those, recoveries that also ran **zero** MWU iterations — the
    /// min-cost-reroute guarantee `bench_fleet`'s chaos replay gates on (the
    /// two counters must be equal).
    pub recoveries_full_warm_zero_iter: usize,
    /// Recoveries that repacked a lane graph exactly
    /// ([`RepairPath::Exact`]), setting its warm seeds aside.
    pub recoveries_exact: usize,
    /// GPUs recoveries took from their jobs across all jobs: dead GPUs, and
    /// the live ones a shrink-rung recovery shed.
    pub gpus_shed: usize,
    /// Jobs evicted because a fault left them with no usable GPU (or their
    /// recovery failed); each eviction enters the retry queue.
    pub evictions: usize,
    /// Retry attempts scheduled (first tries and backoff re-tries).
    pub retries_scheduled: usize,
    /// Evicted jobs that were successfully re-placed and re-ran a collective.
    pub retries_succeeded: usize,
    /// Retry attempts still waiting for their backoff deadline when the
    /// report was taken (the post-stream drain empties this).
    pub retries_pending: usize,
    /// Jobs that exhausted every retry attempt — the chaos gate requires
    /// this to stay 0.
    pub jobs_lost: usize,
    /// One entry per placed job, in placement order.
    pub outcomes: Vec<JobOutcome>,
}

impl FleetReport {
    /// Shared-cache hit rate in `[0, 1]` (0 when nothing was planned).
    pub fn hit_rate(&self) -> f64 {
        let total = self.shared_hits + self.shared_misses;
        if total == 0 {
            0.0
        } else {
            self.shared_hits as f64 / total as f64
        }
    }
}

/// One running job's live state: its communicator (kept so topology deltas
/// can replan it in place), its current placement (shrunk in place when a
/// recovery sheds GPUs), its last measured collective rate, and the original
/// job spec (kept so an eviction can requeue it).
#[derive(Debug)]
struct RunningJob {
    comm: Communicator,
    placement: Placement,
    rate_gbps: f64,
    job: Job,
}

/// An evicted job waiting for its backoff deadline.
#[derive(Debug, Clone, Copy)]
struct PendingRetry {
    retry_at: f64,
    job: Job,
    attempts_left: u32,
}

/// The submit→place→plan→run loop over a whole job stream. See the module
/// docs for the stage-by-stage contract.
#[derive(Debug)]
pub struct FleetPipeline {
    config: FleetConfig,
    cluster: Cluster,
    shared: SharedPlanCache,
    monitor: EventMonitor,
    running: BTreeMap<u64, RunningJob>,
    injector: Option<FaultInjector>,
    /// Faults currently in force, keyed by fault id (removed on heal).
    active: BTreeMap<u64, FaultEvent>,
    /// Evicted jobs awaiting retry, sorted by ascending `(retry_at, job id)`.
    retries: Vec<PendingRetry>,
    /// The pipeline's own counters and outcomes. The fields read from
    /// elsewhere — `placed`, the rejections, the shared-cache stats and
    /// `retries_pending` — stay at their defaults; [`FleetPipeline::report`]
    /// fills them in.
    counts: FleetReport,
    /// Unsampled first collectives' placements and traced runs, once
    /// [`FleetPipeline::keep_first_runs`] asked for them.
    first_runs: Option<Vec<(Placement, TracedRun)>>,
}

impl FleetPipeline {
    /// Creates a pipeline with its own fleet-local [`SharedPlanCache`], so
    /// hit-rate accounting is clean even when other communicators exist in
    /// the process.
    pub fn new(config: FleetConfig) -> Self {
        let cluster = Cluster::new(config.servers, gpus_per_server(config.server_kind));
        let injector = config
            .faults
            .clone()
            .map(|f| FaultInjector::new(f, config.servers, config.server_kind));
        FleetPipeline {
            config,
            cluster,
            shared: SharedPlanCache::new(),
            monitor: EventMonitor::new(),
            running: BTreeMap::new(),
            injector,
            active: BTreeMap::new(),
            retries: Vec::new(),
            counts: FleetReport::default(),
            first_runs: None,
        }
    }

    /// Keeps the placement and traced run — report, lowered program and op
    /// spans — of every later first collective the oracle does not sample
    /// (all of them when [`FleetConfig::check_every`] is 0): a placed job's,
    /// a retried job's and a moved job's on its new placement. A test can
    /// then hold what the fleet served against what a private communicator
    /// lowers ([`FleetPipeline::first_runs`]).
    pub fn keep_first_runs(&mut self) {
        self.first_runs.get_or_insert_with(Vec::new);
    }

    /// The first collectives kept since [`FleetPipeline::keep_first_runs`],
    /// in run order.
    pub fn first_runs(&self) -> &[(Placement, TracedRun)] {
        self.first_runs.as_deref().unwrap_or_default()
    }

    /// Replaces the fault injector — used by tests and benches that script an
    /// exact fault schedule instead of sampling one from a seed.
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.injector = Some(injector);
    }

    /// The event stream recorded so far.
    pub fn monitor(&self) -> &EventMonitor {
        &self.monitor
    }

    /// The fleet's shared plan cache.
    pub fn shared_cache(&self) -> &SharedPlanCache {
        &self.shared
    }

    /// The underlying cluster simulator.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Draws [`FleetConfig::jobs`] jobs from the configured workload and runs
    /// them through [`FleetPipeline::run_jobs`].
    ///
    /// # Errors
    /// Same as [`FleetPipeline::run_jobs`].
    pub fn run(&mut self) -> blink_core::Result<FleetReport> {
        let jobs = WorkloadGenerator::new(self.config.workload.clone()).take(self.config.jobs);
        self.run_jobs(&jobs)
    }

    /// Runs a job stream through the full loop: drain departures (and
    /// consolidate), place, build the communicator, run the first
    /// collective. Jobs still running when the stream ends stay resident —
    /// a later call continues from the same cluster state.
    ///
    /// # Errors
    /// Propagates planning or simulation failures from any job's
    /// communicator; the scheduler itself cannot fail (unplaceable jobs are
    /// counted as rejections, not errors).
    pub fn run_jobs(&mut self, jobs: &[Job]) -> blink_core::Result<FleetReport> {
        for job in jobs {
            self.counts.submitted += 1;
            self.absorb_departures(job.arrival)?;
            self.apply_faults(job.arrival)?;
            self.drain_retries(job.arrival)?;
            let place = self.monitor.begin(job.id, Stage::Place);
            let Some(placement) = self.cluster.submit(job) else {
                let _ = place; // span abandoned: the job never entered the fleet
                self.monitor.instant(job.id, Stage::Reject);
                continue;
            };
            let place = self.monitor.commit(place);

            let plan = self.monitor.begin(job.id, Stage::Plan);
            let mut comm = self.communicator(&placement)?;
            let plan = self.monitor.commit(plan);

            let checked = self.config.check_every > 0
                && self
                    .counts
                    .outcomes
                    .len()
                    .is_multiple_of(self.config.check_every);
            let first = self.monitor.begin(job.id, Stage::FirstCollective);
            let report = match self.first_collective(&mut comm, &placement, checked) {
                Ok(report) => report,
                // Under fault injection a failed first collective evicts the
                // job into the bounded retry queue instead of killing the
                // whole fleet run.
                Err(_) if self.injector.is_some() => {
                    self.monitor.commit(first);
                    self.cluster.evict(job.id);
                    self.counts.evictions += 1;
                    self.queue_retry(*job, job.arrival);
                    continue;
                }
                Err(err) => return Err(err),
            };
            let first = self.monitor.commit(first);

            self.counts.outcomes.push(JobOutcome {
                job_id: job.id,
                gpus: placement.total_gpus(),
                fragmented: placement.is_fragmented(),
                servers: placement.slices.len(),
                ttfc_us: first.end_us - place.begin_us,
                place_us: place.duration_us(),
                plan_us: plan.duration_us(),
                first_collective_us: first.duration_us(),
                rate_gbps: report.algorithmic_bandwidth_gbps,
                strategy: report.strategy.clone(),
                checked,
            });
            self.running.insert(
                job.id,
                RunningJob {
                    comm,
                    placement,
                    rate_gbps: report.algorithmic_bandwidth_gbps,
                    job: *job,
                },
            );
        }
        self.drain_tail()?;
        Ok(self.report())
    }

    /// The lifetime report as of now (the same value [`FleetPipeline::run_jobs`]
    /// returns).
    pub fn report(&self) -> FleetReport {
        let (shared_hits, shared_misses) = self.shared.stats();
        FleetReport {
            placed: self.counts.outcomes.len(),
            rejected_capacity: self.cluster.rejected_capacity(),
            rejected_contention: self.cluster.rejected_contention(),
            shared_hits,
            shared_misses,
            retries_pending: self.retries.len(),
            ..self.counts.clone()
        }
    }

    /// Builds a job's communicator over its placement, planning through the
    /// fleet's plan store: the one way a job starts, whether newly placed,
    /// retried or moved. With faults in force it is built over the
    /// placement's topology as they leave it (flapped links down, degraded
    /// NICs), so it never plans over a link that is down.
    fn communicator(&self, placement: &Placement) -> blink_core::Result<Communicator> {
        let builder = if self.active.is_empty() {
            CommunicatorBuilder::from_placement(
                self.config.server_kind,
                self.config.nic_gbps,
                &placement.slices,
            )
        } else {
            Communicator::builder(self.degraded_target(placement)?)
        };
        builder.shared_plans(self.shared.clone()).build()
    }

    /// Runs a started job's first AllReduce on `comm`: through the
    /// value-level oracle when `checked`, traced and kept beside `placement`
    /// once [`FleetPipeline::keep_first_runs`] asked, plainly otherwise.
    fn first_collective(
        &mut self,
        comm: &mut Communicator,
        placement: &Placement,
        checked: bool,
    ) -> blink_core::Result<CollectiveReport> {
        let (kind, bytes) = (CollectiveKind::AllReduce, self.config.collective_bytes);
        if checked {
            let (report, check) = comm.run_checked(kind, bytes)?;
            self.counts.checks_run += 1;
            if !check.is_correct() {
                self.counts.checks_failed += 1;
            }
            Ok(report)
        } else if let Some(kept) = &mut self.first_runs {
            let run = comm.run_traced(kind, bytes)?;
            let report = run.0.clone();
            kept.push((placement.clone(), run));
            Ok(report)
        } else {
            comm.run(kind, bytes)
        }
    }

    /// Releases every job completed by `time`, records the departures, and —
    /// when enabled — re-packs fragmented survivors into the freed room. A
    /// moved job runs its first AllReduce on a new communicator over the
    /// new placement, which then replaces the old one.
    fn absorb_departures(&mut self, time: f64) -> blink_core::Result<()> {
        let departed = self.cluster.release_until(time);
        if departed.is_empty() {
            return Ok(());
        }
        for id in departed {
            self.monitor.instant(id, Stage::Depart);
            self.running.remove(&id);
            self.counts.departures += 1;
        }
        if !self.config.consolidate {
            return Ok(());
        }
        let candidates: Vec<u64> = self
            .running
            .iter()
            .filter(|(_, j)| j.placement.is_fragmented())
            .map(|(&id, _)| id)
            .collect();
        for id in candidates {
            let Some(placement) = self.cluster.try_consolidate(id) else {
                continue;
            };
            let span = self.monitor.begin(id, Stage::Consolidate);
            let mut comm = self.communicator(&placement)?;
            let report = self.first_collective(&mut comm, &placement, false)?;
            self.counts.consolidations += 1;
            let job = self.running.get_mut(&id).expect("candidate is running");
            if report.algorithmic_bandwidth_gbps > job.rate_gbps + 1e-9 {
                self.counts.consolidations_improved += 1;
            }
            *job = RunningJob {
                comm,
                placement,
                rate_gbps: report.algorithmic_bandwidth_gbps,
                job: job.job,
            };
            self.monitor.commit(span);
        }
        Ok(())
    }

    // ---- fault injection ------------------------------------------------

    /// Applies every fault and heal due at or before `time`, walking each
    /// affected running job through its recovery.
    fn apply_faults(&mut self, time: f64) -> blink_core::Result<()> {
        let records = match self.injector.as_mut() {
            Some(injector) => injector.pull_until(time),
            None => return Ok(()),
        };
        self.apply_records(records)
    }

    fn apply_records(&mut self, records: Vec<FaultRecord>) -> blink_core::Result<()> {
        for rec in records {
            self.monitor.instant(
                rec.fault_id,
                if rec.heal { Stage::Heal } else { Stage::Fault },
            );
            if rec.heal {
                self.apply_heal(&rec)?;
            } else {
                self.apply_onset(&rec)?;
            }
        }
        Ok(())
    }

    fn apply_onset(&mut self, rec: &FaultRecord) -> blink_core::Result<()> {
        self.counts.faults_injected += 1;
        self.active.insert(rec.fault_id, rec.event);
        let gps = gpus_per_server(self.config.server_kind);
        let kills_gpus = match rec.event {
            FaultEvent::GpuDrop { server, gpu } => {
                self.cluster.quarantine(server, gpu);
                true
            }
            FaultEvent::ServerLoss { server } => {
                self.cluster.quarantine_server(server);
                true
            }
            FaultEvent::LinkFlap { .. } | FaultEvent::NicDegrade { .. } => false,
        };
        // Affected running jobs in ascending id order; a job whose every GPU
        // is gone is evicted into the retry queue, the rest recover in place.
        let mut evict: Vec<u64> = Vec::new();
        let mut recover: Vec<u64> = Vec::new();
        for (&id, job) in &self.running {
            if !touches(rec.event, &job.placement, gps) {
                continue;
            }
            if kills_gpus && !self.job_has_live_gpu(job, gps) {
                evict.push(id);
            } else {
                recover.push(id);
            }
        }
        for id in recover {
            let delta = self.recovery_delta(id, rec.event)?;
            self.recover_job(id, rec.at, Stage::Fault, delta)?;
        }
        for id in evict {
            self.evict_and_requeue(id, rec.at);
        }
        Ok(())
    }

    fn apply_heal(&mut self, rec: &FaultRecord) -> blink_core::Result<()> {
        // Only heal faults that were actually applied (the post-stream drain
        // can surface heals for onsets that never fired).
        if self.active.remove(&rec.fault_id).is_none() {
            return Ok(());
        }
        self.counts.heals_applied += 1;
        let gps = gpus_per_server(self.config.server_kind);
        // Restored capacity flows back into running jobs: flapped links and
        // degraded NICs replan to their healed state. Shed GPUs do *not*
        // rejoin a shrunk job — the device returns to the free pool instead.
        match rec.event {
            FaultEvent::GpuDrop { server, gpu } => self.cluster.heal(server, gpu),
            FaultEvent::ServerLoss { server } => self.cluster.heal_server(server),
            FaultEvent::LinkFlap { .. } | FaultEvent::NicDegrade { .. } => {
                let recover: Vec<u64> = self
                    .running
                    .iter()
                    .filter(|(_, job)| touches(rec.event, &job.placement, gps))
                    .map(|(&id, _)| id)
                    .collect();
                for id in recover {
                    let delta = self.recovery_delta(id, rec.event)?;
                    self.recover_job(id, rec.at, Stage::Heal, delta)?;
                }
            }
        }
        Ok(())
    }

    /// The delta that moves one affected job from its current induced
    /// topology to the placement topology degraded by every fault currently
    /// in force (NIC-only events short-circuit to a pure NIC delta).
    fn recovery_delta(&self, id: u64, event: FaultEvent) -> blink_core::Result<TopologyDelta> {
        if let FaultEvent::NicDegrade { server, .. } = event {
            return Ok(TopologyDelta::set_server_nic(
                ServerId(server),
                self.effective_nic(server),
            ));
        }
        let job = self.running.get(&id).expect("affected job is running");
        let target = self.degraded_target(&job.placement)?;
        Ok(TopologyDelta::between(job.comm.induced_topology(), &target))
    }

    /// Replans one affected job through the degradation ladder and re-runs
    /// its collective (the recovery probe). A failed replan or probe evicts
    /// the job into the retry queue instead of failing the fleet.
    fn recover_job(
        &mut self,
        id: u64,
        time: f64,
        stage: Stage,
        delta: TopologyDelta,
    ) -> blink_core::Result<()> {
        if delta.is_empty() {
            return Ok(());
        }
        let span = self.monitor.begin(id, stage);
        let outcome = {
            let job = self.running.get_mut(&id).expect("affected job is running");
            job.comm.replan(&delta).and_then(|rep| {
                job.comm
                    .run(CollectiveKind::AllReduce, self.config.collective_bytes)
                    .map(|report| (rep, report))
            })
        };
        self.monitor.commit(span);
        match outcome {
            Ok((rep, report)) => {
                // The GPUs the job lost — dead ones the delta removed and
                // live ones a shrink shed — go back to the cluster,
                // quarantined while the fault that cost them lasts, and the
                // job keeps the rest.
                let job = self.running.get_mut(&id).expect("affected job is running");
                job.rate_gbps = report.algorithmic_bandwidth_gbps;
                let kept = job.comm.allocation();
                let lost: Vec<GpuId> = job
                    .placement
                    .slices
                    .iter()
                    .flat_map(|(_, gpus)| gpus.iter().copied())
                    .filter(|g| !kept.contains(g))
                    .collect();
                if !lost.is_empty() {
                    self.cluster.shed(id, &lost);
                    job.placement = self.cluster.placement(id).expect("the job is running");
                }
                let counts = &mut self.counts;
                counts.fault_recoveries += 1;
                *counts
                    .recovery_rungs
                    .entry(rep.degradation.to_string())
                    .or_insert(0) += 1;
                if rep.degradation == DegradationLevel::FullWarmRepair {
                    counts.recoveries_full_warm += 1;
                    if rep.warm_iterations == 0 {
                        counts.recoveries_full_warm_zero_iter += 1;
                    }
                }
                counts.recoveries_exact += usize::from(rep.repair_path == RepairPath::Exact);
                counts.gpus_shed += lost.len();
            }
            Err(_) => self.evict_and_requeue(id, time),
        }
        Ok(())
    }

    /// The placement topology with every active fault applied: dead GPUs
    /// leave it, flapped pairs lose their links, spanned servers get their
    /// effective (possibly degraded) NIC bandwidth. A dead GPU is removed,
    /// not kept as a linkless singleton, so a recovery drops it from the
    /// job; kept, it could tie with a live component and win the shrink.
    fn degraded_target(&self, placement: &Placement) -> blink_core::Result<Topology> {
        let gps = gpus_per_server(self.config.server_kind);
        let base = placement_topology(
            self.config.server_kind,
            self.config.nic_gbps,
            &placement.slices,
        )
        .map_err(|e| BlinkError::Planning(e.to_string()))?;
        let live: Vec<GpuId> = base
            .gpu_ids()
            .into_iter()
            .filter(|g| !self.gpu_dead(g.index() / gps, g.index() % gps))
            .collect();
        let mut target = base
            .filter_links(|l| !self.link_flapped(l, gps))
            .induced(&live)
            .map_err(|e| BlinkError::Planning(e.to_string()))?;
        if placement.slices.len() > 1 {
            for (server, _) in &placement.slices {
                target.set_server_nic(ServerId(*server), self.effective_nic(*server));
            }
        }
        Ok(target)
    }

    fn link_flapped(&self, l: &Link, gps: usize) -> bool {
        let (sa, la) = (l.src.index() / gps, l.src.index() % gps);
        let (sb, lb) = (l.dst.index() / gps, l.dst.index() % gps);
        if sa != sb || l.kind == LinkKind::Pcie {
            return false;
        }
        let (lo, hi) = (la.min(lb), la.max(lb));
        self.active.values().any(|e| {
            matches!(e, FaultEvent::LinkFlap { server, a, b }
                if *server == sa && *a == lo && *b == hi)
        })
    }

    fn gpu_dead(&self, server: usize, local: usize) -> bool {
        self.active.values().any(|e| {
            matches!(e, FaultEvent::GpuDrop { server: s, gpu } if *s == server && *gpu == local)
                || matches!(e, FaultEvent::ServerLoss { server: s } if *s == server)
        })
    }

    /// Whether any of the job's GPUs survives the currently active faults.
    fn job_has_live_gpu(&self, job: &RunningJob, gps: usize) -> bool {
        job.placement.slices.iter().any(|(_, gpus)| {
            gpus.iter()
                .any(|g| !self.gpu_dead(g.index() / gps, g.index() % gps))
        })
    }

    /// Effective NIC bandwidth of one server under the active NIC faults
    /// (the most degraded active factor wins).
    fn effective_nic(&self, server: usize) -> f64 {
        let mut factor: f64 = 1.0;
        for e in self.active.values() {
            if let FaultEvent::NicDegrade {
                server: s,
                factor: f,
            } = e
            {
                if *s == server {
                    factor = factor.min(*f);
                }
            }
        }
        self.config.nic_gbps * factor
    }

    // ---- eviction and bounded retries -----------------------------------

    fn evict_and_requeue(&mut self, id: u64, time: f64) {
        if let Some(running) = self.running.remove(&id) {
            self.cluster.evict(id);
            self.counts.evictions += 1;
            self.queue_retry(running.job, time);
        }
    }

    /// Enters a job into the retry queue (a fresh eviction episode).
    fn queue_retry(&mut self, job: Job, now: f64) {
        self.counts.retries_scheduled += 1;
        self.push_retry(PendingRetry {
            retry_at: now + retry_delay(0),
            job,
            attempts_left: MAX_RETRY_ATTEMPTS,
        });
    }

    fn push_retry(&mut self, pending: PendingRetry) {
        let pos = self.retries.partition_point(|r| {
            r.retry_at
                .total_cmp(&pending.retry_at)
                .then(r.job.id.cmp(&pending.job.id))
                != std::cmp::Ordering::Greater
        });
        self.retries.insert(pos, pending);
    }

    /// One failed attempt: re-queue with exponential backoff, or count the
    /// job lost once the attempts are exhausted.
    fn fail_attempt(&mut self, mut pending: PendingRetry, now: f64) {
        pending.attempts_left -= 1;
        if pending.attempts_left == 0 {
            self.counts.jobs_lost += 1;
            self.monitor.instant(pending.job.id, Stage::Reject);
            return;
        }
        let used = MAX_RETRY_ATTEMPTS - pending.attempts_left;
        pending.retry_at = now + retry_delay(used);
        self.counts.retries_scheduled += 1;
        self.push_retry(pending);
    }

    /// Offers every retry due at or before `time` back to the cluster, in
    /// deterministic `(retry time, job id)` order.
    fn drain_retries(&mut self, time: f64) -> blink_core::Result<()> {
        while !self.retries.is_empty() && self.retries[0].retry_at <= time {
            let pending = self.retries.remove(0);
            let job = Job {
                arrival: pending.retry_at,
                ..pending.job
            };
            let span = self.monitor.begin(job.id, Stage::Retry);
            match self.cluster.resubmit(&job) {
                None => {
                    self.monitor.commit(span);
                    self.fail_attempt(pending, job.arrival);
                }
                Some(placement) => match self.admit_retry(&job, placement) {
                    Ok(()) => {
                        self.counts.retries_succeeded += 1;
                        self.monitor.commit(span);
                    }
                    Err(_) => {
                        self.cluster.evict(job.id);
                        self.monitor.commit(span);
                        self.fail_attempt(pending, job.arrival);
                    }
                },
            }
        }
        Ok(())
    }

    /// Builds the communicator for a successfully re-placed retry and runs
    /// its restart collective. The job keeps its original outcome entry; a
    /// retry only restores it to the running set.
    fn admit_retry(&mut self, job: &Job, placement: Placement) -> blink_core::Result<()> {
        let mut comm = self.communicator(&placement)?;
        let report = self.first_collective(&mut comm, &placement, false)?;
        self.running.insert(
            job.id,
            RunningJob {
                comm,
                placement,
                rate_gbps: report.algorithmic_bandwidth_gbps,
                job: *job,
            },
        );
        Ok(())
    }

    /// After the job stream ends, keeps advancing the simulation clock to
    /// the pending retry deadlines — draining departures and already
    /// scheduled heals, but injecting no *new* faults — until the retry
    /// queue is empty. This is what makes "jobs lost" a meaningful end-state
    /// gate: no retry is left forever pending.
    fn drain_tail(&mut self) -> blink_core::Result<()> {
        while let Some(next_at) = self.retries.first().map(|r| r.retry_at) {
            self.absorb_departures(next_at)?;
            let heals = match self.injector.as_mut() {
                Some(injector) => injector.pull_heals_until(next_at),
                None => Vec::new(),
            };
            self.apply_records(heals)?;
            self.drain_retries(next_at)?;
        }
        Ok(())
    }
}

/// Whether `event` reaches a running job on `placement`: a flap between two
/// GPUs it holds, the drop of a GPU it holds, a degraded NIC on a server a
/// fragmented job spans, or the loss of a server it spans. A flap's or a NIC
/// degradation's heal reaches the jobs its onset reached.
fn touches(event: FaultEvent, placement: &Placement, gps: usize) -> bool {
    let holds = |server: usize, local: usize| {
        let g = GpuId(server * gps + local);
        placement.slices.iter().any(|(_, gpus)| gpus.contains(&g))
    };
    let spans = |server: usize| placement.slices.iter().any(|(s, _)| *s == server);
    match event {
        FaultEvent::LinkFlap { server, a, b } => holds(server, a) && holds(server, b),
        FaultEvent::GpuDrop { server, gpu } => holds(server, gpu),
        FaultEvent::NicDegrade { server, .. } => placement.is_fragmented() && spans(server),
        FaultEvent::ServerLoss { server } => spans(server),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> FleetConfig {
        FleetConfig {
            servers: 4,
            jobs: 150,
            // near-capacity offered load for a 32-GPU cluster: enough churn
            // for departures, contention and fragmented placements
            workload: WorkloadConfig {
                mean_interarrival: 3.0,
                mean_duration: 20.0,
                ..Default::default()
            },
            collective_bytes: 1 << 20,
            check_every: 13,
            ..Default::default()
        }
    }

    /// `report` with every outcome's wall-clock times zeroed, so two runs
    /// compare field for field (rates by their shortest round-trip digits).
    fn deterministic(mut report: FleetReport) -> String {
        for o in &mut report.outcomes {
            o.ttfc_us = 0.0;
            o.place_us = 0.0;
            o.plan_us = 0.0;
            o.first_collective_us = 0.0;
        }
        format!("{report:?}")
    }

    #[test]
    fn the_loop_places_plans_and_runs_a_contended_stream() {
        let mut pipeline = FleetPipeline::new(small_config());
        let report = pipeline.run().unwrap();
        assert_eq!(report.submitted, 150);
        assert!(report.placed > 80, "placed only {}", report.placed);
        assert_eq!(report.rejected_capacity, 0, "16-GPU jobs fit 2 servers");
        assert!(report.rejected_contention > 0, "stream must contend");
        assert_eq!(
            report.placed + report.rejected_contention as usize,
            report.submitted
        );
        assert!(report.departures > 0);
        // every placed job ran a real or trivial first collective
        assert_eq!(report.outcomes.len(), report.placed);
        for o in &report.outcomes {
            assert!(o.ttfc_us >= o.first_collective_us);
            assert!(o.gpus >= 1);
            if o.gpus > 1 {
                assert!(
                    o.rate_gbps > 0.0,
                    "job {} ran nothing: {}",
                    o.job_id,
                    o.strategy
                );
            }
        }
        // fragmented placements exist and plan through the three-phase path
        assert!(report
            .outcomes
            .iter()
            .any(|o| o.fragmented && o.strategy.contains("three-phase")));
        // identical job shapes reuse each other's plans
        assert!(report.shared_hits > 0, "{report:?}");
        assert!(report.hit_rate() > 0.0);
        // the sampled oracle replays all passed
        assert!(report.checks_run > 0);
        assert_eq!(report.checks_failed, 0);
        // the event stream covers every stage of every job
        let monitor = pipeline.monitor();
        assert_eq!(monitor.count(Stage::Place), report.placed);
        assert_eq!(monitor.count(Stage::Plan), report.placed);
        assert_eq!(monitor.count(Stage::FirstCollective), report.placed);
        assert_eq!(
            monitor.count(Stage::Reject),
            report.rejected_contention as usize
        );
        assert_eq!(monitor.count(Stage::Depart), report.departures);
    }

    #[test]
    fn two_runs_with_one_seed_are_identical() {
        let run = |config: FleetConfig| {
            let mut pipeline = FleetPipeline::new(config);
            let report = pipeline.run().unwrap();
            (pipeline.monitor().order(), report)
        };
        let (order_a, a) = run(small_config());
        let (order_b, b) = run(small_config());
        assert_eq!(
            order_a, order_b,
            "event order must be a pure function of the seed"
        );
        assert!(a.consolidations > 0 && a.checks_run > 0, "{a:?}");
        assert_eq!(deterministic(a), deterministic(b));
        // ...and a different seed produces a different stream
        let (order_c, _) = run(FleetConfig {
            workload: WorkloadConfig {
                seed: 7,
                mean_interarrival: 0.5,
                mean_duration: 50.0,
            },
            ..small_config()
        });
        assert_ne!(order_a, order_c);
    }

    #[test]
    fn consolidation_moves_a_fragmented_job_and_recovers_its_rate() {
        let mut pipeline = FleetPipeline::new(FleetConfig {
            servers: 2,
            collective_bytes: 4 << 20,
            ..Default::default()
        });
        let job = |id, gpus, arrival: f64, duration: f64| Job {
            id,
            gpus,
            arrival,
            duration,
        };
        let jobs = [
            job(0, 4, 0.0, 10.0),
            job(1, 6, 0.0, 100.0),
            // 6 GPUs with only 4+2 free: fragments across both servers and
            // pays the three-phase NIC price for its first collective
            job(2, 6, 1.0, 100.0),
            // arrives after job 0 departs: triggers the consolidation sweep
            job(3, 1, 20.0, 1.0),
        ];
        let report = pipeline.run_jobs(&jobs).unwrap();
        assert_eq!(report.placed, 4);
        let frag = &report.outcomes[2];
        assert!(frag.fragmented);
        assert!(frag.strategy.contains("three-phase"), "{}", frag.strategy);
        assert_eq!(report.departures, 1);
        assert_eq!(report.consolidations, 1);
        assert_eq!(
            report.consolidations_improved, 1,
            "a single-server re-pack must beat the NIC-bound three-phase rate"
        );
        // the consolidation happened between job 0's departure and job 3's
        // placement, and job 2 now runs on a communicator over its new
        // placement
        let order = pipeline.monitor().order();
        let depart = order
            .iter()
            .position(|&e| e == (0, Stage::Depart))
            .expect("departure recorded");
        let consolidate = order
            .iter()
            .position(|&e| e == (2, Stage::Consolidate))
            .expect("consolidation recorded");
        let placed = order
            .iter()
            .position(|&e| e == (3, Stage::Place))
            .expect("trigger job placed");
        assert!(depart < consolidate && consolidate < placed);
        let moved = &pipeline.running[&2];
        assert_eq!(moved.comm.allocation(), &moved.placement.slices[0].1[..]);
    }

    #[test]
    fn a_job_that_shed_a_dead_gpu_moves_onto_live_gpus_at_its_shrunk_size() {
        let mut pipeline = FleetPipeline::new(FleetConfig {
            servers: 2,
            collective_bytes: 1 << 20,
            ..Default::default()
        });
        // GPU 5 of server 0 dies at t=2 and stays dead
        let drop = FaultRecord {
            fault_id: 0,
            at: 2.0,
            event: FaultEvent::GpuDrop { server: 0, gpu: 5 },
            heal: false,
        };
        pipeline.set_fault_injector(FaultInjector::scripted(vec![drop], 2, ServerKind::Dgx1V));
        let job = |id, gpus, arrival: f64, duration: f64| Job {
            id,
            gpus,
            arrival,
            duration,
        };
        let jobs = [
            job(0, 4, 0.0, 10.0),
            job(1, 6, 0.0, 100.0),
            // 6 GPUs with only 4+2 free: {4, 5, 6, 7} on server 0, {14, 15}
            // on server 1
            job(2, 6, 1.0, 100.0),
            // pulls the fault in: job 2 sheds GPU 5 and keeps 5 GPUs
            job(3, 1, 3.0, 1.0),
            // arrives after job 0 departs: job 2 moves onto server 0
            job(4, 1, 20.0, 1.0),
        ];
        let report = pipeline.run_jobs(&jobs).unwrap();
        assert_eq!(report.gpus_shed, 1, "{report:?}");
        assert_eq!(report.consolidations, 1, "{report:?}");
        let dead = GpuId(5);
        let moved = &pipeline.running[&2];
        assert!(!moved.placement.is_fragmented());
        assert_eq!(moved.placement.total_gpus(), 5, "the job stays shrunk");
        assert!(
            !moved.placement.slices[0].1.contains(&dead),
            "the move landed on the dead GPU: {:?}",
            moved.placement
        );
        assert_eq!(moved.comm.allocation(), &moved.placement.slices[0].1[..]);
        let record = pipeline.cluster().placement(2).unwrap();
        assert_eq!(record.slices, moved.placement.slices);
        let (_, check) = pipeline
            .running
            .get_mut(&2)
            .unwrap()
            .comm
            .run_checked(CollectiveKind::AllReduce, 1 << 20)
            .unwrap();
        assert!(check.is_correct(), "{check}");
    }

    #[test]
    fn a_two_gpu_job_that_loses_its_first_gpu_keeps_the_live_one() {
        let mut pipeline = FleetPipeline::new(FleetConfig {
            servers: 1,
            collective_bytes: 1 << 20,
            ..Default::default()
        });
        // GPU 0 dies at t=2 and stays dead
        let drop = FaultRecord {
            fault_id: 0,
            at: 2.0,
            event: FaultEvent::GpuDrop { server: 0, gpu: 0 },
            heal: false,
        };
        pipeline.set_fault_injector(FaultInjector::scripted(vec![drop], 1, ServerKind::Dgx1V));
        let jobs = [
            Job {
                id: 0,
                gpus: 2,
                arrival: 0.0,
                duration: 100.0,
            },
            // pulls the fault in
            Job {
                id: 1,
                gpus: 1,
                arrival: 3.0,
                duration: 1.0,
            },
        ];
        let report = pipeline.run_jobs(&jobs).unwrap();
        assert_eq!(report.outcomes[0].job_id, 0);
        assert_eq!(report.fault_recoveries, 1, "{report:?}");
        assert_eq!(report.gpus_shed, 1, "only the dead GPU leaves: {report:?}");
        let job = &pipeline.running[&0];
        assert_eq!(job.placement.slices, vec![(0, vec![GpuId(1)])]);
        assert_eq!(job.comm.allocation(), &[GpuId(1)]);
        let record = pipeline.cluster().placement(0).unwrap();
        assert_eq!(record.slices, job.placement.slices);
        // the dead GPU is quarantined, not free, and not the job's; job 1
        // still holds one GPU
        assert_eq!(pipeline.cluster().quarantined_gpus(), 1);
        assert_eq!(pipeline.cluster().free_gpus(), 5);
    }

    #[test]
    fn chaos_fleet_runs_are_a_pure_function_of_both_seeds() {
        let chaos_config = |fault_seed: u64| FleetConfig {
            faults: Some(FaultConfig {
                seed: fault_seed,
                mean_interval: 10.0,
                mean_outage: 8.0,
            }),
            ..small_config()
        };
        let run = |config: FleetConfig| {
            let mut pipeline = FleetPipeline::new(config);
            let report = pipeline.run().unwrap();
            (pipeline.monitor().order(), report)
        };
        let (order_a, a) = run(chaos_config(11));
        let (order_b, b) = run(chaos_config(11));
        assert!(a.faults_injected > 0, "{a:?}");
        assert!(a.fault_recoveries > 0, "no job ever recovered: {a:?}");
        assert_eq!(a.jobs_lost, 0, "bounded retries must save every job: {a:?}");
        assert_eq!(a.retries_pending, 0, "the tail drain must empty the queue");
        // zero-iteration guarantee: every full warm repair converged without
        // a single MWU iteration
        assert_eq!(a.recoveries_full_warm, a.recoveries_full_warm_zero_iter);
        // bit-identical replay of the whole chaos experiment
        assert_eq!(order_a, order_b, "chaos must replay identically");
        assert_eq!(deterministic(a), deterministic(b));
        // ...and a different fault seed produces a different experiment
        let (order_c, _) = run(chaos_config(12));
        assert_ne!(order_a, order_c);
    }

    #[test]
    fn a_scripted_server_loss_evicts_retries_and_recovers_the_job() {
        let mut pipeline = FleetPipeline::new(FleetConfig {
            servers: 2,
            collective_bytes: 1 << 20,
            ..Default::default()
        });
        let loss = FaultRecord {
            fault_id: 0,
            at: 5.0,
            event: FaultEvent::ServerLoss { server: 1 },
            heal: false,
        };
        let heal = FaultRecord {
            at: 12.0,
            heal: true,
            ..loss
        };
        pipeline.set_fault_injector(FaultInjector::scripted(
            vec![loss, heal],
            2,
            ServerKind::Dgx1V,
        ));
        let job = |id, gpus, arrival: f64, duration: f64| Job {
            id,
            gpus,
            arrival,
            duration,
        };
        let jobs = [
            job(0, 4, 0.0, 100.0),
            // fills server 1: the scripted loss at t=5 kills all of its GPUs
            job(1, 8, 1.0, 100.0),
            // arrives at t=6, pulling the fault in; places on server 0
            job(2, 1, 6.0, 1.0),
        ];
        let report = pipeline.run_jobs(&jobs).unwrap();
        assert_eq!(report.placed, 3);
        assert_eq!(report.faults_injected, 1);
        assert_eq!(report.heals_applied, 1);
        assert_eq!(report.evictions, 1, "job 1 lost every GPU");
        // retries at t=7 and t=11 find the server still quarantined; the
        // t=19 attempt lands after the heal at t=12 restored capacity
        assert_eq!(report.retries_scheduled, 3, "{report:?}");
        assert_eq!(report.retries_succeeded, 1);
        assert_eq!(report.jobs_lost, 0);
        assert_eq!(report.retries_pending, 0);
        let monitor = pipeline.monitor();
        assert_eq!(monitor.count(Stage::Retry), 3);
        assert_eq!(monitor.count(Stage::Reject), 0);
        // the fault and heal instants are keyed by fault id
        assert!(monitor.order().contains(&(0, Stage::Fault)));
        assert!(monitor.order().contains(&(0, Stage::Heal)));
    }

    #[test]
    fn disabling_consolidation_leaves_fragments_in_place() {
        let mut pipeline = FleetPipeline::new(FleetConfig {
            servers: 2,
            consolidate: false,
            collective_bytes: 1 << 20,
            ..Default::default()
        });
        let job = |id, gpus, arrival: f64, duration: f64| Job {
            id,
            gpus,
            arrival,
            duration,
        };
        let jobs = [
            job(0, 6, 0.0, 10.0),
            job(1, 6, 0.0, 100.0),
            job(2, 4, 1.0, 100.0),
            job(3, 1, 20.0, 1.0),
        ];
        let report = pipeline.run_jobs(&jobs).unwrap();
        assert_eq!(report.departures, 1);
        assert_eq!(report.consolidations, 0);
        assert_eq!(pipeline.monitor().count(Stage::Consolidate), 0);
    }
}
