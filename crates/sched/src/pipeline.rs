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
//! opportunistically re-packed onto a single server, with the move replayed
//! into their live communicator as a [`TopologyDelta`] (exercising the plan
//! cache's delta invalidation rather than rebuilding from scratch).
//!
//! Every stage is instrumented with begin/end events on an
//! [`EventMonitor`]; see the crate docs for the exact event-ordering and
//! determinism contract.

use crate::cluster::{Cluster, Placement};
use crate::events::{EventMonitor, Stage};
use crate::faults::{FaultConfig, FaultEvent, FaultInjector, FaultRecord, RetryPolicy};
use crate::workload::{Job, WorkloadConfig, WorkloadGenerator};
use blink_core::{
    BlinkError, CollectiveKind, Communicator, CommunicatorBuilder, CommunicatorOptions,
    DegradationLevel, SharedPlanCache,
};
use blink_topology::presets::{gpus_per_server, placement_topology, ServerKind};
use blink_topology::{GpuId, GroupSplit, Link, LinkKind, ServerId, Topology, TopologyDelta};
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
    /// room, replanning their communicators through the topology delta.
    pub consolidate: bool,
    /// Lift every `subgroup_lift_every`-th placed multi-GPU job into
    /// per-server process groups ([`Communicator::split`] with
    /// [`GroupSplit::ByServer`]) and replay one concurrent AllReduce per
    /// subgroup through the value-level oracle on a shared simulator
    /// session; 0 disables the sampling. Subgroups of isomorphic shape reuse
    /// one packed plan through the fleet cache's canonical tier.
    pub subgroup_lift_every: usize,
    /// Options for every job communicator. Every job plans through the
    /// pipeline's own plan store ([`FleetPipeline::shared_cache`]).
    pub comm_options: CommunicatorOptions,
    /// Seeded fault injection: `Some` weaves the deterministic fault
    /// schedule into the loop (see the crate-level "failure model" docs);
    /// `None` (the default) runs the pipeline fault-free.
    pub faults: Option<FaultConfig>,
    /// Bounded retry/backoff for jobs evicted by faults (or whose replan /
    /// collective failed while fault injection is active).
    pub retry: RetryPolicy,
    /// Upper bound on successful consolidation moves per departure drain —
    /// caps the synchronous re-pack work done between two arrivals.
    /// `usize::MAX` (the default) keeps the historical unbounded sweep.
    pub max_moves_per_drain: usize,
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
            subgroup_lift_every: 0,
            comm_options: CommunicatorOptions::default(),
            faults: None,
            retry: RetryPolicy::default(),
            max_moves_per_drain: usize::MAX,
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
#[derive(Debug, Clone, Serialize)]
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
    /// Placed jobs lifted into per-server process groups for a concurrent
    /// subgroup replay.
    pub subgroup_lifts: usize,
    /// Individual subgroup collectives value-checked across those lifts.
    pub subgroup_checks_run: usize,
    /// Subgroup replays that violated their collective contract (must stay
    /// 0).
    pub subgroup_checks_failed: usize,
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
    /// min-cost-reroute guarantee `bench_chaos` gates on (the two counters
    /// must be equal).
    pub recoveries_full_warm_zero_iter: usize,
    /// GPUs shed by shrink-rung recoveries across all jobs.
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
    outcomes: Vec<JobOutcome>,
    submitted: usize,
    departures: usize,
    consolidations: usize,
    consolidations_improved: usize,
    checks_run: usize,
    checks_failed: usize,
    subgroup_lifts: usize,
    subgroup_checks_run: usize,
    subgroup_checks_failed: usize,
    injector: Option<FaultInjector>,
    /// Faults currently in force, keyed by fault id (removed on heal).
    active: BTreeMap<u64, FaultEvent>,
    /// Evicted jobs awaiting retry, sorted by ascending `(retry_at, job id)`.
    retries: Vec<PendingRetry>,
    faults_injected: usize,
    heals_applied: usize,
    fault_recoveries: usize,
    recovery_rungs: BTreeMap<String, usize>,
    recoveries_full_warm: usize,
    recoveries_full_warm_zero_iter: usize,
    gpus_shed: usize,
    evictions: usize,
    retries_scheduled: usize,
    retries_succeeded: usize,
    jobs_lost: usize,
}

impl FleetPipeline {
    /// Creates a pipeline with its own fleet-local [`SharedPlanCache`], so
    /// hit-rate accounting is clean even when other communicators exist in
    /// the process.
    pub fn new(config: FleetConfig) -> Self {
        Self::with_shared_cache(config, SharedPlanCache::new())
    }

    /// Creates a pipeline planning through an explicit shared cache (e.g.
    /// [`blink_core::global_plan_cache`] to pool plans with communicators
    /// created elsewhere in the process).
    pub fn with_shared_cache(config: FleetConfig, shared: SharedPlanCache) -> Self {
        let cluster = Cluster::new(config.servers, gpus_per_server(config.server_kind));
        let injector = config
            .faults
            .clone()
            .map(|f| FaultInjector::new(f, config.servers, config.server_kind));
        FleetPipeline {
            config,
            cluster,
            shared,
            monitor: EventMonitor::new(),
            running: BTreeMap::new(),
            outcomes: Vec::new(),
            submitted: 0,
            departures: 0,
            consolidations: 0,
            consolidations_improved: 0,
            checks_run: 0,
            checks_failed: 0,
            subgroup_lifts: 0,
            subgroup_checks_run: 0,
            subgroup_checks_failed: 0,
            injector,
            active: BTreeMap::new(),
            retries: Vec::new(),
            faults_injected: 0,
            heals_applied: 0,
            fault_recoveries: 0,
            recovery_rungs: BTreeMap::new(),
            recoveries_full_warm: 0,
            recoveries_full_warm_zero_iter: 0,
            gpus_shed: 0,
            evictions: 0,
            retries_scheduled: 0,
            retries_succeeded: 0,
            jobs_lost: 0,
        }
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
            self.submitted += 1;
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
            // A job placed while faults are in force starts degraded: links
            // the scheduler cannot see around (flaps between healthy GPUs,
            // degraded NICs) are replayed into the fresh communicator.
            self.degrade_fresh(&mut comm, &placement)?;
            let plan = self.monitor.commit(plan);

            let check_due = self.config.check_every > 0
                && self.outcomes.len().is_multiple_of(self.config.check_every);
            let first = self.monitor.begin(job.id, Stage::FirstCollective);
            let attempt = if check_due {
                comm.run_checked(CollectiveKind::AllReduce, self.config.collective_bytes)
                    .map(|(report, check)| (report, true, Some(check)))
            } else {
                comm.run(CollectiveKind::AllReduce, self.config.collective_bytes)
                    .map(|report| (report, false, None))
            };
            let (report, checked) = match attempt {
                Ok((report, checked, check)) => {
                    if let Some(check) = check {
                        self.checks_run += 1;
                        if !check.is_correct() {
                            self.checks_failed += 1;
                        }
                    }
                    (report, checked)
                }
                // Under fault injection a failed first collective evicts the
                // job into the bounded retry queue instead of killing the
                // whole fleet run.
                Err(_) if self.injector.is_some() => {
                    self.monitor.commit(first);
                    self.cluster.evict(job.id);
                    self.evictions += 1;
                    self.queue_retry(*job, job.arrival);
                    continue;
                }
                Err(err) => return Err(err),
            };
            let first = self.monitor.commit(first);

            let lift_due = self.config.subgroup_lift_every > 0
                && placement.total_gpus() > 1
                && self
                    .outcomes
                    .len()
                    .is_multiple_of(self.config.subgroup_lift_every);
            if lift_due {
                self.lift_subgroups(job.id, &comm)?;
            }

            self.outcomes.push(JobOutcome {
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
            submitted: self.submitted,
            placed: self.outcomes.len(),
            rejected_capacity: self.cluster.rejected_capacity(),
            rejected_contention: self.cluster.rejected_contention(),
            departures: self.departures,
            consolidations: self.consolidations,
            consolidations_improved: self.consolidations_improved,
            shared_hits,
            shared_misses,
            checks_run: self.checks_run,
            checks_failed: self.checks_failed,
            subgroup_lifts: self.subgroup_lifts,
            subgroup_checks_run: self.subgroup_checks_run,
            subgroup_checks_failed: self.subgroup_checks_failed,
            faults_injected: self.faults_injected,
            heals_applied: self.heals_applied,
            fault_recoveries: self.fault_recoveries,
            recovery_rungs: self.recovery_rungs.clone(),
            recoveries_full_warm: self.recoveries_full_warm,
            recoveries_full_warm_zero_iter: self.recoveries_full_warm_zero_iter,
            gpus_shed: self.gpus_shed,
            evictions: self.evictions,
            retries_scheduled: self.retries_scheduled,
            retries_succeeded: self.retries_succeeded,
            retries_pending: self.retries.len(),
            jobs_lost: self.jobs_lost,
            outcomes: self.outcomes.clone(),
        }
    }

    /// Builds a job's communicator over its placement, planning through the
    /// fleet's plan store.
    fn communicator(&self, placement: &Placement) -> blink_core::Result<Communicator> {
        CommunicatorBuilder::from_placement(
            self.config.server_kind,
            self.config.nic_gbps,
            &placement.slices,
        )
        .options(self.config.comm_options)
        .shared_plans(self.shared.clone())
        .build()
    }

    /// Splits a placed job's communicator into per-server process groups and
    /// replays one concurrent AllReduce per subgroup through the value-level
    /// oracle on a shared session — the hierarchical-job conformance probe.
    /// Subgroup communicators publish into the fleet cache's canonical tier,
    /// so isomorphic per-server slices across jobs pack once.
    fn lift_subgroups(&mut self, job_id: u64, comm: &Communicator) -> blink_core::Result<()> {
        let span = self.monitor.begin(job_id, Stage::SubgroupLift);
        let mut groups = comm.split(&GroupSplit::ByServer)?;
        let requests: Vec<(CollectiveKind, u64)> =
            vec![(CollectiveKind::AllReduce, self.config.collective_bytes); groups.len()];
        let (_, checks) = groups.run_concurrent_checked(&requests)?;
        self.subgroup_lifts += 1;
        self.subgroup_checks_run += checks.len();
        self.subgroup_checks_failed += checks.iter().filter(|c| !c.is_correct()).count();
        self.monitor.commit(span);
        Ok(())
    }

    /// Releases every job completed by `time`, records the departures, and —
    /// when enabled — re-packs fragmented survivors into the freed room,
    /// replaying each move into the job's communicator as a topology delta.
    fn absorb_departures(&mut self, time: f64) -> blink_core::Result<()> {
        let departed = self.cluster.release_until(time);
        if departed.is_empty() {
            return Ok(());
        }
        for id in departed {
            self.monitor.instant(id, Stage::Depart);
            self.running.remove(&id);
            self.departures += 1;
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
        let mut moves = 0usize;
        for id in candidates {
            if moves >= self.config.max_moves_per_drain {
                break;
            }
            let Some(new_placement) = self.cluster.try_consolidate(id) else {
                continue;
            };
            // The target is degraded by whatever faults are in force: a
            // consolidation must not replan a job onto a link that is down.
            let target = self.degraded_target(&new_placement)?;
            let span = self.monitor.begin(id, Stage::Consolidate);
            let job = self.running.get_mut(&id).expect("candidate is running");
            let delta = TopologyDelta::between(job.comm.induced_topology(), &target);
            job.comm.replan(&delta)?;
            let report = job
                .comm
                .run(CollectiveKind::AllReduce, self.config.collective_bytes)?;
            self.consolidations += 1;
            if report.algorithmic_bandwidth_gbps > job.rate_gbps + 1e-9 {
                self.consolidations_improved += 1;
            }
            job.rate_gbps = report.algorithmic_bandwidth_gbps;
            job.placement = new_placement;
            self.monitor.commit(span);
            moves += 1;
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
        self.faults_injected += 1;
        self.active.insert(rec.fault_id, rec.event);
        let gps = gpus_per_server(self.config.server_kind);
        match rec.event {
            FaultEvent::GpuDrop { server, gpu } => self.cluster.quarantine(server, gpu),
            FaultEvent::ServerLoss { server } => self.cluster.quarantine_server(server),
            _ => {}
        }
        // Affected running jobs in ascending id order; a job whose every GPU
        // is gone is evicted into the retry queue, the rest recover in place.
        let mut evict: Vec<u64> = Vec::new();
        let mut recover: Vec<u64> = Vec::new();
        for (&id, job) in &self.running {
            let holds = |g: GpuId| {
                job.placement
                    .slices
                    .iter()
                    .any(|(_, gpus)| gpus.contains(&g))
            };
            match rec.event {
                FaultEvent::LinkFlap { server, a, b } => {
                    if holds(GpuId(server * gps + a)) && holds(GpuId(server * gps + b)) {
                        recover.push(id);
                    }
                }
                FaultEvent::GpuDrop { server, gpu } => {
                    if holds(GpuId(server * gps + gpu)) {
                        if self.job_has_live_gpu(job, gps) {
                            recover.push(id);
                        } else {
                            evict.push(id);
                        }
                    }
                }
                FaultEvent::NicDegrade { server, .. } => {
                    if job.placement.is_fragmented()
                        && job.placement.slices.iter().any(|(s, _)| *s == server)
                    {
                        recover.push(id);
                    }
                }
                FaultEvent::ServerLoss { server } => {
                    if job.placement.slices.iter().any(|(s, _)| *s == server) {
                        if self.job_has_live_gpu(job, gps) {
                            recover.push(id);
                        } else {
                            evict.push(id);
                        }
                    }
                }
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
        self.heals_applied += 1;
        let gps = gpus_per_server(self.config.server_kind);
        match rec.event {
            FaultEvent::GpuDrop { server, gpu } => self.cluster.heal(server, gpu),
            FaultEvent::ServerLoss { server } => self.cluster.heal_server(server),
            _ => {}
        }
        // Restored capacity flows back into running jobs: flapped links and
        // degraded NICs replan to their healed state. Shed GPUs do *not*
        // rejoin a shrunk job — the device returns to the free pool instead.
        let recover: Vec<u64> = self
            .running
            .iter()
            .filter(|(_, job)| {
                let holds = |g: GpuId| {
                    job.placement
                        .slices
                        .iter()
                        .any(|(_, gpus)| gpus.contains(&g))
                };
                match rec.event {
                    FaultEvent::LinkFlap { server, a, b } => {
                        holds(GpuId(server * gps + a)) && holds(GpuId(server * gps + b))
                    }
                    FaultEvent::NicDegrade { server, .. } => {
                        job.placement.is_fragmented()
                            && job.placement.slices.iter().any(|(s, _)| *s == server)
                    }
                    _ => false,
                }
            })
            .map(|(&id, _)| id)
            .collect();
        for id in recover {
            let delta = self.recovery_delta(id, rec.event)?;
            self.recover_job(id, rec.at, Stage::Heal, delta)?;
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
        match outcome {
            Ok((rep, report)) => {
                {
                    let job = self.running.get_mut(&id).expect("affected job is running");
                    job.rate_gbps = report.algorithmic_bandwidth_gbps;
                    if !rep.shed_gpus.is_empty() {
                        for (_, gpus) in job.placement.slices.iter_mut() {
                            gpus.retain(|g| !rep.shed_gpus.contains(g));
                        }
                        job.placement.slices.retain(|(_, gpus)| !gpus.is_empty());
                    }
                }
                self.fault_recoveries += 1;
                *self
                    .recovery_rungs
                    .entry(rep.degradation.to_string())
                    .or_insert(0) += 1;
                if rep.degradation == DegradationLevel::FullWarmRepair {
                    self.recoveries_full_warm += 1;
                    if rep.warm_iterations == 0 {
                        self.recoveries_full_warm_zero_iter += 1;
                    }
                }
                self.gpus_shed += rep.shed_gpus.len();
                self.monitor.commit(span);
                Ok(())
            }
            Err(err) => {
                self.monitor.commit(span);
                if self.config.retry.max_attempts == 0 {
                    return Err(err);
                }
                self.evict_and_requeue(id, time);
                Ok(())
            }
        }
    }

    /// The placement topology with every active fault applied: dead GPUs and
    /// flapped pairs lose their links, spanned servers get their effective
    /// (possibly degraded) NIC bandwidth.
    fn degraded_target(&self, placement: &Placement) -> blink_core::Result<Topology> {
        let gps = gpus_per_server(self.config.server_kind);
        let base = placement_topology(
            self.config.server_kind,
            self.config.nic_gbps,
            &placement.slices,
        )
        .map_err(|e| BlinkError::Planning(e.to_string()))?;
        let mut target = base.filter_links(|l| self.link_alive(l, gps));
        if placement.slices.len() > 1 {
            for (server, _) in &placement.slices {
                target.set_server_nic(ServerId(*server), self.effective_nic(*server));
            }
        }
        Ok(target)
    }

    fn link_alive(&self, l: &Link, gps: usize) -> bool {
        let (sa, la) = (l.src.index() / gps, l.src.index() % gps);
        let (sb, lb) = (l.dst.index() / gps, l.dst.index() % gps);
        if self.gpu_dead(sa, la) || self.gpu_dead(sb, lb) {
            return false;
        }
        if sa == sb && l.kind != LinkKind::Pcie {
            let (lo, hi) = (la.min(lb), la.max(lb));
            let flapped = self.active.values().any(|e| {
                matches!(e, FaultEvent::LinkFlap { server, a, b }
                    if *server == sa && *a == lo && *b == hi)
            });
            if flapped {
                return false;
            }
        }
        true
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

    /// Replays active faults into a freshly built communicator (a job placed
    /// mid-outage must not plan over links that are down).
    fn degrade_fresh(
        &mut self,
        comm: &mut Communicator,
        placement: &Placement,
    ) -> blink_core::Result<()> {
        if self.active.is_empty() {
            return Ok(());
        }
        let target = self.degraded_target(placement)?;
        let delta = TopologyDelta::between(comm.induced_topology(), &target);
        if delta.is_empty() {
            return Ok(());
        }
        comm.replan(&delta)?;
        Ok(())
    }

    // ---- eviction and bounded retries -----------------------------------

    fn evict_and_requeue(&mut self, id: u64, time: f64) {
        if let Some(running) = self.running.remove(&id) {
            self.cluster.evict(id);
            self.evictions += 1;
            self.queue_retry(running.job, time);
        }
    }

    /// Enters a job into the retry queue (a fresh eviction episode).
    fn queue_retry(&mut self, job: Job, now: f64) {
        let max = self.config.retry.max_attempts;
        if max == 0 {
            self.jobs_lost += 1;
            self.monitor.instant(job.id, Stage::Reject);
            return;
        }
        self.retries_scheduled += 1;
        self.push_retry(PendingRetry {
            retry_at: now + self.config.retry.delay(0),
            job,
            attempts_left: max,
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
            self.jobs_lost += 1;
            self.monitor.instant(pending.job.id, Stage::Reject);
            return;
        }
        let used = self.config.retry.max_attempts - pending.attempts_left;
        pending.retry_at = now + self.config.retry.delay(used);
        self.retries_scheduled += 1;
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
                        self.retries_succeeded += 1;
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
        self.degrade_fresh(&mut comm, &placement)?;
        let report = comm.run(CollectiveKind::AllReduce, self.config.collective_bytes)?;
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
        assert_eq!(a.placed, b.placed);
        assert_eq!(a.departures, b.departures);
        assert_eq!(a.consolidations, b.consolidations);
        assert_eq!(
            (a.shared_hits, a.shared_misses),
            (b.shared_hits, b.shared_misses)
        );
        for (oa, ob) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(oa.job_id, ob.job_id);
            assert_eq!(oa.rate_gbps.to_bits(), ob.rate_gbps.to_bits());
            assert_eq!(oa.strategy, ob.strategy);
        }
        // ...and a different seed produces a different stream
        let (order_c, _) = run(FleetConfig {
            workload: WorkloadConfig {
                seed: 7,
                mean_interarrival: 0.5,
                mean_duration: 50.0,
                ..Default::default()
            },
            ..small_config()
        });
        assert_ne!(order_a, order_c);
    }

    #[test]
    fn consolidation_replans_a_fragmented_job_and_recovers_its_rate() {
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
        // placement, on job 2's communicator
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
    }

    #[test]
    fn subgroup_lifts_replay_conformant_concurrent_subgroups() {
        let mut pipeline = FleetPipeline::new(FleetConfig {
            subgroup_lift_every: 5,
            ..small_config()
        });
        let report = pipeline.run().unwrap();
        assert!(report.subgroup_lifts > 0, "{report:?}");
        assert!(report.subgroup_checks_run >= report.subgroup_lifts);
        assert_eq!(
            report.subgroup_checks_failed, 0,
            "a concurrent subgroup replay violated its collective contract"
        );
        assert_eq!(
            pipeline.monitor().count(Stage::SubgroupLift),
            report.subgroup_lifts
        );
        // subgroups plan through the fleet store, where their parent job
        // already published the per-server slices' plans: the lifts add
        // store hits to the same job stream planned without them
        let unlifted = FleetPipeline::new(small_config()).run().unwrap();
        assert!(
            report.shared_hits > unlifted.shared_hits,
            "lifted subgroups never reused a fleet plan"
        );
    }

    #[test]
    fn chaos_fleet_runs_are_a_pure_function_of_both_seeds() {
        let chaos_config = |fault_seed: u64| FleetConfig {
            faults: Some(FaultConfig {
                seed: fault_seed,
                mean_interval: 10.0,
                mean_outage: 8.0,
                ..Default::default()
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
        assert_eq!(a.faults_injected, b.faults_injected);
        assert_eq!(a.heals_applied, b.heals_applied);
        assert_eq!(a.fault_recoveries, b.fault_recoveries);
        assert_eq!(a.recovery_rungs, b.recovery_rungs);
        assert_eq!(a.gpus_shed, b.gpus_shed);
        assert_eq!(a.evictions, b.evictions);
        assert_eq!(a.retries_scheduled, b.retries_scheduled);
        assert_eq!(a.retries_succeeded, b.retries_succeeded);
        assert_eq!(a.jobs_lost, b.jobs_lost);
        for (oa, ob) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(oa.job_id, ob.job_id);
            assert_eq!(oa.rate_gbps.to_bits(), ob.rate_gbps.to_bits());
        }
        // ...and a different fault seed produces a different experiment
        let (order_c, _) = run(chaos_config(12));
        assert_ne!(order_a, order_c);
    }

    #[test]
    fn max_moves_per_drain_caps_consolidation_churn() {
        let run = |cap: usize| {
            let mut pipeline = FleetPipeline::new(FleetConfig {
                max_moves_per_drain: cap,
                ..small_config()
            });
            pipeline.run().unwrap().consolidations
        };
        let unbounded = run(usize::MAX);
        assert!(unbounded > 0, "the contended stream must consolidate");
        assert_eq!(run(0), 0, "a zero cap must disable consolidation moves");
        let capped = run(1);
        assert!(capped > 0 && capped <= unbounded);
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
