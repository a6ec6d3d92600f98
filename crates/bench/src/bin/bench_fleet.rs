//! Fleet-service planning loop, fault-free and under chaos: submit → place →
//! plan → run over thousands of jobs.
//!
//! Drives `blink-sched`'s [`FleetPipeline`] over the contended Figure 3
//! workload on an 8-server DGX-1V cluster: every placed job gets a
//! communicator over its placement-induced slice topology, plans through one
//! fleet-wide plan store, and runs its first AllReduce on the simulator;
//! departures trigger consolidation moves, each a new communicator over the
//! job's new placement that runs its own first AllReduce. The recorded
//! 2,000-job stream is replayed twice, and each replay is one section of
//! `BENCH_fleet.json`:
//!
//! * **fleet** — fault-free, sampling every 50th first collective through
//!   the value-level oracle;
//! * **chaos** — under [`FaultConfig::default`]'s seeded fault schedule,
//!   which flaps NVLink pairs, drops GPUs, degrades NICs and kills whole
//!   servers. Every affected job replans through `Communicator::replan`'s
//!   graceful-degradation ladder (slice unchanged → cold replan → PCIe
//!   fallback → shrunk subgroup) and re-runs its collective as a recovery
//!   probe; jobs whose every GPU is lost are evicted and re-offered under
//!   the bounded retry policy.
//!
//! Each section records the replay's deterministic work, read off its plan
//! store: fresh lowerings (each compiles the one engine form its entry
//! keeps), lowering-tier hits, the ops those fresh lowerings emitted, packs
//! (plan-store misses), the packs among them that failed, the MWU
//! iterations the packs ran, the engine runs the communicators executed (a
//! first collective served a stored lowering's memoised total runs none),
//! and the planner scratches the process's pool created during the replay
//! beyond the one warm scratch it starts from (a replay plans on one
//! thread, so any is a regression). Wall time — time-to-first-collective
//! (TTFC), plans served per second, recovery spans — is printed and
//! recorded as context only.
//!
//! A third section, `per_job_allocations`, records the fixed cost every
//! placed job pays before its first AllReduce, as heap allocations (the
//! binary installs [`blink_bench::alloc::Counting`]): for three placements
//! — 2 GPUs on one server, 4 GPUs on one server, 2+2 GPUs over two servers
//! — a store is warmed with the same slice shape on other servers (one
//! fresh lowering, which compiles its form, then a hit), and one
//! `CommunicatorBuilder::from_placement(..).build()` and one first
//! AllReduce, a lowering-tier hit, are counted. Beside them,
//! `cold_first_collective` counts what a job pays with nothing to hit: an
//! isolated-store communicator over DGX-1V GPUs {0, 1, 2, 3}, built and run
//! through one 64 MiB AllReduce after one warm-up of the same.
//!
//! Without arguments: runs both replays and writes `BENCH_fleet.json` to the
//! working directory.
//!
//! With `--check`: runs both replays twice (well under a second) and fails,
//! on every runner, unless
//!
//! * **work** — no counter of either section's `work` exceeds its
//!   recording, and lowering-tier hits do not fall below theirs;
//! * **fleet** — sampled first collectives pass the oracle, the plan store
//!   and the lowering tier hit, the stream fragments into three-phase jobs,
//!   and placements, rejections and stage events balance;
//! * **chaos** — zero jobs are lost and the retry queue drains, rung counts
//!   sum to the recovery total, and every retry, fault and heal left its
//!   event. A recovery re-plans what a fault touched from cold, so the
//!   `work` gate on MWU iterations is what keeps DGX-1 NVLink recoveries on
//!   the exact lane packer;
//! * **replay** — the two runs of each section agree event for event, on
//!   every deterministic counter, and bit for bit on every simulated rate;
//! * **per-job allocations** — no placement's build or hit first
//!   collective, and no cold first collective, allocates more than
//!   recorded, and each hit first collective is a lowering-tier hit.
//!
//! Exits non-zero on regression.

use blink_bench::alloc::{allocations, Counting};
use blink_bench::{over_recording, percentiles, Percentiles};
use blink_core::{CollectiveKind, Communicator, CommunicatorBuilder, ScratchPool, SharedPlanCache};
use blink_sched::{
    EventRecord, FaultConfig, FleetConfig, FleetPipeline, FleetReport, JobOutcome, Stage,
    MAX_RETRY_ATTEMPTS,
};
use blink_topology::presets::{dgx1v, gpus_per_server};
use blink_topology::GpuId;
use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

#[global_allocator]
static ALLOC: Counting = Counting;

/// Jobs in the recorded and the checked stream.
const JOBS: usize = 2_000;

/// A replay's deterministic work, read off the fleet's plan store.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
struct Work {
    /// Lowering-tier misses: collectives lowered afresh.
    fresh_lowerings: u64,
    /// Lowering-tier hits: collectives that took a stored lowering.
    lowering_hits: u64,
    /// Ops summed over the fresh lowerings' programs.
    lowered_ops: u64,
    /// Plan-store misses: plans packed.
    packs: u64,
    /// Packs that failed, their link class unable to span the slice.
    failed_packs: u64,
    /// MWU iterations the packs ran.
    mwu_iterations: u64,
    /// Engine runs the fleet's communicators executed; a first collective
    /// served a stored lowering's memoised total runs none.
    engine_runs: u64,
    /// Planner scratches the process's pool created during the replay,
    /// beyond the one warm scratch it starts from.
    scratches_created: u64,
}

impl Work {
    /// The counters under their recorded keys.
    fn counters(&self) -> [(&'static str, u64); 8] {
        [
            ("fresh_lowerings", self.fresh_lowerings),
            ("lowering_hits", self.lowering_hits),
            ("lowered_ops", self.lowered_ops),
            ("packs", self.packs),
            ("failed_packs", self.failed_packs),
            ("mwu_iterations", self.mwu_iterations),
            ("engine_runs", self.engine_runs),
            ("scratches_created", self.scratches_created),
        ]
    }
}

/// One replay of the stream.
#[derive(Clone)]
struct Run {
    config: FleetConfig,
    report: FleetReport,
    records: Vec<EventRecord>,
    wall_seconds: f64,
    work: Work,
}

/// The fault-free replay's configuration, or with `chaos` the chaos
/// replay's.
fn config(chaos: bool) -> FleetConfig {
    if chaos {
        FleetConfig {
            jobs: JOBS,
            faults: Some(FaultConfig::default()),
            ..Default::default()
        }
    } else {
        FleetConfig {
            jobs: JOBS,
            check_every: 50,
            ..Default::default()
        }
    }
}

fn replay(config: FleetConfig) -> Run {
    let mut pipeline = FleetPipeline::new(config.clone());
    // A caller on one thread cycles one scratch through every pack and run,
    // so start from one warm scratch: the replay then counts the scratches
    // beyond it, whatever ran in the process before.
    drop(ScratchPool::process().checkout());
    let scratches = ScratchPool::process().created();
    let t0 = Instant::now();
    let report = pipeline.run().expect("fleet pipeline runs to completion");
    let wall_seconds = t0.elapsed().as_secs_f64();
    let store = pipeline.shared_cache();
    let (lowering_hits, fresh_lowerings) = store.lowering_stats();
    Run {
        config,
        report,
        records: pipeline.monitor().records().to_vec(),
        wall_seconds,
        work: Work {
            fresh_lowerings,
            lowering_hits,
            lowered_ops: store.lowered_ops(),
            packs: store.stats().1,
            failed_packs: store.failed_packs(),
            mwu_iterations: store.mwu_iterations(),
            engine_runs: store.engine_runs(),
            scratches_created: ScratchPool::process().created() - scratches,
        },
    }
}

#[derive(Serialize)]
struct FleetSectionConfig {
    servers: usize,
    jobs: usize,
    collective_bytes: u64,
    check_every: usize,
    seed: u64,
}

/// The fault-free replay.
#[derive(Serialize)]
struct FleetSection {
    config: FleetSectionConfig,
    wall_seconds: f64,
    submitted: usize,
    placed: usize,
    rejected_capacity: u64,
    rejected_contention: u64,
    departures: usize,
    consolidations: usize,
    consolidations_improved: usize,
    fragmented_placements: usize,
    three_phase_jobs: usize,
    shared_hits: u64,
    shared_misses: u64,
    hit_rate: f64,
    /// Plans served (shared-cache lookups plus lowering-tier hits, each of
    /// which serves its plans without a lookup) per wall second.
    plans_per_sec: f64,
    jobs_per_sec: f64,
    checks_run: usize,
    checks_failed: usize,
    /// Wall-clock time-to-first-collective over placed multi-GPU jobs.
    ttfc: Percentiles,
    /// TTFC over the fragmented (multi-server) subset — the jobs whose first
    /// collective rides the three-phase protocol.
    ttfc_fragmented: Percentiles,
    work: Work,
}

#[derive(Serialize)]
struct ChaosSectionConfig {
    servers: usize,
    jobs: usize,
    collective_bytes: u64,
    workload_seed: u64,
    fault_seed: u64,
    mean_fault_interval: f64,
    mean_outage: f64,
    retry_max_attempts: u32,
}

/// The replay under the fault schedule.
#[derive(Serialize)]
struct ChaosSection {
    config: ChaosSectionConfig,
    wall_seconds: f64,
    submitted: usize,
    placed: usize,
    departures: usize,
    faults_injected: usize,
    heals_applied: usize,
    fault_recoveries: usize,
    /// Recoveries per degradation-ladder rung (tag -> count).
    recovery_rungs: BTreeMap<String, usize>,
    /// Fraction of all recoveries each rung absorbed — the fleet's
    /// degraded-mode occupancy.
    rung_occupancy: BTreeMap<String, f64>,
    gpus_shed: usize,
    evictions: usize,
    retries_scheduled: usize,
    retries_succeeded: usize,
    jobs_lost: usize,
    /// Wall-clock replan + recovery-probe span over jobs hit by a fault.
    recovery: Percentiles,
    /// Wall-clock replan span over jobs restored by a heal.
    restore: Percentiles,
    work: Work,
}

/// Heap allocations of one placed job's fixed steps.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
struct JobAllocations {
    /// `CommunicatorBuilder::from_placement(..).build()`.
    build: u64,
    /// The first AllReduce, a lowering-tier hit whose compiled form fits.
    first_collective: u64,
    /// Whether that first collective hit the lowering tier (recorded as
    /// context; the gate requires it).
    hit: bool,
}

/// The placements whose per-job allocations are recorded: a name and the
/// local GPU indices of the slice on each of its servers.
const ALLOCATION_PLACEMENTS: [(&str, &[&[usize]]); 3] = [
    ("2_gpus_1_server", &[&[0, 1]]),
    ("4_gpus_1_server", &[&[0, 1, 2, 3]]),
    ("2_2_gpus_2_servers", &[&[0, 1], &[0, 1]]),
];

/// Counts one build and one first AllReduce of `shape` (local GPU indices
/// per server) on a store warmed with the same shape on other servers: its
/// first placement lowers afresh and compiles the entry's form, its second
/// hits, its third is counted.
fn job_allocations(shape: &[&[usize]]) -> JobAllocations {
    let config = config(false);
    let store = SharedPlanCache::new();
    let gps = gpus_per_server(config.server_kind);
    let placement = |k: usize| -> Vec<(usize, Vec<GpuId>)> {
        shape
            .iter()
            .enumerate()
            .map(|(i, locals)| {
                let server = k * shape.len() + i;
                (
                    server,
                    locals.iter().map(|g| GpuId(server * gps + g)).collect(),
                )
            })
            .collect()
    };
    let (kind, bytes) = (CollectiveKind::AllReduce, config.collective_bytes);
    let build = |slices: &[(usize, Vec<GpuId>)]| {
        CommunicatorBuilder::from_placement(config.server_kind, config.nic_gbps, slices)
            .shared_plans(store.clone())
            .build()
            .expect("a fleet placement builds")
    };
    for k in 0..2 {
        build(&placement(k)).run(kind, bytes).expect("warm-up runs");
    }
    let slices = placement(2);
    let hits = store.lowering_stats().0;
    let before = allocations();
    let mut comm = build(&slices);
    let built = allocations();
    let report = comm.run(kind, bytes);
    let ran = allocations();
    report.expect("the counted first collective runs");
    JobAllocations {
        build: built - before,
        first_collective: ran - built,
        hit: store.lowering_stats().0 == hits + 1,
    }
}

/// Heap allocations of a job with nothing to hit: an isolated-store
/// communicator over DGX-1V GPUs {0, 1, 2, 3}, built and run through one
/// 64 MiB AllReduce, after one warm-up of the same (which leaves the
/// process's scratch pool warm).
fn cold_first_collective() -> u64 {
    let gpus = [0, 1, 2, 3].map(GpuId);
    let cold = |machine| {
        Communicator::builder(machine)
            .allocation(&gpus)
            .isolated_plans()
            .build()
            .and_then(|mut comm| comm.run(CollectiveKind::AllReduce, 64 << 20))
            .expect("a cold DGX-1V job runs")
    };
    cold(dgx1v());
    let machine = dgx1v();
    let before = allocations();
    cold(machine);
    allocations() - before
}

/// The fixed per-job costs: a hit first collective per placement, by name,
/// and one cold first collective. Serialised as one object, the cold count
/// beside the placements.
struct PerJobAllocations {
    placements: BTreeMap<String, JobAllocations>,
    cold_first_collective: u64,
}

impl Serialize for PerJobAllocations {
    fn to_value(&self) -> serde::Value {
        let mut map = serde::Map::new();
        for (name, a) in &self.placements {
            map.insert(name.clone(), a.to_value());
        }
        map.insert(
            "cold_first_collective".to_string(),
            self.cold_first_collective.to_value(),
        );
        serde::Value::Object(map)
    }
}

/// [`job_allocations`] of every [`ALLOCATION_PLACEMENTS`] entry, by name,
/// and [`cold_first_collective`].
fn per_job_allocations() -> PerJobAllocations {
    PerJobAllocations {
        placements: ALLOCATION_PLACEMENTS
            .iter()
            .map(|(name, shape)| (name.to_string(), job_allocations(shape)))
            .collect(),
        cold_first_collective: cold_first_collective(),
    }
}

/// The per-job allocation gate: every count at most its recording, and
/// every counted hit first collective a lowering-tier hit.
fn allocation_gate(recorded: Option<&serde::Value>, now: &PerJobAllocations) -> Vec<String> {
    let mut failures = over_recording(
        "per_job_allocations",
        recorded,
        &[("cold_first_collective", now.cold_first_collective as f64)],
    );
    for (name, a) in &now.placements {
        if !a.hit {
            failures.push(format!(
                "{name}: the counted first collective missed the lowering tier"
            ));
        }
        let counters = [
            ("build", a.build as f64),
            ("first_collective", a.first_collective as f64),
        ];
        let label = format!("per_job_allocations {name}");
        failures.extend(over_recording(
            &label,
            recorded.and_then(|r| r.get(name)),
            &counters,
        ));
    }
    failures
}

#[derive(Serialize)]
struct Report {
    fleet: FleetSection,
    chaos: ChaosSection,
    per_job_allocations: PerJobAllocations,
}

/// Placed multi-GPU jobs: the ones that run a real first collective.
fn multi_gpu(r: &FleetReport) -> impl Iterator<Item = &JobOutcome> {
    r.outcomes.iter().filter(|o| o.gpus >= 2)
}

fn fleet_section(run: &Run) -> FleetSection {
    let (r, config) = (&run.report, &run.config);
    let served = r.shared_hits + r.shared_misses + run.work.lowering_hits;
    let ttfc = |fragmented_only: bool| {
        percentiles(
            multi_gpu(r)
                .filter(|o| o.fragmented || !fragmented_only)
                .map(|o| o.ttfc_us)
                .collect(),
        )
    };
    FleetSection {
        config: FleetSectionConfig {
            servers: config.servers,
            jobs: config.jobs,
            collective_bytes: config.collective_bytes,
            check_every: config.check_every,
            seed: config.workload.seed,
        },
        wall_seconds: run.wall_seconds,
        submitted: r.submitted,
        placed: r.placed,
        rejected_capacity: r.rejected_capacity,
        rejected_contention: r.rejected_contention,
        departures: r.departures,
        consolidations: r.consolidations,
        consolidations_improved: r.consolidations_improved,
        fragmented_placements: multi_gpu(r).filter(|o| o.fragmented).count(),
        three_phase_jobs: multi_gpu(r)
            .filter(|o| o.strategy.contains("three-phase"))
            .count(),
        shared_hits: r.shared_hits,
        shared_misses: r.shared_misses,
        hit_rate: r.hit_rate(),
        plans_per_sec: served as f64 / run.wall_seconds,
        jobs_per_sec: r.submitted as f64 / run.wall_seconds,
        checks_run: r.checks_run,
        checks_failed: r.checks_failed,
        ttfc: ttfc(false),
        ttfc_fragmented: ttfc(true),
        work: run.work,
    }
}

/// Begin/end spans of one stage (the instantaneous fault/heal records have
/// zero duration and are excluded — spans are the per-job recoveries).
fn stage_spans(records: &[EventRecord], stage: Stage) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.stage == stage && r.duration_us() > 0.0)
        .map(EventRecord::duration_us)
        .collect()
}

fn chaos_section(run: &Run) -> ChaosSection {
    let (r, config) = (&run.report, &run.config);
    let faults = config.faults.clone().expect("the chaos replay has faults");
    let rung_occupancy = r
        .recovery_rungs
        .iter()
        .map(|(rung, &n)| (rung.clone(), n as f64 / r.fault_recoveries.max(1) as f64))
        .collect();
    ChaosSection {
        config: ChaosSectionConfig {
            servers: config.servers,
            jobs: config.jobs,
            collective_bytes: config.collective_bytes,
            workload_seed: config.workload.seed,
            fault_seed: faults.seed,
            mean_fault_interval: faults.mean_interval,
            mean_outage: faults.mean_outage,
            retry_max_attempts: MAX_RETRY_ATTEMPTS,
        },
        wall_seconds: run.wall_seconds,
        submitted: r.submitted,
        placed: r.placed,
        departures: r.departures,
        faults_injected: r.faults_injected,
        heals_applied: r.heals_applied,
        fault_recoveries: r.fault_recoveries,
        recovery_rungs: r.recovery_rungs.clone(),
        rung_occupancy,
        gpus_shed: r.gpus_shed,
        evictions: r.evictions,
        retries_scheduled: r.retries_scheduled,
        retries_succeeded: r.retries_succeeded,
        jobs_lost: r.jobs_lost,
        recovery: percentiles(stage_spans(&run.records, Stage::Fault)),
        restore: percentiles(stage_spans(&run.records, Stage::Heal)),
        work: run.work,
    }
}

/// Records of one stage in a replay's event stream.
fn events(run: &Run, stage: Stage) -> usize {
    run.records.iter().filter(|r| r.stage == stage).count()
}

/// The fault-free replay's result-quality gates.
fn fleet_gates(run: &Run, out: &FleetSection) -> Vec<String> {
    let mut failures = Vec::new();
    if out.checks_failed > 0 {
        failures.push(format!(
            "{} of {} sampled first collectives failed the value-level oracle",
            out.checks_failed, out.checks_run
        ));
    }
    if out.checks_run == 0 {
        failures.push("no first collectives were sampled for conformance".to_string());
    }
    if out.rejected_capacity > 0 {
        failures.push(format!(
            "{} jobs rejected for capacity — the workload must fit the cluster",
            out.rejected_capacity
        ));
    }
    let rejected = (out.rejected_contention + out.rejected_capacity) as usize;
    if out.placed + rejected != out.submitted {
        failures.push(format!(
            "accounting broken: {} placed + {rejected} rejected != {} submitted",
            out.placed, out.submitted
        ));
    }
    if out.shared_hits == 0 {
        failures.push("shared plan cache never hit across the whole fleet".to_string());
    }
    if out.work.lowering_hits == 0 {
        failures.push("no job took a lowering the fleet already made".to_string());
    }
    if out.fragmented_placements == 0 || out.three_phase_jobs == 0 {
        failures.push(format!(
            "stream produced {} fragmented placements / {} three-phase jobs — \
             the contended scenario the paper motivates never appeared",
            out.fragmented_placements, out.three_phase_jobs
        ));
    }
    if out.departures == 0 {
        failures.push("no departures: cache invalidation path never exercised".to_string());
    }
    // every placed job emitted its full Place -> Plan -> FirstCollective span
    // triple, every rejection its Reject event
    for (stage, expect) in [
        (Stage::Place, out.placed),
        (Stage::Plan, out.placed),
        (Stage::FirstCollective, out.placed),
        (Stage::Reject, rejected),
        (Stage::Depart, out.departures),
        (Stage::Consolidate, out.consolidations),
    ] {
        let got = events(run, stage);
        if got != expect {
            failures.push(format!(
                "event stream records {got} {stage:?} events, expected {expect}"
            ));
        }
    }
    if multi_gpu(&run.report).any(|o| o.rate_gbps <= 0.0) {
        failures.push("a placed multi-GPU job reported a zero collective rate".to_string());
    }
    failures
}

/// The chaos replay's result-quality gates.
fn chaos_gates(run: &Run, out: &ChaosSection) -> Vec<String> {
    let mut failures = Vec::new();
    if out.jobs_lost != 0 {
        failures.push(format!(
            "{} jobs lost — every eviction must be re-placed within its retry budget",
            out.jobs_lost
        ));
    }
    if run.report.retries_pending != 0 {
        failures.push(format!(
            "{} retries still pending after the tail drain",
            run.report.retries_pending
        ));
    }
    if out.faults_injected == 0 || out.heals_applied == 0 {
        failures.push(format!(
            "schedule injected {} faults / {} heals — the chaos never ran",
            out.faults_injected, out.heals_applied
        ));
    }
    if out.fault_recoveries == 0 {
        failures.push("no running job was ever hit by a fault".to_string());
    }
    if out.recovery_rungs.values().sum::<usize>() != out.fault_recoveries {
        failures.push("recovery rung counts do not sum to the recovery total".to_string());
    }
    if out.evictions > 0 && out.retries_scheduled == 0 {
        failures.push("evictions happened but no retry was ever scheduled".to_string());
    }
    // every retry attempt and every fault/heal leaves its event record
    if events(run, Stage::Retry) != out.retries_scheduled {
        failures.push(format!(
            "event stream records {} Retry spans, expected {}",
            events(run, Stage::Retry),
            out.retries_scheduled
        ));
    }
    if events(run, Stage::Fault) < out.faults_injected
        || events(run, Stage::Heal) < out.heals_applied
    {
        failures.push("fault/heal events are missing from the record stream".to_string());
    }
    failures
}

/// The work gate: no counter may exceed its recording, except lowering-tier
/// hits, which may not fall below theirs. A hit is a fresh lowering
/// avoided, and `fresh_lowerings` already bounds that work from above.
fn work_gate(recorded: Option<&serde::Value>, work: &Work) -> Vec<String> {
    let counters: Vec<(&str, f64)> = work
        .counters()
        .into_iter()
        .filter(|&(key, _)| key != "lowering_hits")
        .map(|(key, n)| (key, n as f64))
        .collect();
    let mut failures = over_recording("work", recorded, &counters);
    let hits = work.lowering_hits;
    match recorded
        .and_then(|r| r.get("lowering_hits"))
        .and_then(|v| v.as_u64())
    {
        Some(rec) if hits < rec => failures.push(format!(
            "work lowering_hits is {hits}, below the recorded {rec}"
        )),
        Some(_) => {}
        None => failures.push("work lowering_hits is not recorded".to_string()),
    }
    failures
}

/// Two replays of one configuration must agree on everything but wall
/// time: event order, every counter, and each job's strategy and simulated
/// rate, bit for bit.
fn determinism_gate(a: &Run, b: &Run) -> Vec<String> {
    let order = |run: &Run| -> Vec<(u64, Stage)> {
        run.records.iter().map(|r| (r.job_id, r.stage)).collect()
    };
    let counters = |r: &FleetReport| {
        (
            (r.placed, r.departures, r.consolidations),
            (r.shared_hits, r.shared_misses, r.checks_run),
            (r.faults_injected, r.heals_applied, r.fault_recoveries),
            (r.evictions, r.retries_scheduled, r.retries_succeeded),
            (r.jobs_lost, r.gpus_shed, r.recovery_rungs.clone()),
        )
    };
    let mut failures = Vec::new();
    if order(a) != order(b) {
        failures.push("event order differs between two replays".to_string());
    }
    if counters(&a.report) != counters(&b.report) || a.work != b.work {
        failures.push("counters differ between two replays".to_string());
    }
    let (ra, rb) = (&a.report.outcomes, &b.report.outcomes);
    if let Some((oa, _)) = ra.iter().zip(rb).find(|(oa, ob)| {
        oa.job_id != ob.job_id
            || oa.rate_gbps.to_bits() != ob.rate_gbps.to_bits()
            || oa.strategy != ob.strategy
    }) {
        failures.push(format!("job {} diverged between two replays", oa.job_id));
    }
    failures
}

fn main() {
    let check_mode = std::env::args().any(|a| a == "--check");
    let (fleet, chaos) = (replay(config(false)), replay(config(true)));
    let out = Report {
        fleet: fleet_section(&fleet),
        chaos: chaos_section(&chaos),
        per_job_allocations: per_job_allocations(),
    };

    let f = &out.fleet;
    eprintln!(
        "fleet: {} submitted, {} placed ({} fragmented, {} three-phase), \
         {} rejected (contention), {} departures, {} consolidations ({} improved)",
        f.submitted,
        f.placed,
        f.fragmented_placements,
        f.three_phase_jobs,
        f.rejected_contention,
        f.departures,
        f.consolidations,
        f.consolidations_improved,
    );
    eprintln!(
        "plans: {} lookups ({} hits, {:.1}% hit rate); oracle: {} sampled first \
         collectives, {} failures",
        f.shared_hits + f.shared_misses,
        f.shared_hits,
        100.0 * f.hit_rate,
        f.checks_run,
        f.checks_failed,
    );
    let c = &out.chaos;
    eprintln!(
        "chaos: {} submitted, {} placed, {} faults / {} heals, {} recoveries, \
         {} GPUs shed, {} evictions",
        c.submitted,
        c.placed,
        c.faults_injected,
        c.heals_applied,
        c.fault_recoveries,
        c.gpus_shed,
        c.evictions,
    );
    eprintln!(
        "ladder: {:?}; retries: {} scheduled, {} succeeded, {} jobs lost",
        c.recovery_rungs, c.retries_scheduled, c.retries_succeeded, c.jobs_lost,
    );
    eprintln!("fleet work: {:?}", f.work);
    eprintln!("chaos work: {:?}", c.work);
    let per_job = &out.per_job_allocations;
    for (name, a) in &per_job.placements {
        eprintln!(
            "{name}: build {} allocations, hit first collective {}",
            a.build, a.first_collective
        );
    }
    eprintln!(
        "cold DGX-1V 4-GPU build and first collective: {} allocations",
        per_job.cold_first_collective
    );
    eprintln!(
        "wall (context only): TTFC {}; {:.0} plans/sec; chaos recovery {}",
        f.ttfc, f.plans_per_sec, c.recovery
    );

    if !check_mode {
        let json = serde_json::to_string_pretty(&out).expect("serializable");
        std::fs::write("BENCH_fleet.json", &json).expect("write BENCH_fleet.json");
        println!("{json}");
        return;
    }

    let recorded =
        std::fs::read_to_string("BENCH_fleet.json").expect("BENCH_fleet.json exists for --check");
    let recorded = serde_json::parse(&recorded).expect("BENCH_fleet.json parses");
    let mut failures = fleet_gates(&fleet, &out.fleet);
    failures.extend(chaos_gates(&chaos, &out.chaos));
    for (name, run) in [("fleet", &fleet), ("chaos", &chaos)] {
        let section = recorded.get(name).and_then(|s| s.get("work"));
        let rerun = replay(run.config.clone());
        for failure in work_gate(section, &run.work)
            .into_iter()
            .chain(determinism_gate(run, &rerun))
        {
            failures.push(format!("{name}: {failure}"));
        }
    }
    failures.extend(allocation_gate(
        recorded.get("per_job_allocations"),
        &out.per_job_allocations,
    ));
    if failures.is_empty() {
        eprintln!(
            "fleet check passed: work within the recording, conformant, cache hitting, \
             accounting balanced, zero jobs lost, replays bit-identical, per-job \
             allocations within the recording"
        );
        return;
    }
    for f in &failures {
        eprintln!("REGRESSION: {f}");
    }
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    const WORK: Work = Work {
        fresh_lowerings: 226,
        lowering_hits: 184,
        lowered_ops: 40_000,
        packs: 341,
        failed_packs: 30,
        mwu_iterations: 14_842,
        engine_runs: 410,
        scratches_created: 2,
    };

    fn recorded() -> serde::Value {
        serde_json::to_value(&WORK).unwrap()
    }

    #[test]
    fn the_work_gate_passes_at_the_recording() {
        assert!(work_gate(Some(&recorded()), &WORK).is_empty());
    }

    #[test]
    fn the_work_gate_fails_any_counter_one_worse_than_its_recording() {
        let bumps: [fn(&mut Work); 8] = [
            |w| w.fresh_lowerings += 1,
            |w| w.lowering_hits -= 1,
            |w| w.lowered_ops += 1,
            |w| w.packs += 1,
            |w| w.failed_packs += 1,
            |w| w.mwu_iterations += 1,
            |w| w.engine_runs += 1,
            |w| w.scratches_created += 1,
        ];
        for (bump, (key, _)) in bumps.iter().zip(WORK.counters()) {
            let mut work = WORK;
            bump(&mut work);
            let failures = work_gate(Some(&recorded()), &work);
            assert_eq!(failures.len(), 1, "{key}: {failures:?}");
            assert!(failures[0].contains(key), "{failures:?}");
        }
    }

    #[test]
    fn the_work_gate_passes_more_lowering_hits_than_recorded() {
        let work = Work {
            lowering_hits: WORK.lowering_hits + 4,
            ..WORK
        };
        assert!(work_gate(Some(&recorded()), &work).is_empty());
    }

    #[test]
    fn the_work_gate_fails_a_counter_missing_from_the_recording() {
        let mut recorded = recorded();
        if let serde::Value::Object(map) = &mut recorded {
            map.remove("mwu_iterations");
        }
        let failures = work_gate(Some(&recorded), &WORK);
        assert_eq!(failures, ["work mwu_iterations is not recorded"]);
        assert_eq!(work_gate(None, &WORK).len(), WORK.counters().len());
    }

    #[test]
    fn the_allocation_gate_fails_a_count_over_its_recording_and_a_miss() {
        let at = JobAllocations {
            build: 13,
            first_collective: 1,
            hit: true,
        };
        let per_job = |name: &str, a: JobAllocations, cold: u64| PerJobAllocations {
            placements: BTreeMap::from([(name.to_string(), a)]),
            cold_first_collective: cold,
        };
        let recorded = per_job("2_gpus_1_server", at, 166).to_value();
        let gate = |a: JobAllocations| {
            allocation_gate(Some(&recorded), &per_job("2_gpus_1_server", a, 166))
        };
        assert!(gate(at).is_empty());
        let colder = allocation_gate(Some(&recorded), &per_job("2_gpus_1_server", at, 167));
        assert_eq!(colder.len(), 1, "{colder:?}");
        assert!(colder[0].contains("cold_first_collective"), "{colder:?}");
        for (over, key) in [
            (JobAllocations { build: 14, ..at }, "build"),
            (
                JobAllocations {
                    first_collective: 2,
                    ..at
                },
                "first_collective",
            ),
        ] {
            let failures = gate(over);
            assert_eq!(failures.len(), 1, "{failures:?}");
            assert!(failures[0].contains(key), "{failures:?}");
        }
        let missed = gate(JobAllocations { hit: false, ..at });
        assert_eq!(missed.len(), 1, "{missed:?}");
        assert!(missed[0].contains("missed the lowering tier"), "{missed:?}");
        // a placement missing from the recording fails both counts
        let unrecorded = allocation_gate(Some(&recorded), &per_job("4_gpus_1_server", at, 166));
        assert_eq!(unrecorded.len(), 2, "{unrecorded:?}");
    }

    #[test]
    fn the_determinism_gate_fails_on_one_flipped_rate_bit() {
        let run = replay(FleetConfig {
            jobs: 60,
            ..config(false)
        });
        assert!(determinism_gate(&run, &run.clone()).is_empty());
        let mut flipped = run.clone();
        let job = flipped
            .report
            .outcomes
            .iter_mut()
            .find(|o| o.gpus >= 2)
            .expect("a multi-GPU job among the first 60");
        job.rate_gbps = f64::from_bits(job.rate_gbps.to_bits() ^ 1);
        let failures = determinism_gate(&run, &flipped);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("diverged"), "{failures:?}");
    }
}
