//! Fleet-service planning-loop throughput: submit → place → plan → run over
//! thousands of jobs.
//!
//! Drives `blink-sched`'s [`FleetPipeline`] over the contended Figure 3
//! workload on an 8-server DGX-1V cluster: every placed job gets a
//! communicator over its placement-induced slice topology, plans through one
//! fleet-wide shared plan cache, and runs its first AllReduce on the
//! simulator; departures trigger delta-based consolidation replans. Measures
//! sustained planning throughput (plans served per second: plan-store
//! lookups plus lowering-tier hits), the shared-cache hit rate, and p50/p99
//! wall-clock time-to-first-collective, plus the run's deterministic work:
//! fresh lowerings, lowering-tier hits, packs (plan-store misses) and
//! planner scratches created.
//!
//! Without arguments: runs the job stream and writes `BENCH_fleet.json` to
//! the working directory.
//!
//! With `--check`: re-measures the same stream (it takes well under a second)
//! and compares it against the recorded file, like with like.
//! Deterministic gates are enforced on every runner — sampled first
//! collectives must pass the value-level oracle, the shared cache and the
//! lowering tier must actually hit, the stream must fragment (else the run
//! proves nothing about the paper's scenario), accounting must balance, two
//! runs over one seed must agree event-for-event and bit-for-bit on
//! simulated rates, and no work count may exceed the recorded `work`
//! (scratches created may reach the runner's worker count, the most the plan
//! store's fan-out checks out at once). The wall-clock latency gates (TTFC
//! percentiles, plans/sec vs the recording) need a machine with >= 2
//! workers and are loudly SKIPPED otherwise, mirroring the other benches.
//! Exits non-zero on regression.

use blink_bench::{percentiles, runner_cpus, Percentiles};
use blink_sched::{FleetConfig, FleetPipeline, FleetReport, Stage, WorkloadConfig};
use serde::Serialize;
use std::time::Instant;

/// Wall-clock metrics (TTFC percentiles, plans/sec) may drift this factor
/// against the recorded trajectory before `--check` fails.
const CHECK_TOLERANCE: f64 = 4.0;
/// Jobs in the recorded and the checked run.
const JOBS: usize = 2_000;

#[derive(Serialize)]
struct Config {
    workers: usize,
    servers: usize,
    jobs: usize,
    collective_bytes: u64,
    check_every: usize,
    seed: u64,
    check_tolerance: f64,
}

/// A run's deterministic work, read off the fleet's plan store.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
struct Work {
    /// Lowering-tier misses: collectives lowered afresh.
    fresh_lowerings: u64,
    /// Lowering-tier hits: collectives that took a stored lowering.
    lowering_hits: u64,
    /// Plan-store misses: plans packed.
    packs: u64,
    /// Planner scratches the store's pool created.
    scratches_created: u64,
}

#[derive(Serialize)]
struct Report {
    config: Config,
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
    /// which serves its plans without a lookup) per wall second — the
    /// fleet's sustained planning throughput.
    plans_per_sec: f64,
    jobs_per_sec: f64,
    checks_run: usize,
    checks_failed: usize,
    /// Wall-clock time-to-first-collective over placed multi-GPU jobs.
    ttfc: Percentiles,
    /// TTFC over the fragmented (multi-server) subset — the jobs whose first
    /// collective rides the three-phase protocol.
    ttfc_fragmented: Percentiles,
    /// This run's deterministic work.
    work: Work,
}

fn fleet_config() -> FleetConfig {
    FleetConfig {
        jobs: JOBS,
        check_every: 50,
        ..Default::default()
    }
}

struct Run {
    report: FleetReport,
    order: Vec<(u64, Stage)>,
    wall_seconds: f64,
    work: Work,
}

fn run_fleet(config: FleetConfig) -> Run {
    let mut pipeline = FleetPipeline::new(config);
    let t0 = Instant::now();
    let report = pipeline.run().expect("fleet pipeline runs to completion");
    let wall_seconds = t0.elapsed().as_secs_f64();
    let store = pipeline.shared_cache();
    let (lowering_hits, fresh_lowerings) = store.lowering_stats();
    Run {
        work: Work {
            fresh_lowerings,
            lowering_hits,
            packs: store.stats().1,
            scratches_created: store.scratch().created(),
        },
        report,
        order: pipeline.monitor().order(),
        wall_seconds,
    }
}

fn build_report(run: &Run, workload: &WorkloadConfig, config: &FleetConfig) -> Report {
    let r = &run.report;
    let multi: Vec<&blink_sched::JobOutcome> = r.outcomes.iter().filter(|o| o.gpus >= 2).collect();
    let served = r.shared_hits + r.shared_misses + run.work.lowering_hits;
    Report {
        config: Config {
            workers: runner_cpus(),
            servers: config.servers,
            jobs: config.jobs,
            collective_bytes: config.collective_bytes,
            check_every: config.check_every,
            seed: workload.seed,
            check_tolerance: CHECK_TOLERANCE,
        },
        wall_seconds: run.wall_seconds,
        submitted: r.submitted,
        placed: r.placed,
        rejected_capacity: r.rejected_capacity,
        rejected_contention: r.rejected_contention,
        departures: r.departures,
        consolidations: r.consolidations,
        consolidations_improved: r.consolidations_improved,
        fragmented_placements: multi.iter().filter(|o| o.fragmented).count(),
        three_phase_jobs: multi
            .iter()
            .filter(|o| o.strategy.contains("three-phase"))
            .count(),
        shared_hits: r.shared_hits,
        shared_misses: r.shared_misses,
        hit_rate: r.hit_rate(),
        plans_per_sec: served as f64 / run.wall_seconds,
        jobs_per_sec: r.submitted as f64 / run.wall_seconds,
        checks_run: r.checks_run,
        checks_failed: r.checks_failed,
        ttfc: percentiles(multi.iter().map(|o| o.ttfc_us).collect()),
        ttfc_fragmented: percentiles(
            multi
                .iter()
                .filter(|o| o.fragmented)
                .map(|o| o.ttfc_us)
                .collect(),
        ),
        work: run.work,
    }
}

/// The deterministic result-quality gates — properties of the planning loop
/// itself, independent of runner speed.
fn hard_gates(run: &Run, out: &Report) -> Vec<String> {
    let r = &run.report;
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
    if out.placed + out.rejected_contention as usize + out.rejected_capacity as usize
        != out.submitted
    {
        failures.push(format!(
            "accounting broken: {} placed + {} rejected != {} submitted",
            out.placed,
            out.rejected_contention + out.rejected_capacity,
            out.submitted
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
    let count = |stage: Stage| run.order.iter().filter(|&&(_, s)| s == stage).count();
    for (stage, expect) in [
        (Stage::Place, out.placed),
        (Stage::Plan, out.placed),
        (Stage::FirstCollective, out.placed),
        (
            Stage::Reject,
            (out.rejected_contention + out.rejected_capacity) as usize,
        ),
        (Stage::Depart, out.departures),
        (Stage::Consolidate, out.consolidations),
    ] {
        let got = count(stage);
        if got != expect {
            failures.push(format!(
                "event stream records {got} {stage:?} events, expected {expect}"
            ));
        }
    }
    if r.outcomes.iter().any(|o| o.gpus >= 2 && o.rate_gbps <= 0.0) {
        failures.push("a placed multi-GPU job reported a zero collective rate".to_string());
    }
    failures
}

/// Two runs over one seed must agree on everything but wall-clock: event
/// order, placements, simulated rates (bit-for-bit), cache and rejection
/// counters.
fn determinism_gate(a: &Run, b: &Run) -> Vec<String> {
    let mut failures = Vec::new();
    if a.order != b.order {
        failures.push("event order differs between two runs of one seed".to_string());
    }
    let (ra, rb) = (&a.report, &b.report);
    if (
        ra.placed,
        ra.departures,
        ra.consolidations,
        ra.shared_hits,
        ra.shared_misses,
        a.work.lowering_hits,
        a.work.fresh_lowerings,
    ) != (
        rb.placed,
        rb.departures,
        rb.consolidations,
        rb.shared_hits,
        rb.shared_misses,
        b.work.lowering_hits,
        b.work.fresh_lowerings,
    ) {
        failures.push("fleet counters differ between two runs of one seed".to_string());
    }
    for (oa, ob) in ra.outcomes.iter().zip(&rb.outcomes) {
        if oa.job_id != ob.job_id
            || oa.rate_gbps.to_bits() != ob.rate_gbps.to_bits()
            || oa.strategy != ob.strategy
        {
            failures.push(format!(
                "job {} diverged between two runs of one seed",
                oa.job_id
            ));
            break;
        }
    }
    failures
}

/// The work gates: no count of `work` may exceed the recorded one, except
/// that scratches created may reach `workers`.
fn work_gates(recorded: &serde::Value, work: &Work, workers: usize) -> Vec<String> {
    let Some(bound) = recorded.get("work") else {
        return vec!["BENCH_fleet.json records no work".to_string()];
    };
    let mut failures = Vec::new();
    for (key, measured, floor) in [
        ("fresh_lowerings", work.fresh_lowerings, 0),
        ("lowering_hits", work.lowering_hits, 0),
        ("packs", work.packs, 0),
        ("scratches_created", work.scratches_created, workers as u64),
    ] {
        match bound.get(key).and_then(serde::Value::as_f64) {
            Some(recorded) if measured > (recorded as u64).max(floor) => {
                failures.push(format!("{key}: {measured}, above the recorded {recorded}"))
            }
            Some(_) => {}
            None => failures.push(format!("the recorded work has no {key}")),
        }
    }
    failures
}

fn check_against_recorded(recorded: &serde::Value, out: &Report) -> Vec<String> {
    let mut failures = Vec::new();
    let rec = |path: &[&str]| -> Option<f64> {
        let mut v = recorded;
        for key in path {
            v = v.get(key)?;
        }
        v.as_f64()
    };
    if let Some(rec_pps) = rec(&["plans_per_sec"]) {
        if out.plans_per_sec < rec_pps / CHECK_TOLERANCE {
            failures.push(format!(
                "plans/sec at {:.0}, more than {CHECK_TOLERANCE}x below the recorded {:.0}",
                out.plans_per_sec, rec_pps
            ));
        }
    }
    for (label, measured, path) in [
        ("TTFC p50", out.ttfc.p50_us, ["ttfc", "p50_us"]),
        ("TTFC p99", out.ttfc.p99_us, ["ttfc", "p99_us"]),
    ] {
        if let Some(recorded_us) = rec(&path) {
            if measured > recorded_us * CHECK_TOLERANCE {
                failures.push(format!(
                    "{label} at {measured:.0} us, more than {CHECK_TOLERANCE}x above \
                     the recorded {recorded_us:.0} us"
                ));
            }
        }
    }
    failures
}

fn main() {
    let check_mode = std::env::args().any(|a| a == "--check");
    let config = fleet_config();
    let workload = config.workload.clone();
    let run = run_fleet(config.clone());
    let out = build_report(&run, &workload, &config);

    eprintln!(
        "fleet: {} submitted, {} placed ({} fragmented, {} three-phase), \
         {} rejected (contention), {} departures, {} consolidations ({} improved)",
        out.submitted,
        out.placed,
        out.fragmented_placements,
        out.three_phase_jobs,
        out.rejected_contention,
        out.departures,
        out.consolidations,
        out.consolidations_improved,
    );
    eprintln!(
        "plans: {} lookups ({} hits, {:.1}% hit rate), {:.0} plans/sec, {:.1} jobs/sec",
        out.shared_hits + out.shared_misses,
        out.shared_hits,
        100.0 * out.hit_rate,
        out.plans_per_sec,
        out.jobs_per_sec,
    );
    eprintln!(
        "TTFC (multi-GPU): p50 {:.0} us, p99 {:.0} us over {} jobs; \
         fragmented subset: p50 {:.0} us, p99 {:.0} us over {} jobs",
        out.ttfc.p50_us,
        out.ttfc.p99_us,
        out.ttfc.samples,
        out.ttfc_fragmented.p50_us,
        out.ttfc_fragmented.p99_us,
        out.ttfc_fragmented.samples,
    );
    eprintln!(
        "oracle: {} sampled first collectives, {} failures",
        out.checks_run, out.checks_failed
    );
    eprintln!("work: {:?}", out.work);

    if check_mode {
        let recorded = std::fs::read_to_string("BENCH_fleet.json")
            .expect("BENCH_fleet.json exists for --check");
        let recorded = serde_json::parse(&recorded).expect("BENCH_fleet.json parses");

        let mut hard_failures = hard_gates(&run, &out);
        hard_failures.extend(work_gates(&recorded, &out.work, out.config.workers));
        let rerun = run_fleet(fleet_config());
        hard_failures.extend(determinism_gate(&run, &rerun));

        let mut latency_failures = Vec::new();
        if out.config.workers < 2 {
            eprintln!(
                "=================================================================\n\
                 SKIPPED: fleet latency gates NOT enforced — this runner exposes\n\
                 only {} worker(s) (std::thread::available_parallelism), so the\n\
                 TTFC percentiles and plans/sec above are noise-dominated. The\n\
                 conformance, determinism, cache-hit and accounting gates above\n\
                 still ran. Run --check on a machine with >= 2 cores to arm the\n\
                 TTFC and plans/sec trajectory gates ({CHECK_TOLERANCE}x band\n\
                 against BENCH_fleet.json).\n\
                 =================================================================",
                out.config.workers
            );
        } else {
            latency_failures.extend(check_against_recorded(&recorded, &out));
        }

        if hard_failures.is_empty() && latency_failures.is_empty() {
            eprintln!(
                "fleet check passed: conformant, deterministic, cache hitting, \
                 accounting balanced"
            );
            return;
        }
        for f in hard_failures.iter().chain(&latency_failures) {
            eprintln!("REGRESSION: {f}");
        }
        std::process::exit(1);
    }

    let json = serde_json::to_string_pretty(&out).expect("serializable");
    std::fs::write("BENCH_fleet.json", &json).expect("write BENCH_fleet.json");
    println!("{json}");
}
