//! Chaos-tested fleet: a seeded fault schedule driven through the full
//! submit → place → plan → run loop.
//!
//! Drives `blink-sched`'s [`FleetPipeline`] over the contended Figure 3
//! workload on an 8-server DGX-1V cluster while a seeded
//! [`blink_sched::FaultInjector`] flaps NVLink pairs, drops GPUs, degrades
//! NICs and kills whole servers. Every affected running job replans through
//! `Communicator::replan`'s graceful-degradation ladder (full warm repair →
//! packed replan → PCIe fallback → shrunk subgroup) and re-runs its
//! collective as a recovery probe; jobs whose every GPU is lost are evicted
//! and re-offered under the bounded retry policy. Measures recovery-latency
//! percentiles (the wall-clock replan + probe spans) and the
//! degraded-mode occupancy of each ladder rung.
//!
//! Without arguments: runs the job stream and writes `BENCH_chaos.json` to
//! the working directory.
//!
//! With `--check`: re-measures the same stream (it takes well under a
//! second) and compares it against the recorded file, like with like. The
//! deterministic gates run on every runner and are what this bench exists
//! for:
//!
//! * **zero jobs lost** — every evicted job must be re-placed within its
//!   retry budget, and the retry queue must drain empty;
//! * **zero-iteration warm repair** — every recovery that reported
//!   `full-warm-repair` must have reached its (1-ε)·certificate bound in
//!   exactly zero MWU iterations;
//! * **pure-function replay** — two runs over one `(workload seed, fault
//!   seed)` pair must agree event-for-event and bit-for-bit on rates.
//!
//! The wall-clock recovery-latency gates need a machine with >= 2 workers
//! and are loudly SKIPPED otherwise. Exits non-zero on regression.

use blink_bench::{percentiles, runner_cpus, Percentiles};
use blink_sched::{EventRecord, FaultConfig, FleetConfig, FleetPipeline, FleetReport, Stage};
use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

/// Wall-clock metrics (recovery percentiles) may drift this factor against
/// the recorded trajectory before `--check` fails.
const CHECK_TOLERANCE: f64 = 4.0;
/// Jobs in the recorded and the checked run.
const JOBS: usize = 2_000;

#[derive(Serialize)]
struct Config {
    workers: usize,
    servers: usize,
    jobs: usize,
    collective_bytes: u64,
    workload_seed: u64,
    fault_seed: u64,
    mean_fault_interval: f64,
    mean_outage: f64,
    retry_max_attempts: u32,
    check_tolerance: f64,
}

#[derive(Serialize)]
struct Report {
    config: Config,
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
    recoveries_full_warm: usize,
    recoveries_full_warm_zero_iter: usize,
    gpus_shed: usize,
    evictions: usize,
    retries_scheduled: usize,
    retries_succeeded: usize,
    jobs_lost: usize,
    /// Wall-clock replan + recovery-probe span over jobs hit by a fault.
    recovery: Percentiles,
    /// Wall-clock replan span over jobs restored by a heal.
    restore: Percentiles,
}

fn fleet_config() -> FleetConfig {
    FleetConfig {
        jobs: JOBS,
        faults: Some(FaultConfig::default()),
        ..Default::default()
    }
}

struct Run {
    report: FleetReport,
    order: Vec<(u64, Stage)>,
    records: Vec<EventRecord>,
    wall_seconds: f64,
}

fn run_chaos(config: FleetConfig) -> Run {
    let mut pipeline = FleetPipeline::new(config);
    let t0 = Instant::now();
    let report = pipeline.run().expect("chaos fleet runs to completion");
    let wall_seconds = t0.elapsed().as_secs_f64();
    Run {
        report,
        order: pipeline.monitor().order(),
        records: pipeline.monitor().records().to_vec(),
        wall_seconds,
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

fn build_report(run: &Run, config: &FleetConfig) -> Report {
    let r = &run.report;
    let faults = config.faults.clone().expect("chaos config has faults");
    let rung_occupancy = r
        .recovery_rungs
        .iter()
        .map(|(rung, &n)| (rung.clone(), n as f64 / r.fault_recoveries.max(1) as f64))
        .collect();
    Report {
        config: Config {
            workers: runner_cpus(),
            servers: config.servers,
            jobs: config.jobs,
            collective_bytes: config.collective_bytes,
            workload_seed: config.workload.seed,
            fault_seed: faults.seed,
            mean_fault_interval: faults.mean_interval,
            mean_outage: faults.mean_outage,
            retry_max_attempts: config.retry.max_attempts,
            check_tolerance: CHECK_TOLERANCE,
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
        recoveries_full_warm: r.recoveries_full_warm,
        recoveries_full_warm_zero_iter: r.recoveries_full_warm_zero_iter,
        gpus_shed: r.gpus_shed,
        evictions: r.evictions,
        retries_scheduled: r.retries_scheduled,
        retries_succeeded: r.retries_succeeded,
        jobs_lost: r.jobs_lost,
        recovery: percentiles(stage_spans(&run.records, Stage::Fault)),
        restore: percentiles(stage_spans(&run.records, Stage::Heal)),
    }
}

/// The deterministic result-quality gates — properties of the chaos loop
/// itself, independent of runner speed.
fn hard_gates(run: &Run, out: &Report) -> Vec<String> {
    let r = &run.report;
    let mut failures = Vec::new();
    if out.jobs_lost != 0 {
        failures.push(format!(
            "{} jobs lost — every eviction must be re-placed within its retry budget",
            out.jobs_lost
        ));
    }
    if r.retries_pending != 0 {
        failures.push(format!(
            "{} retries still pending after the tail drain",
            r.retries_pending
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
    if out.recoveries_full_warm != out.recoveries_full_warm_zero_iter {
        failures.push(format!(
            "{} of {} full warm repairs needed MWU iterations — the \
             zero-iteration warm-repair guarantee is broken",
            out.recoveries_full_warm - out.recoveries_full_warm_zero_iter,
            out.recoveries_full_warm
        ));
    }
    if out.recovery_rungs.values().sum::<usize>() != out.fault_recoveries {
        failures.push("recovery rung counts do not sum to the recovery total".to_string());
    }
    if !out.recovery_rungs.contains_key("full-warm-repair") {
        failures.push("no recovery ever took the full-warm-repair rung".to_string());
    }
    if out.evictions > 0 && out.retries_scheduled == 0 {
        failures.push("evictions happened but no retry was ever scheduled".to_string());
    }
    let count = |stage: Stage| run.order.iter().filter(|&&(_, s)| s == stage).count();
    // every retry attempt and every fault/heal leaves its event record
    if count(Stage::Retry) != out.retries_scheduled {
        failures.push(format!(
            "event stream records {} Retry spans, expected {}",
            count(Stage::Retry),
            out.retries_scheduled
        ));
    }
    if count(Stage::Fault) < out.faults_injected || count(Stage::Heal) < out.heals_applied {
        failures.push("fault/heal events are missing from the record stream".to_string());
    }
    failures
}

/// Two runs over one `(workload seed, fault seed)` pair must agree on
/// everything but wall-clock.
fn determinism_gate(a: &Run, b: &Run) -> Vec<String> {
    let mut failures = Vec::new();
    if a.order != b.order {
        failures.push("event order differs between two runs of one seed pair".to_string());
    }
    let (ra, rb) = (&a.report, &b.report);
    if (
        ra.faults_injected,
        ra.heals_applied,
        ra.fault_recoveries,
        ra.evictions,
        ra.retries_scheduled,
        ra.retries_succeeded,
        ra.jobs_lost,
        ra.gpus_shed,
    ) != (
        rb.faults_injected,
        rb.heals_applied,
        rb.fault_recoveries,
        rb.evictions,
        rb.retries_scheduled,
        rb.retries_succeeded,
        rb.jobs_lost,
        rb.gpus_shed,
    ) || ra.recovery_rungs != rb.recovery_rungs
    {
        failures.push("chaos counters differ between two runs of one seed pair".to_string());
    }
    for (oa, ob) in ra.outcomes.iter().zip(&rb.outcomes) {
        if oa.job_id != ob.job_id || oa.rate_gbps.to_bits() != ob.rate_gbps.to_bits() {
            failures.push(format!(
                "job {} diverged between two runs of one seed pair",
                oa.job_id
            ));
            break;
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
    for (label, measured, path) in [
        ("recovery p50", out.recovery.p50_us, ["recovery", "p50_us"]),
        ("recovery p99", out.recovery.p99_us, ["recovery", "p99_us"]),
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
    let run = run_chaos(config.clone());
    let out = build_report(&run, &config);

    eprintln!(
        "chaos: {} submitted, {} placed, {} faults / {} heals, {} recoveries, \
         {} GPUs shed, {} evictions",
        out.submitted,
        out.placed,
        out.faults_injected,
        out.heals_applied,
        out.fault_recoveries,
        out.gpus_shed,
        out.evictions,
    );
    eprintln!(
        "ladder: {:?}; full warm {} ({} zero-iteration)",
        out.recovery_rungs, out.recoveries_full_warm, out.recoveries_full_warm_zero_iter,
    );
    eprintln!(
        "retries: {} scheduled, {} succeeded, {} jobs lost; recovery p50 {:.0} us, \
         p99 {:.0} us over {} spans",
        out.retries_scheduled,
        out.retries_succeeded,
        out.jobs_lost,
        out.recovery.p50_us,
        out.recovery.p99_us,
        out.recovery.samples,
    );

    if check_mode {
        let recorded = std::fs::read_to_string("BENCH_chaos.json")
            .expect("BENCH_chaos.json exists for --check");
        let recorded = serde_json::parse(&recorded).expect("BENCH_chaos.json parses");

        let mut hard_failures = hard_gates(&run, &out);
        let rerun = run_chaos(fleet_config());
        hard_failures.extend(determinism_gate(&run, &rerun));

        let mut latency_failures = Vec::new();
        if out.config.workers < 2 {
            eprintln!(
                "=================================================================\n\
                 SKIPPED: chaos latency gates NOT enforced — this runner exposes\n\
                 only {} worker(s), so the recovery percentiles above are\n\
                 noise-dominated. The zero-jobs-lost, zero-iteration warm-repair\n\
                 and determinism gates above still ran. Run --check on a machine\n\
                 with >= 2 cores to arm the recovery-latency trajectory gates\n\
                 ({CHECK_TOLERANCE}x band against BENCH_chaos.json).\n\
                 =================================================================",
                out.config.workers
            );
        } else {
            latency_failures.extend(check_against_recorded(&recorded, &out));
        }

        if hard_failures.is_empty() && latency_failures.is_empty() {
            eprintln!(
                "chaos check passed: zero jobs lost, warm repairs at zero \
                 iterations, replay bit-identical"
            );
            return;
        }
        for f in hard_failures.iter().chain(&latency_failures) {
            eprintln!("REGRESSION: {f}");
        }
        std::process::exit(1);
    }

    let json = serde_json::to_string_pretty(&out).expect("serializable");
    std::fs::write("BENCH_chaos.json", &json).expect("write BENCH_chaos.json");
    println!("{json}");
}
