//! Warm-vs-cold replan latency across failure and elasticity scenarios.
//!
//! Each scenario applies a [`TopologyDelta`] — kill a link, drop a GPU, grow
//! the job — to a planned communicator and measures how long
//! [`Communicator::replan`] takes when the plan cache warm-starts packing and
//! minimisation from the stale plans (warm) versus when the same delta lands
//! on a communicator with an empty cache and every root the sweep packs
//! starts from scratch (cold). Both paths run the exact same `replan` code;
//! the only difference is whether delta invalidation had stale plans to
//! demote into seeds. Each communicator plans through a fresh
//! [`SharedPlanCache`], whose misses count the root packs one replan
//! performs (`warm_packs` / `cold_packs`).
//!
//! Without arguments: measures with full run counts and writes
//! `BENCH_replan.json` to the working directory (repo root under
//! `cargo run -p blink-bench --bin bench_replan --release`).
//!
//! With `--check`: quick re-measurement compared against the recorded file.
//! Result-quality gates (replanned programs conformant, warm rate never worse
//! than cold on pure-removal scenarios) and the work gate (no scenario packs
//! more roots per replan than recorded) are enforced on every runner; the
//! latency gates (warm-over-cold floor, recorded-trajectory tolerance) need a
//! machine with >= 2 workers and are loudly SKIPPED otherwise, mirroring
//! `bench_packing`. Exits non-zero on regression.

use blink_bench::runner_cpus;
use blink_core::{CollectiveKind, Communicator, ReplanReport, SharedPlanCache};
use blink_topology::presets::{dgx1p, dgx1v, dgx2};
use blink_topology::{GpuId, Topology, TopologyDelta};
use serde::Serialize;
use std::time::Instant;

/// A measured speedup may drift this far below the recorded trajectory before
/// `--check` fails. Ratios of two in-process timings are machine-independent,
/// so the band absorbs noise, not hardware differences.
const CHECK_TOLERANCE: f64 = 4.0;
/// Warm replans must beat cold by at least this factor on the pure-removal
/// failure scenarios (the paper's motivating case: a link dies mid-training
/// and the job must be replanning-bound for as short as possible).
const WARM_FLOOR: f64 = 2.0;
/// Bytes for the post-replan conformance run (small keeps `--check` quick;
/// the value-level oracle is size-exact at any byte count).
const CHECK_BYTES: u64 = 8 << 20;

struct Scenario {
    name: &'static str,
    topology: &'static str,
    machine: Topology,
    allocation: Vec<GpuId>,
    delta: TopologyDelta,
    /// Minimum warm-over-cold p50 speedup enforced by `--check` (None:
    /// recorded for trend only — growth replans mostly pack fresh roots, and
    /// switch fabrics do not pack at all).
    floor: Option<f64>,
    /// Whether warm must match or beat cold's packing rate. True exactly for
    /// pure removals, where the warm seed's certificate still upper-bounds
    /// the new optimum; growth changes the optimum and only the (1-ε)
    /// approximation guarantee applies.
    rate_gated: bool,
}

fn scenarios() -> Vec<Scenario> {
    let alloc8: Vec<GpuId> = (0..8).map(GpuId).collect();
    let alloc4: Vec<GpuId> = (0..4).map(GpuId).collect();
    let v = dgx1v();
    let p = dgx1p();
    let d2 = dgx2();
    let grow = TopologyDelta::between(
        &v.induced(&alloc4).expect("dgx1v induces 4 GPUs"),
        &v.induced(&alloc8).expect("dgx1v induces 8 GPUs"),
    );
    vec![
        Scenario {
            name: "kill_link_dgx1v",
            topology: "dgx1v",
            machine: v.clone(),
            allocation: alloc8.clone(),
            delta: TopologyDelta::kill_link(&v, GpuId(0), GpuId(1)),
            floor: Some(WARM_FLOOR),
            rate_gated: true,
        },
        Scenario {
            name: "drop_gpu_dgx1v",
            topology: "dgx1v",
            machine: v.clone(),
            allocation: alloc8.clone(),
            delta: TopologyDelta::drop_gpu(GpuId(7)),
            floor: Some(WARM_FLOOR),
            rate_gated: true,
        },
        Scenario {
            name: "kill_link_dgx1p",
            topology: "dgx1p",
            machine: p.clone(),
            allocation: alloc8.clone(),
            delta: TopologyDelta::kill_link(&p, GpuId(0), GpuId(1)),
            floor: None,
            rate_gated: true,
        },
        Scenario {
            name: "grow_dgx1v_4_to_8",
            topology: "dgx1v",
            machine: v,
            allocation: alloc4,
            delta: grow,
            floor: None,
            rate_gated: false,
        },
        Scenario {
            name: "drop_gpu_dgx2",
            topology: "dgx2",
            machine: d2,
            allocation: (0..16).map(GpuId).collect(),
            delta: TopologyDelta::drop_gpu(GpuId(15)),
            floor: None,
            rate_gated: false,
        },
    ]
}

#[derive(Serialize)]
struct PathStats {
    p50_us: f64,
    p99_us: f64,
    mean_us: f64,
    replans_per_sec: f64,
    runs: usize,
}

#[derive(Serialize)]
struct ScenarioReport {
    name: String,
    topology: String,
    gpus_before: usize,
    gpus_after: usize,
    warm: PathStats,
    cold: PathStats,
    /// cold p50 / warm p50 — how much faster the warm replan is.
    speedup_p50: f64,
    /// Roots packed by one warm replan (misses in its plan store).
    warm_packs: u64,
    /// Roots packed by one cold replan.
    cold_packs: u64,
    plans_kept: usize,
    seeds_demoted: usize,
    warm_seeded_trees: usize,
    /// Corrective MWU iterations the warm replan needed on top of its seeds;
    /// must be 0 on every pure-removal scenario (the unconditional
    /// zero-iteration warm-repair guarantee).
    warm_iterations: usize,
    /// Which repair path the warm replan took (`"reroute"` / `"iterated"` /
    /// `"cold"`).
    repair_path: String,
    warm_rate_gbps: f64,
    cold_rate_gbps: f64,
    /// Warm packing rate matched or beat cold (bit-identical-or-better).
    rate_not_worse: bool,
    rate_gated: bool,
    /// The warm-replanned communicator's AllReduce passed the value-level
    /// conformance oracle.
    conformant: bool,
    floor: Option<f64>,
}

#[derive(Serialize)]
struct Config {
    workers: usize,
    quick: bool,
    warm_runs: usize,
    cold_runs: usize,
    warm_floor: f64,
    check_tolerance: f64,
}

#[derive(Serialize)]
struct Report {
    config: Config,
    scenarios: Vec<ScenarioReport>,
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    let n = sorted_us.len();
    let idx = ((n as f64 * p).ceil() as usize).max(1).min(n) - 1;
    sorted_us[idx]
}

/// What one timed path measured: latency percentiles, the last replan's
/// report and the roots it packed.
struct PathRun {
    stats: PathStats,
    report: ReplanReport,
    packs: u64,
}

/// Times `runs` replans, building a fresh communicator and plan store per
/// iteration via `setup` (untimed) so each timed call sees the same
/// pre-delta state. The store's misses across the replan are its packs.
fn time_replans<F>(runs: usize, mut setup: F, delta: &TopologyDelta) -> PathRun
where
    F: FnMut() -> (Communicator, SharedPlanCache),
{
    let mut samples = Vec::with_capacity(runs);
    let mut last = None;
    for _ in 0..runs {
        let (mut comm, store) = setup();
        let (_, misses_before) = store.stats();
        let t0 = Instant::now();
        let report = comm.replan(delta).expect("replan succeeds");
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
        last = Some((report, store.stats().1 - misses_before));
    }
    samples.sort_by(f64::total_cmp);
    let total_us: f64 = samples.iter().sum();
    let (report, packs) = last.expect("at least one run");
    PathRun {
        stats: PathStats {
            p50_us: percentile(&samples, 0.50),
            p99_us: percentile(&samples, 0.99),
            mean_us: total_us / runs as f64,
            replans_per_sec: runs as f64 / (total_us / 1e6),
            runs,
        },
        report,
        packs,
    }
}

fn run_scenario(s: &Scenario, warm_runs: usize, cold_runs: usize) -> ScenarioReport {
    // A fresh store per communicator: the process-wide store would leak one
    // iteration's plans into the next communicator's "cold" path.
    let machine = s.machine.clone();
    let allocation = s.allocation.clone();
    let cold_setup = move || {
        let store = SharedPlanCache::new();
        let comm = Communicator::builder(machine.clone())
            .allocation(&allocation)
            .shared_plans(store.clone())
            .build()
            .expect("pre-delta communicator");
        (comm, store)
    };
    let warm_setup = {
        let cold_setup = cold_setup.clone();
        move || {
            let (mut comm, store) = cold_setup();
            // Populate the cache: an empty delta runs the root sweep without
            // changing the topology, so the timed replan below starts from a
            // fully planned communicator exactly as a live job would.
            comm.replan(&TopologyDelta::default())
                .expect("initial plan");
            (comm, store)
        }
    };

    let warm = time_replans(warm_runs, warm_setup.clone(), &s.delta);
    let cold = time_replans(cold_runs, cold_setup, &s.delta);

    // Conformance: the recovered program must still move every byte to
    // exactly the right place on the post-delta topology.
    let (mut comm, _) = warm_setup();
    comm.replan(&s.delta).expect("replan succeeds");
    let (_, check) = comm
        .run_checked(CollectiveKind::AllReduce, CHECK_BYTES)
        .expect("replanned AllReduce runs");

    ScenarioReport {
        name: s.name.to_string(),
        topology: s.topology.to_string(),
        gpus_before: s.allocation.len(),
        gpus_after: warm.report.num_gpus,
        speedup_p50: cold.stats.p50_us / warm.stats.p50_us,
        warm_packs: warm.packs,
        cold_packs: cold.packs,
        plans_kept: warm.report.plans_kept,
        seeds_demoted: warm.report.seeds_demoted,
        warm_seeded_trees: warm.report.warm_seeded_trees,
        warm_iterations: warm.report.warm_iterations,
        repair_path: warm.report.repair_path.to_string(),
        warm_rate_gbps: warm.report.rate_gbps,
        cold_rate_gbps: cold.report.rate_gbps,
        rate_not_worse: warm.report.rate_gbps >= cold.report.rate_gbps - 1e-9,
        warm: warm.stats,
        cold: cold.stats,
        rate_gated: s.rate_gated,
        conformant: check.is_correct(),
        floor: s.floor,
    }
}

fn measure(quick: bool) -> Report {
    let (warm_runs, cold_runs) = if quick { (12, 5) } else { (60, 25) };
    let workers = runner_cpus();
    let scenarios = scenarios()
        .iter()
        .map(|s| run_scenario(s, warm_runs, cold_runs))
        .collect();
    Report {
        config: Config {
            workers,
            quick,
            warm_runs,
            cold_runs,
            warm_floor: WARM_FLOOR,
            check_tolerance: CHECK_TOLERANCE,
        },
        scenarios,
    }
}

/// The recorded entry for scenario `name`, if any.
fn recorded_scenario<'a>(recorded: &'a serde::Value, name: &str) -> Option<&'a serde::Value> {
    recorded
        .get("scenarios")?
        .as_array()?
        .iter()
        .find(|r| r.get("name").and_then(|n| n.as_str()) == Some(name))
}

/// Compares measured per-scenario speedups against the recorded trajectory;
/// returns (scenario, recorded, measured) for each one that fell more than
/// `CHECK_TOLERANCE`x below its recording.
fn check_against_recorded(recorded: &serde::Value, report: &Report) -> Vec<(String, f64, f64)> {
    let mut failures = Vec::new();
    for sc in &report.scenarios {
        let Some(rec) = recorded_scenario(recorded, &sc.name)
            .and_then(|r| r.get("speedup_p50"))
            .and_then(|v| v.as_f64())
        else {
            continue; // scenario not recorded yet — nothing to regress against
        };
        if sc.speedup_p50 < rec / CHECK_TOLERANCE {
            failures.push((sc.name.clone(), rec, sc.speedup_p50));
        }
    }
    failures
}

/// The work gate: roots packed per replan are the same on every host, so a
/// scenario that packs more than its recording is a regression anywhere.
fn packs_over_recorded(recorded: &serde::Value, report: &Report) -> Vec<String> {
    let mut failures = Vec::new();
    for sc in &report.scenarios {
        let Some(rec) = recorded_scenario(recorded, &sc.name) else {
            continue;
        };
        for (path, measured) in [("warm_packs", sc.warm_packs), ("cold_packs", sc.cold_packs)] {
            if let Some(limit) = rec.get(path).and_then(|v| v.as_f64()) {
                if measured as f64 > limit {
                    failures.push(format!(
                        "{}: {path} at {measured}, above the recorded {limit}",
                        sc.name
                    ));
                }
            }
        }
    }
    failures
}

fn main() {
    let check_mode = std::env::args().any(|a| a == "--check");
    let out = measure(check_mode);

    for sc in &out.scenarios {
        eprintln!(
            "{:<20} warm p50 {:>9.1} us (p99 {:>9.1})  cold p50 {:>9.1} us  \
             {:>5.2}x  packs {}/{}  kept {} demoted {} seeded {}  conformant {}",
            sc.name,
            sc.warm.p50_us,
            sc.warm.p99_us,
            sc.cold.p50_us,
            sc.speedup_p50,
            sc.warm_packs,
            sc.cold_packs,
            sc.plans_kept,
            sc.seeds_demoted,
            sc.warm_seeded_trees,
            sc.conformant,
        );
    }

    if check_mode {
        let recorded = std::fs::read_to_string("BENCH_replan.json")
            .expect("BENCH_replan.json exists for --check");
        let recorded = serde_json::parse(&recorded).expect("BENCH_replan.json parses");

        // Result-quality and work gates first: these are deterministic
        // properties of the replanned plans, not timings, so they hold on
        // any runner.
        let mut hard_failures = packs_over_recorded(&recorded, &out);
        for sc in &out.scenarios {
            if !sc.conformant {
                hard_failures.push(format!(
                    "{}: replanned AllReduce failed the conformance oracle",
                    sc.name
                ));
            }
            if sc.rate_gated && !sc.rate_not_worse {
                hard_failures.push(format!(
                    "{}: warm rate {:.3} GB/s below cold rate {:.3} GB/s on a \
                     pure-removal delta (warm must be bit-identical-or-better)",
                    sc.name, sc.warm_rate_gbps, sc.cold_rate_gbps
                ));
            }
            // Zero-iteration warm repair: whenever a pure-removal delta
            // consumed warm seeds, the min-cost reroute must have reached the
            // (1-ε)·certificate exit without a single corrective MWU
            // iteration.
            if sc.rate_gated && sc.warm_seeded_trees > 0 {
                if sc.warm_iterations != 0 {
                    hard_failures.push(format!(
                        "{}: warm replan needed {} MWU iterations on a \
                         pure-removal delta (zero-iteration guarantee broken)",
                        sc.name, sc.warm_iterations
                    ));
                }
                if sc.repair_path != "reroute" {
                    hard_failures.push(format!(
                        "{}: warm repair took the '{}' path on a pure-removal \
                         delta, expected 'reroute'",
                        sc.name, sc.repair_path
                    ));
                }
            }
        }

        // Latency gates need a real runner: on a single shared core the
        // timing windows are noise-dominated, so skip loudly rather than
        // flake or silently pass.
        let mut latency_failures = Vec::new();
        if out.config.workers < 2 {
            eprintln!(
                "=================================================================\n\
                 SKIPPED: replan latency gates NOT enforced — this runner exposes\n\
                 only {} worker(s) (std::thread::available_parallelism), so warm\n\
                 and cold sweeps serialise onto one shared core and the latency\n\
                 ratios above are noise-dominated. The conformance and\n\
                 rate-not-worse gates above still ran. Run --check on a machine\n\
                 with >= 2 cores to arm the warm-over-cold floor ({WARM_FLOOR}x)\n\
                 and trajectory ({CHECK_TOLERANCE}x) gates.\n\
                 =================================================================",
                out.config.workers
            );
        } else {
            for sc in &out.scenarios {
                if let Some(floor) = sc.floor {
                    if sc.speedup_p50 < floor {
                        latency_failures.push(format!(
                            "{}: warm replan only {:.2}x faster than cold (floor {floor}x)",
                            sc.name, sc.speedup_p50
                        ));
                    }
                }
            }
            for (name, rec, measured) in check_against_recorded(&recorded, &out) {
                latency_failures.push(format!(
                    "{name}: warm-over-cold at {measured:.2}x, more than \
                     {CHECK_TOLERANCE}x below the recorded {rec:.2}x"
                ));
            }
        }

        if hard_failures.is_empty() && latency_failures.is_empty() {
            eprintln!(
                "replan check passed: all scenarios conformant, rates preserved, \
                 packs within the recording"
            );
            return;
        }
        for f in hard_failures.iter().chain(&latency_failures) {
            eprintln!("REGRESSION: {f}");
        }
        std::process::exit(1);
    }

    let json = serde_json::to_string_pretty(&out).expect("serializable");
    std::fs::write("BENCH_replan.json", &json).expect("write BENCH_replan.json");
    println!("{json}");
}
