//! Warm-vs-cold replan work and latency across failure scenarios.
//!
//! Each scenario applies a [`TopologyDelta`] — kill a link, drop a GPU — to a
//! planned communicator and measures how long
//! [`Communicator::replan`] takes when the plan cache warm-starts packing and
//! minimisation from the stale plans (warm) versus when the same delta lands
//! on a communicator with an empty cache and every root the sweep packs
//! starts from scratch (cold). Both paths run the exact same `replan` code;
//! the only difference is whether delta invalidation had stale plans to
//! demote into seeds. On a lane graph (every DGX-1 NVLink slice) a replan
//! sets its seeds aside and packs exactly, so warm and cold do the same
//! work there and the warm replan reports the `exact` repair path; the
//! `kill_link_mixed_dgx1v` scenario, whose extra 7 GB/s link makes the graph
//! no lane graph, keeps a warm repair under the gates. Each communicator plans through a fresh
//! [`SharedPlanCache`], which counts the work one replan performs: the roots
//! it packs (`warm_packs` / `cold_packs`, store misses) and the MWU
//! iterations those packs run (`warm_mwu_iterations` /
//! `cold_mwu_iterations`). The warm-replanned communicator then runs one
//! AllReduce through the value-level oracle, and that run's realised rate
//! is recorded (`allreduce_rate_gbps`). Wall time per replan is recorded as
//! context only. (A grown job is not a replan: it gets a new communicator
//! over the grown allocation, and `replan` refuses a delta that adds GPUs.)
//!
//! Without arguments: measures with full run counts and writes
//! `BENCH_replan.json` to the working directory (repo root under
//! `cargo run -p blink-bench --bin bench_replan --release`).
//!
//! With `--check`: quick re-measurement compared against the recorded file.
//! It fails, on every runner, when a replanned program fails the value-level
//! oracle, when its realised AllReduce rate is not positive or differs from
//! the recording by a bit, when warm loses packing rate to cold, when a warm
//! repair of consumed seeds needs an MWU iteration, when a replan that set
//! its seeds aside reports a path other than `exact`, when a warm replan runs
//! more MWU iterations than a cold one, or when any scenario's packs or MWU
//! iterations exceed the recording. Exits non-zero on regression.

use blink_bench::{over_recording, percentiles, Percentiles};
use blink_core::{CollectiveKind, Communicator, ReplanReport, SharedPlanCache};
use blink_topology::presets::{dgx1p, dgx1v, dgx2};
use blink_topology::{GpuId, LinkKind, Topology, TopologyDelta};
use serde::Serialize;
use std::time::Instant;

/// Bytes for the post-replan conformance run (small keeps `--check` quick;
/// the value-level oracle is size-exact at any byte count).
const CHECK_BYTES: u64 = 8 << 20;

struct Scenario {
    name: &'static str,
    topology: &'static str,
    machine: Topology,
    allocation: Vec<GpuId>,
    delta: TopologyDelta,
}

/// Every scenario is a pure removal, so the warm seed's certificate still
/// upper-bounds the new optimum: warm must match or beat cold's packing
/// rate, and a repair of consumed seeds must need no MWU iteration. The
/// DGX-1 NVLink graphs are lane graphs, whose replans set their seeds aside
/// and pack exactly, warm and cold alike; `kill_link_mixed_dgx1v` adds a
/// 7 GB/s NVLink duplex between GPUs 0 and 1, which makes the graph no lane
/// graph, so its warm replan repairs its seeds. The DGX-2 lowers one-hop
/// and packs no root, so its packing rates are both 0 and its realised
/// AllReduce rate is what it reports.
fn scenarios() -> Vec<Scenario> {
    let alloc8: Vec<GpuId> = (0..8).map(GpuId).collect();
    let v = dgx1v();
    let p = dgx1p();
    let d2 = dgx2();
    let mut mixed = dgx1v();
    mixed
        .add_duplex_with_bandwidth(GpuId(0), GpuId(1), LinkKind::NvLinkGen2, 1, 7.0)
        .expect("GPUs 0 and 1 are on the machine");
    vec![
        Scenario {
            name: "kill_link_mixed_dgx1v",
            topology: "dgx1v+7",
            machine: mixed.clone(),
            allocation: alloc8.clone(),
            delta: TopologyDelta::kill_link(&mixed, GpuId(2), GpuId(3)),
        },
        Scenario {
            name: "kill_link_dgx1v",
            topology: "dgx1v",
            machine: v.clone(),
            allocation: alloc8.clone(),
            delta: TopologyDelta::kill_link(&v, GpuId(0), GpuId(1)),
        },
        Scenario {
            name: "drop_gpu_dgx1v",
            topology: "dgx1v",
            machine: v,
            allocation: alloc8.clone(),
            delta: TopologyDelta::drop_gpu(GpuId(7)),
        },
        Scenario {
            name: "kill_link_dgx1p",
            topology: "dgx1p",
            machine: p.clone(),
            allocation: alloc8.clone(),
            delta: TopologyDelta::kill_link(&p, GpuId(0), GpuId(1)),
        },
        Scenario {
            name: "drop_gpu_dgx2",
            topology: "dgx2",
            machine: d2,
            allocation: (0..16).map(GpuId).collect(),
            delta: TopologyDelta::drop_gpu(GpuId(15)),
        },
    ]
}

#[derive(Serialize)]
struct ScenarioReport {
    name: String,
    topology: String,
    gpus_before: usize,
    gpus_after: usize,
    /// Wall-clock µs per warm replan (context only).
    warm: Percentiles,
    /// Wall-clock µs per cold replan (context only).
    cold: Percentiles,
    /// cold p50 / warm p50 — how much faster the warm replan is (context
    /// only).
    speedup_p50: f64,
    /// Roots packed by one warm replan (misses in its plan store).
    warm_packs: u64,
    /// Roots packed by one cold replan.
    cold_packs: u64,
    /// MWU iterations one warm replan's packs run.
    warm_mwu_iterations: u64,
    /// MWU iterations one cold replan's packs run.
    cold_mwu_iterations: u64,
    plans_kept: usize,
    seeds_demoted: usize,
    warm_seeded_trees: usize,
    /// Corrective MWU iterations the warm replan needed on top of its seeds;
    /// must be 0 on every pure-removal scenario (the unconditional
    /// zero-iteration warm-repair guarantee).
    warm_iterations: usize,
    /// Which repair path the warm replan took (`"reroute"` / `"iterated"` /
    /// `"exact"` / `"cold"`).
    repair_path: String,
    warm_rate_gbps: f64,
    cold_rate_gbps: f64,
    /// Warm packing rate matched or beat cold (bit-identical-or-better).
    rate_not_worse: bool,
    /// The warm-replanned communicator's AllReduce passed the value-level
    /// conformance oracle.
    conformant: bool,
    /// That AllReduce's realised algorithmic bandwidth (GB/s, simulated).
    allreduce_rate_gbps: f64,
}

#[derive(Serialize)]
struct Config {
    quick: bool,
    warm_runs: usize,
    cold_runs: usize,
}

#[derive(Serialize)]
struct Report {
    config: Config,
    scenarios: Vec<ScenarioReport>,
}

/// What one timed path measured: latency percentiles, the last replan's
/// report, and the roots it packed and their MWU iterations.
struct PathRun {
    stats: Percentiles,
    report: ReplanReport,
    packs: u64,
    mwu_iterations: u64,
}

/// Times `runs` replans, building a fresh communicator and plan store per
/// iteration via `setup` (untimed) so each timed call sees the same
/// pre-delta state. The store's misses and MWU iterations across the replan
/// are its work.
fn time_replans<F>(runs: usize, mut setup: F, delta: &TopologyDelta) -> PathRun
where
    F: FnMut() -> (Communicator, SharedPlanCache),
{
    let mut samples = Vec::with_capacity(runs);
    let mut last = None;
    for _ in 0..runs {
        let (mut comm, store) = setup();
        let work = |store: &SharedPlanCache| (store.stats().1, store.mwu_iterations());
        let before = work(&store);
        let t0 = Instant::now();
        let report = comm.replan(delta).expect("replan succeeds");
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
        let after = work(&store);
        last = Some((report, after.0 - before.0, after.1 - before.1));
    }
    let (report, packs, mwu_iterations) = last.expect("at least one run");
    PathRun {
        stats: percentiles(samples),
        report,
        packs,
        mwu_iterations,
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
    let (allreduce, check) = comm
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
        warm_mwu_iterations: warm.mwu_iterations,
        cold_mwu_iterations: cold.mwu_iterations,
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
        conformant: check.is_correct(),
        allreduce_rate_gbps: allreduce.algorithmic_bandwidth_gbps,
    }
}

fn measure(quick: bool) -> Report {
    let (warm_runs, cold_runs) = if quick { (12, 5) } else { (60, 25) };
    let scenarios = scenarios()
        .iter()
        .map(|s| run_scenario(s, warm_runs, cold_runs))
        .collect();
    Report {
        config: Config {
            quick,
            warm_runs,
            cold_runs,
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

/// The work gates: per scenario, a warm replan runs no more MWU iterations
/// than a cold one, and neither path packs more roots or runs more MWU
/// iterations than recorded. Beside them, the realised AllReduce rate is
/// positive and bit-equal to the recording. Every value is the same on every
/// host.
fn work_gates(recorded: &serde::Value, report: &Report) -> Vec<String> {
    let mut failures = Vec::new();
    for sc in &report.scenarios {
        let rate = sc.allreduce_rate_gbps;
        let was = recorded_scenario(recorded, &sc.name)
            .and_then(|r| r.get("allreduce_rate_gbps"))
            .and_then(|v| v.as_f64());
        if rate <= 0.0 || was.map(f64::to_bits) != Some(rate.to_bits()) {
            failures.push(format!(
                "{}: replanned AllReduce ran at {rate:?} GB/s, the recording has {was:?}",
                sc.name
            ));
        }
        if sc.warm_mwu_iterations > sc.cold_mwu_iterations {
            failures.push(format!(
                "{}: warm replan ran {} MWU iterations, more than cold's {}",
                sc.name, sc.warm_mwu_iterations, sc.cold_mwu_iterations
            ));
        }
        failures.extend(over_recording(
            &sc.name,
            recorded_scenario(recorded, &sc.name),
            &[
                ("warm_packs", sc.warm_packs as f64),
                ("cold_packs", sc.cold_packs as f64),
                ("warm_mwu_iterations", sc.warm_mwu_iterations as f64),
                ("cold_mwu_iterations", sc.cold_mwu_iterations as f64),
            ],
        ));
    }
    failures
}

fn main() {
    let check_mode = std::env::args().any(|a| a == "--check");
    let out = measure(check_mode);

    for sc in &out.scenarios {
        eprintln!(
            "{:<20} packs {}/{}  MWU iterations {}/{}  kept {} demoted {} seeded {}  \
             conformant {} at {} GB/s; wall (context only): warm {}, cold {}, {:.2}x",
            sc.name,
            sc.warm_packs,
            sc.cold_packs,
            sc.warm_mwu_iterations,
            sc.cold_mwu_iterations,
            sc.plans_kept,
            sc.seeds_demoted,
            sc.warm_seeded_trees,
            sc.conformant,
            sc.allreduce_rate_gbps,
            sc.warm,
            sc.cold,
            sc.speedup_p50,
        );
    }

    if !check_mode {
        let json = serde_json::to_string_pretty(&out).expect("serializable");
        std::fs::write("BENCH_replan.json", &json).expect("write BENCH_replan.json");
        println!("{json}");
        return;
    }

    let recorded =
        std::fs::read_to_string("BENCH_replan.json").expect("BENCH_replan.json exists for --check");
    let recorded = serde_json::parse(&recorded).expect("BENCH_replan.json parses");
    let mut failures = work_gates(&recorded, &out);
    for sc in &out.scenarios {
        if !sc.conformant {
            failures.push(format!(
                "{}: replanned AllReduce failed the conformance oracle",
                sc.name
            ));
        }
        if !sc.rate_not_worse {
            failures.push(format!(
                "{}: warm rate {:.3} GB/s below cold rate {:.3} GB/s on a \
                 pure-removal delta (warm must be bit-identical-or-better)",
                sc.name, sc.warm_rate_gbps, sc.cold_rate_gbps
            ));
        }
        // Zero-iteration warm repair: whenever a pure-removal delta consumed
        // warm seeds, the min-cost reroute must have reached the
        // (1-ε)·certificate exit without a single corrective MWU iteration.
        if sc.warm_seeded_trees > 0 {
            if sc.warm_iterations != 0 {
                failures.push(format!(
                    "{}: warm replan needed {} MWU iterations on a \
                     pure-removal delta (zero-iteration guarantee broken)",
                    sc.name, sc.warm_iterations
                ));
            }
            if sc.repair_path != "reroute" {
                failures.push(format!(
                    "{}: warm repair took the '{}' path on a pure-removal \
                     delta, expected 'reroute'",
                    sc.name, sc.repair_path
                ));
            }
        }
        // seeds a replan did not repair warm were set aside for an exact
        // pack of a lane graph, and the report says so
        if sc.seeds_demoted > 0 && sc.warm_seeded_trees == 0 && sc.repair_path != "exact" {
            failures.push(format!(
                "{}: the replan set its seeds aside but reports the '{}' path",
                sc.name, sc.repair_path
            ));
        }
    }
    if failures.is_empty() {
        eprintln!(
            "replan check passed: all scenarios conformant at their recorded AllReduce rates, \
             packing rates preserved, warm MWU iterations within cold, packs and MWU \
             iterations within the recording"
        );
        return;
    }
    for f in &failures {
        eprintln!("REGRESSION: {f}");
    }
    std::process::exit(1);
}
