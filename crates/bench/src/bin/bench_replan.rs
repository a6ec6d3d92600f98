//! Replan work and latency across failure scenarios.
//!
//! Each scenario applies a [`TopologyDelta`] — kill a link, drop a GPU — to a
//! planned communicator and measures one [`Communicator::replan`], which
//! builds the communicator afresh over the damaged machine on its plan
//! store and plans the changed slice as TreeGen plans any slice (closed
//! form, exact lane packing, or MWU plus minimisation). Each communicator plans through a
//! fresh [`SharedPlanCache`], which counts the work the replan performs: the
//! roots it packs (`packs`, store misses) and the MWU iterations those packs
//! run (`mwu_iterations`). On a lane graph (every DGX-1 NVLink slice) the
//! replan packs exactly, with no MWU; the `kill_link_mixed_dgx1v` scenario,
//! whose extra 7 GB/s link makes the graph no lane graph, packs by MWU. The
//! replanned communicator then runs one AllReduce through the value-level
//! oracle, and that run's realised rate is recorded (`allreduce_rate_gbps`).
//! Its AllReduce report and traced program are compared with those of a
//! fresh isolated communicator over the damaged machine's surviving
//! allocation (`fresh_equal`). Wall time per replan is recorded as context
//! only. (A grown job is not a
//! replan: it gets a new communicator over the grown allocation, and
//! `replan` refuses a delta that adds GPUs.)
//!
//! Without arguments: measures with full run counts and writes
//! `BENCH_replan.json` to the working directory (repo root under
//! `cargo run -p blink-bench --bin bench_replan --release`).
//!
//! With `--check`: quick re-measurement compared against the recorded file.
//! It fails, on every runner, when a replanned program fails the value-level
//! oracle, when its AllReduce report or traced program differs from a fresh
//! isolated communicator's over the damaged machine, when its realised
//! AllReduce rate is not positive or differs from the recording by a bit,
//! or when any scenario's packs or MWU iterations exceed the recording.
//! Exits non-zero on regression.

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

/// Every scenario is a pure removal. The DGX-1 NVLink graphs are lane
/// graphs, whose replans pack exactly; `kill_link_mixed_dgx1v` adds a
/// 7 GB/s NVLink duplex between GPUs 0 and 1, which makes the graph no lane
/// graph, so its replan packs by MWU. The DGX-2 lowers one-hop and packs no
/// root, so its packing rate is 0 and its realised AllReduce rate is what
/// it reports.
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
    /// Wall-clock µs per replan (context only).
    replan: Percentiles,
    /// Roots packed by one replan (misses in its plan store).
    packs: u64,
    /// MWU iterations one replan's packs run.
    mwu_iterations: u64,
    /// The picked root's packing rate after the replan (GB/s).
    rate_gbps: f64,
    /// The replanned communicator's AllReduce passed the value-level
    /// conformance oracle.
    conformant: bool,
    /// That AllReduce's realised algorithmic bandwidth (GB/s, simulated).
    allreduce_rate_gbps: f64,
    /// The replanned communicator's AllReduce report (every field, floats
    /// bit for bit) and traced program are a fresh isolated communicator's
    /// over the damaged machine and the surviving allocation.
    fresh_equal: bool,
}

#[derive(Serialize)]
struct Config {
    quick: bool,
    runs: usize,
}

#[derive(Serialize)]
struct Report {
    config: Config,
    scenarios: Vec<ScenarioReport>,
}

/// A communicator over the scenario's allocation on a fresh plan store,
/// planned as a live job would be: an empty delta runs the root sweep
/// without changing the topology.
fn planned(s: &Scenario) -> (Communicator, SharedPlanCache) {
    let store = SharedPlanCache::new();
    let mut comm = Communicator::builder(s.machine.clone())
        .allocation(&s.allocation)
        .shared_plans(store.clone())
        .build()
        .expect("pre-delta communicator");
    comm.replan(&TopologyDelta::default())
        .expect("initial plan");
    (comm, store)
}

fn run_scenario(s: &Scenario, runs: usize) -> ScenarioReport {
    // Times `runs` replans, each of a freshly planned communicator on a
    // fresh store (set up untimed), so each timed call sees the same
    // pre-delta state; the store's misses and MWU iterations across the
    // replan are its work.
    let mut samples = Vec::with_capacity(runs);
    let mut last: Option<(ReplanReport, u64, u64)> = None;
    for _ in 0..runs {
        let (mut comm, store) = planned(s);
        let work = |store: &SharedPlanCache| (store.stats().1, store.mwu_iterations());
        let before = work(&store);
        let t0 = Instant::now();
        let report = comm.replan(&s.delta).expect("replan succeeds");
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
        let after = work(&store);
        last = Some((report, after.0 - before.0, after.1 - before.1));
    }
    let (report, packs, mwu_iterations) = last.expect("at least one run");

    // Conformance: the recovered program must still move every byte to
    // exactly the right place on the post-delta topology.
    let (mut comm, _) = planned(s);
    comm.replan(&s.delta).expect("replan succeeds");
    let (allreduce, check) = comm
        .run_checked(CollectiveKind::AllReduce, CHECK_BYTES)
        .expect("replanned AllReduce runs");
    let damaged = s.machine.apply_delta(&s.delta).expect("the delta applies");
    let mut fresh = Communicator::builder(damaged)
        .allocation(comm.allocation())
        .isolated_plans()
        .build()
        .expect("fresh communicator over the damaged machine");
    let traced = |comm: &mut Communicator| {
        let (report, program, _) = comm
            .run_traced(CollectiveKind::AllReduce, CHECK_BYTES)
            .expect("AllReduce runs");
        (format!("{report:?}"), program)
    };
    let (replanned, fresh) = (traced(&mut comm), traced(&mut fresh));

    ScenarioReport {
        name: s.name.to_string(),
        topology: s.topology.to_string(),
        gpus_before: s.allocation.len(),
        gpus_after: report.num_gpus,
        replan: percentiles(samples),
        packs,
        mwu_iterations,
        rate_gbps: report.rate_gbps,
        conformant: check.is_correct(),
        allreduce_rate_gbps: allreduce.algorithmic_bandwidth_gbps,
        fresh_equal: replanned.0 == fresh.0 && *replanned.1 == *fresh.1,
    }
}

fn measure(quick: bool) -> Report {
    let runs = if quick { 12 } else { 60 };
    let scenarios = scenarios().iter().map(|s| run_scenario(s, runs)).collect();
    Report {
        config: Config { quick, runs },
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

/// The work gates: per scenario, a replan packs no more roots and runs no
/// more MWU iterations than recorded. Beside them, the realised AllReduce
/// rate is positive and bit-equal to the recording. Every value is the same
/// on every host.
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
        failures.extend(over_recording(
            &sc.name,
            recorded_scenario(recorded, &sc.name),
            &[
                ("packs", sc.packs as f64),
                ("mwu_iterations", sc.mwu_iterations as f64),
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
            "{:<22} packs {}  MWU iterations {}  conformant {} at {} GB/s  fresh-equal {}; \
             wall (context only): {}",
            sc.name,
            sc.packs,
            sc.mwu_iterations,
            sc.conformant,
            sc.allreduce_rate_gbps,
            sc.fresh_equal,
            sc.replan,
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
        if !sc.fresh_equal {
            failures.push(format!(
                "{}: replanned AllReduce reports or lowers other than a fresh communicator \
                 over the damaged machine",
                sc.name
            ));
        }
    }
    if failures.is_empty() {
        eprintln!(
            "replan check passed: all scenarios conformant at their recorded AllReduce rates \
             and equal to a fresh communicator over the damaged machine, packs and MWU \
             iterations within the recording"
        );
        return;
    }
    for f in &failures {
        eprintln!("REGRESSION: {f}");
    }
    std::process::exit(1);
}
