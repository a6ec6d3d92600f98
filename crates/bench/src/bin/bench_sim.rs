//! Simulator hot-path perf baseline: segmented-payload programs vs the
//! per-slot emission shape, both on the interned-resource engine, plus the
//! CodeGen lowering work that feeds it.
//!
//! Two stages, measured in-process on this machine and written to
//! `BENCH_sim.json` so future PRs have a trajectory to compare against:
//!
//! * **allgather_dgx2** — the 16-GPU DGX-2 one-hop AllGather, the scenario
//!   whose op count exploded under exact ranges (one copy per slot per edge).
//!   Both sides run on the same interned engine
//!   ([`blink_sim::Simulator::run_with_scratch`]), so the ratio isolates what
//!   payload aggregation buys at equal scheduling machinery: the fast side
//!   runs the segmented, interned program CodeGen emits (one op per edge per
//!   chunk); the naive side runs the same program expanded back to one op
//!   per slot segment ([`blink_sim::Program::split_segments`], the
//!   pre-aggregation emission shape). The naive side used to run the split
//!   program on the allocating reference scheduler, so the ratio recorded
//!   then (36×) also counted the engine difference; today's ~8× counts
//!   payload aggregation alone.
//! * **codegen** — one 64 MiB AllReduce lowering ([`CodeGen::build`] at its
//!   default 4 MiB chunks) over the full DGX-1V's packed trees and over the
//!   16-GPU DGX-2's one-hop trees. The binary installs the counting
//!   allocator ([`blink_bench::alloc::Counting`]), so each lowering records
//!   its ops and heap allocations — counts that are the same on every host.
//!   Wall time per lowering and per op is recorded as context only.
//!
//! The allocating reference scheduler is not measured here: it survives only
//! as the test-only bit-identity oracle the sim crate's unit tests pin the
//! fast engine against.
//!
//! The stage simulates under a calibration with a non-zero
//! [`SimParams::per_segment_overhead_us`]: a batched multi-range copy pays
//! the driver's per-extra-range cost explicitly, so the segmented program's
//! *simulated* time is honest about batching (and still beats the split
//! shape, which pays a full per-op launch overhead per range instead).
//!
//! Run with `cargo run --release -p blink-bench --bin bench_sim`.
//!
//! `--check` runs a quick-mode measurement and exits non-zero if the
//! segmented-over-split speedup regressed more than [`CHECK_TOLERANCE`]×
//! against the recorded `BENCH_sim.json`, or falls below
//! [`ALLGATHER_FLOOR`]× outright, or if the segmented program's simulated
//! time stops beating the split shape's. Both sides of the ratio run in this
//! process, so runner hardware cancels out. It also fails, on any host, when
//! a codegen lowering makes more allocations per op, or emits more ops, than
//! `BENCH_sim.json` records. It does not rewrite the JSON.

use blink_bench::alloc::{allocations, Counting};
use blink_core::onehop::one_hop_trees;
use blink_core::{CodeGen, CollectiveKind, Communicator, TreeGen, TreeGenOptions};
use blink_graph::WeightedTree;
use blink_sim::{EngineScratch, Program, SimParams, Simulator};
use blink_topology::presets::{dgx1v, dgx2};
use blink_topology::{GpuId, Topology};
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

#[global_allocator]
static ALLOC: Counting = Counting;

/// `--check` fails when the segmented-over-split speedup ratio is more than
/// this factor below the recorded trajectory.
const CHECK_TOLERANCE: f64 = 5.0;
/// `--check` fails outright when the segmented AllGather path is not at
/// least this many times faster than the per-slot shape on the same engine.
const ALLGATHER_FLOOR: f64 = 3.0;
/// Calibrated per-extra-range cost of a batched multi-segment transfer
/// (µs). Small next to [`SimParams::op_launch_overhead_us`] — batching a
/// range is cheap, launching an op is not — which is exactly the asymmetry
/// that makes segment aggregation worthwhile.
const PER_SEGMENT_OVERHEAD_US: f64 = 0.2;

fn mb(n: u64) -> u64 {
    n * 1024 * 1024
}

/// One engine path's measurements over a fixed program.
#[derive(Debug, Serialize)]
struct EnginePathReport {
    /// Ops in the program this path executes.
    ops: usize,
    /// Complete program simulations per second.
    programs_per_sec: f64,
    /// Scheduled ops per second (`ops * programs_per_sec`).
    ops_per_sec: f64,
    /// Mean wall-clock microseconds per simulation.
    us_per_program: f64,
}

/// One segmented-vs-split stage.
#[derive(Debug, Serialize)]
struct SimStageReport {
    /// What the stage simulates.
    scenario: String,
    /// Simulated wall-clock of the segmented program under the calibrated
    /// params (pays `per_segment_overhead_us` per extra range).
    fast_total_us: f64,
    /// Simulated wall-clock of the split shape (pays a full launch overhead
    /// per range); must stay >= `fast_total_us`.
    naive_total_us: f64,
    naive: EnginePathReport,
    fast: EnginePathReport,
    /// `fast.programs_per_sec / naive.programs_per_sec`.
    speedup: f64,
}

/// One CodeGen lowering: its work counts (gated) and wall time (context).
#[derive(Debug, Serialize)]
struct LoweringReport {
    /// What is lowered.
    scenario: String,
    /// Ops in the lowered program (`--check`: must not grow).
    ops: usize,
    /// Heap allocations and reallocations one lowering makes.
    allocations: u64,
    /// `allocations / ops` (`--check`: must not grow).
    allocs_per_op: f64,
    /// Mean wall-clock microseconds per lowering; context only, never gated.
    us_per_lowering: f64,
    /// Wall-clock nanoseconds per emitted op; context only, never gated.
    ns_per_op: f64,
}

/// The codegen stage: one 64 MiB AllReduce lowering per tree set.
#[derive(Debug, Serialize)]
struct CodegenStage {
    /// The full DGX-1V's packed spanning trees.
    dgx1v_packed: LoweringReport,
    /// The 16-GPU DGX-2's one-hop trees.
    dgx2_one_hop: LoweringReport,
}

#[derive(Debug, Serialize)]
struct Config {
    fast_runs: usize,
    naive_runs: usize,
    lowering_runs: usize,
}

#[derive(Debug, Serialize)]
struct Report {
    config: Config,
    /// DGX-2 one-hop AllGather: segmented vs per-slot program, one engine.
    allgather_dgx2: SimStageReport,
    /// CodeGen ops and allocations per lowering.
    codegen: CodegenStage,
}

/// Times `runs` runs of `f` and reports the per-run rate over `ops` ops.
fn time_path<F: FnMut()>(ops: usize, runs: usize, mut f: F) -> EnginePathReport {
    let t0 = Instant::now();
    for _ in 0..runs {
        f();
    }
    let per_run = t0.elapsed().as_secs_f64() / runs as f64;
    EnginePathReport {
        ops,
        programs_per_sec: 1.0 / per_run,
        ops_per_sec: ops as f64 / per_run,
        us_per_program: per_run * 1e6,
    }
}

/// Measures segmented vs split emission shapes of the same program, both on
/// the interned engine under the calibrated per-segment overhead.
fn measure_stage(
    scenario: &str,
    machine: &Topology,
    program: &Program,
    fast_runs: usize,
    naive_runs: usize,
) -> SimStageReport {
    let params = SimParams {
        per_segment_overhead_us: PER_SEGMENT_OVERHEAD_US,
        ..SimParams::default()
    };
    let sim = Simulator::new(machine.clone(), params);
    let split = program.split_segments();
    let mut scratch = EngineScratch::new();
    let mut split_scratch = EngineScratch::new();
    let fast_total_us = sim
        .run_with_scratch(program, &mut scratch)
        .unwrap()
        .total_us;
    let naive_total_us = sim
        .run_with_scratch(&split, &mut split_scratch)
        .unwrap()
        .total_us;
    let naive = time_path(split.len(), naive_runs, || {
        sim.run_with_scratch(&split, &mut split_scratch).unwrap();
    });
    let fast = time_path(program.len(), fast_runs, || {
        sim.run_with_scratch(program, &mut scratch).unwrap();
    });
    SimStageReport {
        scenario: scenario.to_string(),
        fast_total_us,
        naive_total_us,
        speedup: fast.programs_per_sec / naive.programs_per_sec,
        naive,
        fast,
    }
}

/// Counts one 64 MiB AllReduce lowering over `trees`, then times `runs`
/// more.
fn measure_lowering(scenario: &str, trees: &[WeightedTree], runs: usize) -> LoweringReport {
    let cg = CodeGen::default();
    let lower = || cg.build(black_box(trees), CollectiveKind::AllReduce, mb(64));
    let before = allocations();
    let program = lower().expect("64 MiB AllReduce lowers");
    let allocations = allocations() - before;
    let ops = program.len();
    drop(program);
    let t0 = Instant::now();
    for _ in 0..runs {
        black_box(lower().expect("64 MiB AllReduce lowers"));
    }
    let per_run = t0.elapsed().as_secs_f64() / runs as f64;
    LoweringReport {
        scenario: scenario.to_string(),
        ops,
        allocations,
        allocs_per_op: allocations as f64 / ops as f64,
        us_per_lowering: per_run * 1e6,
        ns_per_op: per_run * 1e9 / ops as f64,
    }
}

fn measure_codegen(runs: usize) -> CodegenStage {
    let machine = dgx1v();
    let plan = TreeGen::new(machine.clone(), TreeGenOptions::default())
        .plan(GpuId(0))
        .expect("the full DGX-1V packs");
    let dgx1v_packed =
        measure_lowering("dgx1v packed allreduce, 8 GPUs, 64 MiB", &plan.trees, runs);
    let machine = dgx2();
    let alloc = machine.gpu_ids();
    let cap = machine
        .gpu_cap(alloc[0])
        .expect("DGX-2 GPUs have an NVSwitch cap");
    let trees = one_hop_trees(&alloc, cap / alloc.len() as f64);
    let dgx2_one_hop = measure_lowering("dgx2 one-hop allreduce, 16 GPUs, 64 MiB", &trees, runs);
    CodegenStage {
        dgx1v_packed,
        dgx2_one_hop,
    }
}

/// `--check`'s codegen gate: every lowering's allocations per op and op
/// count must not exceed the recording. Returns whether it failed.
fn check_codegen(stage: &CodegenStage, recorded: &serde_json::Value) -> bool {
    let mut failed = false;
    for (name, now) in [
        ("dgx1v_packed", &stage.dgx1v_packed),
        ("dgx2_one_hop", &stage.dgx2_one_hop),
    ] {
        let rec = recorded.get("codegen").and_then(|c| c.get(name));
        let field = |key: &str| rec.and_then(|r| r.get(key)).and_then(|v| v.as_f64());
        let (Some(rec_allocs), Some(rec_ops)) = (field("allocs_per_op"), field("ops")) else {
            eprintln!("REGRESSION: BENCH_sim.json records no codegen.{name} to gate against");
            failed = true;
            continue;
        };
        eprintln!(
            "quick check: codegen {name}: {} ops, {:.3} allocations/op (recorded {rec_ops} \
             ops, {rec_allocs:.3}/op); {:.0} ns/op wall (context only)",
            now.ops, now.allocs_per_op, now.ns_per_op
        );
        if now.allocs_per_op > rec_allocs {
            failed = true;
            eprintln!(
                "REGRESSION: codegen {name} makes {:.3} allocations per op, above the \
                 recorded {rec_allocs:.3}",
                now.allocs_per_op
            );
        }
        if now.ops as f64 > rec_ops {
            failed = true;
            eprintln!(
                "REGRESSION: codegen {name} emits {} ops, above the recorded {rec_ops}",
                now.ops
            );
        }
    }
    failed
}

fn measure(quick: bool) -> Report {
    let fast_runs = if quick { 200 } else { 1000 };
    let naive_runs = if quick { 20 } else { 100 };
    let lowering_runs = if quick { 50 } else { 500 };

    // ---- DGX-2 one-hop AllGather (the per-slot op-count blow-up case) ----
    let machine = dgx2();
    let alloc: Vec<GpuId> = (0..16).map(GpuId).collect();
    let mut comm = Communicator::builder(machine.clone())
        .allocation(&alloc)
        .build()
        .expect("full DGX-2 allocation");
    let (_, allgather_prog, _) = comm
        .run_traced(CollectiveKind::AllGather, mb(64))
        .expect("one-hop AllGather lowers");
    let allgather_dgx2 = measure_stage(
        "dgx2 one-hop allgather, 16 GPUs, 64 MiB",
        &machine,
        &allgather_prog,
        fast_runs,
        naive_runs,
    );

    Report {
        config: Config {
            fast_runs,
            naive_runs,
            lowering_runs,
        },
        allgather_dgx2,
        codegen: measure_codegen(lowering_runs),
    }
}

fn main() {
    let check_mode = std::env::args().any(|a| a == "--check");
    let out = measure(check_mode);

    if check_mode {
        let recorded =
            std::fs::read_to_string("BENCH_sim.json").expect("BENCH_sim.json exists for --check");
        let recorded = serde_json::parse(&recorded).expect("BENCH_sim.json parses");
        let stage = &out.allgather_dgx2;
        eprintln!(
            "quick check: allgather {:.1}x ({} -> {} ops) over the per-slot shape on the \
             same engine",
            stage.speedup, stage.naive.ops, stage.fast.ops,
        );
        let mut failed = check_codegen(&out.codegen, &recorded);
        if stage.speedup < ALLGATHER_FLOOR {
            failed = true;
            eprintln!(
                "REGRESSION: the segmented one-hop AllGather path is only {:.1}x over the \
                 per-slot shape (floor {ALLGATHER_FLOOR}x)",
                stage.speedup
            );
        }
        if stage.fast_total_us > stage.naive_total_us {
            failed = true;
            eprintln!(
                "REGRESSION: {}: segmented program simulates slower ({:.1} us) than the \
                 split shape ({:.1} us) under the calibrated per-segment overhead",
                stage.scenario, stage.fast_total_us, stage.naive_total_us
            );
        }
        let recorded_speedup = recorded
            .get("allgather_dgx2")
            .and_then(|s| s.get("speedup"))
            .and_then(|s| s.as_f64());
        if let Some(rec) = recorded_speedup {
            if stage.speedup < rec / CHECK_TOLERANCE {
                failed = true;
                eprintln!(
                    "REGRESSION: allgather_dgx2 fast path at {:.1}x over naive, more than \
                     {CHECK_TOLERANCE}x below the recorded {rec:.1}x",
                    stage.speedup
                );
            }
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!(
            "engine speedup within {CHECK_TOLERANCE}x of the recorded trajectory; codegen \
             allocations and ops within the recording"
        );
        return;
    }

    let json = serde_json::to_string_pretty(&out).expect("serializable");
    std::fs::write("BENCH_sim.json", &json).expect("write BENCH_sim.json");
    println!("{json}");
    eprintln!(
        "speedup: {:.1}x one-hop allgather ({} ops vs {} per-slot ops, both on the \
         interned engine)",
        out.allgather_dgx2.speedup, out.allgather_dgx2.fast.ops, out.allgather_dgx2.naive.ops,
    );
    for l in [&out.codegen.dgx1v_packed, &out.codegen.dgx2_one_hop] {
        eprintln!(
            "codegen: {}: {} ops, {:.3} allocations/op, {:.0} ns/op",
            l.scenario, l.ops, l.allocs_per_op, l.ns_per_op
        );
    }
}
