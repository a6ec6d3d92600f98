//! Simulator hot-path perf baseline: segmented-payload programs vs the
//! per-slot emission shape, both on the interned-resource engine, plus the
//! CodeGen lowering work that feeds it.
//!
//! Two stages, measured in-process on this machine and written to
//! `BENCH_sim.json` so future PRs have a trajectory to compare against:
//!
//! * **allgather_dgx2** — the 16-GPU DGX-2 one-hop AllGather, the scenario
//!   whose op count exploded under exact ranges (one copy per slot per edge),
//!   lowered by [`one_hop_program`], the function behind the communicator's
//!   one-hop lowering (the pairwise exchange a rootless kind runs).
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
//! * **codegen** — one 64 MiB AllReduce lowering at the default 4 MiB
//!   chunks: [`CodeGen::build`] over the full DGX-1V's packed trees,
//!   [`one_hop_program`] on the 16-GPU DGX-2 (CodeGen over its one-hop
//!   trees, re-issued as the pairwise exchange), and the DGX-1V lowering
//!   again at a quarter of the chunk size (about 4× the ops over the same
//!   trees). The binary installs the counting allocator
//!   ([`blink_bench::alloc::Counting`]), so each lowering records its ops
//!   and heap allocations — counts that are the same on every host — and
//!   the stage records how many more allocations the 4×-ops lowering makes
//!   than the 1× one. Wall time per lowering and per op is recorded as
//!   context only.
//! * **session** — one VGG16 training step's 22 gradient buckets (25 MB
//!   each, at the ready times backward produces them) streamed as
//!   AllReduces through [`Communicator::run_streamed`] on the full DGX-1V
//!   and on the full DGX-2: one engine session of 22 programs, the
//!   heaviest step of the repository benchmark's `train` workload. After a
//!   warm-up run, which lowers and compiles every bucket and warms the
//!   process's engine scratch, the stage records the session's ops and
//!   finish time, the heap allocations of one more run, and the mean wall
//!   time per run (context only). It also replays the step's programs on
//!   an engine scratch of its own and records the candidate scan's work
//!   ([`blink_sim::ScanWork`]): how many window candidates its picks read
//!   the resources of, one pick per op.
//!
//! The allocating reference scheduler is not measured here: it survives only
//! as the test-only bit-identity oracle the sim crate's unit tests pin the
//! fast engine against.
//!
//! The stage simulates under the default calibration: a batched
//! multi-range copy pays one launch overhead for its summed bytes, while
//! the split shape pays a full launch overhead per range.
//!
//! Run with `cargo run --release -p blink-bench --bin bench_sim`.
//!
//! `--check` runs a quick-mode measurement and exits non-zero, on any host,
//! when the AllGather stage's op counts or simulated totals (segmented and
//! split) differ from `BENCH_sim.json` by a single bit, when the segmented
//! program's simulated time stops beating the split shape's, when a codegen
//! lowering makes more allocations per op, or emits more ops, than
//! recorded, or when the quarter-chunk lowering makes more allocations than
//! the 1× lowering plus the recorded difference — so an allocation per op
//! cannot hide behind a small per-op average, or when a session's ops or
//! finish time differ from the recording by a bit, one run of it makes
//! more allocations than recorded, or its picks read more candidates than
//! recorded. The measured speedup and wall times are
//! context only. It does not rewrite the JSON.

use blink_bench::alloc::{allocations, Counting};
use blink_bench::over_recording;
use blink_core::onehop::one_hop_program;
use blink_core::{CodeGen, CodeGenOptions, CollectiveKind, Communicator, TreeGen, TreeGenOptions};
use blink_sim::{EngineScratch, Program, Simulator};
use blink_topology::presets::{dgx1v, dgx2};
use blink_topology::{GpuId, Topology};
use blink_train::{BlinkBackend, DnnModel, TrainerConfig, TrainingSimulator};
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

#[global_allocator]
static ALLOC: Counting = Counting;

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
    /// Simulated wall-clock of the segmented program (one launch overhead
    /// per op, whatever its ranges).
    fast_total_us: f64,
    /// Simulated wall-clock of the split shape (pays a full launch overhead
    /// per range); must stay >= `fast_total_us`.
    naive_total_us: f64,
    naive: EnginePathReport,
    fast: EnginePathReport,
    /// `fast.programs_per_sec / naive.programs_per_sec` (context only).
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
    /// The 16-GPU DGX-2's one-hop lowering, the pairwise exchange.
    dgx2_one_hop: LoweringReport,
    /// The full DGX-1V's packed trees at a quarter of the default chunk
    /// size: about 4× `dgx1v_packed`'s ops.
    dgx1v_packed_quarter_chunk: LoweringReport,
    /// `dgx1v_packed_quarter_chunk.allocations - dgx1v_packed.allocations`
    /// (`--check`: must not grow). An allocation per op would put it near
    /// three times `dgx1v_packed.ops`.
    quarter_chunk_extra_allocations: i64,
}

/// One streamed training step: its work counts (gated) and wall time
/// (context).
#[derive(Debug, Serialize)]
struct SessionRunReport {
    /// What is streamed.
    scenario: String,
    /// Programs admitted into the session (after fusion).
    programs: usize,
    /// Ops over every admitted program (`--check`: bit-equal).
    ops: usize,
    /// The session's simulated finish time (`--check`: bit-equal).
    finish_us: f64,
    /// Heap allocations one warm `run_streamed` makes (`--check`: must not
    /// grow).
    allocations: u64,
    /// Window candidates whose resources the session's picks read
    /// (`--check`: must not grow).
    examined: u64,
    /// `examined` per pick; every op is one pick.
    examined_per_pick: f64,
    /// Mean wall-clock microseconds per `run_streamed`; context only, never
    /// gated.
    us_per_session: f64,
}

/// The session stage: VGG16's bucket schedule on both full machines.
#[derive(Debug, Serialize)]
struct SessionStage {
    dgx1v_vgg16: SessionRunReport,
    dgx2_vgg16: SessionRunReport,
}

#[derive(Debug, Serialize)]
struct Config {
    fast_runs: usize,
    naive_runs: usize,
    lowering_runs: usize,
    session_runs: usize,
}

#[derive(Debug, Serialize)]
struct Report {
    config: Config,
    /// DGX-2 one-hop AllGather: segmented vs per-slot program, one engine.
    allgather_dgx2: SimStageReport,
    /// CodeGen ops and allocations per lowering.
    codegen: CodegenStage,
    /// One streamed VGG16 step per machine.
    session: SessionStage,
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
/// the interned engine under the default calibration.
fn measure_stage(
    scenario: &str,
    machine: &Topology,
    program: &Program,
    fast_runs: usize,
    naive_runs: usize,
) -> SimStageReport {
    let sim = Simulator::with_defaults(machine.clone());
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

/// Counts one 64 MiB AllReduce lowering by `build` in `chunk_bytes` chunks,
/// then times `runs` more.
fn measure_lowering(
    scenario: &str,
    build: impl Fn(&CodeGen, CollectiveKind, u64) -> blink_core::Result<Program>,
    chunk_bytes: u64,
    runs: usize,
) -> LoweringReport {
    let cg = CodeGen::new(CodeGenOptions {
        chunk_bytes,
        ..CodeGenOptions::default()
    });
    let lower = || build(&cg, CollectiveKind::AllReduce, black_box(mb(64)));
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

/// The whole DGX-2's GPUs and their NVSwitch injection cap.
fn dgx2_slice() -> (Vec<GpuId>, f64) {
    let machine = dgx2();
    let alloc = machine.gpu_ids();
    let cap = machine
        .gpu_cap(alloc[0])
        .expect("DGX-2 GPUs have an NVSwitch cap");
    (alloc, cap)
}

fn measure_codegen(runs: usize) -> CodegenStage {
    let machine = dgx1v();
    let plan = TreeGen::new(machine.clone(), TreeGenOptions::default())
        .plan(GpuId(0))
        .expect("the full DGX-1V packs");
    let chunk = CodeGenOptions::default().chunk_bytes;
    let packed = |cg: &CodeGen, kind, bytes| cg.build(&plan.trees, kind, bytes);
    let dgx1v_packed = measure_lowering(
        "dgx1v packed allreduce, 8 GPUs, 64 MiB",
        packed,
        chunk,
        runs,
    );
    let dgx1v_packed_quarter_chunk = measure_lowering(
        "dgx1v packed allreduce, 8 GPUs, 64 MiB, quarter chunks",
        packed,
        chunk / 4,
        runs,
    );
    let (alloc, cap) = dgx2_slice();
    let one_hop = |cg: &CodeGen, kind, bytes| {
        one_hop_program(cg, &alloc, cap, kind, bytes).map(|(program, _)| program)
    };
    let dgx2_one_hop = measure_lowering(
        "dgx2 one-hop allreduce, 16 GPUs, 64 MiB",
        one_hop,
        chunk,
        runs,
    );
    CodegenStage {
        quarter_chunk_extra_allocations: dgx1v_packed_quarter_chunk.allocations as i64
            - dgx1v_packed.allocations as i64,
        dgx1v_packed,
        dgx2_one_hop,
        dgx1v_packed_quarter_chunk,
    }
}

/// Streams VGG16's default bucket schedule as AllReduces over the whole of
/// `machine`: one warm-up run, one counted run, then `runs` timed ones.
fn measure_session(scenario: &str, machine: Topology, runs: usize) -> SessionRunReport {
    let alloc = machine.gpu_ids();
    let mut backend = BlinkBackend::new(machine.clone(), &alloc).expect("the machine plans");
    let requests: Vec<(u64, f64)> = TrainingSimulator::new(
        DnnModel::vgg16(),
        alloc.len(),
        TrainerConfig::default(),
        &mut backend,
    )
    .bucket_issue()
    .iter()
    .map(|b| (b.bytes, b.ready_us))
    .collect();
    let sim = Simulator::with_defaults(machine.clone());
    let mut comm = Communicator::builder(machine)
        .allocation(&alloc)
        .build()
        .expect("the machine plans");
    let mut stream = || {
        comm.run_streamed(CollectiveKind::AllReduce, black_box(&requests))
            .expect("the bucket schedule streams")
    };
    let run = stream();
    let before = allocations();
    drop(black_box(stream()));
    let allocations = allocations() - before;
    let t0 = Instant::now();
    for _ in 0..runs {
        black_box(stream());
    }
    let per_run = t0.elapsed().as_secs_f64() / runs as f64;
    // the step's session again, on a scratch whose work is the step's alone
    let mut session = sim.session();
    for g in &run.groups {
        session.admit(g.program.clone(), g.issue_us);
    }
    let mut scratch = EngineScratch::new();
    let replay = session
        .run_with_scratch(&mut scratch)
        .expect("the step replays");
    assert_eq!(replay.total_us.to_bits(), run.finish_us.to_bits());
    let work = scratch.scan_work();
    SessionRunReport {
        scenario: scenario.to_string(),
        programs: run.groups.len(),
        ops: run.groups.iter().map(|g| g.program.len()).sum(),
        finish_us: run.finish_us,
        allocations,
        examined: work.examined,
        examined_per_pick: work.examined as f64 / work.picks as f64,
        us_per_session: per_run * 1e6,
    }
}

fn measure_sessions(runs: usize) -> SessionStage {
    SessionStage {
        dgx1v_vgg16: measure_session("dgx1v vgg16 step, 8 GPUs, 25 MB buckets", dgx1v(), runs),
        dgx2_vgg16: measure_session("dgx2 vgg16 step, 16 GPUs, 25 MB buckets", dgx2(), runs),
    }
}

/// `--check`'s AllGather gate: both program shapes' op counts and
/// simulated totals equal the recording bit for bit (they are pure
/// functions of CodeGen and the engine), and the segmented program
/// simulates no slower than the split shape.
fn check_allgather(stage: &SimStageReport, recorded: &serde_json::Value) -> Vec<String> {
    let mut failures = Vec::new();
    for (key, now) in [
        ("fast.ops", stage.fast.ops as f64),
        ("naive.ops", stage.naive.ops as f64),
        ("fast_total_us", stage.fast_total_us),
        ("naive_total_us", stage.naive_total_us),
    ] {
        let was = key
            .split('.')
            .fold(recorded.get("allgather_dgx2"), |v, k| {
                v.and_then(|v| v.get(k))
            })
            .and_then(|v| v.as_f64());
        if was.map(f64::to_bits) != Some(now.to_bits()) {
            failures.push(format!(
                "allgather_dgx2 {key} is {now}, but BENCH_sim.json records {was:?}"
            ));
        }
    }
    if stage.fast_total_us > stage.naive_total_us {
        failures.push(format!(
            "{}: segmented program simulates slower ({:.1} us) than the split shape \
             ({:.1} us)",
            stage.scenario, stage.fast_total_us, stage.naive_total_us
        ));
    }
    failures
}

/// `--check`'s codegen gate: every lowering's allocations per op and op
/// count, and the quarter-chunk lowering's extra allocations, must not
/// exceed the recording.
fn check_codegen(stage: &CodegenStage, recorded: &serde_json::Value) -> Vec<String> {
    let recorded = recorded.get("codegen");
    eprintln!(
        "quick check: codegen at quarter chunks: {} more ops, {} more allocations",
        stage.dgx1v_packed_quarter_chunk.ops - stage.dgx1v_packed.ops,
        stage.quarter_chunk_extra_allocations
    );
    let mut failures = over_recording(
        "codegen",
        recorded,
        &[(
            "quarter_chunk_extra_allocations",
            stage.quarter_chunk_extra_allocations as f64,
        )],
    );
    for (name, now) in [
        ("dgx1v_packed", &stage.dgx1v_packed),
        ("dgx2_one_hop", &stage.dgx2_one_hop),
        (
            "dgx1v_packed_quarter_chunk",
            &stage.dgx1v_packed_quarter_chunk,
        ),
    ] {
        eprintln!(
            "quick check: codegen {name}: {} ops, {:.3} allocations/op; {:.0} ns/op wall \
             (context only)",
            now.ops, now.allocs_per_op, now.ns_per_op
        );
        failures.extend(over_recording(
            &format!("codegen {name}"),
            recorded.and_then(|c| c.get(name)),
            &[
                ("allocs_per_op", now.allocs_per_op),
                ("ops", now.ops as f64),
            ],
        ));
    }
    failures
}

/// `--check`'s session gate: every session's ops and finish time equal the
/// recording bit for bit, and neither one warm run's allocations nor the
/// candidates its picks read exceed the recording.
fn check_sessions(stage: &SessionStage, recorded: &serde_json::Value) -> Vec<String> {
    let recorded = recorded.get("session");
    let mut failures = Vec::new();
    for (name, now) in [
        ("dgx1v_vgg16", &stage.dgx1v_vgg16),
        ("dgx2_vgg16", &stage.dgx2_vgg16),
    ] {
        eprintln!(
            "quick check: session {name}: {} programs, {} ops, finish {} us, {} allocations, \
             {:.2} candidates read per pick; {:.0} us/session wall (context only)",
            now.programs,
            now.ops,
            now.finish_us,
            now.allocations,
            now.examined_per_pick,
            now.us_per_session
        );
        let recorded = recorded.and_then(|r| r.get(name));
        for (key, value) in [("ops", now.ops as f64), ("finish_us", now.finish_us)] {
            let was = recorded.and_then(|r| r.get(key)).and_then(|v| v.as_f64());
            if was.map(f64::to_bits) != Some(value.to_bits()) {
                failures.push(format!(
                    "session {name} {key} is {value}, but BENCH_sim.json records {was:?}"
                ));
            }
        }
        failures.extend(over_recording(
            &format!("session {name}"),
            recorded,
            &[
                ("allocations", now.allocations as f64),
                ("examined", now.examined as f64),
            ],
        ));
    }
    failures
}

fn measure(quick: bool) -> Report {
    let fast_runs = if quick { 200 } else { 1000 };
    let naive_runs = if quick { 20 } else { 100 };
    let lowering_runs = if quick { 50 } else { 500 };
    let session_runs = if quick { 20 } else { 200 };

    // ---- DGX-2 one-hop AllGather (the per-slot op-count blow-up case) ----
    let (alloc, cap) = dgx2_slice();
    let cg = CodeGen::new(CodeGenOptions::default());
    let (allgather_prog, _) = one_hop_program(&cg, &alloc, cap, CollectiveKind::AllGather, mb(64))
        .expect("one-hop AllGather lowers");
    let allgather_dgx2 = measure_stage(
        "dgx2 one-hop allgather, 16 GPUs, 64 MiB",
        &dgx2(),
        &allgather_prog,
        fast_runs,
        naive_runs,
    );

    Report {
        config: Config {
            fast_runs,
            naive_runs,
            lowering_runs,
            session_runs,
        },
        allgather_dgx2,
        codegen: measure_codegen(lowering_runs),
        session: measure_sessions(session_runs),
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
            "quick check: allgather {} -> {} ops, simulated {} -> {} us; {:.1}x over the \
             per-slot shape on the same engine (context only)",
            stage.naive.ops,
            stage.fast.ops,
            stage.naive_total_us,
            stage.fast_total_us,
            stage.speedup,
        );
        let mut failures = check_allgather(stage, &recorded);
        failures.extend(check_codegen(&out.codegen, &recorded));
        failures.extend(check_sessions(&out.session, &recorded));
        if failures.is_empty() {
            eprintln!(
                "allgather ops and simulated totals match the recording; codegen \
                 allocations and ops within it; session ops and finish times match it \
                 and allocations and candidates read are within it"
            );
            return;
        }
        for f in &failures {
            eprintln!("REGRESSION: {f}");
        }
        std::process::exit(1);
    }

    let json = serde_json::to_string_pretty(&out).expect("serializable");
    std::fs::write("BENCH_sim.json", &json).expect("write BENCH_sim.json");
    println!("{json}");
    eprintln!(
        "speedup: {:.1}x one-hop allgather ({} ops vs {} per-slot ops, both on the \
         interned engine)",
        out.allgather_dgx2.speedup, out.allgather_dgx2.fast.ops, out.allgather_dgx2.naive.ops,
    );
    let codegen = &out.codegen;
    for l in [
        &codegen.dgx1v_packed,
        &codegen.dgx2_one_hop,
        &codegen.dgx1v_packed_quarter_chunk,
    ] {
        eprintln!(
            "codegen: {}: {} ops, {:.3} allocations/op, {:.0} ns/op",
            l.scenario, l.ops, l.allocs_per_op, l.ns_per_op
        );
    }
    eprintln!(
        "codegen: quarter chunks make {} more allocations than the default",
        codegen.quarter_chunk_extra_allocations
    );
    for s in [&out.session.dgx1v_vgg16, &out.session.dgx2_vgg16] {
        eprintln!(
            "session: {}: {} programs, {} ops, {} allocations, {:.2} candidates read per \
             pick, {:.0} us/session",
            s.scenario, s.programs, s.ops, s.allocations, s.examined_per_pick, s.us_per_session
        );
    }
}
