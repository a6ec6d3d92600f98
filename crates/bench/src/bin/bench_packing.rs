//! TreeGen hot-path perf baseline: absolute fast-path throughput plus
//! deterministic quality gates.
//!
//! Measures four stages on the 8-GPU DGX-1V NVLink graph at ε = 0.05 — the
//! paper's headline broadcast configuration — and writes `BENCH_packing.json`
//! so future PRs have a trajectory to compare against:
//!
//! * **packing** — the zero-allocation scratch-reuse MWU packing
//!   ([`blink_graph::pack_spanning_trees_in`]);
//! * **minimize** — the iterative arena branch-and-bound
//!   ([`blink_graph::minimize_trees_in`]) reducing the raw MWU packing;
//! * **certificate** — the broadcast-rate certificate
//!   ([`blink_graph::optimal_broadcast_rate_in`]), which on 8 vertices takes
//!   the Gray-code rooted-cut enumeration;
//! * **certificate_allsinks** — the Hao–Orlin-style all-sinks pass
//!   ([`blink_graph::broadcast_rate_all_sinks_in`]) on a 24-vertex
//!   three-server DGX-1V fabric, the regime past
//!   [`blink_graph::CUT_ENUMERATION_MAX_NODES`] where production runs it.
//!
//! A fifth stage, **dgx2_packing**, packs and minimises the full 16-GPU DGX-2
//! NVSwitch graph — the largest single-server packing. It records only work
//! counts: MWU iterations, trees before and after minimisation, the
//! certificate, and heap allocations per steady-state packing (the binary
//! installs the [`blink_bench::alloc::Counting`] allocator). Its wall time is
//! context. A communicator no longer runs this packing: an NVSwitch graph is
//! complete and uniform, so [`blink_core::TreeGen`] plans it in closed form
//! from its first GPU. The stage therefore also records, for the full DGX-2
//! and its first 12 GPUs rooted at GPU 0, the TreeGen plan's MWU iterations
//! (0) and trees (15 and 11), and whether that plan is bit-identical to the
//! stage's own MWU-plus-minimisation plan of the same graph.
//!
//! A sixth stage, **lane_packing**, runs the exact lane packer
//! ([`blink_graph::pack_lanes_in`]) from every root of every DGX-1V and
//! DGX-1P class of 2–8 GPUs that NVLink spans (299 class × root plans). It
//! records the packer's work — max-flows run and search nodes visited,
//! summed and per plan at most — and how many plans fall short of their
//! certificate (0: the packing is exact). Beside them, as context, it
//! records the mean and maximum wall time of one exact plan and of one MWU
//! packing plus minimisation of the same graph and root.
//!
//! The pre-optimisation naive solvers are not measured here: they survive
//! only as the test-only bit-identity oracles the graph crate's unit tests
//! pin the fast paths against. The recorded throughput here is consequently
//! **absolute** and machine-dependent; it is written for trajectory context,
//! not gated.
//!
//! Run with `cargo run --release -p blink-bench --bin bench_packing`.
//!
//! `--check` runs a quick-mode measurement and gates only on properties that
//! do not depend on runner hardware:
//!
//! * the packed rate must meet the MWU approximation guarantee
//!   (`rate_over_optimal >= 1 - ε`) and must not fall below the recorded
//!   ratio (the packing is deterministic);
//! * the MWU iteration count must not exceed the recording (work blow-up
//!   with unchanged output quality is still a regression);
//! * the minimised packing must not use more trees than recorded;
//! * the broadcast-rate certificate on the DGX-1V and the all-sinks
//!   certificate on the multi-server fabric must each reproduce the recorded
//!   value exactly (they are deterministic functions of the topology);
//! * the DGX-2 stage's MWU iterations, trees before and after minimisation
//!   and allocations per packing must not exceed the recording, and its
//!   certificate must reproduce the recorded value exactly. These counts
//!   are the same on every runner, so the gate is armed everywhere;
//! * the TreeGen plans of the full DGX-2 and its 12-GPU shape must run no
//!   more MWU iterations and keep no more trees than recorded, and each must
//!   be bit-identical to the stage's MWU-plus-minimisation plan;
//! * the lane stage's max-flows and search nodes, summed and per plan at
//!   most, and its trees must not exceed the recording, every plan must
//!   reach its certificate, and the plan count must equal the recording.
//!
//! It does not rewrite the JSON.

use blink_bench::alloc::{allocations, Counting};
use blink_bench::over_recording;
use blink_core::{TreeGen, TreeGenOptions};
use blink_graph::lanes::whole_lanes;
use blink_graph::{
    broadcast_rate_all_sinks_in, lane_unit, minimize_trees_in, optimal_broadcast_rate,
    optimal_broadcast_rate_in, pack_lanes_in, pack_spanning_trees_in, DiGraph, LaneScratch,
    MaxFlowScratch, MinimizeOptions, MinimizeScratch, PackingOptions, PackingScratch, TreePacking,
};
use blink_topology::enumerate::unique_allocations;
use blink_topology::presets::{dgx1p, dgx1v, dgx2, multi_server, ServerKind, DEFAULT_NIC_GBPS};
use blink_topology::GpuId;
use serde::Serialize;
use std::time::Instant;

#[global_allocator]
static ALLOC: Counting = Counting;

const EPSILON: f64 = 0.05;
const ROOT: GpuId = GpuId(0);
/// Throughput and quality of the MWU packing fast path.
#[derive(Debug, Serialize)]
struct PackingReport {
    /// Complete packings computed per second (absolute, machine-dependent).
    packings_per_sec: f64,
    /// Packed trees produced per second (trees in the final packing divided
    /// by the time one packing takes).
    trees_per_sec: f64,
    /// Mean wall-clock microseconds per packing.
    us_per_packing: f64,
    /// MWU iterations (min-arborescence solves) one packing runs.
    mwu_iterations: usize,
    /// Distinct trees in the resulting packing.
    num_trees: usize,
    /// Total packed rate in GB/s.
    rate_gbps: f64,
    /// Packed rate divided by the Edmonds/Lovász certificate.
    rate_over_optimal: f64,
}

/// Throughput and quality of the tree-count minimisation fast path.
#[derive(Debug, Serialize)]
struct MinimizeReport {
    /// Minimisations per second (absolute, machine-dependent).
    per_sec: f64,
    /// Mean wall-clock microseconds per invocation.
    us_per_call: f64,
    /// Trees in the minimised packing (deterministic; gated).
    num_trees: usize,
    /// Minimised rate divided by the certificate.
    rate_over_optimal: f64,
}

/// Throughput and value of the broadcast-rate certificate fast path.
#[derive(Debug, Serialize)]
struct CertificateReport {
    /// Certificates per second (absolute, machine-dependent).
    per_sec: f64,
    /// Mean wall-clock microseconds per invocation.
    us_per_call: f64,
    /// The certificate value in GB/s (deterministic; gated exactly).
    rate_gbps: f64,
}

/// The all-sinks (Hao–Orlin-style) certificate on a 24-vertex three-server
/// DGX-1V fabric.
#[derive(Debug, Serialize)]
struct CertificateAllSinksReport {
    /// Vertices of the benchmark graph.
    vertices: usize,
    /// Best-of-windows wall-clock microseconds per all-sinks call
    /// (absolute, machine-dependent; context only).
    allsinks_us_per_call: f64,
    /// The certificate value in GB/s (deterministic; gated exactly).
    rate_gbps: f64,
}

/// Work counts of packing and minimising the full 16-GPU DGX-2.
#[derive(Debug, Serialize)]
struct Dgx2PackingReport {
    /// GPUs in the packed graph.
    gpus: usize,
    /// MWU iterations (min-arborescence solves) one packing runs (gated).
    mwu_iterations: usize,
    /// Distinct trees in the MWU packing (gated).
    trees_packed: usize,
    /// Trees left after minimisation (gated).
    trees_minimized: usize,
    /// The broadcast-rate certificate in GB/s (gated exactly).
    certificate_gbps: f64,
    /// Heap allocations and reallocations per steady-state packing through
    /// a reused scratch (gated).
    allocs_per_packing: f64,
    /// Mean wall-clock microseconds per packing (context only).
    us_per_packing: f64,
    /// MWU iterations of the TreeGen plan of the full DGX-2 from GPU 0
    /// (gated; 0, the closed form).
    treegen16_iterations: usize,
    /// Trees in that plan (gated).
    treegen16_trees: usize,
    /// Whether that plan is bit-identical to this stage's MWU packing plus
    /// minimisation (gated true).
    treegen16_bit_identical: bool,
    /// MWU iterations of the TreeGen plan of the DGX-2's GPUs 0–11 from GPU 0
    /// (gated; 0, the closed form).
    treegen12_iterations: usize,
    /// Trees in that plan (gated).
    treegen12_trees: usize,
    /// Whether that plan is bit-identical to an MWU packing plus minimisation
    /// of the same graph (gated true).
    treegen12_bit_identical: bool,
}

/// The TreeGen plan of the DGX-2's first `gpus` GPUs from GPU 0: its MWU
/// iterations, its tree count, and whether its trees (order, edges, weight
/// bits) and certificate bits equal `minimized` and `certificate`, the
/// stage's MWU packing plus minimisation of the same graph.
fn treegen_dgx2(gpus: usize, minimized: &TreePacking, certificate: f64) -> (usize, usize, bool) {
    let alloc: Vec<GpuId> = (0..gpus).map(GpuId).collect();
    let induced = dgx2().induced(&alloc).expect("a DGX-2 allocation");
    let plan = TreeGen::new(induced, TreeGenOptions::default())
        .plan(ROOT)
        .expect("an NVSwitch allocation spans");
    let same = plan.optimal_rate_gbps.to_bits() == certificate.to_bits()
        && plan.trees.len() == minimized.trees.len()
        && plan
            .trees
            .iter()
            .zip(&minimized.trees)
            .all(|(a, b)| a.tree == b.tree && a.weight.to_bits() == b.weight.to_bits());
    (plan.mwu.iterations, plan.num_trees(), same)
}

/// The exact lane packer over every DGX-1V and DGX-1P class × root.
#[derive(Debug, Serialize)]
struct LanePackingReport {
    /// Class × root plans packed (every root NVLink spans; gated equal).
    plans: usize,
    /// Max-flows run over all plans (gated).
    max_flows: u64,
    /// Search nodes visited over all plans (gated).
    search_nodes: u64,
    /// Max-flows of the costliest plan (gated).
    max_flows_per_plan_max: u64,
    /// Search nodes of the costliest plan (gated).
    search_nodes_per_plan_max: u64,
    /// Trees over all plans, identical ones merged (gated).
    trees: usize,
    /// Plans whose rate is not their certificate (gated 0).
    below_certificate: usize,
    /// Mean wall-clock microseconds of one exact plan (context only).
    mean_us: f64,
    /// The slowest exact plan's wall-clock microseconds (context only).
    max_us: f64,
    /// Mean wall-clock microseconds of one MWU packing plus minimisation of
    /// the same graphs and roots (context only).
    mwu_mean_us: f64,
    /// The slowest MWU packing plus minimisation (context only).
    mwu_max_us: f64,
}

/// Packs every DGX-1V and DGX-1P class of 2–8 GPUs from every root NVLink
/// spans, exactly and by MWU plus minimisation, timing each over `runs`
/// calls.
fn lane_packing(runs: usize) -> LanePackingReport {
    let mut out = LanePackingReport {
        plans: 0,
        max_flows: 0,
        search_nodes: 0,
        max_flows_per_plan_max: 0,
        search_nodes_per_plan_max: 0,
        trees: 0,
        below_certificate: 0,
        mean_us: 0.0,
        max_us: 0.0,
        mwu_mean_us: 0.0,
        mwu_max_us: 0.0,
    };
    let (mut lanes, mut packing, mut minimize) = Default::default();
    let mut cut = MaxFlowScratch::new();
    let opts = PackingOptions::default();
    for machine in [dgx1v(), dgx1p()] {
        for class in unique_allocations(&machine, 2..=8).expect("a preset enumerates") {
            let induced = machine
                .induced(&class.representative)
                .expect("a valid class");
            let g = DiGraph::from_topology_filtered(&induced, |l| l.kind.is_nvlink());
            // a class with no NVLink edge has no lane and no spanning root
            let Some(unit) = lane_unit(&g) else {
                continue;
            };
            for (r, _) in g.spanning_roots().iter().enumerate().filter(|(_, &s)| s) {
                let root = g.gpu(r);
                let certificate = optimal_broadcast_rate_in(&g, r, &mut cut);
                let k = whole_lanes(certificate, unit).expect("a whole number of lanes");
                let pack = |lanes: &mut LaneScratch| {
                    pack_lanes_in(&g, root, unit, k, lanes).expect("the lanes hold k trees")
                };
                let (plan, stats) = pack(&mut lanes);
                let us = time_calls(runs, || {
                    pack(&mut lanes);
                }) * 1e6;
                let mwu_us = time_calls(runs, || {
                    let (p, _) = pack_spanning_trees_in(&g, root, &opts, &mut packing)
                        .expect("the class spans");
                    minimize_trees_in(&g, &p, &MinimizeOptions::default(), &mut minimize);
                }) * 1e6;
                out.plans += 1;
                out.max_flows += stats.max_flows;
                out.search_nodes += stats.search_nodes;
                out.max_flows_per_plan_max = out.max_flows_per_plan_max.max(stats.max_flows);
                out.search_nodes_per_plan_max =
                    out.search_nodes_per_plan_max.max(stats.search_nodes);
                out.trees += plan.num_trees();
                out.below_certificate += usize::from(plan.rate() != certificate);
                out.mean_us += us;
                out.max_us = out.max_us.max(us);
                out.mwu_mean_us += mwu_us;
                out.mwu_max_us = out.mwu_max_us.max(mwu_us);
            }
        }
    }
    out.mean_us /= out.plans as f64;
    out.mwu_mean_us /= out.plans as f64;
    out
}

#[derive(Debug, Serialize)]
struct Config {
    topology: String,
    gpus: usize,
    epsilon: f64,
    root: usize,
    fast_runs: usize,
}

#[derive(Debug, Serialize)]
struct Report {
    config: Config,
    /// The MWU packing fast path (Section 3.1).
    packing: PackingReport,
    /// Tree-count minimisation of the raw MWU packing (Section 3.2.1).
    minimize: MinimizeReport,
    /// The Edmonds/Lovász broadcast-rate certificate.
    certificate: CertificateReport,
    /// The all-sinks certificate on the three-server fabric graph.
    certificate_allsinks: CertificateAllSinksReport,
    /// Packing and minimising the full DGX-2: work counts only.
    dgx2_packing: Dgx2PackingReport,
    /// The exact lane packer over every DGX-1 class × root.
    lane_packing: LanePackingReport,
}

/// Times `runs` invocations of `f` and returns mean seconds per call.
fn time_calls<F: FnMut()>(runs: usize, mut f: F) -> f64 {
    let t0 = Instant::now();
    for _ in 0..runs {
        f();
    }
    t0.elapsed().as_secs_f64() / runs as f64
}

/// Best (minimum) of `reps` timing windows of `runs` calls each, in seconds
/// per call: the minimum window is the estimate least contaminated by
/// scheduler noise on a shared runner.
fn best_of_calls<F: FnMut()>(reps: usize, runs: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        best = best.min(time_calls(runs, &mut f));
    }
    best
}

fn measure(quick: bool) -> Report {
    // Per-stage run counts sized so each stage's timing window is well above
    // clock noise; `quick` (the CI `--check` mode) divides the slow ones.
    let fast_runs = if quick { 50 } else { 200 };
    let min_fast_runs = if quick { 100 } else { 500 };
    let cert_fast_runs = if quick { 5000 } else { 20000 };
    let topo = dgx1v();
    let g = DiGraph::from_topology_filtered(&topo, |l| l.kind.is_nvlink());
    let root_idx = g.node(ROOT).expect("root exists");
    let opt = optimal_broadcast_rate(&g, root_idx);
    let opts = PackingOptions {
        epsilon: EPSILON,
        ..Default::default()
    };

    // ---- packing: iterative solver + reused PackingScratch ----
    let mut scratch = PackingScratch::new();
    let (fast_packing, fast_stats) =
        pack_spanning_trees_in(&g, ROOT, &opts, &mut scratch).expect("dgx1v spans");
    let per_packing = time_calls(fast_runs, || {
        pack_spanning_trees_in(&g, ROOT, &opts, &mut scratch).expect("dgx1v spans");
    });
    let packing = PackingReport {
        packings_per_sec: 1.0 / per_packing,
        trees_per_sec: fast_packing.num_trees() as f64 / per_packing,
        us_per_packing: per_packing * 1e6,
        mwu_iterations: fast_stats.iterations,
        num_trees: fast_packing.num_trees(),
        rate_gbps: fast_packing.rate(),
        rate_over_optimal: fast_packing.rate() / opt,
    };

    // ---- minimize: arena branch-and-bound over the raw MWU packing ----
    let min_opts = MinimizeOptions::default();
    let mut min_scratch = MinimizeScratch::new();
    let minimized = minimize_trees_in(&g, &fast_packing, &min_opts, &mut min_scratch); // warm up
    let per_minimize = time_calls(min_fast_runs, || {
        minimize_trees_in(&g, &fast_packing, &min_opts, &mut min_scratch);
    });
    let minimize = MinimizeReport {
        per_sec: 1.0 / per_minimize,
        us_per_call: per_minimize * 1e6,
        num_trees: minimized.num_trees(),
        rate_over_optimal: minimized.rate() / opt,
    };

    // ---- certificate: Gray-code rooted-cut enumeration on 8 vertices ----
    let mut mf_scratch = MaxFlowScratch::new();
    let cert_value = optimal_broadcast_rate_in(&g, root_idx, &mut mf_scratch); // warm up
    let per_cert = time_calls(cert_fast_runs, || {
        optimal_broadcast_rate_in(&g, root_idx, &mut mf_scratch);
    });
    let certificate = CertificateReport {
        per_sec: 1.0 / per_cert,
        us_per_call: per_cert * 1e6,
        rate_gbps: cert_value,
    };

    // ---- certificate_allsinks: Hao–Orlin on a multi-server fabric ----
    // A three-server DGX-1V fabric (24 vertices: NVLink + PCIe + NIC links)
    // sits past CUT_ENUMERATION_MAX_NODES, where the production certificate
    // dispatches to the all-sinks pass.
    let (allsinks_reps, allsinks_runs) = if quick { (5, 100) } else { (10, 200) };
    let fabric = multi_server(3, ServerKind::Dgx1V, DEFAULT_NIC_GBPS);
    let g24 = DiGraph::from_topology(&fabric);
    let root24 = g24.node(GpuId(0)).expect("fabric root exists");
    let allsinks_value = broadcast_rate_all_sinks_in(&g24, root24, &mut mf_scratch);
    let per_allsinks = best_of_calls(allsinks_reps, allsinks_runs, || {
        broadcast_rate_all_sinks_in(&g24, root24, &mut mf_scratch);
    });
    let certificate_allsinks = CertificateAllSinksReport {
        vertices: g24.num_nodes(),
        allsinks_us_per_call: per_allsinks * 1e6,
        rate_gbps: allsinks_value,
    };

    // ---- dgx2_packing: work counts on the 16-GPU NVSwitch graph ----
    let dgx2_runs = if quick { 10 } else { 40 };
    let g16 = DiGraph::from_topology_filtered(&dgx2(), |l| l.kind.is_nvlink());
    let (packed16, stats16) =
        pack_spanning_trees_in(&g16, ROOT, &opts, &mut scratch).expect("dgx2 spans");
    let before = allocations();
    let t0 = Instant::now();
    for _ in 0..dgx2_runs {
        pack_spanning_trees_in(&g16, ROOT, &opts, &mut scratch).expect("dgx2 spans");
    }
    let per_packing16 = t0.elapsed().as_secs_f64() / dgx2_runs as f64;
    let allocs16 = allocations() - before;
    let minimized16 = minimize_trees_in(&g16, &packed16, &min_opts, &mut min_scratch);
    let (treegen16_iterations, treegen16_trees, treegen16_bit_identical) =
        treegen_dgx2(16, &minimized16, stats16.certificate_gbps);
    let first12: Vec<GpuId> = (0..12).map(GpuId).collect();
    let g12 = DiGraph::from_topology_filtered(&dgx2().induced(&first12).expect("valid"), |l| {
        l.kind.is_nvlink()
    });
    let (packed12, stats12) =
        pack_spanning_trees_in(&g12, ROOT, &opts, &mut scratch).expect("dgx2 spans");
    let minimized12 = minimize_trees_in(&g12, &packed12, &min_opts, &mut min_scratch);
    let (treegen12_iterations, treegen12_trees, treegen12_bit_identical) =
        treegen_dgx2(12, &minimized12, stats12.certificate_gbps);
    let dgx2_packing = Dgx2PackingReport {
        gpus: g16.num_nodes(),
        mwu_iterations: stats16.iterations,
        trees_packed: packed16.num_trees(),
        trees_minimized: minimized16.num_trees(),
        certificate_gbps: stats16.certificate_gbps,
        allocs_per_packing: allocs16 as f64 / dgx2_runs as f64,
        us_per_packing: per_packing16 * 1e6,
        treegen16_iterations,
        treegen16_trees,
        treegen16_bit_identical,
        treegen12_iterations,
        treegen12_trees,
        treegen12_bit_identical,
    };

    Report {
        config: Config {
            topology: "dgx1v".to_string(),
            gpus: 8,
            epsilon: EPSILON,
            root: ROOT.0,
            fast_runs,
        },
        packing,
        minimize,
        certificate,
        certificate_allsinks,
        dgx2_packing,
        lane_packing: lane_packing(if quick { 2 } else { 10 }),
    }
}

/// Compares the deterministic quality metrics against the recorded
/// trajectory; returns human-readable failure descriptions. Wall-clock
/// throughput is deliberately not compared — without an in-process naive
/// side there is no ratio for runner hardware to cancel out of.
fn check_against_recorded(recorded: &serde::Value, report: &Report) -> Vec<String> {
    let recorded_f64 = |path: &[&str]| -> Option<f64> {
        let mut v = recorded;
        for key in path {
            v = v.get(key)?;
        }
        v.as_f64()
    };
    let mut failures = Vec::new();
    if report.packing.rate_over_optimal < 1.0 - EPSILON {
        failures.push(format!(
            "packing rate is {:.4} of the certificate, below the MWU guarantee of 1 - ε = {:.4}",
            report.packing.rate_over_optimal,
            1.0 - EPSILON
        ));
    }
    match recorded_f64(&["packing", "rate_over_optimal"]) {
        Some(rec) if report.packing.rate_over_optimal < rec => failures.push(format!(
            "packing rate_over_optimal {} is below the recorded {rec}",
            report.packing.rate_over_optimal
        )),
        Some(_) => {}
        None => failures.push("BENCH_packing.json records no packing.rate_over_optimal".into()),
    }
    failures.extend(over_recording(
        "packing",
        recorded.get("packing"),
        &[("mwu_iterations", report.packing.mwu_iterations as f64)],
    ));
    failures.extend(over_recording(
        "minimize",
        recorded.get("minimize"),
        &[("num_trees", report.minimize.num_trees as f64)],
    ));
    if let Some(rec) = recorded_f64(&["certificate", "rate_gbps"]) {
        if (report.certificate.rate_gbps - rec).abs() > 1e-6 * rec.max(1.0) {
            failures.push(format!(
                "broadcast-rate certificate is {:.6} GB/s but the recording says {rec:.6} — \
                 the certificate is a deterministic function of the topology",
                report.certificate.rate_gbps
            ));
        }
    }
    if let Some(rec) = recorded_f64(&["certificate_allsinks", "rate_gbps"]) {
        if (report.certificate_allsinks.rate_gbps - rec).abs() > 1e-6 * rec.max(1.0) {
            failures.push(format!(
                "all-sinks certificate is {:.6} GB/s but the recording says {rec:.6} — \
                 it is a deterministic function of the topology",
                report.certificate_allsinks.rate_gbps
            ));
        }
    }
    let d = &report.dgx2_packing;
    failures.extend(over_recording(
        "dgx2_packing",
        recorded.get("dgx2_packing"),
        &[
            ("mwu_iterations", d.mwu_iterations as f64),
            ("trees_packed", d.trees_packed as f64),
            ("trees_minimized", d.trees_minimized as f64),
            ("allocs_per_packing", d.allocs_per_packing),
            ("treegen16_iterations", d.treegen16_iterations as f64),
            ("treegen16_trees", d.treegen16_trees as f64),
            ("treegen12_iterations", d.treegen12_iterations as f64),
            ("treegen12_trees", d.treegen12_trees as f64),
        ],
    ));
    for (key, same) in [
        ("treegen16_bit_identical", d.treegen16_bit_identical),
        ("treegen12_bit_identical", d.treegen12_bit_identical),
    ] {
        let recorded = recorded.get("dgx2_packing").and_then(|r| r.get(key));
        match recorded.and_then(|v| v.as_bool()) {
            Some(true) if same => {}
            Some(_) => failures.push(format!(
                "dgx2_packing {key} is {same}: the TreeGen plan must equal the MWU plan"
            )),
            None => failures.push(format!("dgx2_packing {key} is not recorded")),
        }
    }
    let l = &report.lane_packing;
    failures.extend(over_recording(
        "lane_packing",
        recorded.get("lane_packing"),
        &[
            ("max_flows", l.max_flows as f64),
            ("search_nodes", l.search_nodes as f64),
            ("max_flows_per_plan_max", l.max_flows_per_plan_max as f64),
            (
                "search_nodes_per_plan_max",
                l.search_nodes_per_plan_max as f64,
            ),
            ("trees", l.trees as f64),
        ],
    ));
    if l.below_certificate != 0 {
        failures.push(format!(
            "lane_packing: {} plans fall short of their certificate",
            l.below_certificate
        ));
    }
    if recorded_f64(&["lane_packing", "plans"]) != Some(l.plans as f64) {
        failures.push(format!(
            "lane_packing packs {} class × root plans, not the recorded number",
            l.plans
        ));
    }
    match recorded_f64(&["dgx2_packing", "certificate_gbps"]) {
        Some(rec) if (d.certificate_gbps - rec).abs() > 1e-6 * rec.max(1.0) => {
            failures.push(format!(
                "DGX-2 certificate is {:.6} GB/s but the recording says {rec:.6}",
                d.certificate_gbps
            ))
        }
        Some(_) => {}
        None => failures.push("BENCH_packing.json records no dgx2_packing.certificate_gbps".into()),
    }
    failures
}

fn main() {
    let check_mode = std::env::args().any(|a| a == "--check");
    let out = measure(check_mode);

    if check_mode {
        let recorded = std::fs::read_to_string("BENCH_packing.json")
            .expect("BENCH_packing.json exists for --check");
        let recorded = serde_json::parse(&recorded).expect("BENCH_packing.json parses");
        let failures = check_against_recorded(&recorded, &out);
        eprintln!(
            "quick check: packing {:.1} us ({} trees, rate/optimal {:.3}), minimize {:.1} us \
             ({} trees), certificate {:.1} us; all-sinks certificate {:.1} us ({} vertices)",
            out.packing.us_per_packing,
            out.packing.num_trees,
            out.packing.rate_over_optimal,
            out.minimize.us_per_call,
            out.minimize.num_trees,
            out.certificate.us_per_call,
            out.certificate_allsinks.allsinks_us_per_call,
            out.certificate_allsinks.vertices,
        );
        eprintln!("{}", dgx2_summary(&out.dgx2_packing));
        eprintln!("{}", lane_summary(&out.lane_packing));
        if failures.is_empty() {
            eprintln!("all packing quality gates hold against the recorded trajectory");
            return;
        }
        for f in &failures {
            eprintln!("REGRESSION: {f}");
        }
        std::process::exit(1);
    }

    let json = serde_json::to_string_pretty(&out).expect("serializable");
    std::fs::write("BENCH_packing.json", &json).expect("write BENCH_packing.json");
    println!("{json}");
    eprintln!(
        "packing {:.1} us/call ({} trees, rate/optimal {:.3}), minimize {:.1} us/call \
         ({} trees), certificate {:.1} us/call, all-sinks certificate {:.1} us/call \
         @ {} vertices",
        out.packing.us_per_packing,
        out.packing.num_trees,
        out.packing.rate_over_optimal,
        out.minimize.us_per_call,
        out.minimize.num_trees,
        out.certificate.us_per_call,
        out.certificate_allsinks.allsinks_us_per_call,
        out.certificate_allsinks.vertices,
    );
    eprintln!("{}", dgx2_summary(&out.dgx2_packing));
    eprintln!("{}", lane_summary(&out.lane_packing));
}

fn lane_summary(l: &LanePackingReport) -> String {
    format!(
        "lane_packing: {} plans, {} max-flows ({} at most per plan), {} search nodes ({} at \
         most), {} trees, {} below their certificate; exact {:.1} us mean, {:.1} us max; MWU \
         plus minimisation {:.1} us mean, {:.1} us max (context only)",
        l.plans,
        l.max_flows,
        l.max_flows_per_plan_max,
        l.search_nodes,
        l.search_nodes_per_plan_max,
        l.trees,
        l.below_certificate,
        l.mean_us,
        l.max_us,
        l.mwu_mean_us,
        l.mwu_max_us,
    )
}

fn dgx2_summary(d: &Dgx2PackingReport) -> String {
    format!(
        "dgx2_packing: {} GPUs, {} MWU iterations, {} -> {} trees, certificate {} GB/s, \
         {} allocations/packing; {:.1} us/packing (context only); TreeGen from GPU 0: \
         16 GPUs {} iterations, {} trees, bit-identical {}; 12 GPUs {} iterations, {} trees, \
         bit-identical {}",
        d.gpus,
        d.mwu_iterations,
        d.trees_packed,
        d.trees_minimized,
        d.certificate_gbps,
        d.allocs_per_packing,
        d.us_per_packing,
        d.treegen16_iterations,
        d.treegen16_trees,
        d.treegen16_bit_identical,
        d.treegen12_iterations,
        d.treegen12_trees,
        d.treegen12_bit_identical,
    )
}
