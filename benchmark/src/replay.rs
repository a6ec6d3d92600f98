//! The traced run's layer-by-layer replay.
//!
//! The pipeline and the communicator run their layers internally, so the
//! benchmark times the layers below them by replaying the planning problems
//! a workload posed, calling each layer's public entry point from here:
//! induce the topology → pack spanning trees from every candidate root →
//! minimise → certificate → lower the AllReduces (fused as the communicator
//! fuses them) → simulate → check with the value-level oracle. Each distinct
//! topology (by `plan_fingerprint`) is planned once, and also replanned
//! through `Communicator::replan` after losing one NVLink pair and,
//! separately, one GPU, counting the degradation-ladder rung each replan
//! lands on.
//!
//! The replay lowers packed trees everywhere; on switch fabrics the
//! communicator may pick one-hop trees instead.

use crate::alloc::allocations;
use crate::metrics::{add, Values};
use crate::trace::{SpanId, Tracer};
use crate::workload::Problem;
use blink_core::{
    fuse_requests, plan_fingerprint, CodeGen, CodeGenOptions, CollectiveKind, Communicator,
    CommunicatorOptions, DegradationLevel, LinkSelection, SharedPlanCache, TreeGenOptions,
};
use blink_graph::{
    minimize_trees_in, optimal_broadcast_rate_in, pack_spanning_trees_in, DiGraph, MaxFlowScratch,
    MinimizeOptions, MinimizeScratch, PackingScratch, WeightedTree,
};
use blink_sim::{check_collective, EngineScratch, LinkClass, Simulator};
use blink_topology::{LinkKind, Topology, TopologyDelta};
use std::collections::btree_map::{BTreeMap, Entry};

/// Bytes of the AllReduce each replan probe runs before its delta.
const PROBE_BYTES: u64 = 4 << 20;

/// The trees the replay lowers for one topology.
struct Plan {
    trees: Vec<WeightedTree>,
    class: LinkClass,
}

#[derive(Default)]
struct Scratch {
    packing: PackingScratch,
    minimize: MinimizeScratch,
    flow: MaxFlowScratch,
    engine: EngineScratch,
}

/// Runs `f`, returning its result and the allocations it made.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = allocations();
    let out = f();
    (out, allocations() - before)
}

/// Replays `problems` under `parent`, adding per-layer counters to
/// `values`. Returns the problems that failed or did not check correct.
pub fn replay(
    problems: &[Problem],
    tr: &mut Tracer,
    parent: SpanId,
    values: &mut Values,
) -> Vec<String> {
    let mut errors = Vec::new();
    let mut scratch = Scratch::default();
    let mut plans: BTreeMap<u64, Option<Plan>> = BTreeMap::new();
    let replan_cache = SharedPlanCache::new();
    let options = TreeGenOptions::default();
    for problem in problems {
        let topo = match tr.time("topology.induce", parent, || problem.source.induce()) {
            Ok(topo) => topo,
            Err(e) => {
                errors.push(e);
                continue;
            }
        };
        add(values, "topology.induce.calls", 1.0);
        if topo.num_gpus() < 2 {
            continue;
        }
        let fingerprint = plan_fingerprint(&topo, &options);
        let planned = match plans.entry(fingerprint) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                if let Err(err) = replan(&topo, &replan_cache, tr, parent, values) {
                    errors.push(format!("replan on {}: {err}", topo.name()));
                }
                e.insert(plan(&topo, &options, tr, parent, values, &mut scratch))
            }
        };
        match planned {
            Some(plan) => {
                if let Err(e) =
                    lower_and_run(&topo, plan, problem, tr, parent, values, &mut scratch)
                {
                    errors.push(format!("{}: {e}", topo.name()));
                }
            }
            None => errors.push(format!(
                "{}: no link class spans the allocation",
                topo.name()
            )),
        }
    }
    for (per_call, calls) in [
        ("alloc.graph.packing.per_call", "graph.packing.calls"),
        ("alloc.core.codegen.per_call", "core.codegen.calls"),
        ("alloc.sim.engine.per_call", "sim.engine.calls"),
        ("alloc.sim.oracle.per_call", "sim.oracle.checks"),
    ] {
        let calls = values.get(calls).copied().unwrap_or(0.0).max(1.0);
        if let Some(total) = values.get_mut(per_call) {
            *total /= calls;
        }
    }
    errors
}

/// Packs, minimises and certifies every candidate root the communicator's
/// root sweep would plan, keeping the best root's trees. NVLink first, PCIe
/// when NVLink spans from no root; `None` when neither does.
fn plan(
    topo: &Topology,
    options: &TreeGenOptions,
    tr: &mut Tracer,
    parent: SpanId,
    values: &mut Values,
    scratch: &mut Scratch,
) -> Option<Plan> {
    let gpus = topo.gpu_ids();
    for (links, class) in [
        (LinkSelection::NvLinkOnly, LinkClass::NvLink),
        (LinkSelection::PcieOnly, LinkClass::Pcie),
    ] {
        let graph = tr.time("topology.induce", parent, || {
            DiGraph::from_topology_filtered(topo, |l| links.matches(l))
        });
        // a switch fabric is symmetric: the communicator plans one root
        let switched = topo.links().iter().any(|l| l.kind == LinkKind::NvSwitch);
        let candidates = if switched { &gpus[..1] } else { &gpus[..] };
        let mut best: Option<(f64, Vec<WeightedTree>)> = None;
        for &root in candidates {
            let Some(idx) = graph.node(root).filter(|&i| graph.spans_from(i)) else {
                continue;
            };
            let packed = tr.time("graph.packing", parent, || {
                counted(|| {
                    pack_spanning_trees_in(&graph, root, &options.packing, &mut scratch.packing)
                })
            });
            add(values, "graph.packing.calls", 1.0);
            add(values, "alloc.graph.packing.per_call", packed.1 as f64);
            let Ok((packing, stats)) = packed.0 else {
                continue;
            };
            add(
                values,
                "graph.packing.mwu_iterations",
                stats.iterations as f64,
            );
            add(values, "graph.packing.trees", packing.num_trees() as f64);
            let minimize = MinimizeOptions {
                known_optimum: Some(stats.certificate_gbps),
                ..options.minimize
            };
            let minimized = tr.time("graph.minimize", parent, || {
                minimize_trees_in(&graph, &packing, &minimize, &mut scratch.minimize)
            });
            add(
                values,
                "graph.minimize.trees_out",
                minimized.num_trees() as f64,
            );
            tr.time("graph.certificate", parent, || {
                optimal_broadcast_rate_in(&graph, idx, &mut scratch.flow)
            });
            add(values, "graph.certificate.calls", 1.0);
            let rate: f64 = minimized.trees.iter().map(|t| t.weight).sum();
            if best.as_ref().is_none_or(|(r, _)| rate > *r) {
                best = Some((rate, minimized.trees));
            }
        }
        if let Some((_, trees)) = best {
            return Some(Plan { trees, class });
        }
    }
    None
}

/// Lowers the problem's AllReduces over `plan`, fusing sub-threshold ones
/// as `Communicator::run_streamed` does, runs them concurrently in one
/// simulator session and checks each program with the oracle.
fn lower_and_run(
    topo: &Topology,
    plan: &Plan,
    problem: &Problem,
    tr: &mut Tracer,
    parent: SpanId,
    values: &mut Values,
    scratch: &mut Scratch,
) -> Result<(), String> {
    let kind = CollectiveKind::AllReduce;
    let sizes: Vec<u64> = problem.requests.iter().map(|r| r.0).collect();
    let groups = fuse_requests(
        &sizes,
        CommunicatorOptions::default().fusion_threshold_bytes,
    );
    let codegen = CodeGen::new(CodeGenOptions {
        link_class: plan.class,
        ..Default::default()
    });
    let sim = Simulator::new(topo.clone(), Default::default());
    let mut session = sim.session();
    for group in &groups {
        let (program, allocs) = tr.time("core.codegen", parent, || {
            counted(|| codegen.build(&plan.trees, kind, group.total_bytes))
        });
        let program = program.map_err(|e| e.to_string())?;
        add(values, "core.codegen.calls", 1.0);
        add(values, "core.codegen.ops", program.len() as f64);
        add(values, "alloc.core.codegen.per_call", allocs as f64);
        if group.is_fused() {
            add(values, "core.fusion.fused_programs", 1.0);
        }
        let issue_us = group
            .members
            .iter()
            .map(|&i| problem.requests[i].1)
            .fold(0.0, f64::max);
        session.admit(program, issue_us);
    }
    let (report, allocs) = tr.time("sim.engine", parent, || {
        counted(|| session.run_with_scratch(&mut scratch.engine))
    });
    let report = report.map_err(|e| e.to_string())?;
    let ops: usize = session.programs().iter().map(|(p, _)| p.len()).sum();
    add(values, "sim.engine.calls", 1.0);
    add(values, "sim.engine.ops", ops as f64);
    add(values, "sim.engine.simulated_us", report.total_us);
    add(values, "alloc.sim.engine.per_call", allocs as f64);
    let gpus = topo.gpu_ids();
    for ((group, (program, _)), span) in groups.iter().zip(session.programs()).zip(&report.programs)
    {
        let (check, allocs) = tr.time("sim.oracle", parent, || {
            counted(|| {
                check_collective(
                    kind.spec(),
                    program,
                    &span.op_spans,
                    &gpus,
                    group.total_bytes,
                )
            })
        });
        add(values, "sim.oracle.checks", 1.0);
        add(values, "alloc.sim.oracle.per_call", allocs as f64);
        if !check.is_correct() {
            add(values, "sim.oracle.failures", 1.0);
            return Err(check.to_string());
        }
    }
    Ok(())
}

/// Replans a fresh communicator over `topo` after losing its first NVLink
/// pair and, separately, its last GPU. The communicators share one plan
/// cache, so only the first one per topology packs cold.
fn replan(
    topo: &Topology,
    cache: &SharedPlanCache,
    tr: &mut Tracer,
    parent: SpanId,
    values: &mut Values,
) -> Result<(), String> {
    let gpus = topo.gpu_ids();
    let mut deltas = Vec::new();
    if let Some(l) = topo.links().iter().find(|l| l.kind.is_nvlink()) {
        deltas.push(TopologyDelta::kill_link(topo, l.src, l.dst));
    }
    if let Some(&last) = gpus.last() {
        deltas.push(TopologyDelta::drop_gpu(last));
    }
    for delta in deltas {
        let mut comm = Communicator::builder(topo.clone())
            .shared_plans(cache.clone())
            .build()
            .map_err(|e| e.to_string())?;
        comm.run(CollectiveKind::AllReduce, PROBE_BYTES)
            .map_err(|e| e.to_string())?;
        let report = tr
            .time("core.replan", parent, || comm.replan(&delta))
            .map_err(|e| e.to_string())?;
        add(values, "core.replan.calls", 1.0);
        add(
            values,
            "core.replan.warm_iterations",
            report.warm_iterations as f64,
        );
        let rung = match report.degradation {
            DegradationLevel::FullWarmRepair => "core.replan.rung.full_warm_repair",
            DegradationLevel::PackedReplan => "core.replan.rung.packed_replan",
            DegradationLevel::PcieFallback => "core.replan.rung.pcie_fallback",
            DegradationLevel::ShrunkSubgroup => "core.replan.rung.shrunk_subgroup",
        };
        add(values, rung, 1.0);
    }
    Ok(())
}
