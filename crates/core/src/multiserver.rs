//! The three-phase cross-machine AllReduce (Section 3.5, Figure 10).
//!
//! When a job's GPUs span several servers, Blink partitions the buffer across
//! the server-local spanning-tree roots and runs:
//!
//! 1. **Local reduce** — within every server, each partition is reduced over
//!    that server's spanning trees to the partition's server-local root.
//! 2. **Cross-server reduce-broadcast** — for every partition, the server
//!    local roots form one-hop trees over the network (exactly the DGX-2
//!    scheme, but across machines): each root owns `1/servers` of the
//!    partition, receives the other servers' contributions for that slice,
//!    reduces, and sends the result back.
//! 3. **Local broadcast** — every server-local root broadcasts its fully
//!    reduced partition over the local trees.

use crate::autotune::{rank_fingerprint, SharedPlanCache};
use crate::codegen::{check_op_budget, Chunks, CodeGen, CodeGenOptions};
use crate::collective::CollectiveKind;
use crate::treegen::{LinkSelection, PlanningGraphs, TreePlan};
use crate::{BlinkError, Result};
use blink_sim::{LinkClass, OpId, Program, ProgramBuilder};
use blink_topology::{GpuId, ServerId, Topology};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Summary of the plan the three-phase protocol chose (useful for reports and
/// the experiment harness).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThreePhaseInfo {
    /// Number of servers involved.
    pub servers: usize,
    /// Number of data partitions (= spanning-tree roots per server).
    pub partitions: usize,
    /// The per-server, per-partition roots: `roots[s][p]`.
    pub roots: Vec<Vec<GpuId>>,
    /// Aggregate local tree-packing rate per server (GB/s).
    pub local_rates_gbps: Vec<f64>,
}

fn split_even(total: u64, parts: usize) -> Vec<u64> {
    if parts == 0 {
        return Vec::new();
    }
    let base = total / parts as u64;
    let rem = (total % parts as u64) as usize;
    (0..parts)
        .map(|i| if i < rem { base + 1 } else { base })
        .collect()
}

/// Builds the three-phase AllReduce program for an allocation spanning
/// multiple servers.
///
/// Every per-server, per-partition-root plan over the `links` class is
/// looked up in `store` under its server-induced topology's rank
/// fingerprint first, and fresh packs
/// are published back, so repeated collectives (the communicator's autotune
/// loop) and other communicators of the same shape, on any servers, never
/// re-pack. The per-server plans are independent (PAPER.md §3.5); the
/// servers plan one after another on the calling thread, so a server whose
/// local shape an earlier one shares hits that server's fresh plans,
/// relabelled. Planning stops at the first server the link class cannot
/// span.
///
/// # Errors
/// Fails when the allocation lives on a single server (use the single-server
/// path instead) or when a server's local allocation cannot be spanned by the
/// selected link class.
pub fn three_phase_allreduce_cached(
    machine: &Topology,
    allocation: &[GpuId],
    bytes: u64,
    links: LinkSelection,
    cg_options: &CodeGenOptions,
    store: &SharedPlanCache,
) -> Result<(Program, ThreePhaseInfo)> {
    // group by server, preserving allocation order
    let mut by_server: BTreeMap<ServerId, Vec<GpuId>> = BTreeMap::new();
    for &g in allocation {
        let server = machine
            .gpu(g)
            .map_err(|e| BlinkError::Planning(e.to_string()))?
            .server;
        by_server.entry(server).or_default().push(g);
    }
    let servers: Vec<(ServerId, Vec<GpuId>)> = by_server.into_iter().collect();
    if servers.len() < 2 {
        return Err(BlinkError::Planning(
            "three-phase AllReduce needs GPUs on at least two servers".to_string(),
        ));
    }
    let partitions = servers
        .iter()
        .map(|(_, gpus)| gpus.len())
        .min()
        .unwrap_or(1)
        .max(1);

    // Plan local trees for every (server, partition root), server by
    // server: the same local shape on a later server hits the plans the
    // earlier one just published, relabelled onto its GPUs.
    let roots: Vec<Vec<GpuId>> = servers
        .iter()
        .map(|(_, gpus)| (0..partitions).map(|p| gpus[p % gpus.len()]).collect())
        .collect();
    let mut plans: Vec<Vec<Arc<TreePlan>>> = Vec::with_capacity(servers.len());
    for ((_, gpus), server_roots) in servers.iter().zip(&roots) {
        let topo = machine
            .induced(gpus)
            .map_err(|e| BlinkError::Planning(e.to_string()))?;
        let fp = rank_fingerprint(&topo);
        let graphs = PlanningGraphs::default();
        let server_plans = server_roots
            .iter()
            .map(|&root| store.resolve(links, &topo, fp, root, None, &graphs))
            .collect::<Result<Vec<_>>>()?;
        plans.push(server_plans);
    }
    let local_rates: Vec<f64> = plans
        .iter()
        .map(|server_plans| {
            server_plans
                .iter()
                .map(|plan| plan.rate_gbps())
                .sum::<f64>()
                / partitions as f64
        })
        .collect();

    let cg = CodeGen::new(*cg_options);
    let mut builder = ProgramBuilder::new();
    let partition_bytes = split_even(bytes, partitions);
    let n_servers = servers.len();

    // partition p owns the contiguous range [partition_base[p], .. + pb) of
    // the collective's [0, bytes) buffer; every op below carries its exact
    // sub-range of it so the value-level oracle can replay the protocol.
    // The local reduce/broadcast phases lower through CodeGen and therefore
    // inherit its segmented one-op-per-edge-per-chunk emission; the phase-2
    // network ops are single contiguous slices by construction.
    let mut partition_base = 0u64;
    // the next op's dependencies, reused op to op
    let mut deps: Vec<OpId> = Vec::new();
    for p in 0..partitions {
        let pb = partition_bytes[p];
        if pb == 0 {
            continue;
        }
        let pbase = partition_base;
        partition_base += pb;
        // ---- phase 1: local reduce toward each server's partition root ----
        let mut phase1_barriers: Vec<OpId> = Vec::with_capacity(n_servers);
        for s in 0..n_servers {
            let start = builder.len();
            cg.emit_range_into(
                &mut builder,
                &plans[s][p].trees,
                CollectiveKind::Reduce { root: roots[s][p] },
                bytes,
                pbase,
                pb,
                &[],
            )?;
            deps.clear();
            deps.extend((start..builder.len()).map(OpId));
            let stream = builder.new_stream();
            let barrier = builder.compute(roots[s][p], 0.0, stream, &deps, "phase1 barrier");
            phase1_barriers.push(barrier);
        }
        // ---- phase 2: cross-server one-hop reduce + return ----
        // split the partition into per-server slices; slice q is owned by
        // server q's root
        let slices = split_even(pb, n_servers);
        let mut phase2_barriers: Vec<Vec<OpId>> = vec![Vec::new(); n_servers];
        let mut slice_base = pbase;
        for q in 0..n_servers {
            let slice = slices[q];
            if slice == 0 {
                continue;
            }
            let sbase = slice_base;
            slice_base += slice;
            let owner = roots[q][p];
            let owner_stream = builder.new_stream();
            let chunks = Chunks::new(slice, cg_options.chunk_bytes);
            // per chunk: a copy in and a copy out per other server, one reduce
            let per_chunk = 2 * n_servers as u128 - 1;
            check_op_budget(builder.len(), u128::from(chunks.count()) * per_chunk)?;
            for c_idx in 0..chunks.count() {
                let (rel, sz) = chunks.get(c_idx);
                let off = sbase + rel;
                // the reduction waits for every arrival and the owner's
                // own phase-1 barrier
                deps.clear();
                for s in 0..n_servers {
                    if s == q {
                        continue;
                    }
                    let stream = builder.new_stream();
                    deps.push(builder.copy_range(
                        roots[s][p],
                        owner,
                        off,
                        sz,
                        LinkClass::Network,
                        stream,
                        &[phase1_barriers[s]],
                        "phase2 in",
                    ));
                }
                deps.push(phase1_barriers[q]);
                let red = builder.reduce_range(owner, off, sz, owner_stream, &deps, "phase2 red");
                phase2_barriers[q].push(red);
                for s in 0..n_servers {
                    if s == q {
                        continue;
                    }
                    let stream = builder.new_stream();
                    let back = builder.copy_range(
                        owner,
                        roots[s][p],
                        off,
                        sz,
                        LinkClass::Network,
                        stream,
                        &[red],
                        "phase2 out",
                    );
                    phase2_barriers[s].push(back);
                }
            }
        }
        // ---- phase 3: local broadcast of the fully reduced partition ----
        for s in 0..n_servers {
            let stream = builder.new_stream();
            let gate =
                builder.compute(roots[s][p], 0.0, stream, &phase2_barriers[s], "phase3 gate");
            cg.emit_range_into(
                &mut builder,
                &plans[s][p].trees,
                CollectiveKind::Broadcast { root: roots[s][p] },
                bytes,
                pbase,
                pb,
                &[gate],
            )?;
        }
    }

    let program = builder
        .build()
        .map_err(|e| BlinkError::CodeGen(e.to_string()))?;
    Ok((
        program,
        ThreePhaseInfo {
            servers: n_servers,
            partitions,
            roots,
            local_rates_gbps: local_rates,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use blink_sim::Simulator;
    use blink_topology::presets::{multi_server, ServerKind};

    fn mb(n: u64) -> u64 {
        n * 1024 * 1024
    }

    /// NVLink plans on a fresh store, so every call packs.
    fn three_phase(
        machine: &Topology,
        alloc: &[GpuId],
        bytes: u64,
    ) -> Result<(Program, ThreePhaseInfo)> {
        three_phase_allreduce_cached(
            machine,
            alloc,
            bytes,
            LinkSelection::NvLinkOnly,
            &CodeGenOptions::default(),
            &SharedPlanCache::new(),
        )
    }

    /// The paper's fragmented multi-server scenario: 3 GPUs on one DGX-1V and
    /// 5 on another, 40 Gb/s network.
    fn fragmented_allocation() -> (Topology, Vec<GpuId>) {
        let machine = multi_server(2, ServerKind::Dgx1V, 5.0);
        let alloc = vec![
            GpuId(0),
            GpuId(1),
            GpuId(2),
            GpuId(8),
            GpuId(9),
            GpuId(10),
            GpuId(11),
            GpuId(12),
        ];
        (machine, alloc)
    }

    #[test]
    fn three_phase_builds_and_runs_on_fragmented_allocation() {
        let (machine, alloc) = fragmented_allocation();
        let bytes = mb(100);
        let (program, info) = three_phase(&machine, &alloc, bytes).unwrap();
        assert_eq!(info.servers, 2);
        assert_eq!(info.partitions, 3);
        assert_eq!(info.roots.len(), 2);
        let report = Simulator::with_defaults(machine).run(&program).unwrap();
        let bw = report.algorithmic_bandwidth_gbps(bytes);
        // bounded by the 5 GB/s NIC but well above a naive serial transfer
        assert!(bw > 0.5 && bw < 5.5, "bw = {bw}");
    }

    #[test]
    fn cross_machine_traffic_is_bounded_by_the_protocol() {
        let (machine, alloc) = fragmented_allocation();
        let bytes = mb(64);
        let (program, info) = three_phase(&machine, &alloc, bytes).unwrap();
        // phase 2 moves every slice (1/servers of each partition) once to its
        // owner and once back per non-owner server; summed over the whole
        // buffer that is 2 * (servers - 1) * bytes / servers per owner, i.e.
        // 2 * (servers - 1) * bytes in total across the network.
        let network_bytes: u64 = program
            .bytes_per_link()
            .iter()
            .filter(|((_, _, class), _)| *class == LinkClass::Network)
            .map(|(_, &b)| b)
            .sum();
        let expected = 2 * bytes * (info.servers as u64 - 1);
        let tolerance = expected / 10 + 1024;
        assert!(
            network_bytes.abs_diff(expected) <= tolerance,
            "network {network_bytes} vs expected {expected}"
        );
    }

    #[test]
    fn shared_cache_skips_repacking_across_builds() {
        let (machine, alloc) = fragmented_allocation();
        let cache = SharedPlanCache::new();
        let first = three_phase_allreduce_cached(
            &machine,
            &alloc,
            mb(50),
            LinkSelection::NvLinkOnly,
            &CodeGenOptions::default(),
            &cache,
        )
        .unwrap();
        // 2 servers x 3 partitions = 6 plans, all misses
        let (hits0, misses0) = cache.stats();
        assert_eq!((hits0, misses0), (0, 6));
        assert_eq!(cache.len(), 6);
        // a second communicator of the same shape replans nothing
        let second = three_phase_allreduce_cached(
            &machine,
            &alloc,
            mb(50),
            LinkSelection::NvLinkOnly,
            &CodeGenOptions::default(),
            &cache,
        )
        .unwrap();
        let (hits1, misses1) = cache.stats();
        assert_eq!((hits1, misses1), (6, 6));
        assert_eq!(first.0, second.0, "cached plans rebuild the same program");
    }

    #[test]
    fn single_server_allocation_is_rejected() {
        let machine = multi_server(2, ServerKind::Dgx1V, 5.0);
        let alloc: Vec<GpuId> = (0..4).map(GpuId).collect();
        let err = three_phase(&machine, &alloc, mb(1)).unwrap_err();
        assert!(matches!(err, BlinkError::Planning(_)));
    }

    #[test]
    fn faster_network_improves_throughput() {
        // Figure 22(b): as the cross-machine bandwidth grows, Blink's
        // three-phase AllReduce keeps scaling until the intra-server links
        // saturate.
        let alloc = vec![
            GpuId(0),
            GpuId(1),
            GpuId(2),
            GpuId(8),
            GpuId(9),
            GpuId(10),
            GpuId(11),
            GpuId(12),
        ];
        let bytes = mb(100);
        let mut last = 0.0;
        for nic in [5.0, 12.5, 50.0] {
            let machine = multi_server(2, ServerKind::Dgx1V, nic);
            let (program, _) = three_phase(&machine, &alloc, bytes).unwrap();
            let bw = Simulator::with_defaults(machine)
                .run(&program)
                .unwrap()
                .algorithmic_bandwidth_gbps(bytes);
            assert!(bw > last, "bw {bw} should grow with NIC {nic}");
            last = bw;
        }
    }
}
