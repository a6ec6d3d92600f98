//! Lowering NCCL plans to simulator programs.
//!
//! * Ring broadcast: the root's buffer is split evenly across the directed
//!   ring channels; within a channel, chunks are pipelined hop by hop.
//! * Ring AllReduce: the textbook reduce-scatter + all-gather schedule — each
//!   channel owns `1/channels` of the buffer, divides it into `N` segments and
//!   walks every segment `2(N-1)` hops around the ring, reducing on the first
//!   `N-1` hops.
//! * Double-binary-tree AllReduce: each tree carries half the buffer; chunks
//!   are reduced up the tree and broadcast back down.
//! * The PCIe fallback uses the same ring schedules over [`LinkClass::Pcie`].
//!
//! Every emitted op carries its **exact logical byte range**: each channel /
//! tree owns a contiguous sub-range of `[0, bytes)`, ring segments and
//! chunks are sub-ranges of their channel's share, and reductions fold
//! exactly the ranges their arrivals delivered. That makes the baseline
//! lowering checkable by the same value-level oracle
//! ([`blink_sim::check_collective`]) that gates Blink's own CodeGen — ring
//! chunking off-by-one bugs (the classic NCCL failure class) show up as
//! pinpointed byte-range violations instead of silently-passing timings.
//! [`run_checked`] bundles the build + engine run + oracle replay.

use crate::planner::{DoubleBinaryTreePlan, NcclAlgorithm, NcclPlan};
use blink_graph::Arborescence;
use blink_graph::Ring;
use blink_sim::{
    check_collective, CollectiveSpec, LinkClass, OpId, Program, ProgramBuilder, RunReport,
    Simulator, StreamId, ValueCheck,
};
use blink_topology::GpuId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Target chunk size for pipelining, in bytes.
const CHUNK_BYTES: u64 = 4 << 20;

/// The collectives the baseline implements (the two the paper evaluates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NcclCollective {
    /// One-to-all broadcast from `root`.
    Broadcast {
        /// The broadcasting GPU.
        root: GpuId,
    },
    /// All-to-all reduction (every GPU ends with the full sum).
    AllReduce,
}

impl NcclCollective {
    /// The value-level contract this collective must satisfy (the oracle's
    /// spec).
    pub fn spec(&self) -> CollectiveSpec {
        match *self {
            NcclCollective::Broadcast { root } => CollectiveSpec::Broadcast { root },
            NcclCollective::AllReduce => CollectiveSpec::AllReduce,
        }
    }
}

/// Errors from schedule generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// The broadcast root is not part of the plan.
    RootNotInPlan(GpuId),
    /// The generated program failed validation (indicates a bug).
    Internal(String),
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::RootNotInPlan(g) => write!(f, "root {g} is not in the plan"),
            ScheduleError::Internal(msg) => write!(f, "internal schedule error: {msg}"),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// `total` split into the fewest near-equal chunks of at most
/// [`CHUNK_BYTES`].
fn chunk_sizes(total: u64) -> Vec<u64> {
    if total == 0 {
        return Vec::new();
    }
    let chunks = total.div_ceil(CHUNK_BYTES);
    let base = total / chunks;
    let rem = total % chunks;
    (0..chunks)
        .map(|i| if i < rem { base + 1 } else { base })
        .filter(|&b| b > 0)
        .collect()
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

/// Builds the program NCCL would execute for `collective` over `bytes` bytes
/// under `plan`.
///
/// # Errors
/// Fails if the broadcast root is not part of the plan (or on an internal
/// schedule-construction bug).
pub fn build_program(
    plan: &NcclPlan,
    collective: NcclCollective,
    bytes: u64,
) -> Result<Program, ScheduleError> {
    let mut b = ProgramBuilder::new();
    match (&plan.algorithm, collective) {
        (NcclAlgorithm::NvLinkRings(search), NcclCollective::Broadcast { root }) => {
            let channels = directed_rings(&search.rings);
            let shares = split_even(bytes, channels.len());
            let mut base = 0u64;
            for (ring, share) in channels.iter().zip(shares) {
                ring_broadcast(&mut b, ring, root, base, share, LinkClass::NvLink)?;
                base += share;
            }
        }
        (NcclAlgorithm::NvLinkRings(search), NcclCollective::AllReduce) => {
            let channels = directed_rings(&search.rings);
            let shares = split_even(bytes, channels.len());
            let mut base = 0u64;
            for (ring, share) in channels.iter().zip(shares) {
                ring_allreduce(&mut b, ring, base, share, LinkClass::NvLink);
                base += share;
            }
        }
        (NcclAlgorithm::PcieRing(ring), NcclCollective::Broadcast { root }) => {
            ring_broadcast(&mut b, ring, root, 0, bytes, LinkClass::Pcie)?;
        }
        (NcclAlgorithm::PcieRing(ring), NcclCollective::AllReduce) => {
            ring_allreduce(&mut b, ring, 0, bytes, LinkClass::Pcie);
        }
        (NcclAlgorithm::DoubleBinaryTrees(dbt), NcclCollective::AllReduce) => {
            let shares = split_even(bytes, 2);
            tree_allreduce(&mut b, &tree_a(dbt), 0, shares[0]);
            tree_allreduce(&mut b, &tree_b(dbt), shares[0], shares[1]);
        }
        (NcclAlgorithm::DoubleBinaryTrees(dbt), NcclCollective::Broadcast { root }) => {
            // NCCL broadcasts small messages over a tree rooted at the
            // caller: each double binary tree is re-rooted by walking its
            // (undirected) edges outward from the requested root, so the
            // data really originates at `root` — the oracle caught the old
            // lowering broadcasting from the tree's own root instead.
            let tree = tree_a(dbt);
            if !tree.vertices().contains(&root) {
                return Err(ScheduleError::RootNotInPlan(root));
            }
            let shares = split_even(bytes, 2);
            tree_broadcast(&mut b, &tree_a(dbt), root, 0, shares[0]);
            tree_broadcast(&mut b, &tree_b(dbt), root, shares[0], shares[1]);
        }
    }
    b.build()
        .map_err(|e| ScheduleError::Internal(e.to_string()))
}

/// Builds the program for `collective`, executes it on `sim`, and replays it
/// through the value-level oracle against the collective's contract over the
/// plan's GPUs — the baseline equivalent of
/// `blink_core::Communicator::run_checked`, so CI can conformance-check the
/// NCCL lowering with the same machinery that gates Blink's.
///
/// # Errors
/// Fails if the program cannot be built ([`build_program`]'s conditions) or
/// the engine rejects it (e.g. a ring hop without a link of the scheduled
/// class).
pub fn run_checked(
    sim: &Simulator,
    plan: &NcclPlan,
    collective: NcclCollective,
    bytes: u64,
) -> Result<(RunReport, ValueCheck), ScheduleError> {
    let program = build_program(plan, collective, bytes)?;
    let report = sim
        .run(&program)
        .map_err(|e| ScheduleError::Internal(e.to_string()))?;
    let check = check_collective(
        collective.spec(),
        &program,
        &report.op_spans,
        &plan.gpus,
        bytes,
    );
    Ok((report, check))
}

fn tree_a(plan: &DoubleBinaryTreePlan) -> Arborescence {
    Arborescence::new(plan.tree_a_root, plan.tree_a_edges.clone())
}

fn tree_b(plan: &DoubleBinaryTreePlan) -> Arborescence {
    Arborescence::new(plan.tree_b_root, plan.tree_b_edges.clone())
}

/// Expands undirected ring pairs into directed channels (forward + reverse).
fn directed_rings(rings: &[Ring]) -> Vec<Ring> {
    let mut out = Vec::with_capacity(rings.len() * 2);
    for r in rings {
        out.push(r.clone());
        out.push(r.reversed());
    }
    out
}

/// Broadcasts this channel's share `[base, base + share)` from `root` around
/// the ring; every hop of every chunk carries its exact sub-range.
fn ring_broadcast(
    b: &mut ProgramBuilder,
    ring: &Ring,
    root: GpuId,
    base: u64,
    share: u64,
    class: LinkClass,
) -> Result<(), ScheduleError> {
    let rooted = ring
        .rooted_at(root)
        .ok_or(ScheduleError::RootNotInPlan(root))?;
    let order = &rooted.order;
    if order.len() < 2 || share == 0 {
        return Ok(());
    }
    let streams: Vec<StreamId> = (0..order.len() - 1).map(|_| b.new_stream()).collect();
    let mut off = base;
    for sz in chunk_sizes(share) {
        let mut arrival: Option<OpId> = None;
        for hop in 0..order.len() - 1 {
            arrival = Some(b.copy_range(
                order[hop],
                order[hop + 1],
                off,
                sz,
                class,
                streams[hop],
                arrival.as_slice(),
                "nccl-bcast",
            ));
        }
        off += sz;
    }
    Ok(())
}

/// The RS+AG ring AllReduce over this channel's share `[base, base + share)`.
/// Segment `s` of the share is owned by `order[s]`; every copy and reduction
/// carries the exact piece of the segment it moves in this pass, so the
/// oracle can verify no piece is shifted, dropped or double-folded.
fn ring_allreduce(b: &mut ProgramBuilder, ring: &Ring, base: u64, share: u64, class: LinkClass) {
    let order = &ring.order;
    let n = order.len();
    if n < 2 || share == 0 {
        return;
    }
    // one stream per directed link of this channel
    let mut streams: BTreeMap<(GpuId, GpuId), StreamId> = BTreeMap::new();
    for i in 0..n {
        let key = (order[i], order[(i + 1) % n]);
        streams.insert(key, b.new_stream());
    }
    // Per-segment totals; if segments are larger than the chunk target the
    // whole RS+AG structure is repeated in passes so no single copy exceeds
    // the target. Ops are issued round-major (all segments advance one hop,
    // then the next hop) so that per-stream issue order matches readiness —
    // this mirrors how NCCL's kernels step through the ring and avoids
    // head-of-line blocking in the FIFO streams.
    let segments = split_even(share, n);
    let max_segment = segments.iter().copied().max().unwrap_or(0);
    let passes = max_segment.div_ceil(CHUNK_BYTES).max(1) as usize;
    let pieces: Vec<Vec<u64>> = segments
        .iter()
        .map(|&seg| split_even(seg, passes))
        .collect();
    // piece_off[s] = absolute offset of segment s's pass-`pass` piece,
    // starting at the segment's base and advancing by one piece per pass
    let mut piece_off: Vec<u64> = Vec::with_capacity(n);
    {
        let mut off = base;
        for &seg in &segments {
            piece_off.push(off);
            off += seg;
        }
    }

    #[allow(clippy::needless_range_loop)]
    for pass in 0..passes {
        let mut last: Vec<Option<OpId>> = vec![None; n];
        // reduce-scatter rounds
        for j in 0..n - 1 {
            for s in 0..n {
                let sz = pieces[s][pass];
                if sz == 0 {
                    continue;
                }
                let off = piece_off[s];
                let src = order[(s + 1 + j) % n];
                let dst = order[(s + 2 + j) % n];
                let stream = streams[&(src, dst)];
                let mut dep = last[s];
                if j > 0 {
                    // the partial sum must be produced before it is forwarded
                    let red = b.reduce_range(src, off, sz, stream, dep.as_slice(), "nccl-ar red");
                    dep = Some(red);
                }
                let rs = b.copy_range(
                    src,
                    dst,
                    off,
                    sz,
                    class,
                    stream,
                    dep.as_slice(),
                    "nccl-ar rs",
                );
                last[s] = Some(rs);
            }
        }
        // final reduction at each segment owner
        for s in 0..n {
            let sz = pieces[s][pass];
            if sz == 0 {
                continue;
            }
            let owner = order[s];
            let owner_stream = streams[&(owner, order[(s + 1) % n])];
            last[s] = Some(b.reduce_range(
                owner,
                piece_off[s],
                sz,
                owner_stream,
                last[s].as_slice(),
                "nccl-ar own",
            ));
        }
        // all-gather rounds: the reduced segment travels n-1 more hops
        for j in 0..n - 1 {
            for s in 0..n {
                let sz = pieces[s][pass];
                if sz == 0 {
                    continue;
                }
                let src = order[(s + j) % n];
                let dst = order[(s + 1 + j) % n];
                let stream = streams[&(src, dst)];
                last[s] = Some(b.copy_range(
                    src,
                    dst,
                    piece_off[s],
                    sz,
                    class,
                    stream,
                    last[s].as_slice(),
                    "nccl-ar ag",
                ));
            }
        }
        // advance every segment to its next pass piece
        for s in 0..n {
            piece_off[s] += pieces[s][pass];
        }
    }
}

/// Broadcasts `[base, base + share)` from `root` over the tree's links,
/// re-orienting the (undirected) tree edges outward from `root` — NCCL's
/// small-message broadcast reuses the AllReduce trees but the data must
/// originate at the caller's root, not the tree's.
fn tree_broadcast(b: &mut ProgramBuilder, tree: &Arborescence, root: GpuId, base: u64, share: u64) {
    if share == 0 || tree.num_vertices() < 2 {
        return;
    }
    // undirected adjacency of the tree's edges, BFS-oriented away from root
    let mut adj: BTreeMap<GpuId, Vec<GpuId>> = BTreeMap::new();
    for &(p, c) in &tree.edges {
        adj.entry(p).or_default().push(c);
        adj.entry(c).or_default().push(p);
    }
    let mut oriented: Vec<(GpuId, GpuId)> = Vec::with_capacity(tree.edges.len());
    let mut queue = std::collections::VecDeque::from([root]);
    let mut seen = std::collections::BTreeSet::from([root]);
    while let Some(v) = queue.pop_front() {
        for &w in adj.get(&v).into_iter().flatten() {
            if seen.insert(w) {
                oriented.push((v, w));
                queue.push_back(w);
            }
        }
    }
    let mut streams: BTreeMap<(GpuId, GpuId), StreamId> = BTreeMap::new();
    for &(p, c) in &oriented {
        streams.insert((p, c), b.new_stream());
    }
    let mut off = base;
    for sz in chunk_sizes(share) {
        let mut arrival: BTreeMap<GpuId, OpId> = BTreeMap::new();
        for &(p, child) in &oriented {
            let dep = arrival.get(&p).copied();
            let id = b.copy_range(
                p,
                child,
                off,
                sz,
                LinkClass::NvLink,
                streams[&(p, child)],
                dep.as_slice(),
                "nccl-tree bc",
            );
            arrival.insert(child, id);
        }
        off += sz;
    }
}

/// Reduce-then-broadcast of `[base, base + share)` over one double binary
/// tree; every chunk's copies and reductions carry their exact sub-range.
fn tree_allreduce(b: &mut ProgramBuilder, tree: &Arborescence, base: u64, share: u64) {
    if share == 0 || tree.num_vertices() < 2 {
        return;
    }
    let mut up_streams: BTreeMap<(GpuId, GpuId), StreamId> = BTreeMap::new();
    let mut down_streams: BTreeMap<(GpuId, GpuId), StreamId> = BTreeMap::new();
    for &(p, c) in &tree.edges {
        up_streams.insert((c, p), b.new_stream());
        down_streams.insert((p, c), b.new_stream());
    }
    // reverse BFS: children before parents
    let mut order = tree.bfs_order();
    order.reverse();
    let mut off = base;
    for sz in chunk_sizes(share) {
        // reduce phase: every vertex sends its (reduced) value to its parent
        let mut uploaded: BTreeMap<GpuId, OpId> = BTreeMap::new();
        let mut reduced_at: BTreeMap<GpuId, OpId> = BTreeMap::new();
        for &v in &order {
            let children = tree.children(v);
            // reduce contributions that arrived from children
            let mut deps: Vec<OpId> = children
                .iter()
                .filter_map(|c| uploaded.get(c).copied())
                .collect();
            if !children.is_empty() {
                let stream = if let Some(parent) = tree.parent(v) {
                    up_streams[&(v, parent)]
                } else {
                    // the root reduces on the stream of its first child's
                    // downlink so the broadcast can chain off it
                    down_streams[&(v, children[0])]
                };
                let red = b.reduce_range(v, off, sz, stream, &deps, "nccl-dbt red");
                reduced_at.insert(v, red);
                deps = vec![red];
            }
            if let Some(parent) = tree.parent(v) {
                let id = b.copy_range(
                    v,
                    parent,
                    off,
                    sz,
                    LinkClass::NvLink,
                    up_streams[&(v, parent)],
                    &deps,
                    "nccl-dbt up",
                );
                uploaded.insert(v, id);
            }
        }
        // broadcast phase: the fully reduced chunk flows back down
        let root_dep = reduced_at.get(&tree.root).copied();
        let mut arrival: BTreeMap<GpuId, OpId> = BTreeMap::new();
        for (p, child) in tree.edges_bfs() {
            let dep = if p == tree.root {
                root_dep
            } else {
                arrival.get(&p).copied()
            };
            let id = b.copy_range(
                p,
                child,
                off,
                sz,
                LinkClass::NvLink,
                down_streams[&(p, child)],
                dep.as_slice(),
                "nccl-dbt down",
            );
            arrival.insert(child, id);
        }
        off += sz;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::NcclPlanner;
    use blink_sim::Simulator;
    use blink_topology::presets::{dgx1p, dgx1v, dgx2};

    fn mb(n: u64) -> u64 {
        n * 1024 * 1024
    }

    #[test]
    fn full_dgx1v_broadcast_reaches_ring_bandwidth() {
        let topo = dgx1v();
        let planner = NcclPlanner::new(topo.clone());
        let alloc: Vec<GpuId> = (0..8).map(GpuId).collect();
        let bytes = mb(500);
        let plan = planner.plan(&alloc, bytes).unwrap();
        let prog =
            build_program(&plan, NcclCollective::Broadcast { root: GpuId(0) }, bytes).unwrap();
        let report = Simulator::with_defaults(topo).run(&prog).unwrap();
        let bw = report.algorithmic_bandwidth_gbps(bytes);
        // 6 directed channels at ~23 GB/s ≈ 138 GB/s theoretical; pipeline
        // fill, launch overheads and chunk-level arbitration land the
        // measured figure noticeably below that (as on real hardware).
        assert!(bw > 80.0 && bw < 140.0, "bw = {bw}");
    }

    #[test]
    fn pcie_fallback_broadcast_is_slow() {
        // Figure 2(b): NCCL broadcast over GPUs {0,1,4} falls back to PCIe and
        // achieves only ~5 GB/s.
        let topo = dgx1p();
        let planner = NcclPlanner::new(topo.clone());
        let alloc = [GpuId(0), GpuId(1), GpuId(4)];
        let bytes = mb(500);
        let plan = planner.plan(&alloc, bytes).unwrap();
        let prog =
            build_program(&plan, NcclCollective::Broadcast { root: GpuId(0) }, bytes).unwrap();
        let report = Simulator::with_defaults(topo).run(&prog).unwrap();
        let bw = report.algorithmic_bandwidth_gbps(bytes);
        assert!(bw > 3.0 && bw < 6.0, "bw = {bw}");
    }

    #[test]
    fn full_dgx1v_allreduce_is_roughly_half_of_broadcast() {
        let topo = dgx1v();
        let planner = NcclPlanner::new(topo.clone());
        let alloc: Vec<GpuId> = (0..8).map(GpuId).collect();
        let bytes = mb(200);
        let plan = planner.plan(&alloc, bytes).unwrap();
        let sim = Simulator::with_defaults(topo);
        let bcast = sim
            .run(
                &build_program(&plan, NcclCollective::Broadcast { root: GpuId(0) }, bytes).unwrap(),
            )
            .unwrap()
            .algorithmic_bandwidth_gbps(bytes);
        let ar = sim
            .run(&build_program(&plan, NcclCollective::AllReduce, bytes).unwrap())
            .unwrap()
            .algorithmic_bandwidth_gbps(bytes);
        assert!(ar < 0.95 * bcast, "allreduce {ar} vs broadcast {bcast}");
        assert!(ar > 0.35 * bcast, "allreduce {ar} vs broadcast {bcast}");
    }

    #[test]
    fn dgx2_small_allreduce_uses_trees_and_has_low_op_count() {
        let topo = dgx2();
        let planner = NcclPlanner::new(topo.clone());
        let alloc: Vec<GpuId> = (0..16).map(GpuId).collect();
        let bytes = 8 * 1024;
        let plan = planner.plan(&alloc, bytes).unwrap();
        let prog = build_program(&plan, NcclCollective::AllReduce, bytes).unwrap();
        assert!(!prog.is_empty());
        let report = Simulator::with_defaults(topo).run(&prog).unwrap();
        // latency-bound: a handful of tree hops, each dominated by the launch
        // overhead, well under a millisecond
        assert!(report.total_us < 500.0, "latency {}", report.total_us);
    }

    #[test]
    fn broadcast_root_must_be_in_plan() {
        let topo = dgx1v();
        let planner = NcclPlanner::new(topo);
        let alloc = [GpuId(0), GpuId(1), GpuId(2)];
        let plan = planner.plan(&alloc, mb(1)).unwrap();
        let err =
            build_program(&plan, NcclCollective::Broadcast { root: GpuId(7) }, mb(1)).unwrap_err();
        assert_eq!(err, ScheduleError::RootNotInPlan(GpuId(7)));
    }

    #[test]
    fn allreduce_moves_the_expected_volume() {
        // In the RS+AG schedule every channel carries `bytes / channels` and
        // each of its N segments crosses 2(N-1) hops, so the total volume
        // physically copied is `2 (N-1) * bytes` regardless of channel count.
        let topo = dgx1v();
        let planner = NcclPlanner::new(topo);
        let alloc: Vec<GpuId> = (0..4).map(GpuId).collect();
        let bytes = mb(64);
        let plan = planner.plan(&alloc, bytes).unwrap();
        let prog = build_program(&plan, NcclCollective::AllReduce, bytes).unwrap();
        let n = alloc.len() as u64;
        let expected = bytes * 2 * (n - 1);
        let moved = prog.total_copy_bytes();
        let tolerance = expected / 20 + 1024;
        assert!(
            moved.abs_diff(expected) <= tolerance,
            "moved {moved}, expected ~{expected}"
        );
    }

    /// Every NCCL lowering must satisfy the value-level oracle: ring
    /// broadcast and RS+AG AllReduce on the DGX-1V (full machine and a
    /// partial allocation), the PCIe fallback ring, and the double-binary
    /// trees on the DGX-2 — at an unaligned byte count so channel shares,
    /// ring segments and pass pieces all leave remainders.
    #[test]
    fn nccl_lowerings_are_byte_exact() {
        let bytes = mb(8) + 13;
        let cases: Vec<(blink_topology::Topology, Vec<GpuId>)> = vec![
            (dgx1v(), (0..8).map(GpuId).collect()),
            (dgx1v(), (0..4).map(GpuId).collect()),
            (dgx1p(), vec![GpuId(0), GpuId(1), GpuId(4)]), // PCIe fallback
        ];
        for (topo, alloc) in cases {
            let planner = NcclPlanner::new(topo.clone());
            let plan = planner.plan(&alloc, bytes).unwrap();
            let sim = Simulator::with_defaults(topo);
            for collective in [
                NcclCollective::Broadcast { root: alloc[0] },
                NcclCollective::AllReduce,
            ] {
                let (_, check) = run_checked(&sim, &plan, collective, bytes).unwrap();
                assert!(
                    check.is_correct(),
                    "alloc {alloc:?} {collective:?}:\n{check}"
                );
            }
        }
    }

    #[test]
    fn double_binary_trees_are_byte_exact_from_any_root() {
        // small message on the DGX-2 selects the double-binary trees; the
        // broadcast must originate at the *requested* root even when it is
        // not a tree root (the re-rooting the oracle originally caught
        // missing)
        let topo = dgx2();
        let planner = NcclPlanner::new(topo.clone());
        let alloc: Vec<GpuId> = (0..16).map(GpuId).collect();
        let bytes = 8 * 1024 + 5;
        let plan = planner.plan(&alloc, bytes).unwrap();
        assert!(matches!(
            plan.algorithm,
            crate::planner::NcclAlgorithm::DoubleBinaryTrees(_)
        ));
        let sim = Simulator::with_defaults(topo);
        for root in [GpuId(0), GpuId(7), GpuId(15)] {
            let (_, check) =
                run_checked(&sim, &plan, NcclCollective::Broadcast { root }, bytes).unwrap();
            assert!(check.is_correct(), "root {root}:\n{check}");
        }
        let (_, check) = run_checked(&sim, &plan, NcclCollective::AllReduce, bytes).unwrap();
        assert!(check.is_correct(), "dbt allreduce:\n{check}");
    }

    #[test]
    fn a_shifted_ring_chunk_is_rejected_by_the_oracle() {
        // corrupt one AG copy's offset: the classic ring-chunking bug class
        use blink_sim::{OpKind, ProgramBuilder};
        let topo = dgx1v();
        let planner = NcclPlanner::new(topo.clone());
        let alloc: Vec<GpuId> = (0..4).map(GpuId).collect();
        let bytes = mb(2) + 3;
        let plan = planner.plan(&alloc, bytes).unwrap();
        let program = build_program(&plan, NcclCollective::AllReduce, bytes).unwrap();
        let target = program
            .ops()
            .rposition(|o| o.tag == "nccl-ar ag")
            .expect("the RS+AG schedule all-gathers");
        let mut b = ProgramBuilder::new();
        for (i, op) in program.ops().enumerate() {
            let mut segs = op.segments.to_vec();
            if i == target && matches!(op.kind, OpKind::Copy { .. }) {
                segs[0].offset += 1;
            }
            b.push(op.kind, &segs, op.stream, op.deps, op.tag.clone());
        }
        let mutated = b.build().unwrap();
        let sim = Simulator::with_defaults(topo);
        let report = sim.run(&mutated).unwrap();
        let check = blink_sim::check_collective(
            NcclCollective::AllReduce.spec(),
            &mutated,
            &report.op_spans,
            &alloc,
            bytes,
        );
        assert!(!check.is_correct(), "the shifted chunk must be flagged");
    }

    #[test]
    fn zero_bytes_yields_empty_program() {
        let topo = dgx1v();
        let planner = NcclPlanner::new(topo);
        let alloc: Vec<GpuId> = (0..4).map(GpuId).collect();
        let plan = planner.plan(&alloc, 0).unwrap();
        let prog = build_program(&plan, NcclCollective::AllReduce, 0).unwrap();
        assert!(prog.is_empty());
    }
}
