//! One-hop tree plans for switch fabrics (DGX-2 / NVSwitch, Section 3.5).
//!
//! On an NVSwitch every GPU pair is directly connected, so Blink's generated
//! trees are "deceptively simple": with `m` GPUs, each GPU acts as the root of
//! one tree over `1/m` of the data, and each root is directly connected to the
//! other `m − 1` GPUs. AllReduce then reduces each slice to its root and
//! broadcasts it back in one hop, which beats NCCL's double-binary trees on
//! latency (Figures 19 and 20) because no chunk ever crosses more than two
//! hops.
//!
//! ## Closed-form packed plans
//!
//! A rooted kind's packed candidate on a switch fabric needs no search
//! either. Its planning graph is a *complete uniform* digraph — one edge
//! per ordered GPU pair, every edge of capacity `c`
//! ([`complete_uniform_capacity`]); so are DGX-1P NVLink quads and PCIe
//! graphs within one CPU complex. Every
//! non-root GPU's in-cut there is `(n − 1)·c`, the broadcast certificate,
//! and the `n − 1` relay trees ([`relay_trees`]) reach it: tree `v` sends
//! `root → v`, and `v` relays to every other GPU, so each edge carries at
//! most one tree. With the default options and the root at the graph's
//! first (smallest) GPU, MWU packing plus minimisation returns exactly these
//! trees — ordered by ascending `v`, each weighted `c`, bit for bit (pinned
//! against the MWU by `tests/properties.rs` on every DGX-1 subset and on
//! DGX-2 subsets of every size). [`crate::treegen::TreeGen`] therefore
//! returns them without packing or minimising. From any other root, the
//! MWU's tie-breaks land on a different optimum, so those plans, and warm
//! replans, still run the MWU.
//!
//! ## The pairwise exchange
//!
//! [`one_hop_program`] is the communicator's one-hop lowering on a switch
//! fabric. A rooted kind runs its one star tree as CodeGen emits it, raced
//! against packed trees. A rootless kind (AllReduce, AllGather,
//! ReduceScatter) always runs CodeGen's program over the `n` one-hop trees,
//! re-issued as a pairwise exchange:
//!
//! * every GPU issues all its copies on one stream, those toward the roots
//!   (reduce-up or gather) and, as a root, those back out (broadcast or
//!   scatter), and its reductions on a second;
//! * the copy stream runs in stages: stage `k` holds chunk `k`'s copies
//!   toward the roots, then the copies of one chunk back out, chunk `k`
//!   for AllGather and chunk `k − 1` for the kinds whose root reduces
//!   first, so a reduction overlaps the next chunk's copies instead of
//!   stalling the stream;
//! * each half of a stage runs by shift `s = (src − dst) mod n` over the
//!   GPUs' ranks, so step `s` is a permutation: every GPU sends to one peer
//!   and receives from another, and no two copies of a step share a switch
//!   port;
//! * the program lists its ops in that order: stage, half, shift, sender.
//!
//! So at most `n` copies are ready at once, where tree-major issue readied
//! all `n(n − 1)` first-phase copies and the engine's candidate window held
//! only the first few trees' ingress ports. Chaining a GPU's copies gives up
//! no concurrency the port model allows: every send from a GPU already
//! serialises on its one switch egress port. CodeGen still emits every
//! byte range; the re-issue only moves ops and renames their streams, in
//! one pass over the program with no sort.
//!
//! Why one chain per GPU and not one per direction: two chains drift apart
//! and contend for ingress ports. On `bench_paper`'s `dgx2_race_sweep` they
//! made a 3-GPU AllReduce at 1 GiB 24% slower than tree-major issue and a
//! 5-GPU AllGather at 1 GiB 14% slower; one chain leaves no row slower.

use crate::codegen::CodeGen;
use crate::collective::CollectiveKind;
use crate::{BlinkError, Result};
use blink_graph::{Arborescence, DiGraph, WeightedTree};
use blink_sim::{OpId, OpKind, Program, ProgramBuilder, StreamId};
use blink_topology::GpuId;

/// The one-hop lowering of `kind` on the switch-fabric allocation `gpus`,
/// whose GPUs inject at `cap`, with the number of trees it runs over: a
/// rooted kind's star tree ([`one_hop_broadcast_tree`]) as `codegen` emits
/// it, and a rootless kind's `n` [`one_hop_trees`] re-issued as the
/// pairwise exchange of the module docs.
///
/// # Errors
/// As [`CodeGen::build`].
pub fn one_hop_program(
    codegen: &CodeGen,
    gpus: &[GpuId],
    cap: f64,
    kind: CollectiveKind,
    bytes: u64,
) -> Result<(Program, usize)> {
    if let Some(root) = kind.root() {
        let tree = one_hop_broadcast_tree(gpus, root, cap);
        return Ok((codegen.build(&[tree], kind, bytes)?, 1));
    }
    let trees = one_hop_trees(gpus, cap / gpus.len() as f64);
    let program = codegen.build(&trees, kind, bytes)?;
    Ok((pairwise(&program, gpus, kind)?, trees.len()))
}

/// `program`, CodeGen's lowering of the rootless `kind` over the
/// [`one_hop_trees`] of `gpus`, re-issued as a pairwise exchange: the same
/// ops, dependencies and payloads, in the order and on the streams of the
/// module docs.
///
/// CodeGen emits each tree's chunk as one run of dependency-free copies
/// toward the root, then the root's reduction and its copies back out,
/// which all depend on that run; the `k`-th run toward a root is the
/// tree's chunk `k`. So every op has one slot in the issue order — its
/// stage, whether it heads back out, its shift and its sender — and one
/// pass drops each op into a table of slots, a second emits the filled
/// slots in order.
fn pairwise(program: &Program, gpus: &[GpuId], kind: CollectiveKind) -> Result<Program> {
    const EMPTY: usize = usize::MAX;
    let n = gpus.len();
    let mut ranks = gpus.to_vec();
    ranks.sort_unstable();
    let rank = |g: GpuId| ranks.partition_point(|&r| r < g);
    // a root that reduces sends chunk `k` back out one stage late, after
    // its copies of chunk `k + 1` toward the roots
    let lag = usize::from(kind != CollectiveKind::AllGather);
    let mut slots = Vec::with_capacity(program.len());
    // the chunk the next run toward each root carries
    let mut next_chunk = vec![0; n];
    let (mut chunk, mut up) = (0, false);
    for op in program.ops() {
        let (src, dst) = match op.kind {
            OpKind::Copy { src, dst, .. } => (rank(src), rank(dst)),
            OpKind::Reduce { gpu } => (rank(gpu), rank(gpu)),
            // CodeGen emits no kernels or peer-access toggles
            _ => (0, 0),
        };
        let was_up = std::mem::replace(&mut up, op.deps.is_empty());
        if up && !was_up {
            chunk = next_chunk[dst];
            next_chunk[dst] += 1;
        }
        // a reduction takes shift 0 of its stage's first half, which no
        // copy toward a root uses
        let (stage, out) = match (up, op.kind) {
            (true, _) => (chunk, 0),
            (false, OpKind::Reduce { .. }) => (chunk + lag, 0),
            (false, _) => (chunk + lag, 1),
        };
        slots.push(((stage * 2 + out) * n + (src + n - dst) % n) * n + src);
    }
    let stages = next_chunk.into_iter().max().unwrap_or(0) + lag;
    let mut order = vec![EMPTY; stages * 2 * n * n];
    for (old, &slot) in slots.iter().enumerate() {
        order[slot] = old;
    }
    let mut b = ProgramBuilder::new();
    b.reserve(program.len(), program.num_deps(), program.num_segments());
    // each GPU's copies on stream `rank`, its reductions on `n + rank`
    let streams: Vec<StreamId> = (0..2 * n).map(|_| b.new_stream()).collect();
    let mut renamed = vec![OpId(0); program.len()];
    let mut deps = Vec::with_capacity(n);
    for (slot, &old) in order.iter().enumerate().filter(|&(_, &old)| old != EMPTY) {
        let op = program.op(OpId(old));
        let reduces = usize::from(matches!(op.kind, OpKind::Reduce { .. }));
        deps.clear();
        deps.extend(op.deps.iter().map(|d| renamed[d.0]));
        let stream = streams[reduces * n + slot % n];
        renamed[old] = b.push(op.kind, op.segments, stream, &deps, op.tag.clone());
    }
    b.build().map_err(|e| BlinkError::CodeGen(e.to_string()))
}

/// Builds the `m` one-hop trees for a switch-fabric allocation, one rooted at
/// every GPU, each weighted equally (the data is split evenly across roots).
///
/// `per_tree_weight` is the rate attributed to each tree; for throughput
/// accounting the communicator passes `injection_cap / m` so the aggregate
/// equals the fabric injection bandwidth.
pub fn one_hop_trees(gpus: &[GpuId], per_tree_weight: f64) -> Vec<WeightedTree> {
    gpus.iter()
        .map(|&root| one_hop_broadcast_tree(gpus, root, per_tree_weight))
        .collect()
}

/// The `n − 1` relay trees a complete uniform fabric plans from `root`: for
/// every other GPU `v`, in ascending order, the tree `root → v` plus `v → u`
/// for every remaining `u`, each weighted `capacity`.
///
/// Each edge carries at most one tree (`root → v` only tree `v`, `v → u` only
/// tree `v`, and no edge enters the root), so the packing is feasible, and
/// its rate `(n − 1)·capacity` is every non-root GPU's in-cut: the
/// certificate. [`crate::treegen::TreeGen`] returns these trees instead of
/// running MWU packing and minimisation where
/// [`complete_uniform_capacity`] holds and the root is the graph's first
/// (smallest) GPU — they are what that packing and minimisation produce
/// there, bit for bit.
pub fn relay_trees(gpus: &[GpuId], root: GpuId, capacity: f64) -> Vec<WeightedTree> {
    gpus.iter()
        .copied()
        .filter(|&v| v != root)
        .map(|v| {
            let relayed = gpus.iter().copied().filter(|&u| u != root && u != v);
            let edges = std::iter::once((root, v))
                .chain(relayed.map(|u| (v, u)))
                .collect();
            WeightedTree {
                tree: Arborescence::new(root, edges),
                weight: capacity,
            }
        })
        .collect()
}

/// The capacity `c` when `graph` is a complete uniform digraph — every
/// ordered pair of distinct nodes joined by exactly one edge, every edge of
/// the same finite positive capacity `c` — and `None` otherwise. Every
/// NVSwitch allocation is one, and so are DGX-1P NVLink quads and PCIe
/// graphs within one CPU complex. Allocation-free: one `u64` neighbour mask
/// per node, so graphs of more than 64 nodes answer `None`.
pub fn complete_uniform_capacity(graph: &DiGraph) -> Option<f64> {
    let n = graph.num_nodes();
    let c = graph.edges().first()?.capacity;
    if !(2..=64).contains(&n) || graph.num_edges() != n * (n - 1) || !(c > 0.0 && c.is_finite()) {
        return None;
    }
    let all = u64::MAX >> (64 - n);
    for u in 0..n {
        let mut seen = 0u64;
        for &e in graph.out_edges(u) {
            let edge = graph.edges()[e];
            let bit = 1u64 << edge.dst;
            if edge.dst == u || edge.capacity != c || seen & bit != 0 {
                return None;
            }
            seen |= bit;
        }
        if seen != all & !(1u64 << u) {
            return None;
        }
    }
    Some(c)
}

/// A single one-hop tree rooted at `root` (used for Broadcast on a switch
/// fabric, where the root can inject at full port bandwidth directly to every
/// peer).
pub fn one_hop_broadcast_tree(gpus: &[GpuId], root: GpuId, weight: f64) -> WeightedTree {
    let mut edges = Vec::with_capacity(gpus.len().saturating_sub(1));
    edges.extend(gpus.iter().filter(|&&g| g != root).map(|&g| (root, g)));
    WeightedTree {
        tree: Arborescence::new(root, edges),
        weight,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::CodeGenOptions;
    use blink_sim::Simulator;
    use blink_topology::presets::dgx2;

    /// Each GPU's copies in stream order, as (toward a root, shift), after
    /// checking that the GPU issues them on one stream of its own and its
    /// reductions on another.
    fn chains(program: &Program, gpus: &[GpuId]) -> Vec<Vec<(bool, usize)>> {
        let n = gpus.len();
        let rank = |g| gpus.binary_search(&g).unwrap();
        let mut chains = vec![Vec::new(); n];
        // a stream's owner: GPU `g`'s copies, or `n + g` for its reductions
        let mut owners = std::collections::BTreeMap::new();
        for op in program.ops() {
            let owner = match op.kind {
                OpKind::Copy { src, dst, .. } => {
                    let up = matches!(&**op.tag, "blink reduce-up" | "blink gather");
                    chains[rank(src)].push((up, (rank(src) + n - rank(dst)) % n));
                    rank(src)
                }
                OpKind::Reduce { gpu } => n + rank(gpu),
                other => panic!("a one-hop lowering emitted {other:?}"),
            };
            assert_eq!(*owners.entry(op.stream).or_insert(owner), owner);
        }
        let distinct: std::collections::BTreeSet<_> = owners.values().collect();
        assert_eq!(distinct.len(), owners.len(), "an owner with two streams");
        chains
    }

    #[test]
    fn the_pairwise_exchange_chains_each_gpus_copies_in_shift_order() {
        let cg = CodeGen::new(CodeGenOptions::default());
        let full: Vec<GpuId> = (0..16).map(GpuId).collect();
        let spread: Vec<GpuId> = (0..12).map(|i| GpuId(4 * i / 3)).collect();
        // sizes that split evenly over the trees: a small chunk, then one,
        // four and three 4 MiB chunks per tree
        let cases = [
            (&full, [1 << 10, 64 << 20, 256 << 20]),
            (&spread, [12 << 10, 48 << 20, 144 << 20]),
        ];
        for (gpus, sizes) in cases {
            let n = gpus.len();
            let run = |up| (1..n).map(move |shift| (up, shift));
            for kind in [
                CollectiveKind::AllReduce,
                CollectiveKind::AllGather,
                CollectiveKind::ReduceScatter,
            ] {
                for bytes in sizes {
                    let label = format!("{kind} over {n} GPUs, {bytes} B");
                    let (program, trees) = one_hop_program(&cg, gpus, 138.0, kind, bytes).unwrap();
                    assert_eq!(trees, n);
                    // the same ops as CodeGen's tree-major program
                    let tree_major = cg
                        .build(&one_hop_trees(gpus, 138.0 / n as f64), kind, bytes)
                        .unwrap();
                    assert_eq!(program.len(), tree_major.len(), "{label}");
                    assert_eq!(program.total_copy_bytes(), tree_major.total_copy_bytes());
                    // Stage k runs chunk k toward the roots, then a chunk
                    // back out: chunk k, or chunk k − 1 where the root
                    // reduces it first. Even shards leave a ReduceScatter
                    // nothing to send back out.
                    let chunks = (bytes / n as u64).div_ceil(4 << 20) as usize;
                    let lag = usize::from(kind != CollectiveKind::AllGather);
                    let mut expected = Vec::new();
                    for stage in 0..chunks + lag {
                        if stage < chunks {
                            expected.extend(run(true));
                        }
                        if stage >= lag && kind != CollectiveKind::ReduceScatter {
                            expected.extend(run(false));
                        }
                    }
                    for (g, chain) in chains(&program, gpus).iter().enumerate() {
                        assert_eq!(*chain, expected, "{label}: GPU {g}");
                    }
                    // at issue, only each GPU's first copy is ready
                    let mut heads = std::collections::BTreeMap::new();
                    for op in program.ops() {
                        heads.entry(op.stream).or_insert(op.deps.is_empty());
                    }
                    let ready = heads.values().filter(|&&ready| ready).count();
                    assert_eq!(ready, n, "{label}");
                }
            }
        }
    }

    #[test]
    fn packed_relay_trees_never_beat_the_pairwise_exchange_for_a_rootless_kind() {
        // A rootless kind on a switch fabric lowers straight to the pairwise
        // exchange; the packed candidate it no longer races, TreeGen's
        // closed-form relay trees from the smallest GPU, must be no faster
        // anywhere. An 11-GPU AllReduce at 1 GiB is the closest case.
        let machine = dgx2();
        let sim = Simulator::with_defaults(machine.clone());
        let cg = CodeGen::new(CodeGenOptions::default());
        let total = |program: &Program| sim.run(program).unwrap().total_us;
        for n in [2, 3, 11, 16] {
            let gpus: Vec<GpuId> = (0..n).map(GpuId).collect();
            let cap = machine.switch_fabric_cap(&gpus).unwrap();
            let relay = relay_trees(
                &gpus,
                gpus[0],
                machine.nvlink_capacity_between(gpus[0], gpus[1]),
            );
            for kind in [
                CollectiveKind::AllReduce,
                CollectiveKind::AllGather,
                CollectiveKind::ReduceScatter,
            ] {
                for bytes in [1 << 10, 64 << 20, 1 << 30] {
                    let (exchange, _) = one_hop_program(&cg, &gpus, cap, kind, bytes).unwrap();
                    let exchange_us = total(&exchange);
                    let packed_us = total(&cg.build(&relay, kind, bytes).unwrap());
                    // the race kept one-hop unless packed was faster by 1e-9
                    assert!(
                        exchange_us <= packed_us + 1e-9,
                        "{kind} over {n} GPUs, {bytes} B: exchange {exchange_us} µs, packed {packed_us} µs"
                    );
                }
            }
        }
    }

    #[test]
    fn one_hop_trees_have_depth_one_and_distinct_roots() {
        let gpus: Vec<GpuId> = (0..16).map(GpuId).collect();
        let trees = one_hop_trees(&gpus, 138.0 / 16.0);
        assert_eq!(trees.len(), 16);
        for (i, wt) in trees.iter().enumerate() {
            assert_eq!(wt.tree.root, GpuId(i));
            assert_eq!(wt.tree.depth(), 1);
            assert!(wt.tree.is_valid_over(&gpus));
        }
        let total: f64 = trees.iter().map(|t| t.weight).sum();
        assert!((total - 138.0).abs() < 1e-9);
    }

    #[test]
    fn broadcast_tree_is_rooted_correctly() {
        let gpus: Vec<GpuId> = (0..16).map(GpuId).collect();
        let t = one_hop_broadcast_tree(&gpus, GpuId(5), 138.0);
        assert_eq!(t.tree.root, GpuId(5));
        assert_eq!(t.tree.depth(), 1);
        assert_eq!(t.tree.edges.len(), 15);
    }
}
