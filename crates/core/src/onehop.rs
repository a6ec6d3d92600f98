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
//! The packed candidate on a switch fabric needs no search either. Its
//! planning graph is a *complete uniform* digraph — one edge per ordered GPU
//! pair, every edge of capacity `c` ([`complete_uniform_capacity`]); so are
//! DGX-1P NVLink quads and PCIe graphs within one CPU complex. Every
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

use blink_graph::{Arborescence, DiGraph, WeightedTree};
use blink_topology::{GpuId, Topology};

/// Builds the `m` one-hop trees for a switch-fabric allocation, one rooted at
/// every GPU, each weighted equally (the data is split evenly across roots).
///
/// `per_tree_weight` is the rate attributed to each tree; for throughput
/// accounting the communicator passes `injection_cap / m` so the aggregate
/// equals the fabric injection bandwidth.
pub fn one_hop_trees(gpus: &[GpuId], per_tree_weight: f64) -> Vec<WeightedTree> {
    gpus.iter()
        .map(|&root| {
            let edges = gpus
                .iter()
                .copied()
                .filter(|&g| g != root)
                .map(|g| (root, g))
                .collect();
            WeightedTree {
                tree: Arborescence::new(root, edges),
                weight: per_tree_weight,
            }
        })
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
    let edges = gpus
        .iter()
        .copied()
        .filter(|&g| g != root)
        .map(|g| (root, g))
        .collect();
    WeightedTree {
        tree: Arborescence::new(root, edges),
        weight,
    }
}

/// Whether an allocation on `topology` behaves like a switch fabric: every
/// pair of allocated GPUs is NVLink-connected and every GPU declares a fabric
/// injection cap.
pub fn is_switch_fabric(topology: &Topology, gpus: &[GpuId]) -> bool {
    gpus.len() >= 2
        && gpus.iter().all(|&g| topology.gpu_cap(g).is_some())
        && gpus
            .iter()
            .all(|&a| gpus.iter().all(|&b| a == b || topology.has_nvlink(a, b)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use blink_topology::presets::{dgx1v, dgx2};

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

    #[test]
    fn switch_fabric_detection() {
        let dgx2 = dgx2();
        let all16: Vec<GpuId> = (0..16).map(GpuId).collect();
        assert!(is_switch_fabric(&dgx2, &all16));
        assert!(is_switch_fabric(&dgx2, &[GpuId(0), GpuId(9), GpuId(15)]));
        let dgx1 = dgx1v();
        let quad: Vec<GpuId> = (0..4).map(GpuId).collect();
        // fully NVLink-connected, but no per-GPU fabric cap -> not a switch
        assert!(!is_switch_fabric(&dgx1, &quad));
        assert!(!is_switch_fabric(&dgx2, &[GpuId(3)]));
    }
}
