//! A small capacitated directed graph over GPUs.
//!
//! Parallel physical links between the same GPU pair (e.g. the doubled NVLink
//! lanes on a DGX-1V) are merged into one edge whose capacity is the sum of
//! the individual link capacities — exactly the "directed edge with a
//! bandwidth-proportional capacity" model of Section 3.1 of the paper.
//!
//! [`DiGraph::add_edge`] nevertheless permits parallel edges for hand-built
//! graphs, and every capacity query agrees on their meaning: a node pair's
//! capacity is the **sum** of its parallel edges ([`DiGraph::capacity_between`],
//! [`crate::optimal_broadcast_rate`], [`crate::packing::TreePacking::max_overuse`] all
//! aggregate the pair). Only [`DiGraph::edge_between`] is first-edge-specific,
//! and says so.

use blink_topology::{GpuId, Link, Topology};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Index of a node inside a [`DiGraph`].
pub type NodeIdx = usize;
/// Index of an edge inside a [`DiGraph`].
pub type EdgeIdx = usize;

/// A directed capacitated edge.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Edge {
    /// Source node index.
    pub src: NodeIdx,
    /// Destination node index.
    pub dst: NodeIdx,
    /// Capacity in GB/s.
    pub capacity: f64,
}

/// A dense directed graph with GPU-labelled vertices and capacitated edges.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DiGraph {
    nodes: Vec<GpuId>,
    index: BTreeMap<GpuId, NodeIdx>,
    edges: Vec<Edge>,
    out_adj: Vec<Vec<EdgeIdx>>,
    in_adj: Vec<Vec<EdgeIdx>>,
}

impl DiGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        DiGraph {
            nodes: Vec::new(),
            index: BTreeMap::new(),
            edges: Vec::new(),
            out_adj: Vec::new(),
            in_adj: Vec::new(),
        }
    }

    /// Builds a graph from every link of a topology.
    pub fn from_topology(topo: &Topology) -> Self {
        Self::from_topology_filtered(topo, |_| true)
    }

    /// Builds a graph from the links of a topology that satisfy `pred`,
    /// merging parallel links between the same ordered GPU pair.
    pub fn from_topology_filtered<F: Fn(&Link) -> bool>(topo: &Topology, pred: F) -> Self {
        let mut g = DiGraph::new();
        for gpu in topo.gpus() {
            g.add_node(gpu.id);
        }
        let mut merged: BTreeMap<(GpuId, GpuId), f64> = BTreeMap::new();
        for l in topo.links().iter().filter(|l| pred(l)) {
            *merged.entry((l.src, l.dst)).or_insert(0.0) += l.capacity_gbps();
        }
        for ((src, dst), cap) in merged {
            g.add_edge_by_id(src, dst, cap);
        }
        g
    }

    /// Adds a node; returns its index. Adding the same GPU twice returns the
    /// existing index.
    pub fn add_node(&mut self, gpu: GpuId) -> NodeIdx {
        if let Some(&i) = self.index.get(&gpu) {
            return i;
        }
        let i = self.nodes.len();
        self.nodes.push(gpu);
        self.index.insert(gpu, i);
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        i
    }

    /// Adds a directed edge between existing nodes; returns its index.
    ///
    /// # Panics
    /// Panics if either node index is out of range.
    pub fn add_edge(&mut self, src: NodeIdx, dst: NodeIdx, capacity: f64) -> EdgeIdx {
        assert!(src < self.nodes.len() && dst < self.nodes.len());
        let e = self.edges.len();
        self.edges.push(Edge { src, dst, capacity });
        self.out_adj[src].push(e);
        self.in_adj[dst].push(e);
        e
    }

    /// Adds a directed edge identified by GPU ids, creating nodes as needed.
    pub fn add_edge_by_id(&mut self, src: GpuId, dst: GpuId, capacity: f64) -> EdgeIdx {
        let s = self.add_node(src);
        let d = self.add_node(dst);
        self.add_edge(s, d, capacity)
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The GPU label of node `i`.
    pub fn gpu(&self, i: NodeIdx) -> GpuId {
        self.nodes[i]
    }

    /// All GPU labels in node order.
    pub fn gpus(&self) -> &[GpuId] {
        &self.nodes
    }

    /// Node index of a GPU, if present.
    pub fn node(&self, gpu: GpuId) -> Option<NodeIdx> {
        self.index.get(&gpu).copied()
    }

    /// Edge indices leaving node `i`.
    pub fn out_edges(&self, i: NodeIdx) -> &[EdgeIdx] {
        &self.out_adj[i]
    }

    /// Edge indices entering node `i`.
    pub fn in_edges(&self, i: NodeIdx) -> &[EdgeIdx] {
        &self.in_adj[i]
    }

    /// The **first** edge from `src` to `dst` (in insertion order), if any.
    ///
    /// With parallel edges this is the pair's canonical representative, *not*
    /// the pair's capacity — use [`DiGraph::capacity_between`] for that.
    pub fn edge_between(&self, src: NodeIdx, dst: NodeIdx) -> Option<EdgeIdx> {
        self.out_adj[src]
            .iter()
            .copied()
            .find(|&e| self.edges[e].dst == dst)
    }

    /// Total capacity from `src` to `dst`: the sum over all parallel edges
    /// (0.0 when there is no edge). Agrees with what the broadcast-rate
    /// certificate ([`crate::optimal_broadcast_rate`]) can route across the
    /// pair and with how
    /// [`crate::packing::TreePacking::max_overuse`] judges feasibility.
    pub fn capacity_between(&self, src: NodeIdx, dst: NodeIdx) -> f64 {
        self.out_adj[src]
            .iter()
            .filter(|&&e| self.edges[e].dst == dst)
            .map(|&e| self.edges[e].capacity)
            .sum()
    }

    /// The set of node indices reachable from `root` following edge directions.
    pub fn reachable_from(&self, root: NodeIdx) -> Vec<NodeIdx> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![root];
        seen[root] = true;
        let mut out = Vec::new();
        while let Some(u) = stack.pop() {
            out.push(u);
            for &e in &self.out_adj[u] {
                let v = self.edges[e].dst;
                if !seen[v] {
                    seen[v] = true;
                    stack.push(v);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Whether every node is reachable from `root`.
    pub fn spans_from(&self, root: NodeIdx) -> bool {
        self.reachable_from(root).len() == self.nodes.len()
    }

    /// For every node, whether every node is reachable from it: the roots a
    /// spanning arborescence can have, `spans_from` of each node in three
    /// walks over the graph instead of one per node. The node a depth-first
    /// search over all nodes finishes last lies in a source component of
    /// the graph's condensation; if it reaches every node, the roots are
    /// exactly the nodes that reach it, and otherwise there are none.
    pub fn spanning_roots(&self) -> Vec<bool> {
        let n = self.nodes.len();
        let mut roots = vec![false; n];
        let mut seen = vec![false; n];
        let mut last = None;
        let mut stack: Vec<(NodeIdx, usize)> = Vec::new();
        for start in 0..n {
            if seen[start] {
                continue;
            }
            seen[start] = true;
            stack.push((start, 0));
            while let Some((u, next)) = stack.last_mut() {
                let u = *u;
                match self.out_adj[u].get(*next) {
                    Some(&e) => {
                        *next += 1;
                        let v = self.edges[e].dst;
                        if !seen[v] {
                            seen[v] = true;
                            stack.push((v, 0));
                        }
                    }
                    None => {
                        stack.pop();
                        last = Some(u);
                    }
                }
            }
        }
        let Some(source) = last else {
            return roots;
        };
        if !self.spans_from(source) {
            return roots;
        }
        roots[source] = true;
        let mut walk = vec![source];
        while let Some(v) = walk.pop() {
            for &e in &self.in_adj[v] {
                let u = self.edges[e].src;
                if !roots[u] {
                    roots[u] = true;
                    walk.push(u);
                }
            }
        }
        roots
    }

    /// Minimum positive edge capacity (useful as the "one tree unit").
    /// Returns `None` for an edgeless graph.
    pub fn min_capacity(&self) -> Option<f64> {
        self.edges
            .iter()
            .map(|e| e.capacity)
            .min_by(|a, b| a.partial_cmp(b).expect("capacities are finite"))
    }
}

impl Default for DiGraph {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blink_topology::presets::dgx1v;

    #[test]
    fn from_topology_merges_parallel_links() {
        let topo = dgx1v();
        let g = DiGraph::from_topology_filtered(&topo, |l| l.kind.is_nvlink());
        assert_eq!(g.num_nodes(), 8);
        // 16 neighbour pairs, two directions each, parallel lanes merged
        assert_eq!(g.num_edges(), 32);
        let a = g.node(GpuId(0)).unwrap();
        let b = g.node(GpuId(3)).unwrap();
        assert!((g.capacity_between(a, b) - 46.0).abs() < 1e-9);
        let c = g.node(GpuId(1)).unwrap();
        assert!((g.capacity_between(a, c) - 23.0).abs() < 1e-9);
    }

    #[test]
    fn full_topology_includes_pcie_capacity() {
        let topo = dgx1v();
        let g = DiGraph::from_topology(&topo);
        let a = g.node(GpuId(0)).unwrap();
        let b = g.node(GpuId(1)).unwrap();
        // NVLink (23) + PCIe (5) merged into one edge
        assert!((g.capacity_between(a, b) - 28.0).abs() < 1e-9);
    }

    #[test]
    fn reachability() {
        let mut g = DiGraph::new();
        let a = g.add_node(GpuId(0));
        let b = g.add_node(GpuId(1));
        let c = g.add_node(GpuId(2));
        g.add_edge(a, b, 1.0);
        assert!(!g.spans_from(a));
        g.add_edge(b, c, 1.0);
        assert!(g.spans_from(a));
        assert!(!g.spans_from(c));
        assert_eq!(g.reachable_from(b), vec![b, c]);
    }

    #[test]
    fn parallel_edges_sum_in_capacity_between() {
        let mut g = DiGraph::new();
        let a = g.add_node(GpuId(0));
        let b = g.add_node(GpuId(1));
        let e0 = g.add_edge(a, b, 10.0);
        let e1 = g.add_edge(a, b, 7.0);
        assert!((g.capacity_between(a, b) - 17.0).abs() < 1e-9);
        assert_eq!(g.capacity_between(b, a), 0.0);
        // edge_between stays first-edge: the pair's canonical representative
        assert_eq!(g.edge_between(a, b), Some(e0));
        assert_ne!(e0, e1);
    }

    #[test]
    fn spanning_roots_are_the_nodes_that_span() {
        for mask in 1u32..256 {
            let alloc: Vec<GpuId> = (0..8)
                .filter(|&i| mask & (1 << i) != 0)
                .map(GpuId)
                .collect();
            let sub = dgx1v().induced(&alloc).unwrap();
            for links in [0, 1] {
                let g = DiGraph::from_topology_filtered(&sub, |l| {
                    (links == 0 && l.kind.is_nvlink()) || (links == 1 && l.src.0 % 3 != l.dst.0 % 2)
                });
                let roots = g.spanning_roots();
                for (i, &root) in roots.iter().enumerate() {
                    assert_eq!(root, g.spans_from(i), "{alloc:?} links {links} node {i}");
                }
            }
        }
        let mut chain = DiGraph::new();
        let a = chain.add_node(GpuId(0));
        let b = chain.add_node(GpuId(1));
        chain.add_edge(b, a, 1.0);
        assert_eq!(chain.spanning_roots(), vec![false, true]);
        assert!(DiGraph::new().spanning_roots().is_empty());
    }

    #[test]
    fn duplicate_node_insertion_is_idempotent() {
        let mut g = DiGraph::new();
        let a = g.add_node(GpuId(7));
        let b = g.add_node(GpuId(7));
        assert_eq!(a, b);
        assert_eq!(g.num_nodes(), 1);
    }

    #[test]
    fn min_capacity_and_adjacency() {
        let mut g = DiGraph::new();
        let a = g.add_node(GpuId(0));
        let b = g.add_node(GpuId(1));
        let e1 = g.add_edge(a, b, 2.5);
        let e2 = g.add_edge(b, a, 5.0);
        assert_eq!(g.out_edges(a), &[e1]);
        assert_eq!(g.in_edges(a), &[e2]);
        assert_eq!(g.min_capacity(), Some(2.5));
        assert_eq!(DiGraph::new().min_capacity(), None);
    }
}
