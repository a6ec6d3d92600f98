//! Spanning arborescences (directed, rooted spanning trees) and the
//! Chu–Liu/Edmonds minimum-weight arborescence algorithm.
//!
//! Blink's MWU packing (Section 3.2) repeatedly needs the *minimum-length*
//! spanning arborescence under the current edge lengths; Chu–Liu/Edmonds
//! computes it exactly. The packing loop invokes the solver `O(m ln m / ε²)`
//! times per job, so the implementation here is an *iterative* contraction
//! loop over an [`ArborescenceScratch`] arena: every buffer (per-level
//! cheapest-in-edge tables, cycle membership, vertex remapping, the working
//! edge lists) is preallocated once and reused across calls, making the
//! steady-state solve allocation-free. The classic recursive
//! clone-per-contraction formulation survives as a test-only oracle
//! (`crate::baseline`) that pins this solver edge-for-edge.

use crate::digraph::{DiGraph, EdgeIdx, NodeIdx};
use blink_topology::GpuId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A spanning arborescence: a directed tree that originates at `root` and
/// reaches every other vertex, each non-root vertex having exactly one parent.
///
/// Edges are stored as `(parent, child)` pairs in GPU-id space so that the
/// structure survives independently of any particular [`DiGraph`] node
/// numbering (CodeGen and the simulator consume GPU ids directly).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Arborescence {
    /// The root GPU (origin of a broadcast / destination of a reduce).
    pub root: GpuId,
    /// `(parent, child)` pairs; every non-root vertex appears exactly once as
    /// a child.
    pub edges: Vec<(GpuId, GpuId)>,
}

impl Arborescence {
    /// Creates an arborescence from its root and parent→child edge list.
    pub fn new(root: GpuId, mut edges: Vec<(GpuId, GpuId)>) -> Self {
        edges.sort();
        Arborescence { root, edges }
    }

    /// A single-vertex arborescence (the degenerate 1-GPU collective).
    pub fn singleton(root: GpuId) -> Self {
        Arborescence {
            root,
            edges: Vec::new(),
        }
    }

    /// All vertices (root plus every child), sorted.
    pub fn vertices(&self) -> Vec<GpuId> {
        let mut set: BTreeSet<GpuId> = BTreeSet::new();
        set.insert(self.root);
        for &(p, c) in &self.edges {
            set.insert(p);
            set.insert(c);
        }
        set.into_iter().collect()
    }

    /// Number of vertices spanned.
    pub fn num_vertices(&self) -> usize {
        self.vertices().len()
    }

    /// The parent of `v`, or `None` for the root (or an unknown vertex).
    pub fn parent(&self, v: GpuId) -> Option<GpuId> {
        self.edges.iter().find(|&&(_, c)| c == v).map(|&(p, _)| p)
    }

    /// The children of `v`, in sorted order.
    pub fn children(&self, v: GpuId) -> Vec<GpuId> {
        let mut out: Vec<GpuId> = self
            .edges
            .iter()
            .filter(|&&(p, _)| p == v)
            .map(|&(_, c)| c)
            .collect();
        out.sort();
        out
    }

    /// Vertices with no children.
    pub fn leaves(&self) -> Vec<GpuId> {
        self.vertices()
            .into_iter()
            .filter(|&v| self.children(v).is_empty())
            .collect()
    }

    /// Depth of the tree: number of edges on the longest root-to-leaf path.
    pub fn depth(&self) -> usize {
        let mut max_depth = 0;
        let mut queue = VecDeque::new();
        queue.push_back((self.root, 0usize));
        while let Some((v, d)) = queue.pop_front() {
            max_depth = max_depth.max(d);
            for c in self.children(v) {
                queue.push_back((c, d + 1));
            }
        }
        max_depth
    }

    /// Depth (distance from the root) of a single vertex, if present.
    pub fn depth_of(&self, v: GpuId) -> Option<usize> {
        let mut depth = 0;
        let mut cur = v;
        if !self.vertices().contains(&v) {
            return None;
        }
        while cur != self.root {
            cur = self.parent(cur)?;
            depth += 1;
            if depth > self.edges.len() + 1 {
                return None; // malformed: cycle
            }
        }
        Some(depth)
    }

    /// Vertices in breadth-first order starting at the root. This is the order
    /// CodeGen uses to schedule chunk forwarding.
    pub fn bfs_order(&self) -> Vec<GpuId> {
        let mut order = Vec::with_capacity(self.num_vertices());
        let mut queue = VecDeque::new();
        queue.push_back(self.root);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for c in self.children(v) {
                queue.push_back(c);
            }
        }
        order
    }

    /// Edges in breadth-first order (parents before their children's edges).
    pub fn edges_bfs(&self) -> Vec<(GpuId, GpuId)> {
        let mut out = Vec::with_capacity(self.edges.len());
        for v in self.bfs_order() {
            for c in self.children(v) {
                out.push((v, c));
            }
        }
        out
    }

    /// Checks that this is a valid spanning arborescence over exactly
    /// `expected` vertices: every non-root vertex has one parent, the root has
    /// none, and every vertex is reachable from the root.
    pub fn is_valid_over(&self, expected: &[GpuId]) -> bool {
        let expected: BTreeSet<GpuId> = expected.iter().copied().collect();
        if !expected.contains(&self.root) {
            return false;
        }
        let verts: BTreeSet<GpuId> = self.vertices().into_iter().collect();
        if verts != expected {
            return false;
        }
        // each non-root vertex has exactly one incoming edge; root has none
        let mut indeg: BTreeMap<GpuId, usize> = BTreeMap::new();
        for &(_, c) in &self.edges {
            *indeg.entry(c).or_insert(0) += 1;
        }
        if indeg.contains_key(&self.root) {
            return false;
        }
        for &v in &verts {
            if v != self.root && indeg.get(&v).copied().unwrap_or(0) != 1 {
                return false;
            }
        }
        // reachability
        self.bfs_order().len() == verts.len()
    }

    /// The reverse view: every edge flipped. Used for the reduce direction of
    /// AllReduce (children send *toward* the root).
    pub fn reversed_edges(&self) -> Vec<(GpuId, GpuId)> {
        self.edges.iter().map(|&(p, c)| (c, p)).collect()
    }
}

/// A working edge inside the iterative solver. Original edge ids are carried
/// through every contraction level so the final selection can be reported in
/// the caller's edge numbering.
#[derive(Debug, Clone, Copy)]
struct WorkEdge {
    u: u32,
    v: u32,
    w: f64,
    id: u32,
}

/// Per-contraction-level state the expansion pass needs to undo one cycle
/// contraction. All vectors are reused (cleared, never shrunk) across calls.
#[derive(Debug, Clone, Default)]
struct ContractionLevel {
    /// Cheapest incoming edge id per vertex of this level (`u32::MAX` = none).
    best_id: Vec<u32>,
    /// Tail vertex of the cheapest incoming edge per vertex.
    best_u: Vec<u32>,
    /// Weight of the cheapest incoming edge per vertex.
    best_w: Vec<f64>,
    /// Vertices of the contracted cycle, in walk order.
    cycle: Vec<u32>,
    /// Cycle membership, indexed by this level's vertex numbering.
    in_cycle: Vec<bool>,
    /// Head vertex (this level's numbering) per *original* edge id;
    /// `u32::MAX` when the edge no longer exists at this level.
    head_of: Vec<u32>,
}

/// Reusable buffers for [`min_arborescence_in`].
///
/// One scratch serves any number of solves over graphs of any size: buffers
/// grow to the high-water mark on first use and are only cleared afterwards,
/// so the steady state performs no heap allocation at all. The MWU packing
/// loop threads one of these (inside a [`crate::packing::PackingScratch`])
/// through its thousands of solver invocations.
#[derive(Debug, Clone, Default)]
pub struct ArborescenceScratch {
    cur: Vec<WorkEdge>,
    next: Vec<WorkEdge>,
    levels: Vec<ContractionLevel>,
    map: Vec<u32>,
    color: Vec<u8>,
    path: Vec<u32>,
    result: Vec<EdgeIdx>,
}

impl ArborescenceScratch {
    /// Creates an empty scratch. Buffers are sized lazily on first solve.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Computes a minimum-weight spanning arborescence of `graph` rooted at
/// `root`, where `weight[e]` gives the length of edge `e`.
///
/// Returns the chosen edge indices, or `None` if some vertex is unreachable
/// from the root.
///
/// This is the convenience wrapper that allocates a fresh
/// [`ArborescenceScratch`] per call; hot loops should hold a scratch and call
/// [`min_arborescence_in`] instead.
pub fn min_arborescence(graph: &DiGraph, root: NodeIdx, weights: &[f64]) -> Option<Vec<EdgeIdx>> {
    let mut scratch = ArborescenceScratch::new();
    min_arborescence_in(graph, root, weights, &mut scratch).map(|ids| ids.to_vec())
}

/// [`min_arborescence`] over caller-owned scratch buffers: the allocation-free
/// fast path. The returned slice borrows `scratch` and is valid until the next
/// solve.
///
/// Unreachability is detected by the solver itself (a vertex — possibly a
/// contracted super-node — with no incoming edge), so no separate reachability
/// pass is run per call.
pub fn min_arborescence_in<'s>(
    graph: &DiGraph,
    root: NodeIdx,
    weights: &[f64],
    scratch: &'s mut ArborescenceScratch,
) -> Option<&'s [EdgeIdx]> {
    assert_eq!(weights.len(), graph.num_edges(), "one weight per edge");
    if graph.num_nodes() == 0 {
        return None;
    }
    let m = graph.num_edges();
    scratch.result.clear();
    scratch.cur.clear();
    for (id, e) in graph.edges().iter().enumerate() {
        if e.src != e.dst {
            scratch.cur.push(WorkEdge {
                u: e.src as u32,
                v: e.dst as u32,
                w: weights[id],
                id: id as u32,
            });
        }
    }
    let mut n = graph.num_nodes();
    let mut root = root as u32;
    let mut depth = 0usize;
    loop {
        if n <= 1 {
            break;
        }
        if depth == scratch.levels.len() {
            scratch.levels.push(ContractionLevel::default());
        }
        let level = &mut scratch.levels[depth];
        // 1. cheapest incoming edge for every non-root vertex (first edge wins
        // ties, matching the scan order of the reference implementation)
        level.best_id.clear();
        level.best_id.resize(n, u32::MAX);
        level.best_u.clear();
        level.best_u.resize(n, u32::MAX);
        level.best_w.clear();
        level.best_w.resize(n, 0.0);
        for e in &scratch.cur {
            if e.v == root {
                continue;
            }
            let v = e.v as usize;
            if level.best_id[v] == u32::MAX || e.w < level.best_w[v] {
                level.best_id[v] = e.id;
                level.best_u[v] = e.u;
                level.best_w[v] = e.w;
            }
        }
        for v in 0..n {
            if v as u32 != root && level.best_id[v] == u32::MAX {
                return None; // unreachable (possibly a contracted component)
            }
        }
        // 2. look for a cycle among the chosen edges
        scratch.color.clear();
        scratch.color.resize(n, 0); // 0 unvisited, 1 in progress, 2 done
        scratch.color[root as usize] = 2;
        level.cycle.clear();
        for start in 0..n {
            if scratch.color[start] != 0 {
                continue;
            }
            scratch.path.clear();
            let mut v = start as u32;
            while scratch.color[v as usize] == 0 {
                scratch.color[v as usize] = 1;
                scratch.path.push(v);
                v = level.best_u[v as usize];
            }
            if scratch.color[v as usize] == 1 {
                // found a cycle: the suffix of `path` starting at v
                let pos = scratch
                    .path
                    .iter()
                    .position(|&x| x == v)
                    .expect("v is on path");
                level.cycle.extend_from_slice(&scratch.path[pos..]);
            }
            for &x in &scratch.path {
                scratch.color[x as usize] = 2;
            }
            if !level.cycle.is_empty() {
                break;
            }
        }
        if level.cycle.is_empty() {
            // no cycle: this level's chosen edges complete the solution
            for v in 0..n {
                if v as u32 != root {
                    scratch.result.push(level.best_id[v] as EdgeIdx);
                }
            }
            break;
        }
        // 3. contract the cycle into a single super-node
        level.in_cycle.clear();
        level.in_cycle.resize(n, false);
        for &v in &level.cycle {
            level.in_cycle[v as usize] = true;
        }
        level.head_of.clear();
        level.head_of.resize(m, u32::MAX);
        scratch.map.clear();
        scratch.map.resize(n, u32::MAX);
        let mut next_id = 0u32;
        for v in 0..n {
            if !level.in_cycle[v] {
                scratch.map[v] = next_id;
                next_id += 1;
            }
        }
        let super_node = next_id;
        for &v in &level.cycle {
            scratch.map[v as usize] = super_node;
        }
        scratch.next.clear();
        for e in &scratch.cur {
            level.head_of[e.id as usize] = e.v;
            let (nu, nv) = (scratch.map[e.u as usize], scratch.map[e.v as usize]);
            if nu == nv {
                continue;
            }
            let w = if level.in_cycle[e.v as usize] {
                e.w - level.best_w[e.v as usize]
            } else {
                e.w
            };
            scratch.next.push(WorkEdge {
                u: nu,
                v: nv,
                w,
                id: e.id,
            });
        }
        std::mem::swap(&mut scratch.cur, &mut scratch.next);
        n = super_node as usize + 1;
        root = scratch.map[root as usize];
        depth += 1;
    }
    // 4. expand: walk the contraction levels innermost-out. At each level the
    // partial solution has exactly one edge whose head lies on that level's
    // cycle; that vertex breaks the cycle and every other cycle vertex keeps
    // its cheapest incoming edge.
    for lvl in (0..depth).rev() {
        let level = &scratch.levels[lvl];
        let mut entering_head = u32::MAX;
        for &id in &scratch.result {
            let h = level.head_of[id];
            if h != u32::MAX && level.in_cycle[h as usize] {
                entering_head = h;
            }
        }
        assert_ne!(
            entering_head,
            u32::MAX,
            "some edge must enter the contracted cycle"
        );
        for i in 0..level.cycle.len() {
            let v = level.cycle[i];
            if v != entering_head {
                scratch.result.push(level.best_id[v as usize] as EdgeIdx);
            }
        }
    }
    Some(&scratch.result)
}

/// Converts a set of edge indices (as returned by [`min_arborescence`]) into
/// an [`Arborescence`] labelled with GPU ids.
pub fn arborescence_from_edges(
    graph: &DiGraph,
    root: NodeIdx,
    edge_ids: &[EdgeIdx],
) -> Arborescence {
    let edges = edge_ids
        .iter()
        .map(|&e| {
            let edge = graph.edges()[e];
            (graph.gpu(edge.src), graph.gpu(edge.dst))
        })
        .collect();
    Arborescence::new(graph.gpu(root), edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_graph() -> DiGraph {
        // 0 -> 1 -> 2 with a costly shortcut 0 -> 2
        let mut g = DiGraph::new();
        let a = g.add_node(GpuId(0));
        let b = g.add_node(GpuId(1));
        let c = g.add_node(GpuId(2));
        g.add_edge(a, b, 1.0); // e0
        g.add_edge(b, c, 1.0); // e1
        g.add_edge(a, c, 1.0); // e2
        g
    }

    #[test]
    fn min_arborescence_prefers_cheap_edges() {
        let g = line_graph();
        let picked = min_arborescence(&g, 0, &[1.0, 1.0, 10.0]).unwrap();
        let arb = arborescence_from_edges(&g, 0, &picked);
        assert_eq!(arb.edges, vec![(GpuId(0), GpuId(1)), (GpuId(1), GpuId(2))]);
        let picked = min_arborescence(&g, 0, &[1.0, 10.0, 1.0]).unwrap();
        let arb = arborescence_from_edges(&g, 0, &picked);
        assert_eq!(arb.edges, vec![(GpuId(0), GpuId(1)), (GpuId(0), GpuId(2))]);
    }

    #[test]
    fn min_arborescence_handles_cycles() {
        // A graph where the greedy per-vertex choice forms a 1<->2 cycle.
        let mut g = DiGraph::new();
        let a = g.add_node(GpuId(0));
        let b = g.add_node(GpuId(1));
        let c = g.add_node(GpuId(2));
        let _e0 = g.add_edge(b, c, 1.0); // cheap 1 -> 2
        let _e1 = g.add_edge(c, b, 1.0); // cheap 2 -> 1
        let _e2 = g.add_edge(a, b, 5.0); // expensive entries from the root
        let _e3 = g.add_edge(a, c, 6.0);
        let picked = min_arborescence(&g, a, &[1.0, 1.0, 5.0, 6.0]).unwrap();
        let arb = arborescence_from_edges(&g, a, &picked);
        assert!(arb.is_valid_over(&[GpuId(0), GpuId(1), GpuId(2)]));
        // best total: enter at 1 (cost 5) then 1 -> 2 (cost 1)
        assert_eq!(arb.edges, vec![(GpuId(0), GpuId(1)), (GpuId(1), GpuId(2))]);
    }

    #[test]
    fn unreachable_vertex_returns_none() {
        let mut g = DiGraph::new();
        let a = g.add_node(GpuId(0));
        let _b = g.add_node(GpuId(1));
        let c = g.add_node(GpuId(2));
        g.add_edge(a, c, 1.0);
        assert!(min_arborescence(&g, a, &[1.0]).is_none());
    }

    #[test]
    fn arborescence_queries() {
        let arb = Arborescence::new(
            GpuId(0),
            vec![
                (GpuId(0), GpuId(1)),
                (GpuId(0), GpuId(2)),
                (GpuId(2), GpuId(3)),
            ],
        );
        assert_eq!(arb.num_vertices(), 4);
        assert_eq!(arb.parent(GpuId(3)), Some(GpuId(2)));
        assert_eq!(arb.parent(GpuId(0)), None);
        assert_eq!(arb.children(GpuId(0)), vec![GpuId(1), GpuId(2)]);
        assert_eq!(arb.leaves(), vec![GpuId(1), GpuId(3)]);
        assert_eq!(arb.depth(), 2);
        assert_eq!(arb.depth_of(GpuId(3)), Some(2));
        assert_eq!(arb.depth_of(GpuId(0)), Some(0));
        assert_eq!(arb.bfs_order()[0], GpuId(0));
        assert!(arb.is_valid_over(&[GpuId(0), GpuId(1), GpuId(2), GpuId(3)]));
        assert!(!arb.is_valid_over(&[GpuId(0), GpuId(1)]));
        assert_eq!(arb.reversed_edges().len(), 3);
    }

    #[test]
    fn invalid_arborescences_are_rejected() {
        // two parents for vertex 2
        let arb = Arborescence::new(
            GpuId(0),
            vec![
                (GpuId(0), GpuId(1)),
                (GpuId(0), GpuId(2)),
                (GpuId(1), GpuId(2)),
            ],
        );
        assert!(!arb.is_valid_over(&[GpuId(0), GpuId(1), GpuId(2)]));
        // edge into the root
        let arb = Arborescence::new(GpuId(0), vec![(GpuId(1), GpuId(0))]);
        assert!(!arb.is_valid_over(&[GpuId(0), GpuId(1)]));
    }

    #[test]
    fn singleton_is_valid() {
        let arb = Arborescence::singleton(GpuId(5));
        assert!(arb.is_valid_over(&[GpuId(5)]));
        assert_eq!(arb.depth(), 0);
        assert_eq!(arb.bfs_order(), vec![GpuId(5)]);
    }

    #[test]
    fn edges_bfs_lists_parents_first() {
        let arb = Arborescence::new(GpuId(0), vec![(GpuId(1), GpuId(2)), (GpuId(0), GpuId(1))]);
        let bfs = arb.edges_bfs();
        assert_eq!(bfs, vec![(GpuId(0), GpuId(1)), (GpuId(1), GpuId(2))]);
    }
}
