//! Spanning arborescences (directed, rooted spanning trees) and the
//! Chu–Liu/Edmonds minimum-weight arborescence algorithm.
//!
//! Blink's MWU packing (Section 3.2) repeatedly needs the *minimum-length*
//! spanning arborescence under the current edge lengths; Chu–Liu/Edmonds
//! computes it exactly. The packing loop invokes the solver `O(m ln m / ε²)`
//! times per job, so [`min_arborescence_in`] contracts cycles in place over
//! an [`ArborescenceScratch`] arena instead of rebuilding the graph per
//! contraction:
//!
//! * **Cheapest in-edges.** Every vertex starts with its cheapest in-edge
//!   (self-loops and edges into the root never count).
//! * **Walks.** From each unfinished vertex in node order the solver follows
//!   cheapest in-edges backwards. A walk that reaches the root or a finished
//!   node finishes every node on it. A walk that meets itself has closed a
//!   cycle, which becomes a super-node and the walk continues from it.
//! * **Contraction.** A super-node's candidates are its members' live
//!   in-edges, each reweighted `w − best_w[member]`; edges between members
//!   are dropped once, at that contraction. Each edge therefore carries the
//!   exact subtraction sequence of the classic level-by-level formulation.
//! * **Expansion.** Outermost super-node first, the edge entering a
//!   super-node breaks its cycle at the member holding the edge's head;
//!   every other member keeps its cheapest in-edge.
//!
//! **Tie rule.** A cheapest in-edge is the minimum by `(weight, edge id)`:
//! among equal weights the lowest edge id wins. Cycles of the cheapest-edge
//! graph are disjoint and contracting one leaves the others unchanged, so
//! the order in which cycles are found does not affect the selected edge
//! set; the recursive oracle in `crate::baseline` pins the solver to it
//! edge-for-edge.
//!
//! **Emission order.** The returned edges list, for every non-root vertex
//! in node order, the edge entering it. Callers that fold floating-point
//! values over a tree should walk its edges in an order of their own (the
//! MWU packer walks sorted edge ids) rather than rely on this one.
//!
//! **Finite weights.** Weights must be finite: contraction subtracts them,
//! and a NaN or infinity would make the `(weight, edge id)` minimum
//! meaningless. Debug builds assert it.

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
}

/// Marks "no edge" / "no enclosing super-node" in the solver's `u32` tables.
const NONE: u32 = u32::MAX;

/// Walk state of a solver node.
const UNVISITED: u8 = 0;
/// On the walk currently being followed.
const ON_PATH: u8 = 1;
/// Its cheapest-in-edge chain reaches the root; never revisited.
const DONE: u8 = 2;
/// Merged into a super-node; only the super-node is visited from now on.
const CONTRACTED: u8 = 3;

/// A super-node's candidate in-edge: the original edge id and its weight
/// after every reweighting of the contractions it entered.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    id: u32,
    w: f64,
}

/// Reusable buffers for [`min_arborescence_in`].
///
/// Solver nodes are numbered `0..n` for the graph's vertices, then `n..` for
/// super-nodes in creation order, so an enclosing super-node always has a
/// larger number than the nodes it contains.
///
/// One scratch serves any number of solves over graphs of any size: buffers
/// grow to the high-water mark on first use and are only cleared afterwards,
/// so the steady state performs no heap allocation at all. The MWU packing
/// loop threads one of these (inside a [`crate::packing::PackingScratch`])
/// through its thousands of solver invocations.
#[derive(Debug, Clone, Default)]
pub struct ArborescenceScratch {
    /// Per node: its cheapest live in-edge (`NONE` when it has none).
    best_id: Vec<u32>,
    /// Per node: that edge's weight as seen by the node.
    best_w: Vec<f64>,
    /// Per node: the super-node it was merged into (`NONE` while outermost).
    parent: Vec<u32>,
    /// Per node: walk state (`UNVISITED`, `ON_PATH`, `DONE`, `CONTRACTED`).
    state: Vec<u8>,
    /// Per node on the current walk: its index in `path`.
    path_pos: Vec<u32>,
    /// Per vertex: the outermost node containing it.
    top: Vec<u32>,
    /// Super-node `k`'s candidates are `cands[cand_off[k]..cand_off[k + 1]]`.
    cand_off: Vec<u32>,
    cands: Vec<Candidate>,
    /// The walk being followed, as solver nodes.
    path: Vec<u32>,
    /// Per node: the selected edge entering it (expansion pass).
    enter: Vec<u32>,
    result: Vec<EdgeIdx>,
}

impl ArborescenceScratch {
    /// Creates an empty scratch. Buffers are sized lazily on first solve.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a fresh outermost node with the given cheapest in-edge.
    fn push_node(&mut self, best_id: u32, best_w: f64) -> u32 {
        self.best_id.push(best_id);
        self.best_w.push(best_w);
        self.parent.push(NONE);
        self.state.push(UNVISITED);
        self.path_pos.push(NONE);
        (self.best_id.len() - 1) as u32
    }

    /// Merges the cycle `path[from..]` into a new super-node, which replaces
    /// it on the path. Candidates whose tail lies inside the cycle are dropped;
    /// every other member in-edge is reweighted by its member's cheapest
    /// weight, and the super-node's cheapest candidate is the minimum by
    /// `(weight, edge id)`.
    fn contract(&mut self, graph: &DiGraph, weights: &[f64], from: usize) {
        let n = graph.num_nodes();
        let s = self.push_node(NONE, 0.0);
        for &c in &self.path[from..] {
            self.parent[c as usize] = s;
            self.state[c as usize] = CONTRACTED;
        }
        // Every vertex whose outermost node was a member now lives in `s`.
        for t in self.top.iter_mut() {
            if self.state[*t as usize] == CONTRACTED {
                *t = s;
            }
        }
        let edges = graph.edges();
        let (mut best_id, mut best_w) = (NONE, 0.0);
        for i in from..self.path.len() {
            let c = self.path[i] as usize;
            let offset = self.best_w[c];
            let mut admit = |id: u32, w: f64, cands: &mut Vec<Candidate>| {
                if self.top[edges[id as usize].src] == s {
                    return; // internal to the cycle
                }
                let w = w - offset;
                if best_id == NONE || w < best_w || (w == best_w && id < best_id) {
                    best_id = id;
                    best_w = w;
                }
                cands.push(Candidate { id, w });
            };
            if c < n {
                for &e in graph.in_edges(c) {
                    admit(e as u32, weights[e], &mut self.cands);
                }
            } else {
                let k = c - n;
                for j in self.cand_off[k] as usize..self.cand_off[k + 1] as usize {
                    let cand = self.cands[j];
                    admit(cand.id, cand.w, &mut self.cands);
                }
            }
        }
        self.cand_off.push(self.cands.len() as u32);
        self.best_id[s as usize] = best_id;
        self.best_w[s as usize] = best_w;
        self.path.truncate(from);
        self.path_pos[s as usize] = from as u32;
        self.state[s as usize] = ON_PATH;
        self.path.push(s);
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
/// The slice lists, for every non-root vertex in node order, the chosen edge
/// entering it. Weights must be finite (see the module docs); debug builds
/// assert it.
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
    debug_assert!(
        weights.iter().all(|w| w.is_finite()),
        "arborescence weights must be finite"
    );
    let n = graph.num_nodes();
    if n == 0 {
        return None;
    }
    let edges = graph.edges();
    scratch.best_id.clear();
    scratch.best_w.clear();
    scratch.parent.clear();
    scratch.state.clear();
    scratch.path_pos.clear();
    scratch.cands.clear();
    scratch.cand_off.clear();
    scratch.cand_off.push(0);
    scratch.top.clear();
    scratch.top.extend(0..n as u32);
    scratch.result.clear();
    // Each vertex's cheapest in-edge: `in_edges` lists ids in ascending
    // order, so a strict `<` keeps the lowest id among equal weights.
    for v in 0..n {
        let (mut best_id, mut best_w) = (NONE, 0.0);
        if v != root {
            for &e in graph.in_edges(v) {
                if edges[e].src != v && (best_id == NONE || weights[e] < best_w) {
                    best_id = e as u32;
                    best_w = weights[e];
                }
            }
        }
        scratch.push_node(best_id, best_w);
    }
    scratch.state[root] = DONE;
    // Follow cheapest in-edges backwards from every vertex until the walk
    // reaches a finished node (its whole path is finished) or closes a cycle
    // (contracted into a super-node, whose walk continues).
    for start in 0..n as u32 {
        if scratch.state[start as usize] != UNVISITED {
            continue;
        }
        scratch.path.clear();
        scratch.path.push(start);
        scratch.path_pos[start as usize] = 0;
        scratch.state[start as usize] = ON_PATH;
        loop {
            let v = *scratch.path.last().expect("the walk is never empty");
            let e = scratch.best_id[v as usize];
            if e == NONE {
                return None; // unreachable (possibly a contracted component)
            }
            let u = scratch.top[edges[e as usize].src];
            match scratch.state[u as usize] {
                DONE => break,
                UNVISITED => {
                    scratch.path_pos[u as usize] = scratch.path.len() as u32;
                    scratch.state[u as usize] = ON_PATH;
                    scratch.path.push(u);
                }
                _ => {
                    let from = scratch.path_pos[u as usize] as usize;
                    scratch.contract(graph, weights, from);
                }
            }
        }
        for &x in &scratch.path {
            scratch.state[x as usize] = DONE;
        }
    }
    // Expand outermost-first (descending node number): each node enters by
    // its own cheapest edge unless its super-node's entering edge lands
    // inside it, in which case that edge breaks the cycle there.
    let nodes = scratch.best_id.len();
    scratch.enter.clear();
    scratch.enter.resize(nodes, NONE);
    for x in (0..nodes).rev() {
        if x == root {
            continue;
        }
        if scratch.enter[x] == NONE {
            scratch.enter[x] = scratch.best_id[x];
        }
        if x >= n {
            let e = scratch.enter[x];
            let mut c = edges[e as usize].dst as u32;
            while scratch.parent[c as usize] != x as u32 {
                c = scratch.parent[c as usize];
            }
            scratch.enter[c as usize] = e;
        }
    }
    scratch.result.extend(
        (0..n)
            .filter(|&v| v != root)
            .map(|v| scratch.enter[v] as EdgeIdx),
    );
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
