//! Test oracles: the pre-optimisation TreeGen solvers, kept verbatim.
//!
//! This module preserves the original recursive clone-per-contraction
//! Chu–Liu/Edmonds solver ([`min_arborescence_naive`]), the
//! per-sink-rebuild Dinic certificate ([`optimal_broadcast_rate_naive`]) and
//! the recursive, clone-per-improvement tree minimisation
//! ([`minimize_trees_naive`]) exactly as they were before the arena rewrites
//! in [`crate::arborescence`], [`crate::maxflow`] and [`crate::minimize`].
//! Unit tests cross-check that the rewritten solvers produce results
//! bit-identical to these oracles (same edge ids, same weights, same rate)
//! across DGX subsets, roots and randomized weight profiles. The module is
//! compiled only under `#[cfg(test)]`.

// The code below is intentionally frozen at its pre-rewrite state; style
// lints that would force edits defeat the purpose.
#![allow(clippy::needless_range_loop)]

use crate::arborescence::{arborescence_from_edges, min_arborescence, Arborescence};
use crate::digraph::{DiGraph, EdgeIdx, NodeIdx};
use crate::minimize::MinimizeOptions;
use crate::packing::{TreePacking, WeightedTree};
use blink_topology::GpuId;
use std::collections::{BTreeMap, BTreeSet};

/// The original recursive Chu–Liu/Edmonds minimum-arborescence solver,
/// allocating fresh edge lists and recursion state per contraction level.
pub fn min_arborescence_naive(
    graph: &DiGraph,
    root: NodeIdx,
    weights: &[f64],
) -> Option<Vec<EdgeIdx>> {
    assert_eq!(weights.len(), graph.num_edges(), "one weight per edge");
    if graph.num_nodes() == 0 {
        return None;
    }
    if !graph.spans_from(root) {
        return None;
    }
    #[derive(Clone, Copy)]
    struct E {
        u: usize,
        v: usize,
        w: f64,
        id: EdgeIdx,
    }
    let edges: Vec<E> = graph
        .edges()
        .iter()
        .enumerate()
        .filter(|(_, e)| e.src != e.dst)
        .map(|(id, e)| E {
            u: e.src,
            v: e.dst,
            w: weights[id],
            id,
        })
        .collect();

    fn solve(n: usize, root: usize, edges: &[E]) -> Option<Vec<EdgeIdx>> {
        if n <= 1 {
            return Some(Vec::new());
        }
        // 1. cheapest incoming edge for every non-root vertex
        let mut best: Vec<Option<E>> = vec![None; n];
        for e in edges {
            if e.v == root || e.u == e.v {
                continue;
            }
            match best[e.v] {
                Some(b) if b.w <= e.w => {}
                _ => best[e.v] = Some(*e),
            }
        }
        for (v, b) in best.iter().enumerate() {
            if v != root && b.is_none() {
                return None;
            }
        }
        // 2. look for a cycle among the chosen edges
        let mut color = vec![0u8; n]; // 0 unvisited, 1 in progress, 2 done
        color[root] = 2;
        let mut cycle: Option<Vec<usize>> = None;
        for start in 0..n {
            if color[start] != 0 {
                continue;
            }
            let mut path = Vec::new();
            let mut v = start;
            while color[v] == 0 {
                color[v] = 1;
                path.push(v);
                v = best[v].expect("non-root vertices have a parent").u;
            }
            if color[v] == 1 {
                // found a cycle: the suffix of `path` starting at v
                let pos = path.iter().position(|&x| x == v).expect("v is on path");
                cycle = Some(path[pos..].to_vec());
            }
            for &x in &path {
                color[x] = 2;
            }
            if cycle.is_some() {
                break;
            }
        }
        let chosen: Vec<E> = (0..n)
            .filter(|&v| v != root)
            .map(|v| best[v].expect("checked above"))
            .collect();
        let Some(cycle) = cycle else {
            return Some(chosen.iter().map(|e| e.id).collect());
        };
        // 3. contract the cycle into a single super-node
        let in_cycle: BTreeSet<usize> = cycle.iter().copied().collect();
        let mut map = vec![usize::MAX; n];
        let mut next = 0usize;
        for v in 0..n {
            if !in_cycle.contains(&v) {
                map[v] = next;
                next += 1;
            }
        }
        let super_node = next;
        for &v in &in_cycle {
            map[v] = super_node;
        }
        let new_n = next + 1;
        let mut new_edges = Vec::new();
        for e in edges {
            let (nu, nv) = (map[e.u], map[e.v]);
            if nu == nv {
                continue;
            }
            let w = if in_cycle.contains(&e.v) {
                e.w - best[e.v].expect("cycle vertex has a best edge").w
            } else {
                e.w
            };
            new_edges.push(E {
                u: nu,
                v: nv,
                w,
                id: e.id,
            });
        }
        let sub = solve(new_n, map[root], &new_edges)?;
        // 4. expand: the chosen sub-solution has exactly one edge entering the
        // super-node; the vertex (in *this* level's numbering) where that edge
        // lands breaks the cycle. Original edge ids are preserved across
        // contraction levels, so we can look the head up in this level's list.
        let head_at_this_level: BTreeMap<EdgeIdx, usize> =
            edges.iter().map(|e| (e.id, e.v)).collect();
        let mut result: Vec<EdgeIdx> = Vec::new();
        let mut entering_head: Option<usize> = None;
        for &id in &sub {
            result.push(id);
            if let Some(&dst) = head_at_this_level.get(&id) {
                if in_cycle.contains(&dst) {
                    entering_head = Some(dst);
                }
            }
        }
        let entering_head = entering_head.expect("some edge must enter the contracted cycle");
        for &v in &in_cycle {
            if v != entering_head {
                result.push(best[v].expect("cycle vertex has a best edge").id);
            }
        }
        Some(result)
    }

    solve(graph.num_nodes(), root, &edges)
}

// ---------------------------------------------------------------------------
// Frozen max-flow certificate: Dinic over a per-call `Vec<Vec<FlowEdge>>`
// residual graph, rebuilt from scratch for every (source, sink) pair.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
struct FlowEdge {
    to: usize,
    cap: f64,
    rev: usize,
}

struct NaiveDinic {
    graph: Vec<Vec<FlowEdge>>,
    level: Vec<i32>,
    iter: Vec<usize>,
}

impl NaiveDinic {
    fn new(n: usize) -> Self {
        NaiveDinic {
            graph: vec![Vec::new(); n],
            level: vec![0; n],
            iter: vec![0; n],
        }
    }

    fn add_edge(&mut self, from: usize, to: usize, cap: f64) {
        let from_len = self.graph[from].len();
        let to_len = self.graph[to].len();
        self.graph[from].push(FlowEdge {
            to,
            cap,
            rev: to_len,
        });
        self.graph[to].push(FlowEdge {
            to: from,
            cap: 0.0,
            rev: from_len,
        });
    }

    fn bfs(&mut self, s: usize, t: usize) -> bool {
        self.level.iter_mut().for_each(|l| *l = -1);
        let mut queue = std::collections::VecDeque::new();
        self.level[s] = 0;
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            for e in &self.graph[v] {
                if e.cap > 1e-12 && self.level[e.to] < 0 {
                    self.level[e.to] = self.level[v] + 1;
                    queue.push_back(e.to);
                }
            }
        }
        self.level[t] >= 0
    }

    fn dfs(&mut self, v: usize, t: usize, f: f64) -> f64 {
        if v == t {
            return f;
        }
        while self.iter[v] < self.graph[v].len() {
            let i = self.iter[v];
            let e = self.graph[v][i];
            if e.cap > 1e-12 && self.level[v] < self.level[e.to] {
                let d = self.dfs(e.to, t, f.min(e.cap));
                if d > 1e-12 {
                    self.graph[v][i].cap -= d;
                    let rev = e.rev;
                    self.graph[e.to][rev].cap += d;
                    return d;
                }
            }
            self.iter[v] += 1;
        }
        0.0
    }

    fn max_flow(&mut self, s: usize, t: usize) -> f64 {
        let mut flow = 0.0;
        while self.bfs(s, t) {
            self.iter.iter_mut().for_each(|i| *i = 0);
            loop {
                let f = self.dfs(s, t, f64::INFINITY);
                if f <= 1e-12 {
                    break;
                }
                flow += f;
            }
        }
        flow
    }
}

/// The original per-pair max-flow: allocates and fills a fresh residual graph
/// on every call.
pub fn max_flow_naive(graph: &DiGraph, source: NodeIdx, sink: NodeIdx) -> f64 {
    if source == sink {
        return 0.0;
    }
    let mut dinic = NaiveDinic::new(graph.num_nodes());
    for e in graph.edges() {
        dinic.add_edge(e.src, e.dst, e.capacity);
    }
    dinic.max_flow(source, sink)
}

/// The original broadcast-rate certificate: one full residual-graph rebuild
/// per sink (n − 1 rebuilds per call).
pub fn optimal_broadcast_rate_naive(graph: &DiGraph, root: NodeIdx) -> f64 {
    let mut rate = f64::INFINITY;
    for v in 0..graph.num_nodes() {
        if v == root {
            continue;
        }
        rate = rate.min(max_flow_naive(graph, root, v));
    }
    rate
}

// ---------------------------------------------------------------------------
// Frozen tree minimisation: recursive branch-and-bound that clones `chosen`
// into `best` per improvement, `BTreeMap<Vec<(GpuId, GpuId)>, ()>` candidate
// dedup, and a greedy peel that re-allocates its length/residual vectors per
// round and post-checks saturated edges.
// ---------------------------------------------------------------------------

fn edge_index_of_naive(graph: &DiGraph, p: GpuId, c: GpuId) -> Option<usize> {
    let (u, v) = (graph.node(p)?, graph.node(c)?);
    graph.edge_between(u, v)
}

fn tree_edge_indices_naive(graph: &DiGraph, tree: &Arborescence) -> Option<Vec<usize>> {
    tree.edges
        .iter()
        .map(|&(p, c)| edge_index_of_naive(graph, p, c))
        .collect()
}

fn greedy_unit_trees_naive(
    graph: &DiGraph,
    root_idx: usize,
    unit_caps: &[u32],
) -> Vec<Arborescence> {
    let mut residual: Vec<u32> = unit_caps.to_vec();
    let mut out = Vec::new();
    loop {
        let lengths: Vec<f64> = residual
            .iter()
            .map(|&r| if r == 0 { 1e9 } else { 1.0 / r as f64 })
            .collect();
        let Some(edge_ids) = min_arborescence(graph, root_idx, &lengths) else {
            break;
        };
        if edge_ids.iter().any(|&e| residual[e] == 0) {
            break;
        }
        for &e in &edge_ids {
            residual[e] -= 1;
        }
        out.push(arborescence_from_edges(graph, root_idx, &edge_ids));
        if out.len() > 64 {
            break; // safety valve; real topologies need at most a handful
        }
    }
    out
}

fn branch_and_bound_naive(
    candidates: &[Vec<usize>],
    unit_caps: &[u32],
    max_nodes: usize,
) -> Vec<usize> {
    // Greedy incumbent first.
    let mut best: Vec<usize> = Vec::new();
    {
        let mut residual = unit_caps.to_vec();
        for (i, edges) in candidates.iter().enumerate() {
            if edges.iter().all(|&e| residual[e] > 0) {
                for &e in edges {
                    residual[e] -= 1;
                }
                best.push(i);
            }
        }
    }
    let mut explored = 0usize;
    let mut residual = unit_caps.to_vec();
    let mut chosen: Vec<usize> = Vec::new();

    #[allow(clippy::too_many_arguments)]
    fn dfs(
        i: usize,
        candidates: &[Vec<usize>],
        residual: &mut Vec<u32>,
        chosen: &mut Vec<usize>,
        best: &mut Vec<usize>,
        explored: &mut usize,
        max_nodes: usize,
    ) {
        *explored += 1;
        if *explored > max_nodes {
            return;
        }
        if chosen.len() > best.len() {
            *best = chosen.clone();
        }
        if i >= candidates.len() {
            return;
        }
        // bound: even taking every remaining candidate cannot beat the best
        if chosen.len() + (candidates.len() - i) <= best.len() {
            return;
        }
        // branch 1: take candidate i if it fits
        if candidates[i].iter().all(|&e| residual[e] > 0) {
            for &e in &candidates[i] {
                residual[e] -= 1;
            }
            chosen.push(i);
            dfs(
                i + 1,
                candidates,
                residual,
                chosen,
                best,
                explored,
                max_nodes,
            );
            chosen.pop();
            for &e in &candidates[i] {
                residual[e] += 1;
            }
        }
        // branch 2: skip candidate i
        dfs(
            i + 1,
            candidates,
            residual,
            chosen,
            best,
            explored,
            max_nodes,
        );
    }

    dfs(
        0,
        candidates,
        &mut residual,
        &mut chosen,
        &mut best,
        &mut explored,
        max_nodes,
    );
    best
}

/// The original [`crate::minimize::minimize_trees`]: allocates candidate
/// vectors, dedup maps and branch-and-bound state per call.
pub fn minimize_trees_naive(
    graph: &DiGraph,
    packing: &TreePacking,
    opts: &MinimizeOptions,
) -> TreePacking {
    let Some(root_idx) = graph.node(packing.root) else {
        return packing.clone();
    };
    if graph.num_nodes() <= 1 || packing.trees.is_empty() {
        return packing.clone();
    }
    let optimum = optimal_broadcast_rate_naive(graph, root_idx);
    if optimum <= 0.0 {
        return packing.clone();
    }
    let unit = opts
        .unit_gbps
        .or_else(|| graph.min_capacity())
        .unwrap_or(1.0)
        .max(1e-9);
    let unit_caps: Vec<u32> = graph
        .edges()
        .iter()
        .map(|e| (e.capacity / unit + 1e-6).floor() as u32)
        .collect();

    // Candidate set: distinct MWU trees (heaviest first) plus greedily peeled
    // unit trees.
    let mut seen: BTreeMap<Vec<(GpuId, GpuId)>, ()> = BTreeMap::new();
    let mut candidates: Vec<Arborescence> = Vec::new();
    let mut sorted: Vec<&WeightedTree> = packing.trees.iter().collect();
    sorted.sort_by(|a, b| b.weight.partial_cmp(&a.weight).expect("finite weights"));
    for wt in sorted {
        if seen.insert(wt.tree.edges.clone(), ()).is_none() {
            candidates.push(wt.tree.clone());
        }
    }
    for t in greedy_unit_trees_naive(graph, root_idx, &unit_caps) {
        if seen.insert(t.edges.clone(), ()).is_none() {
            candidates.push(t);
        }
    }
    candidates.sort_by_key(|t| (t.depth(), t.edges.clone()));
    let candidate_edges: Vec<Vec<usize>> = candidates
        .iter()
        .filter_map(|t| tree_edge_indices_naive(graph, t))
        .collect();
    if candidate_edges.len() != candidates.len() {
        return packing.clone();
    }

    let selected = branch_and_bound_naive(&candidate_edges, &unit_caps, opts.max_bb_nodes);
    let mut trees: Vec<WeightedTree> = selected
        .iter()
        .map(|&i| WeightedTree {
            tree: candidates[i].clone(),
            weight: unit,
        })
        .collect();
    let mut rate: f64 = trees.iter().map(|t| t.weight).sum();

    if rate < (1.0 - opts.threshold) * optimum {
        let mut residual: Vec<f64> = graph.edges().iter().map(|e| e.capacity).collect();
        for (i, edges) in candidate_edges.iter().enumerate() {
            if selected.contains(&i) {
                for &e in edges {
                    residual[e] -= unit;
                }
            }
        }
        let mut progress = true;
        while rate < (1.0 - opts.threshold) * optimum && progress {
            progress = false;
            for (i, edges) in candidate_edges.iter().enumerate() {
                let headroom = edges
                    .iter()
                    .map(|&e| residual[e])
                    .fold(f64::INFINITY, f64::min);
                if headroom > 1e-6 {
                    let need = (1.0 - opts.threshold) * optimum - rate;
                    let w = headroom.min(need.max(0.0));
                    if w <= 1e-9 {
                        continue;
                    }
                    for &e in edges {
                        residual[e] -= w;
                    }
                    trees.push(WeightedTree {
                        tree: candidates[i].clone(),
                        weight: w,
                    });
                    rate += w;
                    progress = true;
                    if rate >= (1.0 - opts.threshold) * optimum {
                        break;
                    }
                }
            }
        }
    }

    let minimized = TreePacking::new(packing.root, trees).scaled_to_feasible(graph);
    if minimized.rate() + 1e-9 < packing.rate().min((1.0 - opts.threshold) * optimum) {
        packing.clone()
    } else {
        minimized
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arborescence::min_arborescence_in;
    use crate::arborescence::ArborescenceScratch;
    use blink_topology::presets::{dgx1p, dgx1v};

    /// The rewritten iterative solver must pick exactly the arborescence the
    /// recursive baseline picks — same edge ids, hence identical total weight
    /// — across DGX subsets, roots and weight profiles. (Tie-breaking and
    /// contraction order were preserved by construction; this pins it.)
    #[test]
    fn iterative_solver_matches_the_recursive_baseline() {
        let mut scratch = ArborescenceScratch::new();
        // deterministic LCG so the test needs no rand dependency
        let mut state = 0x2545f491_4f6cdd1du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) + 0.01
        };
        for topo in [dgx1v(), dgx1p()] {
            for mask in [0xffu32, 0xb3, 0x5a, 0x2f, 0x07] {
                let alloc: Vec<GpuId> = (0..8).filter(|i| mask >> i & 1 == 1).map(GpuId).collect();
                let sub = topo.induced(&alloc).unwrap();
                let g = DiGraph::from_topology_filtered(&sub, |l| l.kind.is_nvlink());
                for &root in &alloc {
                    let Some(root_idx) = g.node(root) else {
                        continue;
                    };
                    for _ in 0..8 {
                        let weights: Vec<f64> = (0..g.num_edges()).map(|_| next()).collect();
                        let naive = min_arborescence_naive(&g, root_idx, &weights);
                        let fast = min_arborescence_in(&g, root_idx, &weights, &mut scratch)
                            .map(|ids| ids.to_vec());
                        match (naive, fast) {
                            (None, None) => {}
                            (Some(mut a), Some(mut b)) => {
                                a.sort_unstable();
                                b.sort_unstable();
                                assert_eq!(a, b, "solvers diverged (root {root})");
                            }
                            (a, b) => panic!(
                                "reachability verdicts diverged for root {root}: naive {:?} vs fast {:?}",
                                a.is_some(),
                                b.is_some()
                            ),
                        }
                    }
                }
            }
        }
    }
}
