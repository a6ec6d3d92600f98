//! Minimising the number of packed trees (Section 3.2.1).
//!
//! The MWU packing achieves a near-optimal rate but may return very many
//! trees with tiny weights (the paper observed 181 trees on the 8-GPU DGX-1V
//! where 6 suffice). Small per-tree data slices hurt link utilisation and blow
//! up the number of CUDA operations the generated code must issue, so Blink
//! post-processes the packing:
//!
//! 1. Express capacities in integer *units* (one unit = one NVLink lane's
//!    bandwidth) and solve a 0/1 integer program over the candidate trees —
//!    pick a maximum-cardinality subset such that no edge is over-subscribed —
//!    by branch-and-bound (the candidate set is tiny).
//! 2. If the integral rate `ĉ` is more than `threshold` below the optimal
//!    rate `c*`, iteratively relax: add fractional trees on the residual
//!    capacities until the rate is within the threshold.
//!
//! The branch-and-bound is seeded with additional candidates produced by a
//! greedy "peel one unit-weight arborescence at a time" pass so that a good
//! integral solution exists even when the MWU candidates overlap badly.
//!
//! Like the MWU packing, the whole pass is engineered as a hot path (it runs
//! on every plan build and every plan-cache miss):
//!
//! * the branch-and-bound is an **iterative** explicit-stack DFS over reusable
//!   buffers ([`MinimizeScratch`]) — no recursion frames, no `chosen.clone()`
//!   per incumbent improvement, no per-call residual vectors — with an
//!   additional admissible per-vertex in-unit bound that collapses the proof
//!   of optimality from hundreds of thousands of search nodes to a handful
//!   without changing the selected trees;
//! * candidates are deduplicated under compact sorted-edge-id keys (the same
//!   scheme [`crate::packing::PackingScratch`] uses), not
//!   `BTreeMap<Vec<(GpuId, GpuId)>, ()>` clones;
//! * the greedy peel reuses one `lengths`/`residual` pair across rounds and
//!   gates each round on a reachability walk over unsaturated edges, so no
//!   [`min_arborescence_in`] solve is burned just to discover that every
//!   arborescence must cross a saturated edge;
//! * the rate threshold comes from [`optimal_broadcast_rate_in`] over the
//!   scratch's embedded [`MaxFlowScratch`] — unless the caller already ran the
//!   certificate (the MWU packing does, for its early exit) and forwards it
//!   via [`MinimizeOptions::known_optimum`], in which case no flow is solved
//!   here at all.
//!
//! The pre-optimisation path survives as a test-only oracle
//! (`crate::baseline::minimize_trees_naive`); property tests below pin the
//! two bit-identical on random DGX-1V/DGX-1P/DGX-2 subgraphs.
//!
//! Parallel edges between the same node pair are treated as pooled capacity
//! (the unified [`DiGraph::capacity_between`] semantics): each pair's
//! capacity is accounted at its canonical representative edge (the pair's
//! first edge), which is also the edge candidate trees are expressed over.
//!
//! # Warm-start replanning
//!
//! [`minimize_trees_warm_in`] accepts a previous plan's minimised selection
//! as the branch-and-bound incumbent. Incumbent trees that still map onto
//! the new graph are added to the candidate set and seeded as the starting
//! `best` (greedily truncated to unit feasibility); trees that reference a
//! dead link or vertex, or no longer span a grown vertex set, are skipped —
//! in the worst case the seed is empty and the search degenerates to the
//! cold greedy-first-fit start. Because incumbents are only ever displaced by
//! *strictly larger* selections, a warm run's integral selection is at least
//! as large as the cold run's, and on an unchanged topology the result is
//! bit-identical to the cold path.

use crate::arborescence::{min_arborescence_in, Arborescence, ArborescenceScratch};
use crate::digraph::DiGraph;
use crate::maxflow::{optimal_broadcast_rate_in, MaxFlowScratch};
use crate::packing::{TreePacking, WeightedTree};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Options for [`minimize_trees`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MinimizeOptions {
    /// Accept an integral solution whose rate is within this fraction of the
    /// optimal rate (the paper uses 5%).
    pub threshold: f64,
    /// The bandwidth of "one unit" in GB/s. Defaults to the smallest edge
    /// capacity in the graph (one NVLink lane on the DGX presets).
    pub unit_gbps: Option<f64>,
    /// Cap on branch-and-bound nodes explored before falling back to the best
    /// incumbent found so far.
    pub max_bb_nodes: usize,
    /// The Edmonds/Lovász optimal broadcast rate (GB/s) for the packing's
    /// graph and root, when the caller has already computed it — the MWU
    /// packing reports it in `PackingStats::certificate_gbps` and TreeGen
    /// threads it through so each plan build runs the certificate once, not
    /// twice. Must be exactly the value [`optimal_broadcast_rate_in`] would
    /// return for the same graph and root (the certificate is deterministic,
    /// so forwarding the packing's stat is bit-identical to recomputing);
    /// `None` recomputes it here.
    pub known_optimum: Option<f64>,
}

impl Default for MinimizeOptions {
    fn default() -> Self {
        MinimizeOptions {
            threshold: 0.05,
            unit_gbps: None,
            max_bb_nodes: 200_000,
            known_optimum: None,
        }
    }
}

/// One pending step of the iterative branch-and-bound DFS.
#[derive(Debug, Clone, Copy)]
enum BbStep {
    /// Enter the search node that decides candidate `i`.
    Visit(u32),
    /// Undo the "take candidate `i`" decision on the way back up.
    Untake(u32),
}

/// Which candidates the branch-and-bound's residual still fits, kept as it
/// takes and returns candidates: per candidate, how many of its edges have
/// no unit left.
#[derive(Debug, Clone, Default)]
struct Blocking {
    /// Per candidate, its edges with no residual unit.
    blocked: Vec<u32>,
    /// The candidates using edge `e` are `users[users_off[e]..users_off[e + 1]]`.
    users_off: Vec<u32>,
    users: Vec<u32>,
    /// Next free slot per edge while filling `users`.
    fill: Vec<u32>,
}

impl Blocking {
    /// Indexes the candidates by edge and counts each one's edges with no
    /// unit in `unit_caps`.
    fn start(&mut self, sorted_edges: &[u32], sorted_off: &[u32], unit_caps: &[u32]) {
        let cands = sorted_off
            .windows(2)
            .map(|w| &sorted_edges[w[0] as usize..w[1] as usize]);
        self.users_off.clear();
        self.users_off.resize(unit_caps.len() + 1, 0);
        for &e in sorted_edges {
            self.users_off[e as usize + 1] += 1;
        }
        for e in 0..unit_caps.len() {
            self.users_off[e + 1] += self.users_off[e];
        }
        self.users.clear();
        self.users.resize(sorted_edges.len(), 0);
        self.blocked.clear();
        self.fill.clone_from(&self.users_off);
        for (c, edges) in cands.enumerate() {
            for &e in edges {
                self.users[self.fill[e as usize] as usize] = c as u32;
                self.fill[e as usize] += 1;
            }
            self.blocked.push(
                edges
                    .iter()
                    .filter(|&&e| unit_caps[e as usize] == 0)
                    .count() as u32,
            );
        }
    }

    fn users(&self, e: u32) -> std::ops::Range<usize> {
        self.users_off[e as usize] as usize..self.users_off[e as usize + 1] as usize
    }

    /// Edge `e` just lost its last unit.
    fn block(&mut self, e: u32) {
        for i in self.users(e) {
            self.blocked[self.users[i] as usize] += 1;
        }
    }

    /// Edge `e` just regained a unit.
    fn free(&mut self, e: u32) {
        for i in self.users(e) {
            self.blocked[self.users[i] as usize] -= 1;
        }
    }
}

/// Reusable buffers for [`minimize_trees_in`]: the arborescence-solver arena
/// and certificate scratch, the pair-merged capacity view, the greedy-peel
/// length/residual vectors, the candidate accumulator (flattened sorted
/// edge-id keys) and the iterative branch-and-bound stack.
///
/// One scratch serves any number of minimisations over any graphs — buffers
/// grow to the high-water mark and stay allocated, so repeated TreeGen
/// invocations share a single set of allocations. Scratch contents never
/// affect results: a reused scratch yields packings bit-identical to a fresh
/// one (see the regression tests in `tests/properties.rs`).
#[derive(Debug, Clone, Default)]
pub struct MinimizeScratch {
    arb: ArborescenceScratch,
    maxflow: MaxFlowScratch,
    /// Edge id → canonical representative edge id of its `(src, dst)` pair.
    rep_of: Vec<u32>,
    rep_of_pair: HashMap<(u32, u32), u32>,
    /// Pooled pair capacity at the representative edge, 0.0 elsewhere.
    pair_cap: Vec<f64>,
    /// Integer unit capacity at the representative edge, 0 elsewhere.
    unit_caps: Vec<u32>,
    // greedy peel
    residual: Vec<u32>,
    lengths: Vec<f64>,
    reach_seen: Vec<bool>,
    reach_stack: Vec<u32>,
    // candidate accumulation (insertion order, then a sorted copy)
    key: Vec<u32>,
    seen: HashMap<Box<[u32]>, u32>,
    cand_edges: Vec<u32>,
    cand_off: Vec<u32>,
    cand_depth: Vec<u32>,
    depth_of: Vec<u32>,
    order: Vec<u32>,
    sorted_edges: Vec<u32>,
    sorted_off: Vec<u32>,
    tree_order: Vec<u32>,
    // branch and bound
    bb_residual: Vec<u32>,
    /// Residual unit capacity entering each vertex (`Σ bb_residual[e]` over
    /// `e` into `v`) — the admissible bound's state.
    in_units: Vec<u32>,
    /// Which candidates the residual still fits — the fitting bound's state.
    blocking: Blocking,
    edge_dst: Vec<u32>,
    chosen: Vec<u32>,
    best: Vec<u32>,
    stack: Vec<BbStep>,
    /// Warm-start incumbent (sorted-candidate indices) seeded into the
    /// branch-and-bound; empty on cold runs.
    warm_best: Vec<u32>,
    // fractional relaxation
    frac_residual: Vec<f64>,
}

impl MinimizeScratch {
    /// Creates an empty scratch. Buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Whether every vertex is reachable from `root` using only edges with
/// positive residual units — the gate that replaces the old "solve, then
/// notice a saturated edge was unavoidable" round of the greedy peel.
fn residual_spans(
    graph: &DiGraph,
    root_idx: usize,
    residual: &[u32],
    seen: &mut Vec<bool>,
    stack: &mut Vec<u32>,
) -> bool {
    let n = graph.num_nodes();
    seen.clear();
    seen.resize(n, false);
    stack.clear();
    stack.push(root_idx as u32);
    seen[root_idx] = true;
    let mut count = 1usize;
    while let Some(u) = stack.pop() {
        for &e in graph.out_edges(u as usize) {
            if residual[e] == 0 {
                continue;
            }
            let v = graph.edges()[e].dst;
            if !seen[v] {
                seen[v] = true;
                count += 1;
                stack.push(v as u32);
            }
        }
    }
    count == n
}

/// Depth (longest root-to-leaf path) of the arborescence given by `ids`,
/// computed over node indices without materialising an [`Arborescence`].
fn depth_of_edge_set(
    graph: &DiGraph,
    root_idx: usize,
    ids: &[u32],
    depth_of: &mut Vec<u32>,
) -> u32 {
    depth_of.clear();
    depth_of.resize(graph.num_nodes(), u32::MAX);
    depth_of[root_idx] = 0;
    let mut max_depth = 0;
    // tiny trees: a quadratic fixpoint beats building adjacency
    loop {
        let mut changed = false;
        for &id in ids {
            let e = graph.edges()[id as usize];
            if depth_of[e.src] != u32::MAX && depth_of[e.dst] == u32::MAX {
                depth_of[e.dst] = depth_of[e.src] + 1;
                max_depth = max_depth.max(depth_of[e.dst]);
                changed = true;
            }
        }
        if !changed {
            return max_depth;
        }
    }
}

/// Records `key` (a pair-sorted representative-edge-id list) as a candidate
/// unless an identical tree was already seen, flattening it into the
/// `cand_edges`/`cand_off` arena and computing its depth. Shared by the
/// MWU-tree and greedy-peel accumulation loops.
#[allow(clippy::too_many_arguments)]
fn record_candidate(
    graph: &DiGraph,
    root_idx: usize,
    key: &[u32],
    seen: &mut HashMap<Box<[u32]>, u32>,
    cand_edges: &mut Vec<u32>,
    cand_off: &mut Vec<u32>,
    cand_depth: &mut Vec<u32>,
    depth_of: &mut Vec<u32>,
) {
    if seen.contains_key(key) {
        return;
    }
    seen.insert(key.into(), cand_off.len() as u32 - 1);
    cand_edges.extend_from_slice(key);
    cand_off.push(cand_edges.len() as u32);
    let start = cand_off[cand_off.len() - 2] as usize;
    let depth = depth_of_edge_set(graph, root_idx, &cand_edges[start..], depth_of);
    cand_depth.push(depth);
}

/// Converts a sorted representative-edge-id slice back into a GPU-labelled
/// [`Arborescence`].
fn arborescence_from_ids(graph: &DiGraph, root_idx: usize, ids: &[u32]) -> Arborescence {
    Arborescence::new(
        graph.gpu(root_idx),
        ids.iter()
            .map(|&e| {
                let edge = graph.edges()[e as usize];
                (graph.gpu(edge.src), graph.gpu(edge.dst))
            })
            .collect(),
    )
}

/// Iterative branch-and-bound over the sorted candidate view: maximise the
/// number of selected candidates subject to integer unit capacities.
///
/// Three admissible bounds prune a search node: the remaining-candidate count
/// (the recursive reference's bound), the remaining candidates that fit the
/// current residual (a candidate that does not fit now never fits deeper,
/// where the residual only shrinks), and the **in-unit cut**: every candidate
/// is a spanning arborescence, so it consumes exactly one capacity unit
/// entering every non-root vertex — no more than
/// `min over v ≠ root of in_units(v)` further candidates can ever fit. The
/// bounds only discard subtrees that cannot *strictly* beat the incumbent, so
/// incumbent improvements happen at exactly the reference implementation's
/// DFS nodes, in the same order — the in-unit cut merely reaches them orders
/// of magnitude sooner on lane-limited graphs like the DGX presets.
///
/// Equivalence with the reference is therefore exact whenever the search
/// completes within `max_nodes` (the regression suite pins this
/// bit-identical with an effectively unbounded cap). When `max_nodes`
/// truncates the search, this path explores a *subsequence* of the
/// reference's node order, so it reaches every improvement the reference
/// reached within the same budget — plus possibly more: a truncated search
/// here returns a selection at least as large as the reference's, never a
/// worse one.
#[allow(clippy::too_many_arguments)]
fn branch_and_bound_in(
    sorted_edges: &[u32],
    sorted_off: &[u32],
    unit_caps: &[u32],
    edge_dst: &[u32],
    root_idx: usize,
    num_nodes: usize,
    max_nodes: usize,
    warm_incumbent: &[u32],
    bb_residual: &mut Vec<u32>,
    in_units: &mut Vec<u32>,
    blocking: &mut Blocking,
    chosen: &mut Vec<u32>,
    best: &mut Vec<u32>,
    stack: &mut Vec<BbStep>,
) {
    let k = sorted_off.len() - 1;
    let cand = |i: u32| {
        &sorted_edges[sorted_off[i as usize] as usize..sorted_off[i as usize + 1] as usize]
    };
    // Greedy incumbent first.
    best.clear();
    bb_residual.clear();
    bb_residual.extend_from_slice(unit_caps);
    for i in 0..k as u32 {
        if cand(i).iter().all(|&e| bb_residual[e as usize] > 0) {
            for &e in cand(i) {
                bb_residual[e as usize] -= 1;
            }
            best.push(i);
        }
    }
    // A warm incumbent (the previous plan's minimised selection, already
    // truncated to unit feasibility by the caller) replaces the greedy one
    // when it is strictly larger, so the bound prunes from a near-optimal
    // start. Search-node *improvement* semantics are unchanged — only
    // strictly larger selections ever displace the incumbent — so a warm run
    // returns a selection at least as large as the cold run's.
    if warm_incumbent.len() > best.len() {
        best.clear();
        best.extend_from_slice(warm_incumbent);
    }
    let mut explored = 0usize;
    bb_residual.clear();
    bb_residual.extend_from_slice(unit_caps);
    in_units.clear();
    in_units.resize(num_nodes, 0);
    for (e, &units) in unit_caps.iter().enumerate() {
        in_units[edge_dst[e] as usize] += units;
    }
    blocking.start(sorted_edges, sorted_off, unit_caps);
    chosen.clear();
    stack.clear();
    stack.push(BbStep::Visit(0));
    while let Some(step) = stack.pop() {
        match step {
            BbStep::Untake(i) => {
                chosen.pop();
                for &e in cand(i) {
                    if bb_residual[e as usize] == 0 {
                        blocking.free(e);
                    }
                    bb_residual[e as usize] += 1;
                    in_units[edge_dst[e as usize] as usize] += 1;
                }
            }
            BbStep::Visit(i) => {
                explored += 1;
                if explored > max_nodes {
                    continue; // pending Untake steps still unwind correctly
                }
                if chosen.len() > best.len() {
                    best.clear();
                    best.extend_from_slice(chosen);
                }
                if i as usize >= k {
                    continue;
                }
                // bound: neither the remaining candidates nor the tightest
                // per-vertex in-unit cut admit a strictly better selection
                let in_cut = in_units
                    .iter()
                    .enumerate()
                    .filter(|&(v, _)| v != root_idx)
                    .map(|(_, &u)| u)
                    .min()
                    .unwrap_or(0) as usize;
                if chosen.len() + (k - i as usize).min(in_cut) <= best.len() {
                    continue;
                }
                // a candidate that does not fit the residual now never fits
                // deeper, where the residual only shrinks: fewer than
                // `best + 1 − chosen` fitting candidates cannot beat `best`
                let needed = best.len() + 1 - chosen.len();
                let blocked = &blocking.blocked[i as usize..];
                if blocked.iter().filter(|&&b| b == 0).take(needed).count() < needed {
                    continue;
                }
                if blocking.blocked[i as usize] == 0 {
                    // take-branch first, then untake, then the skip-branch —
                    // pushed in reverse execution order
                    stack.push(BbStep::Visit(i + 1));
                    stack.push(BbStep::Untake(i));
                    stack.push(BbStep::Visit(i + 1));
                    for &e in cand(i) {
                        bb_residual[e as usize] -= 1;
                        in_units[edge_dst[e as usize] as usize] -= 1;
                        if bb_residual[e as usize] == 0 {
                            blocking.block(e);
                        }
                    }
                    chosen.push(i);
                } else {
                    stack.push(BbStep::Visit(i + 1));
                }
            }
        }
    }
}

/// Reduces the number of trees in `packing` while keeping the total rate
/// within `opts.threshold` of the optimal broadcast rate.
///
/// The returned packing is always feasible. If minimisation cannot reach the
/// threshold (which does not happen on the DGX presets), the original packing
/// is returned unchanged.
///
/// This wrapper allocates a fresh [`MinimizeScratch`] per call; hot callers
/// should hold a scratch and use [`minimize_trees_in`].
pub fn minimize_trees(
    graph: &DiGraph,
    packing: &TreePacking,
    opts: &MinimizeOptions,
) -> TreePacking {
    minimize_trees_in(graph, packing, opts, &mut MinimizeScratch::new())
}

/// [`minimize_trees`] over caller-owned scratch buffers — the allocation-free
/// fast path (only the returned packing and first-seen candidate keys
/// allocate once warm).
pub fn minimize_trees_in(
    graph: &DiGraph,
    packing: &TreePacking,
    opts: &MinimizeOptions,
    scratch: &mut MinimizeScratch,
) -> TreePacking {
    minimize_impl(graph, packing, opts, scratch, None)
}

/// [`minimize_trees_in`] with a warm-start incumbent — the
/// incremental-replanning fast path.
///
/// `incumbent` is a previously minimised packing (typically the stale plan's
/// selection before a topology delta). Its trees that still map onto `graph`
/// — every vertex and GPU-pair edge present, still spanning — are added to
/// the candidate set and seeded as the branch-and-bound incumbent (truncated
/// greedily to integer unit feasibility), so the bound prunes from a
/// near-optimal start instead of the greedy first-fit. Trees that no longer
/// map are silently skipped; an incumbent rooted elsewhere is ignored
/// entirely. The warm run's integral selection is never smaller than the
/// cold run's on the same graph, and on an unchanged topology the result is
/// bit-identical to the cold path.
pub fn minimize_trees_warm_in(
    graph: &DiGraph,
    packing: &TreePacking,
    opts: &MinimizeOptions,
    scratch: &mut MinimizeScratch,
    incumbent: &TreePacking,
) -> TreePacking {
    minimize_impl(graph, packing, opts, scratch, Some(incumbent))
}

fn minimize_impl(
    graph: &DiGraph,
    packing: &TreePacking,
    opts: &MinimizeOptions,
    scratch: &mut MinimizeScratch,
    warm: Option<&TreePacking>,
) -> TreePacking {
    let Some(root_idx) = graph.node(packing.root) else {
        return packing.clone();
    };
    if graph.num_nodes() <= 1 || packing.trees.is_empty() {
        return packing.clone();
    }
    let optimum = match opts.known_optimum {
        Some(cert) => cert,
        None => optimal_broadcast_rate_in(graph, root_idx, &mut scratch.maxflow),
    };
    if optimum <= 0.0 {
        return packing.clone();
    }
    let unit = opts
        .unit_gbps
        .or_else(|| graph.min_capacity())
        .unwrap_or(1.0)
        .max(1e-9);
    let m = graph.num_edges();

    // ---- pair-merged capacity view (pooled parallel edges at their
    // canonical representative, which `edge_between` would return) ----
    scratch.rep_of.clear();
    scratch.rep_of_pair.clear();
    scratch.pair_cap.clear();
    scratch.pair_cap.resize(m, 0.0);
    for (id, e) in graph.edges().iter().enumerate() {
        let rep = *scratch
            .rep_of_pair
            .entry((e.src as u32, e.dst as u32))
            .or_insert(id as u32);
        scratch.rep_of.push(rep);
        scratch.pair_cap[rep as usize] += e.capacity;
    }
    scratch.unit_caps.clear();
    scratch.unit_caps.resize(m, 0);
    for id in 0..m {
        if scratch.rep_of[id] as usize == id {
            scratch.unit_caps[id] = (scratch.pair_cap[id] / unit + 1e-6).floor() as u32;
        }
    }

    // ---- candidate set: distinct MWU trees (heaviest first) plus greedily
    // peeled unit trees, deduplicated under representative-edge-id keys.
    // Keys are sorted by the edges' (GpuId, GpuId) pairs — not by raw id —
    // so candidate ordering (and hence tie-breaking) matches the reference
    // implementation's sorted pair lists even on hand-built graphs whose
    // edge insertion order disagrees with pair order; distinct
    // representatives always have distinct pairs, so the order is strict ----
    let pair_of = |id: u32| {
        let e = graph.edges()[id as usize];
        (graph.gpu(e.src), graph.gpu(e.dst))
    };
    scratch.seen.clear();
    scratch.cand_edges.clear();
    scratch.cand_off.clear();
    scratch.cand_off.push(0);
    scratch.cand_depth.clear();
    scratch.tree_order.clear();
    scratch.tree_order.extend(0..packing.trees.len() as u32);
    scratch.tree_order.sort_by(|&a, &b| {
        packing.trees[b as usize]
            .weight
            .partial_cmp(&packing.trees[a as usize].weight)
            .expect("finite weights")
    });
    for t in 0..scratch.tree_order.len() {
        let wt = &packing.trees[scratch.tree_order[t] as usize];
        scratch.key.clear();
        for &(p, c) in &wt.tree.edges {
            let (Some(u), Some(v)) = (graph.node(p), graph.node(c)) else {
                // candidate references a missing vertex — should not happen
                return packing.clone();
            };
            let Some(&rep) = scratch.rep_of_pair.get(&(u as u32, v as u32)) else {
                // candidate references a missing edge — should not happen
                return packing.clone();
            };
            scratch.key.push(rep);
        }
        scratch.key.sort_unstable_by_key(|&id| pair_of(id));
        record_candidate(
            graph,
            root_idx,
            &scratch.key,
            &mut scratch.seen,
            &mut scratch.cand_edges,
            &mut scratch.cand_off,
            &mut scratch.cand_depth,
            &mut scratch.depth_of,
        );
    }

    // greedy peel: reuse one residual/lengths pair across rounds
    scratch.residual.clear();
    scratch.residual.extend_from_slice(&scratch.unit_caps);
    scratch.lengths.clear();
    scratch.lengths.resize(m, 0.0);
    let mut peeled = 0usize;
    loop {
        if !residual_spans(
            graph,
            root_idx,
            &scratch.residual,
            &mut scratch.reach_seen,
            &mut scratch.reach_stack,
        ) {
            break;
        }
        for (l, &r) in scratch.lengths.iter_mut().zip(&scratch.residual) {
            // saturated edges keep an effectively infinite length; the spans
            // gate above guarantees the solver never has to cross one
            *l = if r == 0 { 1e9 } else { 1.0 / r as f64 };
        }
        let Some(edge_ids) =
            min_arborescence_in(graph, root_idx, &scratch.lengths, &mut scratch.arb)
        else {
            break;
        };
        debug_assert!(
            edge_ids.iter().all(|&e| scratch.residual[e] > 0),
            "spans gate admitted a saturated edge"
        );
        scratch.key.clear();
        for &e in edge_ids {
            scratch.residual[e] -= 1;
            scratch.key.push(scratch.rep_of[e]);
        }
        scratch.key.sort_unstable_by_key(|&id| pair_of(id));
        record_candidate(
            graph,
            root_idx,
            &scratch.key,
            &mut scratch.seen,
            &mut scratch.cand_edges,
            &mut scratch.cand_off,
            &mut scratch.cand_depth,
            &mut scratch.depth_of,
        );
        peeled += 1;
        if peeled > 64 {
            break; // safety valve; real topologies need at most a handful
        }
    }

    // ---- warm incumbent: record the old minimised selection's surviving
    // trees as candidates and remember their insertion indices ----
    let mut warm_insertion: Vec<u32> = Vec::new();
    if let Some(inc) = warm {
        if inc.root == packing.root {
            for wt in &inc.trees {
                if wt.weight <= 1e-12 {
                    continue;
                }
                scratch.key.clear();
                let mut mapped = true;
                for &(p, c) in &wt.tree.edges {
                    let rep = match (graph.node(p), graph.node(c)) {
                        (Some(u), Some(v)) => {
                            scratch.rep_of_pair.get(&(u as u32, v as u32)).copied()
                        }
                        _ => None,
                    };
                    match rep {
                        Some(r) => scratch.key.push(r),
                        None => {
                            mapped = false;
                            break;
                        }
                    }
                }
                // a surviving incumbent tree must still span the vertex set
                // (a grown job's old trees do not — they are skipped and the
                // MWU candidates take over)
                if !mapped || scratch.key.len() + 1 != graph.num_nodes() {
                    continue;
                }
                scratch.key.sort_unstable_by_key(|&id| pair_of(id));
                record_candidate(
                    graph,
                    root_idx,
                    &scratch.key,
                    &mut scratch.seen,
                    &mut scratch.cand_edges,
                    &mut scratch.cand_off,
                    &mut scratch.cand_depth,
                    &mut scratch.depth_of,
                );
                let idx = scratch.seen[scratch.key.as_slice()];
                if !warm_insertion.contains(&idx) {
                    warm_insertion.push(idx);
                }
            }
        }
    }

    // ---- sort candidates by (depth, GPU-pair key): shallower trees first so
    // the branch-and-bound prefers shorter forwarding pipelines, ties broken
    // exactly like the reference's sorted pair lists ----
    let k = scratch.cand_depth.len();
    scratch.order.clear();
    scratch.order.extend(0..k as u32);
    {
        let cand_edges = &scratch.cand_edges;
        let cand_off = &scratch.cand_off;
        let cand_depth = &scratch.cand_depth;
        scratch.order.sort_unstable_by(|&a, &b| {
            let ka = &cand_edges[cand_off[a as usize] as usize..cand_off[a as usize + 1] as usize];
            let kb = &cand_edges[cand_off[b as usize] as usize..cand_off[b as usize + 1] as usize];
            cand_depth[a as usize]
                .cmp(&cand_depth[b as usize])
                .then_with(|| {
                    ka.iter()
                        .map(|&id| pair_of(id))
                        .cmp(kb.iter().map(|&id| pair_of(id)))
                })
        });
    }
    scratch.sorted_edges.clear();
    scratch.sorted_off.clear();
    scratch.sorted_off.push(0);
    for i in 0..k {
        let c = scratch.order[i] as usize;
        let s = scratch.cand_off[c] as usize;
        let e = scratch.cand_off[c + 1] as usize;
        scratch
            .sorted_edges
            .extend_from_slice(&scratch.cand_edges[s..e]);
        scratch.sorted_off.push(scratch.sorted_edges.len() as u32);
    }

    // ---- translate the warm incumbent into sorted-candidate indices and
    // greedily truncate it to integer unit feasibility (a delta may have
    // shrunk a pair's pooled units below what the old selection used) ----
    {
        let MinimizeScratch {
            warm_best,
            residual,
            unit_caps,
            sorted_edges,
            sorted_off,
            order,
            ..
        } = &mut *scratch;
        warm_best.clear();
        if !warm_insertion.is_empty() {
            for (pos, &c) in order.iter().enumerate() {
                if warm_insertion.contains(&c) {
                    warm_best.push(pos as u32);
                }
            }
            residual.clear();
            residual.extend_from_slice(unit_caps);
            warm_best.retain(|&i| {
                let ids = &sorted_edges
                    [sorted_off[i as usize] as usize..sorted_off[i as usize + 1] as usize];
                if ids.iter().all(|&e| residual[e as usize] > 0) {
                    for &e in ids {
                        residual[e as usize] -= 1;
                    }
                    true
                } else {
                    false
                }
            });
        }
    }

    scratch.edge_dst.clear();
    scratch
        .edge_dst
        .extend(graph.edges().iter().map(|e| e.dst as u32));
    {
        let MinimizeScratch {
            sorted_edges,
            sorted_off,
            unit_caps,
            edge_dst,
            warm_best,
            bb_residual,
            in_units,
            blocking,
            chosen,
            best,
            stack,
            ..
        } = &mut *scratch;
        branch_and_bound_in(
            sorted_edges,
            sorted_off,
            unit_caps,
            edge_dst,
            root_idx,
            graph.num_nodes(),
            opts.max_bb_nodes,
            warm_best,
            bb_residual,
            in_units,
            blocking,
            chosen,
            best,
            stack,
        );
    }
    // split borrows: the candidate view stays shared while the relaxation
    // residual is mutated
    let MinimizeScratch {
        sorted_edges,
        sorted_off,
        best: selected,
        frac_residual,
        pair_cap,
        ..
    } = scratch;
    let cand = |i: u32| {
        &sorted_edges[sorted_off[i as usize] as usize..sorted_off[i as usize + 1] as usize]
    };
    let mut trees: Vec<WeightedTree> = selected
        .iter()
        .map(|&i| WeightedTree {
            tree: arborescence_from_ids(graph, root_idx, cand(i)),
            weight: unit,
        })
        .collect();
    let mut rate: f64 = trees.iter().map(|t| t.weight).sum();

    // Iterative relaxation: top up with fractional trees on the residual
    // capacity until we are within the threshold of the optimum.
    if rate < (1.0 - opts.threshold) * optimum {
        frac_residual.clear();
        frac_residual.extend_from_slice(pair_cap);
        for &i in selected.iter() {
            for &e in cand(i) {
                frac_residual[e as usize] -= unit;
            }
        }
        // fill greedily with the remaining candidates, largest feasible
        // fractional weight first
        let mut progress = true;
        while rate < (1.0 - opts.threshold) * optimum && progress {
            progress = false;
            for i in 0..k as u32 {
                let headroom = cand(i)
                    .iter()
                    .map(|&e| frac_residual[e as usize])
                    .fold(f64::INFINITY, f64::min);
                if headroom > 1e-6 {
                    let need = (1.0 - opts.threshold) * optimum - rate;
                    let w = headroom.min(need.max(0.0));
                    if w <= 1e-9 {
                        continue;
                    }
                    for &e in cand(i) {
                        frac_residual[e as usize] -= w;
                    }
                    trees.push(WeightedTree {
                        tree: arborescence_from_ids(graph, root_idx, cand(i)),
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
    // Never return something worse than what we started with.
    if minimized.rate() + 1e-9 < packing.rate().min((1.0 - opts.threshold) * optimum) {
        packing.clone()
    } else {
        minimized
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::{minimize_trees_naive, optimal_broadcast_rate_naive};
    use crate::maxflow::optimal_broadcast_rate;
    use crate::packing::{pack_spanning_trees, PackingOptions};
    use blink_topology::presets::{dgx1p, dgx1v, dgx2};
    use blink_topology::{GpuId, Topology};
    use proptest::prelude::*;

    fn nvlink_graph(topo: &Topology, alloc: &[GpuId]) -> DiGraph {
        let sub = topo.induced(alloc).unwrap();
        DiGraph::from_topology_filtered(&sub, |l| l.kind.is_nvlink())
    }

    #[test]
    fn dgx1v_8gpu_minimizes_to_six_unit_trees() {
        // The paper's headline example: 181 MWU trees reduce to 6 trees, each
        // carrying one NVLink lane (rate 1.0 in lane units).
        let topo = dgx1v();
        let alloc: Vec<GpuId> = (0..8).map(GpuId).collect();
        let g = nvlink_graph(&topo, &alloc);
        let opts = PackingOptions {
            epsilon: 0.08,
            ..Default::default()
        };
        let packing = pack_spanning_trees(&g, GpuId(0), &opts).unwrap();
        let minimized = minimize_trees(&g, &packing, &MinimizeOptions::default());
        assert!(minimized.is_feasible(&g));
        assert_eq!(minimized.num_trees(), 6, "rate={}", minimized.rate());
        assert!((minimized.rate() - 138.0).abs() < 1.0);
        // every tree carries exactly one lane unit
        for t in &minimized.trees {
            assert!((t.weight - 23.0).abs() < 1e-6);
        }
        // and the data split is even (166 MB per tree for a 1000 MB buffer)
        let split = minimized.split_bytes(1000 * 1024 * 1024);
        let expect = 1000.0 * 1024.0 * 1024.0 / 6.0;
        for bytes in split {
            assert!((bytes as f64 - expect).abs() < expect * 0.02);
        }
    }

    #[test]
    fn dgx1p_8gpu_minimizes_to_four_unit_trees() {
        let topo = dgx1p();
        let alloc: Vec<GpuId> = (0..8).map(GpuId).collect();
        let g = nvlink_graph(&topo, &alloc);
        let packing = pack_spanning_trees(
            &g,
            GpuId(0),
            &PackingOptions {
                epsilon: 0.08,
                ..Default::default()
            },
        )
        .unwrap();
        let minimized = minimize_trees(&g, &packing, &MinimizeOptions::default());
        assert!(minimized.is_feasible(&g));
        assert_eq!(minimized.num_trees(), 4);
        assert!((minimized.rate() - 76.0).abs() < 1.0);
    }

    #[test]
    fn minimization_never_reduces_achieved_rate_below_threshold() {
        let topo = dgx1v();
        let mut scratch = MinimizeScratch::new();
        for alloc in [
            vec![GpuId(0), GpuId(1), GpuId(3)],
            vec![GpuId(1), GpuId(4), GpuId(5), GpuId(6)],
            vec![GpuId(2), GpuId(3), GpuId(5), GpuId(6), GpuId(7)],
        ] {
            let g = nvlink_graph(&topo, &alloc);
            if !g.spans_from(g.node(alloc[0]).unwrap()) {
                continue;
            }
            let packing = pack_spanning_trees(
                &g,
                alloc[0],
                &PackingOptions {
                    epsilon: 0.08,
                    ..Default::default()
                },
            )
            .unwrap();
            let opt = crate::maxflow::optimal_broadcast_rate(&g, g.node(alloc[0]).unwrap());
            // exercise the scratch-reuse entry point across different graphs
            let minimized =
                minimize_trees_in(&g, &packing, &MinimizeOptions::default(), &mut scratch);
            assert!(minimized.is_feasible(&g));
            assert!(
                minimized.rate() >= 0.94 * opt,
                "alloc {alloc:?}: rate {} vs opt {opt}",
                minimized.rate()
            );
            assert!(minimized.num_trees() <= packing.num_trees().max(1));
        }
    }

    #[test]
    fn forwarded_certificate_is_bit_identical_to_recomputing() {
        // Threading the packing's certificate through `known_optimum` must not
        // change a single bit of the minimised packing: the forwarded value is
        // exactly what the embedded certificate would have recomputed.
        let mut scratch = MinimizeScratch::new();
        for (topo, alloc) in [
            (dgx1v(), vec![0usize, 1, 2, 3, 4, 5, 6, 7]),
            (dgx1v(), vec![0, 1, 3]),
            (dgx1p(), vec![0, 1, 3, 4, 5, 7]),
        ] {
            let ids: Vec<GpuId> = alloc.iter().map(|&i| GpuId(i)).collect();
            let g = nvlink_graph(&topo, &ids);
            let root = ids[0];
            let mut pack_scratch = crate::packing::PackingScratch::new();
            let (packing, stats) = crate::packing::pack_spanning_trees_in(
                &g,
                root,
                &PackingOptions::default(),
                &mut pack_scratch,
            )
            .unwrap();
            let recomputed = minimize_trees(&g, &packing, &MinimizeOptions::default());
            let forwarded = minimize_trees_in(
                &g,
                &packing,
                &MinimizeOptions {
                    known_optimum: Some(stats.certificate_gbps),
                    ..Default::default()
                },
                &mut scratch,
            );
            assert_eq!(recomputed.trees.len(), forwarded.trees.len());
            for (a, b) in recomputed.trees.iter().zip(&forwarded.trees) {
                assert_eq!(a.tree, b.tree);
                assert_eq!(a.weight.to_bits(), b.weight.to_bits());
            }
        }
    }

    #[test]
    fn warm_incumbent_is_bit_identical_on_unchanged_graph() {
        let topo = dgx1v();
        let alloc: Vec<GpuId> = (0..8).map(GpuId).collect();
        let g = nvlink_graph(&topo, &alloc);
        let packing = pack_spanning_trees(
            &g,
            GpuId(0),
            &PackingOptions {
                epsilon: 0.08,
                ..Default::default()
            },
        )
        .unwrap();
        let mut scratch = MinimizeScratch::new();
        let cold = minimize_trees_in(&g, &packing, &MinimizeOptions::default(), &mut scratch);
        let warm = minimize_trees_warm_in(
            &g,
            &packing,
            &MinimizeOptions::default(),
            &mut scratch,
            &cold,
        );
        assert_eq!(cold.trees.len(), warm.trees.len());
        for (a, b) in cold.trees.iter().zip(&warm.trees) {
            assert_eq!(a.tree, b.tree);
            assert_eq!(a.weight.to_bits(), b.weight.to_bits());
        }
    }

    #[test]
    fn warm_incumbent_with_dead_link_is_never_worse_than_cold() {
        let topo = dgx1v();
        let alloc: Vec<GpuId> = (0..8).map(GpuId).collect();
        let g = nvlink_graph(&topo, &alloc);
        let opts = PackingOptions {
            epsilon: 0.08,
            ..Default::default()
        };
        let stale = minimize_trees(
            &g,
            &pack_spanning_trees(&g, GpuId(0), &opts).unwrap(),
            &MinimizeOptions::default(),
        );
        // degrade: kill the 0↔1 NVLink pair, replan on the survivor graph
        let degraded = topo.filter_links(|l| {
            !(l.kind.is_nvlink()
                && ((l.src == GpuId(0) && l.dst == GpuId(1))
                    || (l.src == GpuId(1) && l.dst == GpuId(0))))
        });
        let g2 = nvlink_graph(&degraded, &alloc);
        let packing2 = pack_spanning_trees(&g2, GpuId(0), &opts).unwrap();
        let mut scratch = MinimizeScratch::new();
        let cold = minimize_trees_in(&g2, &packing2, &MinimizeOptions::default(), &mut scratch);
        let warm = minimize_trees_warm_in(
            &g2,
            &packing2,
            &MinimizeOptions::default(),
            &mut scratch,
            &stale,
        );
        assert!(warm.is_feasible(&g2));
        assert!(
            warm.rate() >= cold.rate() - 1e-9,
            "warm {} vs cold {}",
            warm.rate(),
            cold.rate()
        );
        // incumbent trees over the dead pair must not leak into the result
        for t in &warm.trees {
            assert!(!t.tree.edges.contains(&(GpuId(0), GpuId(1))));
            assert!(!t.tree.edges.contains(&(GpuId(1), GpuId(0))));
        }
    }

    #[test]
    fn minimizing_an_empty_packing_is_a_noop() {
        let topo = dgx1p();
        let g = nvlink_graph(&topo, &[GpuId(0)]);
        let packing = TreePacking::new(GpuId(0), Vec::new());
        let out = minimize_trees(&g, &packing, &MinimizeOptions::default());
        assert_eq!(out.num_trees(), 0);
    }

    #[test]
    fn hand_built_graph_tie_break_matches_reference() {
        // Edge insertion order deliberately disagrees with (GpuId, GpuId)
        // pair order: the candidate tie-break must still follow the
        // reference's sorted-pair-list ordering, not raw edge ids.
        let mut g = DiGraph::new();
        let a = g.add_node(GpuId(0));
        let b = g.add_node(GpuId(1));
        let c = g.add_node(GpuId(2));
        g.add_edge(a, c, 1.0); // id 0: pair (0, 2)
        g.add_edge(c, b, 1.0); // id 1: pair (2, 1)
        g.add_edge(a, b, 1.0); // id 2: pair (0, 1)
        g.add_edge(b, c, 1.0); // id 3: pair (1, 2)
        let tree_a = Arborescence::new(GpuId(0), vec![(GpuId(0), GpuId(1)), (GpuId(1), GpuId(2))]);
        let tree_b = Arborescence::new(GpuId(0), vec![(GpuId(0), GpuId(2)), (GpuId(2), GpuId(1))]);
        // feed the later-by-pair-order candidate first
        let packing = TreePacking::new(
            GpuId(0),
            vec![
                WeightedTree {
                    tree: tree_b,
                    weight: 1.0,
                },
                WeightedTree {
                    tree: tree_a.clone(),
                    weight: 1.0,
                },
            ],
        );
        let opts = MinimizeOptions {
            unit_gbps: Some(1.0),
            ..Default::default()
        };
        let fast = minimize_trees(&g, &packing, &opts);
        let naive = minimize_trees_naive(&g, &packing, &opts);
        assert_eq!(fast.trees.len(), naive.trees.len());
        for (x, y) in fast.trees.iter().zip(&naive.trees) {
            assert_eq!(x.tree, y.tree);
            assert_eq!(x.weight.to_bits(), y.weight.to_bits());
        }
        // both depth-2 trees tie; pair order puts {0->1, 1->2} first
        assert_eq!(fast.trees[0].tree, tree_a);
    }

    #[test]
    fn parallel_edges_pool_their_units() {
        // Two parallel 10 GB/s lanes between a pair: the pair pools 20 GB/s,
        // so with unit = 10 two unit trees fit over the single pair.
        let mut g = DiGraph::new();
        let a = g.add_node(GpuId(0));
        let b = g.add_node(GpuId(1));
        g.add_edge(a, b, 10.0);
        g.add_edge(a, b, 10.0);
        let packing = pack_spanning_trees(&g, GpuId(0), &PackingOptions::default()).unwrap();
        let minimized = minimize_trees(&g, &packing, &MinimizeOptions::default());
        assert!(minimized.is_feasible(&g));
        // the pooled 20 GB/s certificate is reachable to within the threshold
        assert!(
            minimized.rate() >= 0.95 * 20.0 - 1e-9,
            "rate {}",
            minimized.rate()
        );
    }

    /// A random subset of 2..=8 GPUs of an 8-GPU server, plus a root index.
    fn allocation_strategy() -> impl Strategy<Value = (Vec<usize>, usize)> {
        (proptest::collection::btree_set(0usize..8, 2..=8), 0usize..8).prop_map(|(set, seed)| {
            let alloc: Vec<usize> = set.into_iter().collect();
            let root = seed % alloc.len();
            (alloc, root)
        })
    }

    /// A random subset of 2..=16 GPUs of the 16-GPU DGX-2, plus a root index.
    fn dgx2_allocation_strategy() -> impl Strategy<Value = (Vec<usize>, usize)> {
        (
            proptest::collection::btree_set(0usize..16, 2..=16),
            0usize..16,
        )
            .prop_map(|(set, seed)| {
                let alloc: Vec<usize> = set.into_iter().collect();
                let root = seed % alloc.len();
                (alloc, root)
            })
    }

    fn induced_nvlink(machine: &Topology, ids: &[usize]) -> DiGraph {
        let alloc: Vec<GpuId> = ids.iter().map(|&i| GpuId(i)).collect();
        nvlink_graph(machine, &alloc)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The arena minimisation and certificate (through arbitrarily dirty
        /// reused scratches) are bit-identical to the convenience wrappers
        /// and to the frozen pre-optimisation oracles on DGX-1V/DGX-1P
        /// subgraphs.
        #[test]
        fn minimize_and_certificate_match_baselines_bitwise(
            (alloc, root_pos) in allocation_strategy(),
            v100 in any::<bool>(),
        ) {
            let machine = if v100 { dgx1v() } else { dgx1p() };
            let g = induced_nvlink(&machine, &alloc);
            let root = GpuId(alloc[root_pos]);
            let Some(root_idx) = g.node(root) else { return Ok(()); };
            // dirty both scratches on an unrelated graph first
            let mut mf_scratch = MaxFlowScratch::new();
            let mut min_scratch = MinimizeScratch::new();
            let other = DiGraph::from_topology_filtered(&dgx2(), |l| l.kind.is_nvlink());
            optimal_broadcast_rate_in(&other, 0, &mut mf_scratch);
            let cert_reused = optimal_broadcast_rate_in(&g, root_idx, &mut mf_scratch);
            let cert_fresh = optimal_broadcast_rate(&g, root_idx);
            let cert_naive = optimal_broadcast_rate_naive(&g, root_idx);
            prop_assert_eq!(cert_reused.to_bits(), cert_fresh.to_bits());
            prop_assert_eq!(cert_reused.to_bits(), cert_naive.to_bits());
            if !g.spans_from(root_idx) {
                return Ok(());
            }
            let packing = pack_spanning_trees(
                &g,
                root,
                &PackingOptions { epsilon: 0.08, ..Default::default() },
            ).unwrap();
            // Effectively unbounded branch-and-bound: bit-identity with the
            // frozen oracle is guaranteed only for searches that complete
            // (a truncated arena search may legitimately return a *larger*
            // selection than the truncated oracle).
            let opts = MinimizeOptions { max_bb_nodes: usize::MAX, ..Default::default() };
            let dirty_graph = DiGraph::from_topology_filtered(&dgx1p(), |l| l.kind.is_nvlink());
            let dirty_packing =
                pack_spanning_trees(&dirty_graph, GpuId(0), &PackingOptions::default()).unwrap();
            minimize_trees_in(&dirty_graph, &dirty_packing, &opts, &mut min_scratch);
            let reused = minimize_trees_in(&g, &packing, &opts, &mut min_scratch);
            let fresh = minimize_trees_in(&g, &packing, &opts, &mut MinimizeScratch::new());
            let naive = minimize_trees_naive(&g, &packing, &opts);
            for (a, b) in [(&reused, &fresh), (&reused, &naive)] {
                prop_assert_eq!(a.trees.len(), b.trees.len());
                for (x, y) in a.trees.iter().zip(&b.trees) {
                    prop_assert_eq!(&x.tree, &y.tree);
                    prop_assert_eq!(x.weight.to_bits(), y.weight.to_bits());
                }
            }
        }

        /// The same bitwise pinning on DGX-2 (16-GPU NVSwitch) induced
        /// subgraphs, which also exercises the Hao–Orlin side of the
        /// certificate (the cut enumeration only covers ≤ 10 vertices).
        #[test]
        fn minimize_and_certificate_match_baselines_bitwise_dgx2(
            (alloc, root_pos) in dgx2_allocation_strategy(),
        ) {
            let machine = dgx2();
            let g = induced_nvlink(&machine, &alloc);
            let root = GpuId(alloc[root_pos]);
            let Some(root_idx) = g.node(root) else { return Ok(()); };
            let mut mf_scratch = MaxFlowScratch::new();
            let mut min_scratch = MinimizeScratch::new();
            let other = DiGraph::from_topology_filtered(&dgx1p(), |l| l.kind.is_nvlink());
            optimal_broadcast_rate_in(&other, 0, &mut mf_scratch);
            let cert_reused = optimal_broadcast_rate_in(&g, root_idx, &mut mf_scratch);
            let cert_naive = optimal_broadcast_rate_naive(&g, root_idx);
            prop_assert_eq!(cert_reused.to_bits(), cert_naive.to_bits());
            if !g.spans_from(root_idx) {
                return Ok(());
            }
            let packing = pack_spanning_trees(
                &g,
                root,
                &PackingOptions { epsilon: 0.08, ..Default::default() },
            ).unwrap();
            // unbounded search: see minimize_and_certificate_match_baselines_bitwise
            let opts = MinimizeOptions { max_bb_nodes: usize::MAX, ..Default::default() };
            let reused = minimize_trees_in(&g, &packing, &opts, &mut min_scratch);
            let naive = minimize_trees_naive(&g, &packing, &opts);
            prop_assert_eq!(reused.trees.len(), naive.trees.len());
            for (x, y) in reused.trees.iter().zip(&naive.trees) {
                prop_assert_eq!(&x.tree, &y.tree);
                prop_assert_eq!(x.weight.to_bits(), y.weight.to_bits());
            }
        }
    }
}
