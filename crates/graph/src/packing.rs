//! Approximate fractional packing of spanning arborescences (Section 3.2).
//!
//! The problem: given the capacitated digraph induced by a job's GPU
//! allocation and a root vertex `r`, find weights `w_T ≥ 0` for spanning
//! arborescences `T` rooted at `r` maximising `Σ w_T` subject to
//! `Σ_{T ∋ e} w_T ≤ c_e` for every edge `e`. The optimum equals the
//! broadcast min-cut certificate computed in [`crate::maxflow`].
//!
//! We follow the multiplicative-weight-update / Garg–Könemann scheme the
//! paper references (Chekuri & Quanrud's near-linear fractional packing):
//! maintain a length `ℓ_e` per edge, repeatedly pick the *minimum-length*
//! arborescence (Chu–Liu/Edmonds), route the bottleneck capacity along it and
//! multiplicatively inflate the lengths of its edges. On termination the raw
//! weights are scaled down so the packing is feasible.
//!
//! The hot loop is engineered for speed (this is the synthesizer-latency
//! bottleneck PCCL identifies):
//!
//! * every MWU iteration runs the in-place contracting Chu–Liu/Edmonds
//!   solver ([`crate::arborescence::min_arborescence_in`]) over buffers owned
//!   by a [`PackingScratch`], so the steady state allocates nothing;
//! * accumulated trees are keyed by compact sorted-edge-id keys in a hash map
//!   (a `Box<[u32]>` per *distinct* tree, not a cloned `Vec<(GpuId, GpuId)>`
//!   per iteration), and edge lengths/usages/the dual are updated
//!   incrementally along the chosen tree only, in sorted-key order, so the
//!   trajectory depends on each tree's edge set and not on the order the
//!   solver lists it in;
//! * the loop consults the min-cut certificate from [`crate::maxflow`]
//!   once up front and exits as soon as the feasibility-scaled rate is within
//!   `(1 − ε)` of it — usually orders of magnitude before the classical dual
//!   stopping rule would fire.
//!
//! # Replanning
//!
//! Every packing starts cold: a replan after a topology delta packs the
//! surviving graph from scratch, so a packing depends on the graph, the root
//! and the options only, never on a plan that came before it.

use crate::arborescence::{min_arborescence_in, Arborescence, ArborescenceScratch};
use crate::digraph::DiGraph;
use crate::maxflow::{optimal_broadcast_rate_in, MaxFlowScratch};
use blink_topology::GpuId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Options controlling the MWU packing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PackingOptions {
    /// Approximation parameter ε: smaller means closer to optimal but more
    /// iterations (`O(m ln m / ε²)`).
    pub epsilon: f64,
    /// Hard cap on MWU iterations (a safety valve; the Garg–Könemann stopping
    /// rule normally fires first).
    pub max_iterations: usize,
}

impl Default for PackingOptions {
    fn default() -> Self {
        PackingOptions {
            epsilon: 0.05,
            max_iterations: 200_000,
        }
    }
}

/// Errors from [`pack_spanning_trees`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PackingError {
    /// The graph has no vertices.
    EmptyGraph,
    /// The requested root is not a vertex of the graph.
    UnknownRoot(GpuId),
    /// Some vertex cannot be reached from the root, so no spanning
    /// arborescence exists (the caller should fall back to another link class,
    /// e.g. PCIe).
    Unreachable,
    /// The graph has more vertices than the exact lane packer handles
    /// ([`crate::lanes::LANE_MAX_NODES`]).
    TooLarge(usize),
}

impl fmt::Display for PackingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackingError::EmptyGraph => write!(f, "graph has no vertices"),
            PackingError::UnknownRoot(g) => write!(f, "root {g} is not in the graph"),
            PackingError::TooLarge(n) => write!(
                f,
                "{n} vertices; the lane packer handles at most {}",
                crate::lanes::LANE_MAX_NODES
            ),
            PackingError::Unreachable => {
                write!(
                    f,
                    "some vertex is unreachable from the root; no spanning tree exists"
                )
            }
        }
    }
}

impl std::error::Error for PackingError {}

/// A spanning arborescence together with the rate (GB/s) assigned to it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WeightedTree {
    /// The tree.
    pub tree: Arborescence,
    /// Rate in GB/s: the share of the collective's data transferred over this
    /// tree per unit time.
    pub weight: f64,
}

/// The result of packing spanning arborescences rooted at `root`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TreePacking {
    /// The root vertex every tree originates from.
    pub root: GpuId,
    /// The packed trees and their weights.
    pub trees: Vec<WeightedTree>,
}

impl TreePacking {
    /// Creates a packing from parts.
    pub fn new(root: GpuId, trees: Vec<WeightedTree>) -> Self {
        TreePacking { root, trees }
    }

    /// Total packing rate `Σ w_T` in GB/s — the achievable broadcast rate.
    pub fn rate(&self) -> f64 {
        self.trees.iter().map(|t| t.weight).sum()
    }

    /// Number of trees with a strictly positive weight.
    pub fn num_trees(&self) -> usize {
        self.trees.iter().filter(|t| t.weight > 1e-12).count()
    }

    /// Aggregate weight crossing each directed edge.
    pub fn edge_usage(&self) -> BTreeMap<(GpuId, GpuId), f64> {
        let mut usage = BTreeMap::new();
        for wt in &self.trees {
            for &(p, c) in &wt.tree.edges {
                *usage.entry((p, c)).or_insert(0.0) += wt.weight;
            }
        }
        usage
    }

    /// Maximum over-subscription factor of any node pair:
    /// `max_(p, c) usage_(p, c) / capacity_between(p, c)`. A feasible packing
    /// has a factor ≤ 1 (+ numerical slack). Parallel edges between the same
    /// pair pool their capacity, matching [`DiGraph::capacity_between`] and
    /// [`crate::optimal_broadcast_rate`].
    pub fn max_overuse(&self, graph: &DiGraph) -> f64 {
        let mut worst = 0.0f64;
        for ((p, c), usage) in self.edge_usage() {
            let cap = match (graph.node(p), graph.node(c)) {
                (Some(u), Some(v)) => graph.capacity_between(u, v),
                _ => 0.0,
            };
            if cap <= 0.0 {
                return f64::INFINITY;
            }
            worst = worst.max(usage / cap);
        }
        worst
    }

    /// Whether no edge is over-subscribed (within a small numerical slack).
    pub fn is_feasible(&self, graph: &DiGraph) -> bool {
        self.max_overuse(graph) <= 1.0 + 1e-6
    }

    /// Returns a copy scaled so that the packing is exactly feasible.
    pub fn scaled_to_feasible(&self, graph: &DiGraph) -> TreePacking {
        let overuse = self.max_overuse(graph);
        let scale = if overuse > 1.0 && overuse.is_finite() {
            1.0 / overuse
        } else {
            1.0
        };
        TreePacking {
            root: self.root,
            trees: self
                .trees
                .iter()
                .map(|t| WeightedTree {
                    tree: t.tree.clone(),
                    weight: t.weight * scale,
                })
                .collect(),
        }
    }

    /// Drops trees whose weight is negligible (below `min_weight` GB/s) and
    /// renormalises nothing — the remaining rate simply shrinks by the dropped
    /// amount (which is bounded by `min_weight * num_trees`).
    pub fn pruned(&self, min_weight: f64) -> TreePacking {
        TreePacking {
            root: self.root,
            trees: self
                .trees
                .iter()
                .filter(|t| t.weight >= min_weight)
                .cloned()
                .collect(),
        }
    }

    /// Splits `total_bytes` across the trees proportionally to their weights.
    /// The returned vector is parallel to `trees` and sums to `total_bytes`.
    pub fn split_bytes(&self, total_bytes: u64) -> Vec<u64> {
        let rate = self.rate();
        if rate <= 0.0 || self.trees.is_empty() {
            return vec![0; self.trees.len()];
        }
        let mut out: Vec<u64> = self
            .trees
            .iter()
            .map(|t| ((t.weight / rate) * total_bytes as f64).floor() as u64)
            .collect();
        let assigned: u64 = out.iter().sum();
        // give any rounding remainder to the heaviest tree
        if let Some(idx) = (0..self.trees.len()).max_by(|&a, &b| {
            self.trees[a]
                .weight
                .partial_cmp(&self.trees[b].weight)
                .expect("weights are finite")
        }) {
            out[idx] += total_bytes - assigned;
        }
        out
    }
}

/// How a packing run terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PackingTermination {
    /// The feasibility-scaled rate reached `(1 − ε)` of the min-cut
    /// certificate — the normal, fast exit.
    Certificate,
    /// The classical Garg–Könemann dual threshold (`Σ ℓ_e c_e ≥ 1`) fired
    /// before the certificate target was reached — the theoretical
    /// `O(m ln m / ε²)` safety net for graphs where MWU plateaus just below
    /// `(1 − ε)` of optimal. The packing is feasible but its rate carries the
    /// weaker classical guarantee.
    DualThreshold,
    /// [`PackingOptions::max_iterations`] fired first. The returned packing is
    /// still feasible (scaled down) but may be further from the certificate
    /// than ε allows; callers should log this.
    IterationCap,
    /// The graph was too small for any packing to exist (a single vertex), so
    /// the MWU loop never ran.
    Trivial,
    /// No MWU ran: the packing is exact, written down in closed form or built
    /// by the lane packer ([`crate::lanes`]), and its rate is the
    /// certificate.
    Exact,
}

/// Diagnostics from one MWU packing run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PackingStats {
    /// Number of MWU iterations (min-arborescence solves) executed.
    pub iterations: usize,
    /// Number of distinct trees the run accumulated.
    pub distinct_trees: usize,
    /// `true` when the run stopped because it hit
    /// [`PackingOptions::max_iterations`] rather than converging — the
    /// returned packing is a scaled-feasible *partial* packing in that case.
    pub hit_iteration_cap: bool,
    /// How the run terminated.
    pub termination: PackingTermination,
    /// The Edmonds/Lovász min-cut certificate (GB/s) the run converged
    /// against; `0.0` for the trivial single-vertex case. Parallel edges pool
    /// their capacity in the certificate exactly as they do in
    /// [`TreePacking::max_overuse`], so no special-casing is needed.
    pub certificate_gbps: f64,
}

impl PackingStats {
    /// Stats for a degenerate packing (single vertex or an empty tree set):
    /// zero iterations, no trees, no certificate.
    pub fn trivial() -> Self {
        PackingStats {
            iterations: 0,
            distinct_trees: 0,
            hit_iteration_cap: false,
            termination: PackingTermination::Trivial,
            certificate_gbps: 0.0,
        }
    }
}

/// Reusable buffers for [`pack_spanning_trees_in`]: the arborescence-solver
/// arena, the per-edge length/capacity/usage vectors and the distinct-tree
/// accumulator.
///
/// One scratch serves any number of packings over any graphs — buffers grow to
/// the high-water mark and stay allocated, so repeated TreeGen invocations
/// (per-root, per-link-class, the hybrid planner, repeated collectives) share
/// a single set of allocations.
#[derive(Debug, Clone, Default)]
pub struct PackingScratch {
    arb: ArborescenceScratch,
    maxflow: MaxFlowScratch,
    lengths: Vec<f64>,
    caps: Vec<f64>,
    /// Edge id → capacity-group index. [`TreePacking::max_overuse`] judges
    /// feasibility per `(src, dst)` GPU pair against the pair's **summed**
    /// capacity, so the in-loop feasibility estimate aggregates usage the same
    /// way. Groups collapse to one-per-edge on the merged graphs
    /// `DiGraph::from_topology*` builds.
    edge_group: Vec<u32>,
    group_cap: Vec<f64>,
    group_usage: Vec<f64>,
    group_of_pair: HashMap<(u32, u32), u32>,
    key: Vec<u32>,
    acc: HashMap<Box<[u32]>, f64>,
}

impl PackingScratch {
    /// Creates an empty scratch. Buffers are sized lazily on first packing.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Packs spanning arborescences rooted at `root` into `graph` using the MWU
/// approximation, returning a feasible packing whose rate is close to the
/// Edmonds/Lovász optimum.
///
/// # Complexity and allocation
/// Each iteration solves one minimum arborescence (`O(n·m)` on these tiny
/// graphs) and performs `O(tree)` incremental length/usage updates; the loop
/// runs until the feasibility-scaled rate is within `(1 − ε)` of the min-cut
/// certificate (typically a handful of iterations on the DGX presets) with
/// `opts.max_iterations` as the safety valve, far below the classical
/// `O(m ln m / ε²)` dual-termination bound. This wrapper allocates one fresh
/// [`PackingScratch`]; hot callers should hold a scratch and use
/// [`pack_spanning_trees_in`], which allocates only when a new distinct tree
/// is first seen (one compact `Box<[u32]>` edge-id key per tree).
///
/// # Errors
/// * [`PackingError::EmptyGraph`] for a vertex-less graph.
/// * [`PackingError::UnknownRoot`] if `root` is not a vertex.
/// * [`PackingError::Unreachable`] if no spanning arborescence exists.
pub fn pack_spanning_trees(
    graph: &DiGraph,
    root: GpuId,
    opts: &PackingOptions,
) -> Result<TreePacking, PackingError> {
    let mut scratch = PackingScratch::new();
    pack_spanning_trees_in(graph, root, opts, &mut scratch).map(|(packing, _)| packing)
}

/// [`pack_spanning_trees`] over caller-owned scratch buffers — the
/// zero-allocation fast path — additionally returning [`PackingStats`]
/// (iterations, termination reason, and whether the iteration cap truncated
/// the run).
///
/// # Errors
/// Same as [`pack_spanning_trees`].
pub fn pack_spanning_trees_in(
    graph: &DiGraph,
    root: GpuId,
    opts: &PackingOptions,
    scratch: &mut PackingScratch,
) -> Result<(TreePacking, PackingStats), PackingError> {
    if graph.num_nodes() == 0 {
        return Err(PackingError::EmptyGraph);
    }
    let root_idx = graph.node(root).ok_or(PackingError::UnknownRoot(root))?;
    if graph.num_nodes() == 1 {
        return Ok((TreePacking::new(root, Vec::new()), PackingStats::trivial()));
    }
    if !graph.spans_from(root_idx) {
        return Err(PackingError::Unreachable);
    }
    let m = graph.num_edges();
    let eps = opts.epsilon.clamp(1e-3, 0.5);
    // The certificate the packed rate must approach (Edmonds/Lovász). On
    // these graphs it costs microseconds and lets the loop stop thousands of
    // iterations before the Garg–Könemann dual rule would.
    scratch.caps.clear();
    scratch
        .caps
        .extend(graph.edges().iter().map(|e| e.capacity));
    // Garg–Könemann initialisation. The trajectory is invariant under scaling
    // all lengths, so guard against δ underflowing to zero for very small ε.
    let delta = (1.0 + eps) * ((1.0 + eps) * m as f64).powf(-1.0 / eps);
    // The Garg-Konemann dual rule only makes sense with the canonical delta;
    // for tiny eps the delta underflows, the trajectory falls back to unit
    // scale (selection is scale-invariant) and the dual exit is disabled.
    let dual_active = delta > f64::MIN_POSITIVE;
    let delta = if dual_active { delta } else { 1.0 };
    let mut dual = delta * m as f64; // sum of lengths[e] * caps[e]
    scratch.lengths.clear();
    scratch
        .lengths
        .extend(scratch.caps.iter().map(|c| delta / c));
    scratch.edge_group.clear();
    scratch.group_cap.clear();
    scratch.group_of_pair.clear();
    for e in graph.edges() {
        let pair = (e.src as u32, e.dst as u32);
        let next = scratch.group_cap.len() as u32;
        let g = *scratch.group_of_pair.entry(pair).or_insert(next);
        if g == next {
            scratch.group_cap.push(e.capacity);
        } else {
            // parallel edges pool their capacity, mirroring
            // TreePacking::max_overuse / DiGraph::capacity_between / the certificate
            scratch.group_cap[g as usize] += e.capacity;
        }
        scratch.edge_group.push(g);
    }
    scratch.group_usage.clear();
    scratch.group_usage.resize(scratch.group_cap.len(), 0.0);
    scratch.acc.clear();
    // The certificate sums parallel edges exactly like max_overuse does, so the
    // certificate can be computed on the graph as-is — no pair-merged rebuild.
    let certificate = optimal_broadcast_rate_in(graph, root_idx, &mut scratch.maxflow);
    let target = (1.0 - eps) * certificate;

    let mut total_raw = 0.0f64;
    let mut max_overuse = 0.0f64;
    let mut iterations = 0usize;
    let mut termination = PackingTermination::IterationCap;
    while termination == PackingTermination::IterationCap && iterations < opts.max_iterations {
        iterations += 1;
        let tree = min_arborescence_in(graph, root_idx, &scratch.lengths, &mut scratch.arb)
            .expect("spanning arborescence exists: graph spans from root");
        let bottleneck = tree
            .iter()
            .map(|&e| scratch.caps[e])
            .fold(f64::INFINITY, f64::min);
        // Accumulate and route under a compact sorted-edge-id key; the boxed
        // key is only allocated the first time a distinct tree appears.
        // Walking the sorted key makes the dual's floating-point sum depend
        // on the tree's edge set only, not on the order the solver listed
        // it in. The running worst over-subscription factor gives the
        // feasibility-scaled rate for free.
        scratch.key.clear();
        scratch.key.extend(tree.iter().map(|&e| e as u32));
        scratch.key.sort_unstable();
        if let Some(w) = scratch.acc.get_mut(scratch.key.as_slice()) {
            *w += bottleneck;
        } else {
            scratch
                .acc
                .insert(scratch.key.as_slice().into(), bottleneck);
        }
        total_raw += bottleneck;
        for &e in &scratch.key {
            let e = e as usize;
            let g = scratch.edge_group[e] as usize;
            scratch.group_usage[g] += bottleneck;
            let overuse = scratch.group_usage[g] / scratch.group_cap[g];
            if overuse > max_overuse {
                max_overuse = overuse;
            }
            let old_len = scratch.lengths[e];
            scratch.lengths[e] = old_len * (1.0 + eps * bottleneck / scratch.caps[e]);
            dual += (scratch.lengths[e] - old_len) * scratch.caps[e];
        }
        if certificate.is_finite() && total_raw / max_overuse.max(1.0) >= target {
            termination = PackingTermination::Certificate;
            break;
        }
        // Safety net: the classical dual stopping rule bounds the worst case
        // at O(m ln m / eps^2) iterations even if the certificate target is
        // never quite reached (MWU only guarantees 1 - O(eps) of optimal).
        if dual_active && dual >= 1.0 {
            termination = PackingTermination::DualThreshold;
            break;
        }
    }

    // Drain the accumulator in deterministic (sorted-key) order so results do
    // not depend on the hash map's iteration order.
    let mut entries: Vec<(Box<[u32]>, f64)> = scratch.acc.drain().collect();
    entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    let trees: Vec<WeightedTree> = entries
        .into_iter()
        .map(|(key, weight)| {
            let edges = key
                .iter()
                .map(|&e| {
                    let edge = graph.edges()[e as usize];
                    (graph.gpu(edge.src), graph.gpu(edge.dst))
                })
                .collect();
            WeightedTree {
                tree: Arborescence::new(root, edges),
                weight,
            }
        })
        .collect();
    let stats = PackingStats {
        iterations,
        distinct_trees: trees.len(),
        hit_iteration_cap: termination == PackingTermination::IterationCap,
        termination,
        certificate_gbps: certificate,
    };
    let packing = TreePacking::new(root, trees).scaled_to_feasible(graph);
    Ok((packing, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use blink_topology::presets::{dgx1p, dgx1v};
    use blink_topology::Topology;

    fn pack_nvlink(topo: &Topology, alloc: &[GpuId], root: GpuId) -> (TreePacking, f64, DiGraph) {
        let sub = topo.induced(alloc).unwrap();
        let g = DiGraph::from_topology_filtered(&sub, |l| l.kind.is_nvlink());
        let opts = PackingOptions {
            epsilon: 0.08,
            ..Default::default()
        };
        let (packing, stats) =
            pack_spanning_trees_in(&g, root, &opts, &mut PackingScratch::new()).unwrap();
        (packing, stats.certificate_gbps, g)
    }

    #[test]
    fn packing_is_feasible_and_near_optimal_on_full_dgx1v() {
        let topo = dgx1v();
        let alloc: Vec<GpuId> = (0..8).map(GpuId).collect();
        let (packing, opt, g) = pack_nvlink(&topo, &alloc, GpuId(0));
        assert!(packing.is_feasible(&g));
        assert!((opt - 138.0).abs() < 1e-6);
        assert!(
            packing.rate() >= 0.88 * opt,
            "rate {} should be close to optimum {}",
            packing.rate(),
            opt
        );
        // every tree spans all 8 GPUs
        for wt in &packing.trees {
            assert!(wt.tree.is_valid_over(&alloc));
        }
    }

    #[test]
    fn packing_is_feasible_and_near_optimal_on_full_dgx1p() {
        let topo = dgx1p();
        let alloc: Vec<GpuId> = (0..8).map(GpuId).collect();
        let (packing, opt, g) = pack_nvlink(&topo, &alloc, GpuId(0));
        assert!(packing.is_feasible(&g));
        assert!((opt - 76.0).abs() < 1e-6);
        assert!(packing.rate() >= 0.88 * opt);
    }

    #[test]
    fn six_gpu_figure4_configuration_beats_two_rings() {
        // Figure 4: GPUs {0,1,3,4,5,7} on a DGX-1P. NCCL can only build one
        // undirected ring (2 directed rings = 2 lanes of broadcast rate);
        // Blink packs 3 spanning trees.
        let topo = dgx1p();
        let alloc = [GpuId(0), GpuId(1), GpuId(3), GpuId(4), GpuId(5), GpuId(7)];
        let (packing, opt, g) = pack_nvlink(&topo, &alloc, GpuId(0));
        assert!((opt - 3.0 * 19.0).abs() < 1e-6, "opt = {opt}");
        assert!(packing.is_feasible(&g));
        assert!(packing.rate() >= 0.88 * opt);
    }

    #[test]
    fn partially_connected_triple_packs_one_lane() {
        let topo = dgx1p();
        let alloc = [GpuId(0), GpuId(1), GpuId(4)];
        let (packing, opt, g) = pack_nvlink(&topo, &alloc, GpuId(0));
        assert!((opt - 19.0).abs() < 1e-6);
        assert!(packing.rate() >= 0.9 * opt);
        assert!(packing.is_feasible(&g));
        // only one distinct tree exists
        assert_eq!(packing.num_trees(), 1);
    }

    #[test]
    fn unreachable_allocation_is_rejected() {
        // NVLink-only graph over GPUs 1 and 4 has no edges (Figure 1).
        let topo = dgx1p();
        let sub = topo.induced(&[GpuId(1), GpuId(4)]).unwrap();
        let g = DiGraph::from_topology_filtered(&sub, |l| l.kind.is_nvlink());
        let err = pack_spanning_trees(&g, GpuId(1), &PackingOptions::default()).unwrap_err();
        assert_eq!(err, PackingError::Unreachable);
    }

    #[test]
    fn unknown_root_and_empty_graph_errors() {
        let g = DiGraph::new();
        assert_eq!(
            pack_spanning_trees(&g, GpuId(0), &PackingOptions::default()).unwrap_err(),
            PackingError::EmptyGraph
        );
        let topo = dgx1p();
        let sub = topo.induced(&[GpuId(0), GpuId(1)]).unwrap();
        let g = DiGraph::from_topology_filtered(&sub, |l| l.kind.is_nvlink());
        assert_eq!(
            pack_spanning_trees(&g, GpuId(7), &PackingOptions::default()).unwrap_err(),
            PackingError::UnknownRoot(GpuId(7))
        );
    }

    #[test]
    fn hitting_the_iteration_cap_is_reported_and_still_feasible() {
        let topo = dgx1v();
        let sub = topo
            .induced(&(0..8).map(GpuId).collect::<Vec<_>>())
            .unwrap();
        let g = DiGraph::from_topology_filtered(&sub, |l| l.kind.is_nvlink());
        let opts = PackingOptions {
            epsilon: 0.05,
            max_iterations: 3,
        };
        let mut scratch = PackingScratch::new();
        let (packing, stats) = pack_spanning_trees_in(&g, GpuId(0), &opts, &mut scratch).unwrap();
        assert!(stats.hit_iteration_cap);
        assert_eq!(stats.termination, PackingTermination::IterationCap);
        assert_eq!(stats.iterations, 3);
        // the partial packing is scaled to feasibility, not silently broken
        assert!(packing.is_feasible(&g));
        assert!(packing.rate() > 0.0);
        assert!(packing.rate() < stats.certificate_gbps);
    }

    #[test]
    fn converged_runs_terminate_on_the_certificate_with_stats() {
        let topo = dgx1v();
        let g = DiGraph::from_topology_filtered(&topo, |l| l.kind.is_nvlink());
        let opts = PackingOptions::default();
        let mut scratch = PackingScratch::new();
        let (packing, stats) = pack_spanning_trees_in(&g, GpuId(0), &opts, &mut scratch).unwrap();
        assert_eq!(stats.termination, PackingTermination::Certificate);
        assert!(!stats.hit_iteration_cap);
        assert!((stats.certificate_gbps - 138.0).abs() < 1e-6);
        assert_eq!(stats.distinct_trees, packing.trees.len());
        assert!(stats.iterations >= stats.distinct_trees);
        // the early exit guarantees the (1 − ε) bound
        assert!(packing.rate() >= (1.0 - opts.epsilon) * stats.certificate_gbps - 1e-9);
    }

    #[test]
    fn scratch_reuse_matches_fresh_allocation_bitwise() {
        let topo = dgx1p();
        let mut scratch = PackingScratch::new();
        let opts = PackingOptions::default();
        for alloc in [
            vec![0usize, 1, 2, 3, 4, 5, 6, 7],
            vec![0, 1, 3, 4, 5, 7],
            vec![0, 1, 4],
            vec![2, 3, 6, 7],
        ] {
            let ids: Vec<GpuId> = alloc.iter().map(|&i| GpuId(i)).collect();
            let sub = topo.induced(&ids).unwrap();
            let g = DiGraph::from_topology_filtered(&sub, |l| l.kind.is_nvlink());
            let root = ids[0];
            if g.node(root).map(|r| !g.spans_from(r)).unwrap_or(true) {
                continue;
            }
            let (reused, reused_stats) =
                pack_spanning_trees_in(&g, root, &opts, &mut scratch).unwrap();
            let (fresh, fresh_stats) =
                pack_spanning_trees_in(&g, root, &opts, &mut PackingScratch::new()).unwrap();
            assert_eq!(reused_stats, fresh_stats);
            assert_eq!(reused.trees.len(), fresh.trees.len());
            for (a, b) in reused.trees.iter().zip(&fresh.trees) {
                assert_eq!(a.tree, b.tree);
                assert_eq!(a.weight.to_bits(), b.weight.to_bits());
            }
        }
    }

    #[test]
    fn parallel_edges_pool_capacity_in_the_certificate_exit() {
        // DiGraph::add_edge permits parallel edges (only from_topology* merges
        // them); capacity_between, the certificate and max_overuse all treat a pair's
        // parallel edges as pooled capacity, so the certificate must be their
        // sum and the early exit must still honour its (1 − ε) bound.
        let mut g = DiGraph::new();
        let a = g.add_node(GpuId(0));
        let b = g.add_node(GpuId(1));
        g.add_edge(a, b, 10.0);
        g.add_edge(a, b, 10.0); // parallel lane, same pair
        let opts = PackingOptions {
            epsilon: 0.05,
            max_iterations: 500,
        };
        let mut scratch = PackingScratch::new();
        let (packing, stats) = pack_spanning_trees_in(&g, GpuId(0), &opts, &mut scratch).unwrap();
        assert!(packing.is_feasible(&g));
        // both lanes count: the certificate is the pooled 20 GB/s
        assert_eq!(stats.termination, PackingTermination::Certificate);
        assert!((stats.certificate_gbps - 20.0).abs() < 1e-9);
        assert!(
            packing.rate() >= (1.0 - opts.epsilon) * stats.certificate_gbps - 1e-9,
            "Certificate termination must honour the bound: rate {} vs cert {}",
            packing.rate(),
            stats.certificate_gbps
        );
    }

    #[test]
    fn single_gpu_packs_trivially() {
        let topo = dgx1p();
        let sub = topo.induced(&[GpuId(2)]).unwrap();
        let g = DiGraph::from_topology(&sub);
        let packing = pack_spanning_trees(&g, GpuId(2), &PackingOptions::default()).unwrap();
        assert_eq!(packing.num_trees(), 0);
        assert_eq!(packing.rate(), 0.0);
    }

    #[test]
    fn split_bytes_conserves_total() {
        let topo = dgx1v();
        let alloc: Vec<GpuId> = (0..8).map(GpuId).collect();
        let (packing, _, _) = pack_nvlink(&topo, &alloc, GpuId(0));
        let total = 500 * 1024 * 1024u64;
        let split = packing.split_bytes(total);
        assert_eq!(split.iter().sum::<u64>(), total);
        assert_eq!(split.len(), packing.trees.len());
    }

    #[test]
    fn pruning_drops_only_tiny_trees() {
        let topo = dgx1v();
        let alloc: Vec<GpuId> = (0..8).map(GpuId).collect();
        let (packing, _, _) = pack_nvlink(&topo, &alloc, GpuId(0));
        let pruned = packing.pruned(0.5);
        assert!(pruned.num_trees() <= packing.num_trees());
        assert!(pruned.rate() <= packing.rate() + 1e-9);
        assert!(pruned.trees.iter().all(|t| t.weight >= 0.5));
    }
}
