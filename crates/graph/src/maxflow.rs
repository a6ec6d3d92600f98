//! The optimal broadcast-rate certificate.
//!
//! Edmonds' branching theorem (and Lovász's fractional extension) says the
//! maximum total weight of spanning arborescences rooted at `r` that can be
//! packed into a capacitated digraph equals the minimum, over all other
//! vertices `v`, of the max-flow value from `r` to `v`. Blink uses this as the
//! target rate that the MWU packing must reach; we use it both as a test
//! oracle and to drive the tree-minimisation threshold.
//!
//! The certificate sits on every plan build and every plan-cache miss, so it
//! is engineered like the packing loop: a [`MaxFlowScratch`] holds every
//! buffer either path needs and is reused across calls.
//!
//! [`optimal_broadcast_rate_in`] picks between two paths by vertex count:
//!
//! 1. **Gray-code rooted-cut enumeration** (≤ [`CUT_ENUMERATION_MAX_NODES`]
//!    vertices — every single-server allocation Blink plans over). By
//!    max-flow/min-cut the certificate equals the minimum rooted cut, which a
//!    Gray-code subset walk enumerates exactly in `O(2^(n−1) · n)`
//!    straight-line updates, never running a flow.
//! 2. **Hao–Orlin all-sinks min-cut** (larger graphs — multi-server slices
//!    and NVSwitch fabrics). One preflow-push pass with a rotating sink over
//!    a flat CSR residual graph computes `min over v of mincut(root → v)`
//!    directly ([`broadcast_rate_all_sinks_in`]), replacing `n − 1`
//!    independent flows.
//!
//! Both paths agree bit-identically in rate with the per-sink max-flow
//! minimum on the DGX conformance graphs (their capacities are exactly
//! representable, so every cut value is an exact f64 sum); the unit tests
//! below pin both against the test-only Dinic oracle in `crate::baseline`.

use crate::digraph::{DiGraph, NodeIdx};

/// Reusable buffers for [`optimal_broadcast_rate_in`]: the pair-pooled
/// capacity matrices of the Gray-code cut enumeration, and the flat CSR
/// residual graph (forward + reverse arcs) plus preflow state of the
/// Hao–Orlin pass.
///
/// One scratch serves any number of certificates over graphs of any size —
/// buffers grow to the high-water mark and stay allocated, so repeated
/// certificate computations (TreeGen plans, packing early-exit targets,
/// minimisation thresholds) share a single set of allocations. Scratch
/// contents never affect results: a reused scratch produces certificates
/// bit-identical to a fresh one (see the regression tests below).
#[derive(Debug, Clone, Default)]
pub struct MaxFlowScratch {
    /// CSR offsets: arcs of node `v` live in `start[v]..start[v + 1]`.
    start: Vec<u32>,
    /// Next free slot per node while filling the CSR (build-time only).
    fill: Vec<u32>,
    /// Head of each arc.
    to: Vec<u32>,
    /// Absolute index of the paired reverse arc.
    rev: Vec<u32>,
    /// Residual capacity of each arc (mutated by the preflow).
    cap: Vec<f64>,
    /// Current-arc pointer per node.
    iter: Vec<u32>,
    n: usize,
    /// Pair-pooled capacity matrix (`n × n`, row-major) for the subset-cut
    /// certificate on small graphs.
    cut_cap: Vec<f64>,
    /// Total out-capacity per vertex (row sums of `cut_cap`).
    cut_row: Vec<f64>,
    /// Symmetrised matrix `cap(u → w) + cap(w → u)`: flipping `u` in or out
    /// of `S` changes the cut by `±(row[u] − Σ_{x ∈ S} sym[u][x])`, so one
    /// array — not separate in/out sums — carries the whole walk.
    cut_sym: Vec<f64>,
    /// `Σ_{x ∈ S} sym[w][x]` per vertex `w`, maintained incrementally.
    cut_symsum: Vec<f64>,
    in_set: Vec<bool>,
    /// Hao–Orlin: per-node preflow excess.
    ho_excess: Vec<f64>,
    /// Hao–Orlin: per-node distance labels.
    ho_dist: Vec<u32>,
    /// Hao–Orlin: number of *awake* nodes per distance label.
    ho_count: Vec<u32>,
    /// Hao–Orlin: node state — `HO_IN_S` (contracted into the source set),
    /// `HO_AWAKE`, or the index of the dormant set holding the node.
    ho_state: Vec<i32>,
    /// Hao–Orlin: stack of active (awake, excess > 0, non-sink) nodes.
    ho_active: Vec<u32>,
}

/// Node state markers for the Hao–Orlin pass (values ≥ 0 are dormant-set
/// indices).
const HO_IN_S: i32 = -2;
const HO_AWAKE: i32 = -1;

impl MaxFlowScratch {
    /// Creates an empty scratch. Buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// (Re)builds the CSR residual graph for `graph`: arcs of a node appear
    /// in graph-edge iteration order, forward and reverse interleaved.
    fn build(&mut self, graph: &DiGraph) {
        let n = graph.num_nodes();
        let m = graph.num_edges();
        self.n = n;
        self.start.clear();
        self.start.resize(n + 1, 0);
        for e in graph.edges() {
            self.start[e.src + 1] += 1;
            self.start[e.dst + 1] += 1;
        }
        for v in 0..n {
            self.start[v + 1] += self.start[v];
        }
        self.fill.clear();
        self.fill.extend_from_slice(&self.start[..n]);
        let arcs = 2 * m;
        self.to.clear();
        self.to.resize(arcs, 0);
        self.rev.clear();
        self.rev.resize(arcs, 0);
        self.cap.clear();
        self.cap.resize(arcs, 0.0);
        for e in graph.edges() {
            let fwd = self.fill[e.src] as usize;
            self.fill[e.src] += 1;
            let bwd = self.fill[e.dst] as usize;
            self.fill[e.dst] += 1;
            self.to[fwd] = e.dst as u32;
            self.rev[fwd] = bwd as u32;
            self.cap[fwd] = e.capacity;
            self.to[bwd] = e.src as u32;
            self.rev[bwd] = fwd as u32;
        }
        self.iter.clear();
        self.iter.resize(n, 0);
    }

    /// The minimum rooted cut `min over S ∋ root, S ≠ V of cap(S → V ∖ S)` by
    /// Gray-code subset enumeration — by max-flow/min-cut this *is*
    /// `min_v maxflow(root → v)`, computed without running a single flow.
    ///
    /// `O(2^(n−1) · n)` straight-line array updates: each Gray step flips one
    /// vertex in or out of `S` and adjusts the running cut value plus the
    /// per-vertex in-from-`S` / out-to-`S` sums. For the ≤ 10-vertex graphs
    /// TreeGen plans over this beats the Hao–Orlin pass, which
    /// [`optimal_broadcast_rate_in`] runs instead above
    /// [`CUT_ENUMERATION_MAX_NODES`] vertices.
    fn min_rooted_cut(&mut self, graph: &DiGraph, root: usize) -> f64 {
        let n = graph.num_nodes();
        self.cut_cap.clear();
        self.cut_cap.resize(n * n, 0.0);
        for e in graph.edges() {
            if e.src != e.dst {
                self.cut_cap[e.src * n + e.dst] += e.capacity;
            }
        }
        self.cut_row.clear();
        self.cut_row.extend(
            self.cut_cap
                .chunks_exact(n)
                .map(|row| row.iter().sum::<f64>()),
        );
        self.cut_sym.clear();
        self.cut_sym.resize(n * n, 0.0);
        for u in 0..n {
            for w in 0..n {
                self.cut_sym[u * n + w] = self.cut_cap[u * n + w] + self.cut_cap[w * n + u];
            }
        }
        self.in_set.clear();
        self.in_set.resize(n, false);
        self.in_set[root] = true;
        // S = {root}: cut value is the root's row sum.
        self.cut_symsum.clear();
        self.cut_symsum
            .extend_from_slice(&self.cut_sym[root * n..root * n + n]);
        let mut cur = self.cut_row[root];
        let mut best = cur;
        let mut in_count = 1usize;
        let full = 1u32 << (n - 1);
        for g in 1..full {
            // Gray-code walk: step g flips the j-th non-root vertex, where j
            // is the number of trailing zeros of g.
            let j = g.trailing_zeros() as usize;
            let u = if j < root { j } else { j + 1 };
            let sym_row = &self.cut_sym[u * n..u * n + n];
            if !self.in_set[u] {
                // add u to S
                cur += self.cut_row[u] - self.cut_symsum[u];
                self.in_set[u] = true;
                in_count += 1;
                for (s, &x) in self.cut_symsum.iter_mut().zip(sym_row) {
                    *s += x;
                }
            } else {
                // remove u from S
                self.in_set[u] = false;
                in_count -= 1;
                for (s, &x) in self.cut_symsum.iter_mut().zip(sym_row) {
                    *s -= x;
                }
                cur -= self.cut_row[u] - self.cut_symsum[u];
            }
            // S = V is not a cut (empty complement); every other S is.
            if in_count < n && cur < best {
                best = cur;
            }
        }
        best
    }

    /// One Hao–Orlin pass: `min over v ≠ root of mincut(root → v)` by
    /// preflow-push with a rotating sink, instead of `n − 1` independent
    /// max-flows.
    ///
    /// The classic construction (Hao & Orlin 1994): a contracted source set
    /// `S` starts as `{root}` and absorbs the current sink at the end of every
    /// phase; nodes outside `S` are either *awake* or parked in a stack of
    /// *dormant* sets. A phase discharges awake excess toward the sink with
    /// the usual push/relabel rules, except that (a) pushes only target awake
    /// nodes, (b) a node that is the only awake holder of its label drags the
    /// whole label tail into a new dormant set (the gap rule), and (c) a node
    /// with no residual arc into the awake set sleeps alone. When no active
    /// node remains, the sink's excess is the capacity of a cut separating `S`
    /// from the sink; the minimum over all `n − 1` phases is the minimum
    /// rooted cut. Dormant sets are woken (most recent first) whenever the
    /// awake set empties, and the next sink is the awake node with the
    /// smallest label.
    ///
    /// All arithmetic is push/saturate sums of edge capacities, so on graphs
    /// whose capacities are exactly representable (every DGX preset) the
    /// result is bit-identical to the per-sink max-flow minimum.
    fn hao_orlin_all_sinks(&mut self, graph: &DiGraph, root: usize) -> f64 {
        self.build(graph);
        let n = self.n;
        debug_assert!(n >= 2);
        self.ho_excess.clear();
        self.ho_excess.resize(n, 0.0);
        self.ho_dist.clear();
        self.ho_dist.resize(n, 1);
        // Labels obey the standard preflow bound d(v) ≤ 2n − 1 (an excess
        // node always has a residual path back to S, whose label is n).
        self.ho_count.clear();
        self.ho_count.resize(2 * n + 2, 0);
        self.ho_state.clear();
        self.ho_state.resize(n, HO_AWAKE);
        self.ho_active.clear();

        self.ho_state[root] = HO_IN_S;
        self.ho_dist[root] = n as u32;
        let mut sink = usize::from(root == 0);
        self.ho_dist[sink] = 0;
        for v in 0..n {
            if self.ho_state[v] == HO_AWAKE {
                self.ho_count[self.ho_dist[v] as usize] += 1;
            }
        }
        let mut awake = n - 1;
        let mut in_s = 1usize;
        let mut dormant_top: i32 = -1;
        // Saturate every arc out of the (initial) source set.
        for a in self.start[root] as usize..self.start[root + 1] as usize {
            let w = self.to[a] as usize;
            let c = self.cap[a];
            if c > 1e-12 && self.ho_state[w] != HO_IN_S {
                self.cap[a] = 0.0;
                let r = self.rev[a] as usize;
                self.cap[r] += c;
                self.ho_excess[w] += c;
            }
        }
        let mut best = f64::INFINITY;
        loop {
            // Phase: discharge active awake nodes until only the sink holds
            // excess among awake nodes. Current-arc pointers reset per phase
            // because sink contraction and wake-ups create residual arcs
            // behind them.
            self.ho_active.clear();
            for v in 0..n {
                self.iter[v] = self.start[v];
                if self.ho_state[v] == HO_AWAKE && v != sink && self.ho_excess[v] > 1e-12 {
                    self.ho_active.push(v as u32);
                }
            }
            'active: while let Some(v) = self.ho_active.pop() {
                let v = v as usize;
                if self.ho_state[v] != HO_AWAKE || self.ho_excess[v] <= 1e-12 {
                    continue;
                }
                loop {
                    while (self.iter[v] as usize) < self.start[v + 1] as usize {
                        let a = self.iter[v] as usize;
                        let w = self.to[a] as usize;
                        if self.cap[a] > 1e-12
                            && self.ho_state[w] == HO_AWAKE
                            && self.ho_dist[v] == self.ho_dist[w] + 1
                        {
                            let delta = self.ho_excess[v].min(self.cap[a]);
                            self.cap[a] -= delta;
                            let r = self.rev[a] as usize;
                            self.cap[r] += delta;
                            self.ho_excess[v] -= delta;
                            let was_idle = self.ho_excess[w] <= 1e-12;
                            self.ho_excess[w] += delta;
                            if was_idle && w != sink {
                                self.ho_active.push(w as u32);
                            }
                            if self.ho_excess[v] <= 1e-12 {
                                continue 'active;
                            }
                        } else {
                            self.iter[v] += 1;
                        }
                    }
                    // Out of admissible arcs: relabel or retire v.
                    let dv = self.ho_dist[v] as usize;
                    if self.ho_count[dv] == 1 {
                        // Gap rule: v is the only awake node at its label, so
                        // relabelling it would disconnect every awake node at
                        // a higher label too — the whole tail sleeps as one
                        // dormant set. (The sink holds the minimum awake
                        // label, so it is never swept into the tail.)
                        dormant_top += 1;
                        for w in 0..n {
                            if self.ho_state[w] == HO_AWAKE && self.ho_dist[w] >= dv as u32 {
                                self.ho_state[w] = dormant_top;
                                self.ho_count[self.ho_dist[w] as usize] -= 1;
                                awake -= 1;
                            }
                        }
                        continue 'active;
                    }
                    let mut dmin = u32::MAX;
                    for a in self.start[v] as usize..self.start[v + 1] as usize {
                        let w = self.to[a] as usize;
                        if self.cap[a] > 1e-12 && self.ho_state[w] == HO_AWAKE {
                            dmin = dmin.min(self.ho_dist[w] + 1);
                        }
                    }
                    if dmin == u32::MAX {
                        // No residual arc into the awake set: v sleeps alone.
                        dormant_top += 1;
                        self.ho_state[v] = dormant_top;
                        self.ho_count[dv] -= 1;
                        awake -= 1;
                        continue 'active;
                    }
                    self.ho_count[dv] -= 1;
                    self.ho_dist[v] = dmin;
                    self.ho_count[dmin as usize] += 1;
                    self.iter[v] = self.start[v];
                }
            }
            // Phase end: every awake non-sink node has zero excess, so the
            // sink's excess is the capacity of a cut separating S from it.
            if self.ho_excess[sink] < best {
                best = self.ho_excess[sink];
            }
            // Contract the sink into S.
            self.ho_count[self.ho_dist[sink] as usize] -= 1;
            awake -= 1;
            self.ho_state[sink] = HO_IN_S;
            in_s += 1;
            if in_s == n || best <= 0.0 {
                break;
            }
            for a in self.start[sink] as usize..self.start[sink + 1] as usize {
                let w = self.to[a] as usize;
                let c = self.cap[a];
                if c > 1e-12 && self.ho_state[w] != HO_IN_S {
                    self.cap[a] = 0.0;
                    let r = self.rev[a] as usize;
                    self.cap[r] += c;
                    self.ho_excess[w] += c;
                }
            }
            if awake == 0 {
                // Wake the most recently formed dormant set (they are
                // non-empty by construction, so the awake set refills).
                debug_assert!(dormant_top >= 0);
                for w in 0..n {
                    if self.ho_state[w] == dormant_top {
                        self.ho_state[w] = HO_AWAKE;
                        self.ho_count[self.ho_dist[w] as usize] += 1;
                        awake += 1;
                    }
                }
                dormant_top -= 1;
            }
            // Next sink: the awake node with the smallest label (ties broken
            // by node index, keeping the pass deterministic).
            let mut next = usize::MAX;
            let mut next_d = u32::MAX;
            for v in 0..n {
                if self.ho_state[v] == HO_AWAKE && self.ho_dist[v] < next_d {
                    next_d = self.ho_dist[v];
                    next = v;
                }
            }
            debug_assert!(next != usize::MAX);
            sink = next;
        }
        best
    }
}

/// The certificate fallback seam: [`optimal_broadcast_rate_in`] uses the
/// Gray-code minimum-rooted-cut enumeration at or below this vertex count
/// (`2^(n−1) · n` update steps stay under ~5k there) and the Hao–Orlin
/// all-sinks pass ([`broadcast_rate_all_sinks_in`]) above it.
///
/// The seam is *rate-invisible*: both certificate paths agree bit-identically
/// on the DGX conformance graphs (see
/// `certificate_paths_agree_on_random_dgx_subgraphs` below), so moving the
/// threshold changes performance only. It is public so callers can tell
/// which side of the seam a given graph falls on.
pub const CUT_ENUMERATION_MAX_NODES: usize = 10;

/// The optimal one-to-all broadcast rate from `root`:
/// `min over v != root of maxflow(root -> v)` (Edmonds / Lovász). Parallel
/// edges between the same node pair contribute the sum of their capacities,
/// matching [`DiGraph::capacity_between`].
///
/// Returns `f64::INFINITY` for a single-vertex graph (nothing to send) and
/// `0.0` when some vertex is unreachable.
///
/// This wrapper allocates a fresh [`MaxFlowScratch`] per call; hot callers
/// should hold a scratch and use [`optimal_broadcast_rate_in`].
pub fn optimal_broadcast_rate(graph: &DiGraph, root: NodeIdx) -> f64 {
    optimal_broadcast_rate_in(graph, root, &mut MaxFlowScratch::new())
}

/// [`optimal_broadcast_rate`] over caller-owned scratch buffers.
///
/// Graphs of at most [`CUT_ENUMERATION_MAX_NODES`] vertices (every
/// single-server allocation Blink plans over) use the Gray-code
/// minimum-rooted-cut enumeration and never run a flow; larger graphs run the
/// Hao–Orlin all-sinks pass ([`broadcast_rate_all_sinks_in`]), which computes
/// the minimum over all sinks in **one** preflow-push sweep instead of `n − 1`
/// separate max-flows.
pub fn optimal_broadcast_rate_in(
    graph: &DiGraph,
    root: NodeIdx,
    scratch: &mut MaxFlowScratch,
) -> f64 {
    let n = graph.num_nodes();
    if n <= 1 {
        return f64::INFINITY;
    }
    if n <= CUT_ENUMERATION_MAX_NODES {
        return scratch.min_rooted_cut(graph, root);
    }
    scratch.hao_orlin_all_sinks(graph, root)
}

/// The broadcast-rate certificate by a single Hao–Orlin all-sinks min-cut
/// pass: `min over v ≠ root of mincut(root → v)` from one preflow-push sweep
/// with a rotating sink, valid at any vertex count.
///
/// This is what [`optimal_broadcast_rate_in`] runs above
/// [`CUT_ENUMERATION_MAX_NODES`] vertices; it is public so the certificate
/// bench can drive it directly at any size. Returns `f64::INFINITY` for a
/// single-vertex graph and `0.0` when some vertex is unreachable.
pub fn broadcast_rate_all_sinks_in(
    graph: &DiGraph,
    root: NodeIdx,
    scratch: &mut MaxFlowScratch,
) -> f64 {
    if graph.num_nodes() <= 1 {
        return f64::INFINITY;
    }
    scratch.hao_orlin_all_sinks(graph, root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::optimal_broadcast_rate_naive;
    use blink_topology::presets::{dgx1p, dgx1v, dgx2};
    use blink_topology::GpuId;

    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    #[test]
    fn max_flow_on_a_diamond() {
        let mut g = DiGraph::new();
        let s = g.add_node(GpuId(0));
        let a = g.add_node(GpuId(1));
        let b = g.add_node(GpuId(2));
        let t = g.add_node(GpuId(3));
        g.add_edge(s, a, 3.0);
        g.add_edge(s, b, 2.0);
        g.add_edge(a, t, 2.0);
        g.add_edge(b, t, 3.0);
        g.add_edge(a, b, 1.0);
        // the oracle itself on a known answer
        assert!((crate::baseline::max_flow_naive(&g, s, t) - 5.0).abs() < 1e-9);
        assert_eq!(crate::baseline::max_flow_naive(&g, s, s), 0.0);
        // the certificate is the weakest sink: b gets 2 direct + 1 via a
        assert_eq!(optimal_broadcast_rate(&g, s), 3.0);
        let mut scratch = MaxFlowScratch::new();
        assert_eq!(broadcast_rate_all_sinks_in(&g, s, &mut scratch), 3.0);
    }

    #[test]
    fn parallel_edges_sum_like_capacity_between() {
        let mut g = DiGraph::new();
        let a = g.add_node(GpuId(0));
        let b = g.add_node(GpuId(1));
        g.add_edge(a, b, 10.0);
        g.add_edge(a, b, 7.0);
        assert!((g.capacity_between(a, b) - 17.0).abs() < 1e-9);
        assert!((optimal_broadcast_rate(&g, a) - 17.0).abs() < 1e-9);
    }

    #[test]
    fn broadcast_rate_of_a_chain() {
        let mut g = DiGraph::new();
        let a = g.add_node(GpuId(0));
        let b = g.add_node(GpuId(1));
        let c = g.add_node(GpuId(2));
        g.add_edge(a, b, 10.0);
        g.add_edge(b, c, 4.0);
        assert!((optimal_broadcast_rate(&g, a) - 4.0).abs() < 1e-9);
        // c cannot reach anyone
        assert_eq!(optimal_broadcast_rate(&g, c), 0.0);
    }

    #[test]
    fn dgx1v_full_allocation_rate_is_six_lanes() {
        // All 8 GPUs over NVLink: every GPU has 6 lanes of 23 GB/s, and the
        // hybrid cube-mesh admits a packing that saturates them (the paper's
        // "6 trees at rate 1.0" result), so the min-cut certificate is 138.
        let topo = dgx1v();
        let g = DiGraph::from_topology_filtered(&topo, |l| l.kind.is_nvlink());
        let root = g.node(GpuId(0)).unwrap();
        let rate = optimal_broadcast_rate(&g, root);
        assert!((rate - 138.0).abs() < 1e-6, "rate = {rate}");
    }

    #[test]
    fn dgx1p_full_allocation_rate_is_four_lanes() {
        let topo = dgx1p();
        let g = DiGraph::from_topology_filtered(&topo, |l| l.kind.is_nvlink());
        let root = g.node(GpuId(0)).unwrap();
        let rate = optimal_broadcast_rate(&g, root);
        assert!((rate - 76.0).abs() < 1e-6, "rate = {rate}");
    }

    #[test]
    fn partially_connected_triple_is_limited_by_one_lane() {
        // GPUs 0, 1, 4 on a DGX-1P (Figure 2b): no NVLink between 1 and 4, so
        // the broadcast rate from 0 is one NVLink lane (19 GB/s): the cut
        // around GPU 1 only admits the 0->1 link.
        let topo = dgx1p();
        let sub = topo.induced(&[GpuId(0), GpuId(1), GpuId(4)]).unwrap();
        let g = DiGraph::from_topology_filtered(&sub, |l| l.kind.is_nvlink());
        let root = g.node(GpuId(0)).unwrap();
        let rate = optimal_broadcast_rate(&g, root);
        assert!((rate - 19.0).abs() < 1e-6, "rate = {rate}");
    }

    #[test]
    fn cut_enumeration_matches_dinic_per_sink_flows() {
        // The small-graph certificate never runs a flow; pin it against the
        // min-over-sinks of the Dinic oracle on DGX subsets and roots.
        for topo in [dgx1v(), dgx1p()] {
            for mask in [0xffu32, 0xb3, 0x5a, 0x2f, 0x07] {
                let alloc: Vec<GpuId> = (0..8).filter(|i| mask >> i & 1 == 1).map(GpuId).collect();
                let sub = topo.induced(&alloc).unwrap();
                let g = DiGraph::from_topology_filtered(&sub, |l| l.kind.is_nvlink());
                let mut scratch = MaxFlowScratch::new();
                for root in 0..g.num_nodes() {
                    let enumerated = optimal_broadcast_rate_in(&g, root, &mut scratch);
                    let per_sink = optimal_broadcast_rate_naive(&g, root);
                    assert_eq!(
                        enumerated.to_bits(),
                        per_sink.to_bits(),
                        "mask {mask:x} root {root}: cut {enumerated} vs flows {per_sink}"
                    );
                }
            }
        }
    }

    #[test]
    fn certificate_paths_agree_on_random_dgx_subgraphs() {
        // The fallback seam at CUT_ENUMERATION_MAX_NODES must be
        // rate-invisible: Gray-code enumeration (small side), Hao–Orlin
        // all-sinks (large side) and the per-sink Dinic oracle agree
        // bit-identically on random DGX-1V / DGX-2 induced subgraphs, on
        // both sides of the seam.
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        for (topo, pool) in [(dgx1v(), 8usize), (dgx2(), 16)] {
            for k in 2..=pool {
                for draw in 0..3 {
                    let mut ids: Vec<usize> = (0..pool).collect();
                    for i in (1..ids.len()).rev() {
                        let j = (xorshift(&mut seed) % (i as u64 + 1)) as usize;
                        ids.swap(i, j);
                    }
                    let mut alloc: Vec<GpuId> = ids[..k].iter().map(|&i| GpuId(i)).collect();
                    alloc.sort();
                    let sub = topo.induced(&alloc).unwrap();
                    let g = DiGraph::from_topology_filtered(&sub, |l| l.kind.is_nvlink());
                    let mut scratch = MaxFlowScratch::new();
                    let root = (xorshift(&mut seed) % g.num_nodes() as u64) as usize;
                    let dinic = optimal_broadcast_rate_naive(&g, root);
                    let all_sinks = broadcast_rate_all_sinks_in(&g, root, &mut scratch);
                    assert_eq!(
                        all_sinks.to_bits(),
                        dinic.to_bits(),
                        "k={k} draw={draw} root={root}: hao-orlin {all_sinks} vs dinic {dinic}"
                    );
                    if g.num_nodes() <= CUT_ENUMERATION_MAX_NODES {
                        let gray = scratch.min_rooted_cut(&g, root);
                        assert_eq!(
                            gray.to_bits(),
                            dinic.to_bits(),
                            "k={k} draw={draw} root={root}: gray {gray} vs dinic {dinic}"
                        );
                    }
                    let routed = optimal_broadcast_rate_in(&g, root, &mut scratch);
                    assert_eq!(routed.to_bits(), dinic.to_bits(), "routed path disagrees");
                }
            }
        }
    }

    #[test]
    fn hao_orlin_handles_chains_unreachable_and_parallel_edges() {
        let mut g = DiGraph::new();
        let a = g.add_node(GpuId(0));
        let b = g.add_node(GpuId(1));
        let c = g.add_node(GpuId(2));
        g.add_edge(a, b, 10.0);
        g.add_edge(b, c, 4.0);
        let mut scratch = MaxFlowScratch::new();
        assert_eq!(broadcast_rate_all_sinks_in(&g, a, &mut scratch), 4.0);
        // c cannot reach anyone: certificate pins to zero
        assert_eq!(broadcast_rate_all_sinks_in(&g, c, &mut scratch), 0.0);

        let mut p = DiGraph::new();
        let x = p.add_node(GpuId(0));
        let y = p.add_node(GpuId(1));
        p.add_edge(x, y, 10.0);
        p.add_edge(x, y, 7.0);
        assert_eq!(broadcast_rate_all_sinks_in(&p, x, &mut scratch), 17.0);
    }

    #[test]
    fn scratch_reuse_matches_fresh_scratch_bitwise() {
        let topo = dgx1v();
        let g = DiGraph::from_topology_filtered(&topo, |l| l.kind.is_nvlink());
        let gp = DiGraph::from_topology_filtered(&dgx1p(), |l| l.kind.is_nvlink());
        let mut scratch = MaxFlowScratch::new();
        // dirty the scratch on a different graph first, through both paths
        optimal_broadcast_rate_in(&gp, 0, &mut scratch);
        broadcast_rate_all_sinks_in(&gp, 0, &mut scratch);
        for root in 0..g.num_nodes() {
            let reused = optimal_broadcast_rate_in(&g, root, &mut scratch);
            let fresh = optimal_broadcast_rate(&g, root);
            assert_eq!(reused.to_bits(), fresh.to_bits(), "root {root}");
            let reused = broadcast_rate_all_sinks_in(&g, root, &mut scratch);
            let fresh = broadcast_rate_all_sinks_in(&g, root, &mut MaxFlowScratch::new());
            assert_eq!(reused.to_bits(), fresh.to_bits(), "all-sinks root {root}");
        }
    }
}
