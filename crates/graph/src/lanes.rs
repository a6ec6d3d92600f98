//! Exact packing of spanning arborescences on lane graphs.
//!
//! A *lane graph* is a capacitated digraph whose every pooled pair capacity
//! is a whole multiple of its smallest one, the *lane*: every DGX-1 NVLink
//! fabric is one (one lane is 23 GB/s on the V100, 19 GB/s on the P100).
//! Counted in lanes it is a multigraph, and Edmonds' branching theorem says
//! that a multigraph holds `k` arc-disjoint spanning arborescences from `r`
//! exactly when every rooted cut has at least `k` arcs. So the optimum of
//! the fractional packing [`crate::packing`] approximates is `k` unit-lane
//! trees, `k` being the min-cut certificate over the lane, and this module
//! builds them.
//!
//! # Lovász's construction
//!
//! Trees are grown one at a time, one arc at a time. A partial tree `F` is
//! *good* when the lanes it leaves still hold the trees left to build after
//! it, that is, when `ρ(X) ≥ k − 1` for every non-empty `X ⊆ V − r` once
//! `F`'s arcs are removed. Lovász proved that a good partial tree that does
//! not span yet always has a good one-arc extension, and an arc `u → v`
//! keeps `F` good exactly when the max-flow from `{r, u}` to `v` in the
//! residual lanes still reaches `k`, the trees left including the current
//! one. [`pack_lanes_in`] accepts an arc only after that one small
//! max-flow, so the construction never dead-ends and every plan's rate is
//! its certificate, with no ε.
//!
//! Goodness is monotone (every subset of a good tree's arcs is good), so
//! any packing can be grown in any order of its trees and, within a tree,
//! in the order of its arcs sorted by `(depth, child)`.
//!
//! # Which packing
//!
//! Many packings reach the optimum, and they differ in how their lanes group
//! into trees and which GPU pairs their arcs cross. On a DGX-1V a pair has
//! one or two lanes, and a copy runs at its pair's pooled bandwidth, so a
//! tree that crosses a two-lane pair moves its chunk twice as fast there as
//! over a one-lane pair, whatever lane the tree holds. The packer therefore
//! grows up to three packings, one per arc order, and keeps the one a
//! pipeline model (`pipeline_us`) rates fastest:
//!
//! 1. *roomy*: the arc whose GPU pair has the most lanes left first, then
//!    the shallowest child, grown greedily;
//! 2. *shallow*: the shallowest child first, then the lowest child, then the
//!    parent with the fewest children in the tree;
//! 3. *shallow-wide*: as *shallow*, but among arcs to one depth the widest
//!    pair first. It is skipped where every pair has the same lanes (it
//!    would repeat *shallow*) and where the packing is too large to search.
//!
//! The two shallow orders run a bounded, deterministic depth-first search
//! over the sorted growth order. It tries depth and root fan-out bounds
//! `(D, F)` in that order, from the shallowest depth any tree can have and
//! a fan-out of one, each against an admissible prune: an unplaced vertex
//! that no residual path can attach within `D` ends the branch, and so does
//! a residual that no longer reaches every vertex within `D` for a tree
//! still to come. Within one bound it keeps the first packing it finds. One
//! bound may spend 32 search nodes (arcs placed, including those later
//! undone) and all of them together 256. The search runs twice: as above,
//! and with only arcs whose GPU pair would carry no more trees, counted both
//! ways, than it has lanes, within 64 search nodes (an AllReduce runs every
//! tree edge backwards in its reduce phase, so a pair two trees cross in
//! opposite directions carries twice its lanes' worth there). Of the two,
//! the packing with the shallower deepest tree, then fewer lanes past their
//! pairs both ways, then the smaller root fan-out within one tree, then the
//! smaller total depth is that order's. The two-way search runs only when
//! the first packing takes a pair past its lanes both ways. Should neither
//! search find a packing, or the packing have more than 32 arcs (the whole
//! DGX-1V has 42), the trees grow by the order with no bound, which never
//! needs to backtrack.
//!
//! The model times AllReduce at 16, 25, 64 and 500 MiB and Broadcast at
//! 64 MiB over each packing as CodeGen lowers it and the simulator runs it
//! by default; a packing is kept over the roomy one only when its times,
//! each relative to the roomy packing's, sum lower. The model is exact for
//! one tree and approximate for several, where it does not see every wait
//! the simulator's links impose. Identical trees merge into one tree
//! weighted by their lanes.
//!
//! [`LaneStats`] counts the work: max-flows run and search nodes visited.

use crate::arborescence::Arborescence;
use crate::digraph::DiGraph;
use crate::packing::{PackingError, TreePacking, WeightedTree};
use blink_topology::GpuId;
use serde::{Deserialize, Serialize};

/// Search nodes (arcs placed, including those later undone) one packing may
/// spend under one bound before it gives the bound up.
const LANE_BOUND_BUDGET: u64 = 32;

/// The most arcs (trees × (vertices − 1)) a packing may have for the bounded
/// search to run; a larger one grows without a bound.
const LANE_SEARCH_ARCS: usize = 32;

/// Search nodes one packing may spend over every bound it tries before it
/// grows its trees without a bound.
const LANE_SEARCH_BUDGET: u64 = 256;

/// Search nodes the second, two-way search may spend over every bound.
const LANE_TWO_WAY_BUDGET: u64 = 64;

/// The most vertices [`pack_lanes_in`] packs: it keeps each vertex's
/// residual out-neighbours in one `u64` bit set.
pub const LANE_MAX_NODES: usize = 64;

/// Marks an unplaced vertex in the per-tree depth array.
const NONE: u32 = u32::MAX;

/// The work one [`pack_lanes_in`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaneStats {
    /// Unit-lane trees built, before identical ones merged.
    pub lane_trees: usize,
    /// Max-flows run to test arcs against Lovász's condition.
    pub max_flows: u64,
    /// Search nodes visited: arcs placed, including those later undone.
    pub search_nodes: u64,
}

/// Reusable buffers for [`pack_lanes_in`]: the residual lane matrix, the
/// growing tree, the search's candidate stack and the max-flow state.
/// Contents never affect results.
#[derive(Debug, Clone, Default)]
pub struct LaneScratch {
    /// Lanes per ordered pair, `n × n` row-major.
    cap: Vec<u32>,
    /// Residual lanes, `n × n` row-major.
    lanes: Vec<u32>,
    /// Per vertex, the set of heads its residual lanes reach (bit `v` of
    /// entry `u` set when `u → v` has a lane left).
    open: Vec<u64>,
    /// The max-flow residual's reach, as `open` is the lanes'.
    flow_open: Vec<u64>,
    /// Depth of every vertex in every tree, `k × n` row-major, `NONE` when
    /// unplaced.
    depth: Vec<u32>,
    /// Children of every vertex in every tree, `k × n` row-major.
    kids: Vec<u32>,
    /// Parent of every vertex in every tree, `k × n` row-major.
    parents: Vec<u32>,
    /// The packing the current growth order grew, as `parents`.
    grown: Vec<u32>,
    /// The packing kept so far, as `parents`.
    best: Vec<u32>,
    /// The model's distinct trees: first tree and multiplicity.
    distinct: Vec<(u32, u32)>,
    /// The model's per-round busy time of every link, `n × n` row-major.
    link: Vec<f64>,
    /// The model's first and last chunk at every vertex, up then down.
    stages: Vec<(f64, f64)>,
    /// The model's vertices by depth.
    by_depth: Vec<(usize, usize)>,
    /// Candidate arcs `(depth, child, parent's children, parent)`, one run
    /// per search level.
    cands: Vec<(u32, u32, u32, u32)>,
    /// Max-flow residual, `n × n` row-major.
    flow: Vec<u32>,
    /// Breadth-first predecessor per vertex (max-flow) or layer (prunes).
    prev: Vec<u32>,
}

impl LaneScratch {
    /// Creates an empty scratch. Buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The lane of `graph`: its smallest pooled pair capacity, when every pooled
/// pair capacity is a whole multiple of it (up to `1e-9` relative), and
/// `None` otherwise or for an edgeless graph.
pub fn lane_unit(graph: &DiGraph) -> Option<f64> {
    let n = graph.num_nodes();
    let mut pooled = vec![0.0f64; n * n];
    for e in graph.edges() {
        if e.src != e.dst {
            pooled[e.src * n + e.dst] += e.capacity;
        }
    }
    let unit = pooled
        .iter()
        .copied()
        .filter(|&c| c > 0.0)
        .min_by(f64::total_cmp)?;
    if !unit.is_finite() {
        return None;
    }
    pooled
        .iter()
        .all(|&c| c == 0.0 || whole_lanes(c, unit).is_some())
        .then_some(unit)
}

/// `value` in whole lanes of `unit`, when it is one (up to `1e-9` relative).
pub fn whole_lanes(value: f64, unit: f64) -> Option<usize> {
    let lanes = (value / unit).round();
    ((value - lanes * unit).abs() <= 1e-9 * value.abs().max(unit) && lanes >= 0.0)
        .then_some(lanes as usize)
}

/// Packs `trees` lane-disjoint spanning arborescences rooted at `root` into
/// `graph`, whose pooled pair capacities are whole multiples of `unit` (see
/// [`lane_unit`]), by Lovász's construction (module docs). Identical trees
/// merge, so the packing holds at most `trees` trees, weighted `unit` per
/// lane, and its rate is `trees × unit`.
///
/// `trees` is the certificate in lanes, [`crate::optimal_broadcast_rate`]
/// over `unit`: Edmonds' theorem says that many exist.
///
/// # Errors
/// * [`PackingError::EmptyGraph`] for a vertex-less graph.
/// * [`PackingError::UnknownRoot`] if `root` is not a vertex.
/// * [`PackingError::Unreachable`] if the lanes hold fewer than `trees`
///   arborescences (none at all when the graph does not span).
/// * [`PackingError::TooLarge`] past [`LANE_MAX_NODES`] vertices.
pub fn pack_lanes_in(
    graph: &DiGraph,
    root: GpuId,
    unit: f64,
    trees: usize,
    scratch: &mut LaneScratch,
) -> Result<(TreePacking, LaneStats), PackingError> {
    let n = graph.num_nodes();
    if n == 0 {
        return Err(PackingError::EmptyGraph);
    }
    let r = graph.node(root).ok_or(PackingError::UnknownRoot(root))?;
    let mut stats = LaneStats::default();
    if n == 1 || trees == 0 {
        return Ok((TreePacking::new(root, Vec::new()), stats));
    }
    if n > LANE_MAX_NODES {
        return Err(PackingError::TooLarge(n));
    }
    let s = &mut *scratch;
    s.cap.clear();
    s.cap.resize(n * n, 0);
    for e in graph.edges() {
        if e.src != e.dst {
            s.cap[e.src * n + e.dst] += whole_lanes(e.capacity, unit).unwrap_or(0) as u32;
        }
    }
    s.prev.clear();
    s.prev.resize(n, NONE);
    s.parents.clear();
    s.parents.resize(trees * n, NONE);
    s.depth.clear();
    s.depth.resize(trees * n, NONE);
    s.kids.clear();
    s.kids.resize(trees * n, 0);
    s.cands.clear();
    let mut search = Search {
        s,
        n,
        root: r as u32,
        k: trees as u32,
        max_depth: n as u32,
        max_fanout: u32::MAX,
        two_way: false,
        canonical: true,
        order: Order::Shallow,
        stats: &mut stats,
        limit: 0,
    };
    search.reset();
    let shallowest = search.eccentricity();
    if shallowest == NONE {
        return Err(PackingError::Unreachable);
    }
    let root_lanes: u32 = search.s.lanes[r * n..(r + 1) * n].iter().sum();
    // every later tree needs one of the root's lanes
    let widest = (root_lanes + 1).saturating_sub(trees as u32);
    let searched = trees * (n - 1) <= LANE_SEARCH_ARCS;
    // the first packing's times weigh every reference collective, and it
    // stays unless another is faster
    let (mut base, mut kept) = ([0.0; REFERENCE.len()], f64::INFINITY);
    // over pairs of one width the wide order is the shallow one
    let mut widths = search.s.cap.iter().filter(|&&c| c > 0);
    let uniform = widths.next().is_none_or(|&w| widths.all(|&c| c == w));
    for order in [Order::Roomy, Order::Shallow, Order::ShallowWide] {
        if order == Order::ShallowWide && (uniform || !searched) {
            continue;
        }
        search.order = order;
        let mut best = None;
        let bounded = searched && order != Order::Roomy;
        for two_way in [false, true].into_iter().filter(|_| bounded) {
            // the two-way search is there to remove lanes past their pairs
            if two_way && best.is_some_and(|(_, overflow, _, _)| overflow == 0) {
                break;
            }
            search.two_way = two_way;
            search.canonical = true;
            if let Some(score) = search.bounded(shallowest, widest) {
                if best.is_none_or(|b| score < b) {
                    best = Some(score);
                    search.s.grown.clone_from(&search.s.parents);
                }
            }
            search.reset();
        }
        if best.is_none() {
            // grow every tree by the order with no bound; Lovász's lemma
            // guarantees a safe arc at every step
            search.max_depth = n as u32;
            search.max_fanout = u32::MAX;
            search.two_way = false;
            search.canonical = false;
            search.limit = u64::MAX;
            if search.start_tree(0) != Step::Found {
                return Err(PackingError::Unreachable);
            }
            search.s.grown.clone_from(&search.s.parents);
            search.reset();
        }
        let times = pipeline_us(search.s, n, r, trees, unit);
        if kept.is_infinite() {
            base = times;
        }
        let cost: f64 = times.iter().zip(&base).map(|(t, b)| t / b).sum();
        if kept.is_infinite() || cost < kept - 1e-9 {
            kept = cost;
            search.s.best.clone_from(&search.s.grown);
        }
    }
    stats.lane_trees = trees;
    Ok((merged_trees(graph, r, unit, trees, &scratch.best), stats))
}

/// The collectives [`pipeline_us`] times a packing by: AllReduce (`true`)
/// and Broadcast (`false`), in bytes.
const REFERENCE: [(bool, f64); 5] = [
    (true, (16 << 20) as f64),
    (true, (25 << 20) as f64),
    (true, (64 << 20) as f64),
    (true, (500 << 20) as f64),
    (false, (64 << 20) as f64),
];

/// Chunk size, fixed cost of a copy and of a reduction (µs) and reduction
/// bandwidth (GB/s) of the lowering [`pipeline_us`] models: `blink-core`'s
/// default chunk and `blink-sim`'s default calibration (a 4 µs launch,
/// plus 1 µs on the wire for a copy).
const CHUNK_BYTES: f64 = (4 << 20) as f64;
const COPY_US: f64 = 5.0;
const REDUCE_US: f64 = 4.0;
const REDUCE_GBPS: f64 = 100.0;

/// The modelled time, in µs, of each [`REFERENCE`] collective over the
/// `trees` unit-lane trees in `s.grown`, lowered as CodeGen lowers them:
/// identical trees merge, each tree's share is cut into chunks, a copy runs
/// at its GPU pair's pooled bandwidth, and a vertex reduces its children's
/// chunk in the stream of its copy up the tree (the root, in that of its
/// copy to its first child). Each tree is a pipeline: a stage (one vertex's
/// reduce-and-copy up, or one copy down) passes the first chunk after its
/// own time and every later one after the larger of its own time and the
/// copies all trees put on its link each round, and a vertex waits for all
/// its children. The slowest tree's last chunk sets the time.
fn pipeline_us(
    s: &mut LaneScratch,
    n: usize,
    root: usize,
    trees: usize,
    unit: f64,
) -> [f64; REFERENCE.len()] {
    let LaneScratch {
        cap,
        grown,
        distinct,
        link,
        stages,
        by_depth,
        ..
    } = s;
    let row = |t: usize| &grown[t * n..(t + 1) * n];
    // each distinct tree with its multiplicity
    distinct.clear();
    for t in 0..trees {
        match distinct
            .iter_mut()
            .find(|(f, _)| row(*f as usize) == row(t))
        {
            Some((_, m)) => *m += 1,
            None => distinct.push((t as u32, 1)),
        }
    }
    let copy =
        |a: usize, b: usize, bytes: f64| COPY_US + bytes / (f64::from(cap[a * n + b]) * unit * 1e3);
    let mut out = [0.0; REFERENCE.len()];
    for (slot, &(all_reduce, bytes)) in out.iter_mut().zip(&REFERENCE) {
        let chunk = |m: u32| {
            let share = bytes * f64::from(m) / trees as f64;
            let chunks = (share / CHUNK_BYTES).ceil().max(1.0);
            (chunks, share / chunks)
        };
        link.clear();
        link.resize(n * n, 0.0);
        for &(t, m) in distinct.iter() {
            let (_, size) = chunk(m);
            for v in (0..n).filter(|&v| v != root) {
                let p = row(t as usize)[v] as usize;
                link[p * n + v] += copy(p, v, size);
                if all_reduce {
                    link[v * n + p] += copy(v, p, size);
                }
            }
        }
        let mut total: f64 = 0.0;
        for &(t, m) in distinct.iter() {
            let (chunks, size) = chunk(m);
            let reduce = REDUCE_US + size / (REDUCE_GBPS * 1e3);
            let parents = row(t as usize);
            // first and last chunk through a stage of `own` µs per chunk
            // that passes later chunks every `every` µs
            let stage = |(first, last): (f64, f64), own: f64, every: f64| {
                let first = first + own;
                (first, (last + own).max(first + (chunks - 1.0) * every))
            };
            let depth = |mut v: usize| {
                let mut d = 0;
                while v != root {
                    v = parents[v] as usize;
                    d += 1;
                }
                d
            };
            by_depth.clear();
            by_depth.extend((0..n).map(|v| (depth(v), v)));
            by_depth.sort_unstable();
            let kids = |u: usize| {
                (0..n)
                    .filter(|&v| v != root && parents[v] as usize == u)
                    .count()
            };
            let first_child = (0..n).find(|&v| v != root && parents[v] as usize == root);
            // (first, last) chunk ready at each vertex, leaves up, then
            // arrived at each vertex from the root down
            stages.clear();
            stages.resize(2 * n, (0.0, 0.0));
            let (ready, at) = stages.split_at_mut(n);
            if all_reduce {
                for &(_, v) in by_depth.iter().rev() {
                    let own = if kids(v) > 0 { reduce } else { 0.0 };
                    if v == root {
                        ready[v] = stage(ready[v], own, own);
                        continue;
                    }
                    let p = parents[v] as usize;
                    let own = own + copy(v, p, size);
                    let up = stage(ready[v], own, own.max(link[v * n + p]));
                    ready[p] = (ready[p].0.max(up.0), ready[p].1.max(up.1));
                }
            }
            at[root] = if all_reduce { ready[root] } else { (0.0, 0.0) };
            for &(_, v) in by_depth.iter().filter(|&&(_, v)| v != root) {
                let p = parents[v] as usize;
                let mut own = copy(p, v, size);
                if all_reduce && Some(v) == first_child {
                    own += reduce;
                }
                at[v] = stage(at[p], own, own.max(link[p * n + v]));
                total = total.max(at[v].1);
            }
        }
        *slot = total;
    }
    out
}

/// The `trees` grown trees of `parents` as weighted arborescences, identical
/// ones merged into the first, in growth order.
fn merged_trees(
    graph: &DiGraph,
    root: usize,
    unit: f64,
    trees: usize,
    parents: &[u32],
) -> TreePacking {
    let n = graph.num_nodes();
    let row = |t: usize| &parents[t * n..(t + 1) * n];
    let mut firsts: Vec<(usize, usize)> = Vec::new();
    for t in 0..trees {
        match firsts.iter_mut().find(|(f, _)| row(*f) == row(t)) {
            Some((_, lanes)) => *lanes += 1,
            None => firsts.push((t, 1)),
        }
    }
    let trees = firsts
        .into_iter()
        .map(|(t, lanes)| {
            let edges = (0..n)
                .filter(|&v| v != root)
                .map(|v| (graph.gpu(row(t)[v] as usize), graph.gpu(v)))
                .collect();
            WeightedTree {
                tree: Arborescence::new(graph.gpu(root), edges),
                weight: unit * lanes as f64,
            }
        })
        .collect();
    TreePacking::new(graph.gpu(root), trees)
}

/// The orders the packer tries arcs in. Each yields one packing, and the
/// one [`pipeline_us`] rates fastest is kept (module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Order {
    /// Shallowest child first, then the lowest child, then the parent with
    /// the fewest children in the tree, then the lowest parent; searched
    /// under depth and fan-out bounds.
    Shallow,
    /// As [`Order::Shallow`], but among arcs to the same depth the one on the
    /// GPU pair with the most lanes first; searched the same way.
    ShallowWide,
    /// The arc whose GPU pair has the most lanes left first, then as
    /// [`Order::Shallow`]; grown greedily, with no bound.
    Roomy,
}

/// How one branch of the search ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Every tree is built.
    Found,
    /// No packing within the bounds extends this branch.
    Dead,
    /// The bound's share of the search budget ran out.
    Budget,
}

/// One packing search under a depth bound and a bound on the root's
/// children within one tree. Tree `t`'s per-vertex state is row `t` of the
/// scratch's `k × n` arrays, so a search that backtracks from tree `t + 1`
/// into tree `t` finds it as it left it.
struct Search<'a> {
    s: &'a mut LaneScratch,
    n: usize,
    root: u32,
    /// Trees to build.
    k: u32,
    max_depth: u32,
    max_fanout: u32,
    /// Take no arc whose pair would then carry more trees, counted both
    /// ways, than it has lanes.
    two_way: bool,
    /// Grow each tree in `(depth, child)` order only, so the search visits
    /// every tree once; off for the unbounded growth past the budget.
    canonical: bool,
    /// The order arcs are tried in.
    order: Order,
    stats: &'a mut LaneStats,
    /// The search-node count at which this bound gives up.
    limit: u64,
}

impl Search<'_> {
    /// Frees every lane: no tree holds any.
    fn reset(&mut self) {
        let n = self.n;
        let s = &mut *self.s;
        s.lanes.clone_from(&s.cap);
        s.open.clear();
        s.open.extend((0..n).map(|u| {
            (0..n)
                .filter(|&v| s.lanes[u * n + v] > 0)
                .fold(0u64, |m, v| m | 1 << v)
        }));
        s.parents.fill(NONE);
    }

    /// Tries the depth and fan-out bounds in order, from the `shallowest`
    /// depth and a fan-out of one up to `widest`, within the search's
    /// budget, and scores the first packing found: its deepest tree, the
    /// lanes its trees take past their pairs' when every tree also runs
    /// backwards, its root's widest fan-out and its total depth. `None`
    /// when no bound yields a packing in budget.
    fn bounded(&mut self, shallowest: u32, widest: u32) -> Option<(u32, u32, u32, u32)> {
        let start = self.stats.search_nodes;
        let budget = if self.two_way {
            LANE_TWO_WAY_BUDGET
        } else {
            LANE_SEARCH_BUDGET
        };
        for max_depth in shallowest..self.n as u32 {
            for max_fanout in 1..=widest {
                let spent = self.stats.search_nodes - start;
                if spent >= budget {
                    return None;
                }
                self.max_depth = max_depth;
                self.max_fanout = max_fanout;
                self.limit = start + budget.min(spent + LANE_BOUND_BUDGET);
                if self.start_tree(0) == Step::Found {
                    return Some(self.score());
                }
            }
        }
        None
    }

    /// The score [`Search::bounded`] ranks a grown packing by.
    fn score(&self) -> (u32, u32, u32, u32) {
        let (n, root, s) = (self.n, self.root as usize, &*self.s);
        let rows = || s.depth.chunks_exact(n);
        let deepest = rows().flatten().copied().max().unwrap_or(0);
        let total = rows().map(|d| d.iter().copied().max().unwrap_or(0)).sum();
        let fanout = s.kids.chunks_exact(n).map(|k| k[root]).max().unwrap_or(0);
        let mut overflow = 0;
        for u in 0..n {
            for v in u + 1..n {
                let (uv, vu) = (u * n + v, v * n + u);
                let used = s.cap[uv] - s.lanes[uv] + s.cap[vu] - s.lanes[vu];
                overflow += used.saturating_sub(s.cap[uv].min(s.cap[vu]));
            }
        }
        (deepest, overflow, fanout, total)
    }

    /// Starts tree `t` from the root, or reports success after the last.
    fn start_tree(&mut self, t: u32) -> Step {
        if t == self.k {
            return Step::Found;
        }
        let row = t as usize * self.n;
        self.s.depth[row..row + self.n].fill(NONE);
        self.s.kids[row..row + self.n].fill(0);
        self.s.depth[row + self.root as usize] = 0;
        self.grow(t, 1, (0, NONE))
    }

    /// Grows tree `t`, which has `placed` vertices and whose last arc placed
    /// the child `last = (depth, vertex)`.
    fn grow(&mut self, t: u32, placed: usize, last: (u32, u32)) -> Step {
        if placed == self.n {
            // the tree is complete: every later tree still needs each vertex
            // within the depth bound of the root over the residual
            if t + 1 < self.k && self.eccentricity() > self.max_depth {
                return Step::Dead;
            }
            return self.start_tree(t + 1);
        }
        if self.canonical && !self.completable(t, last) {
            return Step::Dead;
        }
        let base = self.s.cands.len();
        self.candidates(t, last);
        let end = self.s.cands.len();
        let mut outcome = Step::Dead;
        for i in base..end {
            let (d, v, _, u) = self.s.cands[i];
            if !self.safe(u as usize, v as usize, self.k - t) {
                continue;
            }
            if self.stats.search_nodes >= self.limit {
                outcome = Step::Budget;
                break;
            }
            self.stats.search_nodes += 1;
            self.place(t, u, v, d);
            let step = self.grow(t, placed + 1, (d, v));
            if step == Step::Found {
                outcome = step;
                break;
            }
            self.place_undo(t, u, v);
            if step == Step::Budget || !self.canonical {
                // unbounded growth never backtracks (Lovász's lemma)
                outcome = step;
                break;
            }
        }
        self.s.cands.truncate(base);
        outcome
    }

    fn place(&mut self, t: u32, u: u32, v: u32, d: u32) {
        let (n, row) = (self.n, t as usize * self.n);
        self.s.lanes[u as usize * n + v as usize] -= 1;
        if self.s.lanes[u as usize * n + v as usize] == 0 {
            self.s.open[u as usize] &= !(1 << v);
        }
        self.s.depth[row + v as usize] = d;
        self.s.kids[row + u as usize] += 1;
        self.s.parents[row + v as usize] = u;
    }

    fn place_undo(&mut self, t: u32, u: u32, v: u32) {
        let (n, row) = (self.n, t as usize * self.n);
        self.s.lanes[u as usize * n + v as usize] += 1;
        self.s.open[u as usize] |= 1 << v;
        self.s.depth[row + v as usize] = NONE;
        self.s.kids[row + u as usize] -= 1;
        self.s.parents[row + v as usize] = NONE;
    }

    /// Pushes the arcs that may extend tree `t`, in the search's [`Order`].
    fn candidates(&mut self, t: u32, last: (u32, u32)) {
        let (n, row) = (self.n, t as usize * self.n);
        let s = &mut *self.s;
        let depth = &s.depth[row..row + n];
        let kids = &s.kids[row..row + n];
        let base = s.cands.len();
        for u in 0..n {
            let du = depth[u];
            if du == NONE
                || du >= self.max_depth
                || (u as u32 == self.root && kids[u] >= self.max_fanout)
            {
                continue;
            }
            for v in bits(s.open[u]) {
                let (uv, vu) = (u * n + v, v * n + u);
                let used = s.cap[uv] - s.lanes[uv] + s.cap[vu] - s.lanes[vu];
                if depth[v] != NONE || (self.two_way && used >= s.cap[uv].min(s.cap[vu])) {
                    continue;
                }
                let key = (du + 1, v as u32);
                if self.canonical && !after(key, last) {
                    continue;
                }
                s.cands.push((key.0, key.1, kids[u], u as u32));
            }
        }
        let lanes = |lanes: &[u32], u: u32, v: u32| u32::MAX - lanes[u as usize * n + v as usize];
        let cands = &mut s.cands[base..];
        match self.order {
            Order::Shallow => cands.sort_unstable(),
            Order::ShallowWide => {
                cands.sort_unstable_by_key(|&(d, v, k, u)| (d, lanes(&s.cap, u, v), v, k, u))
            }
            Order::Roomy => {
                cands.sort_unstable_by_key(|&(d, v, k, u)| (lanes(&s.lanes, u, v), d, v, k, u))
            }
        }
    }

    /// Whether every unplaced vertex of tree `t` can still attach within the
    /// depth bound, in growth order after `last`, over residual lanes from
    /// the tree (a vertex expanding only below the children bound).
    fn completable(&mut self, t: u32, last: (u32, u32)) -> bool {
        let (n, row) = (self.n, t as usize * self.n);
        let s = &mut *self.s;
        let depth = &s.depth[row..row + n];
        let root = self.root as usize;
        // `prev` holds the least depth each vertex can reach
        s.prev.clear();
        s.prev.extend_from_slice(depth);
        let mut reached = (0..n)
            .filter(|&v| depth[v] != NONE)
            .fold(0u64, |m, v| m | 1 << v);
        for layer in 0..self.max_depth {
            let mut next = 0u64;
            for u in (0..n).filter(|&u| s.prev[u] == layer) {
                if u != root || s.kids[row + u] < self.max_fanout {
                    next |= s.open[u];
                }
            }
            for v in bits(next & !reached) {
                s.prev[v] = layer + 1;
            }
            reached |= next;
        }
        (0..n).all(|v| {
            let earliest = if v as u32 > last.1 {
                last.0
            } else {
                last.0 + 1
            };
            depth[v] != NONE || (s.prev[v] != NONE && s.prev[v].max(earliest) <= self.max_depth)
        })
    }

    /// The largest breadth-first distance from the root over residual lanes,
    /// `NONE` when some vertex is unreachable.
    fn eccentricity(&mut self) -> u32 {
        let s = &*self.s;
        let all = u64::MAX >> (64 - self.n);
        let (mut reached, mut frontier, mut far) = (1u64 << self.root, 1u64 << self.root, 0);
        while reached != all {
            let next = bits(frontier).fold(0, |m, u| m | s.open[u]) & !reached;
            if next == 0 {
                return NONE;
            }
            (reached, frontier, far) = (reached | next, next, far + 1);
        }
        far
    }

    /// Lovász's condition for arc `u → v`: the max-flow from `{root, u}` to
    /// `v` over the residual lanes reaches `need`, the trees left including
    /// the one being grown.
    fn safe(&mut self, u: usize, v: usize, need: u32) -> bool {
        self.stats.max_flows += 1;
        let n = self.n;
        let s = &mut *self.s;
        s.flow.clone_from(&s.lanes);
        s.flow_open.clone_from(&s.open);
        let root = self.root as usize;
        let sources = 1u64 << root | 1u64 << u;
        let mut flow = 0;
        while flow < need {
            // breadth-first from both sources; `prev[b]` is the vertex that
            // reached `b`, and a source is its own
            let (mut seen, mut frontier) = (sources, sources);
            s.prev[root] = root as u32;
            s.prev[u] = u as u32;
            while seen & 1 << v == 0 && frontier != 0 {
                let mut next = 0;
                for a in bits(frontier) {
                    let new = s.flow_open[a] & !seen & !next;
                    for b in bits(new) {
                        s.prev[b] = a as u32;
                    }
                    next |= new;
                }
                seen |= next;
                frontier = next;
            }
            if seen & 1 << v == 0 {
                return false;
            }
            // augment along the path by its bottleneck, at least one lane
            let mut bottleneck = need - flow;
            let mut b = v;
            while s.prev[b] as usize != b {
                let a = s.prev[b] as usize;
                bottleneck = bottleneck.min(s.flow[a * n + b]);
                b = a;
            }
            let mut b = v;
            while s.prev[b] as usize != b {
                let a = s.prev[b] as usize;
                s.flow[a * n + b] -= bottleneck;
                if s.flow[a * n + b] == 0 {
                    s.flow_open[a] &= !(1 << b);
                }
                s.flow[b * n + a] += bottleneck;
                s.flow_open[b] |= 1 << a;
                b = a;
            }
            flow += bottleneck;
        }
        true
    }
}

/// The members of the bit set `set`, lowest first.
fn bits(mut set: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (set != 0).then(|| {
            let b = set.trailing_zeros() as usize;
            set &= set - 1;
            b
        })
    })
}

/// Whether growth key `key` comes after `last` in `(depth, child)` order.
fn after(key: (u32, u32), last: (u32, u32)) -> bool {
    key.0 > last.0 || (key.0 == last.0 && (last.1 == NONE || key.1 > last.1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxflow::optimal_broadcast_rate;
    use blink_topology::presets::{dgx1p, dgx1v};

    fn nvlink(machine: &blink_topology::Topology, ids: &[usize]) -> DiGraph {
        let alloc: Vec<GpuId> = ids.iter().map(|&i| GpuId(i)).collect();
        DiGraph::from_topology_filtered(&machine.induced(&alloc).unwrap(), |l| l.kind.is_nvlink())
    }

    #[test]
    fn dgx1_nvlink_graphs_are_lane_graphs_and_mixed_ones_are_not() {
        let all: Vec<usize> = (0..8).collect();
        assert_eq!(lane_unit(&nvlink(&dgx1v(), &all)), Some(23.0));
        assert_eq!(lane_unit(&nvlink(&dgx1p(), &all)), Some(19.0));
        // NVLink pooled with PCIe: 28 GB/s pairs beside 5 GB/s ones
        assert_eq!(lane_unit(&DiGraph::from_topology(&dgx1v())), None);
        let mut g = DiGraph::new();
        let (a, b) = (g.add_node(GpuId(0)), g.add_node(GpuId(1)));
        g.add_edge(a, b, 1.5);
        g.add_edge(b, a, 1.5);
        g.add_edge(b, a, 3.0);
        assert_eq!(lane_unit(&g), Some(1.5));
        assert_eq!(lane_unit(&DiGraph::new()), None);
    }

    #[test]
    fn the_full_dgx1v_packs_six_lane_trees_from_every_root() {
        let g = nvlink(&dgx1v(), &(0..8).collect::<Vec<_>>());
        let mut scratch = LaneScratch::new();
        for r in 0..8 {
            let (packing, stats) = pack_lanes_in(&g, GpuId(r), 23.0, 6, &mut scratch).unwrap();
            assert_eq!(stats.lane_trees, 6);
            assert_eq!(packing.rate(), 138.0);
            assert_eq!(packing.rate(), optimal_broadcast_rate(&g, r));
            assert!(packing.max_overuse(&g) <= 1.0, "root {r}");
            for wt in &packing.trees {
                assert!(wt.tree.is_valid_over(g.gpus()), "root {r}: {:?}", wt.tree);
            }
            assert!(stats.max_flows >= 6 * 7 && stats.search_nodes >= 6 * 7);
        }
    }

    #[test]
    fn a_lone_tree_crosses_the_two_lane_pairs() {
        // 0–2 and 2–6 are one lane each, 0–3 and 2–3 two: one tree spans,
        // and 0→3→2→6 copies at twice the speed of 0→2→{3,6} on two hops
        let g = nvlink(&dgx1v(), &[0, 2, 3, 6]);
        let (packing, _) = pack_lanes_in(&g, GpuId(0), 23.0, 1, &mut LaneScratch::new()).unwrap();
        let edges = [(0, 3), (2, 6), (3, 2)].map(|(a, b)| (GpuId(a), GpuId(b)));
        assert_eq!(packing.trees.len(), 1);
        assert_eq!(packing.trees[0].tree.edges, edges);
    }

    #[test]
    fn the_model_times_one_tree_as_the_pipeline_it_lowers_to() {
        // a two-GPU chain over one lane: 16 MiB is four 4 MiB chunks, each
        // copied up, reduced at the root and copied down in the stream that
        // reduces, which then passes a chunk every reduce and copy
        let g = nvlink(&dgx1v(), &[0, 1]);
        let mut s = LaneScratch::new();
        pack_lanes_in(&g, GpuId(0), 23.0, 1, &mut s).unwrap();
        s.grown.clone_from(&s.best);
        let copy = COPY_US + CHUNK_BYTES / 23e3;
        let reduce = REDUCE_US + CHUNK_BYTES / (REDUCE_GBPS * 1e3);
        let all_reduce = copy + 4.0 * (reduce + copy) + reduce;
        let times = pipeline_us(&mut s, 2, 0, 1, 23.0);
        assert!((times[0] - all_reduce).abs() < 1e-6, "{times:?}");
        assert!((times[4] - 16.0 * copy).abs() < 1e-6, "{times:?}");
    }

    #[test]
    fn identical_trees_merge_into_one_weighted_tree() {
        // two lanes each way between two GPUs: two identical one-edge trees
        let g = nvlink(&dgx1v(), &[0, 3]);
        let (packing, stats) =
            pack_lanes_in(&g, GpuId(0), 23.0, 2, &mut LaneScratch::new()).unwrap();
        assert_eq!((stats.lane_trees, packing.trees.len()), (2, 1));
        assert_eq!(packing.trees[0].weight, 46.0);
    }

    #[test]
    fn no_pair_carries_trees_both_ways_past_its_lanes_where_it_need_not() {
        // DGX-1V {0, 1, 4, 5}: the first search's two depth-3 chains cross
        // the one-lane 4-5 pair in opposite directions; the two-way search
        // finds two trees that leave every pair within its lanes both ways
        let g = nvlink(&dgx1v(), &[0, 1, 4, 5]);
        let (packing, _) = pack_lanes_in(&g, GpuId(0), 23.0, 2, &mut LaneScratch::new()).unwrap();
        let usage = packing.edge_usage();
        for (&(a, b), &forward) in &usage {
            let back = usage.get(&(b, a)).copied().unwrap_or(0.0);
            let pair = g.capacity_between(g.node(a).unwrap(), g.node(b).unwrap());
            assert!(
                forward + back <= pair,
                "{a}-{b}: {forward} + {back} > {pair}"
            );
        }
        assert_eq!(packing.rate(), 46.0);
    }

    #[test]
    fn asking_past_the_certificate_or_for_an_unspanned_graph_fails() {
        let g = nvlink(&dgx1v(), &[0, 1, 2, 3]);
        let certificate = optimal_broadcast_rate(&g, 0);
        let k = whole_lanes(certificate, 23.0).unwrap();
        let mut scratch = LaneScratch::new();
        assert!(pack_lanes_in(&g, GpuId(0), 23.0, k, &mut scratch).is_ok());
        assert_eq!(
            pack_lanes_in(&g, GpuId(0), 23.0, k + 1, &mut scratch).unwrap_err(),
            PackingError::Unreachable
        );
        let apart = nvlink(&dgx1p(), &[1, 4]);
        assert_eq!(
            pack_lanes_in(&apart, GpuId(1), 19.0, 1, &mut scratch).unwrap_err(),
            PackingError::Unreachable
        );
        assert_eq!(
            pack_lanes_in(&g, GpuId(7), 23.0, 1, &mut scratch).unwrap_err(),
            PackingError::UnknownRoot(GpuId(7))
        );
    }

    #[test]
    fn a_reused_scratch_packs_bit_identically() {
        let mut reused = LaneScratch::new();
        let big = nvlink(&dgx1v(), &(0..8).collect::<Vec<_>>());
        pack_lanes_in(&big, GpuId(5), 23.0, 6, &mut reused).unwrap();
        for ids in [
            vec![0, 1, 2, 4, 7],
            vec![2, 3, 6, 7],
            vec![0, 1, 2, 3, 4, 5, 6],
        ] {
            let g = nvlink(&dgx1v(), &ids);
            let k = whole_lanes(optimal_broadcast_rate(&g, 0), 23.0).unwrap();
            let root = g.gpu(0);
            let a = pack_lanes_in(&g, root, 23.0, k, &mut reused).unwrap();
            let b = pack_lanes_in(&g, root, 23.0, k, &mut LaneScratch::new()).unwrap();
            assert_eq!(a.1, b.1, "{ids:?}");
            assert_eq!(a.0.trees, b.0.trees, "{ids:?}");
        }
    }
}
