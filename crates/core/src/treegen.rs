//! TreeGen: from a probed topology to a minimal set of weighted spanning
//! trees (Sections 3.1–3.2 of the paper).
//!
//! A plan under the default options takes the first of three paths that
//! applies:
//!
//! 1. **Closed form.** A plan over a complete uniform graph (every
//!    NVSwitch allocation, DGX-1P NVLink quads, PCIe graphs within one
//!    complex) from its smallest GPU is written down: the `n − 1` relay
//!    trees of [`crate::onehop::relay_trees`], which are what packing plus
//!    minimisation return there, bit for bit (see the [`crate::onehop`]
//!    module docs). It reports zero MWU iterations, `n − 1` trees before
//!    minimisation and a [`blink_graph::PackingTermination::Certificate`]
//!    exit.
//! 2. **Exact lane packing.** An NVLink graph whose every pooled pair
//!    capacity is a whole number of lanes, among GPUs with no switch-port
//!    cap (every DGX-1 slice; see [`blink_graph::lanes`]), packs the
//!    certificate's `k` whole-lane trees by Lovász's construction, whatever
//!    the MWU options: its rate is the certificate, with no ε. Of the
//!    packings its arc orders grow, it keeps
//!    the one its pipeline model of the lowered collective rates fastest.
//!    It reports zero MWU iterations, `k` trees before identical ones merged
//!    and a [`blink_graph::PackingTermination::Exact`] exit.
//! 3. **MWU packing, then tree-count minimisation**: every other graph
//!    (PCIe, the hybrid's PCIe half, DGX-2 roots past the first).
//!
//! A plan depends on the induced topology, the root and the options only. A
//! replan after a topology delta plans the surviving slice by the same three
//! paths; no earlier plan seeds it.
//!
//! Every plan's certificate comes from
//! [`blink_graph::optimal_broadcast_rate_in`].
//!
//! Every [`TreeGen`] plans over the process's one [`ScratchPool`]
//! ([`ScratchPool::process`]) — a thread-safe pool of [`PlannerScratch`]
//! instances, each bundling the reusable MWU packing buffers
//! ([`blink_graph::PackingScratch`]), the minimisation arenas
//! ([`blink_graph::MinimizeScratch`]), the exact lane packer's buffers
//! ([`blink_graph::LaneScratch`]), a standalone certificate scratch for
//! certificate-only sweeps and the simulator's [`EngineScratch`] — so
//! repeated `plan` calls (per-root, as in the three-phase multi-server
//! AllReduce) and repeated simulations never re-allocate their buffers.
//!
//! ## One pool per process
//!
//! * Every pack, certificate sweep and simulated run in the process checks
//!   its buffers out of [`ScratchPool::process`]: no plan store,
//!   communicator, process group or TreeGen holds a scratch of its own. A
//!   communicator on a fresh private store, or a job placed into a fresh
//!   fleet, therefore starts from buffers earlier work already grew, and a
//!   job that departs takes none with it.
//! * [`ScratchPool::checkout`] pops a warm [`PlannerScratch`] (or creates one
//!   the first time it is asked); the returned guard hands it back on drop.
//!   A single-threaded caller therefore cycles one scratch through every
//!   plan and every run — no heap traffic once warm.
//! * The pool is `Send + Sync` (scratches themselves are `Send`, rule 4 of
//!   blink-graph's scratch contract), because the process's pool is a
//!   `static` that communicators on any thread check out of. It retains at
//!   most one warm scratch per peak-concurrent checkout. The workspace
//!   spawns no threads of its own: every pack, sweep and run checks out on
//!   its caller's thread.
//! * Scratch contents never affect results (rule 1 of the contract):
//!   planning is a pure function of (induced topology, root, options) and a
//!   simulated run of (program, simulator), whatever shape last used the
//!   scratch. Sharing one pool across plan stores and threads shares
//!   buffers, never plans or programs.
//!
//! [`ScratchPool::new`] makes a pool of its own, for tests that pin that
//! buffer contract on a scratch whose history they control.

use crate::onehop::{complete_uniform_capacity, relay_trees};
use crate::{BlinkError, Result};
use blink_graph::lanes::{whole_lanes, LANE_MAX_NODES};
use blink_graph::{
    lane_unit, minimize_trees_in, optimal_broadcast_rate_in, pack_lanes_in, pack_spanning_trees_in,
    DiGraph, LaneScratch, MaxFlowScratch, MinimizeOptions, MinimizeScratch, PackingError,
    PackingOptions, PackingScratch, PackingStats, PackingTermination, TreePacking, WeightedTree,
};
use blink_sim::EngineScratch;
use blink_topology::{GpuId, LinkKind, Topology};
use serde::{Deserialize, Serialize};
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex, OnceLock};

/// The full set of reusable buffers one plan-and-run needs: the MWU packing
/// scratch, the tree-minimisation scratch (which embeds a certificate
/// scratch), a standalone certificate scratch for certificate-only root
/// sweeps and exact plans, the exact lane packer's scratch, and the
/// simulator's engine scratch.
/// Buffer reuse only — contents never affect results (see the bit-identical
/// regression tests in `tests/properties.rs`).
///
/// Each part is boxed, so checking a scratch out of a [`ScratchPool`] and
/// back moves five pointers rather than some three kilobytes of buffer
/// headers: a same-sized stand-in took about 140 ns less per checkout and
/// return on a 2-vCPU x86-64 host.
#[derive(Debug, Clone, Default)]
pub struct PlannerScratch {
    /// MWU packing buffers (arborescence arena, lengths, tree accumulator).
    pub packing: Box<PackingScratch>,
    /// Minimisation buffers (branch-and-bound stack, greedy peel, certificate).
    pub minimize: Box<MinimizeScratch>,
    /// Certificate buffers for certificate-only sweeps (the communicator's
    /// root-picking pass) and the exact lane packing's certificate, so they
    /// reuse pool scratches too.
    pub certificate: Box<MaxFlowScratch>,
    /// Exact lane-packing buffers (residual lanes, search stack, max-flow).
    pub lanes: Box<LaneScratch>,
    /// Engine buffers for one simulated run or session.
    pub engine: Box<EngineScratch>,
}

impl PlannerScratch {
    /// Creates an empty scratch. Buffers are sized lazily on first plan.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A thread-safe pool of [`PlannerScratch`] instances with checkout/return
/// semantics.
///
/// Cloning the pool handle shares the underlying scratches. See the module
/// docs for the checkout/return contract; the short version is: one scratch
/// per concurrent checkout, buffers only — results never depend on which
/// scratch served them. Planning and simulation use the process's pool,
/// [`ScratchPool::process`].
#[derive(Debug, Clone, Default)]
pub struct ScratchPool {
    inner: Arc<Mutex<Pool>>,
}

/// The parked scratches and how many the pool has ever created.
#[derive(Debug, Default)]
struct Pool {
    free: Vec<PlannerScratch>,
    created: u64,
}

impl ScratchPool {
    /// Creates an empty pool. Scratches are created lazily on first checkout.
    /// Everything in the workspace plans and simulates on
    /// [`ScratchPool::process`]; a pool of one's own is for tests of the
    /// buffer contract.
    pub fn new() -> Self {
        Self::default()
    }

    /// The process's one pool, which every pack, certificate sweep and
    /// simulated run checks its buffers out of.
    pub fn process() -> &'static ScratchPool {
        static PROCESS: OnceLock<ScratchPool> = OnceLock::new();
        PROCESS.get_or_init(ScratchPool::new)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Pool> {
        self.inner.lock().expect("pool lock poisoned")
    }

    /// How many scratches the pool has created since it was made: its peak
    /// concurrent checkouts, whatever the number of checkouts.
    pub fn created(&self) -> u64 {
        self.lock().created
    }

    /// Checks a scratch out of the pool (reusing a warm one when available),
    /// returning a guard that hands it back on drop.
    pub fn checkout(&self) -> ScratchGuard<'_> {
        let mut pool = self.lock();
        let scratch = pool.free.pop().unwrap_or_else(|| {
            pool.created += 1;
            PlannerScratch::default()
        });
        ScratchGuard {
            pool: &self.inner,
            scratch: Some(scratch),
        }
    }
}

/// A [`PlannerScratch`] checked out of a [`ScratchPool`]; derefs to the
/// scratch and returns it to the pool on drop.
#[derive(Debug)]
pub struct ScratchGuard<'a> {
    pool: &'a Mutex<Pool>,
    scratch: Option<PlannerScratch>,
}

impl Deref for ScratchGuard<'_> {
    type Target = PlannerScratch;
    fn deref(&self) -> &PlannerScratch {
        self.scratch.as_ref().expect("present until drop")
    }
}

impl DerefMut for ScratchGuard<'_> {
    fn deref_mut(&mut self) -> &mut PlannerScratch {
        self.scratch.as_mut().expect("present until drop")
    }
}

impl Drop for ScratchGuard<'_> {
    fn drop(&mut self) {
        if let Some(scratch) = self.scratch.take() {
            if let Ok(mut pool) = self.pool.lock() {
                pool.free.push(scratch);
            }
        }
    }
}

/// Which link class TreeGen packs trees over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum LinkSelection {
    /// NVLink / NVSwitch links only (the default — what Blink uses unless the
    /// hybrid planner explicitly adds a PCIe tree set).
    NvLinkOnly,
    /// PCIe links only (used by the hybrid planner after disabling peer
    /// access).
    PcieOnly,
}

impl LinkSelection {
    /// Whether `link` belongs to this link class — the single source of truth
    /// for the class-to-link mapping (used by [`TreeGen`]'s graph construction
    /// and the communicator's spannability gate alike).
    pub fn matches(self, link: &blink_topology::Link) -> bool {
        match self {
            LinkSelection::NvLinkOnly => link.kind.is_nvlink(),
            LinkSelection::PcieOnly => link.kind == LinkKind::Pcie,
        }
    }
}

/// Options for [`TreeGen`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TreeGenOptions {
    /// Which links to pack over.
    pub links: LinkSelection,
    /// MWU packing options.
    pub packing: PackingOptions,
    /// Tree-count minimisation options.
    pub minimize: MinimizeOptions,
}

impl Default for TreeGenOptions {
    fn default() -> Self {
        TreeGenOptions {
            links: LinkSelection::NvLinkOnly,
            packing: PackingOptions::default(),
            minimize: MinimizeOptions::default(),
        }
    }
}

/// The output of TreeGen: a set of weighted spanning trees over the allocated
/// GPUs, plus the certificate rate they were packed against.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TreePlan {
    /// The root every tree originates from.
    pub root: GpuId,
    /// The GPUs spanned.
    pub gpus: Vec<GpuId>,
    /// The packed trees with their weights (GB/s).
    pub trees: Vec<WeightedTree>,
    /// The Edmonds/Lovász optimal broadcast rate for this allocation (GB/s).
    pub optimal_rate_gbps: f64,
    /// Number of trees the raw MWU packing produced before minimisation
    /// (the paper's "181 trees" statistic).
    pub trees_before_minimize: usize,
    /// Which link class the plan uses.
    pub links: LinkSelection,
    /// Diagnostics from the MWU packing run (iterations, termination reason,
    /// and whether [`PackingOptions::max_iterations`] truncated it — callers
    /// should log the latter).
    pub mwu: PackingStats,
}

impl TreePlan {
    /// Total packing rate (GB/s).
    pub fn rate_gbps(&self) -> f64 {
        self.trees.iter().map(|t| t.weight).sum()
    }

    /// Number of trees in the plan.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    /// Splits `bytes` across the trees proportionally to their weights.
    pub fn split_bytes(&self, bytes: u64) -> Vec<u64> {
        TreePacking::new(self.root, self.trees.clone()).split_bytes(bytes)
    }

    /// The deepest tree in the plan (bounds pipeline fill latency).
    pub fn max_depth(&self) -> usize {
        self.trees.iter().map(|t| t.tree.depth()).max().unwrap_or(0)
    }

    /// Whether two plans are **bit-identical**: every field equal, with
    /// floating-point weights and rates compared by bit pattern rather than
    /// numeric equality. This is the determinism contract the shared plan
    /// cache and its relabelled hits promise (and the comparison the
    /// regression suites pin it with) — stricter than a `PartialEq` would
    /// be, since `0.0 == -0.0` and NaN inequality have no place in a
    /// reproducibility check.
    pub fn bit_eq(&self, other: &TreePlan) -> bool {
        self.root == other.root
            && self.gpus == other.gpus
            && self.links == other.links
            && self.trees_before_minimize == other.trees_before_minimize
            && self.mwu == other.mwu
            && self.optimal_rate_gbps.to_bits() == other.optimal_rate_gbps.to_bits()
            && self.trees.len() == other.trees.len()
            && self
                .trees
                .iter()
                .zip(&other.trees)
                .all(|(a, b)| a.tree == b.tree && a.weight.to_bits() == b.weight.to_bits())
    }
}

/// The TreeGen stage: owns the induced topology for one job and produces
/// [`TreePlan`]s for requested roots.
///
/// Every plan checks its buffers out of [`ScratchPool::process`] (buffer
/// reuse, not state: scratch contents never affect results — see the
/// bit-identical regression test in `tests/properties.rs`). A TreeGen is
/// `Sync`: [`TreeGen::plan`] may be called from several threads at once,
/// each call checking its own scratch out of the pool.
#[derive(Debug, Clone)]
pub struct TreeGen {
    topology: Topology,
    options: TreeGenOptions,
}

impl TreeGen {
    /// Creates a TreeGen over the (already induced) topology of a job's
    /// allocation.
    pub fn new(topology: Topology, options: TreeGenOptions) -> Self {
        TreeGen { topology, options }
    }

    /// The induced topology this TreeGen plans over.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    fn graph(&self) -> PlanningGraph {
        planning_graph(&self.topology, self.options.links)
    }

    /// Whether a spanning tree rooted at `root` exists over the selected link
    /// class (if not, callers fall back to PCIe or hybrid strategies).
    pub fn can_span(&self, root: GpuId) -> bool {
        let g = self.graph().graph;
        match g.node(root) {
            Some(idx) => g.spans_from(idx),
            None => false,
        }
    }

    /// Plans the trees of a broadcast/reduce root: exactly on a lane graph
    /// (see the module docs), and otherwise by MWU packing and
    /// minimisation.
    ///
    /// # Errors
    /// Fails when the root is not in the allocation or the selected link class
    /// cannot span the allocation.
    pub fn plan(&self, root: GpuId) -> Result<TreePlan> {
        plan_over(&self.graph(), &self.options, root)
    }
}

/// The graph TreeGen packs over, and its lane when it is a lane graph.
#[derive(Debug)]
pub(crate) struct PlanningGraph {
    /// `topology`'s links of one class, parallel links pooled, with every
    /// GPU a node in topology order.
    pub(crate) graph: DiGraph,
    /// The graph's lane ([`lane_unit`]) when its plans pack exactly: an
    /// NVLink graph of at most [`LANE_MAX_NODES`] GPUs with no switch-port
    /// cap (a DGX-2's NVSwitch ports cap what a GPU sends in all, so its
    /// graph is no plain lane graph), every pooled pair capacity a whole
    /// number of lanes.
    pub(crate) lane: Option<f64>,
}

/// The `links` planning graph of `topology`.
fn planning_graph(topology: &Topology, links: LinkSelection) -> PlanningGraph {
    let graph = DiGraph::from_topology_filtered(topology, |l| links.matches(l));
    let uncapped = topology
        .gpus()
        .iter()
        .all(|g| topology.gpu_cap(g.id).is_none());
    let small = graph.num_nodes() <= LANE_MAX_NODES;
    let lane = (links == LinkSelection::NvLinkOnly && uncapped && small)
        .then(|| lane_unit(&graph))
        .flatten();
    PlanningGraph { graph, lane }
}

/// The planning graphs of one induced topology, one per link class, each
/// built on its first use: a holder kept per shape builds each graph at
/// most once, and a caller whose plans all hit a store builds none.
#[derive(Debug, Default)]
pub(crate) struct PlanningGraphs {
    nvlink: OnceLock<PlanningGraph>,
    pcie: OnceLock<PlanningGraph>,
}

impl PlanningGraphs {
    /// The `links` graph of `induced`, the topology every earlier call
    /// passed.
    pub(crate) fn get(&self, induced: &Topology, links: LinkSelection) -> &PlanningGraph {
        let cell = match links {
            LinkSelection::NvLinkOnly => &self.nvlink,
            LinkSelection::PcieOnly => &self.pcie,
        };
        cell.get_or_init(|| planning_graph(induced, links))
    }
}

/// The one planning body behind [`TreeGen::plan`] and the plan store's
/// packs, over `g` (the `options.links` graph of the induced topology): the
/// closed form where it applies, then the exact lane packing on a lane
/// graph, whatever the MWU options (they do not apply to it), and otherwise
/// MWU packing and minimisation.
pub(crate) fn plan_over(
    g: &PlanningGraph,
    options: &TreeGenOptions,
    root: GpuId,
) -> Result<TreePlan> {
    let defaults = *options
        == TreeGenOptions {
            links: options.links,
            ..TreeGenOptions::default()
        };
    let (g, lane) = (&g.graph, g.lane);
    let gpus = g.gpus().to_vec();
    if gpus.len() == 1 {
        return Ok(TreePlan {
            root,
            gpus,
            trees: Vec::new(),
            optimal_rate_gbps: 0.0,
            trees_before_minimize: 0,
            links: options.links,
            mwu: PackingStats::trivial(),
        });
    }
    let mut guard = ScratchPool::process().checkout();
    let scratch = &mut *guard;
    // A plan written down without MWU: its trees, the unit trees before
    // identical ones merged, and its certificate.
    let unpacked = |trees: Vec<WeightedTree>, before: usize, optimal: f64| TreePlan {
        root,
        gpus: gpus.clone(),
        optimal_rate_gbps: optimal,
        trees_before_minimize: before,
        links: options.links,
        mwu: PackingStats {
            distinct_trees: trees.len(),
            termination: PackingTermination::Exact,
            certificate_gbps: optimal,
            ..PackingStats::trivial()
        },
        trees,
    };
    if let Some(capacity) = closed_form(g, defaults, root) {
        let trees = relay_trees(&gpus, root, capacity);
        let optimal = optimal_broadcast_rate_in(g, 0, &mut scratch.certificate);
        let mut plan = unpacked(trees, gpus.len() - 1, optimal);
        plan.mwu.termination = PackingTermination::Certificate;
        return Ok(plan);
    }
    if let (Some(unit), Some(r)) = (lane, g.node(root)) {
        if !g.spans_from(r) {
            return Err(BlinkError::Planning(PackingError::Unreachable.to_string()));
        }
        let optimal = optimal_broadcast_rate_in(g, r, &mut scratch.certificate);
        if let Some(k) = whole_lanes(optimal, unit) {
            let (packing, stats) = pack_lanes_in(g, root, unit, k, &mut scratch.lanes)
                .map_err(|e| BlinkError::Planning(e.to_string()))?;
            return Ok(unpacked(packing.trees, stats.lane_trees, optimal));
        }
    }
    let opts = &options.packing;
    let (packing, stats) = pack_spanning_trees_in(g, root, opts, &mut scratch.packing)
        .map_err(|e| BlinkError::Planning(e.to_string()))?;
    // The packing already computed the Edmonds/Lovász certificate for its
    // early exit; reuse it instead of recomputing it — both here and
    // inside the minimisation, which would otherwise solve the same cut
    // problem a second time.
    let optimal = stats.certificate_gbps;
    let before = packing.num_trees();
    let minimize = MinimizeOptions {
        // an explicitly configured optimum wins; otherwise forward the
        // certificate the packing just computed
        known_optimum: options.minimize.known_optimum.or(Some(optimal)),
        ..options.minimize
    };
    let final_packing = minimize_trees_in(g, &packing, &minimize, &mut scratch.minimize);
    Ok(TreePlan {
        root,
        gpus,
        trees: final_packing.trees,
        optimal_rate_gbps: optimal,
        trees_before_minimize: before,
        links: options.links,
        mwu: stats,
    })
}

/// The capacity of every edge when a plan from `root` has a closed
/// form: `g` is a complete uniform digraph ([`complete_uniform_capacity`]),
/// `root` is its first node and its GPUs ascend (so it is the smallest GPU),
/// and the options are the `defaults`, under which MWU packing plus
/// minimisation returns the relay trees ([`relay_trees`]) bit for bit.
/// `None` otherwise.
fn closed_form(g: &DiGraph, defaults: bool, root: GpuId) -> Option<f64> {
    let first = g.gpus().first() == Some(&root);
    let ascending = g.gpus().windows(2).all(|w| w[0] < w[1]);
    if !defaults || !first || !ascending {
        return None;
    }
    complete_uniform_capacity(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use blink_topology::presets::{dgx1p, dgx1v, dgx2};

    fn induced(topo: &Topology, ids: &[usize]) -> Topology {
        let alloc: Vec<GpuId> = ids.iter().map(|&i| GpuId(i)).collect();
        topo.induced(&alloc).unwrap()
    }

    #[test]
    fn full_dgx1v_plan_recovers_six_trees() {
        let topo = induced(&dgx1v(), &[0, 1, 2, 3, 4, 5, 6, 7]);
        let tg = TreeGen::new(topo, TreeGenOptions::default());
        let plan = tg.plan(GpuId(0)).unwrap();
        assert_eq!(plan.num_trees(), 6);
        assert!((plan.rate_gbps() - 138.0).abs() < 1.0);
        assert!((plan.optimal_rate_gbps - 138.0).abs() < 1e-6);
        assert!(plan.trees_before_minimize >= plan.num_trees());
        assert!(plan.max_depth() >= 1);
        // all trees share the requested root
        assert!(plan.trees.iter().all(|t| t.tree.root == GpuId(0)));
    }

    #[test]
    fn disconnected_nvlink_allocation_fails_but_pcie_spans() {
        let topo = induced(&dgx1p(), &[1, 4]);
        let tg = TreeGen::new(topo.clone(), TreeGenOptions::default());
        assert!(!tg.can_span(GpuId(1)));
        assert!(tg.plan(GpuId(1)).is_err());
        let tg_pcie = TreeGen::new(
            topo,
            TreeGenOptions {
                links: LinkSelection::PcieOnly,
                ..Default::default()
            },
        );
        assert!(tg_pcie.can_span(GpuId(1)));
        let plan = tg_pcie.plan(GpuId(1)).unwrap();
        assert!(plan.rate_gbps() > 0.0);
        assert_eq!(plan.links, LinkSelection::PcieOnly);
    }

    #[test]
    fn single_gpu_plan_is_empty() {
        let topo = induced(&dgx1v(), &[3]);
        let tg = TreeGen::new(topo, TreeGenOptions::default());
        let plan = tg.plan(GpuId(3)).unwrap();
        assert_eq!(plan.num_trees(), 0);
        assert_eq!(plan.rate_gbps(), 0.0);
        assert_eq!(plan.split_bytes(100), Vec::<u64>::new());
    }

    #[test]
    fn scratch_pool_reuses_warm_scratches() {
        let pool = ScratchPool::new();
        assert_eq!(pool.created(), 0);
        {
            let _a = pool.checkout();
            let _b = pool.checkout(); // concurrent checkout grows the pool
        }
        assert_eq!(pool.created(), 2);
        {
            let _a = pool.checkout();
            let _b = pool.checkout();
        }
        assert_eq!(pool.created(), 2, "checkouts reuse warm scratches");
        {
            let _a = pool.checkout();
            let _b = pool.checkout();
            let _c = pool.checkout(); // past the peak: one more
        }
        assert_eq!(pool.created(), 3);
    }

    #[test]
    fn only_a_default_plan_from_the_smallest_gpu_is_closed_form() {
        let topo = induced(&dgx2(), &[2, 5, 6, 11, 13]);
        let cold = TreeGen::new(topo.clone(), TreeGenOptions::default());
        let plan = cold.plan(GpuId(2)).unwrap();
        assert_eq!((plan.mwu.iterations, plan.num_trees()), (0, 4));
        // another root and non-default options run the MWU
        assert!(cold.plan(GpuId(6)).unwrap().mwu.iterations > 0);
        let loose = TreeGenOptions {
            minimize: MinimizeOptions {
                threshold: 0.1,
                ..Default::default()
            },
            ..Default::default()
        };
        let coarse = TreeGenOptions {
            packing: PackingOptions {
                epsilon: 0.1,
                ..Default::default()
            },
            ..Default::default()
        };
        for options in [loose, coarse] {
            let plan = TreeGen::new(topo.clone(), options).plan(GpuId(2)).unwrap();
            assert!(plan.mwu.iterations > 0, "{options:?}");
        }
    }

    #[test]
    fn mwu_options_leave_a_lane_graph_on_the_exact_packer() {
        let topo = induced(&dgx1v(), &[0, 1, 2, 4, 5, 7]);
        let exact = TreeGen::new(topo.clone(), TreeGenOptions::default());
        let exact = exact.plan(GpuId(0)).unwrap();
        let coarse = TreeGenOptions {
            packing: PackingOptions {
                epsilon: 0.1,
                ..Default::default()
            },
            minimize: MinimizeOptions {
                threshold: 0.1,
                ..Default::default()
            },
            ..Default::default()
        };
        let plan = TreeGen::new(topo, coarse).plan(GpuId(0)).unwrap();
        assert_eq!(plan.mwu.termination, PackingTermination::Exact);
        assert_eq!(plan.mwu.iterations, 0);
        assert!(plan.bit_eq(&exact), "{plan:?} vs {exact:?}");
    }

    #[test]
    fn figure4_configuration_packs_three_trees() {
        let topo = induced(&dgx1p(), &[0, 1, 3, 4, 5, 7]);
        let tg = TreeGen::new(topo, TreeGenOptions::default());
        let plan = tg.plan(GpuId(0)).unwrap();
        assert_eq!(plan.num_trees(), 3);
        assert!((plan.rate_gbps() - 57.0).abs() < 1.0);
    }
}
