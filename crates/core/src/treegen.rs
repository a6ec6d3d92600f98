//! TreeGen: from a probed topology to a minimal set of weighted spanning
//! trees (Sections 3.1–3.2 of the paper).
//!
//! Every [`TreeGen`] plans over a [`ScratchPool`] — a thread-safe pool of
//! [`PlannerScratch`] instances, each bundling the reusable MWU packing
//! buffers ([`blink_graph::PackingScratch`]) with the minimisation arenas
//! ([`blink_graph::MinimizeScratch`]) and a standalone certificate scratch for
//! certificate-only sweeps — so repeated `plan` calls (per-root, as in the
//! three-phase multi-server AllReduce) never re-allocate any planning state.
//!
//! ## The pool checkout/return contract
//!
//! Planning used to be single-threaded behind an `Rc<RefCell<_>>` handle; the
//! pool generalises that to any number of workers without giving up the
//! zero-allocation steady state:
//!
//! * [`ScratchPool::checkout`] pops a warm [`PlannerScratch`] (or lazily
//!   creates one the first time a worker asks); the returned guard hands it
//!   back on drop. A single-threaded caller therefore cycles one scratch
//!   through every plan, exactly like the old `RefCell` borrow — no heap
//!   traffic once warm.
//! * The pool is `Send + Sync` (scratches themselves are `Send`, rule 4 of
//!   blink-graph's scratch contract), so [`std::thread::scope`] workers check
//!   out one scratch each and plan concurrently. The pool retains at most one
//!   warm scratch per peak-concurrent worker.
//! * Scratch contents never affect results (rule 1 of the contract), so a
//!   parallel sweep over N roots returns [`TreePlan`]s **bit-identical** to
//!   the sequential sweep at every worker count — pinned by determinism tests
//!   in `tests/properties.rs`.
//!
//! Callers that build several TreeGens over the same job (per-link-class, the
//! per-server planners of the three-phase AllReduce, the communicator's
//! autotune loop) pass one shared pool to [`TreeGen::with_scratch`] so all of
//! them draw from a single set of buffers; [`crate::autotune`] builds on this
//! to also memoise whole plans, within and across communicators.

use crate::{BlinkError, Result};
use blink_graph::{
    minimize_trees_in, minimize_trees_warm_in, pack_spanning_trees_in, pack_spanning_trees_warm_in,
    DiGraph, MaxFlowScratch, MinimizeOptions, MinimizeScratch, PackingOptions, PackingScratch,
    PackingStats, TreePacking, WeightedTree,
};
use blink_topology::{GpuId, LinkKind, Topology};
use serde::{Deserialize, Serialize};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// The full set of reusable planning buffers one TreeGen pipeline needs: the
/// MWU packing scratch, the tree-minimisation scratch (which embeds a
/// certificate scratch) and a standalone certificate scratch for
/// certificate-only root sweeps.
/// Buffer reuse only — contents never affect results (see the bit-identical
/// regression tests in `tests/properties.rs`).
#[derive(Debug, Clone, Default)]
pub struct PlannerScratch {
    /// MWU packing buffers (arborescence arena, lengths, tree accumulator).
    pub packing: PackingScratch,
    /// Minimisation buffers (branch-and-bound stack, greedy peel, certificate).
    pub minimize: MinimizeScratch,
    /// Certificate buffers for certificate-only sweeps (the communicator's
    /// root-picking pass), so they reuse pool scratches too.
    pub certificate: MaxFlowScratch,
}

impl PlannerScratch {
    /// Creates an empty scratch. Buffers are sized lazily on first plan.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A thread-safe pool of [`PlannerScratch`] instances with checkout/return
/// semantics, plus the worker count parallel sweeps over it use.
///
/// Cloning the pool handle shares the underlying scratches (and the worker
/// count). See the module docs for the checkout/return contract; the short
/// version is: one scratch per concurrent worker, buffers only — results are
/// bit-identical at every worker count.
#[derive(Debug, Clone)]
pub struct ScratchPool {
    shared: Arc<PoolShared>,
}

#[derive(Debug)]
struct PoolShared {
    workers: usize,
    free: Mutex<Vec<PlannerScratch>>,
}

impl Default for ScratchPool {
    fn default() -> Self {
        Self::new()
    }
}

impl ScratchPool {
    /// Creates an empty pool sized for this machine: parallel sweeps use one
    /// worker per available core, capped at 16 — the widest root sweep any
    /// supported topology produces (all 16 roots of a DGX-2); beyond that
    /// extra workers would only idle. Scratches are created lazily on first
    /// checkout.
    pub fn new() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(16);
        Self::with_workers(workers)
    }

    /// Creates an empty pool whose parallel sweeps use exactly
    /// `workers.max(1)` workers. `with_workers(1)` is the sequential path:
    /// every plan cycles through the same single warm scratch.
    pub fn with_workers(workers: usize) -> Self {
        ScratchPool {
            shared: Arc::new(PoolShared {
                workers: workers.max(1),
                free: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The worker count parallel sweeps over this pool use.
    pub fn workers(&self) -> usize {
        self.shared.workers
    }

    /// Number of warm scratches currently parked in the pool (diagnostics;
    /// equals the peak number of concurrent checkouts seen so far when
    /// nothing is checked out).
    pub fn warm(&self) -> usize {
        self.shared.free.lock().expect("pool lock poisoned").len()
    }

    /// Checks a scratch out of the pool (reusing a warm one when available),
    /// returning a guard that hands it back on drop.
    pub fn checkout(&self) -> ScratchGuard<'_> {
        let scratch = self
            .shared
            .free
            .lock()
            .expect("pool lock poisoned")
            .pop()
            .unwrap_or_default();
        ScratchGuard {
            pool: &self.shared,
            scratch: Some(scratch),
        }
    }
}

/// A [`PlannerScratch`] checked out of a [`ScratchPool`]; derefs to the
/// scratch and returns it to the pool on drop.
#[derive(Debug)]
pub struct ScratchGuard<'a> {
    pool: &'a PoolShared,
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
            if let Ok(mut free) = self.pool.free.lock() {
                free.push(scratch);
            }
        }
    }
}

/// Maps `tasks` through `f`, fanning out over up to `workers` scoped threads
/// (capped at the task count). Results come back in task order; with one
/// worker or one task the whole thing runs inline with no thread spawned.
///
/// The work distribution (an atomic cursor) is racy by design, but callers
/// only ever pass pure-per-task functions — each result depends on its task
/// alone, never on which worker ran it — so the output is deterministic.
/// Panics in `f` propagate to the caller when the scope joins.
pub fn parallel_map<T, R, F>(tasks: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = tasks.len();
    if workers <= 1 || n <= 1 {
        return tasks.into_iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let f = &f;
    std::thread::scope(|scope| {
        for _ in 0..workers.min(n) {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let task = slots[i]
                    .lock()
                    .expect("slot lock poisoned")
                    .take()
                    .expect("each slot is claimed exactly once");
                let out = f(task);
                *results[i].lock().expect("result lock poisoned") = Some(out);
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result lock poisoned")
                .expect("every slot was filled")
        })
        .collect()
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
    /// Skip the minimisation step (used by ablation benchmarks to quantify
    /// what Section 3.2.1 buys).
    pub skip_minimize: bool,
}

impl Default for TreeGenOptions {
    fn default() -> Self {
        TreeGenOptions {
            links: LinkSelection::NvLinkOnly,
            packing: PackingOptions::default(),
            minimize: MinimizeOptions::default(),
            skip_minimize: false,
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
    /// numeric equality. This is the determinism contract the parallel
    /// sweeps and the shared plan cache promise (and the comparison the
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
/// Cloning a TreeGen shares its packing scratch pool (buffer reuse, not
/// state: scratch contents never affect results — see the bit-identical
/// regression test in `tests/properties.rs`). A TreeGen is `Sync`:
/// [`TreeGen::plan`] may be called from several threads at once, each call
/// checking its own scratch out of the pool — [`TreeGen::plan_roots`] does
/// exactly that.
#[derive(Debug, Clone)]
pub struct TreeGen {
    topology: Topology,
    options: TreeGenOptions,
    scratch: ScratchPool,
}

impl TreeGen {
    /// Creates a TreeGen over the (already induced) topology of a job's
    /// allocation, with its own packing scratch.
    pub fn new(topology: Topology, options: TreeGenOptions) -> Self {
        Self::with_scratch(topology, options, ScratchPool::new())
    }

    /// Creates a TreeGen that packs over caller-provided scratch buffers, so
    /// several TreeGens (e.g. one per link class, or the hybrid planner's
    /// pair) share one set of allocations.
    pub fn with_scratch(topology: Topology, options: TreeGenOptions, scratch: ScratchPool) -> Self {
        TreeGen {
            topology,
            options,
            scratch,
        }
    }

    /// The packing scratch this TreeGen plans with (clone the handle to share
    /// it with further TreeGens).
    pub fn scratch(&self) -> &ScratchPool {
        &self.scratch
    }

    /// The induced topology this TreeGen plans over.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    fn graph(&self) -> DiGraph {
        let links = self.options.links;
        DiGraph::from_topology_filtered(&self.topology, |l| links.matches(l))
    }

    /// Whether a spanning tree rooted at `root` exists over the selected link
    /// class (if not, callers fall back to PCIe or hybrid strategies).
    pub fn can_span(&self, root: GpuId) -> bool {
        let g = self.graph();
        match g.node(root) {
            Some(idx) => g.spans_from(idx),
            None => false,
        }
    }

    /// Runs packing + minimisation for a broadcast/reduce root.
    ///
    /// # Errors
    /// Fails when the root is not in the allocation or the selected link class
    /// cannot span the allocation.
    pub fn plan(&self, root: GpuId) -> Result<TreePlan> {
        self.plan_seeded(root, None)
    }

    /// [`TreeGen::plan`] warm-started from a stale plan — the incremental
    /// replanning path after a topology delta.
    ///
    /// The stale plan's (minimised) trees seed the MWU packing — surviving
    /// trees keep their rates, trees over dead links or vertices are
    /// deterministically repaired ([`pack_spanning_trees_warm_in`]) — and its
    /// selection seeds the minimisation's branch-and-bound incumbent
    /// ([`minimize_trees_warm_in`]). On a small delta the packing typically
    /// converges in zero MWU iterations, making a warm plan build cost little
    /// more than one certificate.
    ///
    /// Falls back to a cold [`TreeGen::plan`] when the stale plan cannot seed
    /// this one (different root or link class). The result always satisfies
    /// the same `(1 − ε)`-of-certificate guarantee as a cold plan, and its
    /// rate is never worse than the cold plan's minimised rate on the same
    /// topology.
    ///
    /// # Errors
    /// Same as [`TreeGen::plan`].
    pub fn plan_warm(&self, root: GpuId, warm: &TreePlan) -> Result<TreePlan> {
        if warm.root != root || warm.links != self.options.links || warm.trees.is_empty() {
            return self.plan(root);
        }
        self.plan_seeded(root, Some(&TreePacking::new(root, warm.trees.clone())))
    }

    /// The one planning body behind [`TreeGen::plan`] (`warm == None`) and
    /// [`TreeGen::plan_warm`]: packing, then minimisation, each seeded from
    /// `warm` when given.
    fn plan_seeded(&self, root: GpuId, warm: Option<&TreePacking>) -> Result<TreePlan> {
        let g = self.graph();
        let gpus = self.topology.gpu_ids();
        if gpus.len() == 1 {
            return Ok(TreePlan {
                root,
                gpus,
                trees: Vec::new(),
                optimal_rate_gbps: 0.0,
                trees_before_minimize: 0,
                links: self.options.links,
                mwu: PackingStats::trivial(),
            });
        }
        let mut guard = self.scratch.checkout();
        let scratch = &mut *guard;
        let opts = &self.options.packing;
        let (packing, stats) = match warm {
            Some(w) => pack_spanning_trees_warm_in(&g, root, opts, &mut scratch.packing, w),
            None => pack_spanning_trees_in(&g, root, opts, &mut scratch.packing),
        }
        .map_err(|e| BlinkError::Planning(e.to_string()))?;
        // The packing already computed the Edmonds/Lovász certificate for its
        // early exit; reuse it instead of recomputing it — both here and
        // inside the minimisation, which would otherwise solve the same cut
        // problem a second time.
        let optimal = stats.certificate_gbps;
        let before = packing.num_trees();
        let final_packing = if self.options.skip_minimize {
            packing
        } else {
            let minimize = MinimizeOptions {
                // an explicitly configured optimum wins; otherwise forward
                // the certificate the packing just computed
                known_optimum: self.options.minimize.known_optimum.or(Some(optimal)),
                ..self.options.minimize
            };
            match warm {
                Some(w) => {
                    minimize_trees_warm_in(&g, &packing, &minimize, &mut scratch.minimize, w)
                }
                None => minimize_trees_in(&g, &packing, &minimize, &mut scratch.minimize),
            }
        };
        Ok(TreePlan {
            root,
            gpus,
            trees: final_packing.trees,
            optimal_rate_gbps: optimal,
            trees_before_minimize: before,
            links: self.options.links,
            mwu: stats,
        })
    }

    /// Plans every root of `roots`, fanning the (embarrassingly parallel)
    /// per-root packings out over the scratch pool's workers. Plans come back
    /// in `roots` order and are bit-identical to calling [`TreeGen::plan`]
    /// sequentially, at every worker count.
    ///
    /// # Errors
    /// Fails if any root is not in the allocation or cannot span it; the
    /// first failing root (in `roots` order) wins, like a sequential sweep.
    pub fn plan_roots(&self, roots: &[GpuId]) -> Result<Vec<TreePlan>> {
        parallel_map(roots.to_vec(), self.scratch.workers(), |root| {
            self.plan(root)
        })
        .into_iter()
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blink_topology::presets::{dgx1p, dgx1v};

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
    fn skip_minimize_keeps_the_raw_packing() {
        let topo = induced(&dgx1v(), &[0, 1, 2, 3, 4, 5, 6, 7]);
        let tg = TreeGen::new(
            topo,
            TreeGenOptions {
                skip_minimize: true,
                ..Default::default()
            },
        );
        let plan = tg.plan(GpuId(0)).unwrap();
        // the raw MWU packing uses many more trees than the minimised one
        assert!(plan.num_trees() > 6, "got {}", plan.num_trees());
        assert!(plan.rate_gbps() > 0.85 * plan.optimal_rate_gbps);
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
    fn parallel_root_sweep_matches_sequential_at_every_worker_count() {
        let topo = induced(&dgx1v(), &[0, 1, 2, 3, 4, 5, 6, 7]);
        let roots: Vec<GpuId> = (0..8).map(GpuId).collect();
        let sequential = TreeGen::with_scratch(
            topo.clone(),
            TreeGenOptions::default(),
            ScratchPool::with_workers(1),
        )
        .plan_roots(&roots)
        .unwrap();
        assert_eq!(sequential.len(), 8);
        for workers in [2, 4, 8] {
            let parallel = TreeGen::with_scratch(
                topo.clone(),
                TreeGenOptions::default(),
                ScratchPool::with_workers(workers),
            )
            .plan_roots(&roots)
            .unwrap();
            for (a, b) in sequential.iter().zip(&parallel) {
                assert!(a.bit_eq(b), "root {} diverged at {workers} workers", a.root);
            }
        }
    }

    #[test]
    fn scratch_pool_reuses_warm_scratches() {
        let pool = ScratchPool::with_workers(1);
        assert_eq!(pool.workers(), 1);
        assert_eq!(pool.warm(), 0);
        {
            let _a = pool.checkout();
            let _b = pool.checkout(); // concurrent checkout grows the pool
        }
        assert_eq!(pool.warm(), 2);
        {
            let _a = pool.checkout();
            assert_eq!(pool.warm(), 1, "checkout reuses a warm scratch");
        }
        assert_eq!(pool.warm(), 2);
        // worker counts are clamped to at least one
        assert_eq!(ScratchPool::with_workers(0).workers(), 1);
    }

    #[test]
    fn parallel_map_preserves_task_order() {
        let squares = parallel_map((0..100u64).collect(), 8, |i| i * i);
        assert_eq!(squares, (0..100u64).map(|i| i * i).collect::<Vec<_>>());
        // degenerate cases run inline
        assert_eq!(parallel_map(vec![7u64], 8, |i| i + 1), vec![8]);
        assert_eq!(parallel_map(Vec::<u64>::new(), 8, |i| i), Vec::<u64>::new());
    }

    #[test]
    fn plan_roots_surfaces_the_first_failing_root() {
        // GPUs 1 and 4 share no NVLink on the DGX-1P: every root fails, and
        // the parallel sweep must report the error deterministically.
        let topo = induced(&dgx1p(), &[1, 4]);
        let tg = TreeGen::with_scratch(
            topo,
            TreeGenOptions::default(),
            ScratchPool::with_workers(4),
        );
        assert!(tg.plan_roots(&[GpuId(1), GpuId(4)]).is_err());
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
