//! Automatic chunk-size selection (Section 4.2.1, Figure 12) and plan reuse
//! for the tuning loop.
//!
//! The optimal chunk size trades pipeline latency (smaller chunks let a node
//! start forwarding earlier) against per-chunk CUDA launch overhead (each
//! chunk costs at least three CUDA commands). Because training jobs run the
//! same collective thousands of times, Blink tunes the chunk size online with
//! a multiplicative-increase / additive-decrease (MIAD) controller: grow the
//! chunk size geometrically while throughput keeps improving, back off
//! additively once it regresses, and settle into a steady state.
//!
//! # Plan caching: one store, a handle per communicator, two tiers
//!
//! The tuning loop re-issues the same collective over and over while only the
//! chunk size changes — the tree set does not. Plans are memoised at two
//! levels so the MWU packing stays out of that loop entirely:
//!
//! * [`SharedPlanCache`] is the one plan store. Every
//!   [`crate::Communicator`] holds one: an explicit store passed to
//!   [`crate::CommunicatorBuilder::shared_plans`], a private one for
//!   [`crate::CommunicatorBuilder::isolated_plans`], and otherwise the
//!   process-wide [`global_plan_cache`]. The scheduler slices in
//!   `blink-sched` hand many jobs identical allocations, and the store lets
//!   every one of those communicators (and every per-server planner of the
//!   three-phase multi-server AllReduce) reuse the others' packing work.
//! * Each communicator plans through a private handle on its store that
//!   memoises `(root, link class) → plan` for its current induced topology
//!   and options. Only handle misses reach the store, and a handle keeps its
//!   plans even when the store evicts them.
//!
//! The store has two bounded LRU tiers. The *exact* tier keys plans by
//! `(`[`plan_fingerprint`]`, root, link class)` — the fingerprint covers the
//! induced topology and the link-class-normalised options, so equal job
//! shapes hit and anything else misses. The opt-in *canonical* tier keys
//! them by the allocation's canonical form, so topology-isomorphic
//! allocations hit too. A lookup both tiers miss is packed — concurrently
//! across roots, on the caller's [`ScratchPool`] — and published to both.
//!
//! # Delta invalidation and warm seeds
//!
//! When the hardware churns (a flaky NVLink disabled, a GPU cordoned off, a
//! job grown by a server), [`crate::Communicator::replan`] hands the
//! [`TopologyDelta`] to its handle, which, instead of flushing wholesale,
//! demotes exactly the plans the delta can touch: a cached plan survives a
//! pure removal intact when none of its trees' edges and none of its link
//! class's capacity groups intersect the removed links/GPUs, while any
//! intersecting (or additively changed) plan is demoted to a *warm seed*.
//! The next miss for that key hands the seed to [`TreeGen::plan_warm`],
//! whose repair-and-seed pass (`blink-graph`'s warm-start contract)
//! typically reaches the packing certificate with zero MWU iterations. The
//! cache never serves a demoted plan directly — warm seeds only ever enter
//! through the packer, so every plan handed out has been re-certified
//! against the current topology.

use crate::treegen::{parallel_map, LinkSelection, ScratchPool, TreeGen, TreeGenOptions, TreePlan};
use crate::Result;
use blink_graph::{optimal_broadcast_rate, Arborescence, DiGraph, WeightedTree};
use blink_topology::enumerate::canonical_labeling;
use blink_topology::{GpuId, Topology, TopologyDelta};
use serde::{Deserialize, Serialize};
use std::cell::OnceCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// A 64-bit fingerprint of everything (besides the root and link class) a
/// cached [`TreePlan`] depends on: the induced topology's GPUs, links and
/// per-GPU fabric caps, plus the [`TreeGenOptions`] with the link class
/// normalised away (it is part of the cache key instead, so option sets that
/// differ only in link class — the hybrid planner's NVLink/PCIe pair — share
/// one fingerprint).
///
/// Two communicators over topology-identical allocations with equivalent
/// options therefore compute the same fingerprint, which is what lets
/// [`SharedPlanCache`] hand one communicator's plans to the next.
pub fn plan_fingerprint(induced: &Topology, options: &TreeGenOptions) -> u64 {
    let mut h = DefaultHasher::new();
    for g in induced.gpus() {
        g.id.0.hash(&mut h);
        g.server.0.hash(&mut h);
        g.local_index.hash(&mut h);
        induced.gpu_cap(g.id).map(f64::to_bits).hash(&mut h);
    }
    for l in induced.links() {
        l.src.0.hash(&mut h);
        l.dst.0.hash(&mut h);
        l.kind.hash(&mut h);
        l.lanes.hash(&mut h);
        l.bandwidth_gbps.to_bits().hash(&mut h);
    }
    hash_options(options, &mut h);
    h.finish()
}

/// A 64-bit fingerprint of the [`TreeGenOptions`] alone (link class
/// normalised away, exactly as in [`plan_fingerprint`]). The canonical tier
/// keys on `(canonical form, options fingerprint, canonical root)` — the
/// canonical form already captures the topology, so only the options need
/// hashing separately.
fn options_fingerprint(options: &TreeGenOptions) -> u64 {
    let mut h = DefaultHasher::new();
    hash_options(options, &mut h);
    h.finish()
}

/// Feeds every [`TreeGenOptions`] field a plan depends on into `h`, in one
/// fixed order — all of them except the link class, which callers key on
/// separately.
fn hash_options(options: &TreeGenOptions, h: &mut DefaultHasher) {
    options.packing.epsilon.to_bits().hash(h);
    options.packing.max_iterations.hash(h);
    options.minimize.threshold.to_bits().hash(h);
    options.minimize.unit_gbps.map(f64::to_bits).hash(h);
    options.minimize.max_bb_nodes.hash(h);
    options.minimize.known_optimum.map(f64::to_bits).hash(h);
    options.skip_minimize.hash(h);
}

/// Largest allocation the canonical plan-sharing tier will label. The
/// canonical form is computed by brute force over all `n!` labellings
/// (`blink_topology::enumerate::canonical_form`), which is instantaneous up
/// to one server's 8 GPUs and infeasible at a DGX-2's 16 — larger
/// allocations simply skip the canonical tier and rely on exact
/// fingerprints.
pub const CANONICAL_MAX_GPUS: usize = 8;

/// Rewrites every GPU id in `plan` through `map` (a bijection over the
/// plan's GPUs). Weights, rates and diagnostics are untouched: a relabelled
/// plan packs the isomorphic image of the original trees at identical rates,
/// which is exactly why canonical-tier hits are valid for any allocation
/// that realises the canonical shape.
fn relabel_plan(plan: &TreePlan, map: &BTreeMap<GpuId, GpuId>) -> TreePlan {
    let m = |g: GpuId| map[&g];
    let mut gpus: Vec<GpuId> = plan.gpus.iter().map(|&g| m(g)).collect();
    gpus.sort();
    let trees = plan
        .trees
        .iter()
        .map(|t| WeightedTree {
            tree: Arborescence::new(
                m(t.tree.root),
                t.tree.edges.iter().map(|&(a, b)| (m(a), m(b))).collect(),
            ),
            weight: t.weight,
        })
        .collect();
    TreePlan {
        root: m(plan.root),
        gpus,
        trees,
        optimal_rate_gbps: plan.optimal_rate_gbps,
        trees_before_minimize: plan.trees_before_minimize,
        links: plan.links,
        mwu: plan.mwu,
    }
}

/// The plan store shared across communicators (and across the per-server
/// TreeGens of the three-phase multi-server AllReduce): whole
/// [`TreePlan`]s memoised for any number of job shapes at once — that is
/// what lets the many identical allocations a `blink-sched` workload
/// produces reuse each other's packing work instead of re-running MWU per
/// communicator.
///
/// Cloning the handle shares the store. All methods are `&self` and
/// thread-safe. Plans are stored behind [`Arc`], so a hit never re-packs and
/// never copies a tree set.
///
/// # Two bounded tiers
///
/// The **exact** tier keys plans by `(`[`plan_fingerprint`]`, root, link
/// class)` and serves topology-*identical* allocations bit-identically.
///
/// The opt-in **canonical** tier keys them by `(`[`canonical form`]`,
/// options fingerprint, canonical root)` and serves topology-*isomorphic*
/// allocations: the mirror halves of a DGX-1V, every 3-GPU clique of an
/// NVSwitch fabric, the stride subgroups of a process-group split. Plans are
/// stored relabelled into canonical ids `0..n` and relabelled back through
/// the looking-up allocation's [`canonical_labeling`] witness on a hit, so a
/// hit is an isomorphic image of the published plan — same weights, same
/// certified rate, valid for the new allocation, but *not* bit-identical to
/// what a cold pack on that allocation would produce (the MWU trajectory
/// depends on labels). The tier is restricted to NVLink-only plans of at
/// most [`CANONICAL_MAX_GPUS`] GPUs: the canonical form covers exactly the
/// NVLink capacity matrix (NVLink packing reads nothing else), and the
/// brute-force labelling is infeasible past one server. Canonical entries
/// are shape-intrinsic — a looking-up communicator just *recomputed* the
/// canonical form from its live induced topology, proving its hardware
/// realises the shape — so unlike the exact tier they are never flushed by
/// fingerprint changes or deltas. Communicators opt in through
/// [`crate::CommunicatorBuilder::canonical_plan_sharing`].
///
/// Each tier holds at most [`SharedPlanCache::DEFAULT_CAPACITY`] plans and
/// evicts its least-recently-used entry when an insert would exceed the
/// bound, so a long-running scheduler whose workload mix turns over no
/// longer grows one entry per job shape forever. The tiers keep separate
/// bounds and counters, so canonical churn never evicts exact plans or vice
/// versa. Eviction only ever costs a re-pack: lookups are keyed by the
/// caller's current fingerprint, so correctness is never at stake.
///
/// [`canonical form`]: blink_topology::enumerate::canonical_form
#[derive(Debug, Clone, Default)]
pub struct SharedPlanCache {
    inner: Arc<Mutex<Tiers>>,
}

#[derive(Debug)]
struct Tiers {
    exact: Tier<(u64, GpuId, LinkSelection)>,
    /// `(canonical form, options fingerprint, canonical root index)` → plan
    /// relabelled into canonical ids.
    canonical: Tier<(String, u64, usize)>,
}

impl Default for Tiers {
    fn default() -> Self {
        Tiers {
            exact: Tier::new(SharedPlanCache::DEFAULT_CAPACITY),
            canonical: Tier::new(SharedPlanCache::DEFAULT_CAPACITY),
        }
    }
}

/// One bounded LRU tier of the store: key → (plan, last-touched tick), with
/// its own hit, miss and eviction counters. A hit refreshes the entry's
/// recency; an insert past `capacity` evicts the least-recently-used entry.
/// The O(n) scan per eviction is deliberate: capacities are small (plans
/// are megabyte-scale, not millions of entries) and eviction only happens on
/// inserts past the cap.
#[derive(Debug)]
struct Tier<K> {
    entries: BTreeMap<K, (Arc<TreePlan>, u64)>,
    /// Monotonic access counter feeding the recency ticks.
    tick: u64,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: Ord + Clone> Tier<K> {
    fn new(capacity: usize) -> Self {
        Tier {
            entries: BTreeMap::new(),
            tick: 0,
            capacity,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Looks `key` up, counting a hit or a miss.
    fn get(&mut self, key: &K) -> Option<Arc<TreePlan>> {
        self.tick += 1;
        match self.entries.get_mut(key) {
            Some((plan, last_used)) => {
                *last_used = self.tick;
                self.hits += 1;
                Some(plan.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Stores `plan`, evicting least-recently-used entries past the bound.
    /// Two workers racing to plan the same key simply overwrite each other
    /// with equivalent plans (planning is a pure function of the keyed
    /// inputs).
    fn insert(&mut self, key: K, plan: Arc<TreePlan>) {
        self.tick += 1;
        self.entries.insert(key, (plan, self.tick));
        while self.entries.len() > self.capacity {
            let oldest = self
                .entries
                .iter()
                .min_by_key(|(_, (_, last_used))| *last_used)
                .map(|(k, _)| k.clone())
                .expect("non-empty tier over capacity");
            self.entries.remove(&oldest);
            self.evictions += 1;
        }
    }
}

impl SharedPlanCache {
    /// Maximum number of memoised plans per tier. Sized for a scheduler
    /// fleet: a job shape costs one entry per (root, link class) it plans,
    /// so this comfortably holds hundreds of distinct shapes while bounding a
    /// pathological churn workload to a few thousand small tree sets.
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, Tiers> {
        self.inner.lock().expect("shared plan cache poisoned")
    }

    /// Number of plans memoised in the exact tier (across all fingerprints).
    pub fn len(&self) -> usize {
        self.lock().exact.entries.len()
    }

    /// Whether the exact tier is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses)` counters of the exact tier since creation.
    pub fn stats(&self) -> (u64, u64) {
        let tiers = self.lock();
        (tiers.exact.hits, tiers.exact.misses)
    }

    /// `(hits, misses)` counters of the canonical tier since creation.
    pub fn canonical_stats(&self) -> (u64, u64) {
        let tiers = self.lock();
        (tiers.canonical.hits, tiers.canonical.misses)
    }

    /// How many plans the LRU bounds have evicted from either tier since
    /// creation. Delta and fingerprint invalidation do not count: evictions
    /// measure capacity pressure, not policy flushes.
    pub fn evictions(&self) -> u64 {
        let tiers = self.lock();
        tiers.exact.evictions + tiers.canonical.evictions
    }

    /// The one lookup-or-pack-and-publish routine. Each `(induced, fp, root)`
    /// request is looked up in the exact tier and then, when `canonical` is
    /// given, in the canonical tier. The requests both tiers miss are packed
    /// concurrently on `scratch`'s workers — warm from `seed(root)` when it
    /// yields a stale plan — and every fresh pack is published to both tiers
    /// in request order. Results come back in request order, bit-identical
    /// at every worker count; failed packs are returned, not cached.
    pub(crate) fn resolve(
        &self,
        options: &TreeGenOptions,
        requests: &[(&Topology, u64, GpuId)],
        scratch: &ScratchPool,
        canonical: Option<&Canonical<'_>>,
        mut seed: impl FnMut(GpuId) -> Option<Arc<TreePlan>>,
    ) -> Vec<Result<Arc<TreePlan>>> {
        let links = options.links;
        let mut resolved: Vec<Option<Result<Arc<TreePlan>>>> = Vec::with_capacity(requests.len());
        let mut misses = Vec::new();
        for (i, &(_, fp, root)) in requests.iter().enumerate() {
            let exact = self.lock().exact.get(&(fp, root, links));
            let hit = exact.or_else(|| canonical.and_then(|c| c.get(self, root)));
            if hit.is_none() {
                misses.push((i, seed(root)));
            }
            resolved.push(hit.map(Ok));
        }
        let packed = parallel_map(misses, scratch.workers(), |(i, seed)| {
            let (induced, _, root) = requests[i];
            let tg = TreeGen::with_scratch(induced.clone(), *options, scratch.clone());
            let plan = match seed {
                Some(seed) => tg.plan_warm(root, &seed),
                None => tg.plan(root),
            };
            (i, plan.map(Arc::new))
        });
        for (i, plan) in packed {
            if let Ok(plan) = &plan {
                let (_, fp, root) = requests[i];
                self.lock().exact.insert((fp, root, links), plan.clone());
                if let Some(c) = canonical {
                    c.publish(self, root, plan);
                }
            }
            resolved[i] = Some(plan);
        }
        resolved
            .into_iter()
            .map(|r| r.expect("every request is either a hit or packed"))
            .collect()
    }

    /// Moves every exact-tier plan memoised under fingerprint `old` to `new`
    /// where `keep` holds and drops the rest (recency is kept). Canonical
    /// entries are shape-intrinsic and never touched.
    fn retarget(&self, old: u64, new: u64, keep: impl Fn(&TreePlan) -> bool) {
        let mut tiers = self.lock();
        let stale: Vec<(u64, GpuId, LinkSelection)> = tiers
            .exact
            .entries
            .keys()
            .filter(|(fp, _, _)| *fp == old)
            .copied()
            .collect();
        for key in stale {
            let entry = tiers.exact.entries.remove(&key).expect("key just listed");
            if keep(&entry.0) {
                tiers.exact.entries.insert((new, key.1, key.2), entry);
            }
        }
    }
}

/// The canonical-tier view of one allocation, consulted when the exact tier
/// misses. The labelling (brute force over `n!` permutations) is computed on
/// first use and memoised in the handle's cell.
pub(crate) struct Canonical<'a> {
    induced: &'a Topology,
    options_fp: u64,
    labelling: &'a OnceCell<Option<(String, Vec<GpuId>)>>,
}

impl Canonical<'_> {
    /// The allocation's canonical form and its witness: `order[i]` plays
    /// canonical role `i`.
    fn labelling(&self) -> Option<&(String, Vec<GpuId>)> {
        self.labelling
            .get_or_init(|| canonical_labeling(self.induced, &self.induced.gpu_ids()).ok())
            .as_ref()
    }

    /// Looks up the plan published for `root`'s canonical role by any
    /// isomorphic allocation, relabelled into this allocation's ids.
    fn get(&self, store: &SharedPlanCache, root: GpuId) -> Option<Arc<TreePlan>> {
        let (form, order) = self.labelling()?;
        let role = order.iter().position(|&g| g == root)?;
        let hit = store
            .lock()
            .canonical
            .get(&(form.clone(), self.options_fp, role))?;
        let map = order
            .iter()
            .enumerate()
            .map(|(i, &g)| (GpuId(i), g))
            .collect();
        Some(Arc::new(relabel_plan(&hit, &map)))
    }

    /// Publishes a fresh pack for `root` relabelled into canonical ids.
    fn publish(&self, store: &SharedPlanCache, root: GpuId, plan: &TreePlan) {
        let Some((form, order)) = self.labelling() else {
            return;
        };
        let Some(role) = order.iter().position(|&g| g == root) else {
            return;
        };
        let map = order
            .iter()
            .enumerate()
            .map(|(i, &g)| (g, GpuId(i)))
            .collect();
        store.lock().canonical.insert(
            (form.clone(), self.options_fp, role),
            Arc::new(relabel_plan(plan, &map)),
        );
    }
}

/// Whether `plan` still *serves its cache key* after `delta` — feasible over
/// the post-event topology and still spanning the job's allocation — judged
/// per the plan's own link class:
///
/// * **additions never invalidate a certificate.** The pre-event topology
///   persists as a subgraph of the grown one, so the plan's trees stay
///   feasible at their packed rates and the packed-rate-vs-certificate bound
///   (proved against the old shape) still holds. Added links of the plan's
///   class can raise the *grown* shape's broadcast min-cut, so the plan may
///   no longer be near-optimal for the new hardware — this function still
///   reports it as surviving (exactness of what was proved is not voided),
///   and the handle's delta routine separately *re-certifies* survivors
///   against the grown cut;
/// * added GPUs do stop a plan serving a *grown allocation* — it no longer
///   spans the job — so it cannot answer lookups under the post-event
///   fingerprint; the store keeps it under the old shape's fingerprint,
///   where it remains exact;
/// * a removed GPU the plan spans, or a removed link of the plan's class on
///   a GPU pair some tree routes over (even one lane of several — the
///   pair's capacity shrank under the plan's rate), breaks feasibility;
/// * anything else (dead links of *other* classes, dead links the trees
///   avoid, added links of any class) leaves the plan's rate intact — the
///   plan survives.
fn plan_survives_delta(plan: &TreePlan, delta: &TopologyDelta) -> bool {
    if !delta.added_gpus.is_empty() {
        return false;
    }
    if delta.removed_gpus.iter().any(|g| plan.gpus.contains(g)) {
        return false;
    }
    let dead: BTreeSet<(GpuId, GpuId)> = delta
        .removed_links
        .iter()
        .filter(|l| plan.links.matches(l))
        .map(|l| (l.src, l.dst))
        .collect();
    dead.is_empty()
        || plan
            .trees
            .iter()
            .all(|t| t.tree.edges.iter().all(|e| !dead.contains(e)))
}

/// The process-wide [`SharedPlanCache`] that [`crate::Communicator`]s use by
/// default, so identically shaped jobs in one process reuse each other's
/// plans with no opt-in plumbing. Communicators that need isolation (e.g. a
/// benchmark measuring cold packing) opt out through
/// [`crate::CommunicatorBuilder::isolated_plans`]; callers wanting a
/// *different* store pass one through
/// [`crate::CommunicatorBuilder::shared_plans`].
///
/// The handle is cloned out of a process-global [`OnceLock`]; all clones
/// share the same store.
pub fn global_plan_cache() -> SharedPlanCache {
    static GLOBAL: OnceLock<SharedPlanCache> = OnceLock::new();
    GLOBAL.get_or_init(SharedPlanCache::new).clone()
}

/// A communicator's private handle on its [`SharedPlanCache`] store: plans
/// memoised per `(root, link class)` under the fingerprint of the
/// communicator's current induced topology and options, plus the warm seeds
/// a delta demoted. Misses go through [`SharedPlanCache::resolve`] and pack
/// over the handle's scratch pool.
///
/// A lookup under a different fingerprint than the memoised plans were
/// built under (an unannounced topology or options change) drops them — and
/// the old shape's exact-tier entries, since the communicator just observed
/// that hardware no longer exists as recorded — and rebuilds, so a caller
/// never receives a stale plan.
#[derive(Debug)]
pub(crate) struct PlanCache {
    store: SharedPlanCache,
    scratch: ScratchPool,
    /// Fingerprint the memoised plans were built under; `None` while empty.
    built_under: Option<u64>,
    plans: BTreeMap<(GpuId, LinkSelection), Arc<TreePlan>>,
    /// Stale plans demoted by [`PlanCache::note_delta`], each consumed by the
    /// next miss on its key to drive [`TreeGen::plan_warm`].
    seeds: BTreeMap<(GpuId, LinkSelection), Arc<TreePlan>>,
    /// Whether misses may also use the store's canonical tier. Opt-in:
    /// canonical hits are valid relabelled plans but not bit-identical to a
    /// cold pack.
    canonical: bool,
    /// Canonical labelling of the induced topology `built_under` describes.
    labelling: OnceCell<Option<(String, Vec<GpuId>)>>,
}

impl PlanCache {
    /// Creates an empty handle on `store` with its own scratch pool.
    pub(crate) fn new(store: SharedPlanCache, canonical: bool) -> Self {
        PlanCache {
            store,
            scratch: ScratchPool::new(),
            built_under: None,
            plans: BTreeMap::new(),
            seeds: BTreeMap::new(),
            canonical,
            labelling: OnceCell::new(),
        }
    }

    /// The store this handle looks misses up in and publishes packs to.
    pub(crate) fn store(&self) -> &SharedPlanCache {
        &self.store
    }

    /// The scratch pool misses pack with.
    pub(crate) fn scratch(&self) -> &ScratchPool {
        &self.scratch
    }

    /// Number of memoised plans.
    pub(crate) fn len(&self) -> usize {
        self.plans.len()
    }

    /// Number of warm-start seeds awaiting consumption.
    pub(crate) fn seeded(&self) -> usize {
        self.seeds.len()
    }

    /// Points the handle at fingerprint `fp`. A change (as opposed to the
    /// first lookup) drops the memoised plans, the seeds — an unannounced
    /// change could make them arbitrarily wrong as warm starts — and the old
    /// shape's exact-tier entries.
    fn rekey(&mut self, fp: u64) {
        if self.built_under != Some(fp) {
            if let Some(old) = self.built_under {
                self.store.retarget(old, fp, |_| false);
            }
            self.plans.clear();
            self.seeds.clear();
            self.built_under = Some(fp);
            self.labelling = OnceCell::new();
        }
    }

    /// Applies a topology-change event to the handle and its store in one
    /// pass. `induced` and `options` are the **post-event** planning inputs.
    ///
    /// Locally, plans the delta provably did not touch — untouched by
    /// removals, or any addition short of new GPUs (see
    /// `plan_survives_delta`) — stay live; every other plan becomes a warm
    /// seed. A surviving plan of a class the delta added links to is
    /// re-certified against the grown topology's broadcast min-cut and
    /// demoted too if its rate fell below `(1 − ε)` of it, so the next
    /// lookup re-packs through the added capacity; growth that does not
    /// raise the cut keeps plans live and bit-identical.
    ///
    /// In the store, a pure-growth delta changes nothing — the old shape
    /// persists as a subgraph, so its entries keep serving lookups under the
    /// old fingerprint (a job grown by a server re-hits its original
    /// servers' plans). Otherwise the old shape's exact-tier plans that
    /// survive the delta are re-keyed to the new fingerprint and the rest are
    /// dropped; the handle keeps its own copies as warm seeds instead.
    pub(crate) fn note_delta(
        &mut self,
        induced: &Topology,
        options: &TreeGenOptions,
        delta: &TopologyDelta,
    ) {
        let new_fp = plan_fingerprint(induced, options);
        if self.built_under == Some(new_fp) {
            return;
        }
        // Lazily built per link class: one graph + one certificate per
        // re-certified root, only on deltas that actually add links.
        let mut cert_graphs: BTreeMap<LinkSelection, DiGraph> = BTreeMap::new();
        for (key, plan) in std::mem::take(&mut self.plans) {
            let survives = plan_survives_delta(&plan, delta);
            let outgrown = survives
                && plan.gpus.len() >= 2
                && delta.added_links.iter().any(|l| plan.links.matches(l))
                && {
                    let links = plan.links;
                    let g = cert_graphs.entry(links).or_insert_with(|| {
                        DiGraph::from_topology_filtered(induced, |l| links.matches(l))
                    });
                    match g.node(plan.root) {
                        Some(root) => {
                            let cert = optimal_broadcast_rate(g, root);
                            plan.rate_gbps() + 1e-9 < (1.0 - options.packing.epsilon) * cert
                        }
                        None => false,
                    }
                };
            if survives && !outgrown {
                self.plans.insert(key, plan);
            } else {
                self.seeds.insert(key, plan);
            }
        }
        if let Some(old) = self.built_under {
            if !delta.is_pure_growth() {
                self.store
                    .retarget(old, new_fp, |plan| plan_survives_delta(plan, delta));
            }
        }
        self.built_under = Some(new_fp);
        self.labelling = OnceCell::new();
    }

    /// The plan for `(root, options.links)`; see [`PlanCache::plan_many`].
    pub(crate) fn plan_for(
        &mut self,
        induced: &Topology,
        options: &TreeGenOptions,
        root: GpuId,
    ) -> Result<Arc<TreePlan>> {
        self.plan_many(induced, options, &[root])
            .map(|mut plans| plans.remove(0))
    }

    /// Plans for several roots at once, in `roots` order: memoised roots are
    /// served locally and the rest go through [`SharedPlanCache::resolve`],
    /// whose packs run concurrently and are bit-identical to planning each
    /// root in turn.
    ///
    /// # Errors
    /// The first failing root (in `roots` order) wins; nothing is cached for
    /// failing roots.
    pub(crate) fn plan_many(
        &mut self,
        induced: &Topology,
        options: &TreeGenOptions,
        roots: &[GpuId],
    ) -> Result<Vec<Arc<TreePlan>>> {
        let fp = plan_fingerprint(induced, options);
        self.rekey(fp);
        let links = options.links;
        let mut missing: Vec<GpuId> = Vec::new();
        for &root in roots {
            if !self.plans.contains_key(&(root, links)) && !missing.contains(&root) {
                missing.push(root);
            }
        }
        if !missing.is_empty() {
            // The canonical form covers exactly the NVLink capacity matrix
            // (and NVLink packing reads nothing else); labelling is brute
            // force, so only small allocations qualify.
            let canonical = (self.canonical
                && links == LinkSelection::NvLinkOnly
                && (2..=CANONICAL_MAX_GPUS).contains(&induced.gpus().len()))
            .then(|| Canonical {
                induced,
                options_fp: options_fingerprint(options),
                labelling: &self.labelling,
            });
            let requests: Vec<(&Topology, u64, GpuId)> =
                missing.iter().map(|&root| (induced, fp, root)).collect();
            let seeds = &mut self.seeds;
            let resolved = self.store.resolve(
                options,
                &requests,
                &self.scratch,
                canonical.as_ref(),
                |root| seeds.remove(&(root, links)),
            );
            let mut first_error = None;
            for (root, plan) in missing.into_iter().zip(resolved) {
                match plan {
                    Ok(plan) => {
                        self.plans.insert((root, links), plan);
                    }
                    Err(e) => {
                        first_error.get_or_insert(e);
                    }
                }
            }
            if let Some(e) = first_error {
                return Err(e);
            }
        }
        Ok(roots
            .iter()
            .map(|&root| self.plans[&(root, links)].clone())
            .collect())
    }
}

/// MIAD chunk-size controller.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChunkAutotuner {
    current: u64,
    best_throughput: f64,
    growth_factor: f64,
    decrease_bytes: u64,
    min_chunk: u64,
    max_chunk: u64,
    settled: bool,
    history: Vec<(u64, f64)>,
}

impl ChunkAutotuner {
    /// Creates a tuner starting from `initial_chunk` bytes.
    ///
    /// The paper's example (Figure 12) starts at 1 MB and doubles each
    /// iteration until throughput stops improving.
    pub fn new(initial_chunk: u64) -> Self {
        ChunkAutotuner {
            current: initial_chunk.max(64 * 1024),
            best_throughput: 0.0,
            growth_factor: 2.0,
            decrease_bytes: 512 * 1024,
            min_chunk: 64 * 1024,
            max_chunk: 64 << 20,
            settled: false,
            history: Vec::new(),
        }
    }

    /// Creates a tuner with the paper's defaults (1 MB initial chunk, 2×
    /// growth).
    pub fn with_defaults() -> Self {
        Self::new(1 << 20)
    }

    /// The chunk size to use for the next iteration.
    pub fn chunk_bytes(&self) -> u64 {
        self.current
    }

    /// Whether the controller has reached steady state.
    pub fn is_settled(&self) -> bool {
        self.settled
    }

    /// The `(chunk size, throughput)` trace so far — this is exactly the data
    /// plotted in Figure 12.
    pub fn history(&self) -> &[(u64, f64)] {
        &self.history
    }

    /// Reports the throughput (GB/s) observed with the current chunk size and
    /// advances the controller.
    pub fn observe(&mut self, throughput_gbps: f64) {
        self.history.push((self.current, throughput_gbps));
        if self.settled {
            return;
        }
        if throughput_gbps > self.best_throughput * 1.01 {
            // still improving: multiplicative increase
            self.best_throughput = throughput_gbps;
            self.current = ((self.current as f64 * self.growth_factor) as u64).min(self.max_chunk);
            if self.current == self.max_chunk {
                self.settled = true;
            }
        } else if throughput_gbps < self.best_throughput * 0.99 {
            // regression: additive decrease, then settle
            self.current = self
                .current
                .saturating_sub(self.decrease_bytes)
                .max(self.min_chunk);
            self.settled = true;
        } else {
            // within noise of the best: stop here
            self.settled = true;
        }
    }

    /// Resets the controller (e.g. when the buffer size changes drastically).
    pub fn reset(&mut self, initial_chunk: u64) {
        *self = ChunkAutotuner::new(initial_chunk);
    }
}

impl Default for ChunkAutotuner {
    fn default() -> Self {
        Self::with_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blink_topology::presets::dgx1v;

    /// A handle on a fresh private store.
    fn handle() -> PlanCache {
        PlanCache::new(SharedPlanCache::new(), false)
    }

    fn exact_get(
        store: &SharedPlanCache,
        fp: u64,
        root: GpuId,
        links: LinkSelection,
    ) -> Option<Arc<TreePlan>> {
        store.lock().exact.get(&(fp, root, links))
    }

    fn store_with_capacity(capacity: usize) -> SharedPlanCache {
        SharedPlanCache {
            inner: Arc::new(Mutex::new(Tiers {
                exact: Tier::new(capacity),
                canonical: Tier::new(capacity),
            })),
        }
    }

    fn induced(topo: &Topology, n: usize) -> Topology {
        topo.induced(&(0..n).map(GpuId).collect::<Vec<_>>())
            .unwrap()
    }

    #[test]
    fn plan_cache_memoises_per_root_and_link_class() {
        let induced = induced(&dgx1v(), 4);
        let opts = TreeGenOptions::default();
        let mut cache = handle();
        assert_eq!(cache.len(), 0);
        let first = cache.plan_for(&induced, &opts, GpuId(0)).unwrap();
        assert_eq!(cache.len(), 1);
        // a repeat is served locally: the very same plan, no store traffic
        let again = cache.plan_for(&induced, &opts, GpuId(0)).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(cache.store().stats(), (0, 1));
        // a different root and a different link class are distinct entries
        cache.plan_for(&induced, &opts, GpuId(1)).unwrap();
        let pcie = TreeGenOptions {
            links: LinkSelection::PcieOnly,
            ..opts
        };
        cache.plan_for(&induced, &pcie, GpuId(0)).unwrap();
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn plan_cache_rekeys_on_changed_options_instead_of_panicking() {
        let induced = induced(&dgx1v(), 8);
        let mut cache = handle();
        let opts = TreeGenOptions::default();
        cache.plan_for(&induced, &opts, GpuId(0)).unwrap();
        assert_eq!(cache.len(), 1);
        // same options, different link class: both entries coexist
        let pcie = TreeGenOptions {
            links: LinkSelection::PcieOnly,
            ..opts
        };
        cache.plan_for(&induced, &pcie, GpuId(0)).unwrap();
        assert_eq!(cache.len(), 2);
        // materially different options: the cache rebuilds instead of
        // serving a plan computed under the old options
        let retuned = TreeGenOptions {
            skip_minimize: true,
            ..opts
        };
        let raw = cache.plan_for(&induced, &retuned, GpuId(0)).unwrap();
        assert!(raw.num_trees() > 6, "skip_minimize must take effect");
        assert_eq!(cache.len(), 1, "old-option plans were dropped");
    }

    #[test]
    fn plan_cache_rekeys_on_changed_topology() {
        let topo = dgx1v();
        let opts = TreeGenOptions::default();
        let mut cache = handle();
        let full = induced(&topo, 8);
        let full_rate = cache.plan_for(&full, &opts, GpuId(0)).unwrap().rate_gbps();
        // shrink the allocation: the cache must not serve the 8-GPU plan
        let half = induced(&topo, 4);
        let half_plan = cache.plan_for(&half, &opts, GpuId(0)).unwrap();
        assert_eq!(half_plan.gpus.len(), 4);
        assert!(half_plan.rate_gbps() < full_rate);
        assert_eq!(cache.len(), 1);
        // and going back re-plans (correctness over reuse across epochs)
        let again = cache.plan_for(&full, &opts, GpuId(0)).unwrap();
        assert_eq!(again.rate_gbps().to_bits(), full_rate.to_bits());
    }

    #[test]
    fn plan_cache_does_not_cache_failures() {
        let topo = blink_topology::presets::dgx1p();
        // GPUs 1 and 4 share no NVLink: NvLinkOnly planning fails
        let induced = topo.induced(&[GpuId(1), GpuId(4)]).unwrap();
        let mut cache = handle();
        assert!(cache
            .plan_for(&induced, &TreeGenOptions::default(), GpuId(1))
            .is_err());
        assert_eq!(cache.len(), 0);
        assert!(cache.store().is_empty());
    }

    #[test]
    fn fingerprint_normalises_the_link_class_away() {
        let topo = dgx1v();
        let induced = induced(&topo, 4);
        let nvlink = TreeGenOptions::default();
        let pcie = TreeGenOptions {
            links: LinkSelection::PcieOnly,
            ..nvlink
        };
        // equivalent options (differing only in link class) share a
        // fingerprint — the link class lives in the cache key instead
        assert_eq!(
            plan_fingerprint(&induced, &nvlink),
            plan_fingerprint(&induced, &pcie)
        );
        // ...and a different topology diverges
        let half = self::induced(&topo, 3);
        assert_ne!(
            plan_fingerprint(&induced, &nvlink),
            plan_fingerprint(&half, &nvlink)
        );
    }

    #[test]
    fn both_fingerprints_hash_every_option_field_but_the_link_class() {
        let induced = induced(&dgx1v(), 4);
        let fps = |o: &TreeGenOptions| (plan_fingerprint(&induced, o), options_fingerprint(o));
        let base = TreeGenOptions::default();
        let (plan_fp, options_fp) = fps(&base);
        let mut variants = [base; 7];
        variants[0].packing.epsilon = 0.1;
        variants[1].packing.max_iterations += 1;
        variants[2].minimize.threshold = 0.1;
        variants[3].minimize.unit_gbps = Some(25.0);
        variants[4].minimize.max_bb_nodes += 1;
        variants[5].minimize.known_optimum = Some(138.0);
        variants[6].skip_minimize = true;
        for v in &variants {
            let (p, o) = fps(v);
            assert_ne!(p, plan_fp, "plan fingerprint ignores {v:?}");
            assert_ne!(o, options_fp, "options fingerprint ignores {v:?}");
        }
        let pcie = TreeGenOptions {
            links: LinkSelection::PcieOnly,
            ..base
        };
        assert_eq!(fps(&pcie), (plan_fp, options_fp));
    }

    #[test]
    fn the_store_hands_plans_across_handles() {
        let induced = induced(&dgx1v(), 8);
        let opts = TreeGenOptions::default();
        let shared = SharedPlanCache::new();
        // "communicator" A packs and publishes
        let mut a = PlanCache::new(shared.clone(), false);
        let plan_a = a.plan_for(&induced, &opts, GpuId(0)).unwrap();
        assert_eq!(shared.stats(), (0, 1), "first pack is a store miss");
        assert_eq!(shared.len(), 1);
        // "communicator" B of the same job shape reuses A's plan
        let mut b = PlanCache::new(shared.clone(), false);
        let plan_b = b.plan_for(&induced, &opts, GpuId(0)).unwrap();
        assert_eq!(shared.stats(), (1, 1), "same shape must hit");
        assert!(Arc::ptr_eq(&plan_a, &plan_b), "a hit shares the plan");
        // a local repeat never touches the store
        b.plan_for(&induced, &opts, GpuId(0)).unwrap();
        assert_eq!(shared.stats(), (1, 1));
    }

    #[test]
    fn the_store_misses_on_changed_topology_or_options() {
        let topo = dgx1v();
        let full = induced(&topo, 8);
        let opts = TreeGenOptions::default();
        let shared = SharedPlanCache::new();
        PlanCache::new(shared.clone(), false)
            .plan_for(&full, &opts, GpuId(0))
            .unwrap();
        // different allocation shape: miss, packed fresh
        let half = induced(&topo, 4);
        PlanCache::new(shared.clone(), false)
            .plan_for(&half, &opts, GpuId(0))
            .unwrap();
        // different options on the original shape: miss again
        let retuned = TreeGenOptions {
            skip_minimize: true,
            ..opts
        };
        PlanCache::new(shared.clone(), false)
            .plan_for(&full, &retuned, GpuId(0))
            .unwrap();
        assert_eq!(shared.stats(), (0, 3));
        // unlike a handle, the store keeps all three shapes
        assert_eq!(shared.len(), 3);
    }

    #[test]
    fn a_changed_topology_fingerprint_drops_the_old_shape_from_the_store() {
        let topo = dgx1v();
        let full = induced(&topo, 8);
        let half = induced(&topo, 4);
        let opts = TreeGenOptions::default();
        let shared = SharedPlanCache::new();
        // a second handle keeps the full-shape plan alive in the store
        PlanCache::new(shared.clone(), false)
            .plan_for(&full, &opts, GpuId(0))
            .unwrap();
        assert_eq!(shared.len(), 1);
        // handle A observes its topology change full -> half: the
        // full-shape plans are dropped from the store automatically (the
        // hardware they were built for no longer exists as recorded)
        let mut a = PlanCache::new(shared.clone(), false);
        a.plan_for(&full, &opts, GpuId(0)).unwrap();
        a.plan_for(&half, &opts, GpuId(0)).unwrap();
        assert_eq!(
            shared.len(),
            1,
            "only the half-shape plan survives the fingerprint change"
        );
        let fp_half = plan_fingerprint(&half, &opts);
        assert!(
            exact_get(&shared, fp_half, GpuId(0), opts.links).is_some(),
            "the new shape's plan is the survivor"
        );
    }

    #[test]
    fn a_tier_evicts_its_least_recently_used_entry_past_capacity() {
        let induced = induced(&dgx1v(), 8);
        let opts = TreeGenOptions::default();
        let fp = plan_fingerprint(&induced, &opts);
        let plan = handle().plan_for(&induced, &opts, GpuId(0)).unwrap();
        let key = |r: usize| (fp, GpuId(r), opts.links);
        let mut tier = Tier::new(2);
        // fill to capacity: roots 0 and 1
        tier.insert(key(0), plan.clone());
        tier.insert(key(1), plan.clone());
        assert_eq!(tier.entries.len(), 2);
        assert_eq!(tier.evictions, 0);
        // touch root 0 so root 1 becomes the LRU entry
        assert!(tier.get(&key(0)).is_some());
        // a third insert evicts root 1, not root 0
        tier.insert(key(2), plan.clone());
        assert_eq!(tier.entries.len(), 2);
        assert_eq!(tier.evictions, 1);
        assert!(tier.get(&key(0)).is_some());
        assert!(tier.get(&key(2)).is_some());
        assert!(
            tier.get(&key(1)).is_none(),
            "the least-recently-used entry must be the one evicted"
        );
        assert_eq!((tier.hits, tier.misses), (3, 1));
    }

    #[test]
    fn a_handle_keeps_its_plans_when_the_store_evicts_them() {
        let induced = induced(&dgx1v(), 8);
        let opts = TreeGenOptions::default();
        let shared = store_with_capacity(1);
        let mut a = PlanCache::new(shared.clone(), false);
        let first = a.plan_for(&induced, &opts, GpuId(0)).unwrap();
        a.plan_for(&induced, &opts, GpuId(1)).unwrap();
        assert_eq!(shared.len(), 1);
        assert_eq!(shared.evictions(), 1, "root 0 fell out of the store");
        // the handle still serves root 0 without consulting the store
        let again = a.plan_for(&induced, &opts, GpuId(0)).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(shared.stats(), (0, 2));
        // another handle simply re-packs the evicted root, bit-identically
        let replanned = PlanCache::new(shared.clone(), false)
            .plan_for(&induced, &opts, GpuId(0))
            .unwrap();
        assert!(replanned.bit_eq(&first), "re-pack is bit-identical");
    }

    #[test]
    fn both_tiers_are_bounded_by_the_default_capacity() {
        // the bound must be far above anything the existing suites create,
        // so bounding the store changes no observable behaviour
        const { assert!(SharedPlanCache::DEFAULT_CAPACITY >= 1024) };
        let tiers = SharedPlanCache::new();
        let tiers = tiers.lock();
        assert_eq!(tiers.exact.capacity, SharedPlanCache::DEFAULT_CAPACITY);
        assert_eq!(tiers.canonical.capacity, SharedPlanCache::DEFAULT_CAPACITY);
    }

    #[test]
    fn plan_many_matches_per_root_plan_for_bitwise() {
        let induced = induced(&dgx1v(), 8);
        let opts = TreeGenOptions::default();
        let roots: Vec<GpuId> = (0..8).map(GpuId).collect();
        // reference: sequential plan_for on a single-worker handle
        let mut seq = handle();
        seq.scratch = ScratchPool::with_workers(1);
        let reference: Vec<Arc<TreePlan>> = roots
            .iter()
            .map(|&r| seq.plan_for(&induced, &opts, r).unwrap())
            .collect();
        // parallel misses through plan_many
        let mut par = handle();
        par.scratch = ScratchPool::with_workers(4);
        let plans = par.plan_many(&induced, &opts, &roots).unwrap();
        assert_eq!(plans.len(), roots.len());
        for (a, b) in reference.iter().zip(&plans) {
            assert!(a.bit_eq(b), "plan_many diverged for root {}", a.root);
        }
        assert_eq!(par.len(), 8);
        // repeated and duplicate roots are served locally
        let again = par
            .plan_many(&induced, &opts, &[GpuId(0), GpuId(0), GpuId(7)])
            .unwrap();
        assert_eq!(again.len(), 3);
        assert!(Arc::ptr_eq(&again[0], &again[1]));
        assert_eq!(par.store().stats(), (0, 8));
    }

    #[test]
    fn note_delta_demotes_touched_plans_to_seeds_and_replans_warm() {
        let alloc: Vec<GpuId> = (0..8).map(GpuId).collect();
        let induced = induced(&dgx1v(), 8);
        let opts = TreeGenOptions::default();
        let mut cache = handle();
        cache.plan_many(&induced, &opts, &alloc).unwrap();
        assert_eq!(cache.len(), 8);
        // a physical NVLink connection dies
        let delta = TopologyDelta::kill_link(&induced, GpuId(0), GpuId(1));
        let after = induced.apply_delta(&delta).unwrap();
        cache.note_delta(&after, &opts, &delta);
        // every plan either survived (untouched by the dead pair) or became
        // a warm-start seed — none were thrown away
        assert_eq!(cache.len() + cache.seeded(), 8);
        assert!(cache.seeded() >= 1, "some plan used the killed link");
        // replanning consumes the seeds and yields plans that avoid the
        // dead pair and are never worse than a cold re-plan
        let dead = delta.removed_pairs();
        let warm = cache.plan_many(&after, &opts, &alloc).unwrap();
        assert_eq!(cache.seeded(), 0, "seeds are consumed on use");
        let mut cold_cache = handle();
        for (plan, &root) in warm.iter().zip(&alloc) {
            assert!(plan
                .trees
                .iter()
                .all(|t| t.tree.edges.iter().all(|e| !dead.contains(e))));
            let cold = cold_cache.plan_for(&after, &opts, root).unwrap();
            assert!(
                plan.rate_gbps() >= cold.rate_gbps() - 1e-9,
                "warm replan for root {root} must not be worse than cold"
            );
        }
    }

    #[test]
    fn pure_removal_delta_keeps_unaffected_plans_live_across_tiers() {
        use blink_topology::LinkKind;
        let induced = induced(&dgx1v(), 4);
        let opts = TreeGenOptions::default(); // NvLinkOnly
        let mut cache = handle();
        let before = cache.plan_for(&induced, &opts, GpuId(0)).unwrap();
        // a PCIe link dies; the NVLink plan never touched it
        let pcie = *induced
            .links()
            .iter()
            .find(|l| l.kind == LinkKind::Pcie)
            .unwrap();
        let delta = TopologyDelta {
            removed_links: vec![pcie],
            ..Default::default()
        };
        let after = induced.apply_delta(&delta).unwrap();
        cache.note_delta(&after, &opts, &delta);
        assert_eq!(cache.len(), 1, "untouched plan stays live locally");
        assert_eq!(cache.seeded(), 0);
        // the store re-keyed the survivor to the new fingerprint
        let fp_after = plan_fingerprint(&after, &opts);
        assert!(exact_get(cache.store(), fp_after, GpuId(0), opts.links).is_some());
        // and the next lookup serves it bit-identically without re-packing
        let again = cache.plan_for(&after, &opts, GpuId(0)).unwrap();
        assert!(before.bit_eq(&again));
    }

    #[test]
    fn growth_delta_demotes_every_plan_to_a_seed() {
        let topo = dgx1v();
        let small = induced(&topo, 4);
        let big = induced(&topo, 8);
        let opts = TreeGenOptions::default();
        let mut cache = handle();
        cache.plan_for(&small, &opts, GpuId(0)).unwrap();
        let delta = TopologyDelta::between(&small, &big);
        assert!(!delta.is_pure_removal());
        cache.note_delta(&big, &opts, &delta);
        // the 4-GPU plan no longer spans the grown 8-GPU allocation, so it
        // cannot serve lookups over the new shape — but its certificate was
        // never voided, so it is demoted to a warm seed, not dropped
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.seeded(), 1);
        let grown = cache.plan_for(&big, &opts, GpuId(0)).unwrap();
        assert_eq!(grown.gpus.len(), 8);
        // growth replans carry the same near-optimality guarantee as cold
        // plans (the pointwise warm ≥ cold bound is only promised for pure
        // removals — added capacity reshapes the whole MWU trajectory)
        assert!(grown.rate_gbps() >= (1.0 - opts.packing.epsilon) * grown.optimal_rate_gbps - 1e-9);
    }

    #[test]
    fn growth_below_the_certificate_keeps_a_plan_live() {
        use blink_topology::{Link, LinkKind};
        let induced = induced(&dgx1v(), 4);
        let opts = TreeGenOptions::default();
        let mut cache = handle();
        let before = cache.plan_for(&induced, &opts, GpuId(0)).unwrap();
        let fp_before = plan_fingerprint(&induced, &opts);
        // a fresh NVLink lane appears between GPUs 0 and 3: pure growth. On
        // this quad the broadcast min-cut from root 0 is pinned by the
        // capacity *into* GPU 1, which the new lane does not touch — the
        // certificate does not rise, so re-certification keeps the plan.
        let delta = TopologyDelta {
            added_links: vec![
                Link::new(GpuId(0), GpuId(3), LinkKind::NvLinkGen2),
                Link::new(GpuId(3), GpuId(0), LinkKind::NvLinkGen2),
            ],
            ..Default::default()
        };
        assert!(delta.is_pure_growth() && !delta.is_pure_removal());
        let after = induced.apply_delta(&delta).unwrap();
        cache.note_delta(&after, &opts, &delta);
        assert_eq!(
            cache.len(),
            1,
            "growth that leaves the certificate must not demote the plan"
        );
        assert_eq!(cache.seeded(), 0);
        let again = cache.plan_for(&after, &opts, GpuId(0)).unwrap();
        assert!(
            before.bit_eq(&again),
            "retained plan is served bit-identical"
        );
        // the store keeps the old shape's entry: that shape persists as a
        // subgraph of the grown one, so its fingerprint is still meaningful
        assert!(exact_get(cache.store(), fp_before, GpuId(0), opts.links).is_some());
    }

    #[test]
    fn growth_of_another_link_class_never_triggers_recertification() {
        use blink_topology::{Link, LinkKind};
        let induced = induced(&dgx1v(), 4);
        let opts = TreeGenOptions::default(); // NvLinkOnly
        let mut cache = handle();
        let before = cache.plan_for(&induced, &opts, GpuId(0)).unwrap();
        // extra PCIe capacity appears: invisible to an NVLink plan
        let delta = TopologyDelta {
            added_links: vec![
                Link::new(GpuId(0), GpuId(1), LinkKind::Pcie).with_bandwidth(5.0),
                Link::new(GpuId(1), GpuId(0), LinkKind::Pcie).with_bandwidth(5.0),
            ],
            ..Default::default()
        };
        let after = induced.apply_delta(&delta).unwrap();
        cache.note_delta(&after, &opts, &delta);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.seeded(), 0);
        let again = cache.plan_for(&after, &opts, GpuId(0)).unwrap();
        assert!(before.bit_eq(&again));
    }

    #[test]
    fn growth_that_raises_the_certificate_repacks_and_recovers_the_rate() {
        let full = induced(&dgx1v(), 4);
        let opts = TreeGenOptions::default();
        // plan over a damaged quad (the 0-1 NVLink pair is down)...
        let kill = TopologyDelta::kill_link(&full, GpuId(0), GpuId(1));
        let damaged = full.apply_delta(&kill).unwrap();
        let mut cache = handle();
        let degraded = cache.plan_for(&damaged, &opts, GpuId(0)).unwrap();
        // ...then the link comes back: a pure-growth delta that raises the
        // broadcast min-cut from root 0
        let grow = TopologyDelta::between(&damaged, &full);
        assert!(grow.is_pure_growth() && !grow.added_links.is_empty());
        cache.note_delta(&full, &opts, &grow);
        assert_eq!(
            cache.len(),
            0,
            "certificate rose: the surviving plan must be demoted for re-pack"
        );
        assert_eq!(cache.seeded(), 1);
        // the re-pack consumes the seed and recovers the full-topology rate
        let recovered = cache.plan_for(&full, &opts, GpuId(0)).unwrap();
        assert_eq!(cache.seeded(), 0, "warm seed consumed");
        let cold = handle().plan_for(&full, &opts, GpuId(0)).unwrap();
        assert!(
            recovered.rate_gbps() >= cold.rate_gbps() - 1e-9,
            "re-packed rate {} must recover the cold full-topology rate {}",
            recovered.rate_gbps(),
            cold.rate_gbps()
        );
        assert!(
            recovered.rate_gbps() > degraded.rate_gbps() + 1e-9,
            "re-pack must actually use the restored link ({} vs degraded {})",
            recovered.rate_gbps(),
            degraded.rate_gbps()
        );
        assert!(
            recovered.rate_gbps()
                >= (1.0 - opts.packing.epsilon) * recovered.optimal_rate_gbps - 1e-9
        );
    }

    #[test]
    fn growing_by_a_server_retains_store_plans_for_the_old_shape() {
        use blink_topology::presets::{multi_server, ServerKind};
        let machine = multi_server(2, ServerKind::Dgx1V, 5.0);
        let small_alloc: Vec<GpuId> = (0..8).map(GpuId).collect();
        let induced8 = machine.induced(&small_alloc).unwrap();
        let opts = TreeGenOptions::default();
        let shared = SharedPlanCache::new();
        let mut cache = PlanCache::new(shared.clone(), false);
        // a single-server 8-GPU job plans all roots and publishes them under
        // the server-induced fingerprint
        cache.plan_many(&induced8, &opts, &small_alloc).unwrap();
        let f0 = plan_fingerprint(&induced8, &opts);
        assert!(exact_get(&shared, f0, GpuId(0), opts.links).is_some());

        // the job grows by a server: a pure-growth delta over its induced
        // topology (new GPUs, their links, the second server's NIC)
        let big_alloc: Vec<GpuId> = (0..16).map(GpuId).collect();
        let induced16 = machine.induced(&big_alloc).unwrap();
        let delta = TopologyDelta::between(&induced8, &induced16);
        assert!(delta.is_pure_growth() && !delta.is_pure_removal());
        cache.note_delta(&induced16, &opts, &delta);
        // locally the old plans no longer span the grown job — seeds now —
        // but the store keeps the old shape's plans published verbatim
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.seeded(), 8);
        assert!(
            exact_get(&shared, f0, GpuId(0), opts.links).is_some(),
            "growth must not flush the old shape from the store"
        );

        // and the three-phase planner's per-server lookups for server 0
        // (whose induced shape IS the old job shape) re-hit those plans
        let (hits_before, _) = shared.stats();
        let (program, _info) = crate::multiserver::three_phase_allreduce_cached(
            &machine,
            &big_alloc,
            8 << 20,
            &opts,
            &crate::CodeGenOptions::default(),
            &ScratchPool::new(),
            &shared,
        )
        .unwrap();
        let (hits_after, _) = shared.stats();
        assert!(
            hits_after > hits_before,
            "per-server lookups must reuse the retained plans"
        );
        assert!(!program.ops().is_empty());
    }

    #[test]
    fn global_plan_cache_is_one_process_wide_store() {
        let a = global_plan_cache();
        let b = global_plan_cache();
        let induced = induced(&dgx1v(), 2);
        let opts = TreeGenOptions::default();
        let plan = handle().plan_for(&induced, &opts, GpuId(0)).unwrap();
        // a synthetic fingerprint no real communicator can collide with
        let fp = u64::MAX - 12345;
        a.lock()
            .exact
            .insert((fp, GpuId(999), opts.links), plan.clone());
        let via_b = exact_get(&b, fp, GpuId(999), opts.links).unwrap();
        assert!(via_b.bit_eq(&plan));
        b.retarget(fp, fp, |_| false);
        assert!(exact_get(&a, fp, GpuId(999), opts.links).is_none());
    }

    #[test]
    fn canonical_tier_shares_plans_across_isomorphic_allocations() {
        let topo = dgx1v();
        let quad_a: Vec<GpuId> = (0..4).map(GpuId).collect();
        let quad_b: Vec<GpuId> = (4..8).map(GpuId).collect();
        let ind_a = topo.induced(&quad_a).unwrap();
        let ind_b = topo.induced(&quad_b).unwrap();
        let opts = TreeGenOptions::default(); // NvLinkOnly
        let shared = SharedPlanCache::new();
        let canonical_entries = || shared.lock().canonical.entries.len();
        // handle A packs every root of its quad and publishes both the exact
        // entries and the canonical images
        let plans_a = PlanCache::new(shared.clone(), true)
            .plan_many(&ind_a, &opts, &quad_a)
            .unwrap();
        assert_eq!(shared.canonical_stats(), (0, 4), "4 cold packs, all missed");
        assert_eq!(canonical_entries(), 4, "every canonical role published");
        // handle B holds the *mirror* quad: exact fingerprints differ, so the
        // exact tier can never serve it — the canonical tier does, for every
        // root
        let plans_b = PlanCache::new(shared.clone(), true)
            .plan_many(&ind_b, &opts, &quad_b)
            .unwrap();
        assert_eq!(
            shared.canonical_stats(),
            (4, 4),
            "all of B's roots reuse A's packing work"
        );
        let (exact_hits, _) = shared.stats();
        assert_eq!(exact_hits, 0, "the exact tier never fired across quads");
        // the relabelled plans are real plans for B's GPUs: right root, right
        // span, edges inside the allocation, certified near-optimal rate
        for (plan, &root) in plans_b.iter().zip(&quad_b) {
            assert_eq!(plan.root, root);
            assert_eq!(plan.gpus, quad_b);
            assert!(plan.trees.iter().all(|t| {
                t.tree.root == root
                    && t.tree
                        .edges
                        .iter()
                        .all(|&(p, c)| quad_b.contains(&p) && quad_b.contains(&c))
            }));
            assert!(
                plan.rate_gbps() >= (1.0 - opts.packing.epsilon) * plan.optimal_rate_gbps - 1e-9
            );
        }
        // isomorphic images carry the original rates exactly (weights are
        // copied, only labels move) — compare the sorted rate multisets
        let mut rates_a: Vec<u64> = plans_a.iter().map(|p| p.rate_gbps().to_bits()).collect();
        let mut rates_b: Vec<u64> = plans_b.iter().map(|p| p.rate_gbps().to_bits()).collect();
        rates_a.sort_unstable();
        rates_b.sort_unstable();
        assert_eq!(rates_a, rates_b);
        // plan_for goes through the same tier
        PlanCache::new(shared.clone(), true)
            .plan_for(&ind_b, &opts, GpuId(5))
            .unwrap();
        assert_eq!(shared.canonical_stats(), (5, 4));
    }

    #[test]
    fn canonical_tier_is_strictly_opt_in_and_gated() {
        let induced = induced(&dgx1v(), 4);
        let opts = TreeGenOptions::default();
        let shared = SharedPlanCache::new();
        let canonical_entries = || shared.lock().canonical.entries.len();
        // no opt-in: the canonical tier is never touched
        PlanCache::new(shared.clone(), false)
            .plan_for(&induced, &opts, GpuId(0))
            .unwrap();
        assert_eq!(shared.canonical_stats(), (0, 0));
        assert_eq!(canonical_entries(), 0);
        // opted in but PCIe-only: the canonical form only covers NVLink
        // capacities, so non-NVLink plans bypass the tier
        let pcie = TreeGenOptions {
            links: LinkSelection::PcieOnly,
            ..opts
        };
        PlanCache::new(shared.clone(), true)
            .plan_for(&induced, &pcie, GpuId(0))
            .unwrap();
        assert_eq!(shared.canonical_stats(), (0, 0));
        // opted in but past the labelling bound: a 9-GPU NVSwitch clique
        // skips the tier (9! labellings would be fine, 16! would not — the
        // gate is the documented constant, not luck)
        let dgx2 = blink_topology::presets::dgx2();
        let big = self::induced(&dgx2, CANONICAL_MAX_GPUS + 1);
        PlanCache::new(shared.clone(), true)
            .plan_for(&big, &opts, GpuId(0))
            .unwrap();
        assert_eq!(shared.canonical_stats(), (0, 0));
        // at the bound the tier engages
        let eight = self::induced(&dgx2, CANONICAL_MAX_GPUS);
        PlanCache::new(shared.clone(), true)
            .plan_for(&eight, &opts, GpuId(0))
            .unwrap();
        assert_eq!(shared.canonical_stats(), (0, 1));
        assert_eq!(canonical_entries(), 1);
        // exact-tier stats were never polluted by canonical traffic: the
        // counters above saw exactly the four packs' exact misses
        assert_eq!(shared.stats(), (0, 4));
    }

    #[test]
    fn canonical_hits_on_nvswitch_cliques_of_equal_size() {
        // on a DGX-2 every m-subset induces the same complete graph, so one
        // pack serves *any* same-size allocation — the partial-allocation
        // scenario of Figure 3 at its most extreme
        let dgx2 = blink_topology::presets::dgx2();
        let opts = TreeGenOptions::default();
        let shared = SharedPlanCache::new();
        let tri_a: Vec<GpuId> = vec![GpuId(0), GpuId(1), GpuId(2)];
        let tri_b: Vec<GpuId> = vec![GpuId(5), GpuId(9), GpuId(14)];
        let rate_a = PlanCache::new(shared.clone(), true)
            .plan_for(&dgx2.induced(&tri_a).unwrap(), &opts, GpuId(0))
            .unwrap()
            .rate_gbps();
        let plan_b = PlanCache::new(shared.clone(), true)
            .plan_for(&dgx2.induced(&tri_b).unwrap(), &opts, GpuId(5))
            .unwrap();
        assert_eq!(shared.canonical_stats(), (1, 1));
        assert_eq!(plan_b.rate_gbps().to_bits(), rate_a.to_bits());
        assert_eq!(plan_b.gpus, tri_b);
    }

    #[test]
    fn grows_while_throughput_improves() {
        let mut t = ChunkAutotuner::new(1 << 20);
        assert_eq!(t.chunk_bytes(), 1 << 20);
        t.observe(40.0);
        assert_eq!(t.chunk_bytes(), 2 << 20);
        t.observe(60.0);
        assert_eq!(t.chunk_bytes(), 4 << 20);
        assert!(!t.is_settled());
        assert_eq!(t.history().len(), 2);
    }

    #[test]
    fn backs_off_additively_on_regression() {
        let mut t = ChunkAutotuner::new(1 << 20);
        t.observe(40.0); // -> 2 MB
        t.observe(80.0); // -> 4 MB
        t.observe(60.0); // regression: back off and settle
        assert!(t.is_settled());
        assert_eq!(t.chunk_bytes(), (4 << 20) - (512 * 1024));
        let before = t.chunk_bytes();
        t.observe(100.0); // settled: no change
        assert_eq!(t.chunk_bytes(), before);
    }

    #[test]
    fn settles_when_throughput_plateaus() {
        let mut t = ChunkAutotuner::new(1 << 20);
        t.observe(40.0);
        t.observe(40.1); // within 1% of the best -> settle
        assert!(t.is_settled());
    }

    #[test]
    fn respects_bounds_and_reset() {
        let mut t = ChunkAutotuner::new(1);
        assert!(t.chunk_bytes() >= 64 * 1024);
        for gbps in [
            1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0,
        ] {
            t.observe(gbps);
        }
        assert!(t.chunk_bytes() <= 64 << 20);
        assert!(t.is_settled());
        t.reset(1 << 20);
        assert!(!t.is_settled());
        assert_eq!(t.chunk_bytes(), 1 << 20);
        assert!(t.history().is_empty());
    }
}
