//! Plan and lowering reuse: one plan store, a handle per communicator.
//!
//! A training job re-issues the same collectives over and over, and a fleet
//! places the same job shapes on server after server. Neither repeat
//! changes the tree set or the program a collective lowers to, so plans and
//! lowerings are memoised at two levels and the packing and lowering stages
//! run once per key:
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
//!   memoises `(root, link class) → plan` for its induced topology. Only
//!   handle misses reach the store, and a handle keeps its plans even when
//!   the store evicts them.
//!
//! The store also owns the programs its communicators lower from its plans
//! (the lowering tier, below), so a communicator built for a freshly placed
//! job takes a lowering the fleet already made. Buffers are not the store's:
//! every store packs and simulates on the process's one
//! [`ScratchPool`](crate::ScratchPool), so a fresh store starts from warm
//! buffers too.
//!
//! The store has one bounded LRU plan tier, keyed by `(rank fingerprint,
//! root rank, link class)` — the rank fingerprint covers the induced
//! topology, with GPUs and servers numbered by rank; no options enter the
//! key, since every plan is packed under the default [`TreeGenOptions`].
//! The same job shape on any server of a fleet therefore hits, relabelled
//! by position onto the looking-up slice's GPUs, and anything else misses.
//! Relabelling keeps the GPUs' order, so a hit is the plan a private pack
//! would make: every communicator's plans, and so its programs, are a pure
//! function of its allocation, whatever the store saw before. A lookup the
//! tier misses is packed on the caller's thread and published, so a later
//! lookup of the key (the three-phase planner's next server of the same
//! local shape, say) hits it.
//!
//! # A store entry is a pure function of its key
//!
//! The plan tier holds only cold plans: what
//! [`TreeGen::plan`](crate::treegen::TreeGen::plan) makes for the key's
//! slice shape, root and link class under the default options. Every
//! lowering in the lowering tier was made by a communicator whose plans were
//! all such plans. So whoever published an entry, and whenever, a hit is
//! what a private communicator would plan or lower; nothing in the store is
//! ever invalidated, and eviction only ever costs a re-pack or a
//! re-lowering.
//!
//! A replan is a fresh build: [`crate::Communicator::replan`] builds the
//! communicator anew over the damaged machine on the same store, with a new
//! handle, so it looks the changed slice up like any other communicator —
//! a plan another communicator published for that slice, or a pack it
//! publishes — and shares the lowerings of a fresh communicator over the
//! changed machine. A hardware change gives the changed slice a new
//! fingerprint, so every other communicator keeps being served the cold
//! entries of its own key.
//!
//! # The lowering tier
//!
//! Like Blink's CodeGen, which emits a collective once per allocation and
//! lets every training iteration reuse it, the store keeps each lowered
//! program next to the plans it was lowered from. An entry is keyed by the
//! communicator's lowering fingerprint — its rank fingerprint, its
//! allocation order by rank and whether it lowers hybrid transfers,
//! computed once per communicator — plus `(kind, bytes, chunk)`.
//! On a switch fabric the first lowering of a key races one-hop against
//! packed trees and stores the winner, whose strategy tag says which side
//! won, so every later lookup takes it, from any communicator. Like the plan
//! tier's, the key names GPUs by rank, so one slice shape in one order is
//! one key on every server of a fleet; a slice whose ids do not ascend
//! keeps id keys. An entry holds the program's engine compiled form
//! ([`blink_sim::CompiledProgram`], which holds the shared `Arc<Program>`)
//! over the GPUs of the communicator that lowered it (its labels), the tree
//! count, the strategy tag, the picked root and the plans the lowering
//! read.
//!
//! A hit hands those plans to the communicator's handle, so it ends up
//! exactly as a fresh lowering would have left it. A hit on the lowering
//! slice's own GPUs takes everything as stored, program `Arc` included. A
//! hit from another slice of the shape takes them renamed position by
//! position from the entry's labels onto its own allocation: its plans (as
//! the plan tier relabels them) and its picked root, and its program only
//! when the caller reads it ([`crate::Communicator::run`] does not).
//! Renaming keeps the GPUs' order, so the renamed program is the one a
//! fresh lowering there would emit, op for op. A communicator takes a hit
//! without reading its plans, and adopts them and the picked root only when
//! something reads them (a later lowering): the plans under one
//! key are the same whoever holds them, so a handle holding some of them
//! already holds the very same ones.
//!
//! The compiled form is part of the lowering, as Blink's CodeGen emits a
//! collective once per allocation and every later iteration reuses it: the
//! communicator that lowers afresh compiles the program on its simulator
//! before it publishes the entry, so every entry holds exactly one form,
//! and a lowering a training loop replays every step, or a fleet places on
//! server after server, is validated and resolved once, not once per run.
//! A form names GPUs by dense index (their position among the simulator's
//! GPU ids), so it runs a hit's program wherever that communicator's GPUs
//! sit at the same dense indices as the lowering communicator's and the
//! form [fits](blink_sim::CompiledProgram::fits) its simulator. A
//! communicator simulates its own slice, so that is every slice of the
//! shape, in the same order, on any server or machine. Anywhere else (GPUs
//! at other dense indices, a simulator that differs in something the form
//! read) the run compiles the communicator's own program into its scratch,
//! so a shared form never changes a schedule.
//!
//! Run alone from time 0, a fitting form's total is a pure function of what
//! the form read, and `fits` compares every one of those reads. So the
//! entry also keeps that total, set by the first run of the form — the
//! fresh lowering's own first [`crate::Communicator::run`], or the
//! switch-fabric race that picked it — and every later `run` whose form
//! fits, the entry's first hit included, is served the total without
//! touching the engine. A lowering made for a stream or a process group
//! has no total until some `run` of its form simulates it. A form that does
//! not fit, and every run that needs more than the total (traced and
//! checked runs, streams, sessions and process groups), still simulate
//! ([`SharedPlanCache::engine_runs`] counts the runs that did). The form
//! and its total live and die with their entry: eviction drops them with
//! the lowering.

use crate::collective::CollectiveKind;
use crate::treegen::{plan_over, LinkSelection, PlanningGraphs, TreeGenOptions, TreePlan};
use crate::{BlinkError, Result};
use blink_graph::{Arborescence, WeightedTree};
use blink_sim::{CompiledProgram, Program};
use blink_topology::{GpuId, GpuInfo, ServerId, Topology};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// A 64-bit fingerprint of everything (besides the root and link class) a
/// [`TreePlan`] from [`TreeGen`](crate::treegen::TreeGen) depends on: the
/// induced topology's GPUs, links and per-GPU fabric caps, plus the
/// [`TreeGenOptions`] with the link class left out (it is part of a plan
/// key instead, so option sets that differ only in link class share one
/// fingerprint).
///
/// It tells GPU and server ids apart: two topologies share it only when
/// they agree in everything a plan reads, ids included, so a plan made for
/// one can be lowered on the other as it is. [`SharedPlanCache`] keys its
/// plans by a coarser fingerprint that numbers GPUs and servers by rank,
/// which the same slice shape on different servers shares, and hashes no
/// options: every communicator plans under the default ones.
pub fn plan_fingerprint(induced: &Topology, options: &TreeGenOptions) -> u64 {
    // every option field a plan depends on, in one fixed order — all of
    // them except the link class
    let TreeGenOptions {
        packing,
        minimize,
        links: _,
    } = options;
    let mut h = DefaultHasher::new();
    rank_fingerprint(induced).hash(&mut h);
    packing.epsilon.to_bits().hash(&mut h);
    packing.max_iterations.hash(&mut h);
    minimize.threshold.to_bits().hash(&mut h);
    minimize.unit_gbps.map(f64::to_bits).hash(&mut h);
    minimize.max_bb_nodes.hash(&mut h);
    minimize.known_optimum.map(f64::to_bits).hash(&mut h);
    for g in induced.gpus() {
        (g.id, g.server).hash(&mut h);
    }
    h.finish()
}

/// Ids spanning more than this many values keep id keys in
/// [`rank_fingerprint`].
const MAX_RANK_SPAN: usize = 1 << 16;

/// How [`rank_fingerprint`] names GPUs: by rank — position in the
/// topology's GPU list, found by binary search — when the list's ids
/// ascend strictly and span at most [`MAX_RANK_SPAN`] values, and by id
/// otherwise.
#[derive(Debug, Clone, Copy)]
enum Names<'a> {
    Ranks(&'a [GpuInfo]),
    Ids,
}

impl<'a> Names<'a> {
    fn of(induced: &'a Topology) -> Self {
        let gpus = induced.gpus();
        let ascending = gpus.windows(2).all(|w| w[0].id < w[1].id);
        match (gpus.first(), gpus.last()) {
            (Some(first), Some(last)) if ascending && last.id.0 - first.id.0 < MAX_RANK_SPAN => {
                Names::Ranks(gpus)
            }
            _ => Names::Ids,
        }
    }

    /// `g`'s name: its rank (`u64::MAX` outside the list) or its id.
    fn gpu(self, g: GpuId) -> u64 {
        match self {
            Names::Ranks(gpus) => gpus
                .binary_search_by_key(&g, |info| info.id)
                .map_or(u64::MAX, |rank| rank as u64),
            Names::Ids => g.0 as u64,
        }
    }

    /// Hashes `name`, a GPU's or server's: in four bytes by rank (ranks stay
    /// below [`MAX_RANK_SPAN`], and `u64::MAX` becomes `u32::MAX`), in
    /// eight by id.
    fn put(self, h: &mut BufferedHasher, name: u64) {
        match self {
            Names::Ranks(_) => h.put(&u32::try_from(name).unwrap_or(u32::MAX).to_le_bytes()),
            Names::Ids => h.put(&name.to_le_bytes()),
        }
    }
}

/// A hasher fed through a buffer on the stack, written to a buffer at a
/// time: the hasher's cost is per write, and SipHash streams, so the hash
/// is that of one write of every byte.
struct BufferedHasher {
    hasher: DefaultHasher,
    buf: [u8; 512],
    len: usize,
}

impl BufferedHasher {
    fn new() -> Self {
        BufferedHasher {
            hasher: DefaultHasher::new(),
            buf: [0; 512],
            len: 0,
        }
    }

    /// Appends `bytes` (at most the buffer's size).
    fn put(&mut self, bytes: &[u8]) {
        if self.len + bytes.len() > self.buf.len() {
            self.hasher.write(&self.buf[..self.len]);
            self.len = 0;
        }
        self.buf[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
    }

    /// The hasher, every byte written.
    fn into_hasher(mut self) -> DefaultHasher {
        self.hasher.write(&self.buf[..self.len]);
        self.hasher
    }
}

/// The plan tier's fingerprint: everything (besides the root and link
/// class) a stored [`TreePlan`], a lowering or a compiled form reads of the
/// topology — each GPU's server and fabric cap, and each link's kind, lanes
/// and bandwidth, in order — with each GPU and link endpoint hashed by its
/// **rank** (its position in the topology's ascending GPU ids) and each
/// server by its position among the topology's servers, instead of by id.
/// A GPU's [`local_index`](GpuInfo::local_index) is read by none of them,
/// so it is not hashed. [`plan_fingerprint`] hashes this with the options
/// and the ids.
///
/// Slices related by an order-preserving renumbering therefore share it:
/// the same local shape on two servers of one kind, say `{0, 1, 3}` and
/// `{24, 25, 27}`, and equally one shape at two places on a server whose
/// links agree in order, such as the DGX-1V quads `{0, 1, 3}` and
/// `{4, 5, 7}`. Their planning graphs are equal up to that renumbering,
/// nodes and edges in the same order, so TreeGen makes the same plan for
/// both up to relabelling (see [`SharedPlanCache`]). Isomorphic slices that
/// match only under a reordering (on a DGX-1V, `{0, 1, 2}` and `{0, 1, 3}`,
/// whose double lane joins ranks 1 and 2 in one and ranks 0 and 2 in the
/// other) do not share it, and neither does a topology whose GPU ids do not
/// ascend or span more than [`MAX_RANK_SPAN`] values: those hash ids, as
/// [`plan_fingerprint`] does.
///
/// It allocates nothing when the topology's servers do not descend along
/// its GPUs (a placement's and a preset's never do): ranks are binary
/// searches in the GPU list, servers are numbered as they change, and the
/// bytes are hashed through a stack buffer.
pub(crate) fn rank_fingerprint(induced: &Topology) -> u64 {
    fingerprint_under(Names::of(induced), induced)
}

/// [`rank_fingerprint`], and `allocation` named as it names GPUs: each by
/// rank, or by id where the fingerprint hashes ids. Two allocations whose
/// induced topologies share the fingerprint list their GPUs in the same
/// order exactly when the names agree.
pub(crate) fn rank_fingerprint_and_order<'a>(
    induced: &'a Topology,
    allocation: &'a [GpuId],
) -> (u64, impl ExactSizeIterator<Item = u64> + 'a) {
    let names = Names::of(induced);
    let order = allocation.iter().map(move |&g| names.gpu(g));
    (fingerprint_under(names, induced), order)
}

/// [`rank_fingerprint`] with `names`, how it names `induced`'s GPUs.
fn fingerprint_under(names: Names<'_>, induced: &Topology) -> u64 {
    let gpus = induced.gpus();
    let ranked = matches!(names, Names::Ranks(_));
    // By rank, a server is named by its position among the topology's
    // servers: counted as it changes along the GPUs when they never go
    // back to a smaller server, and looked up in a sorted list otherwise.
    let sorted: Option<Vec<ServerId>> =
        (ranked && gpus.windows(2).any(|w| w[0].server > w[1].server)).then(|| {
            let mut servers: Vec<ServerId> = gpus.iter().map(|g| g.server).collect();
            servers.sort_unstable();
            servers.dedup();
            servers
        });
    let mut seen = 0u64;
    let mut h = BufferedHasher::new();
    h.put(&[u8::from(ranked)]);
    for (i, g) in gpus.iter().enumerate() {
        let server = match &sorted {
            _ if !ranked => g.server.0 as u64,
            Some(servers) => servers.partition_point(|&other| other < g.server) as u64,
            None => {
                seen += u64::from(i > 0 && gpus[i - 1].server != g.server);
                seen
            }
        };
        let cap = induced.gpu_cap(g.id);
        names.put(&mut h, names.gpu(g.id));
        names.put(&mut h, server);
        h.put(&[u8::from(cap.is_some())]);
        h.put(&cap.map_or(0, f64::to_bits).to_le_bytes());
    }
    for l in induced.links() {
        names.put(&mut h, names.gpu(l.src));
        names.put(&mut h, names.gpu(l.dst));
        h.put(&[l.kind as u8]);
        h.put(&l.lanes.to_le_bytes());
        h.put(&l.bandwidth_gbps.to_bits().to_le_bytes());
    }
    h.into_hasher().finish()
}

/// `induced`'s GPU ids, in its order.
fn gpu_ids(induced: &Topology) -> impl Iterator<Item = GpuId> + Clone + '_ {
    induced.gpus().iter().map(|g| g.id)
}

/// `plan` relabelled by position onto the GPUs `to`: its `i`-th GPU
/// becomes the `i`-th of `to`. That is `plan` itself when its GPUs already
/// are `to`. `None` when the two lists differ in length or either does not
/// ascend, since renaming could then reorder the GPUs.
fn relabelled(
    plan: &Arc<TreePlan>,
    to: impl Iterator<Item = GpuId> + Clone,
) -> Option<Arc<TreePlan>> {
    if plan.gpus.iter().copied().eq(to.clone()) {
        return Some(plan.clone());
    }
    let to: Vec<GpuId> = to.collect();
    let ascends = |gpus: &[GpuId]| gpus.windows(2).all(|w| w[0] < w[1]);
    if to.len() != plan.gpus.len() || !ascends(&to) || !ascends(&plan.gpus) {
        return None;
    }
    let map = |g: GpuId| {
        let rank = plan.gpus.binary_search(&g).ok()?;
        to.get(rank).copied()
    };
    let trees = plan
        .trees
        .iter()
        .map(|t| {
            let edges = t.tree.edges.iter().map(|&(a, b)| Some((map(a)?, map(b)?)));
            Some(WeightedTree {
                tree: Arborescence {
                    root: map(t.tree.root)?,
                    edges: edges.collect::<Option<_>>()?,
                },
                weight: t.weight,
            })
        })
        .collect::<Option<_>>()?;
    let root = map(plan.root)?;
    Some(Arc::new(TreePlan {
        root,
        gpus: to,
        trees,
        optimal_rate_gbps: plan.optimal_rate_gbps,
        trees_before_minimize: plan.trees_before_minimize,
        links: plan.links,
        mwu: plan.mwu,
    }))
}

/// A renaming of one slice's GPUs onto another's, position by position:
/// what turns a lowering made for one slice into the lowering for the same
/// shape on another server (see "the lowering tier" in the module docs).
#[derive(Debug)]
pub(crate) struct Renaming {
    /// `(from, to)` pairs, ascending by `from`.
    pairs: Vec<(GpuId, GpuId)>,
}

impl Renaming {
    /// The renaming of each `from[i]` to `to[i]`; `None` when the lists
    /// differ in length.
    pub(crate) fn new(from: &[GpuId], to: &[GpuId]) -> Option<Renaming> {
        if from.len() != to.len() {
            return None;
        }
        let mut pairs: Vec<(GpuId, GpuId)> = from.iter().copied().zip(to.iter().copied()).collect();
        pairs.sort_unstable();
        Some(Renaming { pairs })
    }

    /// `g` renamed; a GPU outside `from` keeps its id.
    pub(crate) fn gpu(&self, g: GpuId) -> GpuId {
        match self.pairs.binary_search_by_key(&g, |&(from, _)| from) {
            Ok(i) => self.pairs[i].1,
            Err(_) => g,
        }
    }

    /// `plan` renamed; `None` when the renaming would reorder its GPUs.
    pub(crate) fn plan(&self, plan: &Arc<TreePlan>) -> Option<Arc<TreePlan>> {
        relabelled(plan, plan.gpus.iter().map(|&g| self.gpu(g)))
    }

    /// `program` renamed.
    pub(crate) fn program(&self, program: &Program) -> Program {
        program.renamed(|g| self.gpu(g))
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
/// # One bounded plan tier
///
/// Plans are keyed by `(rank fingerprint, root rank, link class)`, with no
/// options: every plan is packed under the default [`TreeGenOptions`]. The
/// rank fingerprint hashes the induced topology as [`plan_fingerprint`]
/// does, but each GPU, link endpoint and server by its rank among the
/// slice's instead of by its id. Slices related by an order-preserving
/// renumbering — one local shape on different servers, or at different
/// places on one server — share a key: a stored plan keeps the GPU labels
/// of the slice that packed it, and a hit from another slice gets a copy
/// relabelled by position onto its own GPUs, which is the very plan a cold
/// pack there would make (a hit on the packing slice's own GPUs gets the
/// stored plan itself). Other isomorphic allocations, which match only
/// under a reordering of their GPUs, are different keys: each packs its own
/// plans, exactly as a private communicator would. The tier holds only
/// cold plans (see "a store entry is a pure function of its key" in the
/// module docs).
///
/// The tier holds at most [`SharedPlanCache::DEFAULT_CAPACITY`] plans and
/// evicts its least-recently-used entry when an insert would exceed the
/// bound, so a long-running scheduler whose workload mix turns over no
/// longer grows one entry per job shape forever. Eviction only ever costs a
/// re-pack: lookups are keyed by the caller's current fingerprint, so
/// correctness is never at stake.
///
/// # The lowering tier
///
/// A second tier, bounded the same way, holds lowered programs (see "the
/// lowering tier" in the module docs); [`SharedPlanCache::lowering_stats`]
/// counts its hits and misses. Cloning the handle shares both tiers. The
/// store holds no buffers: its packs, and its communicators' runs, check
/// theirs out of [`ScratchPool::process`](crate::ScratchPool::process).
#[derive(Debug, Clone, Default)]
pub struct SharedPlanCache {
    inner: Arc<Mutex<Tiers>>,
}

/// A plan-tier key: `(rank fingerprint, root rank, link class)`, the root's
/// rank being its position among the slice's GPUs.
type PlanKey = (u64, usize, LinkSelection);

/// A plan-tier entry: the cold plan, or the error its pack failed with
/// (the link class cannot span the slice from the root).
type Packed = std::result::Result<Arc<TreePlan>, BlinkError>;

#[derive(Debug)]
struct Tiers {
    plans: Tier<PlanKey, Packed>,
    lowerings: Tier<LoweringKey, Arc<Lowering>>,
    /// MWU iterations summed over every plan the store packed.
    mwu_iterations: u64,
    /// Packs that failed (the link class cannot span the slice).
    failed_packs: u64,
    /// Ops summed over every fresh lowering offered to the lowering tier.
    lowered_ops: u64,
    /// Engine runs the store's communicators executed.
    engine_runs: u64,
}

impl Default for Tiers {
    fn default() -> Self {
        Tiers {
            plans: Tier::new(SharedPlanCache::DEFAULT_CAPACITY),
            lowerings: Tier::new(SharedPlanCache::DEFAULT_CAPACITY),
            mwu_iterations: 0,
            failed_packs: 0,
            lowered_ops: 0,
            engine_runs: 0,
        }
    }
}

/// The lowering tier's key: the communicator's lowering fingerprint (its
/// slice shape by rank, not its GPU ids), the collective signature — a
/// rooted kind's root named by its position in the communicator's
/// allocation (`GpuId(i)` for its `i`-th GPU), not by id — and the chunk
/// size. Nothing of a communicator's call history enters it: an entry is
/// what the first lowering of the key made, a switch fabric's strategy race
/// included.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct LoweringKey {
    pub(crate) base: u64,
    pub(crate) kind: CollectiveKind,
    pub(crate) bytes: u64,
    pub(crate) chunk: u64,
}

/// One lowered collective in the lowering tier.
#[derive(Debug)]
pub(crate) struct Lowering {
    /// The engine's compiled form of the program, over the GPUs of the
    /// communicator that lowered it, compiled on its simulator; the program
    /// is [`CompiledProgram::program`].
    pub(crate) form: Arc<CompiledProgram>,
    /// That communicator's allocation, in its order: a communicator of
    /// another slice renames `labels[i]` to its own `i`-th GPU.
    pub(crate) labels: Vec<GpuId>,
    /// The dense index ([`blink_sim::Simulator::gpu_index`]) of each GPU of
    /// `labels` on that simulator, in allocation order.
    pub(crate) dense: Vec<usize>,
    /// The total time of the form run alone from time 0 on a simulator it
    /// [fits](CompiledProgram::fits), set by the first such run (or by the
    /// switch-fabric race that picked it). A fitting form reads nothing of
    /// the simulator but what `fits` compares, so the total is the same on
    /// every simulator the form fits.
    pub(crate) total_us: OnceLock<f64>,
    /// Spanning trees (or partitions) the lowering used.
    pub(crate) num_trees: usize,
    /// Human-readable strategy tag of the lowering.
    pub(crate) strategy: String,
    /// The picked root, when the lowering ran over it.
    pub(crate) root: Option<GpuId>,
    /// Every plan the lowering read through its communicator's handle (a
    /// three-phase lowering reads the store directly and lists none); the
    /// first `sweep` are the picked root's sweep.
    pub(crate) plans: Vec<Arc<TreePlan>>,
    pub(crate) sweep: usize,
}

impl Lowering {
    /// The entry's compiled form, when the caller's GPUs sit at the same
    /// dense indices as the lowering communicator's: `dense` lists the
    /// caller's, in allocation order, on its simulator. The entry's program
    /// renamed onto the caller's allocation is then the form's program
    /// renamed by dense index, so the form runs it wherever it
    /// [fits](CompiledProgram::fits).
    pub(crate) fn form_for(&self, dense: &[usize]) -> Option<&Arc<CompiledProgram>> {
        (self.dense == dense).then_some(&self.form)
    }
}

/// One bounded LRU tier of the store: key → (value, last-touched tick), with
/// its own hit, miss and eviction counters. A hit refreshes the entry's
/// recency; an insert past `capacity` evicts the least-recently-used entry.
/// The O(n) scan per eviction is deliberate: capacities are small (plans
/// are megabyte-scale, not millions of entries) and eviction only happens on
/// inserts past the cap.
#[derive(Debug)]
struct Tier<K, V> {
    entries: BTreeMap<K, (V, u64)>,
    /// Monotonic access counter feeding the recency ticks.
    tick: u64,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: Ord + Clone, V: Clone> Tier<K, V> {
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
    #[cfg(test)]
    fn get(&mut self, key: &K) -> Option<V> {
        self.get_if(key, |_| true)
    }

    /// Looks `key` up, counting a hit if it is present and `accept`s, and a
    /// miss otherwise.
    fn get_if(&mut self, key: &K, accept: impl FnOnce(&V) -> bool) -> Option<V> {
        self.tick += 1;
        match self.entries.get_mut(key).filter(|(value, _)| accept(value)) {
            Some((value, last_used)) => {
                *last_used = self.tick;
                self.hits += 1;
                Some(value.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Stores `value`, evicting least-recently-used entries past the bound.
    /// Two communicators on different threads that miss the same key both
    /// pack it, and the later insert overwrites the earlier with an equal
    /// plan (planning is a pure function of the keyed inputs).
    fn insert(&mut self, key: K, value: V) {
        self.tick += 1;
        self.entries.insert(key, (value, self.tick));
        while self.entries.len() > self.capacity {
            let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, (_, last_used))| *last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            self.entries.remove(&oldest);
            self.evictions += 1;
        }
    }
}

impl SharedPlanCache {
    /// Maximum number of entries per tier. Sized for a scheduler fleet: a
    /// job shape costs one plan per (root, link class) it plans and one
    /// lowering per collective signature it issues, so this comfortably
    /// holds hundreds of distinct shapes while bounding a pathological churn
    /// workload to a few thousand small tree sets and programs.
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty store whose plan tier holds at most `capacity` plans.
    #[cfg(test)]
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        SharedPlanCache {
            inner: Arc::new(Mutex::new(Tiers {
                plans: Tier::new(capacity),
                ..Tiers::default()
            })),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Tiers> {
        self.inner.lock().expect("shared plan cache poisoned")
    }

    /// Number of entries in the plan tier (across all fingerprints): cold
    /// plans and failed packs.
    pub fn len(&self) -> usize {
        self.lock().plans.entries.len()
    }

    /// Whether the plan tier is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses)` counters of the plan tier since creation.
    pub fn stats(&self) -> (u64, u64) {
        let tiers = self.lock();
        (tiers.plans.hits, tiers.plans.misses)
    }

    /// `(hits, misses)` counters of the lowering tier since creation: each
    /// miss is one fresh lowering.
    pub fn lowering_stats(&self) -> (u64, u64) {
        let tiers = self.lock();
        (tiers.lowerings.hits, tiers.lowerings.misses)
    }

    /// MWU iterations (min-arborescence solves) summed over every plan the
    /// store packed since creation; a hit in any tier adds none.
    pub fn mwu_iterations(&self) -> u64 {
        self.lock().mwu_iterations
    }

    /// Packs that failed since creation, because the requested link class
    /// cannot span the slice from the root. A failed cold pack is stored, so
    /// a later lookup of its key fails with the same error as a plan-tier
    /// hit and packs nothing.
    pub fn failed_packs(&self) -> u64 {
        self.lock().failed_packs
    }

    /// Ops summed over every fresh lowering the store was offered since
    /// creation ([`Program::len`] of each lowering-tier miss's program,
    /// stored or not); a lowering-tier hit adds none.
    pub fn lowered_ops(&self) -> u64 {
        self.lock().lowered_ops
    }

    /// Engine runs the store's communicators executed since creation: each
    /// [`crate::Communicator::run`] or [`crate::Communicator::run_traced`]
    /// that simulated its program, and each strategy a switch fabric's
    /// fresh lowering of a key raced. A run served a stored lowering's
    /// memoised total adds none, so a lowering that is only `run` where its
    /// form fits simulates once in its entry's life: on its fresh lowering,
    /// or in the race. Compiling a form runs no engine, and streams,
    /// sessions and process groups are not counted.
    pub fn engine_runs(&self) -> u64 {
        self.lock().engine_runs
    }

    /// Counts one engine run (see [`SharedPlanCache::engine_runs`]).
    pub(crate) fn count_engine_run(&self) {
        self.lock().engine_runs += 1;
    }

    /// How many plans the LRU bound has evicted from the plan tier since
    /// creation.
    pub fn evictions(&self) -> u64 {
        self.lock().plans.evictions
    }

    /// The lowering under `key`, if one is stored and `accept` takes it.
    pub(crate) fn lowering(
        &self,
        key: &LoweringKey,
        accept: impl FnOnce(&Lowering) -> bool,
    ) -> Option<Arc<Lowering>> {
        self.lock().lowerings.get_if(key, |l| accept(l))
    }

    /// Stores `lowering` under `key`.
    pub(crate) fn publish_lowering(&self, key: LoweringKey, lowering: Arc<Lowering>) {
        let mut tiers = self.lock();
        tiers.lowered_ops += lowering.form.program().len() as u64;
        tiers.lowerings.insert(key, lowering);
    }

    /// The one lookup-or-pack-and-publish routine: the plan for `root` over
    /// the `links` class of `induced`, `fp` being `induced`'s
    /// [`rank_fingerprint`] and `graphs` its planning graphs. A plan-tier
    /// hit comes back relabelled onto `induced`'s GPUs and builds no graph.
    /// A miss packs on the calling thread over the `links` graph of
    /// `graphs` under the default [`TreeGenOptions`] and publishes the
    /// result, a failed pack included. A failed pack is counted. Beside the
    /// plan comes the number of MWU iterations this call ran: the plan's own
    /// after a pack, 0 after a hit.
    pub(crate) fn resolve(
        &self,
        links: LinkSelection,
        induced: &Topology,
        fp: u64,
        root: GpuId,
        graphs: &PlanningGraphs,
    ) -> Result<(Arc<TreePlan>, usize)> {
        let Some(rank) = induced.gpus().iter().position(|g| g.id == root) else {
            return Err(BlinkError::Planning(format!(
                "root {root} is not in the allocation"
            )));
        };
        let key = (fp, rank, links);
        let mut hit = None;
        self.lock().plans.get_if(&key, |stored| {
            hit = match stored {
                Ok(plan) => relabelled(plan, gpu_ids(induced)).map(Ok),
                Err(e) => Some(Err(e.clone())),
            };
            hit.is_some()
        });
        if let Some(plan) = hit {
            return plan.map(|plan| (plan, 0));
        }
        let options = TreeGenOptions {
            links,
            ..TreeGenOptions::default()
        };
        let plan = plan_over(graphs.get(induced, links), &options, root);
        let mut tiers = self.lock();
        match plan {
            Ok(plan) => {
                let plan = Arc::new(plan);
                tiers.mwu_iterations += plan.mwu.iterations as u64;
                tiers.plans.insert(key, Ok(plan.clone()));
                Ok((plan.clone(), plan.mwu.iterations))
            }
            Err(e) => {
                tiers.failed_packs += 1;
                tiers.plans.insert(key, Err(e.clone()));
                Err(e)
            }
        }
    }
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
/// memoised per `(root, link class)` for the communicator's current induced
/// topology. Misses go through [`SharedPlanCache::resolve`]. The handle
/// also records the plans it serves, so a lowering can list what it read
/// (see "the lowering tier" in the module docs), and counts the MWU
/// iterations its misses packed.
///
/// The handle serves one shape: a communicator whose shape changes is a
/// new communicator, with a new handle.
#[derive(Debug)]
pub(crate) struct PlanCache {
    store: SharedPlanCache,
    plans: BTreeMap<(GpuId, LinkSelection), Arc<TreePlan>>,
    /// Every plan served since the last [`PlanCache::take_reads`].
    reads: Vec<Arc<TreePlan>>,
    /// MWU iterations of the packs this handle's misses ran.
    packed_iterations: usize,
}

impl PlanCache {
    /// Creates an empty handle on `store`.
    pub(crate) fn new(store: SharedPlanCache) -> Self {
        PlanCache {
            store,
            plans: BTreeMap::new(),
            reads: Vec::new(),
            packed_iterations: 0,
        }
    }

    /// The store this handle looks misses up in and publishes packs to.
    pub(crate) fn store(&self) -> &SharedPlanCache {
        &self.store
    }

    /// Takes the plans served since the last call.
    pub(crate) fn take_reads(&mut self) -> Vec<Arc<TreePlan>> {
        std::mem::take(&mut self.reads)
    }

    /// Takes `plan`, read by a lowering another communicator made, as if
    /// this handle had served it.
    pub(crate) fn adopt(&mut self, plan: Arc<TreePlan>) {
        self.plans.entry((plan.root, plan.links)).or_insert(plan);
    }

    /// MWU iterations of the packs this handle's misses ran, in all: a
    /// store hit and a memoised plan add none.
    pub(crate) fn packed_iterations(&self) -> usize {
        self.packed_iterations
    }

    /// The plan for `(root, links)` on `induced`, whose
    /// [`rank_fingerprint`] is `fp` and planning graphs `graphs`: served
    /// from the handle when memoised, otherwise through
    /// [`SharedPlanCache::resolve`] (a store hit, or a pack it publishes).
    ///
    /// # Errors
    /// A failed pack; the handle caches nothing for it, and the store keeps
    /// a cold failure (see [`SharedPlanCache::resolve`]).
    pub(crate) fn plan_for(
        &mut self,
        induced: &Topology,
        links: LinkSelection,
        fp: u64,
        root: GpuId,
        graphs: &PlanningGraphs,
    ) -> Result<Arc<TreePlan>> {
        if let Some(plan) = self.plans.get(&(root, links)) {
            self.reads.push(plan.clone());
            return Ok(plan.clone());
        }
        let (plan, iterations) = self.store.resolve(links, induced, fp, root, graphs)?;
        self.packed_iterations += iterations;
        self.plans.insert((root, links), plan.clone());
        self.reads.push(plan.clone());
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blink_graph::PackingTermination;
    use blink_topology::presets::dgx1v;
    use blink_topology::TopologyDelta;

    /// A handle on a fresh private store.
    fn handle() -> PlanCache {
        PlanCache::new(SharedPlanCache::new())
    }

    impl PlanCache {
        /// [`PlanCache::plan_for`] over NVLink under `induced`'s rank
        /// fingerprint.
        fn plan(&mut self, induced: &Topology, root: GpuId) -> Result<Arc<TreePlan>> {
            let fp = rank_fingerprint(induced);
            let graphs = PlanningGraphs::default();
            self.plan_for(induced, LinkSelection::NvLinkOnly, fp, root, &graphs)
        }
    }

    /// The store's plan under `(fp, root rank, links)`.
    fn stored(
        store: &SharedPlanCache,
        fp: u64,
        rank: usize,
        links: LinkSelection,
    ) -> Option<Arc<TreePlan>> {
        store.lock().plans.get(&(fp, rank, links))?.ok()
    }

    fn induced(topo: &Topology, n: usize) -> Topology {
        topo.induced(&(0..n).map(GpuId).collect::<Vec<_>>())
            .unwrap()
    }

    #[test]
    fn plan_cache_memoises_per_root_and_link_class() {
        let induced = induced(&dgx1v(), 4);
        let mut cache = handle();
        assert_eq!(cache.plans.len(), 0);
        let first = cache.plan(&induced, GpuId(0)).unwrap();
        assert_eq!(cache.plans.len(), 1);
        // a repeat is served locally: the very same plan, no store traffic
        let again = cache.plan(&induced, GpuId(0)).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(cache.store().stats(), (0, 1));
        // a different root and a different link class are distinct entries
        cache.plan(&induced, GpuId(1)).unwrap();
        let fp = rank_fingerprint(&induced);
        cache
            .plan_for(
                &induced,
                LinkSelection::PcieOnly,
                fp,
                GpuId(0),
                &PlanningGraphs::default(),
            )
            .unwrap();
        assert_eq!(cache.plans.len(), 3);
    }

    #[test]
    fn a_failed_pack_is_stored_once_and_never_repacked() {
        let topo = blink_topology::presets::dgx1p();
        // GPUs 1 and 4 share no NVLink: NvLinkOnly planning fails
        let induced = topo.induced(&[GpuId(1), GpuId(4)]).unwrap();
        let mut cache = handle();
        let failed = cache.plan(&induced, GpuId(1)).unwrap_err();
        assert_eq!(cache.plans.len(), 0, "a handle keeps plans only");
        assert_eq!(cache.store().len(), 1, "the store keeps the failure");
        assert_eq!(cache.store().failed_packs(), 1);
        // a later lookup, from any handle, hits the failure and packs nothing
        let store = cache.store().clone();
        assert_eq!(
            handle_on(&store).plan(&induced, GpuId(1)).unwrap_err(),
            failed
        );
        assert_eq!(store.failed_packs(), 1);
        assert_eq!(store.stats(), (1, 1));
    }

    fn handle_on(store: &SharedPlanCache) -> PlanCache {
        PlanCache::new(store.clone())
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
    fn the_plan_fingerprint_hashes_every_option_field_but_the_link_class() {
        let induced = induced(&dgx1v(), 4);
        let fp = |o: &TreeGenOptions| plan_fingerprint(&induced, o);
        let base = TreeGenOptions::default();
        let mut variants = [base; 6];
        variants[0].packing.epsilon = 0.1;
        variants[1].packing.max_iterations += 1;
        variants[2].minimize.threshold = 0.1;
        variants[3].minimize.unit_gbps = Some(25.0);
        variants[4].minimize.max_bb_nodes += 1;
        variants[5].minimize.known_optimum = Some(138.0);
        for v in &variants {
            assert_ne!(fp(v), fp(&base), "plan fingerprint ignores {v:?}");
        }
        let pcie = TreeGenOptions {
            links: LinkSelection::PcieOnly,
            ..base
        };
        assert_eq!(fp(&pcie), fp(&base));
    }

    /// GPUs {0, 1, 3} of server `s` of an eight-server DGX-1V fleet.
    fn local_shape(s: usize) -> Topology {
        use blink_topology::presets::{multi_server, ServerKind};
        let gpus = [GpuId(8 * s), GpuId(8 * s + 1), GpuId(8 * s + 3)];
        multi_server(8, ServerKind::Dgx1V, 5.0)
            .induced(&gpus)
            .unwrap()
    }

    #[test]
    fn one_shape_on_two_servers_shares_a_rank_fingerprint() {
        let (a, b) = (local_shape(0), local_shape(5));
        assert_eq!(rank_fingerprint(&a), rank_fingerprint(&b));
        // the exact fingerprint still tells the two servers' GPUs apart
        let opts = TreeGenOptions::default();
        assert_ne!(plan_fingerprint(&a, &opts), plan_fingerprint(&b, &opts));
        // one shape at another place on a server shares it too: {4, 5, 7}
        // has {0, 1, 3}'s links in the same order, so {0, 1, 3}'s plan,
        // relabelled, is {4, 5, 7}'s own pack
        let slice = |gpus: &[usize]| dgx1v().induced(&ids_of(gpus)).unwrap();
        let (home, mirrored) = (slice(&[0, 1, 3]), slice(&[4, 5, 7]));
        assert_eq!(rank_fingerprint(&home), rank_fingerprint(&mirrored));
        let packed = handle().plan(&home, GpuId(1)).unwrap();
        let own = handle().plan(&mirrored, GpuId(5)).unwrap();
        let renaming = Renaming::new(&ids_of(&[0, 1, 3]), &ids_of(&[4, 5, 7])).unwrap();
        assert!(renaming.plan(&packed).unwrap().bit_eq(&own));
        // an isomorphic slice whose double lane joins other ranks is
        // another key
        assert_ne!(
            rank_fingerprint(&home),
            rank_fingerprint(&slice(&[0, 1, 2]))
        );
    }

    #[test]
    fn an_allocation_is_ordered_by_rank_unless_its_slice_hashes_ids() {
        let (a, b) = (local_shape(0), local_shape(5));
        let order = |induced: &Topology, alloc: &[usize]| {
            let alloc: Vec<GpuId> = alloc.iter().map(|&g| GpuId(g)).collect();
            let (fp, names) = rank_fingerprint_and_order(induced, &alloc);
            (fp, names.collect::<Vec<u64>>())
        };
        // one shape in one order on two servers: one key
        let (fp, ranks) = order(&a, &[0, 1, 3]);
        assert_eq!((fp, ranks.clone()), order(&b, &[40, 41, 43]));
        assert_eq!(fp, rank_fingerprint(&a));
        assert_eq!(ranks, [0, 1, 2]);
        // the same GPUs in another order are another order
        assert_eq!(order(&b, &[43, 40, 41]).1, [2, 0, 1]);
        // a slice whose ids do not ascend names GPUs by id
        let mut descending = Topology::new("descending");
        for g in a.gpus().iter().rev() {
            descending.add_gpu(g.id, g.server, g.local_index).unwrap();
        }
        assert_eq!(order(&descending, &[0, 1, 3]).1, [0, 1, 3]);
    }

    #[test]
    fn a_renaming_maps_position_by_position() {
        let ids = |v: &[usize]| v.iter().map(|&g| GpuId(g)).collect::<Vec<_>>();
        let renaming = Renaming::new(&ids(&[3, 0, 1]), &ids(&[43, 40, 41])).unwrap();
        assert_eq!(renaming.gpu(GpuId(0)), GpuId(40));
        assert_eq!(renaming.gpu(GpuId(3)), GpuId(43));
        assert_eq!(renaming.gpu(GpuId(7)), GpuId(7), "outside the slice");
        assert!(Renaming::new(&ids(&[0, 1]), &ids(&[40])).is_none());
        // a plan packed on one server, renamed, is the other server's pack
        let packed = handle().plan(&local_shape(0), GpuId(1)).unwrap();
        let own = handle().plan(&local_shape(5), GpuId(41)).unwrap();
        assert!(renaming.plan(&packed).unwrap().bit_eq(&own));
        // an order-reversing renaming would reorder the plan's GPUs
        let reversed = Renaming::new(&ids(&[0, 1, 3]), &ids(&[43, 41, 40])).unwrap();
        assert!(reversed.plan(&packed).is_none());
    }

    #[test]
    fn one_ulp_of_one_link_separates_rank_keys() {
        let (a, b) = (local_shape(0), local_shape(5));
        let mut faster = Topology::new(b.name());
        for g in b.gpus() {
            faster.add_gpu(g.id, g.server, g.local_index).unwrap();
        }
        for (i, link) in b.links().iter().enumerate() {
            let mut link = *link;
            if i == 0 {
                link.bandwidth_gbps = f64::from_bits(link.bandwidth_gbps.to_bits() + 1);
            }
            faster.add_link(link).unwrap();
        }
        assert_ne!(rank_fingerprint(&a), rank_fingerprint(&faster));
        // so the store relabels server 0's plan for server 5's slice, but
        // packs the faster slice afresh
        let store = SharedPlanCache::new();
        PlanCache::new(store.clone()).plan(&a, GpuId(0)).unwrap();
        PlanCache::new(store.clone()).plan(&b, GpuId(40)).unwrap();
        PlanCache::new(store.clone())
            .plan(&faster, GpuId(40))
            .unwrap();
        assert_eq!(store.stats(), (1, 2));
    }

    #[test]
    fn a_hit_from_another_server_is_that_servers_own_pack() {
        let (a, b) = (local_shape(0), local_shape(5));
        let store = SharedPlanCache::new();
        let packed = PlanCache::new(store.clone()).plan(&a, GpuId(1)).unwrap();
        let hit = PlanCache::new(store.clone()).plan(&b, GpuId(41)).unwrap();
        assert_eq!(store.stats(), (1, 1));
        let own = handle().plan(&b, GpuId(41)).unwrap();
        assert!(hit.bit_eq(&own));
        // a hit on the packing slice's own GPUs is the stored plan itself
        let again = PlanCache::new(store.clone()).plan(&a, GpuId(1)).unwrap();
        assert!(Arc::ptr_eq(&packed, &again));
    }

    #[test]
    fn a_stored_plan_that_cannot_be_relabelled_is_a_miss() {
        let (three, two) = (induced(&dgx1v(), 3), induced(&dgx1v(), 2));
        let plan = handle().plan(&three, GpuId(0)).unwrap();
        let onto = |ids: &[usize]| relabelled(&plan, ids.iter().map(|&i| GpuId(i)));
        assert!(Arc::ptr_eq(&onto(&[0, 1, 2]).unwrap(), &plan));
        assert!(onto(&[0, 1]).is_none(), "one GPU short");
        assert!(onto(&[10, 9, 8]).is_none(), "descending");
        let moved = onto(&[8, 9, 10]).unwrap();
        assert_eq!((moved.root, &moved.gpus), (GpuId(8), &ids_of(&[8, 9, 10])));
        for (t, m) in plan.trees.iter().zip(&moved.trees) {
            let shifted: Vec<_> = t
                .tree
                .edges
                .iter()
                .map(|&(a, b)| (GpuId(a.0 + 8), GpuId(b.0 + 8)))
                .collect();
            assert_eq!(m.tree.edges, shifted);
        }
        // a plan filed under a key it does not fit — a fingerprint
        // collision — is a miss and packs afresh
        let store = SharedPlanCache::new();
        let fp = rank_fingerprint(&two);
        store
            .lock()
            .plans
            .insert((fp, 0, LinkSelection::NvLinkOnly), Ok(plan.clone()));
        let got = PlanCache::new(store.clone()).plan(&two, GpuId(0)).unwrap();
        assert_eq!(got.gpus, two.gpu_ids());
        assert_eq!(store.stats(), (0, 1));
    }

    fn ids_of(v: &[usize]) -> Vec<GpuId> {
        v.iter().map(|&i| GpuId(i)).collect()
    }

    #[test]
    fn a_delta_leaves_the_store_serving_the_cold_plan_of_every_key() {
        let (a, b) = (local_shape(0), local_shape(5));
        let fp = rank_fingerprint(&a);
        let store = SharedPlanCache::new();
        let packed = PlanCache::new(store.clone()).plan(&a, GpuId(0)).unwrap();
        // server 5's slice takes server 0's plan, then loses a link it
        // routes over: a fresh handle on the damaged slice packs its cold
        // plan, and the old plan stays filed for the old shape
        PlanCache::new(store.clone()).plan(&b, GpuId(40)).unwrap();
        let delta = TopologyDelta::kill_link(&b, GpuId(40), GpuId(41));
        let damaged = b.apply_delta(&delta).unwrap();
        let repacked = PlanCache::new(store.clone())
            .plan(&damaged, GpuId(40))
            .unwrap();
        assert_eq!(repacked.mwu.termination, PackingTermination::Exact);
        assert!(repacked.bit_eq(&handle().plan(&damaged, GpuId(40)).unwrap()));
        assert!(Arc::ptr_eq(
            &stored(&store, fp, 0, LinkSelection::NvLinkOnly).unwrap(),
            &packed
        ));
        // the replan is published like any miss: another handle on the
        // damaged slice hits it
        let damaged_fp = rank_fingerprint(&damaged);
        let filed = stored(&store, damaged_fp, 0, LinkSelection::NvLinkOnly).unwrap();
        assert!(Arc::ptr_eq(&filed, &repacked));
        let served = PlanCache::new(store.clone())
            .plan(&damaged, GpuId(40))
            .unwrap();
        assert!(Arc::ptr_eq(&served, &repacked));
        // server 0's own slice losing the link leaves its plan filed too
        let delta = TopologyDelta::kill_link(&a, GpuId(0), GpuId(1));
        PlanCache::new(store.clone())
            .plan(&a.apply_delta(&delta).unwrap(), GpuId(0))
            .unwrap();
        assert!(Arc::ptr_eq(
            &stored(&store, fp, 0, LinkSelection::NvLinkOnly).unwrap(),
            &packed
        ));
    }

    /// Whether a resolved plan is the plan TreeGen made, or both failed
    /// alike.
    fn resolved_as(resolved: Result<(Arc<TreePlan>, usize)>, made: Result<TreePlan>) -> bool {
        match (resolved, made) {
            (Ok((resolved, _)), Ok(made)) => resolved.bit_eq(&made),
            (Err(resolved), Err(made)) => resolved.to_string() == made.to_string(),
            _ => false,
        }
    }

    #[test]
    fn a_plan_resolved_over_a_shapes_graphs_is_the_one_treegen_makes() {
        use crate::treegen::TreeGen;
        use blink_topology::presets::{dgx1p, dgx2};
        // DGX-1V, DGX-1P and DGX-2 slices, and DGX-1P slices NVLink cannot
        // span, planned over PCIe as the fallback does; each shape's plans
        // go through one set of planning graphs from the first and last GPU,
        // then again on the slice with its first two GPUs' links killed
        let nvlink = LinkSelection::NvLinkOnly;
        let pcie = LinkSelection::PcieOnly;
        let cases = [
            (dgx1v(), vec![0, 1, 2, 3, 4, 5, 6, 7], nvlink),
            (dgx1v(), vec![1, 4, 5, 6], nvlink),
            (dgx1p(), vec![0, 1, 3, 4, 5, 7], nvlink),
            (dgx2(), vec![0, 3, 7, 11, 12], nvlink),
            (dgx1p(), vec![1, 4], pcie),
            (dgx1p(), vec![1, 4, 6], pcie),
        ];
        for (machine, gpus, links) in cases {
            let alloc: Vec<GpuId> = gpus.into_iter().map(GpuId).collect();
            let induced = machine.induced(&alloc).unwrap();
            let delta = TopologyDelta::kill_link(&induced, alloc[0], alloc[1]);
            let damaged = induced.apply_delta(&delta).unwrap();
            let options = TreeGenOptions {
                links,
                ..TreeGenOptions::default()
            };
            for topo in [&induced, &damaged] {
                let fp = rank_fingerprint(topo);
                let tg = TreeGen::new(topo.clone(), options);
                let (store, graphs) = (SharedPlanCache::new(), PlanningGraphs::default());
                for root in [alloc[0], alloc[alloc.len() - 1]] {
                    let plan = store.resolve(links, topo, fp, root, &graphs);
                    let made = tg.plan(root);
                    assert!(resolved_as(plan, made), "{alloc:?} from {root}");
                }
            }
        }
    }

    #[test]
    fn the_store_hands_plans_across_handles() {
        let induced = induced(&dgx1v(), 8);
        let shared = SharedPlanCache::new();
        // "communicator" A packs and publishes
        let mut a = PlanCache::new(shared.clone());
        let plan_a = a.plan(&induced, GpuId(0)).unwrap();
        assert_eq!(shared.stats(), (0, 1), "first pack is a store miss");
        assert_eq!(shared.len(), 1);
        // "communicator" B of the same job shape reuses A's plan
        let mut b = PlanCache::new(shared.clone());
        let plan_b = b.plan(&induced, GpuId(0)).unwrap();
        assert_eq!(shared.stats(), (1, 1), "same shape must hit");
        assert!(Arc::ptr_eq(&plan_a, &plan_b), "a hit shares the plan");
        // a local repeat never touches the store
        b.plan(&induced, GpuId(0)).unwrap();
        assert_eq!(shared.stats(), (1, 1));
    }

    #[test]
    fn mwu_iterations_count_packs_and_not_hits() {
        let induced = induced(&blink_topology::presets::dgx2(), 4);
        let shared = SharedPlanCache::new();
        assert_eq!(shared.mwu_iterations(), 0);
        let mut packer = PlanCache::new(shared.clone());
        let plan = packer.plan(&induced, GpuId(1)).unwrap();
        assert!(
            plan.mwu.iterations > 0,
            "a DGX-2 root past the first packs with MWU"
        );
        assert_eq!(shared.mwu_iterations(), plan.mwu.iterations as u64);
        assert_eq!(packer.packed_iterations(), plan.mwu.iterations);
        // a memoised repeat packs nothing
        packer.plan(&induced, GpuId(1)).unwrap();
        assert_eq!(packer.packed_iterations(), plan.mwu.iterations);
        // another handle's lookup is a store hit: no packing, no count
        let mut hitter = PlanCache::new(shared.clone());
        hitter.plan(&induced, GpuId(1)).unwrap();
        assert_eq!(shared.stats(), (1, 1));
        assert_eq!(shared.mwu_iterations(), plan.mwu.iterations as u64);
        assert_eq!(hitter.packed_iterations(), 0);
    }

    #[test]
    fn the_store_misses_on_a_changed_topology() {
        let topo = dgx1v();
        let full = induced(&topo, 8);
        let shared = SharedPlanCache::new();
        PlanCache::new(shared.clone())
            .plan(&full, GpuId(0))
            .unwrap();
        // different allocation shape: miss, packed fresh
        let half = induced(&topo, 4);
        PlanCache::new(shared.clone())
            .plan(&half, GpuId(0))
            .unwrap();
        assert_eq!(shared.stats(), (0, 2));
        // unlike a handle, the store keeps both shapes
        assert_eq!(shared.len(), 2);
    }

    #[test]
    fn a_changed_topology_leaves_the_old_shape_in_the_store() {
        let topo = dgx1v();
        let full = induced(&topo, 8);
        let half = induced(&topo, 4);
        let shared = SharedPlanCache::new();
        PlanCache::new(shared.clone())
            .plan(&full, GpuId(0))
            .unwrap();
        assert_eq!(shared.len(), 1);
        // the topology changes full -> half and a fresh handle plans the
        // half shape: the full-shape plan stays in the store, and the half
        // shape's cold plan, which an isolated handle packs too, is
        // published beside it
        let replanned = PlanCache::new(shared.clone())
            .plan(&half, GpuId(0))
            .unwrap();
        assert_eq!(shared.len(), 2);
        let fp_full = rank_fingerprint(&full);
        assert!(stored(&shared, fp_full, 0, LinkSelection::NvLinkOnly).is_some());
        assert!(replanned.bit_eq(&handle().plan(&half, GpuId(0)).unwrap()));
        let fp_half = rank_fingerprint(&half);
        assert!(Arc::ptr_eq(
            &stored(&shared, fp_half, 0, LinkSelection::NvLinkOnly).unwrap(),
            &replanned
        ));
    }

    #[test]
    fn a_tier_evicts_its_least_recently_used_entry_past_capacity() {
        let induced = induced(&dgx1v(), 8);
        let fp = rank_fingerprint(&induced);
        let plan = handle().plan(&induced, GpuId(0)).unwrap();
        let key = |r: usize| (fp, GpuId(r), LinkSelection::NvLinkOnly);
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
        let shared = SharedPlanCache::with_capacity(1);
        let mut a = PlanCache::new(shared.clone());
        let first = a.plan(&induced, GpuId(0)).unwrap();
        a.plan(&induced, GpuId(1)).unwrap();
        assert_eq!(shared.len(), 1);
        assert_eq!(shared.evictions(), 1, "root 0 fell out of the store");
        // the handle still serves root 0 without consulting the store
        let again = a.plan(&induced, GpuId(0)).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(shared.stats(), (0, 2));
        // another handle simply re-packs the evicted root, bit-identically
        let replanned = PlanCache::new(shared.clone())
            .plan(&induced, GpuId(0))
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
        assert_eq!(tiers.plans.capacity, SharedPlanCache::DEFAULT_CAPACITY);
        assert_eq!(tiers.lowerings.capacity, SharedPlanCache::DEFAULT_CAPACITY);
    }

    /// Plans every root of `roots` through `cache`, in order.
    fn plan_each(cache: &mut PlanCache, induced: &Topology, roots: &[GpuId]) -> Vec<Arc<TreePlan>> {
        roots
            .iter()
            .map(|&r| cache.plan(induced, r).unwrap())
            .collect()
    }

    #[test]
    fn a_killed_link_replans_every_root_cold_around_it() {
        let alloc: Vec<GpuId> = (0..8).map(GpuId).collect();
        let induced = induced(&dgx1v(), 8);
        let store = SharedPlanCache::new();
        plan_each(&mut PlanCache::new(store.clone()), &induced, &alloc);
        // a physical NVLink connection dies: a fresh handle on the damaged
        // slice on the same store plans every root as an isolated handle
        // does, around the dead pair
        let delta = TopologyDelta::kill_link(&induced, GpuId(0), GpuId(1));
        let after = induced.apply_delta(&delta).unwrap();
        let mut cold_cache = handle();
        let replanned = plan_each(&mut PlanCache::new(store.clone()), &after, &alloc);
        for (plan, &root) in replanned.iter().zip(&alloc) {
            assert!(plan.trees.iter().all(|t| t
                .tree
                .edges
                .iter()
                .all(|e| !delta.removed_links.iter().any(|l| (l.src, l.dst) == *e))));
            assert!(
                plan.bit_eq(&cold_cache.plan(&after, root).unwrap()),
                "root {root}"
            );
        }
        assert_eq!(store.stats(), (0, 16), "the damaged slice is a new key");
    }

    #[test]
    fn global_plan_cache_is_one_process_wide_store() {
        let a = global_plan_cache();
        let b = global_plan_cache();
        let induced = induced(&dgx1v(), 2);
        let plan = handle().plan(&induced, GpuId(0)).unwrap();
        // a synthetic fingerprint no real communicator can collide with
        let fp = u64::MAX - 12345;
        a.lock()
            .plans
            .insert((fp, 999, LinkSelection::NvLinkOnly), Ok(plan.clone()));
        let via_b = stored(&b, fp, 999, LinkSelection::NvLinkOnly).unwrap();
        assert!(Arc::ptr_eq(&via_b, &plan));
    }
}
