//! The user-facing communicator: an NCCL-flavoured API over the whole Blink
//! pipeline (probe → TreeGen → CodeGen → execute).
//!
//! A [`Communicator`] is created for one job's GPU allocation, exactly like
//! `ncclCommInitRank` creates a communicator for a set of ranks. Each
//! collective call plans (or reuses) the tree set for its strategy, lowers it
//! to a transfer program at the communicator's chunk size, executes it on
//! the simulator and returns a [`CollectiveReport`]. What a call lowers and
//! reports is a function of the call alone, never of the calls before it.
//! Chunk tuning (Figure 12) lives outside the communicator: a caller that
//! tunes builds each step's communicator at the chunk its tuner picks.
//!
//! Rootless collectives (AllReduce, AllGather, ReduceScatter) run over the
//! trees of one picked root. The pick is a root sweep bounded by the
//! Edmonds/Lovász certificate: candidates are walked in allocation order and
//! a candidate is packed only if its certificate beats the best plan rate so
//! far. The pick equals that of an exhaustive sweep, and on a DGX-1's
//! symmetric NVLink graphs one root packs instead of every GPU. Rooted
//! collectives pack their own root on first use.
//!
//! When the fabric changes underneath a live job, [`Communicator::replan`]
//! takes a [`TopologyDelta`] and rebuilds the communicator over the damaged
//! machine and the surviving allocation, as Blink builds one per
//! allocation: through the constructor [`CommunicatorBuilder::build`] uses,
//! on the same plan store, followed by the bounded root sweep. What a
//! replanned communicator plans and lowers is therefore what a fresh one
//! over the damaged machine plans and lowers. A replan never grows the
//! allocation: a job handed more or other GPUs gets a new communicator over
//! them. [`Communicator::run_checked`] then proves the recovered program
//! byte-exact on the post-churn hardware.
//!
//! # Lowerings live in the plan store
//!
//! A communicator keeps no lowered programs and no scratch of its own. Every
//! collective it lowers goes to its plan store's lowering tier (see
//! [`crate::store`]), keyed by `(kind, bytes, chunk)` under the
//! communicator's lowering fingerprint, so a repeated call — or a call any
//! communicator of the same slice shape and options already made, on any
//! server — takes the stored lowering instead of lowering again (renamed
//! onto its own GPUs when another slice made it). The fingerprint is
//! computed once when the communicator is built, and a replan builds it
//! anew, so a replanned communicator shares the fingerprint of a fresh one
//! over the changed machine. A communicator keeps no call
//! history that could pick what it lowers: on a switch fabric the first
//! lowering of a key races the strategies and stores the winner, and every
//! later lookup of the key, from this communicator or a fresh one, takes it.
//! [`Communicator::run_traced`], [`Communicator::run_streamed`] and
//! [`crate::ProcessGroups::run_concurrent`] all lower through the tier, and
//! simulate on a scratch checked out of the process's pool for one run. A
//! fresh lowering compiles its program into the engine's form on the
//! communicator's simulator, and the form is part of the stored lowering;
//! every call runs that form where it runs here, so a repeated step, or the
//! same job shape on another server, skips validating and resolving its
//! programs. [`Communicator::run`] reads only the run's total time, so the
//! engine builds no per-op spans or per-link accounting for it; where the
//! stored form runs here and a run already simulated it, `run` takes the
//! total the tier memoised beside the form and runs no engine at all. A hit
//! renames none of the stored lowering's plans until something reads them.
//!
//! # Building one
//!
//! [`CommunicatorBuilder::build`] derives everything in one pass over the
//! machine model: a placement's topology is written straight into vectors
//! sized up front ([`placement_topology`]); an allocation spanning the whole
//! machine (a placement's always does) is its own induced topology, shared
//! rather than copied; the simulator runs over the induced topology, so its
//! resource table sorts only the slice's links and reads each of its GPUs'
//! port cap and NIC once; and the plan fingerprint hashes through a stack
//! buffer while the lowering fingerprint collects nothing.
//!
//! Simulating the slice rather than the machine changes no schedule: ops
//! name only the allocation's GPUs, and the slice keeps every link between
//! them, their capacities, switch ports and NICs. Only the engine's
//! resource numbers and dense GPU indices change, the latter to positions
//! within the slice, so a stored compiled form runs for the same slice
//! shape on any machine. The machine model is kept beside the simulator
//! for [`Communicator::machine_topology`], replans and process-group
//! splits.

use crate::codegen::{CodeGen, CodeGenOptions};
use crate::collective::{CollectiveKind, CollectiveReport};
use crate::fusion::{fuse_requests, fusible, restrict_to_window, FusedGroup};
use crate::hybrid::HybridPlanner;
use crate::multiserver::three_phase_allreduce_cached;
use crate::onehop::{is_switch_fabric, one_hop_broadcast_tree, one_hop_trees};
use crate::store::{
    global_plan_cache, rank_fingerprint_and_order, Lowering, LoweringKey, PlanCache, Renaming,
    SharedPlanCache,
};
use crate::treegen::{LinkSelection, PlanningGraphs, ScratchPool, TreePlan};
use crate::{BlinkError, Result};
use blink_graph::{optimal_broadcast_rate_in, WeightedTree};
use blink_sim::{
    algorithmic_bandwidth_gbps, check_collective, CompiledProgram, Program, Simulator, ValueCheck,
};
use blink_topology::presets::{placement_topology, ServerKind};
use blink_topology::{GpuId, GroupSplit, Topology, TopologyDelta, TopologyError};
use serde::{Deserialize, Serialize};
use std::cell::OnceCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// The choices a caller makes for a [`Communicator`] (set through
/// [`CommunicatorBuilder::options`]): the chunk size, hybrid transfers
/// and the fusion threshold. Everything else a communicator derives from
/// its allocation's topology: it plans under the default
/// [`crate::TreeGenOptions`], packing NVLink trees (PCIe ones where NVLink
/// cannot span), and simulates on the default [`blink_sim::SimParams`].
#[derive(Debug, Clone, Copy)]
pub struct CommunicatorOptions {
    /// The chunk size every collective lowers at. To tune it (Figure 12),
    /// build each step's communicator at the chunk a tuner picks, as
    /// `blink-bench`'s `fig12_chunk_autotune` does.
    pub chunk_bytes: u64,
    /// Enable hybrid PCIe + NVLink transfers (Section 3.4).
    pub use_hybrid: bool,
    /// Size threshold for the fusion pass applied by
    /// [`Communicator::run_streamed`]: concurrent same-kind requests smaller
    /// than this batch into one segmented program (see [`crate::fusion`]).
    /// 0 disables fusion. The default (4 MiB, one default chunk) batches the
    /// small per-layer gradient buckets whose launch overheads dominate
    /// while leaving bandwidth-bound transfers unfused.
    pub fusion_threshold_bytes: u64,
}

impl Default for CommunicatorOptions {
    fn default() -> Self {
        CommunicatorOptions {
            chunk_bytes: 4 << 20,
            use_hybrid: false,
            fusion_threshold_bytes: 4 << 20,
        }
    }
}

/// What one [`Communicator::root_sweep`] observed: the winning root and
/// rate, the plans it read, and whether any candidate spans the selected
/// link class.
#[derive(Debug, Clone)]
struct SweepOutcome {
    root: GpuId,
    rate_gbps: f64,
    plans: Vec<Arc<TreePlan>>,
    /// At least one candidate root spans the selected link class.
    spannable: bool,
}

impl SweepOutcome {
    fn fallback(root: GpuId) -> Self {
        SweepOutcome {
            root,
            rate_gbps: 0.0,
            plans: Vec::new(),
            spannable: false,
        }
    }
}

/// Which rung of the graceful-degradation ladder a [`Communicator::replan`]
/// call landed on. Rungs are ordered from "as fast as before" to "alive but
/// smaller"; every rung still produces value-correct collectives (the
/// conformance matrix drives each rung through `run_checked`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DegradationLevel {
    /// The delta left the communicator's slice as it was (the same GPUs,
    /// links and NICs), so the rebuilt communicator runs what it ran
    /// before. The name is older than its meaning; it stays because the
    /// benchmark reports the rung by it.
    FullWarmRepair,
    /// The survivor graph was re-planned from cold: a store hit, a closed
    /// form, an exact lane packing, or MWU packing plus minimisation. Also
    /// the neutral classification for strategies that do not pack per-root
    /// trees (switch fabrics, multi-server three-phase, single-GPU
    /// allocations).
    #[default]
    PackedReplan,
    /// The surviving NVLink graph can no longer span the allocation from any
    /// candidate root; collectives fall back to PCIe trees (or one-hop on
    /// switch fabrics) until a heal event restores spannability.
    PcieFallback,
    /// The survivor graph was disconnected outright; the allocation shrank in
    /// place to its largest connected component so the job stays alive on
    /// the GPUs that can still reach each other.
    ShrunkSubgroup,
}

impl std::fmt::Display for DegradationLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DegradationLevel::FullWarmRepair => "full-warm-repair",
            DegradationLevel::PackedReplan => "packed-replan",
            DegradationLevel::PcieFallback => "pcie-fallback",
            DegradationLevel::ShrunkSubgroup => "shrunk-subgroup",
        };
        f.write_str(s)
    }
}

/// What a [`Communicator::replan`] call did — the planning work it ran, the
/// re-picked root, and where on the degradation ladder the recovery
/// landed, for observability and the replan/chaos benchmarks.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplanReport {
    /// MWU iterations of the packs this replan's root sweep ran. A store
    /// hit, an exact lane packing and a closed-form plan add 0. The field
    /// keeps its name because the benchmark reads it by that name.
    #[serde(default)]
    pub warm_iterations: usize,
    /// Which rung of the graceful-degradation ladder this replan landed on.
    #[serde(default)]
    pub degradation: DegradationLevel,
    /// GPUs dropped from the allocation beyond what the delta removed,
    /// because the survivor graph was disconnected (only non-empty on
    /// [`DegradationLevel::ShrunkSubgroup`]).
    #[serde(default)]
    pub shed_gpus: Vec<GpuId>,
    /// The root the re-planned sweep picked for rootless collectives.
    pub root: GpuId,
    /// The picked root's packing rate (GB/s); 0 when the communicator's
    /// strategy does not use packed trees (switch fabric, multi-server,
    /// single GPU).
    pub rate_gbps: f64,
    /// GPUs in the allocation after the delta.
    pub num_gpus: usize,
}

/// A collective's timing report plus the artifacts the value-level oracle
/// replays: the lowered program (shared with the plan store's lowering
/// tier) and the engine's per-op `(start, end)` spans.
pub type TracedRun = (CollectiveReport, Arc<Program>, Vec<(f64, f64)>);

/// A [`TracedRun`] with the lowering it ran (`None` for a trivial call) in
/// place of its program.
type LoweredRun = (CollectiveReport, Option<Lowered>, Vec<(f64, f64)>);

/// A lowered program before it is compiled: the program, the trees (or
/// partitions) it uses and its strategy tag.
type Candidate = (Program, usize, String);

/// A fresh lowering: its program compiled on the communicator's simulator,
/// the trees (or partitions) it uses, its strategy tag and, when a
/// switch-fabric strategy race ran it, its isolated total.
type Built = (CompiledProgram, usize, String, Option<f64>);

/// A lowering as one communicator runs it: the lowering tier's entry and,
/// once a caller read it, its program over the communicator's GPUs.
#[derive(Debug)]
pub(crate) struct Lowered {
    pub(crate) entry: Arc<Lowering>,
    /// The renamed program, once a caller read it.
    program: OnceCell<Arc<Program>>,
}

impl Lowered {
    fn new(entry: Arc<Lowering>) -> Self {
        Lowered {
            entry,
            program: OnceCell::new(),
        }
    }

    /// The program over `allocation`, the GPUs of the communicator running
    /// it: the entry's own `Arc` for a lowering of that allocation, and
    /// otherwise its renaming position by position from the entry's labels
    /// (the same slice shape in the same order, since the lowering key
    /// says so), made on the first call.
    pub(crate) fn program(&self, allocation: &[GpuId]) -> Arc<Program> {
        let program = self.entry.form.program();
        if self.entry.labels == allocation {
            return program.clone();
        }
        self.program
            .get_or_init(|| {
                // the tier hands a lowering only to allocations of its
                // labels' length, which is all a renaming needs
                let renamed = Renaming::new(&self.entry.labels, allocation)
                    .map(|renaming| renaming.program(program));
                Arc::new(renamed.unwrap_or_default())
            })
            .clone()
    }
}

/// One program of a [`StreamedRun`]: a fused batch (or unfused single
/// request) with its issue time, completion time and the oracle-replayable
/// trace.
#[derive(Debug, Clone)]
pub struct StreamedGroup {
    /// Which requests the program carries and where each one's window lives
    /// in the fused logical space.
    pub group: FusedGroup,
    /// When the program was admitted into the session (the latest ready
    /// time of its member requests).
    pub issue_us: f64,
    /// When the program's last op finished, on the session clock.
    pub end_us: f64,
    /// The lowered (possibly fused) program, shared with the plan store's
    /// lowering tier.
    pub program: Arc<Program>,
    /// The lowering's compiled form, kept in the lowering tier with it (see
    /// [`crate::store`]): `program`'s, up to renaming its GPUs by dense
    /// index. The session ran it when it was compiled for GPUs at this
    /// communicator's dense indices and fits its simulator.
    pub compiled: Arc<CompiledProgram>,
    /// The engine's per-op `(start, end)` spans for this program.
    pub op_spans: Vec<(f64, f64)>,
    /// Human-readable strategy tag of the lowering.
    pub strategy: String,
}

/// Result of [`Communicator::run_streamed`]: every admitted program's trace
/// plus the end-to-end finish time on the shared session clock.
#[derive(Debug, Clone)]
pub struct StreamedRun {
    /// When the last program finished (µs from the session origin `t = 0`;
    /// request ready times are on the same clock).
    pub finish_us: f64,
    /// One entry per admitted program, in issue order.
    pub groups: Vec<StreamedGroup>,
}

impl StreamedRun {
    /// How many programs actually batched more than one request.
    pub fn fused_programs(&self) -> usize {
        self.groups.iter().filter(|g| g.group.is_fused()).count()
    }
}

/// A Blink communicator bound to one GPU allocation on one machine (or
/// cluster slice).
#[derive(Debug)]
pub struct Communicator {
    allocation: Vec<GpuId>,
    /// The machine model, shared with the simulator when the allocation
    /// spans all of it (a placement's always does).
    machine: Arc<Topology>,
    /// The simulator over the induced topology, which it holds.
    sim: Simulator,
    options: CommunicatorOptions,
    /// This communicator's handle on its plan store: re-issued collectives
    /// skip the packing stage entirely. The handle serves this
    /// communicator's one shape; [`Communicator::replan`] builds a new
    /// communicator, and with it a new handle on the same store.
    plans: PlanCache,
    /// What the communicator derived from its current shape.
    shape: ShapeState,
}

/// Everything a communicator derives from its allocation, induced topology
/// and options. [`ShapeState::new`] makes it once per communicator, in
/// [`Communicator::over`], and neither its allocation nor its topology
/// changes after, so no memo kept here can outlive its shape.
#[derive(Debug)]
struct ShapeState {
    /// [`crate::store::rank_fingerprint`] of the induced topology.
    plan_fp: u64,
    /// The key the store's lowering tier files this communicator's
    /// lowerings under (see [`lowering_fingerprint`]).
    lowering_fp: u64,
    /// The dense index ([`Simulator::gpu_index`]) of each allocation GPU on
    /// the communicator's simulator, in allocation order: where a stored
    /// compiled form must have been compiled for to run here (see
    /// [`Lowering::form_for`]).
    dense: Vec<usize>,
    /// The induced topology's planning graphs, each built by the first
    /// fresh lowering or root sweep that needs it; a lowering-tier hit
    /// builds none.
    graphs: PlanningGraphs,
    /// Memoised [`Communicator::pick_root`] answer and the plans its root
    /// sweep read: the allocation and topology are fixed per shape, so the
    /// best rootless-collective root is a constant — no per-call certificate
    /// sweep.
    picked: Option<(GpuId, Vec<Arc<TreePlan>>)>,
    /// Memoised NVLink spannability verdicts of every GPU, worked out in one
    /// pass on first use — including the negative ones, so a PCIe-fallback
    /// communicator walks the NVLink graph once, not once per fresh
    /// lowering.
    spannable: BTreeMap<GpuId, bool>,
    /// The stored lowering the communicator last took, whose plans and
    /// picked root it has not adopted yet: a collective that hits reads
    /// neither, so they are renamed only when something does (see
    /// [`Communicator::settle`]).
    unadopted: Option<Arc<Lowering>>,
}

impl ShapeState {
    /// The fresh state of a communicator over `allocation`, simulated on
    /// `sim` over its induced topology.
    fn new(allocation: &[GpuId], options: &CommunicatorOptions, sim: &Simulator) -> Self {
        let (plan_fp, order) = rank_fingerprint_and_order(sim.topology(), allocation);
        let dense = allocation
            .iter()
            .map(|&g| sim.gpu_index(g).unwrap_or(usize::MAX))
            .collect();
        ShapeState {
            plan_fp,
            lowering_fp: lowering_fingerprint(plan_fp, order, options),
            dense,
            graphs: PlanningGraphs::default(),
            picked: None,
            spannable: BTreeMap::new(),
            unadopted: None,
        }
    }
}

/// The lowering tier's key for a communicator: everything a lowering reads
/// besides the collective signature, the chunk and the plans themselves —
/// the rank fingerprint, the allocation `order` as that fingerprint names
/// GPUs (by rank, so the same slice shape on any server shares the key; by
/// id where the slice's ids do not ascend) and the one option a lowering
/// reads, [`CommunicatorOptions::use_hybrid`]. Computed once per
/// communicator, without collecting the order.
fn lowering_fingerprint(
    plan_fp: u64,
    order: impl ExactSizeIterator<Item = u64>,
    options: &CommunicatorOptions,
) -> u64 {
    // Destructured so a new option cannot be silently left out.
    let CommunicatorOptions {
        chunk_bytes: _,
        use_hybrid,
        fusion_threshold_bytes: _,
    } = *options;
    let mut h = DefaultHasher::new();
    plan_fp.hash(&mut h);
    // as a `[u64]` hashes: its length, then each name
    h.write_usize(order.len());
    order.for_each(|name| h.write_u64(name));
    use_hybrid.hash(&mut h);
    h.finish()
}

impl Communicator {
    /// Starts a [`CommunicatorBuilder`] over `machine` — the one construction
    /// path every configuration funnels through. By default the builder
    /// spans the whole machine, uses default options and attaches to the
    /// process-wide [`global_plan_cache`].
    pub fn builder(machine: Topology) -> CommunicatorBuilder {
        CommunicatorBuilder::on_machine(machine)
    }

    /// The communicator over `allocation` of `machine`, planning through
    /// `store`: the one place a communicator is made, by
    /// [`CommunicatorBuilder::build`] and by [`Communicator::replan`].
    ///
    /// # Errors
    /// Empty or unknown allocations, allocations naming a GPU twice.
    fn over(
        machine: Arc<Topology>,
        allocation: Vec<GpuId>,
        options: CommunicatorOptions,
        store: SharedPlanCache,
    ) -> Result<Communicator> {
        // An allocation of the whole machine, in its order, induces the
        // machine itself (a placement's always does): share it rather than
        // re-induce or copy it.
        let induced = if machine
            .gpus()
            .iter()
            .map(|g| g.id)
            .eq(allocation.iter().copied())
        {
            machine.clone()
        } else {
            let induced = machine
                .induced(&allocation)
                .map_err(|e| BlinkError::Planning(e.to_string()))?;
            Arc::new(induced)
        };
        // Inducing dedups the GPU set, so a repeated id shows up as a count
        // mismatch; name the first repeat only on that failure path.
        if induced.num_gpus() != allocation.len() {
            let mut seen = BTreeSet::new();
            if let Some(dup) = allocation.iter().find(|g| !seen.insert(**g)) {
                return Err(BlinkError::Planning(format!(
                    "{dup} appears more than once in the allocation"
                )));
            }
        }
        let sim = Simulator::with_defaults(induced);
        let shape = ShapeState::new(&allocation, &options, &sim);
        Ok(Communicator {
            allocation,
            machine,
            sim,
            options,
            plans: PlanCache::new(store),
            shape,
        })
    }

    /// The GPUs this communicator spans.
    pub fn allocation(&self) -> &[GpuId] {
        &self.allocation
    }

    /// The induced topology the communicator plans and simulates over.
    pub fn induced_topology(&self) -> &Topology {
        self.sim.topology()
    }

    /// The full machine model the communicator was created over (a superset
    /// of [`Communicator::induced_topology`] when the allocation is partial).
    pub fn machine_topology(&self) -> &Topology {
        &self.machine
    }

    /// The options the communicator was built with.
    pub fn options(&self) -> &CommunicatorOptions {
        &self.options
    }

    /// The plan store this communicator looks misses up in and publishes
    /// packs to.
    pub(crate) fn plan_store(&self) -> &SharedPlanCache {
        self.plans.store()
    }

    /// Whether the allocation spans more than one server.
    pub fn is_multi_server(&self) -> bool {
        self.sim.topology().servers().len() > 1
    }

    /// Splits this communicator into nested process-group subgroups (one
    /// child communicator per part of `split`), whose induced topologies
    /// share this machine's links. Children plan and lower through the
    /// parent's plan store like any communicator on it, and
    /// [`crate::ProcessGroups::run_concurrent`] executes one collective per
    /// subgroup inside a single simulator session, contending for the shared
    /// links. The parent communicator is not consumed and remains
    /// usable.
    ///
    /// # Errors
    /// Propagates invalid splits ([`GroupSplit::partition`]) and child
    /// construction failures.
    pub fn split(&self, split: &GroupSplit) -> Result<crate::group::ProcessGroups> {
        crate::group::ProcessGroups::split_from(self, split)
    }

    /// One-to-all broadcast from `root`.
    pub fn broadcast(&mut self, root: GpuId, bytes: u64) -> Result<CollectiveReport> {
        self.run(CollectiveKind::Broadcast { root }, bytes)
    }

    /// All-to-one gather to `root`.
    pub fn gather(&mut self, root: GpuId, bytes: u64) -> Result<CollectiveReport> {
        self.run(CollectiveKind::Gather { root }, bytes)
    }

    /// All-to-one reduction to `root`.
    pub fn reduce(&mut self, root: GpuId, bytes: u64) -> Result<CollectiveReport> {
        self.run(CollectiveKind::Reduce { root }, bytes)
    }

    /// All-to-all reduction.
    pub fn all_reduce(&mut self, bytes: u64) -> Result<CollectiveReport> {
        self.run(CollectiveKind::AllReduce, bytes)
    }

    /// All-to-all concatenation.
    pub fn all_gather(&mut self, bytes: u64) -> Result<CollectiveReport> {
        self.run(CollectiveKind::AllGather, bytes)
    }

    /// Reduction followed by scatter.
    pub fn reduce_scatter(&mut self, bytes: u64) -> Result<CollectiveReport> {
        self.run(CollectiveKind::ReduceScatter, bytes)
    }

    /// Runs an arbitrary collective. Only the report is computed: the
    /// engine builds no per-op spans or per-link accounting for it. A
    /// stored lowering whose compiled form fits this communicator's
    /// simulator returns the total its first run memoised, bit for bit what
    /// simulating it again would give, and runs no engine (see "the lowering
    /// tier" in [`crate::store`]).
    pub fn run(&mut self, kind: CollectiveKind, bytes: u64) -> Result<CollectiveReport> {
        self.run_lowered(kind, bytes, false)
            .map(|(report, _, _)| report)
    }

    /// Runs a collective and also returns the lowered program plus the
    /// engine's per-op `(start, end)` spans — exactly the inputs the
    /// value-level oracle needs. Trivial calls (single GPU, empty buffer)
    /// return an empty program and no spans. The program comes from the
    /// plan store's lowering tier, so repeated calls return the same `Arc`.
    pub fn run_traced(&mut self, kind: CollectiveKind, bytes: u64) -> Result<TracedRun> {
        let (report, lowered, spans) = self.run_lowered(kind, bytes, true)?;
        let program = lowered
            .map(|l| l.program(&self.allocation))
            .unwrap_or_default();
        Ok((report, program, spans))
    }

    /// [`Communicator::run_traced`], with the lowering it ran in place of
    /// its program (only callers that read the program rename it), and the
    /// per-op spans only when `spans` asks for them.
    fn run_lowered(&mut self, kind: CollectiveKind, bytes: u64, spans: bool) -> Result<LoweredRun> {
        self.root_position(kind)?;
        if self.allocation.len() < 2 || bytes == 0 {
            let report = CollectiveReport {
                kind,
                bytes,
                elapsed_us: 0.0,
                algorithmic_bandwidth_gbps: 0.0,
                num_trees: 0,
                chunk_bytes: 0,
                strategy: "trivial (single GPU or empty buffer)".to_string(),
            };
            return Ok((report, None, Vec::new()));
        }
        if let Some(i) = self.shape.dense.iter().position(|&d| d == usize::MAX) {
            let g = self.allocation[i];
            return Err(BlinkError::Planning(format!("GPU {g} not in topology")));
        }
        let lowered = self.lower(kind, bytes)?;
        let (total_us, op_spans) = self.simulate_lowered(&lowered, spans)?;
        let lowering = &lowered.entry;
        let collective_report = CollectiveReport {
            kind,
            bytes,
            elapsed_us: total_us,
            algorithmic_bandwidth_gbps: algorithmic_bandwidth_gbps(bytes, total_us),
            num_trees: lowering.num_trees,
            chunk_bytes: self.options.chunk_bytes,
            strategy: lowering.strategy.clone(),
        };
        Ok((collective_report, Some(lowered), op_spans))
    }

    /// Runs a collective end to end and replays the executed program through
    /// the value-level oracle ([`blink_sim::check_collective`]): the returned
    /// [`ValueCheck`] proves (or refutes, with pinpointed byte ranges) that
    /// every participant ended holding exactly the bytes the collective's
    /// contract requires. This is the conformance entry point CI drives for
    /// every strategy — packed trees, one-hop switch trees, hybrid, PCIe
    /// fallback and the three-phase multi-server protocol all lower through
    /// range-carrying ops, so the same oracle covers them all.
    pub fn run_checked(
        &mut self,
        kind: CollectiveKind,
        bytes: u64,
    ) -> Result<(CollectiveReport, ValueCheck)> {
        let (report, program, spans) = self.run_traced(kind, bytes)?;
        let check = check_collective(kind.spec(), &program, &spans, &self.allocation, bytes);
        Ok((report, check))
    }

    /// Streams several concurrent same-kind collectives through one
    /// simulator [`Session`](blink_sim::Session): the multi-program trace of
    /// the streaming executor.
    ///
    /// `requests` is a list of `(bytes, ready_us)` pairs in ready order —
    /// request `i` may not start before `ready_us[i]` (e.g. when its
    /// gradient bucket finishes backprop). When `kind` is fusible (see
    /// [`crate::fusion::fusible`]) the fusion pass first batches consecutive
    /// requests under [`CommunicatorOptions::fusion_threshold_bytes`] into
    /// single segmented programs; each resulting program is lowered once,
    /// admitted at the latest ready time of its members, and all programs
    /// contend for links inside one session. Zero-byte requests complete at
    /// their ready time and appear in no group.
    ///
    /// # Errors
    /// A ready time that is negative, NaN or infinite; otherwise the same
    /// conditions as [`Communicator::run`] on any member program.
    pub fn run_streamed(
        &mut self,
        kind: CollectiveKind,
        requests: &[(u64, f64)],
    ) -> Result<StreamedRun> {
        if let Some(i) = requests.iter().position(|r| !r.1.is_finite() || r.1 < 0.0) {
            return Err(BlinkError::Planning(format!(
                "request {i} ready time {} must be finite and non-negative",
                requests[i].1
            )));
        }
        self.root_position(kind)?;
        let ready_floor = requests.iter().map(|r| r.1).fold(0.0f64, f64::max);
        if self.allocation.len() < 2 || requests.iter().all(|r| r.0 == 0) {
            // trivial: nothing moves; every request completes when ready
            return Ok(StreamedRun {
                finish_us: ready_floor,
                groups: Vec::new(),
            });
        }
        let sizes: Vec<u64> = requests.iter().map(|r| r.0).collect();
        let threshold = if fusible(kind) {
            self.options.fusion_threshold_bytes
        } else {
            0
        };
        // lower every group first (lowering borrows the communicator
        // mutably), then run them all in one shared session
        let mut out = Vec::new();
        // whether each group runs from its entry's compiled form
        let mut from_form = Vec::new();
        for group in fuse_requests(&sizes, threshold) {
            let lowered = self.lower(kind, group.total_bytes)?;
            let issue_us = group
                .members
                .iter()
                .map(|&i| requests[i].1)
                .fold(0.0f64, f64::max);
            from_form.push(self.form_for(&lowered).is_some());
            out.push(StreamedGroup {
                group,
                issue_us,
                end_us: issue_us,
                program: lowered.program(&self.allocation),
                compiled: lowered.entry.form.clone(),
                op_spans: Vec::new(),
                strategy: lowered.entry.strategy.clone(),
            });
        }
        let mut session = self.sim.session();
        for (g, from_form) in out.iter().zip(from_form) {
            if from_form {
                session.admit_compiled(g.program.clone(), g.compiled.clone(), g.issue_us);
            } else {
                session.admit(g.program.clone(), g.issue_us);
            }
        }
        let report = session
            .run_with_scratch(&mut ScratchPool::process().checkout().engine)
            .map_err(|e| BlinkError::Simulation(e.to_string()))?;
        for (g, span) in out.iter_mut().zip(report.programs) {
            g.end_us = span.end_us;
            g.op_spans = span.op_spans;
        }
        Ok(StreamedRun {
            finish_us: report.total_us.max(ready_floor),
            groups: out,
        })
    }

    /// [`Communicator::run_streamed`] plus the full oracle battery: for
    /// every admitted program the fused execution is replayed through
    /// [`blink_sim::check_collective`] over its whole (concatenated) space,
    /// and then once more *per constituent* — the program restricted to the
    /// member's window ([`crate::fusion::restrict_to_window`]) must deliver
    /// that member's collective exactly. Interleaved programs are checked
    /// along their own spans from the shared session, so the oracle proves
    /// no contribution is lost even under cross-program contention.
    ///
    /// Returns the run plus every check (group checks first for each
    /// program, then its per-member checks).
    ///
    /// # Errors
    /// Same conditions as [`Communicator::run_streamed`].
    pub fn run_streamed_checked(
        &mut self,
        kind: CollectiveKind,
        requests: &[(u64, f64)],
    ) -> Result<(StreamedRun, Vec<ValueCheck>)> {
        let run = self.run_streamed(kind, requests)?;
        let mut checks = Vec::new();
        for g in &run.groups {
            checks.push(check_collective(
                kind.spec(),
                &g.program,
                &g.op_spans,
                &self.allocation,
                g.group.total_bytes,
            ));
            if g.group.is_fused() {
                for k in 0..g.group.members.len() {
                    let window = g.group.window(k);
                    let restricted = restrict_to_window(&g.program, window);
                    checks.push(check_collective(
                        kind.spec(),
                        &restricted,
                        &g.op_spans,
                        &self.allocation,
                        window.bytes,
                    ));
                }
            }
        }
        Ok((run, checks))
    }

    /// Lowers `kind` over `bytes` at the communicator's chunk size, through
    /// the plan store's lowering tier: a hit returns the stored
    /// lowering (renamed onto this communicator's GPUs when another slice
    /// lowered it), a miss lowers afresh, compiles the program on this
    /// communicator's simulator and publishes the result. Failed lowerings
    /// are not stored.
    pub(crate) fn lower(&mut self, kind: CollectiveKind, bytes: u64) -> Result<Lowered> {
        // the key names a rooted collective's root by its position in the
        // allocation, so one shape's rooted collectives from one position
        // share an entry on every server
        let keyed_kind = match self.root_position(kind)? {
            Some(position) => kind.with_root(GpuId(position)),
            None => kind,
        };
        let key = LoweringKey {
            base: self.shape.lowering_fp,
            kind: keyed_kind,
            bytes,
            chunk: self.options.chunk_bytes,
        };
        self.settle();
        // A hit is taken without reading the lowering's plans; they are
        // adopted when something reads the handle's plans.
        let hit = self
            .plans
            .store()
            .lowering(&key, |l| l.labels.len() == self.allocation.len());
        if let Some(hit) = hit {
            self.shape.unadopted = Some(hit.clone());
            return Ok(Lowered::new(hit));
        }
        self.plans.take_reads();
        let (form, num_trees, strategy, total_us) = self.build_program(kind, bytes)?;
        let mut plans = Vec::new();
        let mut root = None;
        if kind.root().is_none() && self.packs_per_root() {
            if let Some((picked, swept)) = &self.shape.picked {
                root = Some(*picked);
                plans.extend(swept.iter().cloned());
            }
        }
        let sweep = plans.len();
        for plan in self.plans.take_reads() {
            if !plans.iter().any(|p| Arc::ptr_eq(p, &plan)) {
                plans.push(plan);
            }
        }
        let lowering = Arc::new(Lowering {
            form: Arc::new(form),
            labels: self.allocation.clone(),
            dense: self.shape.dense.clone(),
            total_us: total_us.map(OnceLock::from).unwrap_or_default(),
            num_trees,
            strategy,
            root,
            plans,
            sweep,
        });
        self.plans.store().publish_lowering(key, lowering.clone());
        Ok(Lowered::new(lowering))
    }

    /// The position of a rooted `kind`'s root in the allocation (`None` for
    /// a rootless kind).
    ///
    /// # Errors
    /// A root outside the allocation, whatever the call's size.
    pub(crate) fn root_position(&self, kind: CollectiveKind) -> Result<Option<usize>> {
        let Some(root) = kind.root() else {
            return Ok(None);
        };
        match self.allocation.iter().position(|&g| g == root) {
            Some(position) => Ok(Some(position)),
            None => Err(BlinkError::Planning(format!(
                "root {root} is not in the allocation"
            ))),
        }
    }

    /// Adopts the stored lowering the communicator last took
    /// ([`ShapeState::unadopted`]), leaving it as lowering afresh would
    /// have: the plans the lowering read join the handle, and its picked
    /// root (with its sweep's plans) becomes this communicator's. A lowering
    /// another slice made is adopted renamed position by position from its
    /// allocation onto this one (its lowering key is this communicator's,
    /// so both list one slice shape in one order); a renaming that would
    /// reorder a plan's GPUs, which only a fingerprint collision allows,
    /// adopts nothing.
    ///
    /// Every reader of the handle's plans or the picked root (a
    /// lowering-tier lookup) settles first. The entry's plans are the cold
    /// plans of their keys, and so is every plan the handle holds, so
    /// adopting them late changes nothing a fresh lowering would have read.
    fn settle(&mut self) {
        let Some(lowering) = self.shape.unadopted.take() else {
            return;
        };
        let mut root = lowering.root;
        let mut renamed = None;
        if lowering.labels != self.allocation {
            let Some(renaming) = Renaming::new(&lowering.labels, &self.allocation) else {
                return;
            };
            let plans = lowering.plans.iter().map(|plan| renaming.plan(plan));
            let Some(plans) = plans.collect::<Option<Vec<_>>>() else {
                return;
            };
            renamed = Some(plans);
            root = root.map(|g| renaming.gpu(g));
        }
        let plans = renamed.as_ref().unwrap_or(&lowering.plans);
        for plan in plans {
            self.plans.adopt(plan.clone());
        }
        if let (Some(root), None) = (root, &self.shape.picked) {
            self.shape.picked = Some((root, plans[..lowering.sweep].to_vec()));
        }
    }

    /// The plan for `root` over the `links` class of this communicator's
    /// slice, through its plan handle.
    fn plan(&mut self, links: LinkSelection, root: GpuId) -> Result<Arc<TreePlan>> {
        let shape = &self.shape;
        self.plans.plan_for(
            self.sim.topology(),
            links,
            shape.plan_fp,
            root,
            &shape.graphs,
        )
    }

    /// Whether rootless collectives run over per-root packed trees and a
    /// picked root: a multi-GPU allocation on one server that is not a
    /// switch fabric.
    fn packs_per_root(&self) -> bool {
        self.allocation.len() >= 2
            && !self.is_multi_server()
            && !is_switch_fabric(self.sim.topology(), &self.allocation)
    }

    fn codegen_options(&self) -> CodeGenOptions {
        CodeGenOptions {
            chunk_bytes: self.options.chunk_bytes,
            ..Default::default()
        }
    }

    /// Picks the root that maximises the achievable packing rate for
    /// all-to-all collectives (any root works; a well-connected one packs
    /// more trees) through the certificate-bounded [`Communicator::root_sweep`],
    /// so only the picked root's plan is cached. Memoised: a communicator's
    /// allocation and topology never change ([`Communicator::replan`] builds
    /// a new communicator, and sweeps it itself).
    fn pick_root(&mut self) -> GpuId {
        if let Some((root, _)) = &self.shape.picked {
            return *root;
        }
        let sweep = self.root_sweep();
        self.shape.picked = Some((sweep.root, sweep.plans));
        sweep.root
    }

    /// Whether NVLink spans the shape from `root`. The first call works out
    /// every GPU's verdict in one pass ([`blink_graph::DiGraph::spanning_roots`])
    /// and memoises them for the shape.
    fn nvlink_spans(&mut self, root: GpuId) -> bool {
        let shape = &mut self.shape;
        if shape.spannable.is_empty() {
            let g = &shape
                .graphs
                .get(self.sim.topology(), LinkSelection::NvLinkOnly)
                .graph;
            shape
                .spannable
                .extend(g.gpus().iter().copied().zip(g.spanning_roots()));
        }
        shape.spannable.get(&root).copied().unwrap_or(false)
    }

    /// Walks the spannable candidate roots in allocation order, plans each
    /// one that can still win through the plan cache and picks the first
    /// with the strictly highest *plan* rate.
    ///
    /// The sweep is bounded by the certificate. Before packing a candidate
    /// it computes the candidate's Edmonds/Lovász optimum on the same graph
    /// the packer uses — bit for bit the `optimal_rate_gbps` its plan would
    /// record — and skips the candidate when that is `<=` the best plan rate
    /// so far. A plan is a feasible packing, so its rate never exceeds its
    /// root's certificate: a skipped candidate could at most tie, and a tie
    /// keeps the earlier root. The pick, its plan and every program lowered
    /// from it are therefore those of the exhaustive sweep, which packed
    /// every candidate. On the symmetric NVLink graphs of a DGX-1 the first
    /// candidate attains the (root-independent) optimum, so one root packs
    /// instead of all of them. Runner-up roots are no longer cached; rooted
    /// collectives pack their root on first use.
    ///
    /// Returns a [`SweepOutcome`]; the fallback outcome (`allocation[0]`,
    /// rate 0, `spannable: false`) when NVLink spans from no candidate (the
    /// later per-root planning surfaces the real error).
    fn root_sweep(&mut self) -> SweepOutcome {
        let links = LinkSelection::NvLinkOnly;
        let mut candidates = self.allocation.clone();
        candidates.retain(|&cand| self.nvlink_spans(cand));
        let g = &self.shape.graphs.get(self.sim.topology(), links).graph;
        let Some(&first) = candidates.first() else {
            return SweepOutcome::fallback(self.allocation[0]);
        };
        let mut out = SweepOutcome {
            rate_gbps: -1.0,
            spannable: true,
            ..SweepOutcome::fallback(first)
        };
        for cand in candidates {
            // The first candidate packs unconditionally (no plan to beat yet).
            if out.rate_gbps >= 0.0
                && optimal_broadcast_rate_in(
                    g,
                    g.node(cand).expect("a spanning root is a node"),
                    &mut ScratchPool::process().checkout().certificate,
                ) <= out.rate_gbps
            {
                continue;
            }
            let fp = self.shape.plan_fp;
            let planned =
                self.plans
                    .plan_for(self.sim.topology(), links, fp, cand, &self.shape.graphs);
            let Ok(plan) = planned else {
                return SweepOutcome::fallback(self.allocation[0]);
            };
            if plan.rate_gbps() > out.rate_gbps {
                out.rate_gbps = plan.rate_gbps();
                out.root = cand;
            }
            out.plans.push(plan);
        }
        out
    }

    /// Reacts to a change in the hardware under the allocation — a dead link
    /// or GPU, a heal, a NIC change — as Blink reacts to a new allocation
    /// shape: applies `delta` to the machine model, drops removed GPUs from
    /// the allocation, shrinks it to its largest connected component, and
    /// builds the communicator afresh over the damaged machine and the
    /// surviving allocation, through the constructor
    /// [`CommunicatorBuilder::build`] uses and on the same plan store. It
    /// then runs the certificate-bounded root sweep for the report: every
    /// root it plans is a store hit or a cold pack the store publishes, as a
    /// fresh communicator's would be. The replanned communicator holds,
    /// plans and lowers what a fresh communicator over the damaged machine
    /// and the surviving allocation does, and shares its lowerings.
    ///
    /// Removed GPUs leave the allocation. An allocation never grows in
    /// place: a job handed more GPUs gets a new communicator over them, as
    /// Blink builds one per allocation.
    ///
    /// # Graceful-degradation ladder
    ///
    /// Recovery walks a four-rung ladder, and the rung taken is reported in
    /// [`ReplanReport::degradation`]:
    ///
    /// 1. **[`DegradationLevel::FullWarmRepair`]** — the delta left the
    ///    slice as it was (the same GPUs, links and NICs): as fast as
    ///    before, every plan a store hit unless the store evicted it.
    /// 2. **[`DegradationLevel::PackedReplan`]** — the changed slice was
    ///    planned from cold (a store hit, a closed form, an exact lane
    ///    packing, or MWU plus minimisation).
    /// 3. **[`DegradationLevel::PcieFallback`]** — no candidate root spans
    ///    the surviving NVLink graph; collectives lower over PCIe trees (or
    ///    one-hop on switch fabrics) until a heal restores spannability.
    /// 4. **[`DegradationLevel::ShrunkSubgroup`]** — the survivor graph is
    ///    disconnected; the allocation shrinks in place to its largest
    ///    connected component (shed GPUs listed in
    ///    [`ReplanReport::shed_gpus`]) so the job stays alive, smaller.
    ///
    /// Every rung still produces value-correct collectives — the conformance
    /// suite drives each rung through `run_checked`.
    ///
    /// # Errors
    /// Fails, leaving the communicator as it was, if the delta adds GPUs
    /// (build a communicator over the grown allocation instead), empties the
    /// allocation or is inconsistent with the machine model
    /// ([`Topology::apply_delta`]). A disconnected survivor graph is *not*
    /// an error — that is the shrink rung.
    pub fn replan(&mut self, delta: &TopologyDelta) -> Result<ReplanReport> {
        if !delta.added_gpus.is_empty() {
            return Err(BlinkError::Planning(
                "replan cannot grow an allocation; build a communicator over the grown one"
                    .to_string(),
            ));
        }
        let machine = self
            .machine
            .apply_delta(delta)
            .map_err(|e| BlinkError::Planning(e.to_string()))?;
        let allocation: Vec<GpuId> = self
            .allocation
            .iter()
            .copied()
            .filter(|g| !delta.removed_gpus.contains(g))
            .collect();
        if allocation.is_empty() {
            return Err(BlinkError::Planning(
                "replan delta removed every GPU in the allocation".to_string(),
            ));
        }
        // Ladder rung 4 (ShrunkSubgroup): if the survivors no longer form one
        // connected component over *any* link class, no strategy can span
        // them — shed the smaller components and keep the job alive on the
        // largest one (ties go to the component holding the earliest
        // allocation GPU, so the shrink is deterministic).
        let survivors = largest_connected_component(&machine, &allocation);
        let shed_gpus: Vec<GpuId> = allocation
            .iter()
            .copied()
            .filter(|g| !survivors.contains(g))
            .collect();
        let store = self.plans.store().clone();
        let mut comm = Communicator::over(Arc::new(machine), survivors, self.options, store)?;
        let unchanged = comm.allocation == self.allocation
            && comm.shape.plan_fp == self.shape.plan_fp
            && TopologyDelta::between(self.sim.topology(), comm.sim.topology()).is_empty();
        let packed_path = comm.packs_per_root();
        let mut sweep = if packed_path {
            comm.root_sweep()
        } else {
            SweepOutcome::fallback(comm.allocation[0])
        };
        comm.shape.picked = Some((sweep.root, std::mem::take(&mut sweep.plans)));
        let degradation = if unchanged {
            DegradationLevel::FullWarmRepair
        } else if !shed_gpus.is_empty() {
            DegradationLevel::ShrunkSubgroup
        } else if packed_path && !sweep.spannable {
            DegradationLevel::PcieFallback
        } else {
            DegradationLevel::PackedReplan
        };
        *self = comm;
        Ok(ReplanReport {
            warm_iterations: self.plans.packed_iterations(),
            degradation,
            shed_gpus,
            root: sweep.root,
            rate_gbps: sweep.rate_gbps,
            num_gpus: self.allocation.len(),
        })
    }

    /// Lowers `kind` afresh and compiles the program on the communicator's
    /// simulator; a rooted kind's root is in the allocation
    /// ([`Communicator::lower`] checks it).
    fn build_program(&mut self, kind: CollectiveKind, bytes: u64) -> Result<Built> {
        // ---- multi-server allocations: the three-phase protocol ----
        if self.is_multi_server() {
            if kind != CollectiveKind::AllReduce {
                return Err(BlinkError::Planning(format!(
                    "{kind} across servers is not supported; only AllReduce uses the three-phase protocol"
                )));
            }
            let attempt = three_phase_allreduce_cached(
                self.sim.topology(),
                &self.allocation,
                bytes,
                LinkSelection::NvLinkOnly,
                &self.codegen_options(),
                self.plans.store(),
            );
            // A fragmented per-server slice may not be NVLink-spannable (e.g.
            // GPUs {1, 4} on a DGX-1V share no NVLink); retry the whole local
            // phase over the always-complete PCIe mesh, mirroring the
            // single-server fallback below.
            let (program, info, fell_back) = match attempt {
                Ok((program, info)) => (program, info, false),
                Err(_) => {
                    let pcie_cg = CodeGenOptions {
                        link_class: blink_sim::LinkClass::Pcie,
                        ..self.codegen_options()
                    };
                    let (program, info) = three_phase_allreduce_cached(
                        self.sim.topology(),
                        &self.allocation,
                        bytes,
                        LinkSelection::PcieOnly,
                        &pcie_cg,
                        self.plans.store(),
                    )?;
                    (program, info, true)
                }
            };
            let strategy = format!(
                "three-phase multi-server ({} servers, {} partitions{})",
                info.servers,
                info.partitions,
                if fell_back { "; PCIe fallback" } else { "" }
            );
            return self.compile((program, info.partitions, strategy));
        }

        let cg = CodeGen::new(self.codegen_options());

        // ---- switch fabrics (DGX-2): one-hop vs packed competition ----
        if is_switch_fabric(self.sim.topology(), &self.allocation) {
            return self.build_switch_program(kind, bytes);
        }

        // ---- single DGX-1-style server: packed spanning trees ----
        let root = match kind.root() {
            Some(root) => root,
            None => self.pick_root(),
        };
        if self.nvlink_spans(root) {
            if self.options.use_hybrid {
                let planner = HybridPlanner::plan_cached(
                    &mut self.plans,
                    self.sim.topology(),
                    self.shape.plan_fp,
                    root,
                    &self.shape.graphs,
                )?;
                let (program, split) =
                    planner.build(kind, bytes, &self.codegen_options(), self.sim.params())?;
                let n = planner.nvlink_plan().num_trees() + planner.pcie_plan().num_trees();
                let strategy = format!("hybrid NVLink+PCIe ({} B over PCIe)", split.pcie_bytes);
                return self.compile((program, n, strategy));
            }
            let plan = self.plan(LinkSelection::NvLinkOnly, root)?;
            let n = plan.num_trees();
            let program = cg.build(&plan.trees, kind, bytes)?;
            let strategy = if plan.mwu.hit_iteration_cap {
                "packed spanning trees (NVLink; MWU iteration cap hit)".to_string()
            } else {
                "packed spanning trees (NVLink)".to_string()
            };
            return self.compile((program, n, strategy));
        }

        // ---- NVLink cannot span the allocation: fall back to PCIe trees ----
        let pcie_cg = CodeGen::new(CodeGenOptions {
            link_class: blink_sim::LinkClass::Pcie,
            ..self.codegen_options()
        });
        let plan = self.plan(LinkSelection::PcieOnly, root)?;
        let n = plan.num_trees();
        let capped = plan.mwu.hit_iteration_cap;
        let program = pcie_cg.build(&plan.trees, kind, bytes)?;
        let strategy = if capped {
            "packed spanning trees (PCIe fallback; MWU iteration cap hit)".to_string()
        } else {
            "packed spanning trees (PCIe fallback)".to_string()
        };
        self.compile((program, n, strategy))
    }

    /// Lowers a collective on an all-to-all switch fabric (NVSwitch): one-hop
    /// trees and TreeGen's packed spanning trees over the induced switch
    /// graph are *both* candidate strategies: every fresh lowering builds
    /// and compiles both, runs each form alone once and keeps the faster.
    /// The induced switch graph is complete and uniform, so a packed plan
    /// from its smallest GPU (every rootless collective on a
    /// sorted allocation) is TreeGen's closed form — the `n − 1` relay trees
    /// ([`crate::onehop::relay_trees`]) MWU packing plus minimisation would
    /// return, without running either; other roots still pack through the
    /// MWU.
    /// One-hop is no longer a forced short-circuit — partial DGX-2
    /// allocations plan packed trees exactly like any other induced subgraph
    /// and win whenever their realised rate is higher (rooted collectives on
    /// fragments, where a one-hop root re-injects the payload once per leaf
    /// against its injection cap). If packed planning fails, one-hop wins by
    /// default.
    ///
    /// The race is decided per lowering key: the lowering tier stores the
    /// winner, whose strategy tag records which side won, so every later
    /// lookup of the key takes it and races nothing. The winner's form is
    /// the lowering's, and its run's total the lowering's memoised total, so
    /// the first [`Communicator::run`] simulates nothing more.
    fn build_switch_program(&mut self, kind: CollectiveKind, bytes: u64) -> Result<Built> {
        let mut one_hop = self.compile(self.one_hop_candidate(kind, bytes)?)?;
        let Ok(packed) = self.packed_switch_candidate(kind, bytes) else {
            return Ok(one_hop);
        };
        let mut packed = self.compile(packed)?;
        let one_hop_us = self.simulate(&one_hop.0)?;
        let packed_us = self.simulate(&packed.0)?;
        if packed_us + 1e-9 < one_hop_us {
            packed.3 = Some(packed_us);
            Ok(packed)
        } else {
            one_hop.3 = Some(one_hop_us);
            Ok(one_hop)
        }
    }

    /// The one-hop switch-fabric candidate: star trees through the switch
    /// (the paper's DGX-2 strategy).
    fn one_hop_candidate(&self, kind: CollectiveKind, bytes: u64) -> Result<Candidate> {
        // `is_switch_fabric` admits only allocations whose every GPU declares
        // a fabric cap, so this error is never returned
        let first = self.allocation[0];
        let cap = self.sim.topology().gpu_cap(first).ok_or_else(|| {
            BlinkError::Planning(format!("switch-fabric GPU {first} declares no cap"))
        })?;
        let trees: Vec<WeightedTree> = match kind.root() {
            Some(root) => vec![one_hop_broadcast_tree(&self.allocation, root, cap)],
            None => one_hop_trees(&self.allocation, cap / self.allocation.len() as f64),
        };
        let program = CodeGen::new(self.codegen_options()).build(&trees, kind, bytes)?;
        Ok((program, trees.len(), "one-hop switch trees".to_string()))
    }

    /// The packed switch-fabric candidate: TreeGen's spanning trees over the
    /// induced switch graph, the closed-form relay trees when the root is
    /// the allocation's smallest GPU and MWU packing plus minimisation
    /// otherwise.
    fn packed_switch_candidate(&mut self, kind: CollectiveKind, bytes: u64) -> Result<Candidate> {
        // Any root spans a switch fabric and the graph is symmetric, so
        // rootless collectives skip the root sweep.
        let root = kind.root().unwrap_or(self.allocation[0]);
        let plan = self.plan(LinkSelection::NvLinkOnly, root)?;
        let program = CodeGen::new(self.codegen_options()).build(&plan.trees, kind, bytes)?;
        let strategy = "packed spanning trees (NVLink switch fabric)".to_string();
        Ok((program, plan.num_trees(), strategy))
    }

    /// `lowered`'s compiled form, when it was compiled for GPUs at this
    /// communicator's dense indices (see [`Lowering::form_for`]).
    pub(crate) fn form_for<'a>(&self, lowered: &'a Lowered) -> Option<&'a Arc<CompiledProgram>> {
        lowered.entry.form_for(&self.shape.dense)
    }

    /// `candidate` with its program compiled on the communicator's
    /// simulator, failing as a run of the program would.
    fn compile(&self, (program, n, strategy): Candidate) -> Result<Built> {
        let form = self.sim.compile(program);
        let form = form.map_err(|e| BlinkError::Simulation(e.to_string()))?;
        Ok((form, n, strategy, None))
    }

    /// Runs `form`, compiled on this communicator's simulator, alone once on
    /// a scratch checked out of the process's pool, and returns its total.
    fn simulate(&self, form: &CompiledProgram) -> Result<f64> {
        self.plans.store().count_engine_run();
        let engine = &mut ScratchPool::process().checkout().engine;
        self.sim
            .run_total(form.program(), Some(form), engine)
            .map_err(|e| BlinkError::Simulation(e.to_string()))
    }

    /// Simulates `lowered` once on a scratch checked out of the process's
    /// pool — from its entry's compiled form where that runs here, without
    /// renaming the program, and from its program otherwise — and returns
    /// the total time with, when `spans` asks for them, the per-op spans.
    /// Without spans, a fitting form whose total a run already memoised
    /// returns that total and runs nothing; every run of a fitting form
    /// sets it.
    fn simulate_lowered(&self, lowered: &Lowered, spans: bool) -> Result<(f64, Vec<(f64, f64)>)> {
        let entry = &lowered.entry;
        let form = self.form_for(lowered).filter(|form| form.fits(&self.sim));
        if let Some(&total_us) = form.and(entry.total_us.get()).filter(|_| !spans) {
            return Ok((total_us, Vec::new()));
        }
        self.plans.store().count_engine_run();
        // a fitting form reads nothing of the program it runs but its
        // length, which renaming keeps, so the form's own stands in
        let program = match form {
            Some(form) => form.program().clone(),
            None => lowered.program(&self.allocation),
        };
        let form = form.map(|form| &**form);
        let engine = &mut ScratchPool::process().checkout().engine;
        let run = if spans {
            match form {
                Some(form) => self.sim.run_compiled(&program, form, engine),
                None => self.sim.run_with_scratch(&program, engine),
            }
            .map(|report| (report.total_us, report.op_spans))
        } else {
            self.sim
                .run_total(&program, form, engine)
                .map(|total_us| (total_us, Vec::new()))
        };
        let run = run.map_err(|e| BlinkError::Simulation(e.to_string()))?;
        if form.is_some() {
            // a concurrent run of the same form sets the same bits
            let _ = entry.total_us.set(run.0);
        }
        Ok(run)
    }
}

/// Where a [`CommunicatorBuilder`] takes its machine model from.
#[derive(Debug, Clone)]
enum BuilderSource {
    /// An explicit machine topology (optionally restricted to an allocation).
    Machine(Topology),
    /// A scheduler placement's topology, materialised through
    /// [`placement_topology`] when the builder was made, or why it could
    /// not be.
    Placement(std::result::Result<Topology, TopologyError>),
}

/// The single construction path for [`Communicator`]s: start from
/// [`Communicator::builder`] (an explicit machine) or
/// [`CommunicatorBuilder::from_placement`] (a scheduler placement).
///
/// The builder also picks the communicator's plan store: the process-wide
/// [`global_plan_cache`] by default, an explicit store through
/// [`CommunicatorBuilder::shared_plans`], or a private one through
/// [`CommunicatorBuilder::isolated_plans`]. The store choice is builder
/// state, so it holds in any order with [`CommunicatorBuilder::options`].
///
/// ```
/// use blink_core::Communicator;
/// use blink_topology::presets::dgx2;
/// use blink_topology::GpuId;
///
/// // a partially-allocated DGX-2 communicator with default plan sharing
/// let alloc: Vec<GpuId> = vec![GpuId(1), GpuId(4), GpuId(9), GpuId(12)];
/// let mut comm = Communicator::builder(dgx2())
///     .allocation(&alloc)
///     .build()
///     .unwrap();
/// let report = comm.broadcast(GpuId(1), 64 << 20).unwrap();
/// assert!(report.algorithmic_bandwidth_gbps > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct CommunicatorBuilder {
    source: BuilderSource,
    allocation: Option<Vec<GpuId>>,
    options: CommunicatorOptions,
    shared: Option<SharedPlanCache>,
    isolated: bool,
}

impl CommunicatorBuilder {
    /// Builds communicators over an explicit machine topology. Defaults:
    /// whole-machine allocation, default options, process-wide
    /// [`global_plan_cache`] plan sharing.
    pub fn on_machine(machine: Topology) -> Self {
        Self::from_source(BuilderSource::Machine(machine))
    }

    /// Builds communicators from a scheduler placement (`(server index,
    /// global GPU ids)` slices), materialised through
    /// [`placement_topology`] here, so the builder keeps no copy of the
    /// slices; a malformed placement fails [`CommunicatorBuilder::build`].
    /// The allocation is the whole slice topology.
    pub fn from_placement(kind: ServerKind, nic_gbps: f64, slices: &[(usize, Vec<GpuId>)]) -> Self {
        Self::from_source(BuilderSource::Placement(placement_topology(
            kind, nic_gbps, slices,
        )))
    }

    fn from_source(source: BuilderSource) -> Self {
        CommunicatorBuilder {
            source,
            allocation: None,
            options: CommunicatorOptions::default(),
            shared: None,
            isolated: false,
        }
    }

    /// Restricts the communicator to `allocation` (any induced subgraph —
    /// fragmented DGX-1 quads and partial DGX-2 allocations plan the same
    /// way). Without this the communicator spans every GPU of the machine.
    pub fn allocation(mut self, allocation: &[GpuId]) -> Self {
        self.allocation = Some(allocation.to_vec());
        self
    }

    /// Replaces the whole option set.
    pub fn options(mut self, options: CommunicatorOptions) -> Self {
        self.options = options;
        self
    }

    /// Plans through `shared` instead of the process-wide
    /// [`global_plan_cache`], e.g. a fleet-local store whose hit rate a
    /// scheduler reports.
    pub fn shared_plans(mut self, shared: SharedPlanCache) -> Self {
        self.shared = Some(shared);
        self
    }

    /// Plans through a private store no other communicator sees (e.g. a
    /// benchmark measuring cold packing); an explicit
    /// [`CommunicatorBuilder::shared_plans`] store still wins.
    pub fn isolated_plans(mut self) -> Self {
        self.isolated = true;
        self
    }

    /// Builds the communicator.
    ///
    /// # Errors
    /// Empty or unknown allocations, allocations naming a GPU twice,
    /// malformed placements.
    pub fn build(self) -> Result<Communicator> {
        let machine = match self.source {
            // `Topology` is `Deserialize`, so a caller's machine may not have
            // gone through `add_link`'s checks; planning needs finite positive
            // capacities. Placement topologies are built through `add_link`.
            BuilderSource::Machine(machine) => {
                machine
                    .validate()
                    .map_err(|e| BlinkError::Planning(e.to_string()))?;
                machine
            }
            BuilderSource::Placement(topology) => {
                topology.map_err(|e| BlinkError::Planning(e.to_string()))?
            }
        };
        let allocation = match self.allocation {
            Some(allocation) => allocation,
            None => machine.gpu_ids(),
        };
        let store = match self.shared {
            Some(shared) => shared,
            None if self.isolated => SharedPlanCache::new(),
            None => global_plan_cache(),
        };
        Communicator::over(Arc::new(machine), allocation, self.options, store)
    }
}

/// The largest connected component of `allocation` over the links of
/// `machine` between its GPUs (any class, treated as undirected), in
/// allocation order. Ties between equal-sized components go to the one
/// discovered first — i.e. the one containing the earliest allocation GPU —
/// so the shrink rung of the degradation ladder is deterministic.
fn largest_connected_component(machine: &Topology, allocation: &[GpuId]) -> Vec<GpuId> {
    use std::collections::VecDeque;
    let members: BTreeSet<GpuId> = allocation.iter().copied().collect();
    let mut adj: BTreeMap<GpuId, BTreeSet<GpuId>> = BTreeMap::new();
    for l in machine.links() {
        if members.contains(&l.src) && members.contains(&l.dst) {
            adj.entry(l.src).or_default().insert(l.dst);
            adj.entry(l.dst).or_default().insert(l.src);
        }
    }
    let mut seen: BTreeSet<GpuId> = BTreeSet::new();
    let mut best: BTreeSet<GpuId> = BTreeSet::new();
    for &start in allocation {
        if !seen.insert(start) {
            continue;
        }
        let mut component = BTreeSet::from([start]);
        let mut queue = VecDeque::from([start]);
        while let Some(g) = queue.pop_front() {
            if let Some(neighbours) = adj.get(&g) {
                for &n in neighbours {
                    if seen.insert(n) {
                        component.insert(n);
                        queue.push_back(n);
                    }
                }
            }
        }
        if component.len() > best.len() {
            best = component;
        }
    }
    allocation
        .iter()
        .copied()
        .filter(|g| best.contains(g))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use blink_sim::{EngineScratch, LinkClass, OpKind};
    use blink_topology::presets::{dgx1p, dgx1v, dgx2, multi_server, ServerKind};

    fn mb(n: u64) -> u64 {
        n * 1024 * 1024
    }

    #[test]
    fn full_dgx1v_broadcast_and_allreduce() {
        let alloc: Vec<GpuId> = (0..8).map(GpuId).collect();
        let mut comm = Communicator::builder(dgx1v())
            .allocation(&alloc)
            .build()
            .unwrap();
        let bcast = comm.broadcast(GpuId(0), mb(500)).unwrap();
        assert!(bcast.algorithmic_bandwidth_gbps > 110.0, "{bcast}");
        assert_eq!(bcast.num_trees, 6);
        let ar = comm.all_reduce(mb(500)).unwrap();
        assert!(ar.algorithmic_bandwidth_gbps > 45.0, "{ar}");
        assert!(ar.algorithmic_bandwidth_gbps < bcast.algorithmic_bandwidth_gbps);
    }

    #[test]
    fn duplicate_gpus_in_an_allocation_are_a_typed_error() {
        let err = Communicator::builder(dgx1v())
            .allocation(&[GpuId(0), GpuId(0), GpuId(1)])
            .build()
            .unwrap_err();
        match err {
            BlinkError::Planning(msg) => {
                assert!(msg.contains("GPU0 appears more than once"), "{msg}")
            }
            other => panic!("expected a planning error, got {other}"),
        }
        // a repeat anywhere in the list is caught, not just adjacent ones
        assert!(Communicator::builder(dgx1v())
            .allocation(&[GpuId(3), GpuId(5), GpuId(3)])
            .build()
            .is_err());
    }

    #[test]
    fn malformed_placements_are_typed_errors_not_panics() {
        let planning_error = |builder: CommunicatorBuilder, want: &str| match builder.build() {
            Err(BlinkError::Planning(msg)) => assert!(msg.contains(want), "{msg}"),
            other => panic!("expected a planning error naming {want:?}, got {other:?}"),
        };
        // a server index whose GPU ids overflow, alone or beside a valid slice
        for server in [usize::MAX, usize::MAX / 8] {
            for slices in [
                vec![(server, vec![GpuId(0)])],
                vec![(0, vec![GpuId(0)]), (server, vec![GpuId(1)])],
            ] {
                let builder = CommunicatorBuilder::from_placement(ServerKind::Dgx1V, 5.0, &slices);
                planning_error(builder, &format!("server index {server}"));
            }
        }
        // a NIC that is not finite and positive, even on one server
        let one = vec![(0usize, vec![GpuId(0), GpuId(1)])];
        let two = vec![(0usize, vec![GpuId(0)]), (1, vec![GpuId(8)])];
        for nic in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
            for slices in [&one, &two] {
                let builder = CommunicatorBuilder::from_placement(ServerKind::Dgx1V, nic, slices);
                planning_error(builder, "NIC bandwidth");
            }
        }
    }

    #[test]
    fn degenerate_link_capacities_are_a_typed_error() {
        use blink_topology::{LinkKind, ServerId, Topology};
        // Three GPUs in a line; the 1 <-> 2 link is the one corrupted. The
        // corruptions go in through JSON because `add_link` already refuses
        // them, and a deserialized topology bypasses it.
        let mut line = Topology::new("line");
        for i in 0..3 {
            line.add_gpu(GpuId(i), ServerId(0), i).unwrap();
        }
        line.add_duplex(GpuId(0), GpuId(1), LinkKind::NvLinkGen2, 1)
            .unwrap();
        line.add_duplex_with_bandwidth(GpuId(1), GpuId(2), LinkKind::NvLinkGen2, 3, 12.5)
            .unwrap();
        let json = serde_json::to_string(&line).unwrap();
        assert!(
            json.contains(r#""lanes":3"#) && json.contains("12.5"),
            "{json}"
        );
        let cases = [
            ("NaN bandwidth", json.replace("12.5", "null")),
            ("infinite bandwidth", json.replace("12.5", "1e999")),
            ("zero lanes", json.replace(r#""lanes":3"#, r#""lanes":0"#)),
            ("negative bandwidth", json.replace("12.5", "-12.5")),
        ];
        for (case, corrupted) in cases {
            // the builder refuses it instead of panicking in, or spinning
            // through, planning
            let machine: Topology = serde_json::from_str(&corrupted).unwrap();
            match Communicator::builder(machine).isolated_plans().build() {
                Err(BlinkError::Planning(msg)) => {
                    assert!(msg.contains("finite positive capacity"), "{case}: {msg}")
                }
                Err(other) => panic!("{case}: expected a planning error, got {other}"),
                Ok(_) => panic!("{case}: the builder accepted it"),
            }
        }
        // the uncorrupted topology plans and conforms
        let machine: Topology = serde_json::from_str(&json).unwrap();
        let mut comm = Communicator::builder(machine)
            .isolated_plans()
            .build()
            .unwrap();
        let (_, check) = comm.run_checked(CollectiveKind::AllReduce, mb(1)).unwrap();
        assert!(check.is_correct(), "{check:?}");
    }

    #[test]
    fn partially_connected_triple_beats_nccl_pcie_fallback() {
        // Figure 2(b): Blink keeps using the available NVLinks while NCCL
        // falls back to PCIe.
        let alloc = [GpuId(0), GpuId(1), GpuId(4)];
        let mut comm = Communicator::builder(dgx1p())
            .allocation(&alloc)
            .build()
            .unwrap();
        let report = comm.broadcast(GpuId(0), mb(500)).unwrap();
        assert!(
            report.algorithmic_bandwidth_gbps > 15.0,
            "expected ~one NVLink lane, got {report}"
        );
    }

    #[test]
    fn nvlink_disconnected_pair_falls_back_to_pcie() {
        let alloc = [GpuId(1), GpuId(4)];
        let mut comm = Communicator::builder(dgx1p())
            .allocation(&alloc)
            .build()
            .unwrap();
        let report = comm.broadcast(GpuId(1), mb(100)).unwrap();
        assert!(report.strategy.contains("PCIe fallback"));
        assert!(report.algorithmic_bandwidth_gbps < 6.0);
        assert!(report.algorithmic_bandwidth_gbps > 2.0);
    }

    #[test]
    fn dgx2_allreduce_uses_one_hop_trees() {
        let alloc: Vec<GpuId> = (0..16).map(GpuId).collect();
        let mut comm = Communicator::builder(dgx2())
            .allocation(&alloc)
            .build()
            .unwrap();
        let report = comm.all_reduce(mb(256)).unwrap();
        assert!(report.strategy.contains("one-hop"));
        assert_eq!(report.num_trees, 16);
        assert!(report.algorithmic_bandwidth_gbps > 40.0, "{report}");
        // small messages are latency bound but still fast in absolute terms
        let small = comm.all_reduce(64 * 1024).unwrap();
        assert!(small.elapsed_us < 300.0, "{small}");
    }

    #[test]
    fn partial_dgx2_strategy_competition_picks_the_faster_lowering() {
        // A fragmented 5-GPU NVSwitch allocation. Broadcast under one-hop
        // re-injects (m−1)× the payload through the root's single port, so
        // packed spanning trees (aggregate (m−1)·b) must win; AllReduce
        // spreads one-hop roots over every member and keeps its edge.
        let alloc: Vec<GpuId> = [1, 4, 9, 12, 14].into_iter().map(GpuId).collect();
        let mut comm = Communicator::builder(dgx2())
            .allocation(&alloc)
            .isolated_plans()
            .build()
            .unwrap();
        let bcast = comm.broadcast(GpuId(4), mb(256)).unwrap();
        assert!(
            bcast
                .strategy
                .contains("packed spanning trees (NVLink switch fabric)"),
            "{bcast}"
        );
        let ar = comm.all_reduce(mb(256)).unwrap();
        assert!(ar.strategy.contains("one-hop switch trees"), "{ar}");
        // each lowering key races afresh; packed broadcasts win at 64 MiB too
        let again = comm.broadcast(GpuId(4), mb(64)).unwrap();
        assert!(again.strategy.contains("packed"), "{again}");
        // both lowerings stay value-correct on the fragment
        let (_, check) = comm
            .run_checked(CollectiveKind::Broadcast { root: GpuId(4) }, mb(16))
            .unwrap();
        assert!(check.is_correct(), "{check}");
    }

    #[test]
    fn a_raced_dgx2_first_call_is_served_the_winners_memoised_total() {
        // the race runs each candidate's form once and keeps the winner's
        // total in the lowering, so neither the first call nor a repeat
        // simulates anything more; the total is what a fresh simulation of
        // the winner's program gives, and a traced run of it passes the
        // oracle
        let options = CommunicatorOptions {
            chunk_bytes: 4 << 20,
            ..Default::default()
        };
        let full: Vec<GpuId> = (0..16).map(GpuId).collect();
        let fragment: Vec<GpuId> = [1, 4, 9, 12, 14].into_iter().map(GpuId).collect();
        let cases = [
            (full, CollectiveKind::AllReduce, "one-hop switch trees"),
            (
                fragment,
                CollectiveKind::Broadcast { root: GpuId(4) },
                "packed spanning trees (NVLink switch fabric)",
            ),
        ];
        for (alloc, kind, winner) in cases {
            let bytes = mb(256);
            let mut comm = Communicator::builder(dgx2())
                .allocation(&alloc)
                .options(options)
                .isolated_plans()
                .build()
                .unwrap();
            let first = comm.run(kind, bytes).unwrap();
            assert_eq!(first.strategy, winner, "{alloc:?}");
            let store = comm.plan_store().clone();
            assert_eq!(store.engine_runs(), 2, "the race ran each candidate once");
            let second = comm.run(kind, bytes).unwrap();
            assert_eq!(store.engine_runs(), 2, "the repeat is served the memo");
            assert_eq!(first.elapsed_us.to_bits(), second.elapsed_us.to_bits());
            let (traced, program, spans) = comm.run_traced(kind, bytes).unwrap();
            assert_eq!(first.elapsed_us.to_bits(), traced.elapsed_us.to_bits());
            let fresh = Simulator::with_defaults(dgx2()).run(&program).unwrap();
            assert_eq!(first.elapsed_us.to_bits(), fresh.total_us.to_bits());
            let bits = |s: &[(f64, f64)]| -> Vec<(u64, u64)> {
                s.iter().map(|&(a, b)| (a.to_bits(), b.to_bits())).collect()
            };
            assert_eq!(bits(&spans), bits(&fresh.op_spans), "{alloc:?}");
            let check = check_collective(kind.spec(), &program, &spans, &alloc, bytes);
            assert!(check.is_correct(), "{alloc:?}: {check}");
            // and the first run_checked on a fresh communicator conforms
            let mut comm = Communicator::builder(dgx2())
                .allocation(&alloc)
                .options(options)
                .isolated_plans()
                .build()
                .unwrap();
            let (report, check) = comm.run_checked(kind, bytes).unwrap();
            assert_eq!(report.strategy, winner, "{alloc:?}");
            assert!(check.is_correct(), "{alloc:?}: {check}");
        }
    }

    #[test]
    fn huge_byte_counts_are_codegen_errors_not_aborts() {
        let dgx1v_quad: Vec<GpuId> = (0..4).map(GpuId).collect();
        for (machine, alloc) in [
            (dgx1v(), dgx1v_quad),
            (dgx2(), (0..16).map(GpuId).collect()),
        ] {
            let mut comm = Communicator::builder(machine.clone())
                .allocation(&alloc)
                .isolated_plans()
                .build()
                .unwrap();
            for bytes in [u64::MAX, 1_000_000_000_000_000] {
                let err = comm.run(CollectiveKind::AllReduce, bytes).unwrap_err();
                assert!(
                    matches!(err, BlinkError::CodeGen(_)),
                    "{} {bytes} B: {err}",
                    machine.name()
                );
            }
            // the communicator stays usable
            comm.run(CollectiveKind::AllReduce, mb(16)).unwrap();
        }
    }

    #[test]
    fn builder_flags_hold_in_either_order_with_options() {
        // omitting .allocation() spans the whole machine
        let whole = Communicator::builder(dgx1v()).build().unwrap();
        assert_eq!(whole.allocation().len(), 8);
        // the store choice is builder state, so an .options() call after it
        // cannot reset it
        let alloc: Vec<GpuId> = (0..4).map(GpuId).collect();
        let options = CommunicatorOptions {
            use_hybrid: true,
            ..Default::default()
        };
        for flags_first in [true, false] {
            let builder = Communicator::builder(dgx1v()).allocation(&alloc);
            let builder = if flags_first {
                builder.isolated_plans().options(options)
            } else {
                builder.options(options).isolated_plans()
            };
            let mut comm = builder.build().unwrap();
            assert!(comm.options().use_hybrid);
            comm.broadcast(GpuId(0), mb(16)).unwrap();
            // a private store sees exactly this communicator's two packs
            // (the hybrid plan's NVLink and PCIe trees) — the second
            // communicator of the loop would hit a shared one
            let store = comm.plan_store();
            assert_eq!(store.stats(), (0, 2), "flags first: {flags_first}");
        }
    }

    #[test]
    fn isolated_multi_server_communicators_pack_once() {
        // the first `n` GPUs of each of two DGX-1V servers: 3+3, and 8+8
        for n in [3u64, 8] {
            let machine = multi_server(2, ServerKind::Dgx1V, 5.0);
            let alloc: Vec<GpuId> = (0..n).chain(8..8 + n).map(|g| GpuId(g as usize)).collect();
            let mut comm = Communicator::builder(machine)
                .allocation(&alloc)
                .isolated_plans()
                .build()
                .unwrap();
            let (report, first, _) = comm.run_traced(CollectiveKind::AllReduce, mb(32)).unwrap();
            assert!(report.strategy.contains("three-phase"), "{report}");
            let store = comm.plan_store().clone();
            // 2 servers x n partitions = 2n plans; both servers hold the same
            // local shape, so n packs serve them and the other n are
            // relabelled
            assert_eq!(store.stats(), (n, n), "{n}+{n}");
            assert_eq!(store.len(), n as usize);
            assert_eq!(store.failed_packs(), 0);
            // the same signature again is a lowering-tier hit
            let (_, second, _) = comm.run_traced(CollectiveKind::AllReduce, mb(32)).unwrap();
            assert_eq!(store.stats(), (n, n), "a stored lowering plans nothing");
            assert_eq!(store.lowering_stats(), (1, 1));
            assert!(Arc::ptr_eq(&first, &second));
            // a new size lowers again, over the stored plans
            comm.run_traced(CollectiveKind::AllReduce, mb(16)).unwrap();
            assert_eq!(store.stats(), (3 * n, n), "the second size packs nothing");
            assert_eq!(store.len(), n as usize);
        }
    }

    #[test]
    fn multi_server_allreduce_uses_three_phases() {
        let machine = multi_server(2, ServerKind::Dgx1V, 5.0);
        let alloc = vec![
            GpuId(0),
            GpuId(1),
            GpuId(2),
            GpuId(8),
            GpuId(9),
            GpuId(10),
            GpuId(11),
            GpuId(12),
        ];
        let mut comm = Communicator::builder(machine)
            .allocation(&alloc)
            .build()
            .unwrap();
        assert!(comm.is_multi_server());
        let report = comm.all_reduce(mb(100)).unwrap();
        assert!(report.strategy.contains("three-phase"));
        assert!(report.algorithmic_bandwidth_gbps > 0.5);
        // other collectives are rejected across servers
        assert!(comm.broadcast(GpuId(0), mb(1)).is_err());
    }

    #[test]
    fn unspannable_fragment_rides_the_three_phase_pcie_fallback() {
        // Server 0's slice {1, 4} shares no NVLink on a DGX-1V, so the
        // default NvLinkOnly local phase cannot plan — the communicator must
        // fall back to the PCIe mesh and still produce a byte-exact program.
        let slices = vec![
            (0usize, vec![GpuId(1), GpuId(4)]),
            (1usize, vec![GpuId(8), GpuId(9)]),
        ];
        let mut comm = CommunicatorBuilder::from_placement(ServerKind::Dgx1V, 5.0, &slices)
            .build()
            .unwrap();
        assert!(comm.is_multi_server());
        let (report, check) = comm.run_checked(CollectiveKind::AllReduce, mb(16)).unwrap();
        assert!(
            report.strategy.contains("three-phase"),
            "{}",
            report.strategy
        );
        assert!(
            report.strategy.contains("PCIe fallback"),
            "{}",
            report.strategy
        );
        assert!(check.is_correct(), "{check}");
        assert!(report.algorithmic_bandwidth_gbps > 0.1);
    }

    #[test]
    fn a_three_phase_lowering_stops_at_its_first_unspannable_server() {
        // Neither slice is NVLink-spannable on a DGX-1V ({1, 4} share no
        // NVLink, and GPU 0 of {0, 5, 6} none with the others), and their
        // links differ, so no server's plans could serve the other's.
        // Planning server by server stops at server 0's first root, then the
        // PCIe fallback runs; a batch that packed every (server, root) key
        // first failed 4 packs.
        let slices = vec![
            (0usize, vec![GpuId(1), GpuId(4)]),
            (1usize, vec![GpuId(8), GpuId(13), GpuId(14)]),
        ];
        let machine = multi_server(2, ServerKind::Dgx1V, 5.0);
        let fps: Vec<u64> = slices
            .iter()
            .map(|(_, gpus)| crate::store::rank_fingerprint(&machine.induced(gpus).unwrap()))
            .collect();
        assert_ne!(fps[0], fps[1], "the two slices must differ in shape");
        let mut comm = CommunicatorBuilder::from_placement(ServerKind::Dgx1V, 5.0, &slices)
            .isolated_plans()
            .build()
            .unwrap();
        let (report, check) = comm.run_checked(CollectiveKind::AllReduce, mb(16)).unwrap();
        assert!(report.strategy.contains("PCIe fallback"), "{report}");
        assert!(check.is_correct(), "{check}");
        assert_eq!(comm.plan_store().failed_packs(), 1);
    }

    #[test]
    fn placement_communicators_share_plans_with_cluster_built_ones() {
        // The same fragmented job shape, built once from the placement
        // slices and once from the full cluster model: identical
        // fingerprints, so the second communicator takes the first one's
        // lowering from the store and plans nothing.
        let shared = SharedPlanCache::new();
        let slices = vec![
            (0usize, (0..4).map(GpuId).collect::<Vec<_>>()),
            (1usize, (8..12).map(GpuId).collect::<Vec<_>>()),
        ];
        let mut a = CommunicatorBuilder::from_placement(ServerKind::Dgx1V, 5.0, &slices)
            .shared_plans(shared.clone())
            .build()
            .unwrap();
        let ra = a.all_reduce(mb(64)).unwrap();
        let (hits_before, misses_before) = shared.stats();
        assert!(misses_before > 0, "first communicator packs fresh plans");
        assert_eq!(shared.lowering_stats(), (0, 1));

        let machine = multi_server(2, ServerKind::Dgx1V, 5.0);
        let flat: Vec<GpuId> = slices.iter().flat_map(|(_, g)| g.clone()).collect();
        let mut b = Communicator::builder(machine)
            .allocation(&flat)
            .shared_plans(shared.clone())
            .build()
            .unwrap();
        let rb = b.all_reduce(mb(64)).unwrap();
        assert_eq!(
            shared.lowering_stats(),
            (1, 1),
            "cluster-built communicator must hit the placement-built lowering"
        );
        assert_eq!(
            shared.stats(),
            (hits_before, misses_before),
            "no re-packing for an identical job shape"
        );
        assert_eq!(
            ra.algorithmic_bandwidth_gbps.to_bits(),
            rb.algorithmic_bandwidth_gbps.to_bits(),
            "cached plans reproduce the same simulated collective bit-for-bit"
        );
    }

    #[test]
    fn a_whole_machine_allocation_is_its_own_induced_topology() {
        // a placement's allocation is its whole machine: the communicator
        // keeps a copy of it instead of inducing one, which differs only in
        // its name
        let slices = vec![
            (0usize, vec![GpuId(1), GpuId(2), GpuId(5)]),
            (3usize, vec![GpuId(24), GpuId(27)]),
        ];
        let comm = CommunicatorBuilder::from_placement(ServerKind::Dgx1V, 5.0, &slices)
            .isolated_plans()
            .build()
            .unwrap();
        let machine = comm.machine_topology();
        let induced = machine
            .induced(comm.allocation())
            .unwrap()
            .with_name(machine.name());
        assert_eq!(comm.allocation(), machine.gpu_ids());
        assert_eq!(
            format!("{:?}", comm.induced_topology()),
            format!("{induced:?}")
        );
    }

    #[test]
    fn communicators_share_plans_across_instances() {
        let shared = SharedPlanCache::new();
        let alloc: Vec<GpuId> = (0..8).map(GpuId).collect();
        let mut a = Communicator::builder(dgx1v())
            .allocation(&alloc)
            .shared_plans(shared.clone())
            .build()
            .unwrap();
        let ra = a.broadcast(GpuId(0), mb(100)).unwrap();
        assert_eq!(shared.stats(), (0, 1), "first communicator packs");
        assert_eq!(shared.lowering_stats(), (0, 1), "and lowers");
        let lowered = shared.lowered_ops();
        assert!(lowered > 0, "a fresh lowering counts its ops");
        // a second communicator of the same job shape reuses the lowering
        // and the plan it was lowered from
        let mut b = Communicator::builder(dgx1v())
            .allocation(&alloc)
            .shared_plans(shared.clone())
            .build()
            .unwrap();
        let rb = b.broadcast(GpuId(0), mb(100)).unwrap();
        assert_eq!(shared.lowering_stats(), (1, 1), "second communicator hits");
        assert_eq!(shared.stats(), (0, 1), "and packs nothing");
        assert_eq!(shared.lowered_ops(), lowered, "a hit lowers no ops");
        assert_eq!(ra.num_trees, rb.num_trees);
        assert_eq!(ra.elapsed_us.to_bits(), rb.elapsed_us.to_bits());
        // a different shape misses instead of being served a stale plan
        let mut c = Communicator::builder(dgx1v())
            .allocation(&alloc[..4])
            .shared_plans(shared.clone())
            .build()
            .unwrap();
        c.broadcast(GpuId(0), mb(100)).unwrap();
        assert_eq!(shared.stats(), (0, 2));
        assert_eq!(shared.lowering_stats(), (1, 2));
        assert!(shared.lowered_ops() > lowered);
    }

    #[test]
    fn multi_server_communicators_share_per_server_plans() {
        let machine = multi_server(2, ServerKind::Dgx1V, 5.0);
        let alloc: Vec<GpuId> = vec![GpuId(0), GpuId(1), GpuId(2), GpuId(8), GpuId(9), GpuId(10)];
        let shared = SharedPlanCache::new();
        let mut a = Communicator::builder(machine.clone())
            .allocation(&alloc)
            .shared_plans(shared.clone())
            .build()
            .unwrap();
        let ra = a.all_reduce(mb(50)).unwrap();
        // 2 servers x 3 partitions = 6 plans, from 3 packs of the one
        // local shape both servers hold
        assert_eq!(shared.stats(), (3, 3));
        assert_eq!(shared.lowering_stats(), (0, 1));
        let mut b = Communicator::builder(machine)
            .allocation(&alloc)
            .shared_plans(shared.clone())
            .build()
            .unwrap();
        let rb = b.all_reduce(mb(50)).unwrap();
        assert_eq!(
            shared.lowering_stats(),
            (1, 1),
            "the lowering over every per-server plan is reused"
        );
        assert_eq!(shared.stats(), (3, 3), "and nothing is packed again");
        assert_eq!(ra.elapsed_us.to_bits(), rb.elapsed_us.to_bits());
    }

    /// A DGX-1V with an extra 7 GB/s NVLink duplex between GPUs 0 and 1: its
    /// NVLink graph is no lane graph, so its plans and replans pack by MWU.
    fn mixed_dgx1v() -> Topology {
        use blink_topology::LinkKind;
        let mut machine = dgx1v();
        machine
            .add_duplex_with_bandwidth(GpuId(0), GpuId(1), LinkKind::NvLinkGen2, 1, 7.0)
            .unwrap();
        machine
    }

    #[test]
    fn replan_on_a_lane_graph_packs_exactly() {
        let alloc: Vec<GpuId> = (0..8).map(GpuId).collect();
        let (mut comm, store) = with_fresh_store(dgx1v(), &alloc);
        comm.all_reduce(mb(16)).unwrap();
        let delta = TopologyDelta::kill_link(comm.induced_topology(), GpuId(0), GpuId(1));
        let report = comm.replan(&delta).unwrap();
        assert_eq!(report.degradation, DegradationLevel::PackedReplan);
        assert_eq!(report.warm_iterations, 0);
        assert_eq!(report.rate_gbps, 115.0, "the certificate, with no ε");
        assert_eq!(store.mwu_iterations(), 0);
        let (_, check) = comm.run_checked(CollectiveKind::AllReduce, mb(16)).unwrap();
        assert!(check.is_correct(), "{check}");
    }

    /// A DGX-1P quad that loses a GPU leaves a complete uniform triangle,
    /// whose plan from its smallest GPU is written down in closed form.
    #[test]
    fn a_closed_form_replan_runs_no_mwu() {
        let alloc: Vec<GpuId> = (0..4).map(GpuId).collect();
        let (mut comm, store) = with_fresh_store(dgx1p(), &alloc);
        comm.all_reduce(mb(16)).unwrap();
        let report = comm.replan(&TopologyDelta::drop_gpu(GpuId(3))).unwrap();
        assert_eq!(report.num_gpus, 3);
        assert_eq!(report.degradation, DegradationLevel::PackedReplan);
        assert_eq!(report.warm_iterations, 0);
        assert_eq!(store.mwu_iterations(), 0);
        let (_, check) = comm.run_checked(CollectiveKind::AllReduce, mb(16)).unwrap();
        assert!(check.is_correct(), "{check}");
    }

    #[test]
    fn replan_recovers_from_a_killed_link() {
        let alloc: Vec<GpuId> = (0..8).map(GpuId).collect();
        let (mut comm, store) = with_fresh_store(mixed_dgx1v(), &alloc);
        let before = comm.all_reduce(mb(100)).unwrap();
        assert!(before.algorithmic_bandwidth_gbps > 30.0);
        // one NVLink duplex dies
        let packed = store.mwu_iterations();
        let delta = TopologyDelta::kill_link(comm.induced_topology(), GpuId(2), GpuId(3));
        let report = comm.replan(&delta).unwrap();
        assert_eq!(report.num_gpus, 8);
        assert!(report.warm_iterations > 0, "no lane graph: {report:?}");
        assert_eq!(
            store.mwu_iterations() - packed,
            report.warm_iterations as u64
        );
        assert!(report.rate_gbps > 0.0);
        // the recovered communicator still runs correct collectives
        let (after, check) = comm
            .run_checked(CollectiveKind::AllReduce, mb(100))
            .unwrap();
        assert!(check.is_correct(), "{check:?}");
        assert!(after.algorithmic_bandwidth_gbps > 0.0);
        assert!(after.algorithmic_bandwidth_gbps <= before.algorithmic_bandwidth_gbps + 1e-6);
    }

    /// A replan reports the MWU iterations of the packs it ran itself: a
    /// second communicator replanned through the same delta on the same
    /// store hits the plans the first one published and packs nothing.
    #[test]
    fn a_replan_that_hits_the_store_reports_no_iterations() {
        // a DGX-2 quad that loses a link is no switch fabric any more, and
        // its port caps make it no lane graph: its plans pack by MWU
        let alloc: Vec<GpuId> = (0..4).map(GpuId).collect();
        let store = SharedPlanCache::new();
        let comm = || {
            Communicator::builder(dgx2())
                .allocation(&alloc)
                .shared_plans(store.clone())
                .build()
                .unwrap()
        };
        let (mut first, mut second) = (comm(), comm());
        let delta = TopologyDelta::kill_link(first.induced_topology(), GpuId(0), GpuId(1));
        let reports = [&mut first, &mut second].map(|c| {
            c.all_reduce(mb(16)).unwrap();
            c.replan(&delta).unwrap()
        });
        assert!(reports[0].warm_iterations > 0, "{:?}", reports[0]);
        assert_eq!(reports[1].warm_iterations, 0, "{:?}", reports[1]);
        assert_eq!(reports[0].root, reports[1].root);
        assert_eq!(
            reports[0].rate_gbps.to_bits(),
            reports[1].rate_gbps.to_bits()
        );
    }

    #[test]
    fn replan_drops_a_gpu_and_refuses_to_grow_back() {
        let alloc: Vec<GpuId> = (0..8).map(GpuId).collect();
        let machine = dgx1v();
        let mut comm = Communicator::builder(machine.clone())
            .allocation(&alloc)
            .build()
            .unwrap();
        comm.all_reduce(mb(50)).unwrap();
        // GPU 7 drops out of the job
        let report = comm.replan(&TopologyDelta::drop_gpu(GpuId(7))).unwrap();
        assert_eq!(report.num_gpus, 7);
        assert_eq!(comm.allocation().len(), 7);
        assert!(!comm.allocation().contains(&GpuId(7)));
        let (_, check) = comm.run_checked(CollectiveKind::AllReduce, mb(50)).unwrap();
        assert!(check.is_correct(), "{check:?}");
        // ...but it cannot grow back in place: the delta that carries the
        // GPU and its links is refused, and the communicator is unchanged
        let shrunk = comm.induced_topology().clone();
        let grow = TopologyDelta::between(&shrunk, &machine.induced(&alloc).unwrap());
        assert!(matches!(comm.replan(&grow), Err(BlinkError::Planning(_))));
        assert_eq!(comm.allocation(), &alloc[..7]);
        assert!(TopologyDelta::between(comm.induced_topology(), &shrunk).is_empty());
        let (_, check) = comm.run_checked(CollectiveKind::AllReduce, mb(50)).unwrap();
        assert!(check.is_correct(), "{check:?}");
    }

    /// A communicator over `alloc` of `machine` with a fresh private store,
    /// returned with that store.
    fn with_fresh_store(machine: Topology, alloc: &[GpuId]) -> (Communicator, SharedPlanCache) {
        let store = SharedPlanCache::new();
        let comm = Communicator::builder(machine)
            .allocation(alloc)
            .shared_plans(store.clone())
            .build()
            .unwrap();
        (comm, store)
    }

    #[test]
    fn a_full_dgx1v_sweep_packs_one_root() {
        let alloc: Vec<GpuId> = (0..8).map(GpuId).collect();
        let (mut comm, store) = with_fresh_store(dgx1v(), &alloc);
        let sweep = comm.root_sweep();
        // every root's certificate is the global min cut, which the first
        // candidate's plan attains, so no other root can beat it
        assert_eq!(sweep.root, GpuId(0));
        assert_eq!(sweep.rate_gbps, 138.0);
        assert_eq!(store.stats(), (0, 1), "exactly one root packed");
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn the_first_root_of_a_lane_graph_attains_the_certificate() {
        // DGX-1V {0, 2, 3}: the MWU stopped at 65.55 GB/s from roots 0 and 2,
        // so the sweep packed on to root 3's 69; the exact packing reaches
        // 69 from root 0, which no later root can beat
        let alloc = [GpuId(0), GpuId(2), GpuId(3)];
        let (mut comm, store) = with_fresh_store(dgx1v(), &alloc);
        let sweep = comm.root_sweep();
        assert_eq!(sweep.root, GpuId(0), "{sweep:?}");
        assert_eq!(sweep.rate_gbps, 69.0);
        assert_eq!(store.stats(), (0, 1), "exactly one root packed");
    }

    #[test]
    fn dropping_the_picked_root_packs_its_successor_cold() {
        let alloc: Vec<GpuId> = (0..8).map(GpuId).collect();
        let (mut comm, store) = with_fresh_store(dgx1v(), &alloc);
        comm.all_reduce(mb(16)).unwrap();
        assert_eq!(comm.shape.picked.as_ref().map(|p| p.0), Some(GpuId(0)));
        let report = comm.replan(&TopologyDelta::drop_gpu(GpuId(0))).unwrap();
        assert_eq!(report.degradation, DegradationLevel::PackedReplan);
        assert_eq!(report.root, GpuId(1));
        assert_eq!(report.rate_gbps, 92.0);
        assert_eq!(store.stats(), (0, 2), "the successor is the only new pack");
        let (_, check) = comm.run_checked(CollectiveKind::AllReduce, mb(16)).unwrap();
        assert!(check.is_correct(), "{check}");
    }

    #[test]
    fn dropping_another_gpu_replans_the_picked_root_cold() {
        let alloc: Vec<GpuId> = (0..8).map(GpuId).collect();
        let (mut comm, store) = with_fresh_store(mixed_dgx1v(), &alloc);
        comm.all_reduce(mb(16)).unwrap();
        let report = comm.replan(&TopologyDelta::drop_gpu(GpuId(7))).unwrap();
        assert_eq!(report.degradation, DegradationLevel::PackedReplan);
        assert_eq!(report.root, GpuId(0));
        assert_eq!(store.stats(), (0, 2), "only the picked root re-plans");
    }

    #[test]
    fn replan_rejects_an_emptied_allocation() {
        let mut comm = Communicator::builder(dgx1v())
            .allocation(&[GpuId(3)])
            .build()
            .unwrap();
        assert!(comm.replan(&TopologyDelta::drop_gpu(GpuId(3))).is_err());
    }

    /// Ladder rung 1: a delta that misses the slice leaves it as it was, so
    /// the rebuilt communicator is served its plans and lowerings by the
    /// store. A PCIe link that dies under an NVLink job changes the slice:
    /// its NVLink plans pack again, at the rate they had.
    #[test]
    fn a_replan_that_leaves_the_slice_unchanged_reports_full_warm_repair() {
        use blink_topology::LinkKind;
        let alloc: Vec<GpuId> = (0..4).map(GpuId).collect();
        let (mut comm, store) = with_fresh_store(dgx1v(), &alloc);
        let before = comm.all_reduce(mb(50)).unwrap();
        let (hits, swept) = store.stats();
        assert_eq!(hits, 0);
        // a link between two GPUs outside the allocation dies
        let missed = TopologyDelta::kill_link(comm.machine_topology(), GpuId(4), GpuId(5));
        let report = comm.replan(&missed).unwrap();
        assert_eq!(
            report.degradation,
            DegradationLevel::FullWarmRepair,
            "{report:?}"
        );
        assert_eq!(report.warm_iterations, 0);
        assert_eq!(store.stats(), (swept, swept), "every swept root hits");
        let lowerings = store.lowering_stats();
        let after = comm.all_reduce(mb(50)).unwrap();
        assert_eq!(store.lowering_stats(), (lowerings.0 + 1, lowerings.1));
        assert_eq!(format!("{after:?}"), format!("{before:?}"));
        // a PCIe link inside the slice dies: a new slice, the same NVLink
        // graph
        let pcie = *comm
            .induced_topology()
            .links()
            .iter()
            .find(|l| l.kind == LinkKind::Pcie)
            .unwrap();
        let delta = TopologyDelta {
            removed_links: vec![pcie],
            ..Default::default()
        };
        let unchanged = report;
        let report = comm.replan(&delta).unwrap();
        assert_eq!(
            report.degradation,
            DegradationLevel::PackedReplan,
            "{report:?}"
        );
        assert_eq!(report.root, unchanged.root);
        assert_eq!(report.rate_gbps.to_bits(), unchanged.rate_gbps.to_bits());
        assert_eq!(store.stats(), (swept, 2 * swept), "every swept root packs");
        let (_, check) = comm.run_checked(CollectiveKind::AllReduce, mb(50)).unwrap();
        assert!(check.is_correct(), "{check:?}");
    }

    /// A compound delta (two simultaneous NVLink duplex failures) re-plans
    /// the touched plans from cold.
    #[test]
    fn replan_compound_delta_replans_cold() {
        use blink_topology::LinkKind;
        let alloc: Vec<GpuId> = (0..8).map(GpuId).collect();
        let mut comm = Communicator::builder(mixed_dgx1v())
            .allocation(&alloc)
            .build()
            .unwrap();
        comm.all_reduce(mb(100)).unwrap();
        let before = comm.induced_topology().clone();
        let dead = |l: &blink_topology::Link, a: usize, b: usize| {
            (l.src == GpuId(a) && l.dst == GpuId(b)) || (l.src == GpuId(b) && l.dst == GpuId(a))
        };
        let after =
            before.filter_links(|l| l.kind == LinkKind::Pcie || !(dead(l, 2, 3) || dead(l, 4, 5)));
        let delta = TopologyDelta::between(&before, &after);
        assert!(delta.removed_links.len() >= 4, "{delta:?}");
        let report = comm.replan(&delta).unwrap();
        assert_eq!(
            report.degradation,
            DegradationLevel::PackedReplan,
            "{report:?}"
        );
        assert!(report.shed_gpus.is_empty());
        let (_, check) = comm.run_checked(CollectiveKind::AllReduce, mb(50)).unwrap();
        assert!(check.is_correct(), "{check:?}");
    }

    /// Ladder rung 3: every NVLink into GPU 7 dies but the PCIe mesh still
    /// connects the allocation — collectives fall back to PCIe trees and the
    /// report says so.
    #[test]
    fn replan_nvlink_partition_reports_pcie_fallback() {
        use blink_topology::LinkKind;
        let alloc: Vec<GpuId> = (0..8).map(GpuId).collect();
        let mut comm = Communicator::builder(dgx1v())
            .allocation(&alloc)
            .build()
            .unwrap();
        comm.all_reduce(mb(50)).unwrap();
        let before = comm.induced_topology().clone();
        let after = before
            .filter_links(|l| l.kind == LinkKind::Pcie || (l.src != GpuId(7) && l.dst != GpuId(7)));
        let delta = TopologyDelta::between(&before, &after);
        let report = comm.replan(&delta).unwrap();
        assert_eq!(
            report.degradation,
            DegradationLevel::PcieFallback,
            "{report:?}"
        );
        assert_eq!(report.num_gpus, 8);
        assert!(report.shed_gpus.is_empty());
        let (after_run, check) = comm.run_checked(CollectiveKind::AllReduce, mb(50)).unwrap();
        assert!(check.is_correct(), "{check:?}");
        assert!(
            after_run.strategy.contains("PCIe fallback"),
            "{}",
            after_run.strategy
        );
    }

    /// Ladder rung 4: a whole GPU loses *every* link (all classes) — the
    /// survivor graph is disconnected, so the allocation shrinks in place to
    /// the largest connected component instead of failing the job.
    #[test]
    fn replan_disconnected_survivors_shrink_to_largest_component() {
        let alloc: Vec<GpuId> = (0..8).map(GpuId).collect();
        let mut comm = Communicator::builder(dgx1v())
            .allocation(&alloc)
            .build()
            .unwrap();
        comm.all_reduce(mb(50)).unwrap();
        let before = comm.induced_topology().clone();
        let after = before.filter_links(|l| l.src != GpuId(5) && l.dst != GpuId(5));
        let delta = TopologyDelta::between(&before, &after);
        let report = comm.replan(&delta).unwrap();
        assert_eq!(
            report.degradation,
            DegradationLevel::ShrunkSubgroup,
            "{report:?}"
        );
        assert_eq!(report.shed_gpus, vec![GpuId(5)]);
        assert_eq!(report.num_gpus, 7);
        assert!(!comm.allocation().contains(&GpuId(5)));
        let (_, check) = comm.run_checked(CollectiveKind::AllReduce, mb(50)).unwrap();
        assert!(check.is_correct(), "{check:?}");
    }

    #[test]
    fn hybrid_option_reports_pcie_share() {
        let alloc: Vec<GpuId> = (0..4).map(GpuId).collect();
        let mut comm = Communicator::builder(dgx1v())
            .allocation(&alloc)
            .options(CommunicatorOptions {
                use_hybrid: true,
                ..Default::default()
            })
            .build()
            .unwrap();
        let report = comm.broadcast(GpuId(0), mb(500)).unwrap();
        assert!(report.strategy.contains("hybrid"));
    }

    #[test]
    fn every_hybrid_lowering_lists_both_plans_it_reads() {
        let alloc: Vec<GpuId> = (0..4).map(GpuId).collect();
        let mut comm = Communicator::builder(dgx1v())
            .allocation(&alloc)
            .options(CommunicatorOptions {
                use_hybrid: true,
                ..Default::default()
            })
            .isolated_plans()
            .build()
            .unwrap();
        let root = GpuId(0);
        let both = vec![
            (root, LinkSelection::NvLinkOnly),
            (root, LinkSelection::PcieOnly),
        ];
        // the second and third lowerings read the same two plans as the
        // first, so a communicator taking either must adopt both
        for (kind, bytes) in [
            (CollectiveKind::Broadcast { root }, mb(64)),
            (CollectiveKind::Broadcast { root }, mb(8)),
            (CollectiveKind::AllReduce, mb(8)),
        ] {
            let lowering = comm.lower(kind, bytes).unwrap().entry;
            let read: Vec<_> = lowering.plans.iter().map(|p| (p.root, p.links)).collect();
            assert_eq!(read, both, "{kind} at {bytes} B");
        }
    }

    #[test]
    fn trivial_cases_return_empty_reports() {
        let mut comm = Communicator::builder(dgx1v())
            .allocation(&[GpuId(2)])
            .build()
            .unwrap();
        let report = comm.all_reduce(mb(10)).unwrap();
        assert_eq!(report.elapsed_us, 0.0);
        let alloc: Vec<GpuId> = (0..4).map(GpuId).collect();
        let mut comm = Communicator::builder(dgx1v())
            .allocation(&alloc)
            .build()
            .unwrap();
        let report = comm.all_reduce(0).unwrap();
        assert_eq!(report.elapsed_us, 0.0);
    }

    #[test]
    fn gather_reduce_allgather_reducescatter_run() {
        let alloc: Vec<GpuId> = (0..4).map(GpuId).collect();
        let mut comm = Communicator::builder(dgx1v())
            .allocation(&alloc)
            .build()
            .unwrap();
        for report in [
            comm.gather(GpuId(0), mb(64)).unwrap(),
            comm.reduce(GpuId(0), mb(64)).unwrap(),
            comm.all_gather(mb(64)).unwrap(),
            comm.reduce_scatter(mb(64)).unwrap(),
        ] {
            assert!(report.elapsed_us > 0.0, "{report}");
            assert!(report.algorithmic_bandwidth_gbps > 1.0, "{report}");
        }
    }

    #[test]
    fn streamed_allreduces_fuse_small_requests_and_pass_the_oracle() {
        let alloc: Vec<GpuId> = (0..8).map(GpuId).collect();
        let mut comm = Communicator::builder(dgx1v())
            .allocation(&alloc)
            .build()
            .unwrap();
        // four sub-threshold buckets and one large one, in ready order
        let requests = [
            (mb(1), 0.0),
            (mb(1), 10.0),
            (mb(1), 20.0),
            (mb(1), 30.0),
            (mb(32), 40.0),
        ];
        let (run, checks) = comm
            .run_streamed_checked(CollectiveKind::AllReduce, &requests)
            .unwrap();
        assert!(
            run.fused_programs() >= 1,
            "small buckets must batch: {:?}",
            run.groups.iter().map(|g| &g.group).collect::<Vec<_>>()
        );
        assert!(run.groups.len() < requests.len());
        for check in &checks {
            assert!(check.is_correct(), "{check:?}");
        }
        // fused groups carry every member's bytes as one program
        let fused = run.groups.iter().find(|g| g.group.is_fused()).unwrap();
        assert_eq!(fused.group.total_bytes, 4 * mb(1));
        // no program starts before its members are ready
        for g in &run.groups {
            for &(start, _) in &g.op_spans {
                assert!(start + 1e-9 >= g.issue_us);
            }
        }
        assert!(run.finish_us >= 40.0);
    }

    #[test]
    fn streamed_requests_contend_inside_one_session() {
        let alloc: Vec<GpuId> = (0..8).map(GpuId).collect();
        let mut comm = Communicator::builder(dgx1v())
            .allocation(&alloc)
            .build()
            .unwrap();
        let alone = comm.all_reduce(mb(32)).unwrap().elapsed_us;
        // two full-size allreduces issued together share every link, so the
        // session cannot finish in one collective's time...
        let run = comm
            .run_streamed(CollectiveKind::AllReduce, &[(mb(32), 0.0), (mb(32), 0.0)])
            .unwrap();
        assert_eq!(run.groups.len(), 2);
        assert!(
            run.finish_us > 1.5 * alone,
            "contention must serialise shared links: {} vs {alone}",
            run.finish_us
        );
        // ...but FIFO sharing wastes nothing catastrophic either
        assert!(run.finish_us < 3.0 * alone);
    }

    /// The same contention at a size where link time, not pipeline fill,
    /// sets one collective's time.
    #[test]
    fn streamed_requests_contend_at_a_link_bound_size() {
        let alloc: Vec<GpuId> = (0..8).map(GpuId).collect();
        let mut comm = Communicator::builder(dgx1v())
            .allocation(&alloc)
            .build()
            .unwrap();
        let alone = comm.all_reduce(mb(128)).unwrap().elapsed_us;
        let run = comm
            .run_streamed(CollectiveKind::AllReduce, &[(mb(128), 0.0), (mb(128), 0.0)])
            .unwrap();
        assert_eq!(run.groups.len(), 2);
        assert!(run.finish_us > 1.5 * alone, "{} vs {alone}", run.finish_us);
        assert!(run.finish_us < 3.0 * alone);
    }

    #[test]
    fn gathering_collectives_never_fuse() {
        let alloc: Vec<GpuId> = (0..4).map(GpuId).collect();
        let mut comm = Communicator::builder(dgx1v())
            .allocation(&alloc)
            .build()
            .unwrap();
        let run = comm
            .run_streamed(CollectiveKind::AllGather, &[(mb(1), 0.0), (mb(1), 0.0)])
            .unwrap();
        assert_eq!(run.groups.len(), 2);
        assert!(run.groups.iter().all(|g| !g.group.is_fused()));
    }

    #[test]
    fn trivial_streamed_runs_complete_at_their_ready_times() {
        let mut comm = Communicator::builder(dgx1v())
            .allocation(&[GpuId(2)])
            .build()
            .unwrap();
        let run = comm
            .run_streamed(CollectiveKind::AllReduce, &[(mb(1), 12.5)])
            .unwrap();
        assert_eq!(run.finish_us, 12.5);
        assert!(run.groups.is_empty());
        let alloc: Vec<GpuId> = (0..4).map(GpuId).collect();
        let mut comm = Communicator::builder(dgx1v())
            .allocation(&alloc)
            .build()
            .unwrap();
        let run = comm
            .run_streamed(CollectiveKind::AllReduce, &[(0, 3.0), (0, 9.0)])
            .unwrap();
        assert_eq!(run.finish_us, 9.0);
        assert!(run.groups.is_empty());
    }

    #[test]
    fn a_root_outside_the_allocation_is_a_typed_error() {
        let two_servers = multi_server(2, ServerKind::Dgx1V, 5.0);
        let cases = [
            (dgx1v(), vec![GpuId(0)]),
            (dgx1v(), vec![GpuId(0), GpuId(1)]),
            (dgx2(), vec![GpuId(0), GpuId(1)]),
            (two_servers, vec![GpuId(0), GpuId(1), GpuId(8), GpuId(9)]),
        ];
        for (topo, alloc) in cases {
            let mut comm = Communicator::builder(topo)
                .allocation(&alloc)
                .isolated_plans()
                .build()
                .unwrap();
            let root = GpuId(5);
            for kind in [
                CollectiveKind::Broadcast { root },
                CollectiveKind::Reduce { root },
                CollectiveKind::Gather { root },
            ] {
                let expect_root_error = |err: BlinkError| match err {
                    BlinkError::Planning(msg) => {
                        assert!(msg.contains("root GPU5 is not in the allocation"), "{msg}")
                    }
                    other => panic!("expected a planning error, got {other}"),
                };
                // a trivial call, empty or on one GPU, checks its root too
                for bytes in [0, mb(1)] {
                    expect_root_error(comm.run_traced(kind, bytes).unwrap_err());
                    expect_root_error(comm.run_streamed(kind, &[(bytes, 0.0)]).unwrap_err());
                }
            }
            // a root inside the allocation still runs
            let inside = CollectiveKind::Broadcast { root: alloc[0] };
            if !comm.is_multi_server() {
                assert!(comm.run_checked(inside, mb(1)).unwrap().1.is_correct());
            }
            // process groups lower through the same check
            let mut groups = comm.split(&GroupSplit::ByStride(1)).unwrap();
            let err = groups.run_concurrent(&[(CollectiveKind::Broadcast { root }, mb(1))]);
            assert!(matches!(err, Err(BlinkError::Planning(_))));
        }
    }

    #[test]
    fn a_form_runs_for_the_same_slice_shape_on_any_server() {
        // GPUs {0, 1, 3} of servers 0 and 2 of one machine share a lowering
        // key. Each job simulates its own slice, where its GPUs sit at dense
        // indices 0, 1, 2, so server 2's job runs the form server 0's fresh
        // lowering compiled, and the run is the one its own compile makes.
        // A whole-machine simulator reads other links; the form does not fit
        // it.
        let machine = multi_server(4, ServerKind::Dgx1V, 5.0);
        let store = SharedPlanCache::new();
        let on = |gpus: [usize; 3]| {
            Communicator::builder(machine.clone())
                .allocation(&gpus.map(GpuId))
                .shared_plans(store.clone())
                .build()
                .unwrap()
        };
        let kind = CollectiveKind::AllReduce;
        let fresh = on([0, 1, 3]).lower(kind, mb(8)).unwrap();
        let form = &fresh.entry.form;
        let hit = on([0, 1, 3]).lower(kind, mb(8)).unwrap();
        assert!(
            Arc::ptr_eq(&hit.entry, &fresh.entry),
            "the hit runs that form"
        );
        let mut away = on([16, 17, 19]);
        let renamed = away.lower(kind, mb(8)).unwrap();
        assert!(Arc::ptr_eq(&renamed.entry, &fresh.entry), "one entry");
        assert!(away.form_for(&renamed).is_some() && form.fits(&away.sim));
        assert!(!form.fits(&Simulator::with_defaults(machine.clone())));
        let (total, spans) = away.simulate_lowered(&renamed, true).unwrap();
        let own = away
            .sim
            .run_with_scratch(
                &renamed.program(away.allocation()),
                &mut EngineScratch::new(),
            )
            .unwrap();
        assert_eq!(total.to_bits(), own.total_us.to_bits());
        assert_eq!(format!("{spans:?}"), format!("{:?}", own.op_spans));
        assert_eq!(store.lowering_stats(), (2, 1), "one lowering, one form");
    }

    #[test]
    fn a_repeated_streamed_step_reuses_every_lowering() {
        let alloc: Vec<GpuId> = (0..8).map(GpuId).collect();
        let mut comm = Communicator::builder(dgx1v())
            .allocation(&alloc)
            .build()
            .unwrap();
        // fused small buckets, a repeated size and a large bucket
        let requests = [
            (mb(1), 0.0),
            (mb(1), 5.0),
            (mb(24), 20.0),
            (mb(24), 60.0),
            (mb(64), 90.0),
        ];
        let first = comm
            .run_streamed(CollectiveKind::AllReduce, &requests)
            .unwrap();
        let second = comm
            .run_streamed(CollectiveKind::AllReduce, &requests)
            .unwrap();
        let third = comm
            .run_streamed(CollectiveKind::AllReduce, &requests)
            .unwrap();
        assert_eq!(first.groups.len(), 4);
        assert_eq!(first.finish_us.to_bits(), second.finish_us.to_bits());
        assert_eq!(first.finish_us.to_bits(), third.finish_us.to_bits());
        // every lowering carries its compiled form from the first step on,
        // and the later steps hit them, so they run the very same forms
        for (a, b) in first
            .groups
            .iter()
            .zip(&second.groups)
            .chain(first.groups.iter().zip(&third.groups))
        {
            assert!(Arc::ptr_eq(&a.program, &b.program), "{:?}", a.group);
            assert!(Arc::ptr_eq(&a.compiled, &b.compiled), "{:?}", a.group);
            assert!(Arc::ptr_eq(&a.program, b.compiled.program()));
            assert_eq!(a.end_us.to_bits(), b.end_us.to_bits());
            assert_eq!(a.op_spans.len(), b.op_spans.len());
            for (x, y) in a.op_spans.iter().zip(&b.op_spans) {
                assert_eq!(
                    (x.0.to_bits(), x.1.to_bits()),
                    (y.0.to_bits(), y.1.to_bits())
                );
            }
        }
        // the two 24 MiB buckets share one lowering within a step too
        assert!(Arc::ptr_eq(
            &first.groups[1].program,
            &first.groups[2].program
        ));
    }

    #[test]
    fn replan_drops_lowerings_that_route_over_a_dead_link() {
        let alloc: Vec<GpuId> = (0..8).map(GpuId).collect();
        let mut comm = Communicator::builder(dgx1v())
            .allocation(&alloc)
            .build()
            .unwrap();
        let kind = CollectiveKind::AllReduce;
        let (_, before, _) = comm.run_traced(kind, mb(16)).unwrap();
        let uses = |program: &Program, a: GpuId, b: GpuId| {
            program.ops().any(|op| {
                matches!(op.kind, OpKind::Copy { src, dst, class: LinkClass::NvLink, .. }
                    if (src, dst) == (a, b) || (src, dst) == (b, a))
            })
        };
        let (a, b) = program_nvlink_pair(&before);
        assert!(uses(&before, a, b));
        let delta = TopologyDelta::kill_link(comm.induced_topology(), a, b);
        comm.replan(&delta).unwrap();
        let (_, check) = comm.run_checked(kind, mb(16)).unwrap();
        assert!(check.is_correct(), "{check}");
        let (_, after, _) = comm.run_traced(kind, mb(16)).unwrap();
        assert!(!Arc::ptr_eq(&before, &after), "replan must re-lower");
        assert!(!uses(&after, a, b), "the new lowering avoids the dead link");
    }

    #[test]
    fn a_lowering_outlives_the_plans_the_store_evicts() {
        let store = SharedPlanCache::with_capacity(1);
        let alloc: Vec<GpuId> = (0..8).map(GpuId).collect();
        let build = |store: SharedPlanCache| {
            Communicator::builder(dgx1v())
                .allocation(&alloc)
                .shared_plans(store)
                .build()
                .unwrap()
        };
        let kind = CollectiveKind::AllReduce;
        let mut a = build(store.clone());
        a.all_reduce(mb(16)).unwrap();
        // root 1's plan evicts root 0's, which the AllReduce was lowered from
        a.broadcast(GpuId(1), mb(1)).unwrap();
        assert_eq!(store.evictions(), 1);
        let (packs, (hits, misses)) = (store.stats().1, store.lowering_stats());
        let (_, served, _) = build(store.clone()).run_traced(kind, mb(16)).unwrap();
        assert_eq!(store.lowering_stats(), (hits + 1, misses), "served");
        assert_eq!(store.stats().1, packs, "no pack");
        let (_, isolated, _) = build(SharedPlanCache::new())
            .run_traced(kind, mb(16))
            .unwrap();
        assert_eq!(*served, *isolated);
    }

    #[test]
    fn a_replanned_communicator_shares_a_fresh_communicators_lowerings() {
        // Two communicators that recovered from the same damage by different
        // deltas, and a fresh one on the damaged machine, hold the same cold
        // plans for one shape, even when a small plan tier forgets plans
        // their handles keep: they share one lowering.
        let store = SharedPlanCache::with_capacity(2);
        let alloc: Vec<GpuId> = (0..8).map(GpuId).collect();
        let build = |machine: Topology| {
            Communicator::builder(machine)
                .allocation(&alloc)
                .shared_plans(store.clone())
                .build()
                .unwrap()
        };
        let kind = CollectiveKind::AllReduce;
        let kill = |comm: &Communicator, a: usize, b: usize| {
            TopologyDelta::kill_link(comm.induced_topology(), GpuId(a), GpuId(b))
        };
        // b recovers from two link failures one at a time
        let mut b = build(dgx1v());
        b.all_reduce(mb(16)).unwrap();
        let healthy = b.induced_topology().clone();
        for (x, y) in [(0, 1), (2, 3)] {
            b.replan(&kill(&b, x, y)).unwrap();
        }
        let (_, mine, _) = b.run_traced(kind, mb(16)).unwrap();
        for root in [1, 2] {
            b.broadcast(GpuId(root), mb(1)).unwrap();
        }
        // d recovers from both at once and takes b's lowering
        let mut d = build(dgx1v());
        d.all_reduce(mb(16)).unwrap();
        let both = TopologyDelta::between(&healthy, b.induced_topology());
        d.replan(&both).unwrap();
        let (_, theirs, _) = d.run_traced(kind, mb(16)).unwrap();
        assert!(Arc::ptr_eq(&theirs, &mine), "d takes b's lowering");
        let (_, again, _) = b.run_traced(kind, mb(16)).unwrap();
        assert!(Arc::ptr_eq(&again, &mine));
        // and so does a fresh communicator on the damaged machine, whose
        // program an isolated one lowers too
        let damaged = dgx1v().apply_delta(&both).unwrap();
        let (_, fresh, _) = build(damaged.clone()).run_traced(kind, mb(16)).unwrap();
        assert!(Arc::ptr_eq(&fresh, &mine));
        let (_, isolated, _) = Communicator::builder(damaged)
            .allocation(&alloc)
            .isolated_plans()
            .build()
            .unwrap()
            .run_traced(kind, mb(16))
            .unwrap();
        assert_eq!(*isolated, *mine);
        let (_, check) = b.run_checked(kind, mb(16)).unwrap();
        assert!(check.is_correct(), "{check}");
    }

    /// The endpoints of the first NVLink copy in `program`.
    fn program_nvlink_pair(program: &Program) -> (GpuId, GpuId) {
        program
            .ops()
            .find_map(|op| match op.kind {
                OpKind::Copy {
                    src,
                    dst,
                    class: LinkClass::NvLink,
                    ..
                } => Some((src, dst)),
                _ => None,
            })
            .expect("the program copies over NVLink")
    }

    #[test]
    fn streamed_ready_times_must_be_finite_and_non_negative() {
        let alloc: Vec<GpuId> = (0..4).map(GpuId).collect();
        let mut comm = Communicator::builder(dgx1v())
            .allocation(&alloc)
            .build()
            .unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            // rejected wherever it sits, and even when nothing would move
            for requests in [
                vec![(mb(1), bad), (mb(1), 500.0)],
                vec![(mb(1), 500.0), (mb(1), bad)],
                vec![(mb(1), bad)],
                vec![(0, bad)],
            ] {
                match comm.run_streamed(CollectiveKind::AllReduce, &requests) {
                    Err(BlinkError::Planning(msg)) => {
                        assert!(msg.contains("must be finite and non-negative"), "{msg}")
                    }
                    other => panic!("ready time {bad} in {requests:?}: {other:?}"),
                }
            }
        }
        // zero is a valid ready time
        assert!(comm
            .run_streamed(CollectiveKind::AllReduce, &[(mb(1), 0.0)])
            .is_ok());
    }

    #[test]
    fn op_durations_must_be_finite_and_non_negative() {
        use blink_sim::engine::SimError;
        use blink_sim::ProgramBuilder;
        let invalid = |r: std::result::Result<blink_sim::RunReport, SimError>, what: &str| match r {
            Err(SimError::InvalidProgram(msg)) => {
                assert!(msg.contains("finite and non-negative"), "{what}: {msg}")
            }
            other => panic!("{what}: {other:?}"),
        };
        // kernels: a NaN and a negative duration
        let sim = Simulator::with_defaults(dgx1v());
        for (duration, what) in [(f64::NAN, "NaN kernel"), (-50.0, "-50 us kernel")] {
            let mut b = ProgramBuilder::new();
            let s = b.new_stream();
            b.compute(GpuId(0), duration, s, &[], "k");
            invalid(sim.run(&b.build().unwrap()), what);
        }
        // calibrations: a latency that outweighs the transfer, and a
        // reduction kernel that never finishes
        let bad_params = [
            (
                blink_sim::SimParams {
                    link_latency_us: -1e6,
                    ..Default::default()
                },
                "negative link latency",
            ),
            (
                blink_sim::SimParams {
                    reduce_bandwidth_gbps: 0.0,
                    ..Default::default()
                },
                "zero reduce bandwidth",
            ),
        ];
        for (params, what) in bad_params {
            let sim = Simulator::new(dgx1v(), params);
            let mut b = ProgramBuilder::new();
            let s = b.new_stream();
            let c = b.copy(GpuId(0), GpuId(1), mb(1), LinkClass::NvLink, s, &[], "c");
            b.reduce(GpuId(1), mb(1), s, &[c], "r");
            invalid(sim.run(&b.build().unwrap()), what);
        }
    }
}
