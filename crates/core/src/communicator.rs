//! The user-facing communicator: an NCCL-flavoured API over the whole Blink
//! pipeline (probe → TreeGen → CodeGen → execute).
//!
//! A [`Communicator`] is created for one job's GPU allocation, exactly like
//! `ncclCommInitRank` creates a communicator for a set of ranks. Each
//! collective call plans (or reuses) the tree set for the current strategy,
//! lowers it to a transfer program with the current chunk size, executes it on
//! the simulator, feeds the measured throughput back into the MIAD chunk
//! tuner, and returns a [`CollectiveReport`].
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
//! takes a [`TopologyDelta`] and recovers in place: the plan cache demotes
//! only the plans the delta touches (everything else is kept verbatim), the
//! demoted plans re-enter the packer as warm seeds via
//! `TreeGen::plan_warm` — repairing damaged trees around dead links instead
//! of re-packing from scratch — and the resulting plan is re-certified by
//! the same MWU certificate a cold plan gets. The replan re-runs the bounded
//! sweep, so a delta that touches the picked root's plan repairs that one
//! root. Warm replans are bit-identical-or-better in rate and faster than
//! cold replans on link and GPU failures (see `bench_replan`);
//! [`Communicator::run_checked`] then proves the recovered program
//! byte-exact on the post-churn hardware.
//!
//! # The lowering memo
//!
//! Like Blink's CodeGen, which emits a collective once per allocation and
//! lets every training iteration reuse it, a communicator lowers each
//! collective signature — `(CollectiveKind, bytes)`, the key the chunk
//! autotuners already use — once, and keeps the result as a shared
//! `Arc<Program>` plus its tree count and strategy. The entry records the
//! chunk size it was lowered at: a call whose chunk differs (the MIAD tuner
//! moving under [`Communicator::run`]) re-lowers and replaces it, so the memo
//! holds at most one program per signature a caller has issued.
//! [`Communicator::replan`] clears it together with the tuners, the switch
//! strategy verdicts and the hybrid planners; nothing else a lowering reads
//! can change under a live communicator. [`Communicator::run_traced`],
//! [`Communicator::run_streamed`] and [`crate::ProcessGroups::run_concurrent`]
//! all lower through it.

use crate::autotune::{global_plan_cache, ChunkAutotuner, PlanCache, SharedPlanCache};
use crate::codegen::{CodeGen, CodeGenOptions};
use crate::collective::{CollectiveKind, CollectiveReport};
use crate::fusion::{fuse_requests, fusible, restrict_to_window, FusedGroup};
use crate::hybrid::HybridPlanner;
use crate::multiserver::three_phase_allreduce_cached;
use crate::onehop::{is_switch_fabric, one_hop_broadcast_tree, one_hop_trees};
use crate::treegen::{LinkSelection, TreeGenOptions};
use crate::{BlinkError, Result};
use blink_graph::{optimal_broadcast_rate_in, DiGraph, NodeIdx, WeightedTree};
use blink_sim::{
    check_collective, EngineScratch, Program, RunReport, SimParams, Simulator, ValueCheck,
};
use blink_topology::presets::{placement_topology, ServerKind};
use blink_topology::{GpuId, GroupSplit, Topology, TopologyDelta};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Options for a [`Communicator`] (set through
/// [`CommunicatorBuilder::options`]).
#[derive(Debug, Clone, Copy)]
pub struct CommunicatorOptions {
    /// Hardware calibration parameters for the simulator backend.
    pub sim_params: SimParams,
    /// TreeGen options (packing ε, minimisation threshold, link class).
    pub treegen: TreeGenOptions,
    /// Fixed chunk size; `None` enables the MIAD automatic tuner.
    pub chunk_bytes: Option<u64>,
    /// Enable hybrid PCIe + NVLink transfers (Section 3.4).
    pub use_hybrid: bool,
    /// Reuse streams across trees (Section 4.2.2).
    pub stream_reuse: bool,
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
            sim_params: SimParams::default(),
            treegen: TreeGenOptions::default(),
            chunk_bytes: Some(4 << 20),
            use_hybrid: false,
            stream_reuse: false,
            fusion_threshold_bytes: 4 << 20,
        }
    }
}

/// Which lowering won the strategy competition for one collective signature
/// on an all-to-all switch fabric (see
/// [`Communicator::build_switch_program`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SwitchChoice {
    /// Star/one-hop trees through the switch (the paper's DGX-2 strategy).
    OneHop,
    /// MWU-packed spanning trees over the induced switch graph.
    Packed,
}

/// What one [`Communicator::root_sweep`] observed: the winning root and
/// rate, whether any candidate spans the selected link class, and the
/// warm-repair evidence summed over warm-rebuilt roots only.
#[derive(Debug, Clone, Copy)]
struct SweepOutcome {
    root: GpuId,
    rate_gbps: f64,
    /// At least one candidate root spans the selected link class.
    spannable: bool,
    warm_seeded: usize,
    warm_iterations: usize,
    warm_repaired: usize,
    warm_topup: usize,
}

impl SweepOutcome {
    fn fallback(root: GpuId) -> Self {
        SweepOutcome {
            root,
            rate_gbps: 0.0,
            spannable: false,
            warm_seeded: 0,
            warm_iterations: 0,
            warm_repaired: 0,
            warm_topup: 0,
        }
    }
}

/// Which rung of the graceful-degradation ladder a [`Communicator::replan`]
/// call landed on. Rungs are ordered from "as fast as before" to "alive but
/// smaller"; every rung still produces value-correct collectives (the
/// conformance matrix drives each rung through `run_checked`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DegradationLevel {
    /// Every plan the delta touched was repaired warm — seeds consumed, zero
    /// MWU iterations — or survived invalidation untouched. Collectives run
    /// at the re-certified packed rate with no cold planning work.
    FullWarmRepair,
    /// The survivor graph was re-planned by ordinary packing (cold, or warm
    /// with corrective MWU iterations). Also the neutral classification for
    /// strategies that do not pack per-root trees (switch fabrics,
    /// multi-server three-phase, single-GPU allocations).
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

/// How the packing layer recovered the stale plans during a
/// [`Communicator::replan`] — the evidence behind the unconditional
/// zero-iteration warm-repair claim.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum RepairPath {
    /// Warm seeds were consumed and the min-cost reroute (plus residual
    /// top-up) reached the (1−ε)·certificate exit in **zero** MWU
    /// iterations across every warm-rebuilt root.
    Reroute,
    /// Warm seeds were consumed but at least one root needed corrective MWU
    /// iterations on top of the seeded state.
    Iterated,
    /// No warm seeds were consumed: every re-plan went cold (empty cache,
    /// non-packing strategy, or the delta kept all plans exact).
    #[default]
    Cold,
}

impl std::fmt::Display for RepairPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RepairPath::Reroute => "reroute",
            RepairPath::Iterated => "iterated",
            RepairPath::Cold => "cold",
        };
        f.write_str(s)
    }
}

/// What a [`Communicator::replan`] call did — cache survivorship, warm-start
/// evidence, the re-picked root, and where on the degradation ladder the
/// recovery landed, for observability and the replan/chaos benchmarks.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplanReport {
    /// Plans that survived delta invalidation untouched (still exact for the
    /// post-event topology).
    pub plans_kept: usize,
    /// Stale plans the delta demoted to warm-start seeds.
    pub seeds_demoted: usize,
    /// Trees re-seeded into the MWU state across the warm re-plans (0 when
    /// every re-plan went cold or no packing strategy applies).
    pub warm_seeded_trees: usize,
    /// MWU iterations spent by warm-rebuilt roots (plans whose packing
    /// consumed seeds). 0 is the repaired-in-place guarantee; kept plans'
    /// original cold-pack iterations are *not* counted here.
    #[serde(default)]
    pub warm_iterations: usize,
    /// Damaged warm trees recovered by the min-cost reroute (subset of
    /// `warm_seeded_trees`; the rest were intact and re-seeded directly).
    #[serde(default)]
    pub warm_repaired_trees: usize,
    /// Fresh arborescences added by the residual top-up stage during warm
    /// repair.
    #[serde(default)]
    pub warm_topup_trees: usize,
    /// How the packing layer recovered stale plans (reroute / iterated /
    /// cold).
    #[serde(default)]
    pub repair_path: RepairPath,
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
/// replays: the lowered program (shared with the communicator's lowering
/// memo) and the engine's per-op `(start, end)` spans.
pub type TracedRun = (CollectiveReport, Arc<Program>, Vec<(f64, f64)>);

/// One collective signature: the key of a communicator's chunk tuners and
/// lowering memo.
type Signature = (CollectiveKind, u64);

/// What a communicator keeps per [`Signature`].
#[derive(Debug, Default)]
struct SignatureState {
    /// The MIAD chunk tuner; consulted only when
    /// [`CommunicatorOptions::chunk_bytes`] is `None`.
    tuner: ChunkAutotuner,
    /// The signature's last lowering (see "the lowering memo" in the module
    /// docs).
    lowered: Option<Lowered>,
}

/// A fresh lowering: the program, the trees (or partitions) it uses, its
/// strategy tag and, when a switch-fabric strategy race simulated the
/// winner, that run.
type Built = (Program, usize, String, Option<RunReport>);

/// A collective lowered at one chunk size.
#[derive(Debug, Clone)]
pub(crate) struct Lowered {
    /// The chunk size the program was lowered at.
    chunk: u64,
    pub(crate) program: Arc<Program>,
    /// Spanning trees (or partitions) the lowering used.
    num_trees: usize,
    /// Human-readable strategy tag of the lowering.
    pub(crate) strategy: String,
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
    /// The lowered (possibly fused) program, shared with the communicator's
    /// lowering memo.
    pub program: Arc<Program>,
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
    machine: Topology,
    allocation: Vec<GpuId>,
    induced: Topology,
    sim: Simulator,
    options: CommunicatorOptions,
    /// Per-signature chunk tuner and lowering memo; cleared by
    /// [`Communicator::replan`].
    signatures: BTreeMap<Signature, SignatureState>,
    /// This communicator's handle on its plan store, plus the planning
    /// scratch (MWU packing, minimisation and certificate buffers):
    /// collectives re-issued by the autotune loop skip the packing stage
    /// entirely, and misses (including the hybrid and three-phase planners')
    /// reuse one buffer set. The handle keys its plans under a
    /// topology/options fingerprint, so it would rebuild rather than serve
    /// stale plans if either ever changed.
    plans: PlanCache,
    /// Memoised [`Communicator::pick_root`] answer: the allocation and
    /// topology are fixed per communicator, so the best rootless-collective
    /// root is a constant — no per-call certificate sweep.
    picked_root: Option<GpuId>,
    /// Memoised spannability verdicts per `(root, link class)` — including
    /// the negative ones the plan cache cannot represent, so PCIe-fallback
    /// communicators stop rebuilding the NVLink graph every collective.
    spannable: BTreeMap<(GpuId, LinkSelection), bool>,
    /// Memoised assembled hybrid planners per root, so hybrid-mode cache hits
    /// clone no tree plans at all.
    hybrids: BTreeMap<GpuId, HybridPlanner>,
    /// Memoised winner of the one-hop-vs-packed simulate-off per collective
    /// kind (rooted kinds per root) on switch fabrics; cleared by
    /// [`Communicator::replan`].
    switch_strategy: BTreeMap<CollectiveKind, SwitchChoice>,
    /// Reusable engine buffers: the autotune loop executes one program per
    /// collective call, and the interned-resource scheduler's prepass tables
    /// amortise across all of them (see `blink_sim::engine`'s scratch-reuse
    /// contract).
    engine_scratch: EngineScratch,
}

impl Communicator {
    /// Starts a [`CommunicatorBuilder`] over `machine` — the one construction
    /// path every configuration funnels through. By default the builder
    /// spans the whole machine, uses default options and attaches to the
    /// process-wide [`global_plan_cache`].
    pub fn builder(machine: Topology) -> CommunicatorBuilder {
        CommunicatorBuilder::on_machine(machine)
    }

    /// The GPUs this communicator spans.
    pub fn allocation(&self) -> &[GpuId] {
        &self.allocation
    }

    /// The induced topology the communicator plans over.
    pub fn induced_topology(&self) -> &Topology {
        &self.induced
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
        self.induced.servers().len() > 1
    }

    /// Splits this communicator into nested process-group subgroups (one
    /// child communicator per part of `split`), whose induced topologies
    /// share this machine's links. Children plan independently — through the
    /// parent's plan store, with canonical (isomorphism-level) sharing
    /// enabled so same-shape subgroups reuse one packing — and
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

    /// Runs an arbitrary collective.
    pub fn run(&mut self, kind: CollectiveKind, bytes: u64) -> Result<CollectiveReport> {
        self.run_traced(kind, bytes).map(|(report, _, _)| report)
    }

    /// Runs a collective and also returns the lowered program plus the
    /// engine's per-op `(start, end)` spans — exactly the inputs the
    /// value-level oracle needs. Trivial calls (single GPU, empty buffer)
    /// return an empty program and no spans. The program comes from the
    /// lowering memo, so repeated calls return the same `Arc`.
    pub fn run_traced(&mut self, kind: CollectiveKind, bytes: u64) -> Result<TracedRun> {
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
            return Ok((report, Arc::default(), Vec::new()));
        }
        for &g in &self.allocation {
            if !self.machine.contains(g) {
                return Err(BlinkError::Planning(format!("GPU {g} not in topology")));
            }
        }
        let (
            Lowered {
                chunk,
                program,
                num_trees,
                strategy,
            },
            raced,
        ) = self.lower_raced(kind, bytes)?;
        let report = match raced {
            Some(report) => report,
            None => self.simulate(&program)?,
        };
        let gbps = report.algorithmic_bandwidth_gbps(bytes);
        self.observe_chunk(kind, bytes, gbps);
        let collective_report = CollectiveReport {
            kind,
            bytes,
            elapsed_us: report.total_us,
            algorithmic_bandwidth_gbps: gbps,
            num_trees,
            chunk_bytes: chunk,
            strategy,
        };
        Ok((collective_report, program, report.op_spans))
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
    /// The MIAD chunk tuner is *not* fed from streamed runs: per-group
    /// bandwidth under cross-program contention would mislead it.
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
        for group in fuse_requests(&sizes, threshold) {
            let Lowered {
                program, strategy, ..
            } = self.lower(kind, group.total_bytes)?;
            let issue_us = group
                .members
                .iter()
                .map(|&i| requests[i].1)
                .fold(0.0f64, f64::max);
            out.push(StreamedGroup {
                group,
                issue_us,
                end_us: issue_us,
                program,
                op_spans: Vec::new(),
                strategy,
            });
        }
        let mut session = self.sim.session();
        for g in &out {
            session.admit(g.program.clone(), g.issue_us);
        }
        let report = session
            .run_with_scratch(&mut self.engine_scratch)
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

    /// The chunk size the next call with this signature would use (exposed for
    /// the Figure 12 harness).
    pub fn current_chunk(&mut self, kind: CollectiveKind, bytes: u64) -> u64 {
        match self.options.chunk_bytes {
            Some(c) => c,
            None => self
                .signatures
                .entry((kind, bytes))
                .or_default()
                .tuner
                .chunk_bytes(),
        }
    }

    fn observe_chunk(&mut self, kind: CollectiveKind, bytes: u64, gbps: f64) {
        if self.options.chunk_bytes.is_none() {
            if let Some(state) = self.signatures.get_mut(&(kind, bytes)) {
                state.tuner.observe(gbps);
            }
        }
    }

    /// The chunk-tuner trace for one collective signature (Figure 12).
    pub fn autotune_history(&self, kind: CollectiveKind, bytes: u64) -> Vec<(u64, f64)> {
        self.signatures
            .get(&(kind, bytes))
            .map(|state| state.tuner.history().to_vec())
            .unwrap_or_default()
    }

    /// Lowers `kind` over `bytes` at the signature's current chunk size,
    /// through the lowering memo: a hit at the same chunk returns the
    /// memoised lowering (the same `Arc<Program>`), anything else lowers
    /// afresh and replaces the entry. Failed lowerings are not memoised.
    pub(crate) fn lower(&mut self, kind: CollectiveKind, bytes: u64) -> Result<Lowered> {
        self.lower_raced(kind, bytes).map(|(lowered, _)| lowered)
    }

    /// [`Communicator::lower`], plus the winner's run when this lowering
    /// was fresh and raced two switch-fabric strategies (see
    /// [`Communicator::build_switch_program`]): the race already simulated
    /// the program, so the caller about to run it can report that run.
    fn lower_raced(
        &mut self,
        kind: CollectiveKind,
        bytes: u64,
    ) -> Result<(Lowered, Option<RunReport>)> {
        let chunk = self.current_chunk(kind, bytes);
        let state = self.signatures.entry((kind, bytes)).or_default();
        if let Some(hit) = state.lowered.as_ref().filter(|l| l.chunk == chunk) {
            return Ok((hit.clone(), None));
        }
        let (program, num_trees, strategy, raced) = self.build_program(kind, bytes, chunk)?;
        let lowered = Lowered {
            chunk,
            program: Arc::new(program),
            num_trees,
            strategy,
        };
        self.signatures.entry((kind, bytes)).or_default().lowered = Some(lowered.clone());
        Ok((lowered, raced))
    }

    fn codegen_options(&self, chunk: u64) -> CodeGenOptions {
        CodeGenOptions {
            chunk_bytes: chunk,
            stream_reuse: self.options.stream_reuse,
            ..Default::default()
        }
    }

    /// Picks the root that maximises the achievable packing rate for
    /// all-to-all collectives (any root works; a well-connected one packs
    /// more trees) through the certificate-bounded [`Communicator::root_sweep`],
    /// so only the picked root's plan is cached. Memoised: the allocation
    /// only changes through [`Communicator::replan`], which re-runs the sweep
    /// itself.
    fn pick_root(&mut self) -> GpuId {
        if let Some(root) = self.picked_root {
            return root;
        }
        let root = self.root_sweep().root;
        self.picked_root = Some(root);
        root
    }

    /// Walks the spannable candidate roots in allocation order, plans each
    /// one that can still win through the plan cache (consuming any
    /// warm-start seed a delta left behind) and picks the first with the
    /// strictly highest *plan* rate.
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
    /// rate 0, `spannable: false`) when no candidate spans the selected link
    /// class (the later per-root planning surfaces the real error).
    fn root_sweep(&mut self) -> SweepOutcome {
        let links = self.options.treegen.links;
        let g = DiGraph::from_topology_filtered(&self.induced, |l| links.matches(l));
        let candidates: Vec<(GpuId, NodeIdx)> = self
            .allocation
            .iter()
            .filter_map(|&cand| {
                let idx = g.node(cand).filter(|&i| g.spans_from(i));
                self.spannable.insert((cand, links), idx.is_some());
                idx.map(|i| (cand, i))
            })
            .collect();
        let Some(&(first, _)) = candidates.first() else {
            return SweepOutcome::fallback(self.allocation[0]);
        };
        let treegen = self.options.treegen;
        let mut out = SweepOutcome {
            rate_gbps: -1.0,
            spannable: true,
            ..SweepOutcome::fallback(first)
        };
        for (cand, idx) in candidates {
            // The first candidate packs unconditionally (no plan to beat yet).
            if out.rate_gbps >= 0.0
                && optimal_broadcast_rate_in(
                    &g,
                    idx,
                    &mut self.plans.scratch().checkout().certificate,
                ) <= out.rate_gbps
            {
                continue;
            }
            let Ok(plan) = self.plans.plan_for(&self.induced, &treegen, cand) else {
                return SweepOutcome::fallback(self.allocation[0]);
            };
            // Only warm-rebuilt roots contribute repair evidence: kept plans
            // carry their original cold-pack iteration counts, which would
            // drown the zero-iteration signal.
            if plan.mwu.warm_seeded > 0 {
                out.warm_seeded += plan.mwu.warm_seeded;
                out.warm_iterations += plan.mwu.iterations;
                out.warm_repaired += plan.mwu.warm_repaired;
                out.warm_topup += plan.mwu.warm_topup;
            }
            if plan.rate_gbps() > out.rate_gbps {
                out.rate_gbps = plan.rate_gbps();
                out.root = cand;
            }
        }
        out
    }

    /// Reacts to a topology-change event without rebuilding the communicator:
    /// applies `delta` to the machine model, re-induces the (possibly
    /// shrunken or grown) allocation, delta-invalidates the plan cache (it
    /// keeps plans the event provably did not touch, demotes the rest to
    /// warm-start seeds and drops those that cannot span the new
    /// allocation), then re-runs the certificate-bounded root sweep — every
    /// root the sweep packs re-plans **warm** when a seed is left for it,
    /// seeded from its old trees, and re-certifies against the post-event
    /// min-cut. Collectives issued afterwards use the recovered plans
    /// directly; a seed the sweep did not consume warms the first rooted
    /// collective on its root.
    ///
    /// Removed GPUs leave the allocation; GPUs added by the delta join it.
    /// Chunk autotuners reset (the hardware their throughput feedback
    /// calibrated against no longer exists) and the lowering memo empties
    /// (its programs may route over links the delta removed); the engine
    /// scratch is kept — scratch contents never affect results.
    ///
    /// # Graceful-degradation ladder
    ///
    /// Recovery walks a four-rung ladder, and the rung taken is reported in
    /// [`ReplanReport::degradation`]:
    ///
    /// 1. **[`DegradationLevel::FullWarmRepair`]** — every touched plan was
    ///    repaired from its warm seeds in zero MWU iterations (or survived
    ///    invalidation untouched): as fast as before, no cold planning.
    /// 2. **[`DegradationLevel::PackedReplan`]** — ordinary packing re-ran on
    ///    the survivor graph (cold, or warm plus corrective iterations). A
    ///    delta that drops the picked root lands here: no seed is left for
    ///    the successor root, which packs cold ([`RepairPath::Cold`]).
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
    /// Fails if the delta empties the allocation or is inconsistent with the
    /// machine model ([`Topology::apply_delta`]). A disconnected survivor
    /// graph is *not* an error — that is the shrink rung.
    pub fn replan(&mut self, delta: &TopologyDelta) -> Result<ReplanReport> {
        // The machine model may already know hardware the delta "adds" — a
        // job growing onto GPUs the scheduler had merely not allocated to it.
        // Apply only what the model is actually missing (and drop only what
        // it actually has), so allocation-level growth and hardware-level
        // churn both replay cleanly.
        let machine_delta = TopologyDelta {
            removed_links: delta.removed_links.clone(),
            added_links: delta
                .added_links
                .iter()
                .filter(|l| !self.machine.links().contains(l))
                .copied()
                .collect(),
            removed_gpus: delta
                .removed_gpus
                .iter()
                .filter(|&&g| self.machine.contains(g))
                .copied()
                .collect(),
            added_gpus: delta
                .added_gpus
                .iter()
                .filter(|g| !self.machine.contains(g.id))
                .copied()
                .collect(),
            added_gpu_caps: delta.added_gpu_caps.clone(),
            added_server_nics: delta.added_server_nics.clone(),
            changed_server_nics: delta.changed_server_nics.clone(),
        };
        let machine = self
            .machine
            .apply_delta(&machine_delta)
            .map_err(|e| BlinkError::Planning(e.to_string()))?;
        let mut allocation: Vec<GpuId> = self
            .allocation
            .iter()
            .copied()
            .filter(|g| !delta.removed_gpus.contains(g))
            .collect();
        for g in &delta.added_gpus {
            if !allocation.contains(&g.id) {
                allocation.push(g.id);
            }
        }
        if allocation.is_empty() {
            return Err(BlinkError::Planning(
                "replan delta removed every GPU in the allocation".to_string(),
            ));
        }
        let mut induced = machine
            .induced(&allocation)
            .map_err(|e| BlinkError::Planning(e.to_string()))?;
        // Ladder rung 4 (ShrunkSubgroup): if the survivors no longer form one
        // connected component over *any* link class, no strategy can span
        // them — shed the smaller components and keep the job alive on the
        // largest one (ties go to the component holding the earliest
        // allocation GPU, so the shrink is deterministic).
        let survivors = largest_connected_component(&induced, &allocation);
        let shed_gpus: Vec<GpuId> = allocation
            .iter()
            .copied()
            .filter(|g| !survivors.contains(g))
            .collect();
        if !shed_gpus.is_empty() {
            induced = machine
                .induced(&survivors)
                .map_err(|e| BlinkError::Planning(e.to_string()))?;
            allocation = survivors;
        }
        self.machine = machine;
        self.allocation = allocation;
        self.induced = induced;
        self.sim = Simulator::new(self.machine.clone(), self.options.sim_params);
        self.picked_root = None;
        self.spannable.clear();
        self.hybrids.clear();
        self.switch_strategy.clear();
        self.signatures.clear();
        self.plans
            .note_delta(&self.induced, &self.options.treegen, delta);
        let plans_kept = self.plans.len();
        let seeds_demoted = self.plans.seeded();
        let packed_path = self.allocation.len() >= 2
            && !self.is_multi_server()
            && !is_switch_fabric(&self.induced, &self.allocation);
        let sweep = if packed_path {
            self.root_sweep()
        } else {
            SweepOutcome::fallback(self.allocation[0])
        };
        self.picked_root = Some(sweep.root);
        let repair_path = if sweep.warm_seeded > 0 && sweep.warm_iterations == 0 {
            RepairPath::Reroute
        } else if sweep.warm_seeded > 0 {
            RepairPath::Iterated
        } else {
            RepairPath::Cold
        };
        let degradation = if !shed_gpus.is_empty() {
            DegradationLevel::ShrunkSubgroup
        } else if packed_path && !sweep.spannable {
            DegradationLevel::PcieFallback
        } else if packed_path
            && (repair_path == RepairPath::Reroute || (seeds_demoted == 0 && plans_kept > 0))
        {
            DegradationLevel::FullWarmRepair
        } else {
            DegradationLevel::PackedReplan
        };
        Ok(ReplanReport {
            plans_kept,
            seeds_demoted,
            warm_seeded_trees: sweep.warm_seeded,
            warm_iterations: sweep.warm_iterations,
            warm_repaired_trees: sweep.warm_repaired,
            warm_topup_trees: sweep.warm_topup,
            repair_path,
            degradation,
            shed_gpus,
            root: sweep.root,
            rate_gbps: sweep.rate_gbps,
            num_gpus: self.allocation.len(),
        })
    }

    fn build_program(&mut self, kind: CollectiveKind, bytes: u64, chunk: u64) -> Result<Built> {
        if let Some(root) = kind.root() {
            if !self.allocation.contains(&root) {
                return Err(BlinkError::Planning(format!(
                    "root {root} is not in the allocation"
                )));
            }
        }
        // ---- multi-server allocations: the three-phase protocol ----
        if self.is_multi_server() {
            if kind != CollectiveKind::AllReduce {
                return Err(BlinkError::Planning(format!(
                    "{kind} across servers is not supported; only AllReduce uses the three-phase protocol"
                )));
            }
            let attempt = three_phase_allreduce_cached(
                &self.machine,
                &self.allocation,
                bytes,
                &self.options.treegen,
                &self.codegen_options(chunk),
                self.plans.scratch(),
                self.plans.store(),
            );
            // A fragmented per-server slice may not be NVLink-spannable (e.g.
            // GPUs {1, 4} on a DGX-1V share no NVLink); retry the whole local
            // phase over the always-complete PCIe mesh, mirroring the
            // single-server fallback below.
            let (program, info, fell_back) = match attempt {
                Ok((program, info)) => (program, info, false),
                Err(_) if self.options.treegen.links == LinkSelection::NvLinkOnly => {
                    let pcie_tg = TreeGenOptions {
                        links: LinkSelection::PcieOnly,
                        ..self.options.treegen
                    };
                    let pcie_cg = CodeGenOptions {
                        link_class: blink_sim::LinkClass::Pcie,
                        ..self.codegen_options(chunk)
                    };
                    let (program, info) = three_phase_allreduce_cached(
                        &self.machine,
                        &self.allocation,
                        bytes,
                        &pcie_tg,
                        &pcie_cg,
                        self.plans.scratch(),
                        self.plans.store(),
                    )?;
                    (program, info, true)
                }
                Err(e) => return Err(e),
            };
            let strategy = format!(
                "three-phase multi-server ({} servers, {} partitions{})",
                info.servers,
                info.partitions,
                if fell_back { "; PCIe fallback" } else { "" }
            );
            return Ok((program, info.partitions, strategy, None));
        }

        let cg = CodeGen::new(self.codegen_options(chunk));

        // ---- switch fabrics (DGX-2): one-hop vs packed competition ----
        if is_switch_fabric(&self.induced, &self.allocation) {
            return self.build_switch_program(kind, bytes, chunk);
        }

        // ---- single DGX-1-style server: packed spanning trees ----
        let root = match kind.root() {
            Some(root) => root,
            None => self.pick_root(),
        };
        // Only the first collective per (root, link class) pays for the graph
        // build and reachability walk; the verdict (positive or negative) is
        // memoised for every later call.
        let links = self.options.treegen.links;
        let nvlink_spans = match self.spannable.get(&(root, links)) {
            Some(&spans) => spans,
            None => {
                let g = DiGraph::from_topology_filtered(&self.induced, |l| links.matches(l));
                let spans = g.node(root).map(|i| g.spans_from(i)).unwrap_or(false);
                self.spannable.insert((root, links), spans);
                spans
            }
        };
        if nvlink_spans {
            if self.options.use_hybrid {
                if !self.hybrids.contains_key(&root) {
                    let planner = HybridPlanner::plan_cached(
                        &mut self.plans,
                        &self.induced,
                        root,
                        &self.options.treegen,
                    )?;
                    self.hybrids.insert(root, planner);
                }
                let planner = &self.hybrids[&root];
                let (program, split) =
                    planner.build(kind, bytes, &self.codegen_options(chunk), self.sim.params())?;
                let n = planner.nvlink_plan().num_trees() + planner.pcie_plan().num_trees();
                let strategy = format!("hybrid NVLink+PCIe ({} B over PCIe)", split.pcie_bytes);
                return Ok((program, n, strategy, None));
            }
            let treegen_opts = self.options.treegen;
            let plan = self.plans.plan_for(&self.induced, &treegen_opts, root)?;
            let n = plan.num_trees();
            let program = cg.build(&plan.trees, kind, bytes)?;
            let strategy = if plan.mwu.hit_iteration_cap {
                "packed spanning trees (NVLink; MWU iteration cap hit)".to_string()
            } else {
                "packed spanning trees (NVLink)".to_string()
            };
            return Ok((program, n, strategy, None));
        }

        // ---- NVLink cannot span the allocation: fall back to PCIe trees ----
        let pcie_opts = TreeGenOptions {
            links: LinkSelection::PcieOnly,
            ..self.options.treegen
        };
        let pcie_cg = CodeGen::new(CodeGenOptions {
            link_class: blink_sim::LinkClass::Pcie,
            ..self.codegen_options(chunk)
        });
        let plan = self.plans.plan_for(&self.induced, &pcie_opts, root)?;
        let n = plan.num_trees();
        let capped = plan.mwu.hit_iteration_cap;
        let program = pcie_cg.build(&plan.trees, kind, bytes)?;
        let strategy = if capped {
            "packed spanning trees (PCIe fallback; MWU iteration cap hit)".to_string()
        } else {
            "packed spanning trees (PCIe fallback)".to_string()
        };
        Ok((program, n, strategy, None))
    }

    /// Lowers a collective on an all-to-all switch fabric (NVSwitch): one-hop
    /// trees and MWU-packed spanning trees over the induced switch graph are
    /// *both* candidate strategies, and the first call per collective
    /// signature simulates both programs once and memoises the faster one.
    /// One-hop is no longer a forced short-circuit — partial DGX-2
    /// allocations plan packed trees exactly like any other induced subgraph
    /// and win whenever their realised rate is higher (rooted collectives on
    /// fragments, where a one-hop root re-injects the payload once per leaf
    /// against its injection cap). If packed planning fails, one-hop wins by
    /// default.
    ///
    /// The memoised winner is keyed by the collective signature (kind and
    /// root), decided at the first call's byte size, and cleared by
    /// [`Communicator::replan`].
    ///
    /// The race's winning run is the first call's report: it is returned
    /// with the lowering, and [`Communicator::run_traced`] reports it instead
    /// of simulating the winner a second time. It is never stored, so later
    /// calls (memo hits) simulate their program once, as on any fabric.
    fn build_switch_program(
        &mut self,
        kind: CollectiveKind,
        bytes: u64,
        chunk: u64,
    ) -> Result<Built> {
        if let Some(&choice) = self.switch_strategy.get(&kind) {
            let (program, n, strategy) = self.switch_candidate(choice, kind, bytes, chunk)?;
            return Ok((program, n, strategy, None));
        }
        let one_hop = self.switch_candidate(SwitchChoice::OneHop, kind, bytes, chunk)?;
        let (choice, (program, n, strategy), run) =
            match self.switch_candidate(SwitchChoice::Packed, kind, bytes, chunk) {
                Ok(packed) => {
                    let one_hop_run = self.simulate(&one_hop.0)?;
                    let packed_run = self.simulate(&packed.0)?;
                    if packed_run.total_us + 1e-9 < one_hop_run.total_us {
                        (SwitchChoice::Packed, packed, Some(packed_run))
                    } else {
                        (SwitchChoice::OneHop, one_hop, Some(one_hop_run))
                    }
                }
                Err(_) => (SwitchChoice::OneHop, one_hop, None),
            };
        self.switch_strategy.insert(kind, choice);
        Ok((program, n, strategy, run))
    }

    /// Builds one switch-fabric candidate lowering.
    fn switch_candidate(
        &mut self,
        choice: SwitchChoice,
        kind: CollectiveKind,
        bytes: u64,
        chunk: u64,
    ) -> Result<(Program, usize, String)> {
        let cg = CodeGen::new(self.codegen_options(chunk));
        match choice {
            SwitchChoice::OneHop => {
                let cap = self
                    .induced
                    .gpu_cap(self.allocation[0])
                    .unwrap_or(23.0 * 6.0);
                let trees: Vec<WeightedTree> = match kind.root() {
                    Some(root) => vec![one_hop_broadcast_tree(&self.allocation, root, cap)],
                    None => one_hop_trees(&self.allocation, cap / self.allocation.len() as f64),
                };
                let n = trees.len();
                let program = cg.build(&trees, kind, bytes)?;
                Ok((program, n, "one-hop switch trees".to_string()))
            }
            SwitchChoice::Packed => {
                // Any root spans a switch fabric and the graph is symmetric,
                // so rootless collectives skip the root sweep.
                let root = kind.root().unwrap_or(self.allocation[0]);
                let treegen_opts = self.options.treegen;
                let plan = self.plans.plan_for(&self.induced, &treegen_opts, root)?;
                let n = plan.num_trees();
                let program = cg.build(&plan.trees, kind, bytes)?;
                Ok((
                    program,
                    n,
                    "packed spanning trees (NVLink switch fabric)".to_string(),
                ))
            }
        }
    }

    /// Simulates `program` once on the communicator's engine scratch.
    fn simulate(&mut self, program: &Program) -> Result<RunReport> {
        self.sim
            .run_with_scratch(program, &mut self.engine_scratch)
            .map_err(|e| BlinkError::Simulation(e.to_string()))
    }
}

/// Where a [`CommunicatorBuilder`] takes its machine model from.
#[derive(Debug, Clone)]
enum BuilderSource {
    /// An explicit machine topology (optionally restricted to an allocation).
    Machine(Topology),
    /// A scheduler placement: per-server slices materialised through
    /// [`placement_topology`].
    Placement {
        kind: ServerKind,
        nic_gbps: f64,
        slices: Vec<(usize, Vec<GpuId>)>,
    },
}

/// The single construction path for [`Communicator`]s: start from
/// [`Communicator::builder`] (an explicit machine) or
/// [`CommunicatorBuilder::from_placement`] (a scheduler placement).
///
/// The builder also picks the communicator's plan store: the process-wide
/// [`global_plan_cache`] by default, an explicit store through
/// [`CommunicatorBuilder::shared_plans`], or a private one through
/// [`CommunicatorBuilder::isolated_plans`]. Store choice and
/// [`CommunicatorBuilder::canonical_plan_sharing`] are builder state, so
/// they hold in any order with [`CommunicatorBuilder::options`].
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
    canonical: bool,
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
    /// [`placement_topology`] at [`CommunicatorBuilder::build`] time. The
    /// allocation is the whole slice topology.
    pub fn from_placement(kind: ServerKind, nic_gbps: f64, slices: &[(usize, Vec<GpuId>)]) -> Self {
        Self::from_source(BuilderSource::Placement {
            kind,
            nic_gbps,
            slices: slices.to_vec(),
        })
    }

    fn from_source(source: BuilderSource) -> Self {
        CommunicatorBuilder {
            source,
            allocation: None,
            options: CommunicatorOptions::default(),
            shared: None,
            isolated: false,
            canonical: false,
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

    /// Also shares plans at *isomorphism* level: NVLink-only plans over small
    /// allocations are additionally keyed by the induced topology's canonical
    /// form in the store, so topology-isomorphic allocations (mirror halves,
    /// NVSwitch cliques, process-group subgroups) reuse each other's packing
    /// work. Canonical hits are relabelled plans — identical weights and
    /// certified rate, but not bit-identical to a cold pack — hence the
    /// opt-in. [`Communicator::split`] enables this for subgroup children.
    pub fn canonical_plan_sharing(mut self) -> Self {
        self.canonical = true;
        self
    }

    /// Builds the communicator.
    ///
    /// # Errors
    /// Empty or unknown allocations, allocations naming a GPU twice,
    /// malformed placements.
    pub fn build(self) -> Result<Communicator> {
        let machine = match self.source {
            BuilderSource::Machine(machine) => machine,
            BuilderSource::Placement {
                kind,
                nic_gbps,
                slices,
            } => placement_topology(kind, nic_gbps, &slices)
                .map_err(|e| BlinkError::Planning(e.to_string()))?,
        };
        let allocation = match self.allocation {
            Some(allocation) => allocation,
            None => machine.gpu_ids(),
        };
        let induced = machine
            .induced(&allocation)
            .map_err(|e| BlinkError::Planning(e.to_string()))?;
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
        let store = match self.shared {
            Some(shared) => shared,
            None if self.isolated => SharedPlanCache::new(),
            None => global_plan_cache(),
        };
        let sim = Simulator::new(machine.clone(), self.options.sim_params);
        Ok(Communicator {
            machine,
            allocation,
            induced,
            sim,
            options: self.options,
            signatures: BTreeMap::new(),
            plans: PlanCache::new(store, self.canonical),
            picked_root: None,
            spannable: BTreeMap::new(),
            hybrids: BTreeMap::new(),
            switch_strategy: BTreeMap::new(),
            engine_scratch: EngineScratch::new(),
        })
    }
}

/// The largest connected component of `allocation` over `induced`'s links
/// (any class, treated as undirected), in allocation order. Ties between
/// equal-sized components go to the one discovered first — i.e. the one
/// containing the earliest allocation GPU — so the shrink rung of the
/// degradation ladder is deterministic.
fn largest_connected_component(induced: &Topology, allocation: &[GpuId]) -> Vec<GpuId> {
    use std::collections::VecDeque;
    let mut adj: BTreeMap<GpuId, BTreeSet<GpuId>> = BTreeMap::new();
    for l in induced.links() {
        adj.entry(l.src).or_default().insert(l.dst);
        adj.entry(l.dst).or_default().insert(l.src);
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
    use blink_sim::{LinkClass, OpKind};
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
        // the verdict is memoised per kind: repeat calls keep the strategy
        let again = comm.broadcast(GpuId(4), mb(64)).unwrap();
        assert!(again.strategy.contains("packed"), "{again}");
        // both lowerings stay value-correct on the fragment
        let (_, check) = comm
            .run_checked(CollectiveKind::Broadcast { root: GpuId(4) }, mb(16))
            .unwrap();
        assert!(check.is_correct(), "{check}");
    }

    #[test]
    fn a_raced_dgx2_first_call_reports_the_winners_run() {
        // the race simulates the winner once and the first call reports
        // that run: it must pass the oracle and match a memo-hit call (and
        // a fresh simulation of the same program) bit for bit
        let options = CommunicatorOptions {
            chunk_bytes: Some(4 << 20),
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
            let (first, program, spans) = comm.run_traced(kind, bytes).unwrap();
            assert_eq!(first.strategy, winner, "{alloc:?}");
            let check = check_collective(kind.spec(), &program, &spans, &alloc, bytes);
            assert!(check.is_correct(), "{alloc:?}: {check}");
            let (second, again, second_spans) = comm.run_traced(kind, bytes).unwrap();
            assert!(
                Arc::ptr_eq(&program, &again),
                "the second call is a memo hit"
            );
            assert_eq!(first.elapsed_us.to_bits(), second.elapsed_us.to_bits());
            let bits = |s: &[(f64, f64)]| -> Vec<(u64, u64)> {
                s.iter().map(|&(a, b)| (a.to_bits(), b.to_bits())).collect()
            };
            assert_eq!(bits(&spans), bits(&second_spans), "{alloc:?}");
            let fresh = Simulator::new(dgx2(), options.sim_params)
                .run(&program)
                .unwrap();
            assert_eq!(bits(&spans), bits(&fresh.op_spans), "{alloc:?}");
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
        // the store choice and canonical sharing are builder state, so an
        // .options() call after them cannot reset them
        let alloc: Vec<GpuId> = (0..4).map(GpuId).collect();
        let options = CommunicatorOptions {
            stream_reuse: true,
            ..Default::default()
        };
        for flags_first in [true, false] {
            let builder = Communicator::builder(dgx1v()).allocation(&alloc);
            let builder = if flags_first {
                builder
                    .isolated_plans()
                    .canonical_plan_sharing()
                    .options(options)
            } else {
                builder
                    .options(options)
                    .isolated_plans()
                    .canonical_plan_sharing()
            };
            let mut comm = builder.build().unwrap();
            assert!(comm.options().stream_reuse);
            comm.broadcast(GpuId(0), mb(16)).unwrap();
            // a private store sees exactly this communicator's one pack —
            // the second communicator of the loop would hit a shared one
            let store = comm.plan_store();
            assert_eq!(store.stats(), (0, 1), "flags first: {flags_first}");
            assert_eq!(
                store.canonical_stats(),
                (0, 1),
                "flags first: {flags_first}"
            );
        }
    }

    #[test]
    fn isolated_multi_server_communicators_pack_once() {
        let machine = multi_server(2, ServerKind::Dgx1V, 5.0);
        let alloc: Vec<GpuId> = vec![GpuId(0), GpuId(1), GpuId(2), GpuId(8), GpuId(9), GpuId(10)];
        let mut comm = Communicator::builder(machine)
            .allocation(&alloc)
            .isolated_plans()
            .build()
            .unwrap();
        let (report, first, _) = comm.run_traced(CollectiveKind::AllReduce, mb(32)).unwrap();
        assert!(report.strategy.contains("three-phase"), "{report}");
        let store = comm.plan_store().clone();
        // 2 servers x 3 partitions = 6 plans packed once
        assert_eq!(store.stats(), (0, 6));
        assert_eq!(store.len(), 6);
        // the same signature again is served by the lowering memo
        let (_, second, _) = comm.run_traced(CollectiveKind::AllReduce, mb(32)).unwrap();
        assert_eq!(store.stats(), (0, 6), "a memoised lowering plans nothing");
        assert!(Arc::ptr_eq(&first, &second));
        // a new size lowers again, over the stored plans
        comm.run_traced(CollectiveKind::AllReduce, mb(16)).unwrap();
        assert_eq!(store.stats(), (6, 6), "the second size packs nothing");
        assert_eq!(store.len(), 6);
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
    fn placement_communicators_share_plans_with_cluster_built_ones() {
        // The same fragmented job shape, built once from the placement
        // slices and once from the full cluster model: identical per-server
        // fingerprints, so the second communicator's three-phase planning
        // hits the first one's shared-cache entries.
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

        let machine = multi_server(2, ServerKind::Dgx1V, 5.0);
        let flat: Vec<GpuId> = slices.iter().flat_map(|(_, g)| g.clone()).collect();
        let mut b = Communicator::builder(machine)
            .allocation(&flat)
            .shared_plans(shared.clone())
            .build()
            .unwrap();
        let rb = b.all_reduce(mb(64)).unwrap();
        let (hits_after, misses_after) = shared.stats();
        assert!(
            hits_after > hits_before,
            "cluster-built communicator must hit the placement-built plans"
        );
        assert_eq!(
            misses_after, misses_before,
            "no re-packing for an identical job shape"
        );
        assert_eq!(
            ra.algorithmic_bandwidth_gbps.to_bits(),
            rb.algorithmic_bandwidth_gbps.to_bits(),
            "cached plans reproduce the same simulated collective bit-for-bit"
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
        // a second communicator of the same job shape reuses the plan
        let mut b = Communicator::builder(dgx1v())
            .allocation(&alloc)
            .shared_plans(shared.clone())
            .build()
            .unwrap();
        let rb = b.broadcast(GpuId(0), mb(100)).unwrap();
        assert_eq!(shared.stats(), (1, 1), "second communicator hits");
        assert_eq!(ra.num_trees, rb.num_trees);
        assert_eq!(ra.elapsed_us.to_bits(), rb.elapsed_us.to_bits());
        // a different shape misses instead of being served a stale plan
        let mut c = Communicator::builder(dgx1v())
            .allocation(&alloc[..4])
            .shared_plans(shared.clone())
            .build()
            .unwrap();
        c.broadcast(GpuId(0), mb(100)).unwrap();
        assert_eq!(shared.stats(), (1, 2));
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
        // 2 servers x 3 partitions = 6 plans packed once
        assert_eq!(shared.stats(), (0, 6));
        let mut b = Communicator::builder(machine)
            .allocation(&alloc)
            .shared_plans(shared.clone())
            .build()
            .unwrap();
        let rb = b.all_reduce(mb(50)).unwrap();
        assert_eq!(shared.stats(), (6, 6), "every per-server plan reused");
        assert_eq!(ra.elapsed_us.to_bits(), rb.elapsed_us.to_bits());
    }

    #[test]
    fn replan_recovers_from_a_killed_link_warm() {
        let alloc: Vec<GpuId> = (0..8).map(GpuId).collect();
        let mut comm = Communicator::builder(dgx1v())
            .allocation(&alloc)
            .build()
            .unwrap();
        let before = comm.all_reduce(mb(100)).unwrap();
        assert!(before.algorithmic_bandwidth_gbps > 30.0);
        // one NVLink duplex dies
        let delta = TopologyDelta::kill_link(comm.induced_topology(), GpuId(0), GpuId(1));
        let report = comm.replan(&delta).unwrap();
        assert_eq!(report.num_gpus, 8);
        assert!(
            report.warm_seeded_trees > 0,
            "stale plans must warm-start the re-plan: {report:?}"
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

    #[test]
    fn replan_drops_a_gpu_and_grows_back() {
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
        // ...and the job grows back: the delta carries the GPU and its links
        let shrunk = comm.induced_topology().clone();
        let full = machine.induced(&alloc).unwrap();
        let grow = TopologyDelta::between(&shrunk, &full);
        assert!(!grow.is_pure_removal());
        let report = comm.replan(&grow).unwrap();
        assert_eq!(report.num_gpus, 8);
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
    fn a_later_candidate_with_a_higher_rate_still_wins() {
        // DGX-1V {0, 2, 3}: roots 0 and 2 pack 65.55 GB/s, root 3 packs 69
        let alloc = [GpuId(0), GpuId(2), GpuId(3)];
        let (mut comm, store) = with_fresh_store(dgx1v(), &alloc);
        let sweep = comm.root_sweep();
        assert_eq!(sweep.root, GpuId(3), "{sweep:?}");
        assert_eq!(sweep.rate_gbps, 69.0);
        let (_, misses) = store.stats();
        assert!(misses >= 2, "the winner was packed after the first root");
    }

    #[test]
    fn dropping_the_picked_root_packs_its_successor_cold() {
        let alloc: Vec<GpuId> = (0..8).map(GpuId).collect();
        let (mut comm, store) = with_fresh_store(dgx1v(), &alloc);
        comm.all_reduce(mb(16)).unwrap();
        assert_eq!(comm.picked_root, Some(GpuId(0)));
        let report = comm.replan(&TopologyDelta::drop_gpu(GpuId(0))).unwrap();
        // the dropped root's plan cannot seed another root
        assert_eq!(report.repair_path, RepairPath::Cold, "{report:?}");
        assert_eq!(report.degradation, DegradationLevel::PackedReplan);
        assert_eq!(report.root, GpuId(1));
        assert_eq!(report.rate_gbps, 92.0);
        assert_eq!(store.stats(), (0, 2), "the successor is the only new pack");
        let (_, check) = comm.run_checked(CollectiveKind::AllReduce, mb(16)).unwrap();
        assert!(check.is_correct(), "{check}");
    }

    #[test]
    fn dropping_another_gpu_repairs_the_picked_root_warm() {
        let alloc: Vec<GpuId> = (0..8).map(GpuId).collect();
        let (mut comm, store) = with_fresh_store(dgx1v(), &alloc);
        comm.all_reduce(mb(16)).unwrap();
        let report = comm.replan(&TopologyDelta::drop_gpu(GpuId(7))).unwrap();
        assert_eq!(report.degradation, DegradationLevel::FullWarmRepair);
        assert_eq!(report.repair_path, RepairPath::Reroute, "{report:?}");
        assert_eq!(report.warm_iterations, 0);
        assert_eq!((report.seeds_demoted, report.root), (1, GpuId(0)));
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

    /// Ladder rung 1: a compound delta (two simultaneous NVLink duplex
    /// failures) repairs warm with zero MWU iterations and is reported as
    /// [`DegradationLevel::FullWarmRepair`] via [`RepairPath::Reroute`].
    #[test]
    fn replan_compound_delta_reports_full_warm_repair() {
        use blink_topology::LinkKind;
        let alloc: Vec<GpuId> = (0..8).map(GpuId).collect();
        let mut comm = Communicator::builder(dgx1v())
            .allocation(&alloc)
            .build()
            .unwrap();
        comm.all_reduce(mb(100)).unwrap();
        let before = comm.induced_topology().clone();
        let dead = |l: &blink_topology::Link, a: usize, b: usize| {
            (l.src == GpuId(a) && l.dst == GpuId(b)) || (l.src == GpuId(b) && l.dst == GpuId(a))
        };
        let after =
            before.filter_links(|l| l.kind == LinkKind::Pcie || !(dead(l, 0, 1) || dead(l, 2, 3)));
        let delta = TopologyDelta::between(&before, &after);
        assert!(delta.removed_links.len() >= 4, "{delta:?}");
        let report = comm.replan(&delta).unwrap();
        assert_eq!(
            report.degradation,
            DegradationLevel::FullWarmRepair,
            "{report:?}"
        );
        assert_eq!(report.repair_path, RepairPath::Reroute, "{report:?}");
        assert_eq!(report.warm_iterations, 0, "{report:?}");
        assert!(report.warm_seeded_trees > 0);
        assert!(report.warm_repaired_trees > 0, "{report:?}");
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
        assert!(delta.is_pure_removal());
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
    fn autotuner_traces_are_recorded() {
        let alloc: Vec<GpuId> = (0..4).map(GpuId).collect();
        let mut comm = Communicator::builder(dgx1v())
            .allocation(&alloc)
            .options(CommunicatorOptions {
                chunk_bytes: None,
                ..Default::default()
            })
            .build()
            .unwrap();
        for _ in 0..5 {
            comm.broadcast(GpuId(0), mb(200)).unwrap();
        }
        let history = comm.autotune_history(CollectiveKind::Broadcast { root: GpuId(0) }, mb(200));
        assert_eq!(history.len(), 5);
        // chunk sizes change over the first iterations
        assert!(history.windows(2).any(|w| w[0].0 != w[1].0));
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
                expect_root_error(comm.run_traced(kind, mb(1)).unwrap_err());
                expect_root_error(comm.run_streamed(kind, &[(mb(1), 0.0)]).unwrap_err());
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
        assert_eq!(first.groups.len(), 4);
        assert_eq!(first.finish_us.to_bits(), second.finish_us.to_bits());
        for (a, b) in first.groups.iter().zip(&second.groups) {
            assert!(Arc::ptr_eq(&a.program, &b.program), "{:?}", a.group);
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
            program.ops().iter().any(|op| {
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

    /// The endpoints of the first NVLink copy in `program`.
    fn program_nvlink_pair(program: &Program) -> (GpuId, GpuId) {
        program
            .ops()
            .iter()
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
    fn memoised_lowerings_follow_the_tuned_chunk() {
        let alloc: Vec<GpuId> = (0..4).map(GpuId).collect();
        let shared = SharedPlanCache::new();
        let mut tuned = Communicator::builder(dgx1v())
            .allocation(&alloc)
            .shared_plans(shared.clone())
            .options(CommunicatorOptions {
                chunk_bytes: None,
                ..Default::default()
            })
            .build()
            .unwrap();
        let kind = CollectiveKind::Broadcast { root: GpuId(0) };
        let mut previous: Option<(u64, Arc<Program>)> = None;
        let mut chunks = BTreeSet::new();
        for _ in 0..6 {
            let (report, program, _) = tuned.run_traced(kind, mb(200)).unwrap();
            // a communicator pinned at the reported chunk lowers the same
            let mut pinned = Communicator::builder(dgx1v())
                .allocation(&alloc)
                .shared_plans(shared.clone())
                .options(CommunicatorOptions {
                    chunk_bytes: Some(report.chunk_bytes),
                    ..Default::default()
                })
                .build()
                .unwrap();
            let (_, expected, _) = pinned.run_traced(kind, mb(200)).unwrap();
            assert_eq!(*program, *expected, "chunk {}", report.chunk_bytes);
            if let Some((chunk, prev)) = &previous {
                assert_eq!(*chunk == report.chunk_bytes, Arc::ptr_eq(prev, &program));
            }
            chunks.insert(report.chunk_bytes);
            previous = Some((report.chunk_bytes, program));
        }
        assert!(chunks.len() > 1, "the tuner moved: {chunks:?}");
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
}
