//! # blink-core
//!
//! The Blink collective-communication library (the paper's primary
//! contribution), implemented over the simulated substrate:
//!
//! * [`treegen`] — the TreeGen stage (Figure 9): probe the topology induced by
//!   a job's GPU allocation and pack spanning trees. On a lane graph (every
//!   DGX-1 NVLink slice) the packing is exact: Lovász's construction of the
//!   certificate's whole-lane trees, with no MWU, keeping the packing a
//!   pipeline model of the lowered collective rates fastest among those a
//!   few arc orders grow. Elsewhere (PCIe, the
//!   hybrid's PCIe half, DGX-2 roots past the first) it is the paper's MWU
//!   approximation followed by tree-count minimisation (Sections 3.1–3.2),
//!   and a complete uniform graph from its first GPU is written down in
//!   closed form. Planning runs over a
//!   [`ScratchPool`] of reusable planning and engine buffers: one pool per
//!   process ([`ScratchPool::process`]), whatever plan store
//!   ([`SharedPlanCache`]) a communicator attaches to. Planning runs on
//!   the caller's thread.
//! * [`codegen`] — the CodeGen stage: lower a tree plan into a chunked,
//!   pipelined transfer program with one stream per link per tree and stream
//!   reuse for fair link sharing (Section 4). Every emitted op carries its
//!   exact logical byte range — a tree's share is a contiguous sub-range of
//!   the buffer, each chunk a sub-range of its share, gathered slots live at
//!   `rank · bytes`, ReduceScatter shards follow the canonical
//!   `⌊i·bytes/n⌋` split — which is what makes the lowering *checkable*:
//!   `blink_sim::semantics::check_collective` replays any executed program
//!   and proves every byte landed exactly once where the collective's
//!   contract requires ([`Communicator::run_checked`] wires this up
//!   end-to-end, and the CI `conformance` job drives it over the full
//!   strategy × collective × topology matrix).
//! * [`collective`] — the collective operations Blink exposes (Broadcast,
//!   Gather, Reduce, AllGather, ReduceScatter, AllReduce) and their reports.
//! * [`store`] — the plan cache that keeps packing and lowering out of
//!   repeated calls: one [`SharedPlanCache`] store with one plan tier keyed
//!   by the allocation's exact shape and a tier of lowered programs, and a
//!   private handle on it in every communicator. A communicator lowers at a
//!   fixed chunk size; the paper's MIAD chunk tuner (Section 4.2.1,
//!   Figure 12) is a standalone controller in `blink-bench`'s Figure 12
//!   harness, which builds each step's communicator at the tuner's chunk.
//! * [`fusion`] — batching of small concurrent same-kind collectives into one
//!   segmented program over their concatenated logical space (the SparCML
//!   observation applied to per-layer gradient buckets), with a window
//!   restriction that lets the value-level oracle prove a fused run
//!   contribution-equivalent to its unfused constituents.
//!   [`Communicator::run_streamed`] applies the pass under a size threshold
//!   and executes the resulting programs concurrently on a
//!   `blink_sim` streaming [`Session`](blink_sim::Session).
//! * [`hybrid`] — balanced hybrid PCIe + NVLink transfers (Section 3.4,
//!   Equation 8, Figure 21).
//! * [`onehop`] — the DGX-2 / NVSwitch planner: `m` one-hop trees, one rooted
//!   at every GPU (Section 3.5, Figures 19–20).
//! * [`multiserver`] — the three-phase cross-machine AllReduce (Section 3.5,
//!   Figure 10, Figure 22).
//! * [`communicator`] — the NCCL-flavoured front door: create a communicator
//!   for an allocation, call collectives, get timing reports back from the
//!   simulator. Rootless collectives run over one root picked by a sweep
//!   that packs only the candidates whose certificate can still beat the
//!   best plan. [`Communicator::replan`] absorbs topology churn (failures
//!   and heals) by building the communicator afresh over the damaged
//!   machine on the same plan store (`bench_replan` records the latency
//!   and the roots each replan packs).
//! * [`group`] — hierarchical process groups: [`Communicator::split`] turns
//!   one communicator into nested subgroups whose induced topologies share
//!   the parent's links, executed concurrently through one simulator session
//!   and value-checked per subgroup.
//!
//! # Process groups and strategy selection
//!
//! Communicators are built through one path, [`CommunicatorBuilder`]
//! ([`Communicator::builder`], or [`CommunicatorBuilder::from_placement`]
//! for a scheduler placement), which also picks the plan store: the
//! process-wide [`global_plan_cache`] by default, an explicit one, or a
//! private one for isolation. A communicator spans any induced subgraph of its machine — fragmented
//! DGX-1 quads and *partially allocated* DGX-2 NVSwitch fabrics plan the
//! same way. On all-to-all switch fabrics there is no hard-wired strategy:
//! the first lowering of each `(kind, bytes, chunk)` key builds **both**
//! candidates — the paper's one-hop broadcast trees and TreeGen's packed
//! spanning trees over the induced switch graph (in closed form from the
//! smallest GPU, see [`onehop::relay_trees`]) — simulates each once, and
//! stores whichever finishes first in the plan store's lowering tier (the
//! packed certificate `(m−1)·b` beats one-hop's `b` on fragments where the
//! root's re-injection is the bottleneck, while one-hop keeps its latency
//! edge where aggregate rates tie). Every later lookup of the key takes
//! that winner, from any communicator of the shape, so what a call runs
//! never depends on the calls before it.
//!
//! [`Communicator::split`] partitions an allocation with a
//! [`blink_topology::GroupSplit`] (by server / by stride / explicit sets)
//! into child communicators that run concurrently over the links they share
//! ([`ProcessGroups::run_concurrent`]). Children plan and lower like any
//! other communicator on the parent's [`SharedPlanCache`]: a subgroup's
//! program is the one a private communicator over the same GPUs lowers, so
//! a split costs nothing beyond its children, and a repeated split takes
//! every child's lowering from the store.
//!
//! # The graceful-degradation ladder
//!
//! Failure recovery never has a cliff: [`Communicator::replan`] walks a
//! four-rung ladder and reports the rung taken in
//! [`ReplanReport::degradation`] so callers can distinguish "as fast as
//! before" from "alive but slower" from "alive but smaller":
//!
//! 1. [`DegradationLevel::FullWarmRepair`] — the delta left the
//!    communicator's slice as it was (it missed the allocation's GPUs, links
//!    and NICs): the rebuilt communicator runs what it ran before.
//! 2. [`DegradationLevel::PackedReplan`] — the changed slice was planned
//!    from cold, as TreeGen plans any slice: a plan-store hit, a closed
//!    form, an exact lane packing (every DGX-1 NVLink slice), or MWU plus
//!    minimisation. [`ReplanReport::warm_iterations`] counts the MWU
//!    iterations the replan's root sweep ran.
//! 3. [`DegradationLevel::PcieFallback`] — the surviving NVLink graph spans
//!    from no candidate root; collectives lower over the always-complete
//!    PCIe mesh (or one-hop on switch fabrics) until a heal event restores
//!    spannability.
//! 4. [`DegradationLevel::ShrunkSubgroup`] — the survivor graph is
//!    disconnected outright; the allocation shrinks in place to its largest
//!    connected component ([`ReplanReport::shed_gpus`] lists the casualties)
//!    rather than failing the job.
//!
//! Every rung produces value-correct collectives: the conformance matrix
//! drives compound-failure scenarios through each rung and replays the
//! resulting programs byte-exactly with [`Communicator::run_checked`].
//!
//! ```
//! use blink_core::Communicator;
//! use blink_topology::{presets, GpuId};
//!
//! let allocation: Vec<GpuId> = (0..4).map(GpuId).collect();
//! let mut comm = Communicator::builder(presets::dgx1v())
//!     .allocation(&allocation)
//!     .build()
//!     .unwrap();
//! let report = comm.broadcast(GpuId(0), 64 << 20).unwrap();
//! assert!(report.algorithmic_bandwidth_gbps > 20.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod codegen;
pub mod collective;
pub mod communicator;
pub mod fusion;
pub mod group;
pub mod hybrid;
pub mod multiserver;
pub mod onehop;
pub mod store;
pub mod treegen;

pub use codegen::{CodeGen, CodeGenOptions};
pub use collective::{CollectiveKind, CollectiveReport};
pub use communicator::{
    Communicator, CommunicatorBuilder, CommunicatorOptions, DegradationLevel, ReplanReport,
    StreamedGroup, StreamedRun,
};
pub use fusion::{fuse_requests, fusible, restrict_to_window, FusedGroup};
pub use group::{GroupCollective, GroupRun, ProcessGroups};
pub use store::{global_plan_cache, plan_fingerprint, SharedPlanCache};
pub use treegen::{
    LinkSelection, PlannerScratch, ScratchGuard, ScratchPool, TreeGen, TreeGenOptions, TreePlan,
};

/// Errors surfaced by the Blink library.
#[derive(Debug, Clone, PartialEq)]
pub enum BlinkError {
    /// The allocation or topology cannot support the requested collective.
    Planning(String),
    /// Lowering a plan to a program failed: a malformed tree set, a
    /// program past [`codegen::MAX_PROGRAM_OPS`], or an internal bug.
    CodeGen(String),
    /// Executing the program on the simulator failed.
    Simulation(String),
}

impl std::fmt::Display for BlinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlinkError::Planning(m) => write!(f, "planning error: {m}"),
            BlinkError::CodeGen(m) => write!(f, "code generation error: {m}"),
            BlinkError::Simulation(m) => write!(f, "simulation error: {m}"),
        }
    }
}

impl std::error::Error for BlinkError {}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, BlinkError>;
