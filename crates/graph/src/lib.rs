//! # blink-graph
//!
//! Directed-graph algorithms used by Blink's TreeGen stage (Section 3 of the
//! paper) and by the NCCL baseline:
//!
//! * [`DiGraph`] — a small, dense, capacitated directed graph whose vertices
//!   are GPUs, built from a [`blink_topology::Topology`].
//! * [`arborescence`] — spanning arborescences (directed spanning trees rooted
//!   at the collective's root) and the Chu–Liu/Edmonds minimum-weight
//!   arborescence algorithm, which contracts cycles in place (super-nodes
//!   over their members' in-edge lists) in reusable [`ArborescenceScratch`]
//!   buffers.
//! * [`maxflow`] — the Edmonds/Lovász optimal broadcast rate certificate
//!   (`min_v maxflow(root → v)`, by Gray-code cut enumeration or one
//!   Hao–Orlin all-sinks pass), the value a correct packing must approach,
//!   over reusable [`MaxFlowScratch`] buffers.
//! * [`packing`] — the multiplicative-weight-update (MWU) approximate
//!   fractional packing of spanning arborescences (Section 3.2), engineered as
//!   a zero-allocation hot loop over reusable [`PackingScratch`] buffers with
//!   a min-cut-certificate early exit. Every packing starts cold: a replan
//!   after a topology delta packs the surviving graph afresh.
//! * [`minimize`] — the tree-count minimisation step (Section 3.2.1): a 0/1
//!   integer program solved by an iterative branch-and-bound over the MWU
//!   candidates (reusable [`MinimizeScratch`] buffers), with the paper's
//!   iterative relaxation back to fractional weights.
//! * [`rings`] — lane-disjoint NVLink ring discovery, modelling NCCL's ring
//!   construction, plus PCIe fallback detection.
//! * [`dbtree`] — double binary trees as used by NCCL 2.4 for small messages
//!   on the DGX-2.
//!
//! Everything in this crate is pure combinatorics: no simulator, no timing.
//! The pre-optimisation recursive solvers, Dinic certificate and allocating
//! minimisation survive only as test oracles in a `#[cfg(test)]` module.
//!
//! ## The scratch-reuse contract
//!
//! Every hot-path algorithm comes in two flavours: a convenience wrapper
//! (`min_arborescence`, `pack_spanning_trees`, `minimize_trees`,
//! `optimal_broadcast_rate`) that allocates its working state per call, and a
//! `*_in` variant taking a caller-owned scratch ([`ArborescenceScratch`],
//! [`PackingScratch`], [`MinimizeScratch`], [`MaxFlowScratch`]). Scratches
//! obey three rules:
//!
//! 1. **Buffers, not state.** Scratch contents never influence results: any
//!    call through a reused (arbitrarily dirty) scratch returns output
//!    bit-identical to the same call through a fresh scratch. Regression
//!    tests in `tests/properties.rs` and the per-module test suites pin this.
//! 2. **High-water-mark allocation.** Buffers grow to the largest problem
//!    seen and are cleared, never shrunk, so the steady state of a planning
//!    loop performs no heap allocation inside the algorithms (only returned
//!    results and first-seen dedup keys allocate). For the arborescence
//!    solver "largest" also means deepest: its super-node candidate lists
//!    grow with the most nested contraction seen, at most `m` edges per
//!    level.
//! 3. **One scratch, any graphs.** A single scratch may be threaded through
//!    solves over different graphs, roots and options in any order; it is
//!    `Default`-constructible and `Clone`.
//! 4. **One scratch per thread.** Every scratch struct is `Send` (asserted at
//!    compile time below): a scratch may be checked out of a pool, carried
//!    to another thread, used for any number of solves and returned. The
//!    structs are deliberately *not* shared mutably across threads — each
//!    concurrent solve gets its own scratch. `blink-core` keeps one
//!    process-wide `ScratchPool` (a `static`) for the checkout/return
//!    protocol, which communicators on any thread check their scratches out
//!    of. Because of rule 1 (buffers, not state) a solve returns the same
//!    result whichever thread's checkout served it.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arborescence;
#[cfg(test)]
mod baseline;
pub mod dbtree;
pub mod digraph;
pub mod lanes;
pub mod maxflow;
pub mod minimize;
pub mod packing;
pub mod rings;

pub use arborescence::{min_arborescence, min_arborescence_in, Arborescence, ArborescenceScratch};
pub use digraph::{DiGraph, Edge, EdgeIdx, NodeIdx};
pub use lanes::{lane_unit, pack_lanes_in, LaneScratch, LaneStats};
pub use maxflow::{
    broadcast_rate_all_sinks_in, optimal_broadcast_rate, optimal_broadcast_rate_in, MaxFlowScratch,
    CUT_ENUMERATION_MAX_NODES,
};
pub use minimize::{minimize_trees, minimize_trees_in, MinimizeOptions, MinimizeScratch};
pub use packing::{
    pack_spanning_trees, pack_spanning_trees_in, PackingError, PackingOptions, PackingScratch,
    PackingStats, PackingTermination, TreePacking, WeightedTree,
};
pub use rings::{find_rings, Ring, RingSearch};

// Rule 4 of the scratch-reuse contract: every scratch is `Send` so a pool can
// move them across threads. A scratch silently losing `Send` (e.g. by gaining
// an `Rc` field) would break `blink-core`'s process-wide `static` pool, which
// must be `Sync`, at a distance, so pin it here.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<ArborescenceScratch>();
    assert_send::<PackingScratch>();
    assert_send::<MinimizeScratch>();
    assert_send::<MaxFlowScratch>();
    assert_send::<LaneScratch>();
};
