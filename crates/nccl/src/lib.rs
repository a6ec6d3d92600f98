//! # blink-nccl
//!
//! A structural re-implementation of the NCCL 2 collectives that the Blink
//! paper compares against. Real NCCL is a CUDA library; here the same
//! *protocols* are planned over [`blink_topology`] graphs and lowered to
//! [`blink_sim`] programs so that Blink and the baseline run on identical
//! simulated hardware:
//!
//! * [`planner`] — decides, per allocation, whether NCCL would use NVLink
//!   rings, fall back to PCIe rings (when the allocated GPUs admit no
//!   NVLink-only ring, Figure 2(b)), or use double-binary trees (small
//!   messages on the DGX-2, Figures 19–20).
//! * [`schedule`] — turns a plan into a chunked, pipelined transfer program:
//!   ring broadcast, ring AllReduce (reduce-scatter + all-gather), and
//!   tree-based AllReduce for the double-binary plan.
//! * [`cost`] — the closed-form rate model used for the theoretical
//!   comparison of Figure 14 and for quick estimates inside the training
//!   simulator.
//!
//! The baseline takes no options. [`NcclPlanner::new`] reads the lane
//! bandwidth from the allocation (its smallest NVLink capacity), switches a
//! switch fabric to double-binary trees below
//! [`planner::TREE_THRESHOLD_BYTES`], and [`schedule::build_program`]
//! pipelines 4 MiB chunks, Blink's default chunk size.
//!
//! The planner is intentionally faithful to NCCL's documented *constraints*
//! (rings must traverse every GPU; a ring uses one NVLink lane per hop; PCIe
//! is used only when NVLink rings are impossible) rather than to its exact
//! search heuristics; where that matters the difference favours the baseline
//! (we give it the best possible ring set), making the Blink-vs-NCCL
//! comparisons conservative.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cost;
pub mod planner;
pub mod schedule;

pub use cost::{allreduce_rate_gbps, broadcast_rate_gbps};
pub use planner::{NcclAlgorithm, NcclPlan, NcclPlanner};
pub use schedule::NcclCollective;
