//! # blink-sim
//!
//! A discrete-event simulator of multi-GPU servers that stands in for the
//! CUDA/NVLink/PCIe hardware the Blink paper runs on.
//!
//! The paper's performance results are all *timing* phenomena: chunked,
//! pipelined peer-to-peer copies over capacitated links, reduction kernels
//! that run while data is being forwarded, per-operation launch overheads that
//! dominate at small sizes, and shared fabrics (NVSwitch ports, server NICs)
//! that bound aggregate injection bandwidth. This crate models exactly those
//! effects and nothing more:
//!
//! * [`program`] — a [`Program`] is a DAG of operations
//!   (peer-to-peer copies, local reductions, compute kernels, peer-access
//!   toggles) organised into streams, the unit of FIFO ordering, mirroring the
//!   CUDA-stream schedules Blink's CodeGen emits. Data-moving ops carry
//!   **segmented payloads** ([`Segment`] lists of logical
//!   byte ranges): one op models one batched CUDA call, so a gather edge can
//!   move a whole subtree's non-contiguous slot payload with a single launch
//!   overhead while the oracle still sees every byte range exactly. The
//!   single-range builders (`copy_range`/`reduce_range` and the offset-0
//!   legacy helpers) are the one-segment case;
//!   [`Program::split_segments`](program::Program::split_segments) expands a
//!   program back to the one-op-per-segment shape for comparison. A program
//!   is flat — every op's dependencies in one array and every op's segments
//!   in another, read through borrowed [`OpRef`] views — so building one
//!   allocates nothing per op.
//! * [`engine`] — the [`Simulator`] executes a program
//!   against a [`blink_topology::Topology`] using list scheduling over link,
//!   port, NIC and compute resources and reports per-op timings, total elapsed
//!   time and per-link utilisation. The scheduler runs an **interned-resource
//!   fast path**: [`Simulator::new`] resolves the topology's links, switch
//!   ports, NICs and compute engines to static dense ids (with each link's
//!   capacity) once, and compiling a program maps every op onto them,
//!   laying per-op resource lists, durations and dependency children out
//!   as flat CSR tables local to the program. A run splices its programs'
//!   tables in a reusable [`EngineScratch`], so the candidate scan
//!   allocates nothing per iteration. A caller that replays a program keeps
//!   its [`CompiledProgram`], which records every lookup it made and runs
//!   as it is on any simulator where those lookups agree, skipping
//!   validation and resolution. The K earliest-ready candidates sit in a
//!   sorted window beside the ready heap (O(1) heap operations per
//!   scheduled op) and the
//!   scan over it stops, exactly, at the first candidate that becomes ready
//!   too late to win, and skips every candidate that could at best tie a
//!   winner with a lower op id; timings are bit-identical to the allocating
//!   pop-K-and-push-back reference scheduler the engine's tests keep as an
//!   oracle. The scratch obeys the same buffers-not-state / high-water-mark / `Send`
//!   contract as `blink-graph`'s planning scratches (see [`engine`]'s module
//!   docs). The engine is also a **streaming executor**: a
//!   [`Session`] admits multiple in-flight programs with
//!   issue timestamps and schedules them over one shared resource table, so
//!   concurrent collectives contend for links (FIFO serialisation at op
//!   granularity) while a [`SessionReport`] breaks out
//!   per-program and end-to-end spans; the session contract — admission,
//!   link sharing, determinism, bit-identity to the single-program path when
//!   one program is in flight — is specified in [`engine`]'s module docs.
//! * [`params`] — calibration constants ([`SimParams`]),
//!   documented against the paper's own micro-benchmarks (Section 2.2 and
//!   Appendix A).
//! * [`patterns`] — builders for the paper's micro-benchmark traffic patterns
//!   (chain forward / reduce+forward / reduce-broadcast, fan-in/out, MIMO,
//!   MCA) used to reproduce Figures 7, 8, 24 and 26.
//! * [`semantics`] — a value-level oracle that replays an executed program
//!   along the engine's schedule at byte-range granularity and verifies every
//!   GPU ended with exactly the bytes the collective's contract names
//!   ([`semantics::check_collective`], covering all five collectives with
//!   contribution *multisets*), closing the loop between "the program
//!   finished fast" and "the program computed the right thing".
//!
//! The simulator's engine deliberately knows nothing about collectives: Blink
//! and the NCCL baseline lower their schedules to programs; [`semantics`]
//! checks the lowered data flow after the fact.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod engine;
pub mod params;
pub mod patterns;
pub mod program;
pub mod semantics;

pub use engine::{
    algorithmic_bandwidth_gbps, CompiledProgram, EngineScratch, ProgramSpan, RunReport, ScanWork,
    Session, SessionReport, Simulator,
};
pub use params::SimParams;
pub use program::{LinkClass, OpId, OpKind, OpRef, Program, ProgramBuilder, Segment, StreamId};
pub use semantics::{check_collective, CollectiveSpec, Contributions, ValueCheck, Violation};
