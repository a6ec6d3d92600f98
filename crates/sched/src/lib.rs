//! # blink-sched
//!
//! A synthetic multi-tenant GPU-cluster scheduler, standing in for the
//! production trace behind Figure 3 of the Blink paper ("number of GPUs
//! allocated per 8-GPU server across 40,000 multi-GPU jobs at Cloud-X").
//!
//! The paper's observation is that although jobs overwhelmingly request GPUs
//! in powers of two, bin-packing them onto 8-GPU servers under churn leaves
//! *fragmented* per-server allocations — 3, 5, 6 or 7 GPUs of one job on a
//! single machine — and those fragments induce the irregular topologies that
//! break ring-based collectives. This crate reproduces that effect with a
//! simple best-fit cluster simulator: jobs arrive with power-of-two sizes,
//! run for a random duration, land on the tightest server that can hold
//! them, and are split across servers when no single server can.
//!
//! ## The fleet pipeline
//!
//! [`pipeline::FleetPipeline`] closes the loop from that scheduler to the
//! planner: **submit → place → plan → run**. Each stage is instrumented with
//! begin/end events on an [`events::EventMonitor`], and the stream obeys a
//! fixed contract:
//!
//! 1. At every arrival, departures up to the arrival time are drained first —
//!    one `Depart` event per finished job, in completion order (ties by
//!    ascending job id). If departures freed room and consolidation is
//!    enabled, fragmented survivors are re-packed next (`Consolidate`
//!    events, in ascending job-id order); a moved job is a new communicator
//!    over its new placement, which runs its first AllReduce before it
//!    replaces the old one.
//! 2. The arrival is then placed (`Place` span on success, an instantaneous
//!    `Reject` otherwise), its communicator built over the placement-induced
//!    slice topology (`Plan` span) with a fleet-wide shared plan cache, and
//!    its first AllReduce executed on the simulator (`FirstCollective`
//!    span).
//!
//! Given one workload seed and one configuration, the *sequence* of
//! `(job id, stage)` events, every placement, every simulated collective
//! rate, and all cache and rejection counters are deterministic — only the
//! wall-clock timestamps inside the records vary between runs. `bench_fleet`
//! leans on exactly this split: latency percentiles come from the
//! timestamps, conformance gates from the deterministic part.
//!
//! ## Failure model
//!
//! With [`FleetConfig::faults`] set, a seeded [`faults::FaultInjector`]
//! weaves a deterministic chaos schedule into the same loop. The taxonomy:
//!
//! * **link flap** — every non-PCIe lane between one physical GPU pair of a
//!   server goes down (targets are drawn from the machine's real NVLink
//!   neighbour list); the PCIe mesh survives.
//! * **GPU drop** — one device vanishes: it leaves its job's topology with
//!   all its links, the job keeps its live GPUs, and the GPU is quarantined
//!   in the cluster until its heal.
//! * **NIC degradation** — one server's NIC drops to a fraction of its
//!   configured bandwidth; stacked degradations take the worst factor.
//! * **server loss** — every GPU of one server vanishes at once.
//!
//! Each onset carries a matching heal at onset + outage. On every fault the
//! pipeline replans each affected running job through
//! `Communicator::replan`'s graceful-degradation ladder (slice unchanged →
//! cold replan → PCIe fallback → shrunk subgroup) and re-runs its
//! collective as a recovery probe; heals replan affected jobs back onto the
//! restored capacity (shed GPUs return to the free pool, never to a shrunk
//! job). A job whose every GPU is lost — or whose recovery replan fails — is
//! evicted and re-offered at most [`faults::MAX_RETRY_ATTEMPTS`] times
//! (exponential backoff, [`faults::retry_delay`], in deterministic ascending
//! `(retry time, job id)` order); exhausting the attempts counts the job
//! lost. The whole run — event order, recovery rungs, rates, every counter —
//! is a pure function of the `(workload seed, fault seed)` pair, which is
//! what `bench_fleet`'s chaos replay gates on.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cluster;
pub mod events;
pub mod faults;
pub mod pipeline;
pub mod workload;

pub use cluster::{Cluster, Placement};
pub use events::{EventMonitor, EventRecord, PendingEvent, Stage};
pub use faults::{
    retry_delay, FaultConfig, FaultEvent, FaultInjector, FaultRecord, MAX_RETRY_ATTEMPTS,
};
pub use pipeline::{FleetConfig, FleetPipeline, FleetReport, JobOutcome};
pub use workload::{AllocationHistogram, Job, WorkloadConfig, WorkloadGenerator};
