//! # blink
//!
//! Facade crate for the Blink reproduction: re-exports the workspace crates so
//! examples and downstream users can depend on a single package.
//!
//! * [`topology`] — GPU interconnect models (DGX-1P / DGX-1V / DGX-2 / multi-server).
//! * [`graph`] — spanning-tree packing, max-flow certificates, ring discovery.
//! * [`sim`] — the discrete-event hardware simulator.
//! * [`nccl`] — the NCCL 2 baseline (rings, PCIe fallback, double binary trees).
//! * [`core`] — the Blink library itself (TreeGen, CodeGen, communicator).
//! * [`sched`] — the multi-tenant cluster scheduler simulator.
//! * [`train`] — the data-parallel training simulator.
//!
//! See `examples/quickstart.rs` for a quickstart and the repository's
//! `EXPERIMENTS.md` for the paper's claims beside the reproduced values.

#![warn(missing_docs)]

pub use blink_core as core;
pub use blink_graph as graph;
pub use blink_nccl as nccl;
pub use blink_sched as sched;
pub use blink_sim as sim;
pub use blink_topology as topology;
pub use blink_train as train;

/// The most common entry points, re-exported flat for convenience.
pub mod prelude {
    pub use blink_core::{
        CollectiveKind, CollectiveReport, Communicator, CommunicatorBuilder, CommunicatorOptions,
        SharedPlanCache,
    };
    pub use blink_topology::{presets, GpuId, LinkKind, ServerId, Topology};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work() {
        let machine = presets::dgx1v();
        let alloc: Vec<GpuId> = (0..3).map(GpuId).collect();
        let mut comm = Communicator::builder(machine)
            .allocation(&alloc)
            .build()
            .unwrap();
        let report = comm.all_reduce(16 << 20).unwrap();
        assert!(report.algorithmic_bandwidth_gbps > 1.0);
    }
}
