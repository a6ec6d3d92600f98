//! Shared measurement helpers: run one collective under Blink or the NCCL
//! baseline on a given machine/allocation and report its throughput.

use blink_core::{CollectiveKind, Communicator, CommunicatorOptions};
use blink_nccl::schedule::{build_program, NcclCollective};
use blink_nccl::NcclPlanner;
use blink_sim::Simulator;
use blink_topology::{GpuId, Topology};
use serde::{Deserialize, Serialize};

/// The outcome of one measured collective.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CollectiveMeasurement {
    /// Which library ran ("blink" or "nccl").
    pub library: String,
    /// Buffer size in bytes.
    pub bytes: u64,
    /// Completion time in microseconds.
    pub elapsed_us: f64,
    /// Algorithmic bandwidth in GB/s.
    pub gbps: f64,
    /// Strategy / plan description.
    pub strategy: String,
}

/// Runs a Blink collective on `allocation` of `machine`.
///
/// # Panics
/// Panics if planning fails (the harness only drives valid configurations).
pub fn blink_collective(
    machine: &Topology,
    allocation: &[GpuId],
    kind: CollectiveKind,
    bytes: u64,
) -> CollectiveMeasurement {
    blink_collective_with(
        machine,
        allocation,
        kind,
        bytes,
        CommunicatorOptions::default(),
    )
}

/// Runs a Blink collective with explicit communicator options (used by the
/// hybrid and ablation figures).
pub fn blink_collective_with(
    machine: &Topology,
    allocation: &[GpuId],
    kind: CollectiveKind,
    bytes: u64,
    options: CommunicatorOptions,
) -> CollectiveMeasurement {
    let mut comm = Communicator::builder(machine.clone())
        .allocation(allocation)
        .options(options)
        .build()
        .expect("harness allocations are valid");
    let report = comm
        .run(kind, bytes)
        .expect("harness collectives are plannable");
    CollectiveMeasurement {
        library: "blink".to_string(),
        bytes,
        elapsed_us: report.elapsed_us,
        gbps: report.algorithmic_bandwidth_gbps,
        strategy: report.strategy,
    }
}

/// Runs an NCCL-baseline collective on `allocation` of `machine`.
///
/// # Panics
/// Panics if planning fails (the harness only drives valid configurations).
pub fn nccl_collective(
    machine: &Topology,
    allocation: &[GpuId],
    kind: CollectiveKind,
    bytes: u64,
) -> CollectiveMeasurement {
    let planner = NcclPlanner::new(machine.clone());
    let plan = planner
        .plan(allocation, bytes)
        .expect("harness allocations are valid");
    let collective = match kind {
        CollectiveKind::Broadcast { root } => NcclCollective::Broadcast { root },
        CollectiveKind::AllReduce => NcclCollective::AllReduce,
        other => panic!("the NCCL baseline harness only measures Broadcast/AllReduce, not {other}"),
    };
    let program = build_program(&plan, collective, bytes).expect("valid plans lower to programs");
    let report = Simulator::with_defaults(machine.clone())
        .run(&program)
        .expect("baseline programs execute");
    CollectiveMeasurement {
        library: "nccl".to_string(),
        bytes,
        elapsed_us: report.total_us,
        gbps: report.algorithmic_bandwidth_gbps(bytes),
        strategy: plan.to_string(),
    }
}

/// Convenience: megabytes to bytes.
pub fn mb(n: u64) -> u64 {
    n * 1024 * 1024
}

#[cfg(test)]
mod tests {
    use super::*;
    use blink_topology::presets::dgx1p;

    #[test]
    fn figure2_numbers_reproduce() {
        // Figure 2(a): fully connected triple — both libraries are fast.
        let machine = dgx1p();
        let alloc = [GpuId(0), GpuId(1), GpuId(3)];
        let kind = CollectiveKind::Broadcast { root: GpuId(0) };
        let blink = blink_collective(&machine, &alloc, kind, mb(500));
        let nccl = nccl_collective(&machine, &alloc, kind, mb(500));
        assert!(blink.gbps > 30.0 && nccl.gbps > 30.0);
        // Figure 2(b): partially connected triple — NCCL collapses to PCIe.
        let alloc = [GpuId(0), GpuId(1), GpuId(4)];
        let blink = blink_collective(&machine, &alloc, kind, mb(500));
        let nccl = nccl_collective(&machine, &alloc, kind, mb(500));
        assert!(nccl.gbps < 6.0);
        assert!(
            blink.gbps / nccl.gbps > 3.0,
            "{} vs {}",
            blink.gbps,
            nccl.gbps
        );
    }
}
