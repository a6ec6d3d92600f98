//! Closed-form rate model for the NCCL baseline.
//!
//! Used by Figure 14 ("theoretical speedups from packing spanning trees
//! compared to rings") and by the training simulator when it needs a quick
//! estimate without running the event simulator. Rates are *algorithmic
//! bandwidth*: collective buffer size divided by completion time, the same
//! quantity the simulator reports, so the two are directly comparable.

use crate::planner::{NcclAlgorithm, NcclPlan};

/// Steady-state broadcast rate of a plan, in GB/s.
///
/// * Ring channels: every channel pipelines its share of the buffer around
///   the ring, so the aggregate rate is `channels × lane bandwidth`.
/// * PCIe fallback: a single ring at PCIe speed.
/// * Double binary trees: two channels at lane speed (small-message latency is
///   what actually matters there; see the simulator for that).
pub fn broadcast_rate_gbps(plan: &NcclPlan) -> f64 {
    match &plan.algorithm {
        NcclAlgorithm::NvLinkRings(search) => search.directed_channels() as f64 * plan.lane_gbps,
        NcclAlgorithm::PcieRing(_) => plan.pcie_gbps,
        NcclAlgorithm::DoubleBinaryTrees(_) => 2.0 * plan.lane_gbps,
    }
}

/// Steady-state AllReduce rate of a plan, in GB/s.
///
/// Ring AllReduce (reduce-scatter + all-gather) moves `2 (N-1) / N` bytes per
/// byte of buffer over every link it uses, so the rate is
/// `channels × lane × N / (2 (N-1))` — a bit better than half the broadcast
/// rate, matching the paper's observation that AllReduce lands at roughly half
/// the Broadcast throughput for both systems.
pub fn allreduce_rate_gbps(plan: &NcclPlan) -> f64 {
    let n = plan.gpus.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let factor = n / (2.0 * (n - 1.0));
    match &plan.algorithm {
        NcclAlgorithm::NvLinkRings(search) => {
            search.directed_channels() as f64 * plan.lane_gbps * factor
        }
        NcclAlgorithm::PcieRing(_) => plan.pcie_gbps * factor,
        NcclAlgorithm::DoubleBinaryTrees(_) => 2.0 * plan.lane_gbps * factor,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::NcclPlanner;
    use blink_topology::presets::{dgx1p, dgx1v};
    use blink_topology::GpuId;

    #[test]
    fn full_dgx1v_rates() {
        let planner = NcclPlanner::new(dgx1v());
        let alloc: Vec<GpuId> = (0..8).map(GpuId).collect();
        let plan = planner.plan(&alloc, 500 << 20).unwrap();
        let bcast = broadcast_rate_gbps(&plan);
        assert!((bcast - 6.0 * 23.0).abs() < 1e-6, "bcast = {bcast}");
        let ar = allreduce_rate_gbps(&plan);
        assert!((ar - 6.0 * 23.0 * 8.0 / 14.0).abs() < 1e-6, "ar = {ar}");
    }

    #[test]
    fn pcie_fallback_rates_are_pcie_bound() {
        let planner = NcclPlanner::new(dgx1p());
        let plan = planner
            .plan(&[GpuId(0), GpuId(1), GpuId(4)], 500 << 20)
            .unwrap();
        assert!(broadcast_rate_gbps(&plan) <= 6.0);
        assert!(allreduce_rate_gbps(&plan) < broadcast_rate_gbps(&plan));
    }

    #[test]
    fn allreduce_rate_is_roughly_half_of_broadcast() {
        let planner = NcclPlanner::new(dgx1p());
        let alloc: Vec<GpuId> = (0..8).map(GpuId).collect();
        let plan = planner.plan(&alloc, 500 << 20).unwrap();
        let ratio = allreduce_rate_gbps(&plan) / broadcast_rate_gbps(&plan);
        assert!((ratio - 8.0 / 14.0).abs() < 1e-9);
    }
}
