//! NCCL channel planning: rings over NVLink, PCIe fallback, double-binary
//! trees for small messages on switch fabrics.

use blink_graph::dbtree::{double_binary_tree, DoubleBinaryTree};
use blink_graph::{find_rings, DiGraph, Ring, RingSearch};
use blink_topology::{GpuId, LinkKind, Topology};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Below this many bytes, a collective on a switch fabric (DGX-2) runs over
/// double-binary trees instead of rings, mirroring NCCL 2.4's protocol
/// switch for latency-bound sizes. NCCL's switchover on NVSwitch systems
/// happens at small sizes; the paper quotes "< 16KB" for trees but observes
/// tree-like latency behaviour through the KB range.
pub const TREE_THRESHOLD_BYTES: u64 = 64 * 1024;

/// Which protocol NCCL would run for one collective call.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum NcclAlgorithm {
    /// NVLink rings: the allocation admits at least one NVLink-only ring.
    NvLinkRings(RingSearch),
    /// No NVLink ring exists: fall back to a single ring over PCIe.
    PcieRing(Ring),
    /// Double-binary trees (small messages on a switch fabric).
    DoubleBinaryTrees(Box<DoubleBinaryTreePlan>),
}

/// A double-binary-tree plan (kept behind a `Box` because it is much larger
/// than the ring variants).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DoubleBinaryTreePlan {
    /// GPU membership in rank order.
    pub gpus: Vec<GpuId>,
    /// Tree A edges (parent → child) and root.
    pub tree_a_root: GpuId,
    /// Tree A parent → child edges.
    pub tree_a_edges: Vec<(GpuId, GpuId)>,
    /// Tree B root.
    pub tree_b_root: GpuId,
    /// Tree B parent → child edges.
    pub tree_b_edges: Vec<(GpuId, GpuId)>,
}

impl DoubleBinaryTreePlan {
    fn from_trees(gpus: Vec<GpuId>, dbt: &DoubleBinaryTree) -> Self {
        DoubleBinaryTreePlan {
            gpus,
            tree_a_root: dbt.tree_a.root,
            tree_a_edges: dbt.tree_a.edges.clone(),
            tree_b_root: dbt.tree_b.root,
            tree_b_edges: dbt.tree_b.edges.clone(),
        }
    }
}

/// A complete NCCL plan for one allocation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NcclPlan {
    /// The GPUs participating, in allocation order.
    pub gpus: Vec<GpuId>,
    /// The protocol selected.
    pub algorithm: NcclAlgorithm,
    /// Per-lane NVLink bandwidth the plan assumed (GB/s).
    pub lane_gbps: f64,
    /// Effective PCIe bandwidth available for the fallback path (GB/s).
    pub pcie_gbps: f64,
}

impl NcclPlan {
    /// Number of directed channels the plan provides.
    pub fn num_channels(&self) -> usize {
        match &self.algorithm {
            NcclAlgorithm::NvLinkRings(search) => search.directed_channels(),
            NcclAlgorithm::PcieRing(_) => 1,
            NcclAlgorithm::DoubleBinaryTrees(_) => 2,
        }
    }

    /// Whether the plan had to fall back to PCIe.
    pub fn uses_pcie(&self) -> bool {
        matches!(self.algorithm, NcclAlgorithm::PcieRing(_))
    }
}

impl fmt::Display for NcclPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.algorithm {
            NcclAlgorithm::NvLinkRings(s) => write!(
                f,
                "NCCL plan: {} NVLink ring pair(s) over {} GPUs",
                s.rings.len(),
                self.gpus.len()
            ),
            NcclAlgorithm::PcieRing(_) => {
                write!(
                    f,
                    "NCCL plan: PCIe fallback ring over {} GPUs",
                    self.gpus.len()
                )
            }
            NcclAlgorithm::DoubleBinaryTrees(_) => {
                write!(
                    f,
                    "NCCL plan: double binary trees over {} GPUs",
                    self.gpus.len()
                )
            }
        }
    }
}

/// Errors from planning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// Fewer than two GPUs — nothing to communicate.
    TooFewGpus,
    /// The allocation references a GPU missing from the topology.
    UnknownGpu(GpuId),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::TooFewGpus => write!(f, "a collective needs at least two GPUs"),
            PlanError::UnknownGpu(g) => write!(f, "GPU {g} is not in the topology"),
        }
    }
}

impl std::error::Error for PlanError {}

/// Plans NCCL channels for allocations on a machine.
#[derive(Debug, Clone)]
pub struct NcclPlanner {
    topology: Topology,
}

impl NcclPlanner {
    /// Creates a planner over a machine (or cluster) topology.
    pub fn new(topology: Topology) -> Self {
        NcclPlanner { topology }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The per-lane NVLink bandwidth ring discovery converts merged edge
    /// capacities back into lane counts with (GB/s): the allocation's
    /// smallest NVLink capacity.
    fn lane_gbps(nvlink: &DiGraph) -> f64 {
        nvlink
            .min_capacity()
            .unwrap_or(LinkKind::NvLinkGen2.nominal_bandwidth_gbps())
    }

    fn pcie_gbps(&self, sub: &Topology, gpus: &[GpuId]) -> f64 {
        // the fallback ring is limited by the slowest PCIe hop among the GPUs
        let mut min = f64::INFINITY;
        for (i, &a) in gpus.iter().enumerate() {
            let b = gpus[(i + 1) % gpus.len()];
            let cap = sub
                .links_between(a, b)
                .filter(|l| l.kind == LinkKind::Pcie)
                .map(|l| l.capacity_gbps())
                .sum::<f64>();
            if cap > 0.0 {
                min = min.min(cap);
            }
        }
        if min.is_finite() {
            min
        } else {
            LinkKind::Pcie.nominal_bandwidth_gbps()
        }
    }

    /// Plans the channels NCCL would use for a collective over `allocation`
    /// moving `bytes` bytes.
    ///
    /// # Errors
    /// Fails if fewer than two GPUs are given or a GPU is unknown.
    pub fn plan(&self, allocation: &[GpuId], bytes: u64) -> Result<NcclPlan, PlanError> {
        if allocation.len() < 2 {
            return Err(PlanError::TooFewGpus);
        }
        for &g in allocation {
            if !self.topology.contains(g) {
                return Err(PlanError::UnknownGpu(g));
            }
        }
        let sub = self
            .topology
            .induced(allocation)
            .expect("allocation validated above");
        let nvlink = DiGraph::from_topology_filtered(&sub, |l| l.kind.is_nvlink());
        let lane = Self::lane_gbps(&nvlink);
        let pcie = self.pcie_gbps(&sub, allocation);

        if sub.switch_fabric_cap(allocation).is_some() && bytes < TREE_THRESHOLD_BYTES {
            let dbt = double_binary_tree(allocation);
            return Ok(NcclPlan {
                gpus: allocation.to_vec(),
                algorithm: NcclAlgorithm::DoubleBinaryTrees(Box::new(
                    DoubleBinaryTreePlan::from_trees(allocation.to_vec(), &dbt),
                )),
                lane_gbps: lane,
                pcie_gbps: pcie,
            });
        }

        let search = find_rings(&nvlink, lane);
        let algorithm = if search.requires_pcie_fallback() {
            NcclAlgorithm::PcieRing(Ring {
                order: allocation.to_vec(),
            })
        } else {
            NcclAlgorithm::NvLinkRings(search)
        };
        Ok(NcclPlan {
            gpus: allocation.to_vec(),
            algorithm,
            lane_gbps: lane,
            pcie_gbps: pcie,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blink_topology::presets::{dgx1p, dgx1v, dgx2};

    #[test]
    fn full_dgx1v_plans_nvlink_rings() {
        let planner = NcclPlanner::new(dgx1v());
        let alloc: Vec<GpuId> = (0..8).map(GpuId).collect();
        let plan = planner.plan(&alloc, 500 << 20).unwrap();
        assert!(matches!(plan.algorithm, NcclAlgorithm::NvLinkRings(_)));
        assert_eq!(plan.num_channels(), 6);
        assert!(!plan.uses_pcie());
        assert!(plan.to_string().contains("ring pair"));
    }

    #[test]
    fn disconnected_triple_falls_back_to_pcie() {
        let planner = NcclPlanner::new(dgx1p());
        let plan = planner
            .plan(&[GpuId(0), GpuId(1), GpuId(4)], 500 << 20)
            .unwrap();
        assert!(plan.uses_pcie());
        assert_eq!(plan.num_channels(), 1);
        assert!(plan.pcie_gbps > 0.0 && plan.pcie_gbps <= 6.0);
    }

    #[test]
    fn figure4_six_gpu_case_gets_one_ring_pair() {
        let planner = NcclPlanner::new(dgx1p());
        let alloc = [GpuId(0), GpuId(1), GpuId(3), GpuId(4), GpuId(5), GpuId(7)];
        let plan = planner.plan(&alloc, 500 << 20).unwrap();
        match &plan.algorithm {
            NcclAlgorithm::NvLinkRings(s) => assert_eq!(s.rings.len(), 1),
            other => panic!("expected rings, got {other:?}"),
        }
    }

    #[test]
    fn dgx2_small_messages_use_double_binary_trees() {
        let planner = NcclPlanner::new(dgx2());
        let alloc: Vec<GpuId> = (0..16).map(GpuId).collect();
        let small = planner.plan(&alloc, 4 * 1024).unwrap();
        assert!(matches!(
            small.algorithm,
            NcclAlgorithm::DoubleBinaryTrees(_)
        ));
        assert_eq!(small.num_channels(), 2);
        let large = planner.plan(&alloc, 256 << 20).unwrap();
        assert!(matches!(large.algorithm, NcclAlgorithm::NvLinkRings(_)));
    }

    #[test]
    fn dgx1_small_messages_do_not_use_trees() {
        // the tree/ring switch only applies to switch fabrics with per-GPU
        // injection caps (the DGX-2); a DGX-1 allocation keeps using rings
        let planner = NcclPlanner::new(dgx1v());
        let alloc: Vec<GpuId> = (0..4).map(GpuId).collect();
        let plan = planner.plan(&alloc, 4 * 1024).unwrap();
        assert!(!matches!(
            plan.algorithm,
            NcclAlgorithm::DoubleBinaryTrees(_)
        ));
    }

    #[test]
    fn planning_errors() {
        let planner = NcclPlanner::new(dgx1v());
        assert_eq!(
            planner.plan(&[GpuId(0)], 1024).unwrap_err(),
            PlanError::TooFewGpus
        );
        assert_eq!(
            planner.plan(&[GpuId(0), GpuId(99)], 1024).unwrap_err(),
            PlanError::UnknownGpu(GpuId(99))
        );
    }
}
