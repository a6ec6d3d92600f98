//! Hybrid PCIe + NVLink transfers (Section 3.4, Figure 21).
//!
//! The NVIDIA driver cannot drive PCIe and NVLink between the same GPU pair at
//! once: peer access must be disabled (cost `T_dpa`) before data moves over
//! PCIe. Blink therefore builds two separate tree sets — one over NVLink, one
//! over PCIe — and splits the buffer so that both finish at the same time
//! (Equation 8):
//!
//! ```text
//! T_pcie + T_dpa = T_nvlink
//! D_pcie = D · BW_p / (BW_p + BW_n)  −  T_dpa · BW_p · BW_n / (BW_p + BW_n)
//! ```

use crate::codegen::{CodeGen, CodeGenOptions};
use crate::collective::CollectiveKind;
use crate::store::PlanCache;
use crate::treegen::{LinkSelection, PlanningGraphs, TreePlan};
use crate::{BlinkError, Result};
use blink_graph::WeightedTree;
use blink_sim::{LinkClass, Program, ProgramBuilder, SimParams};
use blink_topology::{GpuId, Topology};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The byte split chosen by Equation 8.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HybridSplit {
    /// Bytes assigned to the NVLink tree set.
    pub nvlink_bytes: u64,
    /// Bytes assigned to the PCIe tree set.
    pub pcie_bytes: u64,
    /// The peer-access toggle latency assumed, in microseconds.
    pub t_dpa_us: f64,
}

/// Computes the Equation-8 split of `total` bytes between an NVLink tree set
/// of aggregate rate `bw_nvlink` GB/s and a PCIe tree set of rate `bw_pcie`
/// GB/s, given a peer-access toggle latency of `t_dpa_us`.
///
/// When the toggle cost exceeds what the PCIe path could transfer in the time
/// the NVLink path needs, everything goes over NVLink.
pub fn split_data(total: u64, bw_nvlink: f64, bw_pcie: f64, t_dpa_us: f64) -> HybridSplit {
    if bw_pcie <= 0.0 || bw_nvlink <= 0.0 || total == 0 {
        return HybridSplit {
            nvlink_bytes: total,
            pcie_bytes: 0,
            t_dpa_us,
        };
    }
    // bandwidths in bytes per microsecond
    let bn = bw_nvlink * 1000.0;
    let bp = bw_pcie * 1000.0;
    let ideal = total as f64 * bp / (bp + bn) - t_dpa_us * bp * bn / (bp + bn);
    let pcie_bytes = ideal.max(0.0).min(total as f64) as u64;
    HybridSplit {
        nvlink_bytes: total - pcie_bytes,
        pcie_bytes,
        t_dpa_us,
    }
}

/// The hybrid planner: builds an NVLink plan and a PCIe plan for the same
/// allocation and lowers collectives that use both simultaneously.
#[derive(Debug, Clone)]
pub struct HybridPlanner {
    nvlink_plan: Arc<TreePlan>,
    pcie_plan: TreePlan,
    num_gpus: u32,
}

impl HybridPlanner {
    /// Plans hybrid transfers rooted at `root` over the induced topology of an
    /// allocation, whose rank fingerprint is `fp` and planning graphs
    /// `graphs`, through a communicator's plan cache: the NVLink and PCIe
    /// plans are memoised per root, so re-planning the same collective skips
    /// the MWU packing entirely.
    ///
    /// # Errors
    /// Fails if either link class cannot span the allocation from `root`.
    pub(crate) fn plan_cached(
        cache: &mut PlanCache,
        induced: &Topology,
        fp: u64,
        root: GpuId,
        graphs: &PlanningGraphs,
    ) -> Result<Self> {
        let nvlink_plan = cache.plan_for(induced, LinkSelection::NvLinkOnly, fp, root, graphs)?;
        let pcie = cache.plan_for(induced, LinkSelection::PcieOnly, fp, root, graphs)?;
        // PCIe is a shared switch hierarchy, not a set of independent
        // point-to-point links: packing several "PCIe trees" would double
        // count the fabric. Blink builds a single tree set over PCIe
        // (Section 3.4), so keep only the heaviest tree (first maximum wins
        // ties) — its weight (the slowest hop, ~5 GB/s) is the realistic
        // fabric rate.
        let mut heaviest: Option<&WeightedTree> = None;
        for t in &pcie.trees {
            if heaviest.is_none_or(|h| t.weight > h.weight) {
                heaviest = Some(t);
            }
        }
        let pcie_plan = TreePlan {
            gpus: pcie.gpus.clone(),
            trees: heaviest.cloned().into_iter().collect(),
            ..*pcie
        };
        Ok(HybridPlanner {
            nvlink_plan,
            pcie_plan,
            num_gpus: induced.num_gpus() as u32,
        })
    }

    /// The NVLink tree plan.
    pub fn nvlink_plan(&self) -> &TreePlan {
        &self.nvlink_plan
    }

    /// The PCIe tree plan.
    pub fn pcie_plan(&self) -> &TreePlan {
        &self.pcie_plan
    }

    /// The Equation-8 split for a `bytes`-byte buffer.
    ///
    /// The plan rates are de-rated before applying Equation 8: chunked
    /// pipelines never reach the nominal packing rate (launch overheads and
    /// pipeline fill), and over-estimating the PCIe side would make the PCIe
    /// trees the critical path and erase the hybrid gain. The paper handles
    /// this by measuring `T_dpa` and the achieved bandwidths during the first
    /// iterations; a fixed conservative derate plays that role here.
    pub fn split(&self, bytes: u64, params: &SimParams) -> HybridSplit {
        const NVLINK_DERATE: f64 = 0.9;
        const PCIE_DERATE: f64 = 0.6;
        let t_dpa = params.dpa_per_gpu_us * f64::from(self.num_gpus);
        let bw_n = self.nvlink_plan.rate_gbps() * NVLINK_DERATE;
        let bw_p = self.pcie_plan.rate_gbps() * PCIE_DERATE;
        if bw_n <= 0.0 || bw_p <= 0.0 || bytes == 0 {
            return split_data(bytes, bw_n, bw_p, t_dpa);
        }
        // Equation 8 extended with the PCIe pipeline-fill term: the PCIe tree
        // cannot start delivering until the first chunk has crossed its depth.
        let fill_us = self.pcie_plan.max_depth() as f64 * Self::PCIE_CHUNK as f64 / (bw_p * 1000.0);
        let bn = bw_n * 1000.0; // bytes per microsecond
        let bp = bw_p * 1000.0;
        let d_pcie = ((bytes as f64 / bn - t_dpa - fill_us) / (1.0 / bp + 1.0 / bn))
            .clamp(0.0, bytes as f64);
        let mut pcie_bytes = d_pcie as u64;
        if pcie_bytes < Self::PCIE_CHUNK {
            // not worth paying the peer-access toggle for less than one chunk
            pcie_bytes = 0;
        }
        HybridSplit {
            nvlink_bytes: bytes - pcie_bytes,
            pcie_bytes,
            t_dpa_us: t_dpa,
        }
    }

    /// Chunk size used on the PCIe trees (small, to keep the fill latency of
    /// the slow path negligible).
    const PCIE_CHUNK: u64 = 1 << 20;

    /// Builds the combined program: NVLink trees carry the leading
    /// `[0, nvlink_bytes)` of the buffer immediately; PCIe trees wait for the
    /// peer-access toggle and carry the trailing `[nvlink_bytes, bytes)`.
    /// Both halves lower through [`CodeGen::emit_range_into`], so the
    /// gathering collectives emit segmented payloads (one op per edge per
    /// chunk) on both link classes.
    pub fn build(
        &self,
        kind: CollectiveKind,
        bytes: u64,
        options: &CodeGenOptions,
        params: &SimParams,
    ) -> Result<(Program, HybridSplit)> {
        let split = self.split(bytes, params);
        let mut builder = ProgramBuilder::new();
        let nv_cg = CodeGen::new(CodeGenOptions {
            link_class: LinkClass::NvLink,
            ..*options
        });
        nv_cg.emit_range_into(
            &mut builder,
            &self.nvlink_plan.trees,
            kind,
            bytes,
            0,
            split.nvlink_bytes,
            &[],
        )?;
        if split.pcie_bytes > 0 {
            let stream = builder.new_stream();
            let toggle = builder.toggle_peer_access(self.num_gpus, stream, &[], "dpa");
            let pcie_cg = CodeGen::new(CodeGenOptions {
                link_class: LinkClass::Pcie,
                chunk_bytes: options.chunk_bytes.min(Self::PCIE_CHUNK),
            });
            pcie_cg.emit_range_into(
                &mut builder,
                &self.pcie_plan.trees,
                kind,
                bytes,
                split.nvlink_bytes,
                split.pcie_bytes,
                &[toggle],
            )?;
        }
        let program = builder
            .build()
            .map_err(|e| BlinkError::CodeGen(e.to_string()))?;
        Ok((program, split))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{rank_fingerprint, SharedPlanCache};
    use blink_sim::Simulator;
    use blink_topology::presets::dgx1v;

    fn plan(induced: &Topology, root: GpuId) -> HybridPlanner {
        let mut cache = PlanCache::new(SharedPlanCache::new());
        let fp = rank_fingerprint(induced);
        HybridPlanner::plan_cached(&mut cache, induced, fp, root, &PlanningGraphs::default())
            .unwrap()
    }

    fn mb(n: u64) -> u64 {
        n * 1024 * 1024
    }

    #[test]
    fn split_balances_completion_times() {
        // 500 MB, NVLink at 100 GB/s, PCIe at 5 GB/s, 1 ms toggle
        let split = split_data(mb(500), 100.0, 5.0, 1000.0);
        assert_eq!(split.nvlink_bytes + split.pcie_bytes, mb(500));
        assert!(split.pcie_bytes > 0);
        let t_nv = split.nvlink_bytes as f64 / 100_000.0;
        let t_pcie = split.pcie_bytes as f64 / 5_000.0 + 1000.0;
        assert!(
            (t_nv - t_pcie).abs() / t_nv < 0.02,
            "t_nv = {t_nv}, t_pcie = {t_pcie}"
        );
    }

    #[test]
    fn split_degenerates_gracefully() {
        // enormous toggle cost: everything stays on NVLink
        let split = split_data(mb(10), 100.0, 5.0, 1e9);
        assert_eq!(split.pcie_bytes, 0);
        assert_eq!(split.nvlink_bytes, mb(10));
        // no PCIe bandwidth at all
        let split = split_data(mb(10), 100.0, 0.0, 0.0);
        assert_eq!(split.pcie_bytes, 0);
        // zero bytes
        let split = split_data(0, 100.0, 5.0, 0.0);
        assert_eq!(split.nvlink_bytes, 0);
        assert_eq!(split.pcie_bytes, 0);
    }

    #[test]
    fn hybrid_broadcast_beats_nvlink_only() {
        // Figure 21: hybrid transfers add a few GB/s over NVLink-only.
        let machine = dgx1v();
        let alloc: Vec<GpuId> = (0..4).map(GpuId).collect();
        let induced = machine.induced(&alloc).unwrap();
        let planner = plan(&induced, GpuId(0));
        let bytes = mb(500);
        let params = SimParams::default();
        let sim = Simulator::with_defaults(machine);

        let (hybrid_prog, split) = planner
            .build(
                CollectiveKind::Broadcast { root: GpuId(0) },
                bytes,
                &CodeGenOptions::default(),
                &params,
            )
            .unwrap();
        assert!(
            split.pcie_bytes > 0,
            "PCIe share should be non-zero: {split:?}"
        );
        let hybrid_bw = sim
            .run(&hybrid_prog)
            .unwrap()
            .algorithmic_bandwidth_gbps(bytes);

        let nvlink_only = CodeGen::default()
            .build(
                &planner.nvlink_plan().trees,
                CollectiveKind::Broadcast { root: GpuId(0) },
                bytes,
            )
            .unwrap();
        let nvlink_bw = sim
            .run(&nvlink_only)
            .unwrap()
            .algorithmic_bandwidth_gbps(bytes);

        assert!(
            hybrid_bw > nvlink_bw,
            "hybrid {hybrid_bw} should exceed NVLink-only {nvlink_bw}"
        );
        assert!(
            hybrid_bw - nvlink_bw < 8.0,
            "hybrid gain should be a few GB/s, got {} -> {}",
            nvlink_bw,
            hybrid_bw
        );
    }

    #[test]
    fn hybrid_planner_exposes_both_plans() {
        let machine = dgx1v();
        let alloc: Vec<GpuId> = (0..3).map(GpuId).collect();
        let induced = machine.induced(&alloc).unwrap();
        let planner = plan(&induced, GpuId(0));
        assert!(planner.nvlink_plan().rate_gbps() > planner.pcie_plan().rate_gbps());
        assert!(planner.pcie_plan().rate_gbps() > 0.0);
    }
}
