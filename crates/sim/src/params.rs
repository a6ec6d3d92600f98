//! Simulator calibration constants.
//!
//! Every constant is tied to a measurement reported in the paper (or in
//! NVIDIA's public hardware documentation that the paper cites); changing them
//! moves absolute numbers but not the qualitative comparisons the benchmarks
//! reproduce.

use serde::{Deserialize, Serialize};

/// Tunable constants of the hardware model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimParams {
    /// Fixed cost of issuing one CUDA-level operation (a `cudaMemcpyAsync`, an
    /// event record/wait, or a kernel launch), in microseconds.
    ///
    /// The paper notes that "for each chunk we need to issue at least three
    /// CUDA commands" and that small data sizes cannot amortise them
    /// (Section 2.2 / 4.2.1). A few microseconds per command is the widely
    /// observed figure; 4 µs reproduces the latency floors of Figure 20.
    pub op_launch_overhead_us: f64,
    /// Effective bandwidth of the on-GPU reduction kernel in GB/s.
    ///
    /// Reductions run from HBM at hundreds of GB/s, but issuing them per chunk
    /// in the forwarding stream costs time that the paper's micro-benchmarks
    /// surface as the gap between "forward" (~21 GB/s) and "reduce+forward"
    /// (~18 GB/s) on a chain (Figure 7 / Figure 24). 100 GB/s reproduces that
    /// ~15% penalty when the reduction shares a stream with the outgoing copy.
    pub reduce_bandwidth_gbps: f64,
    /// Cost of `cudaDeviceDisablePeerAccess`/`EnablePeerAccess` per GPU in
    /// microseconds.
    ///
    /// Used by hybrid PCIe+NVLink transfers (Section 3.4): the paper measures
    /// `T_dpa` at runtime and notes it grows with the number of GPUs, which is
    /// why the hybrid gain shrinks from ~5 GB/s at 3–4 GPUs to ~2 GB/s at 8
    /// GPUs (Figure 21). 270 µs per GPU reproduces that trend for 500 MB
    /// transfers.
    pub dpa_per_gpu_us: f64,
    /// Per-hop wire latency of an NVLink/NVSwitch/PCIe copy in microseconds
    /// (time-of-flight and DMA setup beyond the launch overhead).
    pub link_latency_us: f64,
    /// Per-message latency of a cross-server network transfer in microseconds
    /// (NIC + switch traversal), applied on top of the launch overhead.
    pub network_latency_us: f64,
}

impl Default for SimParams {
    fn default() -> Self {
        SimParams {
            op_launch_overhead_us: 4.0,
            reduce_bandwidth_gbps: 100.0,
            dpa_per_gpu_us: 270.0,
            link_latency_us: 1.0,
            network_latency_us: 15.0,
        }
    }
}

impl SimParams {
    /// Duration of moving `bytes` at `gbps`, excluding launch overhead.
    /// 1 GB/s = 1000 bytes per microsecond.
    pub fn transfer_us(bytes: u64, gbps: f64) -> f64 {
        if gbps <= 0.0 {
            return f64::INFINITY;
        }
        bytes as f64 / (gbps * 1000.0)
    }

    /// Duration of a local reduction over `bytes`.
    pub fn reduce_us(&self, bytes: u64) -> f64 {
        self.op_launch_overhead_us + Self::transfer_us(bytes, self.reduce_bandwidth_gbps)
    }

    /// Every parameter's bit pattern, in declaration order. Two calibrations
    /// with equal bits time every op identically.
    pub fn to_bits(&self) -> [u64; 5] {
        // Destructured so a new parameter cannot be silently left out.
        let SimParams {
            op_launch_overhead_us,
            reduce_bandwidth_gbps,
            dpa_per_gpu_us,
            link_latency_us,
            network_latency_us,
        } = *self;
        [
            op_launch_overhead_us,
            reduce_bandwidth_gbps,
            dpa_per_gpu_us,
            link_latency_us,
            network_latency_us,
        ]
        .map(f64::to_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_in_calibrated_ranges() {
        let p = SimParams::default();
        assert!(p.op_launch_overhead_us > 0.0 && p.op_launch_overhead_us < 20.0);
        assert!(p.reduce_bandwidth_gbps > 50.0);
        assert!(p.dpa_per_gpu_us > 0.0);
    }

    #[test]
    fn transfer_time_math() {
        // 1 MB at 23 GB/s = 1_048_576 / 23_000 ≈ 45.6 µs
        let t = SimParams::transfer_us(1 << 20, 23.0);
        assert!((t - 45.59).abs() < 0.1, "t = {t}");
        assert!(SimParams::transfer_us(1, 0.0).is_infinite());
    }

    #[test]
    fn reduce_time_includes_launch_overhead() {
        let p = SimParams::default();
        let t = p.reduce_us(1 << 20);
        assert!(t > p.op_launch_overhead_us);
        assert!(t < 20.0 + p.op_launch_overhead_us);
    }
}
