//! Collective operation kinds and execution reports.

use blink_topology::GpuId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The collective primitives Blink implements.
///
/// The paper's CodeGen discussion (Section 4.1) focuses on Broadcast and
/// AllReduce and notes that the rest "follow similar patterns": Gather is the
/// inverse of Broadcast, AllGather is AllReduce without the reduction, and
/// ReduceScatter is the first half of AllReduce.
///
/// Kinds order and hash, so a kind keys the plan store's lowering tier
/// directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum CollectiveKind {
    /// One-to-all: `root` sends its buffer to every other GPU.
    Broadcast {
        /// Source of the data.
        root: GpuId,
    },
    /// All-to-one: every GPU sends its buffer to `root`, which keeps all of
    /// them (no reduction).
    Gather {
        /// Destination of the data.
        root: GpuId,
    },
    /// All-to-one with reduction: `root` ends with the element-wise sum.
    Reduce {
        /// Destination of the reduced data.
        root: GpuId,
    },
    /// All-to-all with reduction: every GPU ends with the element-wise sum.
    AllReduce,
    /// All-to-all concatenation: every GPU ends with every GPU's buffer.
    AllGather,
    /// Reduction followed by scatter: GPU `i` ends with the `i`-th shard of
    /// the element-wise sum.
    ReduceScatter,
}

impl CollectiveKind {
    /// The root GPU, for rooted collectives.
    pub fn root(&self) -> Option<GpuId> {
        match *self {
            CollectiveKind::Broadcast { root }
            | CollectiveKind::Gather { root }
            | CollectiveKind::Reduce { root } => Some(root),
            _ => None,
        }
    }

    /// The same kind with its root, for rooted collectives, replaced by
    /// `root`.
    pub(crate) fn with_root(self, root: GpuId) -> Self {
        match self {
            CollectiveKind::Broadcast { .. } => CollectiveKind::Broadcast { root },
            CollectiveKind::Gather { .. } => CollectiveKind::Gather { root },
            CollectiveKind::Reduce { .. } => CollectiveKind::Reduce { root },
            rootless => rootless,
        }
    }

    /// Whether the collective applies a reduction function.
    pub fn reduces(&self) -> bool {
        matches!(
            self,
            CollectiveKind::Reduce { .. }
                | CollectiveKind::AllReduce
                | CollectiveKind::ReduceScatter
        )
    }

    /// The value-level contract this collective promises, in the form the
    /// oracle ([`blink_sim::semantics::check_collective`]) checks.
    pub fn spec(&self) -> blink_sim::CollectiveSpec {
        use blink_sim::CollectiveSpec;
        match *self {
            CollectiveKind::Broadcast { root } => CollectiveSpec::Broadcast { root },
            CollectiveKind::Gather { root } => CollectiveSpec::Gather { root },
            CollectiveKind::Reduce { root } => CollectiveSpec::Reduce { root },
            CollectiveKind::AllReduce => CollectiveSpec::AllReduce,
            CollectiveKind::AllGather => CollectiveSpec::AllGather,
            CollectiveKind::ReduceScatter => CollectiveSpec::ReduceScatter,
        }
    }
}

impl fmt::Display for CollectiveKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectiveKind::Broadcast { root } => write!(f, "broadcast(root={root})"),
            CollectiveKind::Gather { root } => write!(f, "gather(root={root})"),
            CollectiveKind::Reduce { root } => write!(f, "reduce(root={root})"),
            CollectiveKind::AllReduce => write!(f, "allreduce"),
            CollectiveKind::AllGather => write!(f, "allgather"),
            CollectiveKind::ReduceScatter => write!(f, "reducescatter"),
        }
    }
}

/// Timing report for one collective call.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CollectiveReport {
    /// What was executed.
    pub kind: CollectiveKind,
    /// Logical buffer size in bytes.
    pub bytes: u64,
    /// Completion time in microseconds.
    pub elapsed_us: f64,
    /// Algorithmic bandwidth: `bytes / elapsed`, in GB/s.
    pub algorithmic_bandwidth_gbps: f64,
    /// Number of spanning trees (or channels) the plan used.
    pub num_trees: usize,
    /// Chunk size the transfer was pipelined with, in bytes.
    pub chunk_bytes: u64,
    /// Human-readable description of the strategy (tree packing, one-hop,
    /// hybrid, three-phase, …).
    pub strategy: String,
}

impl CollectiveReport {
    /// Latency in microseconds (alias of `elapsed_us`, used by the DGX-2
    /// latency figures).
    pub fn latency_us(&self) -> f64 {
        self.elapsed_us
    }
}

impl fmt::Display for CollectiveReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} bytes in {:.1} us ({:.2} GB/s) via {} [{} trees, {} B chunks]",
            self.kind,
            self.bytes,
            self.elapsed_us,
            self.algorithmic_bandwidth_gbps,
            self.strategy,
            self.num_trees,
            self.chunk_bytes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roots_and_reduction_flags() {
        assert_eq!(
            CollectiveKind::Broadcast { root: GpuId(2) }.root(),
            Some(GpuId(2))
        );
        assert_eq!(CollectiveKind::AllReduce.root(), None);
        assert!(CollectiveKind::AllReduce.reduces());
        assert!(CollectiveKind::Reduce { root: GpuId(0) }.reduces());
        assert!(!CollectiveKind::Broadcast { root: GpuId(0) }.reduces());
        assert!(!CollectiveKind::AllGather.reduces());
        assert!(CollectiveKind::ReduceScatter.reduces());
        assert_eq!(
            CollectiveKind::Gather { root: GpuId(1) }.root(),
            Some(GpuId(1))
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(CollectiveKind::AllReduce.to_string(), "allreduce");
        assert!(CollectiveKind::Broadcast { root: GpuId(3) }
            .to_string()
            .contains("GPU3"));
        let report = CollectiveReport {
            kind: CollectiveKind::AllReduce,
            bytes: 1024,
            elapsed_us: 10.0,
            algorithmic_bandwidth_gbps: 0.1,
            num_trees: 2,
            chunk_bytes: 512,
            strategy: "tree packing".to_string(),
        };
        let s = report.to_string();
        assert!(s.contains("tree packing"));
        assert!(s.contains("2 trees"));
        assert_eq!(report.latency_us(), 10.0);
    }
}
