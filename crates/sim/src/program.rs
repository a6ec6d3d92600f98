//! Programs: DAGs of chunk-level operations organised into streams.
//!
//! Blink's CodeGen (Section 4.1) turns a set of spanning trees into CUDA
//! code: per-link `cudaMemcpy` calls for each chunk, reduction kernels, and
//! CUDA events for cross-stream synchronisation. A [`Program`] is the
//! simulator-level equivalent: each [`Op`] corresponds to one such CUDA call
//! and carries its dependencies explicitly. Streams reproduce CUDA-stream FIFO
//! semantics — two ops in the same stream never overlap and execute in
//! insertion order — which is also how the stream-reuse fair-sharing trick of
//! Section 4.2.2 is expressed.

use blink_topology::GpuId;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of an operation within a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct OpId(pub usize);

/// Identifier of a stream. Streams are global to the program; by convention
/// CodeGen allocates one per (tree, link) unless it reuses streams for fair
/// sharing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct StreamId(pub usize);

/// Which class of physical link a copy uses. The simulator looks the actual
/// capacity up in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum LinkClass {
    /// NVLink or NVSwitch peer-to-peer path.
    NvLink,
    /// PCIe path through the host.
    Pcie,
    /// Cross-server network path.
    Network,
}

impl fmt::Display for LinkClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkClass::NvLink => f.write_str("nvlink"),
            LinkClass::Pcie => f.write_str("pcie"),
            LinkClass::Network => f.write_str("net"),
        }
    }
}

/// One logical byte range `[offset, offset + bytes)` of a data-moving op's
/// payload, addressed into the collective's logical address space (see
/// [`crate::semantics`] for the per-collective definition of that space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Segment {
    /// Start of the range.
    pub offset: u64,
    /// Length of the range in bytes.
    pub bytes: u64,
}

impl Segment {
    /// A segment covering `[offset, offset + bytes)`.
    pub fn new(offset: u64, bytes: u64) -> Self {
        Segment { offset, bytes }
    }

    /// One past the last byte of the range.
    pub fn end(&self) -> u64 {
        self.offset + self.bytes
    }
}

/// One simulated operation.
///
/// Data-moving ops ([`OpKind::Copy`], [`OpKind::Reduce`]) carry a **segmented
/// payload**: a list of logical byte ranges ([`Segment`]s) into the
/// collective's address space. One op models one CUDA call, so the engine
/// charges a single launch overhead and times the *summed* segment bytes,
/// while the value-level oracle folds each segment into its interval maps
/// individually — this is what lets the gathering collectives carry a whole
/// subtree's (non-contiguous) slot payload over an edge as one op instead of
/// one op per slot. Most ops carry exactly one segment; the builders
/// ([`ProgramBuilder::copy_range`], [`ProgramBuilder::reduce_range`] and the
/// offset-0 legacy helpers) cover that case, with
/// [`ProgramBuilder::copy_segs`]/[`ProgramBuilder::reduce_segs`] for
/// multi-segment payloads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OpKind {
    /// A peer-to-peer copy of the `segs` payload from `src` to `dst` over
    /// `class`.
    Copy {
        /// Source GPU.
        src: GpuId,
        /// Destination GPU.
        dst: GpuId,
        /// Link class used.
        class: LinkClass,
        /// The logical byte ranges the copy moves.
        segs: Vec<Segment>,
    },
    /// A local reduction kernel on `gpu` folding the received data of the
    /// `segs` ranges into resident data.
    Reduce {
        /// GPU running the reduction.
        gpu: GpuId,
        /// The logical byte ranges the reduction folds.
        segs: Vec<Segment>,
    },
    /// A compute kernel (used by the training simulator for forward/backward
    /// passes) of a fixed duration.
    Compute {
        /// GPU running the kernel.
        gpu: GpuId,
        /// Kernel duration in microseconds.
        duration_us: f64,
    },
    /// Toggling peer access on `gpus` GPUs (the `cudaDeviceDisablePeerAccess`
    /// latency `T_dpa` of Section 3.4). Blocks the owning stream for
    /// `dpa_per_gpu_us * gpus`.
    TogglePeerAccess {
        /// Number of GPUs whose peer mappings are being changed.
        gpus: u32,
    },
}

impl OpKind {
    /// Total payload bytes of a data-moving op (the sum over its segments);
    /// zero for compute kernels and peer-access toggles. This is the value
    /// the engine converts to transfer/reduction time.
    pub fn payload_bytes(&self) -> u64 {
        match self {
            OpKind::Copy { segs, .. } | OpKind::Reduce { segs, .. } => {
                segs.iter().map(|s| s.bytes).sum()
            }
            OpKind::Compute { .. } | OpKind::TogglePeerAccess { .. } => 0,
        }
    }

    /// The payload segments of a data-moving op (empty for other kinds).
    pub fn segments(&self) -> &[Segment] {
        match self {
            OpKind::Copy { segs, .. } | OpKind::Reduce { segs, .. } => segs,
            OpKind::Compute { .. } | OpKind::TogglePeerAccess { .. } => &[],
        }
    }
}

/// An operation plus its scheduling metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Op {
    /// The operation's id (its index in the program).
    pub id: OpId,
    /// What the operation does.
    pub kind: OpKind,
    /// Stream the op belongs to (FIFO with other ops on the same stream).
    pub stream: StreamId,
    /// Ops that must complete before this one may start (cross-stream
    /// dependencies, i.e. CUDA events).
    pub deps: Vec<OpId>,
    /// Human-readable label of the phase that emitted the op (`"blink
    /// bcast"`, `"phase2 in"`, `"nccl-ar rs"`…), for traces and tests. The
    /// library's emitters pass `&'static str` phase labels, so labelling an
    /// op allocates nothing; the op's stream and segments already identify
    /// its tree and chunk. Callers may pass an owned `String` instead.
    /// Nothing in the simulator or the oracle reads it.
    pub tag: Cow<'static, str>,
}

/// Errors detected by [`Program::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// An op depends on an op id that does not exist.
    UnknownDependency {
        /// The op with the bad dependency.
        op: OpId,
        /// The missing dependency.
        dep: OpId,
    },
    /// An op depends on a *later* op, which would deadlock CUDA streams.
    ForwardDependency {
        /// The offending op.
        op: OpId,
        /// The dependency that comes later in the program.
        dep: OpId,
    },
    /// A data-moving op carries no payload segments (an emitter bug; the
    /// emitter should skip the op instead, like CodeGen's scatter does).
    EmptyPayload {
        /// The op with the empty segment list.
        op: OpId,
    },
    /// The dependency graph contains a cycle.
    Cycle,
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::UnknownDependency { op, dep } => {
                write!(f, "op {} depends on unknown op {}", op.0, dep.0)
            }
            ProgramError::ForwardDependency { op, dep } => {
                write!(f, "op {} depends on later op {}", op.0, dep.0)
            }
            ProgramError::EmptyPayload { op } => {
                write!(f, "data-moving op {} carries no payload segments", op.0)
            }
            ProgramError::Cycle => write!(f, "dependency cycle"),
        }
    }
}

impl std::error::Error for ProgramError {}

/// A complete schedule: ops in issue order.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Program {
    ops: Vec<Op>,
}

impl Program {
    /// A program over `ops` exactly as given, unvalidated, for tests that
    /// feed the engine malformed programs.
    #[cfg(test)]
    pub(crate) fn from_ops_unchecked(ops: Vec<Op>) -> Self {
        Program { ops }
    }

    /// The ops, in issue order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Total bytes moved by copy ops (all link classes, summed over payload
    /// segments).
    pub fn total_copy_bytes(&self) -> u64 {
        self.ops
            .iter()
            .map(|o| match o.kind {
                OpKind::Copy { .. } => o.kind.payload_bytes(),
                _ => 0,
            })
            .sum()
    }

    /// Number of distinct streams used.
    pub fn num_streams(&self) -> usize {
        let mut set = std::collections::BTreeSet::new();
        for o in &self.ops {
            set.insert(o.stream);
        }
        set.len()
    }

    /// Checks structural validity: dependencies exist and point backwards
    /// (which, together with stream ordering, guarantees a DAG), and every
    /// data-moving op carries at least one payload segment — an empty
    /// segment list is always an emitter bug (a copy that moves nothing
    /// would still be charged a launch overhead and skew timings).
    pub fn validate(&self) -> Result<(), ProgramError> {
        for op in &self.ops {
            for &dep in &op.deps {
                if dep.0 >= self.ops.len() {
                    return Err(ProgramError::UnknownDependency { op: op.id, dep });
                }
                if dep.0 >= op.id.0 {
                    return Err(ProgramError::ForwardDependency { op: op.id, dep });
                }
            }
            if matches!(op.kind, OpKind::Copy { .. } | OpKind::Reduce { .. })
                && op.kind.segments().is_empty()
            {
                return Err(ProgramError::EmptyPayload { op: op.id });
            }
        }
        Ok(())
    }

    /// Per-(src, dst, class) bytes moved; useful for link-utilisation checks.
    pub fn bytes_per_link(&self) -> BTreeMap<(GpuId, GpuId, LinkClass), u64> {
        let mut out = BTreeMap::new();
        for o in &self.ops {
            if let OpKind::Copy {
                src, dst, class, ..
            } = o.kind
            {
                *out.entry((src, dst, class)).or_insert(0) += o.kind.payload_bytes();
            }
        }
        out
    }

    /// Rewrites the program with every multi-segment data-moving op expanded
    /// into one single-segment op per segment — the pre-aggregation emission
    /// shape, where a gathering collective issued one copy per slot sub-range
    /// per edge. Each piece inherits the original op's stream, tag and
    /// dependencies, and every dependant of the original depends on all of
    /// its pieces, so the expanded program moves exactly the same bytes under
    /// exactly the same ordering constraints; only the per-op launch
    /// accounting differs. The perf harness uses this to measure what
    /// segmented payloads buy, and tests use it to cross-check the oracle on
    /// both shapes.
    pub fn split_segments(&self) -> Program {
        let mut b = ProgramBuilder::new();
        // old op id -> the new ids of its pieces
        let mut pieces: Vec<Vec<OpId>> = Vec::with_capacity(self.ops.len());
        for op in &self.ops {
            let deps: Vec<OpId> = op
                .deps
                .iter()
                .flat_map(|d| pieces[d.0].iter().copied())
                .collect();
            let segs = op.kind.segments();
            let ids = if segs.len() > 1 {
                segs.iter()
                    .map(|&seg| {
                        let kind = match &op.kind {
                            OpKind::Copy {
                                src, dst, class, ..
                            } => OpKind::Copy {
                                src: *src,
                                dst: *dst,
                                class: *class,
                                segs: vec![seg],
                            },
                            OpKind::Reduce { gpu, .. } => OpKind::Reduce {
                                gpu: *gpu,
                                segs: vec![seg],
                            },
                            _ => unreachable!("only data-moving ops have segments"),
                        };
                        b.push(kind, op.stream, deps.clone(), op.tag.clone())
                    })
                    .collect()
            } else {
                vec![b.push(op.kind.clone(), op.stream, deps, op.tag.clone())]
            };
            pieces.push(ids);
        }
        b.build().expect("splitting preserves structural validity")
    }
}

/// Incremental builder for [`Program`]s: hands out stream ids and op ids and
/// keeps dependencies well-formed.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    ops: Vec<Op>,
    next_stream: usize,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a fresh stream.
    pub fn new_stream(&mut self) -> StreamId {
        let s = StreamId(self.next_stream);
        self.next_stream += 1;
        s
    }

    /// Number of ops added so far.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether no ops have been added yet.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Adds an op and returns its id.
    pub fn push(
        &mut self,
        kind: OpKind,
        stream: StreamId,
        deps: Vec<OpId>,
        tag: impl Into<Cow<'static, str>>,
    ) -> OpId {
        let id = OpId(self.ops.len());
        self.ops.push(Op {
            id,
            kind,
            stream,
            deps,
            tag: tag.into(),
        });
        id
    }

    /// Adds a copy op at logical offset 0 (a whole-buffer transfer).
    #[allow(clippy::too_many_arguments)]
    pub fn copy(
        &mut self,
        src: GpuId,
        dst: GpuId,
        bytes: u64,
        class: LinkClass,
        stream: StreamId,
        deps: Vec<OpId>,
        tag: impl Into<Cow<'static, str>>,
    ) -> OpId {
        self.copy_range(src, dst, 0, bytes, class, stream, deps, tag)
    }

    /// Adds a copy op carrying the logical byte range
    /// `[offset, offset + bytes)` (the one-segment case of
    /// [`ProgramBuilder::copy_segs`]).
    #[allow(clippy::too_many_arguments)]
    pub fn copy_range(
        &mut self,
        src: GpuId,
        dst: GpuId,
        offset: u64,
        bytes: u64,
        class: LinkClass,
        stream: StreamId,
        deps: Vec<OpId>,
        tag: impl Into<Cow<'static, str>>,
    ) -> OpId {
        self.copy_segs(
            src,
            dst,
            vec![Segment::new(offset, bytes)],
            class,
            stream,
            deps,
            tag,
        )
    }

    /// Adds a copy op carrying an arbitrary list of logical byte ranges as
    /// one operation (one launch overhead, summed transfer time).
    #[allow(clippy::too_many_arguments)]
    pub fn copy_segs(
        &mut self,
        src: GpuId,
        dst: GpuId,
        segs: Vec<Segment>,
        class: LinkClass,
        stream: StreamId,
        deps: Vec<OpId>,
        tag: impl Into<Cow<'static, str>>,
    ) -> OpId {
        self.push(
            OpKind::Copy {
                src,
                dst,
                class,
                segs,
            },
            stream,
            deps,
            tag,
        )
    }

    /// Adds a reduction op at logical offset 0 (a whole-buffer fold).
    pub fn reduce(
        &mut self,
        gpu: GpuId,
        bytes: u64,
        stream: StreamId,
        deps: Vec<OpId>,
        tag: impl Into<Cow<'static, str>>,
    ) -> OpId {
        self.reduce_range(gpu, 0, bytes, stream, deps, tag)
    }

    /// Adds a reduction op folding the logical byte range
    /// `[offset, offset + bytes)` (the one-segment case of
    /// [`ProgramBuilder::reduce_segs`]).
    pub fn reduce_range(
        &mut self,
        gpu: GpuId,
        offset: u64,
        bytes: u64,
        stream: StreamId,
        deps: Vec<OpId>,
        tag: impl Into<Cow<'static, str>>,
    ) -> OpId {
        self.reduce_segs(gpu, vec![Segment::new(offset, bytes)], stream, deps, tag)
    }

    /// Adds a reduction op folding an arbitrary list of logical byte ranges
    /// as one kernel.
    pub fn reduce_segs(
        &mut self,
        gpu: GpuId,
        segs: Vec<Segment>,
        stream: StreamId,
        deps: Vec<OpId>,
        tag: impl Into<Cow<'static, str>>,
    ) -> OpId {
        self.push(OpKind::Reduce { gpu, segs }, stream, deps, tag)
    }

    /// Adds a compute op.
    pub fn compute(
        &mut self,
        gpu: GpuId,
        duration_us: f64,
        stream: StreamId,
        deps: Vec<OpId>,
        tag: impl Into<Cow<'static, str>>,
    ) -> OpId {
        self.push(OpKind::Compute { gpu, duration_us }, stream, deps, tag)
    }

    /// Adds a peer-access toggle op.
    pub fn toggle_peer_access(
        &mut self,
        gpus: u32,
        stream: StreamId,
        deps: Vec<OpId>,
        tag: impl Into<Cow<'static, str>>,
    ) -> OpId {
        self.push(OpKind::TogglePeerAccess { gpus }, stream, deps, tag)
    }

    /// Finalises the program.
    ///
    /// # Errors
    /// Returns the first structural error found (see [`Program::validate`]).
    pub fn build(self) -> Result<Program, ProgramError> {
        let p = Program { ops: self.ops };
        p.validate()?;
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assigns_sequential_ids_and_streams() {
        let mut b = ProgramBuilder::new();
        let s0 = b.new_stream();
        let s1 = b.new_stream();
        assert_ne!(s0, s1);
        let a = b.copy(
            GpuId(0),
            GpuId(1),
            1024,
            LinkClass::NvLink,
            s0,
            vec![],
            "c0",
        );
        let r = b.reduce(GpuId(1), 1024, s1, vec![a], "r0");
        assert_eq!(a, OpId(0));
        assert_eq!(r, OpId(1));
        let p = b.build().unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.num_streams(), 2);
        assert_eq!(p.total_copy_bytes(), 1024);
        assert!(!p.is_empty());
    }

    #[test]
    fn forward_dependencies_are_rejected() {
        let mut b = ProgramBuilder::new();
        let s = b.new_stream();
        b.copy(
            GpuId(0),
            GpuId(1),
            8,
            LinkClass::Pcie,
            s,
            vec![OpId(5)],
            "bad",
        );
        let err = b.build().unwrap_err();
        assert!(matches!(err, ProgramError::UnknownDependency { .. }));

        let mut b = ProgramBuilder::new();
        let s = b.new_stream();
        b.push(
            OpKind::Compute {
                gpu: GpuId(0),
                duration_us: 1.0,
            },
            s,
            vec![OpId(0)],
            "self",
        );
        let err = b.build().unwrap_err();
        assert!(matches!(err, ProgramError::ForwardDependency { .. }));
    }

    #[test]
    fn bytes_per_link_aggregates_copies() {
        let mut b = ProgramBuilder::new();
        let s = b.new_stream();
        b.copy(GpuId(0), GpuId(1), 100, LinkClass::NvLink, s, vec![], "");
        b.copy(GpuId(0), GpuId(1), 50, LinkClass::NvLink, s, vec![], "");
        b.copy(GpuId(0), GpuId(1), 7, LinkClass::Pcie, s, vec![], "");
        let p = b.build().unwrap();
        let per = p.bytes_per_link();
        assert_eq!(per[&(GpuId(0), GpuId(1), LinkClass::NvLink)], 150);
        assert_eq!(per[&(GpuId(0), GpuId(1), LinkClass::Pcie)], 7);
    }

    #[test]
    fn link_class_display() {
        assert_eq!(LinkClass::NvLink.to_string(), "nvlink");
        assert_eq!(LinkClass::Pcie.to_string(), "pcie");
        assert_eq!(LinkClass::Network.to_string(), "net");
    }

    #[test]
    fn segmented_payloads_sum_and_split() {
        let mut b = ProgramBuilder::new();
        let s0 = b.new_stream();
        let s1 = b.new_stream();
        let first = b.copy_segs(
            GpuId(0),
            GpuId(1),
            vec![
                Segment::new(0, 10),
                Segment::new(100, 20),
                Segment::new(300, 30),
            ],
            LinkClass::NvLink,
            s0,
            vec![],
            "multi",
        );
        let red = b.reduce_segs(
            GpuId(1),
            vec![Segment::new(0, 10), Segment::new(100, 20)],
            s0,
            vec![first],
            "fold",
        );
        b.copy_range(
            GpuId(1),
            GpuId(2),
            5,
            7,
            LinkClass::Pcie,
            s1,
            vec![red],
            "tail",
        );
        let p = b.build().unwrap();
        assert_eq!(p.ops()[0].kind.payload_bytes(), 60);
        assert_eq!(p.ops()[0].kind.segments().len(), 3);
        assert_eq!(p.ops()[1].kind.payload_bytes(), 30);
        assert_eq!(p.total_copy_bytes(), 67);
        assert_eq!(Segment::new(100, 20).end(), 120);

        // split_segments: one op per segment, deps rewired to every piece
        let split = p.split_segments();
        assert_eq!(split.len(), 3 + 2 + 1);
        assert_eq!(split.total_copy_bytes(), p.total_copy_bytes());
        // the reduce pieces (ids 3 and 4) must depend on all three copy pieces
        for i in [3usize, 4] {
            let deps: Vec<usize> = split.ops()[i].deps.iter().map(|d| d.0).collect();
            assert_eq!(deps, vec![0, 1, 2], "piece {i}");
        }
        // the tail copy depends on both reduce pieces
        let tail_deps: Vec<usize> = split.ops()[5].deps.iter().map(|d| d.0).collect();
        assert_eq!(tail_deps, vec![3, 4]);
        // every split op carries exactly one segment
        assert!(split.ops().iter().all(|o| o.kind.segments().len() == 1));

        // an empty segment list is rejected at build time
        let mut b = ProgramBuilder::new();
        let s = b.new_stream();
        b.copy_segs(
            GpuId(0),
            GpuId(1),
            Vec::new(),
            LinkClass::NvLink,
            s,
            vec![],
            "nothing",
        );
        let err = b.build().unwrap_err();
        assert!(matches!(err, ProgramError::EmptyPayload { op } if op == OpId(0)));
        // streams and tags survive
        assert_eq!(split.ops()[0].stream, s0);
        assert_eq!(split.ops()[5].tag, "tail");
        assert_eq!(split.num_streams(), 2);
    }

    #[test]
    fn static_and_owned_tags_round_trip_through_serde() {
        let mut b = ProgramBuilder::new();
        let s = b.new_stream();
        let a = b.copy(
            GpuId(0),
            GpuId(1),
            8,
            LinkClass::NvLink,
            s,
            vec![],
            "static",
        );
        b.reduce(GpuId(1), 8, s, vec![a], format!("owned {}", 7));
        let p = b.build().unwrap();
        assert!(matches!(p.ops()[0].tag, Cow::Borrowed("static")));
        let back = Program::from_value(&p.to_value()).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.ops()[1].tag, "owned 7");
    }
}
