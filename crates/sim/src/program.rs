//! Programs: DAGs of chunk-level operations organised into streams.
//!
//! Blink's CodeGen (Section 4.1) turns a set of spanning trees into CUDA
//! code: per-link `cudaMemcpy` calls for each chunk, reduction kernels, and
//! CUDA events for cross-stream synchronisation. A [`Program`] is the
//! simulator-level equivalent: each op corresponds to one such CUDA call and
//! carries its dependencies explicitly. Streams reproduce CUDA-stream FIFO
//! semantics — two ops in the same stream never overlap and execute in
//! insertion order.
//!
//! # Layout
//!
//! A program is flat. Each op is a small record — its [`OpKind`], stream,
//! tag and two ranges — and the program keeps every op's dependencies in one
//! `Vec<OpId>` and every op's payload segments in one `Vec<Segment>`, op
//! after op, the ranges saying where each op's run sits. A
//! [`ProgramBuilder`] appends a pushed op's dependencies and segments to
//! those arrays, so building a program allocates nothing per op: three
//! arrays grow (or are reserved up front with [`ProgramBuilder::reserve`]).
//! Readers borrow an op as an [`OpRef`] ([`Program::op`], [`Program::ops`])
//! whose `deps` and `segments` are slices of the arrays, so the engine, the
//! oracle and every rewrite walk contiguous memory.
//!
//! One op costs its 88-byte record on 64-bit targets, plus 8 bytes per
//! dependency and 16 per segment: about 112 bytes for a typical CodeGen op
//! with one of each, and no heap block of its own.

use blink_topology::GpuId;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of an operation within a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct OpId(pub usize);

/// Identifier of a stream. Streams are global to the program; by convention
/// CodeGen allocates one per tree edge and direction.
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

/// What one simulated operation does.
///
/// Data-moving ops ([`OpKind::Copy`], [`OpKind::Reduce`]) carry a **segmented
/// payload**: a list of logical byte ranges ([`Segment`]s) into the
/// collective's address space, held by the op's [`Program`] and read through
/// [`OpRef::segments`]. One op models one CUDA call, so the engine charges a
/// single launch overhead and times the *summed* segment bytes, while the
/// value-level oracle folds each segment into its interval maps
/// individually — this is what lets the gathering collectives carry a whole
/// subtree's (non-contiguous) slot payload over an edge as one op instead of
/// one op per slot. Most ops carry exactly one segment; the builders
/// ([`ProgramBuilder::copy_range`], [`ProgramBuilder::reduce_range`] and the
/// offset-0 legacy helpers) cover that case, with
/// [`ProgramBuilder::copy_segs`]/[`ProgramBuilder::reduce_segs`] for
/// multi-segment payloads. Other kinds carry no segments.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum OpKind {
    /// A peer-to-peer copy of the op's payload from `src` to `dst` over
    /// `class`.
    Copy {
        /// Source GPU.
        src: GpuId,
        /// Destination GPU.
        dst: GpuId,
        /// Link class used.
        class: LinkClass,
    },
    /// A local reduction kernel on `gpu` folding the received data of the
    /// op's payload ranges into resident data.
    Reduce {
        /// GPU running the reduction.
        gpu: GpuId,
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
    /// Whether ops of this kind move data: a data-moving op carries at least
    /// one payload segment, any other op none ([`Program::validate`]).
    pub fn moves_data(&self) -> bool {
        matches!(self, OpKind::Copy { .. } | OpKind::Reduce { .. })
    }
}

/// Where one op's dependencies or segments sit in its program's array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct Span {
    start: usize,
    end: usize,
}

/// One op's record: everything but its dependencies and segments, which
/// the program keeps in two shared arrays.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct OpRecord {
    kind: OpKind,
    stream: StreamId,
    deps: Span,
    segs: Span,
    tag: Cow<'static, str>,
}

/// One operation of a [`Program`], borrowed from it: its kind and
/// scheduling metadata, with its dependencies and payload segments as
/// slices of the program's arrays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpRef<'a> {
    /// The operation's id (its index in the program).
    pub id: OpId,
    /// What the operation does.
    pub kind: OpKind,
    /// Stream the op belongs to (FIFO with other ops on the same stream).
    pub stream: StreamId,
    /// Ops that must complete before this one may start (cross-stream
    /// dependencies, i.e. CUDA events).
    pub deps: &'a [OpId],
    /// The logical byte ranges a data-moving op moves or folds (empty for
    /// other kinds).
    pub segments: &'a [Segment],
    /// Human-readable label of the phase that emitted the op (`"blink
    /// bcast"`, `"phase2 in"`, `"nccl-ar rs"`…), for traces and tests. The
    /// library's emitters pass `&'static str` phase labels, so labelling an
    /// op allocates nothing; the op's stream and segments already identify
    /// its tree and chunk. Callers may pass an owned `String` instead.
    /// Nothing in the simulator or the oracle reads it.
    pub tag: &'a Cow<'static, str>,
}

impl OpRef<'_> {
    /// Total payload bytes (the sum over the op's segments; zero for compute
    /// kernels and peer-access toggles). This is the value the engine
    /// converts to transfer/reduction time.
    pub fn payload_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.bytes).sum()
    }
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
    /// An op that moves no data carries payload segments.
    StrayPayload {
        /// The compute kernel or peer-access toggle with segments.
        op: OpId,
    },
    /// An op's dependency or segment range does not continue where the
    /// previous op's ends (only a deserialized program can have one).
    Layout {
        /// The op whose range is out of place.
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
            ProgramError::StrayPayload { op } => {
                write!(f, "op {} moves no data but carries payload segments", op.0)
            }
            ProgramError::Layout { op } => {
                write!(f, "op {}'s dependencies or segments are out of place", op.0)
            }
            ProgramError::Cycle => write!(f, "dependency cycle"),
        }
    }
}

impl std::error::Error for ProgramError {}

/// A complete schedule: ops in issue order, laid out flat (see the module
/// docs).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Program {
    ops: Vec<OpRecord>,
    /// Every op's dependencies, op after op.
    deps: Vec<OpId>,
    /// Every op's payload segments, op after op.
    segs: Vec<Segment>,
}

impl Program {
    /// Record `op`, the program's `i`-th, as an [`OpRef`].
    fn view<'a>(&'a self, i: usize, op: &'a OpRecord) -> OpRef<'a> {
        // a range is in bounds in every program that validates; reading
        // one that is not as empty keeps a malformed deserialized program
        // readable until validation rejects it
        OpRef {
            id: OpId(i),
            kind: op.kind,
            stream: op.stream,
            deps: self.deps.get(op.deps.start..op.deps.end).unwrap_or(&[]),
            segments: self.segs.get(op.segs.start..op.segs.end).unwrap_or(&[]),
            tag: &op.tag,
        }
    }

    /// The op `id`.
    ///
    /// # Panics
    /// Panics if `id` is not an op of the program (`id.0 >= self.len()`).
    pub fn op(&self, id: OpId) -> OpRef<'_> {
        self.view(id.0, &self.ops[id.0])
    }

    /// The ops, in issue order.
    pub fn ops(&self) -> impl ExactSizeIterator<Item = OpRef<'_>> + DoubleEndedIterator + Clone {
        self.ops
            .iter()
            .enumerate()
            .map(move |(i, op)| self.view(i, op))
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of dependencies, summed over the ops.
    pub fn num_deps(&self) -> usize {
        self.deps.len()
    }

    /// Number of payload segments, summed over the ops.
    pub fn num_segments(&self) -> usize {
        self.segs.len()
    }

    /// Total bytes moved by copy ops (all link classes, summed over payload
    /// segments).
    pub fn total_copy_bytes(&self) -> u64 {
        self.ops()
            .filter(|o| matches!(o.kind, OpKind::Copy { .. }))
            .map(|o| o.payload_bytes())
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

    /// Checks structural validity: every op's dependencies and segments
    /// continue the arrays where the previous op's end, dependencies exist
    /// and point backwards (which, together with stream ordering,
    /// guarantees a DAG), and every data-moving op carries at least one
    /// payload segment while no other op carries any — an empty segment
    /// list is always an emitter bug (a copy that moves nothing would still
    /// be charged a launch overhead and skew timings).
    pub fn validate(&self) -> Result<(), ProgramError> {
        let (mut deps_end, mut segs_end) = (0, 0);
        for (i, record) in self.ops.iter().enumerate() {
            let id = OpId(i);
            let (d, s) = (record.deps, record.segs);
            if d.start != deps_end || d.end < d.start || s.start != segs_end || s.end < s.start {
                return Err(ProgramError::Layout { op: id });
            }
            (deps_end, segs_end) = (d.end, s.end);
            let op = self.view(i, record);
            for &dep in op.deps {
                if dep.0 >= self.ops.len() {
                    return Err(ProgramError::UnknownDependency { op: id, dep });
                }
                if dep.0 >= i {
                    return Err(ProgramError::ForwardDependency { op: id, dep });
                }
            }
            match (op.kind.moves_data(), op.segments.is_empty()) {
                (true, true) => return Err(ProgramError::EmptyPayload { op: id }),
                (false, false) => return Err(ProgramError::StrayPayload { op: id }),
                _ => {}
            }
        }
        if (deps_end, segs_end) != (self.deps.len(), self.segs.len()) {
            return Err(ProgramError::Layout {
                op: OpId(self.ops.len().saturating_sub(1)),
            });
        }
        Ok(())
    }

    /// Per-(src, dst, class) bytes moved; useful for link-utilisation checks.
    pub fn bytes_per_link(&self) -> BTreeMap<(GpuId, GpuId, LinkClass), u64> {
        let mut out = BTreeMap::new();
        for o in self.ops() {
            if let OpKind::Copy { src, dst, class } = o.kind {
                *out.entry((src, dst, class)).or_insert(0) += o.payload_bytes();
            }
        }
        out
    }

    /// The program with every GPU an op names renamed by `rename`: the same
    /// ops, streams, dependencies, segments and tags, so it validates
    /// exactly when this program does. An order-preserving renaming turns a
    /// lowering for one slice into the lowering for the same slice shape on
    /// another server.
    pub fn renamed(&self, mut rename: impl FnMut(GpuId) -> GpuId) -> Program {
        let ops = self
            .ops
            .iter()
            .map(|op| OpRecord {
                kind: match op.kind {
                    OpKind::Copy { src, dst, class } => OpKind::Copy {
                        src: rename(src),
                        dst: rename(dst),
                        class,
                    },
                    OpKind::Reduce { gpu } => OpKind::Reduce { gpu: rename(gpu) },
                    OpKind::Compute { gpu, duration_us } => OpKind::Compute {
                        gpu: rename(gpu),
                        duration_us,
                    },
                    toggle @ OpKind::TogglePeerAccess { .. } => toggle,
                },
                stream: op.stream,
                deps: op.deps,
                segs: op.segs,
                tag: op.tag.clone(),
            })
            .collect();
        Program {
            ops,
            deps: self.deps.clone(),
            segs: self.segs.clone(),
        }
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
    /// both shapes. A program that fails [`Program::validate`] is returned
    /// unchanged.
    pub fn split_segments(&self) -> Program {
        if self.validate().is_err() {
            return self.clone();
        }
        let mut b = ProgramBuilder::new();
        // op i's pieces are the new ids first[i]..first[i + 1]
        let mut first: Vec<usize> = Vec::with_capacity(self.len());
        let mut deps = Vec::new();
        for op in self.ops() {
            first.push(b.len());
            deps.clear();
            // a valid program's deps point backwards, so each one's pieces
            // are already delimited
            for d in op.deps {
                deps.extend((first[d.0]..first[d.0 + 1]).map(OpId));
            }
            if op.segments.len() > 1 {
                for seg in op.segments {
                    b.push(
                        op.kind,
                        std::slice::from_ref(seg),
                        op.stream,
                        &deps,
                        op.tag.clone(),
                    );
                }
            } else {
                b.push(op.kind, op.segments, op.stream, &deps, op.tag.clone());
            }
        }
        // pieces keep their op's kind, a segment each and backward deps:
        // the split of a valid program is valid
        b.program
    }
}

/// Incremental builder for [`Program`]s: hands out stream ids and op ids,
/// and appends each op's dependencies and segments to the program's arrays.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    program: Program,
    next_stream: usize,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves room for `ops` more ops carrying `deps` more dependencies
    /// and `segs` more payload segments between them, so pushing that many
    /// reallocates nothing.
    pub fn reserve(&mut self, ops: usize, deps: usize, segs: usize) {
        let p = &mut self.program;
        p.ops.reserve(ops);
        p.deps.reserve(deps);
        p.segs.reserve(segs);
    }

    /// Allocates a fresh stream.
    pub fn new_stream(&mut self) -> StreamId {
        let s = StreamId(self.next_stream);
        self.next_stream += 1;
        s
    }

    /// Number of ops added so far.
    pub fn len(&self) -> usize {
        self.program.len()
    }

    /// Whether no ops have been added yet.
    pub fn is_empty(&self) -> bool {
        self.program.is_empty()
    }

    /// Adds an op with payload `segs` (empty unless `kind` moves data) and
    /// returns its id.
    pub fn push(
        &mut self,
        kind: OpKind,
        segs: &[Segment],
        stream: StreamId,
        deps: &[OpId],
        tag: impl Into<Cow<'static, str>>,
    ) -> OpId {
        let p = &mut self.program;
        let id = OpId(p.ops.len());
        let append = |start: usize, len: usize| Span {
            start,
            end: start + len,
        };
        let record = OpRecord {
            kind,
            stream,
            deps: append(p.deps.len(), deps.len()),
            segs: append(p.segs.len(), segs.len()),
            tag: tag.into(),
        };
        p.deps.extend_from_slice(deps);
        p.segs.extend_from_slice(segs);
        p.ops.push(record);
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
        deps: &[OpId],
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
        deps: &[OpId],
        tag: impl Into<Cow<'static, str>>,
    ) -> OpId {
        let seg = Segment::new(offset, bytes);
        self.copy_segs(src, dst, &[seg], class, stream, deps, tag)
    }

    /// Adds a copy op carrying an arbitrary list of logical byte ranges as
    /// one operation (one launch overhead, summed transfer time).
    #[allow(clippy::too_many_arguments)]
    pub fn copy_segs(
        &mut self,
        src: GpuId,
        dst: GpuId,
        segs: &[Segment],
        class: LinkClass,
        stream: StreamId,
        deps: &[OpId],
        tag: impl Into<Cow<'static, str>>,
    ) -> OpId {
        self.push(OpKind::Copy { src, dst, class }, segs, stream, deps, tag)
    }

    /// Adds a reduction op at logical offset 0 (a whole-buffer fold).
    pub fn reduce(
        &mut self,
        gpu: GpuId,
        bytes: u64,
        stream: StreamId,
        deps: &[OpId],
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
        deps: &[OpId],
        tag: impl Into<Cow<'static, str>>,
    ) -> OpId {
        self.reduce_segs(gpu, &[Segment::new(offset, bytes)], stream, deps, tag)
    }

    /// Adds a reduction op folding an arbitrary list of logical byte ranges
    /// as one kernel.
    pub fn reduce_segs(
        &mut self,
        gpu: GpuId,
        segs: &[Segment],
        stream: StreamId,
        deps: &[OpId],
        tag: impl Into<Cow<'static, str>>,
    ) -> OpId {
        self.push(OpKind::Reduce { gpu }, segs, stream, deps, tag)
    }

    /// Adds a compute op.
    pub fn compute(
        &mut self,
        gpu: GpuId,
        duration_us: f64,
        stream: StreamId,
        deps: &[OpId],
        tag: impl Into<Cow<'static, str>>,
    ) -> OpId {
        let kind = OpKind::Compute { gpu, duration_us };
        self.push(kind, &[], stream, deps, tag)
    }

    /// Adds a peer-access toggle op.
    pub fn toggle_peer_access(
        &mut self,
        gpus: u32,
        stream: StreamId,
        deps: &[OpId],
        tag: impl Into<Cow<'static, str>>,
    ) -> OpId {
        self.push(OpKind::TogglePeerAccess { gpus }, &[], stream, deps, tag)
    }

    /// Finalises the program.
    ///
    /// # Errors
    /// Returns the first structural error found (see [`Program::validate`]).
    pub fn build(self) -> Result<Program, ProgramError> {
        self.program.validate()?;
        Ok(self.program)
    }

    /// The program as built so far, unvalidated, for tests that feed the
    /// engine malformed programs.
    #[cfg(test)]
    pub(crate) fn build_unchecked(self) -> Program {
        self.program
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
        let a = b.copy(GpuId(0), GpuId(1), 1024, LinkClass::NvLink, s0, &[], "c0");
        let r = b.reduce(GpuId(1), 1024, s1, &[a], "r0");
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
        b.copy(GpuId(0), GpuId(1), 8, LinkClass::Pcie, s, &[OpId(5)], "bad");
        let err = b.build().unwrap_err();
        assert!(matches!(err, ProgramError::UnknownDependency { .. }));

        let mut b = ProgramBuilder::new();
        let s = b.new_stream();
        b.compute(GpuId(0), 1.0, s, &[OpId(0)], "self");
        let err = b.build().unwrap_err();
        assert!(matches!(err, ProgramError::ForwardDependency { .. }));
    }

    #[test]
    fn bytes_per_link_aggregates_copies() {
        let mut b = ProgramBuilder::new();
        let s = b.new_stream();
        b.copy(GpuId(0), GpuId(1), 100, LinkClass::NvLink, s, &[], "");
        b.copy(GpuId(0), GpuId(1), 50, LinkClass::NvLink, s, &[], "");
        b.copy(GpuId(0), GpuId(1), 7, LinkClass::Pcie, s, &[], "");
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
            &[
                Segment::new(0, 10),
                Segment::new(100, 20),
                Segment::new(300, 30),
            ],
            LinkClass::NvLink,
            s0,
            &[],
            "multi",
        );
        let red = b.reduce_segs(
            GpuId(1),
            &[Segment::new(0, 10), Segment::new(100, 20)],
            s0,
            &[first],
            "fold",
        );
        b.copy_range(
            GpuId(1),
            GpuId(2),
            5,
            7,
            LinkClass::Pcie,
            s1,
            &[red],
            "tail",
        );
        let p = b.build().unwrap();
        assert_eq!(p.op(OpId(0)).payload_bytes(), 60);
        assert_eq!(p.op(OpId(0)).segments.len(), 3);
        assert_eq!(p.op(OpId(1)).payload_bytes(), 30);
        assert_eq!(p.total_copy_bytes(), 67);
        assert_eq!(Segment::new(100, 20).end(), 120);

        // split_segments: one op per segment, deps rewired to every piece
        let split = p.split_segments();
        assert_eq!(split.len(), 3 + 2 + 1);
        assert_eq!(split.total_copy_bytes(), p.total_copy_bytes());
        // the reduce pieces (ids 3 and 4) must depend on all three copy pieces
        for i in [3usize, 4] {
            let deps: Vec<usize> = split.op(OpId(i)).deps.iter().map(|d| d.0).collect();
            assert_eq!(deps, vec![0, 1, 2], "piece {i}");
        }
        // the tail copy depends on both reduce pieces
        let tail_deps: Vec<usize> = split.op(OpId(5)).deps.iter().map(|d| d.0).collect();
        assert_eq!(tail_deps, vec![3, 4]);
        // every split op carries exactly one segment
        assert!(split.ops().all(|o| o.segments.len() == 1));

        // an empty segment list is rejected at build time
        let mut b = ProgramBuilder::new();
        let s = b.new_stream();
        b.copy_segs(
            GpuId(0),
            GpuId(1),
            &[],
            LinkClass::NvLink,
            s,
            &[],
            "nothing",
        );
        let err = b.build().unwrap_err();
        assert!(matches!(err, ProgramError::EmptyPayload { op } if op == OpId(0)));
        // streams and tags survive
        assert_eq!(split.op(OpId(0)).stream, s0);
        assert_eq!(split.op(OpId(5)).tag, "tail");
        assert_eq!(split.num_streams(), 2);
    }

    #[test]
    fn static_and_owned_tags_round_trip_through_serde() {
        let mut b = ProgramBuilder::new();
        let s = b.new_stream();
        let a = b.copy(GpuId(0), GpuId(1), 8, LinkClass::NvLink, s, &[], "static");
        b.reduce(GpuId(1), 8, s, &[a], format!("owned {}", 7));
        let p = b.build().unwrap();
        assert!(matches!(p.op(OpId(0)).tag, Cow::Borrowed("static")));
        let back = Program::from_value(&p.to_value()).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.op(OpId(1)).tag, "owned 7");
        assert_eq!(back.validate(), Ok(()));
    }

    #[test]
    fn an_op_is_a_record_and_two_array_runs() {
        // the per-op cost the module docs state
        assert_eq!(std::mem::size_of::<OpRecord>(), 88);
        let mut b = ProgramBuilder::new();
        b.reserve(3, 3, 4);
        let s = b.new_stream();
        let a = b.copy(GpuId(0), GpuId(1), 8, LinkClass::NvLink, s, &[], "a");
        let t = b.toggle_peer_access(2, s, &[a], "t");
        let segs = [Segment::new(0, 4), Segment::new(8, 4), Segment::new(16, 4)];
        let r = b.reduce_segs(GpuId(1), &segs, s, &[a, t], "r");
        let p = b.build().unwrap();
        assert_eq!((p.num_deps(), p.num_segments()), (3, 4));
        let op = p.op(r);
        assert_eq!((op.id, op.deps, op.segments), (r, &[a, t][..], &segs[..]));
        assert_eq!(op.payload_bytes(), 12);
        assert!(p.op(t).segments.is_empty() && p.op(t).deps == [a]);
        assert_eq!(p.ops().rev().map(|o| o.id).collect::<Vec<_>>(), [r, t, a]);
    }

    #[test]
    fn stray_payloads_and_misplaced_ranges_are_rejected() {
        let mut b = ProgramBuilder::new();
        let s = b.new_stream();
        let kind = OpKind::Compute {
            gpu: GpuId(0),
            duration_us: 1.0,
        };
        b.push(kind, &[Segment::new(0, 1)], s, &[], "kernel");
        let err = b.build().unwrap_err();
        assert_eq!(err, ProgramError::StrayPayload { op: OpId(0) });

        // a deserialized program whose ranges overlap reads without a panic
        // and fails validation
        let mut b = ProgramBuilder::new();
        let s = b.new_stream();
        let a = b.copy(GpuId(0), GpuId(1), 8, LinkClass::NvLink, s, &[], "a");
        b.copy(GpuId(1), GpuId(2), 8, LinkClass::NvLink, s, &[a], "b");
        let mut bad = b.build().unwrap();
        bad.ops[1].segs = Span { start: 0, end: 9 };
        let back = Program::from_value(&bad.to_value()).unwrap();
        assert!(back.op(OpId(1)).segments.is_empty());
        assert_eq!(back.validate(), Err(ProgramError::Layout { op: OpId(1) }));
        assert_eq!(back.split_segments(), back);
    }
}
