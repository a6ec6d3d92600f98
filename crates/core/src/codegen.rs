//! CodeGen: lowering tree plans to chunked, pipelined transfer programs
//! (Section 4 of the paper).
//!
//! For every collective the generated program follows the paper's recipe:
//!
//! * the buffer is split across trees proportionally to their weights,
//! * each tree's share is further divided into chunks so that forwarding can
//!   start before the whole share has arrived (Figure 11),
//! * every tree edge gets a CUDA-stream equivalent per direction. The paper
//!   reuses one stream where a link sits at the same position in several
//!   trees, to work around CUDA's unfair scheduling of competing streams
//!   (Section 4.2.2, Figure 13); the simulator arbitrates links fairly, where
//!   a shared FIFO stream only couples the trees, so streams are not shared,
//! * reductions are issued into the stream of the outgoing copy, which is what
//!   makes reduce-and-forward cost a little more than pure forwarding (the
//!   effect measured in Figure 7).
//!
//! Every emitted `Copy`/`Reduce` carries its exact **logical byte ranges**
//! into the collective's address space (see `blink_sim::semantics` for the
//! per-collective definition): reducing collectives address the buffer
//! `[0, total)` directly, and the gathering collectives address the
//! concatenated slot space `[rank · total, (rank + 1) · total)` with ranks
//! assigned in ascending [`GpuId`] order over the tree's vertex set. A tree's
//! share is a contiguous sub-range of `[0, total)`, each chunk a sub-range of
//! its tree's share — so the value-level oracle can replay the program and
//! prove every byte landed exactly once where the contract says it must.
//!
//! Payloads that are non-contiguous in the logical space — a gather edge
//! forwarding its whole subtree's slots, the AllGather redistribution, a
//! scatter edge carrying several shards — are emitted as **one op per edge
//! per chunk** whose [`Segment`] list names every sub-range exactly. One op
//! models one (batched) CUDA call, so per-op launch overhead no longer
//! scales with subtree size while the oracle still sees byte-exact ranges.
//!
//! Each tree's shape is **resolved once per lowering** into a private
//! layout: its BFS order and, per vertex, the parent, depth, sorted children,
//! subtree members (as slot ranks) and the stream slots of the edges into and
//! out of it. The emitters walk those index arrays for every chunk, with
//! per-vertex arrival slots in place of maps, so no op re-derives its tree's
//! shape from the edge list. Malformed input — a non-finite or negative tree
//! weight, a tree that is not an arborescence, trees over different vertex
//! sets — is rejected while the layouts are built, and a lowering whose chunk
//! count would push its program past [`MAX_PROGRAM_OPS`] is rejected before
//! anything is emitted.

use crate::collective::CollectiveKind;
use crate::{BlinkError, Result};
use blink_graph::WeightedTree;
use blink_sim::{LinkClass, OpId, OpKind, Program, ProgramBuilder, Segment, StreamId};
use blink_topology::GpuId;
use serde::{Deserialize, Serialize};

#[cfg(test)]
mod reference;

/// The most ops one lowered program may hold. A lowering whose chunk count
/// would take its program past this returns [`BlinkError::CodeGen`] before
/// it allocates a chunk (ask for fewer, larger chunks instead). The largest
/// program any test, `bench_*` binary, figure, example or the repository
/// benchmark lowers has 20,688 ops, so the budget sits about 50× above real
/// use, while a byte count such as `u64::MAX` fails fast instead of aborting
/// the process on a failed allocation.
pub const MAX_PROGRAM_OPS: usize = 1 << 20;

/// Fails when `planned` more ops on top of the `held` a program already
/// has would exceed [`MAX_PROGRAM_OPS`].
pub(crate) fn check_op_budget(held: usize, planned: u128) -> Result<()> {
    if held as u128 + planned > MAX_PROGRAM_OPS as u128 {
        return Err(BlinkError::CodeGen(format!(
            "lowering needs {planned} ops on top of {held}, past the \
             {MAX_PROGRAM_OPS}-op program budget; use larger chunks"
        )));
    }
    Ok(())
}

/// Options for CodeGen.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CodeGenOptions {
    /// Target chunk size in bytes (the automatic tuner of Section 4.2.1 feeds
    /// this value).
    pub chunk_bytes: u64,
    /// Which link class the copies use.
    pub link_class: LinkClass,
}

impl Default for CodeGenOptions {
    fn default() -> Self {
        CodeGenOptions {
            chunk_bytes: 4 << 20,
            link_class: LinkClass::NvLink,
        }
    }
}

/// The CodeGen stage.
#[derive(Debug, Clone, Default)]
pub struct CodeGen {
    options: CodeGenOptions,
}

/// A `len`-byte share cut into near-equal chunks of at most the target
/// size: chunk `i` starts `i · base + min(i, rem)` bytes into the share and
/// is `base + 1` bytes long for `i < rem`, `base` after. Chunks are computed
/// on demand, never materialised, so counting them costs nothing however
/// large the share.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Chunks {
    count: u64,
    base: u64,
    rem: u64,
}

impl Chunks {
    pub(crate) fn new(len: u64, target: u64) -> Self {
        if len == 0 {
            return Chunks {
                count: 0,
                base: 0,
                rem: 0,
            };
        }
        let count = len.div_ceil(target.max(1));
        Chunks {
            count,
            base: len / count,
            rem: len % count,
        }
    }

    /// Number of chunks.
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// Offset within the share and length of chunk `i < count`.
    pub(crate) fn get(&self, i: u64) -> (u64, u64) {
        (
            i * self.base + i.min(self.rem),
            self.base + u64::from(i < self.rem),
        )
    }
}

/// Splits `bytes` across `trees` proportionally to their (finite,
/// non-negative) weights; the heaviest tree takes the rounding remainder.
fn split_by_weight(trees: &[WeightedTree], bytes: u64) -> Vec<u64> {
    let total_weight: f64 = trees.iter().map(|t| t.weight).sum();
    if trees.is_empty() || total_weight <= 0.0 {
        return vec![0; trees.len()];
    }
    let mut out: Vec<u64> = trees
        .iter()
        .map(|t| ((t.weight / total_weight) * bytes as f64).floor() as u64)
        .collect();
    // rounding over-assigns only past f64's exact-integer range
    let mut left = bytes;
    for share in &mut out {
        *share = (*share).min(left);
        left -= *share;
    }
    if let Some(idx) = (0..trees.len()).max_by(|&a, &b| trees[a].weight.total_cmp(&trees[b].weight))
    {
        out[idx] += left;
    }
    out
}

/// Stream slots, one per tree edge and direction. A slot becomes a stream
/// on first use, so stream ids are handed out in emission order.
struct Streams {
    ids: Vec<Option<StreamId>>,
}

impl Streams {
    fn new(slots: usize) -> Self {
        Streams {
            ids: Vec::with_capacity(slots),
        }
    }

    /// A fresh slot for one tree edge in one direction.
    fn slot(&mut self) -> usize {
        self.ids.push(None);
        self.ids.len() - 1
    }

    fn stream(&mut self, b: &mut ProgramBuilder, slot: usize) -> StreamId {
        *self.ids[slot].get_or_insert_with(|| b.new_stream())
    }
}

/// One vertex of a [`TreeLayout`].
#[derive(Debug, Clone, Copy)]
struct Vertex {
    gpu: GpuId,
    /// The GPU's slot rank among the participants.
    rank: usize,
    /// Parent's index (the root's entry is unused).
    parent: usize,
    /// Distance from the root.
    depth: usize,
    /// The children: the contiguous BFS run `children.0..children.1`.
    children: (usize, usize),
    /// The subtree — the vertex, then its descendants in BFS order — as
    /// slot ranks: `TreeLayout::subtree[subtree.0..subtree.1]`.
    subtree: (usize, usize),
    /// Stream slot of the edge into the vertex (parent → vertex).
    down: usize,
    /// Stream slot of the edge out of the vertex (vertex → parent).
    up: usize,
}

/// One tree's shape, resolved once per lowering: its vertices in BFS order
/// from the root (index 0), each vertex's children in ascending [`GpuId`]
/// order, and every vertex's subtree ranks in one array. A layout is two
/// allocations whatever the tree's size.
struct TreeLayout {
    vertices: Vec<Vertex>,
    subtree: Vec<usize>,
}

impl TreeLayout {
    /// Walks `wt`'s tree breadth-first from its root, rejecting a weight the
    /// byte split cannot use and any edge list that is not an arborescence
    /// (a vertex reached twice, an edge the root does not reach). `edges`
    /// is scratch for the sorted edge list.
    fn walk(wt: &WeightedTree, edges: &mut Vec<(GpuId, GpuId)>) -> Result<Self> {
        let tree = &wt.tree;
        if !(wt.weight.is_finite() && wt.weight >= 0.0) {
            return Err(BlinkError::CodeGen(format!(
                "tree rooted at {} has weight {}; weights must be finite and non-negative",
                tree.root, wt.weight
            )));
        }
        edges.clear();
        edges.extend_from_slice(&tree.edges);
        edges.sort_unstable();
        let n = edges.len() + 1;
        let vertex = |gpu, parent, depth| Vertex {
            gpu,
            rank: 0,
            parent,
            depth,
            children: (0, 0),
            subtree: (0, 0),
            down: usize::MAX,
            up: usize::MAX,
        };
        let mut vertices = Vec::with_capacity(n);
        vertices.push(vertex(tree.root, 0, 0));
        let mut i = 0;
        while i < vertices.len() {
            let (v, first) = (vertices[i].gpu, vertices.len());
            let depth = vertices[i].depth + 1;
            let start = edges.partition_point(|&(p, _)| p < v);
            for &(_, c) in edges[start..].iter().take_while(|&&(p, _)| p == v) {
                if vertices.iter().any(|x: &Vertex| x.gpu == c) {
                    return Err(BlinkError::CodeGen(format!(
                        "tree rooted at {} reaches {c} twice",
                        tree.root
                    )));
                }
                vertices.push(vertex(c, i, depth));
            }
            vertices[i].children = (first, vertices.len());
            i += 1;
        }
        if vertices.len() != n {
            return Err(BlinkError::CodeGen(format!(
                "tree rooted at {} has edges its root does not reach",
                tree.root
            )));
        }
        Ok(TreeLayout {
            vertices,
            subtree: Vec::new(),
        })
    }

    /// Resolves the slot ranks, subtrees and stream slots. Fails unless the
    /// tree spans exactly `participants`.
    fn resolve(&mut self, participants: &[GpuId], streams: &mut Streams) -> Result<()> {
        let n = self.len();
        let mut spans = n == participants.len();
        for x in &mut self.vertices {
            match participants.binary_search(&x.gpu) {
                Ok(rank) => x.rank = rank,
                Err(_) => spans = false,
            }
        }
        if !spans {
            let order: Vec<GpuId> = self.vertices.iter().map(|x| x.gpu).collect();
            return Err(BlinkError::CodeGen(format!(
                "tree rooted at {} spans {order:?}, not the first tree's {participants:?}",
                order[0]
            )));
        }
        // a vertex lies in the subtree of each of its depth + 1 ancestors
        self.subtree = Vec::with_capacity(self.vertices.iter().map(|x| x.depth + 1).sum());
        for v in 0..n {
            let start = self.subtree.len();
            self.subtree.push(v);
            let mut j = start;
            while j < self.subtree.len() {
                let u = self.subtree[j];
                self.subtree.extend(self.children(u));
                j += 1;
            }
            self.vertices[v].subtree = (start, self.subtree.len());
        }
        for m in &mut self.subtree {
            *m = self.vertices[*m].rank;
        }
        for x in self.vertices.iter_mut().skip(1) {
            x.down = streams.slot();
            x.up = streams.slot();
        }
        Ok(())
    }

    fn len(&self) -> usize {
        self.vertices.len()
    }

    fn gpu(&self, v: usize) -> GpuId {
        self.vertices[v].gpu
    }

    fn children(&self, v: usize) -> std::ops::Range<usize> {
        let (first, end) = self.vertices[v].children;
        first..end
    }

    fn subtree(&self, v: usize) -> &[usize] {
        let (start, end) = self.vertices[v].subtree;
        &self.subtree[start..end]
    }

    /// Upper bounds on the ops, dependencies and payload segments one
    /// chunk of `kind` emits over this tree, for a gate of `gate` ops and
    /// `participants` slots. The op bound is the program budget's; the
    /// other two only size the program's arrays, where a bound that falls
    /// short costs a reallocation.
    fn per_chunk(&self, kind: CollectiveKind, gate: usize, participants: usize) -> [u128; 3] {
        let n = self.len();
        let edges = (n - 1) as u128;
        let reduces = (0..n).filter(|&v| !self.children(v).is_empty()).count() as u128;
        let root_children = self.children(0).len() as u128;
        // a gated op has no dependency of its own: a root's child in a
        // plain broadcast, a leaf going up
        let gated = root_children + (edges + 1 - reduces);
        // slots the edges of a gather carry: every non-root vertex's subtree
        let gathered = (self.subtree.len() - n) as u128;
        let slots = participants as u128;
        let (ops, segs) = match kind {
            CollectiveKind::Broadcast { .. } => (edges, edges),
            CollectiveKind::Gather { .. } => (edges, gathered),
            CollectiveKind::Reduce { .. } => (edges + reduces, edges + reduces),
            CollectiveKind::AllReduce => (2 * edges + reduces, 2 * edges + reduces),
            CollectiveKind::AllGather => (2 * edges, gathered + edges * slots),
            CollectiveKind::ReduceScatter => (2 * edges + reduces, edges + reduces + gathered),
        };
        // an op depends on at most one op per child, a root's child in the
        // AllGather redistribution on every root arrival
        let redistribute = match kind {
            CollectiveKind::AllGather => root_children * root_children,
            _ => 0,
        };
        [ops, ops + redistribute + gated * gate as u128, segs]
    }
}

/// One chunk of one tree's share.
struct Chunk {
    /// Absolute start of the chunk's range within `[0, total)`.
    offset: u64,
    bytes: u64,
}

/// Emission state of one lowering, shared by the per-chunk emitters. Each
/// op's dependencies and payload are staged in the reusable `deps` and
/// `segs` buffers, which the builder copies into the program's arrays.
struct Emitter<'a> {
    b: &'a mut ProgramBuilder,
    streams: Streams,
    class: LinkClass,
    /// Ops that must complete before any op with no other dependency may
    /// start (e.g. a peer-access toggle for PCIe trees).
    gate: &'a [OpId],
    /// The collective's full per-participant buffer size — the slot stride
    /// of the gathering collectives' concatenated address space.
    total: u64,
    /// Canonical ReduceScatter shard `[start, end)` of each rank: rank `i`
    /// of `n` owns `[⌊i·total/n⌋, ⌊(i+1)·total/n⌋)` (the oracle's contract).
    shards: Vec<(u64, u64)>,
    /// Per-vertex arrival slot: the op that last moved the current chunk
    /// into (or, going up, out of) each vertex.
    arrival: Vec<Option<OpId>>,
    /// The next op's own dependencies.
    deps: Vec<OpId>,
    /// The next op's payload.
    segs: Vec<Segment>,
    /// The gather copies that arrived at the root in the current chunk.
    root_arrivals: Vec<OpId>,
}

impl Emitter<'_> {
    /// Emits one `kind` op carrying `segs`, depending on `deps` or, when it
    /// has none of its own, on the gate.
    fn emit(&mut self, kind: OpKind, stream: StreamId, tag: &'static str) -> OpId {
        let deps = if self.deps.is_empty() {
            self.gate
        } else {
            &self.deps
        };
        self.b.push(kind, &self.segs, stream, deps, tag)
    }

    /// A copy from `src` to `dst` over the lowering's link class.
    fn copy(&mut self, src: GpuId, dst: GpuId, stream: StreamId, tag: &'static str) -> OpId {
        let class = self.class;
        self.emit(OpKind::Copy { src, dst, class }, stream, tag)
    }

    /// Stages the deps of an op sent down from vertex `p`: `root_deps` at
    /// the root, else whatever delivered the chunk to `p`.
    fn deps_below(&mut self, p: usize, root_deps: &[OpId]) {
        self.deps.clear();
        if p == 0 {
            self.deps.extend_from_slice(root_deps);
        } else {
            self.deps.extend(self.arrival[p]);
        }
    }

    /// Broadcast one chunk down a tree; `root_deps` (if non-empty) gate the
    /// root's sends (used by AllReduce, where the reduced value must exist
    /// first).
    ///
    /// `bases` are the absolute range starts the payload covers; every edge
    /// carries **one** copy whose segment list holds `c.bytes` at each base.
    /// Plain Broadcast passes the chunk's own offset (a one-segment
    /// payload); the AllGather redistribution passes every participant's
    /// slot sub-range for this chunk, which is non-contiguous in slot space
    /// but still one op per edge.
    fn broadcast(&mut self, t: &TreeLayout, c: &Chunk, root_deps: &[OpId], bases: &[u64]) {
        self.segs.clear();
        self.segs
            .extend(bases.iter().map(|&b| Segment::new(b, c.bytes)));
        // BFS order lists the edges parent-first
        for v in 1..t.len() {
            let Vertex { parent, down, .. } = t.vertices[v];
            let stream = self.streams.stream(self.b, down);
            self.deps_below(parent, root_deps);
            let id = self.copy(t.gpu(parent), t.gpu(v), stream, "blink bcast");
            self.arrival[v] = Some(id);
        }
    }

    /// Gather one chunk up a tree (no reduction): every vertex forwards its
    /// own slot sub-range and the slot sub-ranges its subtree delivered as
    /// **one** copy per edge whose segment list names every slot exactly —
    /// op counts stay one per edge per chunk no matter how deep the subtree,
    /// without giving up range exactness. Leaves the copies that arrive at
    /// the root (the deps a follow-up redistribution phase must wait for)
    /// in `root_arrivals`.
    fn gather(&mut self, t: &TreeLayout, c: &Chunk) {
        self.root_arrivals.clear();
        for v in (1..t.len()).rev() {
            let Vertex { parent, up, .. } = t.vertices[v];
            self.deps.clear();
            self.deps
                .extend(t.children(v).filter_map(|ch| self.arrival[ch]));
            let stream = self.streams.stream(self.b, up);
            self.segs.clear();
            let (total, offset) = (self.total, c.offset);
            self.segs.extend(
                t.subtree(v)
                    .iter()
                    .map(|&r| Segment::new(r as u64 * total + offset, c.bytes)),
            );
            let id = self.copy(t.gpu(v), t.gpu(parent), stream, "blink gather");
            if parent == 0 {
                self.root_arrivals.push(id);
            }
            self.arrival[v] = Some(id);
        }
    }

    /// Reduce one chunk up a tree. Returns the root's final reduction op
    /// (when the tree has more than one vertex).
    fn reduce(&mut self, t: &TreeLayout, c: &Chunk) -> Option<OpId> {
        let mut root_reduce = None;
        self.segs.clear();
        self.segs.push(Segment::new(c.offset, c.bytes));
        for v in (0..t.len()).rev() {
            let Vertex {
                gpu, parent, up, ..
            } = t.vertices[v];
            let kids = t.children(v);
            self.deps.clear();
            self.deps
                .extend(kids.clone().filter_map(|ch| self.arrival[ch]));
            if !kids.is_empty() {
                // reduce the children's contributions with the local
                // buffer, in the stream of the outgoing copy (or the first
                // child's downward stream at the root)
                let slot = if v == 0 {
                    t.vertices[kids.start].down
                } else {
                    up
                };
                let stream = self.streams.stream(self.b, slot);
                let red = self.emit(OpKind::Reduce { gpu }, stream, "blink reduce");
                self.deps.clear();
                self.deps.push(red);
                if v == 0 {
                    root_reduce = Some(red);
                }
            }
            if v != 0 {
                let stream = self.streams.stream(self.b, up);
                let id = self.copy(gpu, t.gpu(parent), stream, "blink reduce-up");
                self.arrival[v] = Some(id);
            }
        }
        root_reduce
    }

    /// Scatter shards from the root down a tree: the edge into a child
    /// carries the (chunk-relative) shard of every GPU in that child's
    /// subtree as one exact-range copy whose segments are the non-empty
    /// shards. An edge whose subtree has no shard bytes in this chunk emits
    /// nothing.
    fn scatter(&mut self, t: &TreeLayout, c: &Chunk, root_dep: Option<OpId>) {
        let end = c.offset + c.bytes;
        for v in 1..t.len() {
            self.segs.clear();
            let shards = &self.shards;
            self.segs.extend(t.subtree(v).iter().filter_map(|&r| {
                let (lo, hi) = shards[r];
                let start = lo.max(c.offset);
                let len = hi.min(end).saturating_sub(start);
                (len > 0).then(|| Segment::new(start, len))
            }));
            if self.segs.is_empty() {
                // the whole subtree skips this chunk: no descendant reads
                // the vertex's arrival slot
                continue;
            }
            let Vertex { parent, down, .. } = t.vertices[v];
            let stream = self.streams.stream(self.b, down);
            self.deps_below(parent, root_dep.as_slice());
            let id = self.copy(t.gpu(parent), t.gpu(v), stream, "blink scatter");
            self.arrival[v] = Some(id);
        }
    }
}

impl CodeGen {
    /// Creates a CodeGen stage with the given options.
    pub fn new(options: CodeGenOptions) -> Self {
        CodeGen { options }
    }

    /// The options in effect.
    pub fn options(&self) -> &CodeGenOptions {
        &self.options
    }

    /// Lowers `kind` over `trees` into a fresh simulator program for a
    /// `bytes`-byte buffer.
    ///
    /// For rooted collectives every tree must be rooted at the collective's
    /// root; [`crate::treegen::TreeGen`] guarantees this. Multi-root tree sets
    /// (the DGX-2 one-hop plan) may only be used with the all-to-all
    /// collectives.
    ///
    /// # Errors
    /// [`BlinkError::CodeGen`] when a tree is rooted elsewhere, is not an
    /// arborescence, spans a different vertex set than the first tree or
    /// has a non-finite or negative weight, when the gathering collectives'
    /// slot space overflows `u64`, or when the program would exceed
    /// [`MAX_PROGRAM_OPS`].
    pub fn build(
        &self,
        trees: &[WeightedTree],
        kind: CollectiveKind,
        bytes: u64,
    ) -> Result<Program> {
        let mut builder = ProgramBuilder::new();
        self.emit_into(&mut builder, trees, kind, bytes, &[])?;
        builder
            .build()
            .map_err(|e| BlinkError::CodeGen(e.to_string()))
    }

    /// Emits the ops for `kind` into an existing builder. Ops that have no
    /// data dependency of their own are gated on `gate` — this is how the
    /// hybrid planner makes PCIe trees wait for the peer-access toggle and how
    /// the multi-server protocol chains its phases.
    ///
    /// # Errors
    /// As [`CodeGen::build`]; the op budget counts the ops `builder`
    /// already holds.
    pub fn emit_into(
        &self,
        builder: &mut ProgramBuilder,
        trees: &[WeightedTree],
        kind: CollectiveKind,
        bytes: u64,
        gate: &[OpId],
    ) -> Result<()> {
        self.emit_range_into(builder, trees, kind, bytes, 0, bytes, gate)
    }

    /// Like [`CodeGen::emit_into`], but the trees carry only the sub-range
    /// `[base, base + share)` of the collective's `total`-byte buffer. The
    /// hybrid planner splits `[0, total)` between its NVLink and PCIe tree
    /// sets this way, and the three-phase multi-server protocol assigns each
    /// partition its own disjoint sub-range — both end up emitting
    /// byte-exact ranges the value-level oracle can verify against the whole
    /// collective's contract.
    ///
    /// # Errors
    /// As [`CodeGen::emit_into`], and when the sub-range leaves
    /// `[0, total)`.
    #[allow(clippy::too_many_arguments)]
    pub fn emit_range_into(
        &self,
        builder: &mut ProgramBuilder,
        trees: &[WeightedTree],
        kind: CollectiveKind,
        total: u64,
        base: u64,
        share: u64,
        gate: &[OpId],
    ) -> Result<()> {
        if let Some(root) = kind.root() {
            if trees.iter().any(|t| t.tree.root != root) {
                return Err(BlinkError::CodeGen(format!(
                    "collective {kind} requires every tree to be rooted at {root}"
                )));
            }
        }
        if base.checked_add(share).is_none_or(|end| end > total) {
            return Err(BlinkError::CodeGen(format!(
                "range [{base}, {}) exceeds the {total}-byte buffer",
                u128::from(base) + u128::from(share)
            )));
        }
        let mut edges = Vec::new();
        let mut layouts = trees
            .iter()
            .map(|wt| TreeLayout::walk(wt, &mut edges))
            .collect::<Result<Vec<_>>>()?;
        // slot ranks are assigned in ascending GpuId order over the first
        // tree's vertex set, matching blink_sim::semantics::check_collective
        let mut participants: Vec<GpuId> = layouts
            .first()
            .map(|l| l.vertices.iter().map(|x| x.gpu).collect())
            .unwrap_or_default();
        participants.sort_unstable();
        let n = participants.len() as u128;
        if matches!(
            kind,
            CollectiveKind::Gather { .. } | CollectiveKind::AllGather
        ) && n * u128::from(total) > u128::from(u64::MAX)
        {
            return Err(BlinkError::CodeGen(format!(
                "{kind} slot space of {n} x {total} bytes overflows u64"
            )));
        }
        // two stream slots per tree edge
        let slots = layouts.iter().map(|l| 2 * (l.len() - 1)).sum();
        let mut streams = Streams::new(slots);
        for layout in &mut layouts {
            layout.resolve(&participants, &mut streams)?;
        }

        // per-tree chunk ranges: tree `t` owns the contiguous sub-range of
        // `[base, base + share)` after the shares of trees 0..t, and its
        // chunks tile that sub-range in order
        let mut tree_base = base;
        let chunks: Vec<(u64, Chunks)> = split_by_weight(trees, share)
            .into_iter()
            .map(|tree_share| {
                let start = tree_base;
                tree_base += tree_share;
                (start, Chunks::new(tree_share, self.options.chunk_bytes))
            })
            .collect();
        let mut planned = [0u128; 3];
        for (l, (_, ch)) in layouts.iter().zip(&chunks) {
            let per_chunk = l.per_chunk(kind, gate.len(), participants.len());
            for (sum, per) in planned.iter_mut().zip(per_chunk) {
                *sum += u128::from(ch.count()) * per;
            }
        }
        check_op_budget(builder.len(), planned[0])?;
        // within the op budget every bound fits a usize on 64-bit targets
        let [ops, deps, segs] = planned.map(|n| usize::try_from(n).unwrap_or(0));
        builder.reserve(ops, deps, segs);

        let shards = (0..n)
            .map(|i| {
                let cut = |i: u128| (i * u128::from(total) / n.max(1)) as u64;
                (cut(i), cut(i + 1))
            })
            .collect();
        let mut e = Emitter {
            b: builder,
            streams,
            class: self.options.link_class,
            gate,
            total,
            shards,
            arrival: vec![None; participants.len()],
            // an op depends on at most every vertex or on the gate, and
            // carries at most one segment per slot
            deps: Vec::with_capacity(participants.len().max(gate.len())),
            segs: Vec::with_capacity(participants.len()),
            root_arrivals: Vec::with_capacity(participants.len()),
        };
        let mut bases = Vec::new();
        let max_chunks = chunks.iter().map(|(_, ch)| ch.count()).max().unwrap_or(0);
        for idx in 0..max_chunks {
            for (t, &(tree_base, ch)) in layouts.iter().zip(&chunks) {
                if idx >= ch.count() {
                    continue;
                }
                let (off, bytes) = ch.get(idx);
                let c = Chunk {
                    offset: tree_base + off,
                    bytes,
                };
                match kind {
                    CollectiveKind::Broadcast { .. } => e.broadcast(t, &c, &[], &[c.offset]),
                    CollectiveKind::Gather { .. } => {
                        e.gather(t, &c);
                    }
                    CollectiveKind::Reduce { .. } => {
                        e.reduce(t, &c);
                    }
                    CollectiveKind::AllReduce => {
                        let root_reduce = e.reduce(t, &c);
                        e.broadcast(t, &c, root_reduce.as_slice(), &[c.offset]);
                    }
                    CollectiveKind::AllGather => {
                        e.gather(t, &c);
                        // after gathering, the root redistributes every
                        // participant's slot sub-range for this chunk
                        bases.clear();
                        bases.extend((0..n as u64).map(|r| r * total + c.offset));
                        let root_arrivals = std::mem::take(&mut e.root_arrivals);
                        e.broadcast(t, &c, &root_arrivals, &bases);
                        e.root_arrivals = root_arrivals;
                    }
                    CollectiveKind::ReduceScatter => {
                        let root_reduce = e.reduce(t, &c);
                        e.scatter(t, &c, root_reduce);
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::treegen::{TreeGen, TreeGenOptions};
    use blink_graph::Arborescence;
    use blink_sim::{OpKind, Simulator};
    use blink_topology::presets::dgx1v;
    use blink_topology::Topology;

    fn mb(n: u64) -> u64 {
        n * 1024 * 1024
    }

    fn plan_for(ids: &[usize], root: usize) -> (Topology, Vec<WeightedTree>) {
        let machine = dgx1v();
        let alloc: Vec<GpuId> = ids.iter().map(|&i| GpuId(i)).collect();
        let topo = machine.induced(&alloc).unwrap();
        let tg = TreeGen::new(topo, TreeGenOptions::default());
        let plan = tg.plan(GpuId(root)).unwrap();
        (machine, plan.trees)
    }

    #[test]
    fn full_dgx1v_broadcast_approaches_the_packing_rate() {
        let (machine, trees) = plan_for(&[0, 1, 2, 3, 4, 5, 6, 7], 0);
        let bytes = mb(500);
        let prog = CodeGen::default()
            .build(&trees, CollectiveKind::Broadcast { root: GpuId(0) }, bytes)
            .unwrap();
        let report = Simulator::with_defaults(machine).run(&prog).unwrap();
        let bw = report.algorithmic_bandwidth_gbps(bytes);
        assert!(bw > 110.0 && bw <= 140.0, "bw = {bw}");
    }

    #[test]
    fn full_dgx1v_allreduce_is_roughly_half_of_broadcast() {
        let (machine, trees) = plan_for(&[0, 1, 2, 3, 4, 5, 6, 7], 0);
        let bytes = mb(200);
        let sim = Simulator::with_defaults(machine);
        let cg = CodeGen::default();
        let bcast = sim
            .run(
                &cg.build(&trees, CollectiveKind::Broadcast { root: GpuId(0) }, bytes)
                    .unwrap(),
            )
            .unwrap()
            .algorithmic_bandwidth_gbps(bytes);
        let ar = sim
            .run(&cg.build(&trees, CollectiveKind::AllReduce, bytes).unwrap())
            .unwrap()
            .algorithmic_bandwidth_gbps(bytes);
        assert!(ar < 0.8 * bcast, "allreduce {ar} vs broadcast {bcast}");
        assert!(ar > 0.3 * bcast, "allreduce {ar} vs broadcast {bcast}");
    }

    #[test]
    fn broadcast_volume_matches_trees() {
        // all trees over {0,1,3} span 3 GPUs -> 2 edges each; every edge
        // carries its tree's share exactly once, so the total volume copied is
        // 2x the buffer regardless of how many trees are packed.
        let (_, trees) = plan_for(&[0, 1, 3], 0);
        let bytes = mb(60);
        let prog = CodeGen::default()
            .build(&trees, CollectiveKind::Broadcast { root: GpuId(0) }, bytes)
            .unwrap();
        assert_eq!(prog.total_copy_bytes(), bytes * 2);
    }

    #[test]
    fn gather_and_reduce_volumes_differ() {
        let (_, trees) = plan_for(&[0, 1, 2, 3], 0);
        let bytes = mb(40);
        let cg = CodeGen::default();
        let gather = cg
            .build(&trees, CollectiveKind::Gather { root: GpuId(0) }, bytes)
            .unwrap()
            .total_copy_bytes();
        let reduce = cg
            .build(&trees, CollectiveKind::Reduce { root: GpuId(0) }, bytes)
            .unwrap()
            .total_copy_bytes();
        // gather must carry distinct contributions (more volume than reduce)
        assert!(gather > reduce, "gather {gather} vs reduce {reduce}");
        // reduce carries each tree's share over each of its edges once
        let reduce_expected: u64 = {
            let shares = split_by_weight(&trees, bytes);
            trees
                .iter()
                .zip(shares)
                .map(|(t, s)| s * t.tree.edges.len() as u64)
                .sum()
        };
        assert_eq!(reduce, reduce_expected);
    }

    #[test]
    fn mismatched_root_is_rejected() {
        let (_, trees) = plan_for(&[0, 1, 3], 0);
        let err = CodeGen::default()
            .build(&trees, CollectiveKind::Broadcast { root: GpuId(1) }, mb(1))
            .unwrap_err();
        assert!(matches!(err, BlinkError::CodeGen(_)));
    }

    #[test]
    fn allgather_and_reducescatter_build_and_run() {
        let (machine, trees) = plan_for(&[0, 1, 2, 3], 0);
        let bytes = mb(32);
        let sim = Simulator::with_defaults(machine);
        let cg = CodeGen::default();
        for kind in [CollectiveKind::AllGather, CollectiveKind::ReduceScatter] {
            let prog = cg.build(&trees, kind, bytes).unwrap();
            assert!(!prog.is_empty());
            let report = sim.run(&prog).unwrap();
            assert!(report.total_us > 0.0, "{kind} must take time");
        }
    }

    #[test]
    fn zero_bytes_and_empty_plans_are_empty_programs() {
        let (_, trees) = plan_for(&[0, 1, 3], 0);
        let cg = CodeGen::default();
        assert!(cg
            .build(&trees, CollectiveKind::AllReduce, 0)
            .unwrap()
            .is_empty());
        assert!(cg
            .build(&[], CollectiveKind::AllReduce, mb(1))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn gate_ops_precede_everything() {
        let (machine, trees) = plan_for(&[0, 1, 3], 0);
        let mut builder = ProgramBuilder::new();
        let s = builder.new_stream();
        let gate = builder.toggle_peer_access(3, s, &[], "dpa");
        CodeGen::default()
            .emit_into(
                &mut builder,
                &trees,
                CollectiveKind::Broadcast { root: GpuId(0) },
                mb(16),
                &[gate],
            )
            .unwrap();
        let prog = builder.build().unwrap();
        let report = Simulator::with_defaults(machine).run(&prog).unwrap();
        let (_, gate_end) = report.op_spans[gate.0];
        // every copy starts after the gate completes
        for (i, op) in prog.ops().enumerate() {
            if i == gate.0 {
                continue;
            }
            let _ = op;
            assert!(report.op_spans[i].0 >= gate_end - 1e-9);
        }
    }

    /// Sorts `ranges` and asserts they tile `[start, end)` exactly (no gap,
    /// no overlap).
    fn assert_tiles(mut ranges: Vec<(u64, u64)>, start: u64, end: u64, what: &str) {
        ranges.sort_unstable();
        let mut cur = start;
        for (s, e) in ranges {
            assert_eq!(s, cur, "{what}: gap or overlap at {s}");
            cur = e;
        }
        assert_eq!(cur, end, "{what}: ranges stop short of {end}");
    }

    #[test]
    fn emitted_ranges_are_chunk_exact() {
        let (_, trees) = plan_for(&[0, 1, 2, 3], 0);
        let bytes = mb(10) + 3;
        let cg = CodeGen::default();

        // Broadcast: the copies into each non-root GPU tile [0, bytes)
        let prog = cg
            .build(&trees, CollectiveKind::Broadcast { root: GpuId(0) }, bytes)
            .unwrap();
        for dst in 1..4 {
            let ranges: Vec<(u64, u64)> = prog
                .ops()
                .filter(|o| matches!(o.kind, OpKind::Copy { dst: d, .. } if d == GpuId(dst)))
                .flat_map(|o| o.segments.iter().map(|s| (s.offset, s.end())))
                .collect();
            assert_tiles(ranges, 0, bytes, "broadcast delivery");
        }

        // ReduceScatter: each rank's received shards plus the root's resident
        // shard tile its canonical shard exactly
        let prog = cg
            .build(&trees, CollectiveKind::ReduceScatter, bytes)
            .unwrap();
        for rank in 1u64..4 {
            let (shard_s, shard_e) = (rank * bytes / 4, (rank + 1) * bytes / 4);
            let ranges: Vec<(u64, u64)> = prog
                .ops()
                .filter(|o| {
                    matches!(o.kind, OpKind::Copy { dst: d, .. } if d == GpuId(rank as usize))
                        && o.tag == "blink scatter"
                })
                .flat_map(|o| o.segments.iter().map(|s| (s.offset, s.end())))
                .filter(|&(s, e)| s >= shard_s && e <= shard_e)
                .collect();
            assert_tiles(ranges, shard_s, shard_e, "scatter shard");
        }

        // emit_range_into: a sub-range emission never addresses outside its
        // share for the reducing collectives, and reductions match copies
        let mut b = ProgramBuilder::new();
        let (base, share, total) = (mb(3), mb(4) + 1, mb(10) + 3);
        cg.emit_range_into(
            &mut b,
            &trees,
            CollectiveKind::AllReduce,
            total,
            base,
            share,
            &[],
        )
        .unwrap();
        let prog = b.build().unwrap();
        for op in prog.ops() {
            for seg in op.segments {
                assert!(
                    seg.offset >= base && seg.end() <= base + share,
                    "op range [{}, {}) escapes the share [{base}, {})",
                    seg.offset,
                    seg.end(),
                    base + share
                );
            }
        }
        // an out-of-bounds share is rejected outright
        let mut b = ProgramBuilder::new();
        assert!(cg
            .emit_range_into(
                &mut b,
                &trees,
                CollectiveKind::AllReduce,
                total,
                total - 1,
                2,
                &[],
            )
            .is_err());
    }

    /// Expected data-moving op counts: one op per edge per chunk, whatever
    /// the subtree sizes — the pre-exact-range op counts, restored by
    /// segmented payloads.
    fn edges_times_chunks(trees: &[WeightedTree], bytes: u64, chunk: u64) -> usize {
        let shares = split_by_weight(trees, bytes);
        trees
            .iter()
            .zip(shares)
            .map(|(t, s)| t.tree.edges.len() * Chunks::new(s, chunk).count() as usize)
            .sum()
    }

    #[test]
    fn gather_family_emits_one_op_per_edge_per_chunk_on_dgx1v() {
        let (_, trees) = plan_for(&[0, 1, 2, 3, 4, 5, 6, 7], 0);
        let bytes = mb(12) + 7;
        let chunk = 1 << 20;
        let cg = CodeGen::new(CodeGenOptions {
            chunk_bytes: chunk,
            ..Default::default()
        });
        let expect = edges_times_chunks(&trees, bytes, chunk);

        // Gather: exactly one copy per edge per chunk, nothing else
        let prog = cg
            .build(&trees, CollectiveKind::Gather { root: GpuId(0) }, bytes)
            .unwrap();
        assert_eq!(prog.len(), expect, "gather is one op per edge per chunk");
        assert!(prog.ops().all(|o| matches!(o.kind, OpKind::Copy { .. })));

        // AllGather: the gather plus the slot redistribution — two copies
        // per edge per chunk (the redistribution carries every slot as one
        // segmented op, not one op per slot)
        let prog = cg.build(&trees, CollectiveKind::AllGather, bytes).unwrap();
        assert_eq!(
            prog.len(),
            2 * expect,
            "allgather is two ops per edge per chunk"
        );

        // ReduceScatter: the scatter phase never issues two copies for the
        // same (edge, chunk) — shards travel as segments of one op. A
        // chunk's shard segments lie inside that chunk's range, so two
        // copies of one (edge, chunk) would repeat their first segment.
        let prog = cg
            .build(&trees, CollectiveKind::ReduceScatter, bytes)
            .unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for o in prog.ops() {
            if o.tag != "blink scatter" {
                continue;
            }
            if let OpKind::Copy { src, dst, .. } = o.kind {
                let segs = o.segments;
                assert!(
                    seen.insert((src, dst, segs[0])),
                    "duplicate scatter op for {src}->{dst} at {:?}",
                    segs[0]
                );
            }
        }
    }

    #[test]
    fn one_hop_allgather_op_count_is_pinned_on_dgx2() {
        // 16 one-hop trees x 15 edges x 1 chunk x (gather + redistribute)
        let alloc: Vec<GpuId> = (0..16).map(GpuId).collect();
        let trees = crate::onehop::one_hop_trees(&alloc, 138.0 / 16.0);
        let bytes = mb(16); // 1 MB per tree share, one chunk each
        let cg = CodeGen::default();
        let prog = cg.build(&trees, CollectiveKind::AllGather, bytes).unwrap();
        assert_eq!(prog.len(), 16 * 15 * 2, "one op per edge per chunk");
        // the redistribution ops each carry all 16 slot segments; the gather
        // ops exactly one (a one-hop subtree is a single leaf)
        for o in prog.ops() {
            let n_segs = o.segments.len();
            if o.tag == "blink bcast" {
                assert_eq!(n_segs, 16, "{}", o.tag);
            } else {
                assert_eq!(n_segs, 1, "{}", o.tag);
            }
        }
        // volume is unchanged by aggregation: every edge gathers one 1 MB
        // slot chunk up and redistributes all 16 down
        assert_eq!(prog.total_copy_bytes(), 16 * 15 * mb(1) * (1 + 16));
    }

    #[test]
    fn chunk_splitting_conserves_bytes() {
        for (total, target) in [(mb(500), 4 << 20), (12345u64, 1000u64), (1, 1 << 20)] {
            let chunks = Chunks::new(total, target);
            let mut next = 0;
            for i in 0..chunks.count() {
                let (offset, len) = chunks.get(i);
                assert_eq!(offset, next, "chunks tile their share");
                assert!(len > 0 && len <= target);
                next += len;
            }
            assert_eq!(next, total);
        }
        // counting the chunks of a huge share allocates nothing
        assert_eq!(Chunks::new(u64::MAX, 1).count(), u64::MAX);
        let (_, trees) = plan_for(&[0, 1, 2, 3, 4, 5, 6, 7], 0);
        let shares = split_by_weight(&trees, mb(1000));
        assert_eq!(shares.iter().sum::<u64>(), mb(1000));
    }

    /// One tree set of the identity matrix: rooted collectives lower over
    /// `rooted` (every tree rooted at `root`), all-to-all ones over
    /// `rootless`.
    struct MatrixCase {
        label: String,
        root: GpuId,
        rooted: Vec<WeightedTree>,
        rootless: Vec<WeightedTree>,
        class: LinkClass,
    }

    /// Every DGX-1V and DGX-1P isomorphism class of 2–8 GPUs (two members
    /// each, packed at the member's first GPU, over PCIe where NVLink cannot
    /// span it), plus DGX-2 packed and one-hop tree sets.
    fn identity_matrix() -> Vec<MatrixCase> {
        use crate::onehop::{one_hop_broadcast_tree, one_hop_trees};
        use crate::treegen::LinkSelection;
        use blink_topology::enumerate::unique_allocations;
        use blink_topology::presets::{dgx1p, dgx2};

        let packed = |machine: &Topology, alloc: &[GpuId], links: LinkSelection| {
            let topo = machine.induced(alloc).unwrap();
            let options = TreeGenOptions {
                links,
                ..Default::default()
            };
            TreeGen::new(topo, options).plan(alloc[0]).ok()
        };
        let mut cases = Vec::new();
        for machine in [dgx1v(), dgx1p()] {
            for class in unique_allocations(&machine, 2..=8).unwrap() {
                for alloc in class.members.iter().take(2) {
                    let (plan, class) = match packed(&machine, alloc, LinkSelection::NvLinkOnly) {
                        Some(plan) => (plan, LinkClass::NvLink),
                        None => (
                            packed(&machine, alloc, LinkSelection::PcieOnly).unwrap(),
                            LinkClass::Pcie,
                        ),
                    };
                    cases.push(MatrixCase {
                        label: format!("{} {alloc:?} packed", machine.name()),
                        root: alloc[0],
                        rooted: plan.trees.clone(),
                        rootless: plan.trees,
                        class,
                    });
                }
            }
        }
        let machine = dgx2();
        for alloc in [
            (0..16).map(GpuId).collect::<Vec<_>>(),
            [1, 4, 9, 12, 14].into_iter().map(GpuId).collect(),
        ] {
            let plan = packed(&machine, &alloc, LinkSelection::NvLinkOnly).unwrap();
            cases.push(MatrixCase {
                label: format!("dgx2 {alloc:?} packed"),
                root: alloc[0],
                rooted: plan.trees.clone(),
                rootless: plan.trees,
                class: LinkClass::NvLink,
            });
            let cap = 138.0;
            cases.push(MatrixCase {
                label: format!("dgx2 {alloc:?} one-hop"),
                root: alloc[1],
                rooted: vec![one_hop_broadcast_tree(&alloc, alloc[1], cap)],
                rootless: one_hop_trees(&alloc, cap / alloc.len() as f64),
                class: LinkClass::NvLink,
            });
        }
        cases
    }

    #[test]
    fn layout_emitters_match_the_per_op_reference() {
        let cases = identity_matrix();
        // (bytes, chunk)
        let sizes = [(mb(64), 4 << 20), (1_000_003, 65_536), (7, 1)];
        let mut programs = 0;
        for case in &cases {
            let kinds = [
                CollectiveKind::Broadcast { root: case.root },
                CollectiveKind::Gather { root: case.root },
                CollectiveKind::Reduce { root: case.root },
                CollectiveKind::AllReduce,
                CollectiveKind::AllGather,
                CollectiveKind::ReduceScatter,
            ];
            for kind in kinds {
                let trees = if kind.root().is_some() {
                    &case.rooted
                } else {
                    &case.rootless
                };
                for (bytes, chunk_bytes) in sizes {
                    let options = CodeGenOptions {
                        chunk_bytes,
                        link_class: case.class,
                    };
                    let got = CodeGen::new(options).build(trees, kind, bytes).unwrap();
                    let want = reference::build(&options, trees, kind, bytes).unwrap();
                    assert!(
                        got == want,
                        "{}: {kind} over {bytes} B diverges from the reference",
                        case.label
                    );
                    // a gated sub-range emission after foreign ops
                    let emit = |reference_side: bool| {
                        let mut b = ProgramBuilder::new();
                        let s = b.new_stream();
                        let gate = b.toggle_peer_access(3, s, &[], "dpa");
                        let (base, share) = (bytes / 4, bytes / 2);
                        if reference_side {
                            reference::emit_range_into(
                                &options,
                                &mut b,
                                trees,
                                kind,
                                bytes,
                                base,
                                share,
                                &[gate],
                            )
                        } else {
                            CodeGen::new(options).emit_range_into(
                                &mut b,
                                trees,
                                kind,
                                bytes,
                                base,
                                share,
                                &[gate],
                            )
                        }
                        .unwrap();
                        b.build().unwrap()
                    };
                    assert!(
                        emit(false) == emit(true),
                        "{}: gated sub-range {kind} over {bytes} B diverges",
                        case.label
                    );
                    programs += 2;
                }
            }
        }
        assert!(programs > 2_000, "the matrix shrank to {programs} programs");
    }

    #[test]
    fn malformed_plans_are_codegen_errors_not_panics() {
        let (_, trees) = plan_for(&[0, 1, 2, 3], 0);
        let cg = CodeGen::default();
        let kinds = [
            CollectiveKind::Broadcast { root: GpuId(0) },
            CollectiveKind::Gather { root: GpuId(0) },
            CollectiveKind::Reduce { root: GpuId(0) },
            CollectiveKind::AllReduce,
            CollectiveKind::AllGather,
            CollectiveKind::ReduceScatter,
        ];
        let rejects = |trees: &[WeightedTree], what: &str| {
            for kind in kinds {
                let err = cg.build(trees, kind, mb(8)).unwrap_err();
                assert!(
                    matches!(err, BlinkError::CodeGen(_)),
                    "{what}, {kind}: {err}"
                );
            }
        };
        for weight in [f64::NAN, f64::INFINITY, -1.0] {
            let mut bad = trees.clone();
            bad[0].weight = weight;
            rejects(&bad, &format!("weight {weight}"));
        }
        // a tree over a different vertex set than the first
        let (_, fewer) = plan_for(&[0, 1, 3], 0);
        rejects(&[trees[0].clone(), fewer[0].clone()], "vertex sets differ");
        rejects(&[fewer[0].clone(), trees[0].clone()], "vertex sets differ");
        // edge lists that are not arborescences
        let tree = |edges: &[(usize, usize)]| WeightedTree {
            tree: Arborescence {
                root: GpuId(0),
                edges: edges.iter().map(|&(p, c)| (GpuId(p), GpuId(c))).collect(),
            },
            weight: 1.0,
        };
        rejects(&[tree(&[(0, 1), (1, 2), (2, 1)])], "a vertex reached twice");
        rejects(&[tree(&[(0, 1), (0, 1)])], "a duplicated edge");
        rejects(
            &[tree(&[(0, 1), (2, 3)])],
            "an edge the root does not reach",
        );
    }

    #[test]
    fn huge_byte_counts_are_rejected_before_allocating() {
        let (_, trees) = plan_for(&[0, 1, 2, 3], 0);
        let cg = CodeGen::default();
        for bytes in [u64::MAX, 1_000_000_000_000_000] {
            let err = cg
                .build(&trees, CollectiveKind::AllReduce, bytes)
                .unwrap_err();
            assert!(err.to_string().contains("op program budget"), "{err}");
        }
        // the budget counts what the builder already holds
        let mut b = ProgramBuilder::new();
        let s = b.new_stream();
        for _ in 0..MAX_PROGRAM_OPS {
            b.compute(GpuId(0), 0.0, s, &[], "filler");
        }
        let err = cg
            .emit_into(&mut b, &trees, CollectiveKind::AllReduce, 1, &[])
            .unwrap_err();
        assert!(matches!(err, BlinkError::CodeGen(_)), "{err}");
        // a sub-range whose end overflows u64 is out of bounds, not a panic
        let mut b = ProgramBuilder::new();
        let err = cg
            .emit_range_into(
                &mut b,
                &trees,
                CollectiveKind::AllReduce,
                u64::MAX,
                u64::MAX,
                1,
                &[],
            )
            .unwrap_err();
        assert!(matches!(err, BlinkError::CodeGen(_)), "{err}");
        // one chunk per tree: a u64::MAX buffer lowers with exact ranges,
        // except where the gathered slot space itself overflows u64
        let whole = CodeGen::new(CodeGenOptions {
            chunk_bytes: u64::MAX,
            ..Default::default()
        });
        for kind in [
            CollectiveKind::Broadcast { root: GpuId(0) },
            CollectiveKind::Reduce { root: GpuId(0) },
            CollectiveKind::AllReduce,
            CollectiveKind::ReduceScatter,
        ] {
            let prog = whole.build(&trees, kind, u64::MAX).unwrap();
            assert!(!prog.is_empty(), "{kind}");
        }
        for kind in [
            CollectiveKind::Gather { root: GpuId(0) },
            CollectiveKind::AllGather,
        ] {
            let err = whole.build(&trees, kind, u64::MAX).unwrap_err();
            assert!(err.to_string().contains("overflows"), "{kind}: {err}");
        }
    }
}
