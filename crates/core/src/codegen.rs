//! CodeGen: lowering tree plans to chunked, pipelined transfer programs
//! (Section 4 of the paper).
//!
//! For every collective the generated program follows the paper's recipe:
//!
//! * the buffer is split across trees proportionally to their weights,
//! * each tree's share is further divided into chunks so that forwarding can
//!   start before the whole share has arrived (Figure 11),
//! * every (link, tree position) gets a CUDA-stream equivalent; when the same
//!   link appears at the same position in several trees the stream is *reused*
//!   so chunks from the two trees interleave fairly (Section 4.2.2,
//!   Figure 13),
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
use blink_sim::{LinkClass, OpId, Program, ProgramBuilder, Segment, StreamId};
use blink_topology::GpuId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

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
    /// Reuse streams when a link occupies the same position in two trees
    /// (Section 4.2.2). Disabling this is an ablation knob.
    pub stream_reuse: bool,
    /// Which link class the copies use.
    pub link_class: LinkClass,
}

impl Default for CodeGenOptions {
    fn default() -> Self {
        CodeGenOptions {
            chunk_bytes: 4 << 20,
            // The paper reuses streams to work around CUDA's unfair scheduling
            // of competing streams on one link. The simulator arbitrates links
            // fairly at chunk granularity, so sharing a FIFO stream across
            // trees only adds head-of-line coupling; it is therefore off by
            // default and kept as an ablation knob.
            stream_reuse: false,
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

/// Stream slots per (link, tree position): one per tree edge and direction,
/// or one per `(src, dst, position)` shared across trees when stream reuse
/// is on. A slot becomes a stream on first use, so stream ids are handed out
/// in emission order.
struct Streams {
    reuse: bool,
    by_position: BTreeMap<(GpuId, GpuId, usize), usize>,
    ids: Vec<Option<StreamId>>,
}

impl Streams {
    fn new(reuse: bool) -> Self {
        Streams {
            reuse,
            by_position: BTreeMap::new(),
            ids: Vec::new(),
        }
    }

    /// The slot of the `src → dst` edge at tree depth `position`.
    fn slot(&mut self, src: GpuId, dst: GpuId, position: usize) -> usize {
        let fresh = self.ids.len();
        let slot = if self.reuse {
            *self
                .by_position
                .entry((src, dst, position))
                .or_insert(fresh)
        } else {
            fresh
        };
        if slot == fresh {
            self.ids.push(None);
        }
        slot
    }

    fn stream(&mut self, b: &mut ProgramBuilder, slot: usize) -> StreamId {
        *self.ids[slot].get_or_insert_with(|| b.new_stream())
    }
}

/// One tree's shape, resolved once per lowering. Vertices are indices into
/// `order`; index 0 is the root.
struct TreeLayout {
    /// Vertices in BFS order from the root, each vertex's children in
    /// ascending [`GpuId`] order — so the children of vertex `i` are the
    /// contiguous run `first_child[i]..first_child[i + 1]`.
    order: Vec<GpuId>,
    /// Parent of each vertex (the root's entry is unused).
    parent: Vec<usize>,
    /// Distance from the root.
    depth: Vec<usize>,
    first_child: Vec<usize>,
    /// Subtree of vertex `i` — itself, then its descendants in BFS order — as
    /// slot ranks: `subtree[subtree_start[i]..subtree_start[i + 1]]`.
    subtree: Vec<usize>,
    subtree_start: Vec<usize>,
    /// Stream slot of the edge into each vertex (parent → vertex).
    down: Vec<usize>,
    /// Stream slot of the edge out of each vertex (vertex → parent).
    up: Vec<usize>,
}

impl TreeLayout {
    /// Walks `wt`'s tree breadth-first from its root, rejecting a weight the
    /// byte split cannot use and any edge list that is not an arborescence
    /// (a vertex reached twice, an edge the root does not reach).
    fn walk(wt: &WeightedTree) -> Result<Self> {
        let tree = &wt.tree;
        if !(wt.weight.is_finite() && wt.weight >= 0.0) {
            return Err(BlinkError::CodeGen(format!(
                "tree rooted at {} has weight {}; weights must be finite and non-negative",
                tree.root, wt.weight
            )));
        }
        let mut edges = tree.edges.clone();
        edges.sort_unstable();
        let n = edges.len() + 1;
        let mut order = Vec::with_capacity(n);
        let mut parent = Vec::with_capacity(n);
        let mut depth = Vec::with_capacity(n);
        let mut first_child = Vec::with_capacity(n + 1);
        order.push(tree.root);
        parent.push(0);
        depth.push(0);
        let mut i = 0;
        while i < order.len() {
            let v = order[i];
            first_child.push(order.len());
            let start = edges.partition_point(|&(p, _)| p < v);
            for &(_, c) in edges[start..].iter().take_while(|&&(p, _)| p == v) {
                if order.contains(&c) {
                    return Err(BlinkError::CodeGen(format!(
                        "tree rooted at {} reaches {c} twice",
                        tree.root
                    )));
                }
                order.push(c);
                parent.push(i);
                depth.push(depth[i] + 1);
            }
            i += 1;
        }
        first_child.push(order.len());
        if order.len() != n {
            return Err(BlinkError::CodeGen(format!(
                "tree rooted at {} has edges its root does not reach",
                tree.root
            )));
        }
        Ok(TreeLayout {
            order,
            parent,
            depth,
            first_child,
            subtree: Vec::new(),
            subtree_start: Vec::new(),
            down: Vec::new(),
            up: Vec::new(),
        })
    }

    /// Resolves the subtrees (as ranks in `participants`) and stream slots.
    /// Fails unless the tree spans exactly `participants`.
    fn resolve(&mut self, participants: &[GpuId], streams: &mut Streams) -> Result<()> {
        let n = self.order.len();
        let rank = |g: &GpuId| participants.binary_search(g);
        if n != participants.len() || self.order.iter().any(|g| rank(g).is_err()) {
            return Err(BlinkError::CodeGen(format!(
                "tree rooted at {} spans {:?}, not the first tree's {participants:?}",
                self.order[0], self.order
            )));
        }
        self.subtree_start = Vec::with_capacity(n + 1);
        for v in 0..n {
            let start = self.subtree.len();
            self.subtree_start.push(start);
            self.subtree.push(v);
            let mut j = start;
            while j < self.subtree.len() {
                let u = self.subtree[j];
                self.subtree.extend(self.children(u));
                j += 1;
            }
        }
        self.subtree_start.push(self.subtree.len());
        for m in &mut self.subtree {
            *m = rank(&self.order[*m]).expect("every vertex was ranked above");
        }
        self.down = vec![usize::MAX; n];
        self.up = vec![usize::MAX; n];
        for v in 1..n {
            let (p, c) = (self.order[self.parent[v]], self.order[v]);
            self.down[v] = streams.slot(p, c, self.depth[self.parent[v]]);
            self.up[v] = streams.slot(c, p, self.depth[v]);
        }
        Ok(())
    }

    fn children(&self, v: usize) -> std::ops::Range<usize> {
        self.first_child[v]..self.first_child[v + 1]
    }

    fn subtree(&self, v: usize) -> &[usize] {
        &self.subtree[self.subtree_start[v]..self.subtree_start[v + 1]]
    }

    /// Upper bound on the ops one chunk of `kind` emits over this tree.
    fn ops_per_chunk(&self, kind: CollectiveKind) -> u128 {
        let edges = (self.order.len() - 1) as u128;
        let reduces = (0..self.order.len())
            .filter(|&v| !self.children(v).is_empty())
            .count() as u128;
        match kind {
            CollectiveKind::Broadcast { .. } | CollectiveKind::Gather { .. } => edges,
            CollectiveKind::Reduce { .. } => edges + reduces,
            CollectiveKind::AllGather => 2 * edges,
            CollectiveKind::AllReduce | CollectiveKind::ReduceScatter => 2 * edges + reduces,
        }
    }
}

/// One chunk of one tree's share.
struct Chunk {
    tree: usize,
    idx: u64,
    /// Absolute start of the chunk's range within `[0, total)`.
    offset: u64,
    bytes: u64,
}

/// Emission state of one lowering, shared by the per-chunk emitters.
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
}

impl Emitter<'_> {
    fn gated(&self, deps: Vec<OpId>) -> Vec<OpId> {
        if deps.is_empty() {
            self.gate.to_vec()
        } else {
            deps
        }
    }

    /// Deps of an op sent down from vertex `p`: `root_deps` at the root,
    /// else whatever delivered the chunk to `p`.
    fn deps_below(&self, p: usize, root_deps: &[OpId]) -> Vec<OpId> {
        if p == 0 {
            self.gated(root_deps.to_vec())
        } else {
            self.gated(self.arrival[p].into_iter().collect())
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
        // BFS order lists the edges parent-first
        for v in 1..t.order.len() {
            let p = t.parent[v];
            let stream = self.streams.stream(self.b, t.down[v]);
            let deps = self.deps_below(p, root_deps);
            let segs = bases.iter().map(|&b| Segment::new(b, c.bytes)).collect();
            let id = self.b.copy_segs(
                t.order[p],
                t.order[v],
                segs,
                self.class,
                stream,
                deps,
                format!("blink bcast t{} c{}", c.tree, c.idx),
            );
            self.arrival[v] = Some(id);
        }
    }

    /// Gather one chunk up a tree (no reduction): every vertex forwards its
    /// own slot sub-range and the slot sub-ranges its subtree delivered as
    /// **one** copy per edge whose segment list names every slot exactly —
    /// op counts stay one per edge per chunk no matter how deep the subtree,
    /// without giving up range exactness. Returns the copies that arrive at
    /// the root (the deps a follow-up redistribution phase must wait for).
    fn gather(&mut self, t: &TreeLayout, c: &Chunk) -> Vec<OpId> {
        let mut root_arrivals = Vec::new();
        for v in (1..t.order.len()).rev() {
            let p = t.parent[v];
            let deps: Vec<OpId> = t.children(v).filter_map(|ch| self.arrival[ch]).collect();
            let stream = self.streams.stream(self.b, t.up[v]);
            let segs = t
                .subtree(v)
                .iter()
                .map(|&r| Segment::new(r as u64 * self.total + c.offset, c.bytes))
                .collect();
            let deps = self.gated(deps);
            let id = self.b.copy_segs(
                t.order[v],
                t.order[p],
                segs,
                self.class,
                stream,
                deps,
                format!("blink gather t{} c{}", c.tree, c.idx),
            );
            if p == 0 {
                root_arrivals.push(id);
            }
            self.arrival[v] = Some(id);
        }
        root_arrivals
    }

    /// Reduce one chunk up a tree. Returns the root's final reduction op
    /// (when the tree has more than one vertex).
    fn reduce(&mut self, t: &TreeLayout, c: &Chunk) -> Option<OpId> {
        let mut root_reduce = None;
        for v in (0..t.order.len()).rev() {
            let kids = t.children(v);
            let mut deps: Vec<OpId> = kids.clone().filter_map(|ch| self.arrival[ch]).collect();
            if !kids.is_empty() {
                // reduce the children's contributions with the local
                // buffer, in the stream of the outgoing copy (or the first
                // child's downward stream at the root)
                let slot = if v == 0 { t.down[kids.start] } else { t.up[v] };
                let stream = self.streams.stream(self.b, slot);
                let gated = self.gated(std::mem::take(&mut deps));
                let red = self.b.reduce_range(
                    t.order[v],
                    c.offset,
                    c.bytes,
                    stream,
                    gated,
                    format!("blink reduce t{} c{}", c.tree, c.idx),
                );
                deps.push(red);
                if v == 0 {
                    root_reduce = Some(red);
                }
            }
            if v != 0 {
                let stream = self.streams.stream(self.b, t.up[v]);
                let deps = self.gated(deps);
                let id = self.b.copy_range(
                    t.order[v],
                    t.order[t.parent[v]],
                    c.offset,
                    c.bytes,
                    self.class,
                    stream,
                    deps,
                    format!("blink reduce-up t{} c{}", c.tree, c.idx),
                );
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
        for v in 1..t.order.len() {
            let segs: Vec<Segment> = t
                .subtree(v)
                .iter()
                .filter_map(|&r| {
                    let (lo, hi) = self.shards[r];
                    let start = lo.max(c.offset);
                    let len = hi.min(end).saturating_sub(start);
                    (len > 0).then(|| Segment::new(start, len))
                })
                .collect();
            if segs.is_empty() {
                // the whole subtree skips this chunk: no descendant reads
                // the vertex's arrival slot
                continue;
            }
            let p = t.parent[v];
            let stream = self.streams.stream(self.b, t.down[v]);
            let deps = self.deps_below(p, root_dep.as_slice());
            let id = self.b.copy_segs(
                t.order[p],
                t.order[v],
                segs,
                self.class,
                stream,
                deps,
                format!("blink scatter t{} c{}", c.tree, c.idx),
            );
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
        let mut layouts = trees
            .iter()
            .map(TreeLayout::walk)
            .collect::<Result<Vec<_>>>()?;
        // slot ranks are assigned in ascending GpuId order over the first
        // tree's vertex set, matching blink_sim::semantics::check_collective
        let mut participants = layouts.first().map(|l| l.order.clone()).unwrap_or_default();
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
        let mut streams = Streams::new(self.options.stream_reuse);
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
        let planned = layouts
            .iter()
            .zip(&chunks)
            .map(|(l, (_, ch))| u128::from(ch.count()) * l.ops_per_chunk(kind))
            .sum();
        check_op_budget(builder.len(), planned)?;

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
        };
        let mut bases = Vec::new();
        let max_chunks = chunks.iter().map(|(_, ch)| ch.count()).max().unwrap_or(0);
        for idx in 0..max_chunks {
            for (tree, (t, &(tree_base, ch))) in layouts.iter().zip(&chunks).enumerate() {
                if idx >= ch.count() {
                    continue;
                }
                let (off, bytes) = ch.get(idx);
                let c = Chunk {
                    tree,
                    idx,
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
                        let root_arrivals = e.gather(t, &c);
                        // after gathering, the root redistributes every
                        // participant's slot sub-range for this chunk
                        bases.clear();
                        bases.extend((0..n as u64).map(|r| r * total + c.offset));
                        e.broadcast(t, &c, &root_arrivals, &bases);
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
    fn stream_reuse_reduces_stream_count() {
        let (_, trees) = plan_for(&[0, 1, 2, 3, 4, 5, 6, 7], 0);
        let bytes = mb(100);
        let with_reuse = CodeGen::new(CodeGenOptions {
            stream_reuse: true,
            ..Default::default()
        })
        .build(&trees, CollectiveKind::Broadcast { root: GpuId(0) }, bytes)
        .unwrap()
        .num_streams();
        let without_reuse = CodeGen::new(CodeGenOptions {
            stream_reuse: false,
            ..Default::default()
        })
        .build(&trees, CollectiveKind::Broadcast { root: GpuId(0) }, bytes)
        .unwrap()
        .num_streams();
        assert!(with_reuse <= without_reuse);
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
        let gate = builder.toggle_peer_access(3, s, vec![], "dpa");
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
        for (i, op) in prog.ops().iter().enumerate() {
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
                .iter()
                .filter(|o| matches!(o.kind, OpKind::Copy { dst: d, .. } if d == GpuId(dst)))
                .flat_map(|o| o.kind.segments().iter().map(|s| (s.offset, s.end())))
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
                .iter()
                .filter(|o| {
                    matches!(o.kind, OpKind::Copy { dst: d, .. } if d == GpuId(rank as usize))
                        && o.tag.starts_with("blink scatter")
                })
                .flat_map(|o| o.kind.segments().iter().map(|s| (s.offset, s.end())))
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
            for seg in op.kind.segments() {
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
        assert!(prog
            .ops()
            .iter()
            .all(|o| matches!(o.kind, OpKind::Copy { .. })));

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
        // same (edge, chunk) — shards travel as segments of one op
        let prog = cg
            .build(&trees, CollectiveKind::ReduceScatter, bytes)
            .unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for o in prog.ops() {
            if !o.tag.starts_with("blink scatter") {
                continue;
            }
            if let OpKind::Copy { src, dst, .. } = o.kind {
                assert!(
                    seen.insert((src, dst, o.tag.clone())),
                    "duplicate scatter op for {src}->{dst} {}",
                    o.tag
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
            let n_segs = o.kind.segments().len();
            if o.tag.starts_with("blink bcast") {
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
        // (bytes, chunk, stream reuse)
        let sizes = [
            (mb(64), 4 << 20, false),
            (1_000_003, 65_536, true),
            (7, 1, false),
        ];
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
                for (bytes, chunk_bytes, stream_reuse) in sizes {
                    let options = CodeGenOptions {
                        chunk_bytes,
                        stream_reuse,
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
                        let gate = b.toggle_peer_access(3, s, vec![], "dpa");
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
            b.compute(GpuId(0), 0.0, s, vec![], "filler");
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
