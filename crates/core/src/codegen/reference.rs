//! The per-op emitters CodeGen shipped before tree layouts: every op
//! re-derives its tree's parents, children, depths and subtrees from the
//! edge list. Kept as the identity oracle the layout-based emitters are
//! pinned against (`Program ==` over a matrix of machines, allocations,
//! kinds and sizes); reachable only from this crate's unit tests.

use super::CodeGenOptions;
use crate::collective::CollectiveKind;
use crate::{BlinkError, Result};
use blink_graph::{Arborescence, WeightedTree};
use blink_sim::{LinkClass, OpId, Program, ProgramBuilder, Segment, StreamId};
use blink_topology::GpuId;
use std::collections::BTreeMap;

fn chunk_sizes(total: u64, target: u64) -> Vec<u64> {
    if total == 0 {
        return Vec::new();
    }
    let target = target.max(1);
    let chunks = total.div_ceil(target);
    let base = total / chunks;
    let rem = total % chunks;
    (0..chunks)
        .map(|i| if i < rem { base + 1 } else { base })
        .filter(|&b| b > 0)
        .collect()
}

fn split_by_weight(trees: &[WeightedTree], bytes: u64) -> Vec<u64> {
    let total_weight: f64 = trees.iter().map(|t| t.weight).sum();
    if trees.is_empty() || total_weight <= 0.0 {
        return vec![0; trees.len()];
    }
    let mut out: Vec<u64> = trees
        .iter()
        .map(|t| ((t.weight / total_weight) * bytes as f64).floor() as u64)
        .collect();
    let assigned: u64 = out.iter().sum();
    if let Some(idx) = (0..trees.len()).max_by(|&a, &b| {
        trees[a]
            .weight
            .partial_cmp(&trees[b].weight)
            .expect("finite weights")
    }) {
        out[idx] += bytes - assigned;
    }
    out
}

/// Allocates one stream per tree edge and direction.
struct StreamAllocator {
    by_tree_edge: BTreeMap<(usize, GpuId, GpuId), StreamId>,
}

impl StreamAllocator {
    fn new() -> Self {
        StreamAllocator {
            by_tree_edge: BTreeMap::new(),
        }
    }

    fn stream(
        &mut self,
        b: &mut ProgramBuilder,
        tree_idx: usize,
        src: GpuId,
        dst: GpuId,
    ) -> StreamId {
        *self
            .by_tree_edge
            .entry((tree_idx, src, dst))
            .or_insert_with(|| b.new_stream())
    }
}

/// Per-tree, per-chunk emission context shared by the collective lowerings.
struct TreeChunk<'a> {
    tree_idx: usize,
    tree: &'a Arborescence,
    bytes: u64,
    offset: u64,
    total: u64,
    participants: &'a [GpuId],
    class: LinkClass,
    gate: &'a [OpId],
}

impl TreeChunk<'_> {
    fn gated(&self, deps: Vec<OpId>) -> Vec<OpId> {
        if deps.is_empty() {
            self.gate.to_vec()
        } else {
            deps
        }
    }

    fn slot_base(&self, gpu: GpuId) -> u64 {
        let rank = self
            .participants
            .binary_search(&gpu)
            .expect("every tree vertex is a participant");
        rank as u64 * self.total
    }

    fn shard_of(&self, gpu: GpuId) -> (u64, u64) {
        let n = self.participants.len().max(1) as u64;
        let i = self
            .participants
            .binary_search(&gpu)
            .expect("every tree vertex is a participant") as u64;
        let start = (i * self.total / n).max(self.offset);
        let end = ((i + 1) * self.total / n).min(self.offset + self.bytes);
        (start, end.saturating_sub(start))
    }
}

/// The reference `CodeGen::build`.
pub(super) fn build(
    options: &CodeGenOptions,
    trees: &[WeightedTree],
    kind: CollectiveKind,
    bytes: u64,
) -> Result<Program> {
    let mut builder = ProgramBuilder::new();
    emit_range_into(options, &mut builder, trees, kind, bytes, 0, bytes, &[])?;
    builder
        .build()
        .map_err(|e| BlinkError::CodeGen(e.to_string()))
}

/// The reference `CodeGen::emit_range_into`.
#[allow(clippy::too_many_arguments)]
pub(super) fn emit_range_into(
    options: &CodeGenOptions,
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
    if base + share > total {
        return Err(BlinkError::CodeGen(format!(
            "range [{base}, {}) exceeds the {total}-byte buffer",
            base + share
        )));
    }
    let participants: Vec<GpuId> = trees
        .first()
        .map(|t| {
            let mut v = t.tree.bfs_order();
            v.sort_unstable();
            v
        })
        .unwrap_or_default();
    let shares = split_by_weight(trees, share);
    let mut streams = StreamAllocator::new();

    let mut tree_base = base;
    let chunk_lists: Vec<Vec<(u64, u64)>> = shares
        .iter()
        .map(|&tree_share| {
            let mut off = tree_base;
            tree_base += tree_share;
            chunk_sizes(tree_share, options.chunk_bytes)
                .into_iter()
                .map(|len| {
                    let range = (off, len);
                    off += len;
                    range
                })
                .collect()
        })
        .collect();
    let max_chunks = chunk_lists.iter().map(Vec::len).max().unwrap_or(0);

    for chunk_idx in 0..max_chunks {
        for (tree_idx, wt) in trees.iter().enumerate() {
            let Some(&(chunk_offset, chunk_bytes)) = chunk_lists[tree_idx].get(chunk_idx) else {
                continue;
            };
            if chunk_bytes == 0 {
                continue;
            }
            let ctx = TreeChunk {
                tree_idx,
                tree: &wt.tree,
                bytes: chunk_bytes,
                offset: chunk_offset,
                total,
                participants: &participants,
                class: options.link_class,
                gate,
            };
            match kind {
                CollectiveKind::Broadcast { .. } => {
                    emit_broadcast(builder, &mut streams, &ctx, Vec::new(), &[ctx.offset]);
                }
                CollectiveKind::Gather { .. } => {
                    emit_gather(builder, &mut streams, &ctx);
                }
                CollectiveKind::Reduce { .. } => {
                    emit_reduce(builder, &mut streams, &ctx);
                }
                CollectiveKind::AllReduce => {
                    let root_reduce = emit_reduce(builder, &mut streams, &ctx);
                    emit_broadcast(
                        builder,
                        &mut streams,
                        &ctx,
                        root_reduce.map(|d| vec![d]).unwrap_or_default(),
                        &[ctx.offset],
                    );
                }
                CollectiveKind::AllGather => {
                    let root_arrivals = emit_gather(builder, &mut streams, &ctx);
                    let slots: Vec<u64> = participants
                        .iter()
                        .map(|&g| ctx.slot_base(g) + ctx.offset)
                        .collect();
                    emit_broadcast(builder, &mut streams, &ctx, root_arrivals, &slots);
                }
                CollectiveKind::ReduceScatter => {
                    let root_reduce = emit_reduce(builder, &mut streams, &ctx);
                    emit_scatter(builder, &mut streams, &ctx, root_reduce);
                }
            }
        }
    }
    Ok(())
}

fn emit_broadcast(
    b: &mut ProgramBuilder,
    streams: &mut StreamAllocator,
    ctx: &TreeChunk<'_>,
    root_deps: Vec<OpId>,
    bases: &[u64],
) {
    let tree = ctx.tree;
    let mut arrival: BTreeMap<GpuId, OpId> = BTreeMap::new();
    for (parent, child) in tree.edges_bfs() {
        let stream = streams.stream(b, ctx.tree_idx, parent, child);
        let deps = if parent == tree.root {
            ctx.gated(root_deps.clone())
        } else {
            ctx.gated(arrival.get(&parent).map(|&a| vec![a]).unwrap_or_default())
        };
        let segs: Vec<Segment> = bases
            .iter()
            .map(|&base| Segment::new(base, ctx.bytes))
            .collect();
        let id = b.copy_segs(
            parent,
            child,
            &segs,
            ctx.class,
            stream,
            &deps,
            "blink bcast",
        );
        arrival.insert(child, id);
    }
}

fn emit_gather(
    b: &mut ProgramBuilder,
    streams: &mut StreamAllocator,
    ctx: &TreeChunk<'_>,
) -> Vec<OpId> {
    let tree = ctx.tree;
    let mut order = tree.bfs_order();
    order.reverse();
    let mut sent: BTreeMap<GpuId, OpId> = BTreeMap::new();
    let mut root_arrivals = Vec::new();
    for &v in &order {
        let Some(parent) = tree.parent(v) else {
            continue;
        };
        let deps: Vec<OpId> = tree
            .children(v)
            .iter()
            .filter_map(|c| sent.get(c).copied())
            .collect();
        let stream = streams.stream(b, ctx.tree_idx, v, parent);
        let segs: Vec<Segment> = subtree_members(tree, v)
            .into_iter()
            .map(|m| Segment::new(ctx.slot_base(m) + ctx.offset, ctx.bytes))
            .collect();
        let id = b.copy_segs(
            v,
            parent,
            &segs,
            ctx.class,
            stream,
            &ctx.gated(deps),
            "blink gather",
        );
        if parent == tree.root {
            root_arrivals.push(id);
        }
        sent.insert(v, id);
    }
    root_arrivals
}

fn emit_reduce(
    b: &mut ProgramBuilder,
    streams: &mut StreamAllocator,
    ctx: &TreeChunk<'_>,
) -> Option<OpId> {
    let tree = ctx.tree;
    let mut order = tree.bfs_order();
    order.reverse();
    let mut uploaded: BTreeMap<GpuId, OpId> = BTreeMap::new();
    let mut root_reduce = None;
    for &v in &order {
        let children = tree.children(v);
        let mut deps: Vec<OpId> = children
            .iter()
            .filter_map(|c| uploaded.get(c).copied())
            .collect();
        let parent = tree.parent(v);
        if !children.is_empty() {
            let stream = match parent {
                Some(p) => streams.stream(b, ctx.tree_idx, v, p),
                None => streams.stream(b, ctx.tree_idx, v, children[0]),
            };
            let red = b.reduce_range(
                v,
                ctx.offset,
                ctx.bytes,
                stream,
                &ctx.gated(deps.clone()),
                "blink reduce",
            );
            deps = vec![red];
            if parent.is_none() {
                root_reduce = Some(red);
            }
        }
        if let Some(p) = parent {
            let stream = streams.stream(b, ctx.tree_idx, v, p);
            let id = b.copy_range(
                v,
                p,
                ctx.offset,
                ctx.bytes,
                ctx.class,
                stream,
                &ctx.gated(deps),
                "blink reduce-up",
            );
            uploaded.insert(v, id);
        }
    }
    root_reduce
}

fn emit_scatter(
    b: &mut ProgramBuilder,
    streams: &mut StreamAllocator,
    ctx: &TreeChunk<'_>,
    root_dep: Option<OpId>,
) {
    let tree = ctx.tree;
    let mut arrival: BTreeMap<GpuId, OpId> = BTreeMap::new();
    for (parent, child) in tree.edges_bfs() {
        let segs: Vec<Segment> = subtree_members(tree, child)
            .into_iter()
            .filter_map(|m| {
                let (start, len) = ctx.shard_of(m);
                (len > 0).then(|| Segment::new(start, len))
            })
            .collect();
        if segs.is_empty() {
            continue;
        }
        let stream = streams.stream(b, ctx.tree_idx, parent, child);
        let deps = if parent == tree.root {
            ctx.gated(root_dep.map(|d| vec![d]).unwrap_or_default())
        } else {
            ctx.gated(arrival.get(&parent).map(|&a| vec![a]).unwrap_or_default())
        };
        let id = b.copy_segs(
            parent,
            child,
            &segs,
            ctx.class,
            stream,
            &deps,
            "blink scatter",
        );
        arrival.insert(child, id);
    }
}

/// The vertices of `v`'s subtree (including `v`), in BFS order.
fn subtree_members(tree: &Arborescence, v: GpuId) -> Vec<GpuId> {
    let mut out = vec![v];
    let mut i = 0;
    while i < out.len() {
        out.extend(tree.children(out[i]));
        i += 1;
    }
    out
}
