//! Fusion of small concurrent collectives into one segmented program.
//!
//! Per-layer gradient buckets produce many *small* same-kind collectives in
//! flight at once, and small collectives cannot amortise their launch
//! overheads (Section 2.2 of the paper; SparCML makes the same observation
//! for sparse updates). The fusion pass batches consecutive small requests
//! into one collective over their **concatenated** logical address space:
//! request `i` of a fused group owns the window
//! `[offset_i, offset_i + bytes_i)` where `offset_i` is the sum of the byte
//! counts before it, and the group runs as a single program over
//! `total_bytes` — one planning pass, one set of launch overheads, segmented
//! `Segment` payloads carrying every constituent's ranges.
//!
//! Fusion by concatenation is only *contribution-exact* for collectives
//! whose logical space is uniformly `[0, bytes)` on every participant —
//! AllReduce, Broadcast and rooted Reduce ([`fusible`]). For those, the
//! fused program restricted to a constituent's window
//! ([`restrict_to_window`]) is a complete program for that constituent, and
//! the value-level oracle can replay it along the fused run's spans to prove
//! no contribution was lost (the CI conformance matrix does exactly that).
//! Gathering/scattering collectives (AllGather, Gather, ReduceScatter) place
//! per-rank slots at `rank · bytes`-derived offsets, so concatenation would
//! interleave constituents' slots; the communicator never fuses them.

use crate::collective::CollectiveKind;
use blink_sim::{OpKind, Program, ProgramBuilder, Segment};

/// Whether `kind` may be fused by logical-space concatenation: true exactly
/// when every participant's logical space is `[0, bytes)` with no per-rank
/// slot or shard layout (see the module docs).
pub fn fusible(kind: CollectiveKind) -> bool {
    matches!(
        kind,
        CollectiveKind::AllReduce
            | CollectiveKind::Broadcast { .. }
            | CollectiveKind::Reduce { .. }
    )
}

/// One batch produced by [`fuse_requests`]: either a single request that ran
/// unfused, or several small requests concatenated into one logical buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusedGroup {
    /// Indices into the caller's request list, ascending and consecutive.
    pub members: Vec<usize>,
    /// Each member's window in the fused logical address space, in member
    /// order: member `k` owns `layout[k]`.
    pub layout: Vec<Segment>,
    /// Total fused payload (`layout` windows tile `[0, total_bytes)`).
    pub total_bytes: u64,
}

impl FusedGroup {
    /// Whether this group actually batched more than one request.
    pub fn is_fused(&self) -> bool {
        self.members.len() > 1
    }

    /// The fused-space window of the group's `k`-th member.
    pub fn window(&self, k: usize) -> Segment {
        self.layout[k]
    }
}

/// The fusion pass: greedily batches consecutive small requests.
///
/// Requests must be given in issue order (the order they become ready);
/// fusion never reorders them. A request of `threshold_bytes` or more always
/// stands alone. Smaller requests accumulate into the current batch until
/// the batch's running total reaches the threshold, which closes it — batch
/// totals therefore land in `[threshold, 2·threshold)` except for a final
/// partial batch. Zero-byte requests are skipped entirely (they move
/// nothing and appear in no group). A threshold of 0 disables fusion: every
/// non-empty request becomes its own group.
pub fn fuse_requests(sizes: &[u64], threshold_bytes: u64) -> Vec<FusedGroup> {
    fn flush(
        groups: &mut Vec<FusedGroup>,
        members: &mut Vec<usize>,
        layout: &mut Vec<Segment>,
        total: &mut u64,
    ) {
        if !members.is_empty() {
            groups.push(FusedGroup {
                members: std::mem::take(members),
                layout: std::mem::take(layout),
                total_bytes: *total,
            });
            *total = 0;
        }
    }
    let mut groups = Vec::new();
    let mut members: Vec<usize> = Vec::new();
    let mut layout: Vec<Segment> = Vec::new();
    let mut total = 0u64;
    for (i, &bytes) in sizes.iter().enumerate() {
        if bytes == 0 {
            continue;
        }
        if bytes >= threshold_bytes {
            flush(&mut groups, &mut members, &mut layout, &mut total);
            groups.push(FusedGroup {
                members: vec![i],
                layout: vec![Segment::new(0, bytes)],
                total_bytes: bytes,
            });
            continue;
        }
        members.push(i);
        layout.push(Segment::new(total, bytes));
        total += bytes;
        if total >= threshold_bytes {
            flush(&mut groups, &mut members, &mut layout, &mut total);
        }
    }
    flush(&mut groups, &mut members, &mut layout, &mut total);
    groups
}

/// Projects a fused program onto one constituent's `window` of the fused
/// logical address space: every data-moving op keeps exactly the parts of
/// its segments inside `[window.offset, window.end())`, rebased so the
/// window starts at logical offset 0; an op whose payload lies entirely
/// outside the window becomes a zero-duration compute no-op on its own GPU
/// (op ids, streams and dependencies are preserved verbatim, and a no-op
/// contributes no events to the oracle's replay).
///
/// Replaying the restricted program along the *fused run's* op spans through
/// `blink_sim::check_collective` (with the constituent's own byte count)
/// proves the fused execution delivered that constituent's collective
/// exactly — the contribution-equivalence check the conformance matrix runs.
pub fn restrict_to_window(program: &Program, window: Segment) -> Program {
    let mut b = ProgramBuilder::new();
    b.reserve(program.len(), program.num_deps(), program.num_segments());
    let mut segs = Vec::new();
    for op in program.ops() {
        // the window-relative parts of the op's segments inside the window
        segs.clear();
        segs.extend(op.segments.iter().filter_map(|s| {
            let lo = s.offset.max(window.offset);
            let hi = s.end().min(window.end());
            (lo < hi).then(|| Segment::new(lo - window.offset, hi - lo))
        }));
        let kind = match op.kind {
            OpKind::Copy { src: gpu, .. } | OpKind::Reduce { gpu } if segs.is_empty() => {
                OpKind::Compute {
                    gpu,
                    duration_us: 0.0,
                }
            }
            kind => kind,
        };
        b.push(kind, &segs, op.stream, op.deps, op.tag.clone());
    }
    b.build()
        .expect("restriction preserves structural validity")
}

#[cfg(test)]
mod tests {
    use super::*;
    use blink_sim::{LinkClass, OpId};
    use blink_topology::GpuId;

    const MB: u64 = 1 << 20;

    #[test]
    fn large_requests_stand_alone_and_small_ones_batch() {
        let sizes = [MB / 2, MB / 4, 8 * MB, MB / 8, MB / 8, MB / 2];
        let groups = fuse_requests(&sizes, MB);
        assert_eq!(groups.len(), 3);
        // the two leading small requests close when the big one arrives
        assert_eq!(groups[0].members, vec![0, 1]);
        assert!(groups[0].is_fused());
        assert_eq!(groups[0].total_bytes, MB / 2 + MB / 4);
        assert_eq!(groups[1].members, vec![2]);
        assert!(!groups[1].is_fused());
        // the trailing smalls form a final partial batch
        assert_eq!(groups[2].members, vec![3, 4, 5]);
        assert_eq!(groups[2].total_bytes, MB / 8 + MB / 8 + MB / 2);
    }

    #[test]
    fn layout_windows_tile_the_fused_space_in_member_order() {
        let sizes = [100, 200, 300];
        let groups = fuse_requests(&sizes, 10_000);
        assert_eq!(groups.len(), 1);
        let g = &groups[0];
        assert_eq!(g.window(0), Segment::new(0, 100));
        assert_eq!(g.window(1), Segment::new(100, 200));
        assert_eq!(g.window(2), Segment::new(300, 300));
        assert_eq!(g.total_bytes, 600);
    }

    #[test]
    fn a_batch_closes_once_it_reaches_the_threshold() {
        let sizes = [600, 600, 600];
        let groups = fuse_requests(&sizes, 1000);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].members, vec![0, 1]);
        assert_eq!(groups[1].members, vec![2]);
    }

    #[test]
    fn zero_threshold_disables_fusion_and_zero_bytes_are_skipped() {
        let sizes = [10, 0, 20];
        let groups = fuse_requests(&sizes, 0);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].members, vec![0]);
        assert_eq!(groups[1].members, vec![2]);
    }

    #[test]
    fn only_uniform_space_collectives_are_fusible() {
        assert!(fusible(CollectiveKind::AllReduce));
        assert!(fusible(CollectiveKind::Broadcast { root: GpuId(0) }));
        assert!(fusible(CollectiveKind::Reduce { root: GpuId(0) }));
        assert!(!fusible(CollectiveKind::AllGather));
        assert!(!fusible(CollectiveKind::ReduceScatter));
        assert!(!fusible(CollectiveKind::Gather { root: GpuId(0) }));
    }

    #[test]
    fn restriction_clips_rebases_and_noops() {
        let mut b = ProgramBuilder::new();
        let s = b.new_stream();
        // spans the window boundary: [0, 300) against window [100, 250)
        let head = b.copy_segs(
            GpuId(0),
            GpuId(1),
            &[Segment::new(0, 300)],
            LinkClass::NvLink,
            s,
            &[],
            "head",
        );
        // entirely outside the window
        b.reduce_segs(GpuId(1), &[Segment::new(250, 50)], s, &[head], "outside");
        // two segments, one in, one out
        b.copy_segs(
            GpuId(1),
            GpuId(2),
            &[Segment::new(120, 30), Segment::new(260, 10)],
            LinkClass::NvLink,
            s,
            &[head],
            "mixed",
        );
        let program = b.build().unwrap();
        let window = Segment::new(100, 150);
        let restricted = restrict_to_window(&program, window);
        assert_eq!(restricted.len(), program.len());
        // op 0: clipped to [100, 250) and rebased to [0, 150)
        assert_eq!(restricted.op(OpId(0)).segments, &[Segment::new(0, 150)]);
        // op 1: emptied — now a zero-duration compute on its own GPU
        assert!(matches!(
            restricted.op(OpId(1)).kind,
            OpKind::Compute {
                gpu: GpuId(1),
                duration_us
            } if duration_us == 0.0
        ));
        // op 2: in-window segment survives rebased, the other is dropped
        assert_eq!(restricted.op(OpId(2)).segments, &[Segment::new(20, 30)]);
        // ids, streams and deps are preserved verbatim
        for (a, b) in program.ops().zip(restricted.ops()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.stream, b.stream);
            assert_eq!(a.deps, b.deps);
        }
    }
}
