//! The CI conformance gate: every strategy the communicator can pick —
//! packed spanning trees, one-hop switch trees, hybrid NVLink+PCIe, the PCIe
//! fallback and the three-phase multi-server protocol — is executed on the
//! engine and replayed through the value-level oracle
//! (`blink_sim::semantics::check_collective`) over a matrix of collectives,
//! topologies and randomly fragmented allocations, including the streaming
//! executor's fused batches (a fused segmented program must be
//! contribution-equivalent to its unfused constituents). A passing run proves
//! every byte of every collective landed exactly once where the contract
//! requires.
//!
//! The second half is mutation-based negative coverage: for each collective
//! kind a correct generated program is seeded with one defect — a dropped op,
//! a halved `bytes`, a shifted offset, a duplicated fold, or a dropped fused
//! constituent — and the oracle must reject it with a violation that
//! pinpoints the damage. This is what keeps the gate honest: an oracle that
//! accepts everything would pass the positive matrix too.

use blink_core::{
    restrict_to_window, CodeGen, CodeGenOptions, CollectiveKind, Communicator, CommunicatorOptions,
    TreeGen, TreeGenOptions,
};
use blink_sim::{check_collective, OpId, OpKind, Program, ProgramBuilder, Segment, Simulator};
use blink_topology::presets::{dgx1p, dgx1v, dgx2, multi_server, ServerKind};
use blink_topology::{GpuId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn mb(n: u64) -> u64 {
    n * 1024 * 1024
}

/// All six collective kinds, rooted ones at `root`.
fn all_kinds(root: GpuId) -> [CollectiveKind; 6] {
    [
        CollectiveKind::Broadcast { root },
        CollectiveKind::Gather { root },
        CollectiveKind::Reduce { root },
        CollectiveKind::AllReduce,
        CollectiveKind::AllGather,
        CollectiveKind::ReduceScatter,
    ]
}

/// A random fragmented allocation of `k` GPUs out of `pool`.
fn random_allocation(rng: &mut StdRng, pool: &[GpuId], k: usize) -> Vec<GpuId> {
    let mut pool = pool.to_vec();
    let mut out = Vec::with_capacity(k);
    for _ in 0..k {
        let i = rng.random_below(pool.len() as u64) as usize;
        out.push(pool.swap_remove(i));
    }
    out.sort_unstable();
    out
}

/// Runs every collective kind on `alloc` through the communicator and asserts
/// the oracle accepts each one.
fn assert_conformant(machine: &Topology, alloc: &[GpuId], bytes: u64, label: &str) {
    let mut comm = Communicator::builder(machine.clone())
        .allocation(alloc)
        .build()
        .unwrap();
    for kind in all_kinds(alloc[0]) {
        let (report, check) = comm.run_checked(kind, bytes).unwrap();
        assert!(
            check.is_correct(),
            "{label} alloc {alloc:?} {kind} via '{}' must be byte-exact:\n{check}",
            report.strategy
        );
    }
}

/// Packed spanning trees over random fragmented DGX-1V and DGX-1P
/// allocations: all six collectives are byte-exact, at an intentionally
/// unaligned byte count so share/chunk remainders are exercised.
#[test]
fn packed_trees_conform_on_random_fragmented_allocations() {
    let mut rng = StdRng::seed_from_u64(0xb11c);
    let pool: Vec<GpuId> = (0..8).map(GpuId).collect();
    for machine in [dgx1v(), dgx1p()] {
        for _ in 0..3 {
            let k = 3 + rng.random_below(6) as usize; // 3..=8
            let alloc = random_allocation(&mut rng, &pool, k);
            // NVLink may not span a fragmented DGX-1P allocation from every
            // root; the communicator transparently falls back to PCIe trees,
            // which the oracle checks all the same.
            assert_conformant(&machine, &alloc, mb(8) + 13, "packed trees");
        }
    }
}

/// One-hop switch trees on the DGX-2, full and partial allocations.
#[test]
fn one_hop_switch_trees_conform_on_dgx2() {
    let mut rng = StdRng::seed_from_u64(0xd6c2);
    let machine = dgx2();
    let pool: Vec<GpuId> = (0..16).map(GpuId).collect();
    let full: Vec<GpuId> = pool.clone();
    assert_conformant(&machine, &full, mb(8) + 13, "one-hop full");
    for _ in 0..2 {
        let k = 2 + rng.random_below(14) as usize; // 2..=15
        let alloc = random_allocation(&mut rng, &pool, k);
        assert_conformant(&machine, &alloc, mb(8) + 13, "one-hop partial");
    }
}

/// Hybrid NVLink+PCIe transfers: both tree sets carry disjoint sub-ranges of
/// the buffer and the union must still satisfy every collective's contract.
#[test]
fn hybrid_transfers_conform() {
    let machine = dgx1v();
    let alloc: Vec<GpuId> = (0..4).map(GpuId).collect();
    let mut comm = Communicator::builder(machine)
        .allocation(&alloc)
        .options(CommunicatorOptions {
            use_hybrid: true,
            ..Default::default()
        })
        .build()
        .unwrap();
    // large enough that Equation 8 assigns the PCIe trees a non-zero share
    let bytes = mb(200) + 7;
    let mut saw_pcie_share = false;
    for kind in all_kinds(GpuId(0)) {
        let (report, check) = comm.run_checked(kind, bytes).unwrap();
        assert!(
            report.strategy.contains("hybrid"),
            "expected the hybrid strategy, got '{}'",
            report.strategy
        );
        saw_pcie_share |= !report.strategy.contains("(0 B over PCIe)");
        assert!(check.is_correct(), "hybrid {kind}:\n{check}");
    }
    assert!(
        saw_pcie_share,
        "at least one hybrid collective must move bytes over PCIe for the \
         range split to be exercised"
    );
}

/// The PCIe fallback (NVLink cannot span the allocation at all).
#[test]
fn pcie_fallback_conforms() {
    let machine = dgx1p();
    let alloc = [GpuId(1), GpuId(4)]; // no NVLink between them on a DGX-1P
    let mut comm = Communicator::builder(machine)
        .allocation(&alloc)
        .build()
        .unwrap();
    for kind in all_kinds(GpuId(1)) {
        let (report, check) = comm.run_checked(kind, mb(4) + 5).unwrap();
        assert!(
            report.strategy.contains("PCIe fallback"),
            "{}",
            report.strategy
        );
        assert!(check.is_correct(), "pcie fallback {kind}:\n{check}");
    }
}

/// The three-phase multi-server AllReduce over random fragmented 2- and
/// 3-server slices: partitions, per-server slices and network chunks all
/// carry exact ranges, and every GPU must end with every contribution exactly
/// once.
#[test]
fn three_phase_multi_server_conforms_on_random_slices() {
    let mut rng = StdRng::seed_from_u64(0x3f45e);
    for n_servers in [2usize, 3] {
        let machine = multi_server(n_servers, ServerKind::Dgx1V, 5.0);
        let mut verified = 0;
        // a random server-local fragment is not always NVLink-spannable from
        // every partition root; keep sampling until two slices plan
        for _attempt in 0..12 {
            if verified >= 2 {
                break;
            }
            // at least one GPU per server so the slice actually spans servers
            let mut alloc = Vec::new();
            for s in 0..n_servers {
                let pool: Vec<GpuId> = (0..8).map(|i| GpuId(s * 8 + i)).collect();
                let k = 1 + rng.random_below(4) as usize; // 1..=4 per server
                alloc.extend(random_allocation(&mut rng, &pool, k));
            }
            alloc.sort_unstable();
            let mut comm = Communicator::builder(machine.clone())
                .allocation(&alloc)
                .build()
                .unwrap();
            let mut ok = true;
            for bytes in [mb(8) + 13, 3 * 1024 * 1024 + 17] {
                match comm.run_checked(CollectiveKind::AllReduce, bytes) {
                    Ok((report, check)) => {
                        assert!(
                            report.strategy.contains("three-phase"),
                            "{}",
                            report.strategy
                        );
                        assert!(
                            check.is_correct(),
                            "{n_servers}-server alloc {alloc:?} @ {bytes} B:\n{check}"
                        );
                    }
                    // unspannable server-local fragment: resample
                    Err(blink_core::BlinkError::Planning(_)) => {
                        ok = false;
                        break;
                    }
                    Err(e) => panic!("unexpected failure: {e}"),
                }
            }
            if ok {
                verified += 1;
            }
        }
        assert!(
            verified >= 2,
            "{n_servers}-server sampling must verify at least two random slices"
        );
    }
}

/// Hierarchical process groups: splits of random fragmented allocations on
/// both DGX-1 generations and the DGX-2 switch fabric run concurrent
/// subgroup collectives through one shared simulator session, and every
/// subgroup's program must be byte-exact under the shared-link schedule.
/// Rooted and rootless kinds are mixed across subgroups, so the oracle sees
/// the contention-shifted spans of each strategy the children pick (packed
/// trees, one-hop, PCIe fallback, trivial singletons).
#[test]
fn process_group_splits_conform_concurrently() {
    use blink_topology::GroupSplit;
    let mut rng = StdRng::seed_from_u64(0x96f0);
    let cases: Vec<(&str, Topology, usize)> = vec![
        ("dgx1v", dgx1v(), 8),
        ("dgx1p", dgx1p(), 8),
        ("dgx2", dgx2(), 16),
    ];
    for (label, machine, total) in cases {
        let pool: Vec<GpuId> = (0..total).map(GpuId).collect();
        for round in 0..2 {
            let k = 4 + rng.random_below((total - 3) as u64) as usize; // 4..=total
            let alloc = random_allocation(&mut rng, &pool, k);
            let parent = Communicator::builder(machine.clone())
                .allocation(&alloc)
                .build()
                .unwrap();
            let split = if round == 0 {
                GroupSplit::ByStride(2)
            } else {
                GroupSplit::ByStride(3)
            };
            let mut groups = parent.split(&split).unwrap();
            // one collective per subgroup, alternating rooted and rootless,
            // each rooted at its own subgroup's first member
            let requests: Vec<(CollectiveKind, u64)> = groups
                .groups()
                .iter()
                .enumerate()
                .map(|(i, child)| {
                    let root = child.allocation()[0];
                    let kind = match i % 3 {
                        0 => CollectiveKind::AllReduce,
                        1 => CollectiveKind::Broadcast { root },
                        _ => CollectiveKind::ReduceScatter,
                    };
                    (kind, mb(4) + 13)
                })
                .collect();
            let (run, checks) = groups.run_concurrent_checked(&requests).unwrap();
            assert_eq!(checks.len(), groups.len());
            for ((g, check), child) in run.groups.iter().zip(&checks).zip(groups.groups()) {
                assert!(
                    check.is_correct(),
                    "{label} alloc {alloc:?} split {split:?} subgroup {:?} {} via '{}':\n{check}",
                    child.allocation(),
                    g.kind,
                    g.strategy
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Mutation-based negative coverage: seed one defect, expect a pinpointed
// rejection.
// ---------------------------------------------------------------------------

/// A correct packed-tree program for `kind` on a 4-GPU DGX-1V slice, plus the
/// machine it runs on.
fn generated_program(kind: CollectiveKind, bytes: u64) -> (Topology, Vec<GpuId>, Program) {
    let machine = dgx1v();
    let alloc: Vec<GpuId> = (0..4).map(GpuId).collect();
    let induced = machine.induced(&alloc).unwrap();
    let plan = TreeGen::new(induced, TreeGenOptions::default())
        .plan(GpuId(0))
        .unwrap();
    let cg = CodeGen::new(CodeGenOptions {
        chunk_bytes: 1 << 20,
        ..Default::default()
    });
    let program = cg.build(&plan.trees, kind, bytes).unwrap();
    (machine, alloc, program)
}

/// Rebuilds `program` with `mutate` applied to each op's kind and to a copy
/// of its payload segments (same streams, same dependencies). An op the
/// mutation turns into a kind that moves no data drops its segments.
fn rebuild_with(
    program: &Program,
    mutate: impl Fn(usize, OpKind, &mut Vec<Segment>) -> OpKind,
) -> Program {
    let mut b = ProgramBuilder::new();
    let mut segs = Vec::new();
    for (i, op) in program.ops().enumerate() {
        segs.clear();
        segs.extend_from_slice(op.segments);
        let kind = mutate(i, op.kind, &mut segs);
        let payload = if kind.moves_data() { &segs[..] } else { &[] };
        b.push(kind, payload, op.stream, op.deps, op.tag.clone());
    }
    b.build()
        .expect("mutations keep the program structurally valid")
}

/// Index of the last copy op (a delivery near the collective's business end).
fn last_copy(program: &Program) -> usize {
    program
        .ops()
        .rposition(|o| matches!(o.kind, OpKind::Copy { .. }))
        .expect("generated programs move data")
}

fn run_and_check(
    machine: &Topology,
    alloc: &[GpuId],
    kind: CollectiveKind,
    bytes: u64,
    program: &Program,
) -> blink_sim::ValueCheck {
    let report = Simulator::with_defaults(machine.clone())
        .run(program)
        .unwrap();
    check_collective(kind.spec(), program, &report.op_spans, alloc, bytes)
}

/// For every collective kind: dropping a data-moving op, halving a copy's
/// `bytes`, and shifting a copy's offset must each be rejected, and the
/// violation must name a participant and byte range (the pinpointing
/// contract). The unmutated program must pass — otherwise the rejections
/// prove nothing.
#[test]
fn mutations_are_rejected_for_every_collective_kind() {
    let bytes = mb(3) + 11;
    for kind in all_kinds(GpuId(0)) {
        let (machine, alloc, program) = generated_program(kind, bytes);
        let baseline = run_and_check(&machine, &alloc, kind, bytes, &program);
        assert!(baseline.is_correct(), "{kind} baseline:\n{baseline}");
        let target = last_copy(&program);

        // ---- defect 1: dropped op (the copy becomes a no-op kernel) ----
        let dropped = rebuild_with(&program, |i, k, _| {
            if i == target {
                OpKind::Compute {
                    gpu: GpuId(0),
                    duration_us: 0.0,
                }
            } else {
                k
            }
        });
        let check = run_and_check(&machine, &alloc, kind, bytes, &dropped);
        assert!(!check.is_correct(), "{kind}: dropped op must be rejected");
        assert!(!check.violations.is_empty());

        // ---- defect 2: halved bytes ----
        let halved = rebuild_with(&program, |i, k, segs| {
            if i == target && matches!(k, OpKind::Copy { .. }) {
                segs[0].bytes /= 2;
            }
            k
        });
        let check = run_and_check(&machine, &alloc, kind, bytes, &halved);
        assert!(!check.is_correct(), "{kind}: halved bytes must be rejected");

        // ---- defect 3: shifted offset ----
        let shifted = rebuild_with(&program, |i, k, segs| {
            if i == target && matches!(k, OpKind::Copy { .. }) {
                segs[0].offset += (segs[0].bytes / 2).max(1);
            }
            k
        });
        let check = run_and_check(&machine, &alloc, kind, bytes, &shifted);
        assert!(
            !check.is_correct(),
            "{kind}: shifted offset must be rejected"
        );
        // pinpointing: some violation names a GPU of the allocation and a
        // range inside the collective's address space
        let space = check.space;
        assert!(check.violations.iter().any(|v| match v {
            blink_sim::Violation::WrongValue {
                gpu, offset, len, ..
            } => alloc.contains(gpu) && offset + len <= space,
            blink_sim::Violation::AmbiguousOverwrite { gpu, .. } => alloc.contains(gpu),
        }));
    }
}

/// The double-fold defect (NCCL-style "chunk folded in twice"): for each
/// reducing collective, duplicate the copy feeding a reduction and wire the
/// duplicate into the fold — the oracle must report a contribution with
/// multiplicity 2, which the old set-based checker could not see.
#[test]
fn a_duplicated_fold_is_rejected_with_the_exact_multiplicity() {
    let bytes = mb(3) + 11;
    for kind in [
        CollectiveKind::Reduce { root: GpuId(0) },
        CollectiveKind::AllReduce,
        CollectiveKind::ReduceScatter,
    ] {
        let (machine, alloc, program) = generated_program(kind, bytes);
        // the last reduce and the copy it folds
        let red_idx = program
            .ops()
            .rposition(|o| matches!(o.kind, OpKind::Reduce { .. }))
            .expect("reducing collectives reduce");
        let fed_by = program
            .op(OpId(red_idx))
            .deps
            .iter()
            .copied()
            .find(|&d| matches!(program.op(d).kind, OpKind::Copy { .. }))
            .expect("the reduce folds an arrival");

        // rebuild with the copy duplicated right after itself; ops after the
        // insertion shift by one, and the reduce gains the duplicate as a dep
        let mut b = ProgramBuilder::new();
        let remap = |d: OpId| {
            if d.0 > fed_by.0 {
                OpId(d.0 + 1)
            } else {
                d
            }
        };
        for op in program.ops() {
            let mut deps: Vec<OpId> = op.deps.iter().copied().map(remap).collect();
            if op.id.0 == red_idx {
                deps.push(OpId(fed_by.0 + 1));
            }
            b.push(op.kind, op.segments, op.stream, &deps, op.tag.clone());
            if op.id.0 == fed_by.0 {
                b.push(
                    op.kind,
                    op.segments,
                    op.stream,
                    &[op.id],
                    format!("{} (dup)", op.tag),
                );
            }
        }
        let mutated = b.build().unwrap();
        let check = run_and_check(&machine, &alloc, kind, bytes, &mutated);
        assert!(!check.is_correct(), "{kind}: double fold must be rejected");
        let doubled = check.violations.iter().any(|v| match v {
            blink_sim::Violation::WrongValue { found, .. } => {
                alloc.iter().any(|&g| found.count(g) >= 2)
            }
            _ => false,
        });
        assert!(
            doubled,
            "{kind}: the violation must expose the multiplicity:\n{check}"
        );
    }
}

/// Segment-level mutations: the gathering collectives now carry multi-range
/// payloads on single ops, so the oracle must also catch a defect confined to
/// ONE segment of a multi-segment op — a shifted slot and a dropped slot.
#[test]
fn a_corrupted_single_segment_is_rejected() {
    let bytes = mb(2) + 9;
    for kind in [
        CollectiveKind::AllGather,
        CollectiveKind::Gather { root: GpuId(0) },
        CollectiveKind::ReduceScatter,
    ] {
        let (machine, alloc, program) = generated_program(kind, bytes);
        let baseline = run_and_check(&machine, &alloc, kind, bytes, &program);
        assert!(baseline.is_correct(), "{kind} baseline:\n{baseline}");
        let Some(target) = program
            .ops()
            .rposition(|o| matches!(o.kind, OpKind::Copy { .. }) && o.segments.len() >= 2)
        else {
            // a scatter chunk may happen to intersect only one shard per
            // subtree on this slice; the gathering collectives must always
            // produce multi-segment ops
            assert_eq!(kind, CollectiveKind::ReduceScatter, "{kind}");
            continue;
        };
        let n_segs = program.op(OpId(target)).segments.len();

        // ---- shift the last segment of the op ----
        let shifted = rebuild_with(&program, |i, k, segs| {
            if i == target && matches!(k, OpKind::Copy { .. }) {
                let last = segs.len() - 1;
                segs[last].offset += (segs[last].bytes / 2).max(1);
            }
            k
        });
        let check = run_and_check(&machine, &alloc, kind, bytes, &shifted);
        assert!(
            !check.is_correct(),
            "{kind}: a single shifted segment must be rejected"
        );

        // ---- drop one segment of the op ----
        let dropped = rebuild_with(&program, |i, k, segs| {
            if i == target && matches!(k, OpKind::Copy { .. }) {
                segs.pop();
            }
            k
        });
        assert_eq!(dropped.op(OpId(target)).segments.len(), n_segs - 1);
        let check = run_and_check(&machine, &alloc, kind, bytes, &dropped);
        assert!(
            !check.is_correct(),
            "{kind}: a dropped segment must be rejected"
        );
    }
}

/// The segmented and the expanded (one op per segment) emission shapes are
/// value-equivalent: splitting every multi-segment op back into per-slot
/// copies still satisfies the oracle, under the engine schedule of the
/// expanded program.
#[test]
fn split_segment_programs_stay_conformant() {
    let bytes = mb(3) + 11;
    for kind in all_kinds(GpuId(0)) {
        let (machine, alloc, program) = generated_program(kind, bytes);
        let split = program.split_segments();
        assert!(split.len() >= program.len());
        let check = run_and_check(&machine, &alloc, kind, bytes, &split);
        assert!(check.is_correct(), "{kind} split emission:\n{check}");
    }
}

/// The NCCL baseline lowering is held to the same oracle as Blink's CodeGen:
/// ring broadcast / RS+AG AllReduce over NVLink, the PCIe fallback, and the
/// DGX-2 double-binary trees must all be byte-exact (the open ROADMAP item
/// from PR 4).
#[test]
fn nccl_baseline_conforms() {
    use blink_nccl::planner::NcclPlanner;
    use blink_nccl::schedule::{run_checked, NcclCollective};
    let bytes = mb(8) + 13;
    let cases: Vec<(Topology, Vec<GpuId>, u64)> = vec![
        (dgx1v(), (0..8).map(GpuId).collect(), bytes),
        (dgx1p(), vec![GpuId(0), GpuId(1), GpuId(4)], bytes), // PCIe fallback
        (dgx2(), (0..16).map(GpuId).collect(), 8 * 1024 + 5), // double binary trees
    ];
    for (machine, alloc, bytes) in cases {
        let planner = NcclPlanner::new(machine.clone());
        let plan = planner.plan(&alloc, bytes).unwrap();
        let sim = Simulator::with_defaults(machine);
        for collective in [
            NcclCollective::Broadcast { root: alloc[1] },
            NcclCollective::AllReduce,
        ] {
            let (_, check) = run_checked(&sim, &plan, collective, bytes).unwrap();
            assert!(
                check.is_correct(),
                "nccl {collective:?} on {alloc:?}:\n{check}"
            );
        }
    }
}

/// Sanity for the matrix driver itself: `run_checked` on a trivial case
/// (single GPU / zero bytes) is correct, and the reported address space
/// matches the collective family.
#[test]
fn run_checked_trivial_cases_and_address_spaces() {
    let machine = dgx1v();
    let mut comm = Communicator::builder(machine.clone())
        .allocation(&[GpuId(0)])
        .build()
        .unwrap();
    let (_, check) = comm.run_checked(CollectiveKind::AllReduce, mb(1)).unwrap();
    assert!(
        check.is_correct(),
        "single participant is trivially reduced"
    );

    let alloc: Vec<GpuId> = (0..4).map(GpuId).collect();
    let mut comm = Communicator::builder(machine)
        .allocation(&alloc)
        .build()
        .unwrap();
    let (_, check) = comm.run_checked(CollectiveKind::AllGather, mb(2)).unwrap();
    assert!(check.is_correct());
    assert_eq!(check.space, 4 * mb(2), "gathering space is n · bytes");
    let (_, check) = comm.run_checked(CollectiveKind::AllReduce, mb(2)).unwrap();
    assert_eq!(check.space, mb(2), "reducing space is the buffer itself");
}

/// Replanned communicators: every failure/elasticity scenario — a killed
/// link, a dropped GPU — on each single-server topology class lands on
/// `run_checked`, proving the replanned recovery plans move every byte
/// exactly where the contract requires on the *post-churn* hardware.
#[test]
fn replanned_communicators_conform_across_failure_scenarios() {
    use blink_topology::TopologyDelta;
    let eight: Vec<GpuId> = (0..8).map(GpuId).collect();
    let sixteen: Vec<GpuId> = (0..16).map(GpuId).collect();
    let v = dgx1v();
    let p = dgx1p();
    let scenarios: Vec<(&str, Topology, Vec<GpuId>, TopologyDelta)> = vec![
        (
            "dgx1v kill-link",
            v.clone(),
            eight.clone(),
            TopologyDelta::kill_link(&v, GpuId(0), GpuId(3)),
        ),
        (
            "dgx1v drop-gpu",
            v,
            eight.clone(),
            TopologyDelta::drop_gpu(GpuId(6)),
        ),
        (
            "dgx1p kill-link",
            p.clone(),
            eight.clone(),
            TopologyDelta::kill_link(&p, GpuId(0), GpuId(1)),
        ),
        (
            "dgx1p drop-gpu",
            p,
            eight,
            TopologyDelta::drop_gpu(GpuId(7)),
        ),
        (
            "dgx2 drop-gpu",
            dgx2(),
            sixteen,
            TopologyDelta::drop_gpu(GpuId(15)),
        ),
    ];
    for (label, machine, alloc, delta) in scenarios {
        let mut comm = Communicator::builder(machine)
            .allocation(&alloc)
            .build()
            .unwrap();
        // Plan and run once pre-failure, exactly as a live job would.
        comm.all_reduce(mb(1)).unwrap();
        comm.replan(&delta).unwrap();
        for kind in all_kinds(GpuId(0)) {
            let (report, check) = comm.run_checked(kind, mb(4) + 13).unwrap();
            assert!(
                check.is_correct(),
                "{label} {kind} via '{}' after replan must be byte-exact:\n{check}",
                report.strategy
            );
        }
    }
}

/// Compound failures: two fault events composed into one
/// [`TopologyDelta::compose`] delta — two links, a link plus a GPU, a GPU
/// plus a degraded server NIC — replanned in a single shot on DGX-1V and
/// DGX-2 and replayed through the value-level oracle.
#[test]
fn replanned_communicators_conform_across_compound_failures() {
    use blink_topology::{ServerId, TopologyDelta};
    let eight: Vec<GpuId> = (0..8).map(GpuId).collect();
    let sixteen: Vec<GpuId> = (0..16).map(GpuId).collect();
    let v = dgx1v();
    let d2 = dgx2();
    let v2 = multi_server(2, ServerKind::Dgx1V, 5.0);
    let d22 = multi_server(2, ServerKind::Dgx2, 5.0);
    let scenarios: Vec<(&str, Topology, Vec<GpuId>, TopologyDelta)> =
        vec![
            (
                "dgx1v 2-link",
                v.clone(),
                eight.clone(),
                TopologyDelta::kill_link(&v, GpuId(0), GpuId(1))
                    .compose(&TopologyDelta::kill_link(&v, GpuId(0), GpuId(3))),
            ),
            (
                "dgx1v link+gpu",
                v.clone(),
                eight.clone(),
                TopologyDelta::kill_link(&v, GpuId(0), GpuId(4))
                    .compose(&TopologyDelta::drop_gpu(GpuId(6))),
            ),
            (
                "dgx2 2-link",
                d2.clone(),
                sixteen.clone(),
                TopologyDelta::kill_link(&d2, GpuId(0), GpuId(1))
                    .compose(&TopologyDelta::kill_link(&d2, GpuId(2), GpuId(3))),
            ),
            (
                "dgx2 link+gpu",
                d2.clone(),
                sixteen.clone(),
                TopologyDelta::kill_link(&d2, GpuId(0), GpuId(1))
                    .compose(&TopologyDelta::drop_gpu(GpuId(15))),
            ),
            (
                "dgx1v gpu+server-nic",
                v2.clone(),
                (0..16).map(GpuId).collect(),
                TopologyDelta::drop_gpu(GpuId(3))
                    .compose(&TopologyDelta::set_server_nic(ServerId(1), 2.5)),
            ),
            (
                "dgx2 gpu+server-nic",
                d22.clone(),
                (0..32).map(GpuId).collect(),
                TopologyDelta::drop_gpu(GpuId(20))
                    .compose(&TopologyDelta::set_server_nic(ServerId(0), 2.0)),
            ),
        ];
    for (label, machine, alloc, delta) in scenarios {
        let multi = machine.servers().len() > 1;
        let mut comm = Communicator::builder(machine)
            .allocation(&alloc)
            .build()
            .unwrap();
        // Plan and run once pre-failure, exactly as a live job would.
        comm.all_reduce(mb(1)).unwrap();
        comm.replan(&delta).unwrap();
        // Single-server compound failures run the full collective matrix;
        // the cross-machine NIC scenarios run the three-phase AllReduce.
        let kinds: Vec<CollectiveKind> = if multi {
            vec![CollectiveKind::AllReduce]
        } else {
            all_kinds(GpuId(0)).to_vec()
        };
        for kind in kinds {
            let (report, check) = comm.run_checked(kind, mb(4) + 13).unwrap();
            assert!(
                check.is_correct(),
                "{label} {kind} via '{}' after a compound replan must be byte-exact:\n{check}",
                report.strategy
            );
        }
    }
}

/// Elasticity the other way: a job grown by a whole server is a new
/// communicator over both servers, and it is byte-exact; the old
/// communicator refuses the growth delta and is left as it was.
#[test]
fn a_grown_job_is_a_new_communicator_and_conforms() {
    use blink_topology::TopologyDelta;
    let machine = multi_server(2, ServerKind::Dgx1V, 5.0);
    let half: Vec<GpuId> = (0..8).map(GpuId).collect();
    let all: Vec<GpuId> = (0..16).map(GpuId).collect();
    let mut comm = Communicator::builder(machine.clone())
        .allocation(&half)
        .build()
        .unwrap();
    comm.all_reduce(mb(1)).unwrap();
    let delta = TopologyDelta::between(
        &machine.induced(&half).unwrap(),
        &machine.induced(&all).unwrap(),
    );
    assert!(comm.replan(&delta).is_err(), "replan never grows a job");
    assert_eq!(comm.allocation(), &half[..]);
    let mut grown = Communicator::builder(machine)
        .allocation(&all)
        .build()
        .unwrap();
    let (report, check) = grown
        .run_checked(CollectiveKind::AllReduce, mb(8) + 13)
        .unwrap();
    assert!(
        report.strategy.contains("three-phase"),
        "the grown job spans both servers: {}",
        report.strategy
    );
    assert!(
        check.is_correct(),
        "grown-by-a-server AllReduce via '{}' must be byte-exact:\n{check}",
        report.strategy
    );
}

/// Fusion matrix: for every fusible collective kind, a batch of small
/// concurrent requests fuses into one segmented program, and that program is
/// contribution-equivalent to its unfused constituents — the whole fused
/// collective passes the oracle over the concatenated space, every
/// constituent's window of it passes the *same* spec at the constituent's
/// own byte count (via [`restrict_to_window`] along the fused run's spans),
/// and a standalone unfused run of each constituent size passes that spec
/// too. Fused and unfused sides meeting one contract is what licenses the
/// trainer to substitute one for the other.
#[test]
fn fused_streamed_programs_match_their_unfused_constituents() {
    let machine = dgx1v();
    let alloc: Vec<GpuId> = (0..8).map(GpuId).collect();
    // four sub-threshold requests (default threshold 4 MiB) at staggered
    // ready times, with deliberately unaligned byte counts
    let requests: Vec<(u64, f64)> = [mb(1) + 3, mb(1) + 7, mb(1) + 11, mb(1) / 2]
        .iter()
        .enumerate()
        .map(|(i, &b)| (b, i as f64 * 25.0))
        .collect();
    for kind in [
        CollectiveKind::AllReduce,
        CollectiveKind::Broadcast { root: GpuId(0) },
        CollectiveKind::Reduce { root: GpuId(0) },
    ] {
        let mut comm = Communicator::builder(machine.clone())
            .allocation(&alloc)
            .build()
            .unwrap();
        let (run, checks) = comm.run_streamed_checked(kind, &requests).unwrap();
        assert!(
            run.fused_programs() >= 1,
            "{kind}: sub-threshold requests must fuse"
        );
        // one whole-program check per group, plus one window check per
        // member of every fused group — and all of them byte-exact
        let expected: usize = run
            .groups
            .iter()
            .map(|g| {
                1 + if g.group.is_fused() {
                    g.group.members.len()
                } else {
                    0
                }
            })
            .sum();
        assert_eq!(checks.len(), expected, "{kind}: the matrix must be full");
        for check in &checks {
            assert!(check.is_correct(), "{kind} fused matrix:\n{check}");
        }
        for g in run.groups.iter().filter(|g| g.group.is_fused()) {
            // the member windows tile the fused space in request order
            let mut next = 0u64;
            for (k, &m) in g.group.members.iter().enumerate() {
                let w = g.group.window(k);
                assert_eq!(w.offset, next, "{kind}: windows must be consecutive");
                assert_eq!(w.bytes, requests[m].0);
                next = w.end();
            }
            assert_eq!(next, g.group.total_bytes);
            // the unfused side of the equivalence: each constituent run
            // standalone satisfies the identical spec at the same byte count
            for (k, &m) in g.group.members.iter().enumerate() {
                let mut solo = Communicator::builder(machine.clone())
                    .allocation(&alloc)
                    .build()
                    .unwrap();
                let (_, solo_check) = solo.run_checked(kind, requests[m].0).unwrap();
                assert!(
                    solo_check.is_correct(),
                    "{kind} unfused constituent {k}:\n{solo_check}"
                );
            }
        }
    }
}

/// The parts of `s` outside `w`, in the same (fused) address space.
fn subtract_window(s: Segment, w: Segment) -> Vec<Segment> {
    let mut out = Vec::new();
    if s.offset < w.offset {
        let hi = s.end().min(w.offset);
        out.push(Segment::new(s.offset, hi - s.offset));
    }
    if s.end() > w.end() {
        let lo = s.offset.max(w.end());
        out.push(Segment::new(lo, s.end() - lo));
    }
    out
}

/// Mutation negative for fusion: excising one constituent's window from a
/// fused program's payloads (every copy and fold loses exactly that window's
/// byte ranges — a "dropped fused segment") must be rejected by the oracle,
/// both on the whole fused space and on the dropped constituent's window,
/// while the surviving constituents' windows still pass — the damage is
/// pinpointed to the member that lost its data, not smeared over the batch.
#[test]
fn a_dropped_fused_constituent_is_caught_and_pinpointed() {
    let machine = dgx1v();
    let alloc: Vec<GpuId> = (0..8).map(GpuId).collect();
    let requests: Vec<(u64, f64)> = (0..4).map(|i| (mb(1) + 5, i as f64 * 25.0)).collect();
    let mut comm = Communicator::builder(machine.clone())
        .allocation(&alloc)
        .build()
        .unwrap();
    let kind = CollectiveKind::AllReduce;
    let run = comm.run_streamed(kind, &requests).unwrap();
    let g = run
        .groups
        .iter()
        .find(|g| g.group.is_fused())
        .expect("sub-threshold requests fuse");
    let baseline = check_collective(
        kind.spec(),
        &g.program,
        &g.op_spans,
        &alloc,
        g.group.total_bytes,
    );
    assert!(baseline.is_correct(), "fused baseline:\n{baseline}");

    let dropped_k = 1;
    let window = g.group.window(dropped_k);
    let mutated = rebuild_with(&g.program, |_, k, segs| {
        *segs = segs
            .iter()
            .flat_map(|&s| subtract_window(s, window))
            .collect();
        match k {
            OpKind::Copy { src: gpu, .. } | OpKind::Reduce { gpu } if segs.is_empty() => {
                OpKind::Compute {
                    gpu,
                    duration_us: 0.0,
                }
            }
            other => other,
        }
    });

    // the whole fused collective is no longer delivered ...
    let full = check_collective(
        kind.spec(),
        &mutated,
        &g.op_spans,
        &alloc,
        g.group.total_bytes,
    );
    assert!(
        !full.is_correct(),
        "a fused program missing one constituent's ranges must be rejected"
    );
    // ... and the dropped constituent's own window check pinpoints it ...
    let restricted = restrict_to_window(&mutated, window);
    let check = check_collective(kind.spec(), &restricted, &g.op_spans, &alloc, window.bytes);
    assert!(
        !check.is_correct(),
        "the dropped constituent's window must fail its contract"
    );
    // ... while every surviving constituent's window is still byte-exact
    for (k, _) in g.group.members.iter().enumerate() {
        if k == dropped_k {
            continue;
        }
        let w = g.group.window(k);
        let restricted = restrict_to_window(&mutated, w);
        let check = check_collective(kind.spec(), &restricted, &g.op_spans, &alloc, w.bytes);
        assert!(
            check.is_correct(),
            "surviving constituent {k} must stay byte-exact:\n{check}"
        );
    }
}

/// Mutation negative for replanning: a replan that illegally kept a tree
/// routed over a dead link must not survive the gate. The stale plan is
/// caught twice — the packing-level feasibility certificate rejects it (a
/// dead pair has no capacity) and the engine refuses to execute its lowered
/// program on the degraded machine — while the *legal* path, TreeGen's plan
/// of the degraded slice, provably avoids the dead pair and executes.
#[test]
fn a_stale_plan_kept_over_a_dead_link_is_caught() {
    use blink_graph::{DiGraph, TreePacking};
    use blink_sim::SimParams;

    let machine = dgx1v();
    let alloc: Vec<GpuId> = (0..8).map(GpuId).collect();
    let induced = machine.induced(&alloc).unwrap();
    let stale = TreeGen::new(induced, TreeGenOptions::default())
        .plan(GpuId(0))
        .unwrap();
    let dead = (GpuId(0), GpuId(1));
    assert!(
        stale
            .trees
            .iter()
            .any(|wt| wt.tree.edges.contains(&dead) || wt.tree.edges.contains(&(dead.1, dead.0))),
        "precondition: the full-topology plan routes over the doomed pair"
    );

    let degraded = machine.without_link(dead.0, dead.1);
    // Certificate-level catch: the stale packing over-subscribes the dead
    // pair's (now zero) capacity, so it is infeasible on the degraded graph.
    let g2 = DiGraph::from_topology_filtered(&degraded, |l| l.kind.is_nvlink());
    let stale_packing = TreePacking::new(GpuId(0), stale.trees.clone());
    assert!(
        !stale_packing.is_feasible(&g2),
        "feasibility must reject a packing using a dead link"
    );

    // Engine-level catch: the lowered stale program references the missing
    // link and the simulator refuses to execute it.
    let cg = CodeGen::new(CodeGenOptions::default());
    let program = cg
        .build(
            &stale.trees,
            CollectiveKind::Broadcast { root: GpuId(0) },
            mb(4),
        )
        .unwrap();
    let sim = Simulator::new(degraded.clone(), SimParams::default());
    assert!(
        sim.run(&program).is_err(),
        "the engine must refuse a program that copies over a dead link"
    );

    // The legal path plans the degraded slice: no tree of the replan
    // touches the dead pair, and the replanned collective executes on the
    // new hardware.
    let replanned = TreeGen::new(degraded.induced(&alloc).unwrap(), TreeGenOptions::default())
        .plan(GpuId(0))
        .unwrap();
    for wt in &replanned.trees {
        assert!(
            !wt.tree.edges.contains(&dead) && !wt.tree.edges.contains(&(dead.1, dead.0)),
            "the replan must route around the dead pair"
        );
    }
    let program = cg
        .build(
            &replanned.trees,
            CollectiveKind::Broadcast { root: GpuId(0) },
            mb(4),
        )
        .unwrap();
    sim.run(&program).expect("the replanned program executes");
}

/// Compound-delta mutation negative: a stale plan kept across a *composed*
/// two-link failure must be caught by the same two tripwires — the packing
/// feasibility certificate and the engine — while the legal path, TreeGen's
/// plan of the degraded slice, routes around both dead pairs at once and
/// still executes.
#[test]
fn a_stale_plan_kept_over_a_compound_failure_is_caught() {
    use blink_graph::{DiGraph, TreePacking};
    use blink_sim::SimParams;
    use blink_topology::TopologyDelta;

    let machine = dgx1v();
    let alloc: Vec<GpuId> = (0..8).map(GpuId).collect();
    let induced = machine.induced(&alloc).unwrap();
    let stale = TreeGen::new(induced.clone(), TreeGenOptions::default())
        .plan(GpuId(0))
        .unwrap();
    let dead = [(GpuId(0), GpuId(1)), (GpuId(0), GpuId(3))];
    let uses = |edges: &[(GpuId, GpuId)], pair: (GpuId, GpuId)| {
        edges.contains(&pair) || edges.contains(&(pair.1, pair.0))
    };
    assert!(
        stale
            .trees
            .iter()
            .any(|wt| dead.iter().any(|&d| uses(&wt.tree.edges, d))),
        "precondition: the full-topology plan routes over a doomed pair"
    );

    // One compound delta for the burst of two failures, applied in a single
    // replan — exactly what the pipeline hands a job hit by overlapping
    // faults.
    let delta = TopologyDelta::kill_link(&machine, dead[0].0, dead[0].1)
        .compose(&TopologyDelta::kill_link(&machine, dead[1].0, dead[1].1));
    let degraded = induced.apply_delta(&delta).unwrap();

    // Certificate-level catch: the stale packing over-subscribes at least
    // one dead pair's (now zero) capacity on the compound-degraded graph.
    let g2 = DiGraph::from_topology_filtered(&degraded, |l| l.kind.is_nvlink());
    let stale_packing = TreePacking::new(GpuId(0), stale.trees.clone());
    assert!(
        !stale_packing.is_feasible(&g2),
        "feasibility must reject a packing using either dead link"
    );

    // Engine-level catch: the lowered stale program references a missing
    // link and the simulator refuses to execute it.
    let cg = CodeGen::new(CodeGenOptions::default());
    let program = cg
        .build(
            &stale.trees,
            CollectiveKind::Broadcast { root: GpuId(0) },
            mb(4),
        )
        .unwrap();
    let sim = Simulator::new(degraded.clone(), SimParams::default());
    assert!(
        sim.run(&program).is_err(),
        "the engine must refuse a program that copies over a dead link"
    );

    // The legal path plans the degraded slice, routing around *both* pairs
    // in one pass, and the recovered program executes on the
    // compound-degraded hardware.
    let replanned = TreeGen::new(degraded.clone(), TreeGenOptions::default())
        .plan(GpuId(0))
        .unwrap();
    for wt in &replanned.trees {
        for &d in &dead {
            assert!(
                !uses(&wt.tree.edges, d),
                "the replan must route around every dead pair"
            );
        }
    }
    let program = cg
        .build(
            &replanned.trees,
            CollectiveKind::Broadcast { root: GpuId(0) },
            mb(4),
        )
        .unwrap();
    sim.run(&program).expect("the replanned program executes");
}
