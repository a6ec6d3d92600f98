//! Cross-crate integration tests: the whole pipeline — topology probing,
//! TreeGen, CodeGen, simulator execution, NCCL baseline — exercised together
//! over the configurations that matter in the paper.

use blink::prelude::*;
use blink_bench::measure::{blink_collective, mb, nccl_collective};
use blink_core::multiserver::{three_phase_allreduce_cached, ThreePhaseInfo};
use blink_core::{CodeGenOptions, CollectiveKind, ScratchPool, SharedPlanCache, TreeGenOptions};
use blink_sim::{check_collective, CollectiveSpec, Program, Simulator};
use blink_topology::enumerate::unique_allocations;
use blink_topology::presets::{dgx1p, dgx1v, dgx2, multi_server, ServerKind};

/// The three-phase AllReduce with default options, planned on a fresh store.
fn three_phase(machine: &Topology, alloc: &[GpuId], bytes: u64) -> (Program, ThreePhaseInfo) {
    three_phase_allreduce_cached(
        machine,
        alloc,
        bytes,
        &TreeGenOptions::default(),
        &CodeGenOptions::default(),
        &ScratchPool::new(),
        &SharedPlanCache::new(),
    )
    .unwrap()
}

/// Blink never loses to the NCCL baseline by more than a few percent on any
/// unique DGX-1V allocation, and wins big where NCCL falls back to PCIe
/// (the Figure 15 claim).
#[test]
fn blink_broadcast_dominates_nccl_across_unique_dgx1v_allocations() {
    let machine = dgx1v();
    let classes = unique_allocations(&machine, 3..=8).unwrap();
    assert!(classes.len() >= 40, "expected ~46 unique classes");
    let bytes = mb(100);
    let mut big_wins = 0;
    for class in classes.iter().step_by(2) {
        let alloc = class.representative.clone();
        let kind = CollectiveKind::Broadcast { root: alloc[0] };
        let blink = blink_collective(&machine, &alloc, kind, bytes);
        let nccl = nccl_collective(&machine, &alloc, kind, bytes);
        let ratio = blink.gbps / nccl.gbps;
        assert!(
            ratio > 0.9,
            "Blink should not lose on {}: {} vs {}",
            class.label(),
            blink.gbps,
            nccl.gbps
        );
        if ratio > 3.0 {
            big_wins += 1;
        }
    }
    assert!(big_wins > 0, "some allocation should show a multi-x win");
}

/// The Figure 16 counterpart on the DGX-1P (fewer unique classes).
#[test]
fn blink_allreduce_dominates_nccl_on_dgx1p_classes() {
    let machine = dgx1p();
    let classes = unique_allocations(&machine, 3..=8).unwrap();
    let bytes = mb(64);
    for class in classes.iter().step_by(3) {
        let alloc = class.representative.clone();
        let blink = blink_collective(&machine, &alloc, CollectiveKind::AllReduce, bytes);
        let nccl = nccl_collective(&machine, &alloc, CollectiveKind::AllReduce, bytes);
        // Our NCCL baseline implements the idealised reduce-scatter +
        // all-gather ring schedule, which on small fully connected
        // allocations slightly beats a single-root reduce+broadcast tree
        // (see EXPERIMENTS.md); Blink must stay within ~40% there and win
        // clearly wherever rings cannot be formed.
        assert!(
            blink.gbps > 0.6 * nccl.gbps,
            "{}: blink {} vs nccl {}",
            class.label(),
            blink.gbps,
            nccl.gbps
        );
    }
}

/// On the DGX-2, Blink's one-hop trees give a clear latency advantage at small
/// sizes (the Figure 20 claim) while staying competitive at large sizes.
#[test]
fn dgx2_small_message_latency_advantage() {
    let machine = dgx2();
    let alloc: Vec<GpuId> = (0..16).map(GpuId).collect();
    let small = 64 * 1024;
    let blink = blink_collective(&machine, &alloc, CollectiveKind::AllReduce, small);
    let nccl = nccl_collective(&machine, &alloc, CollectiveKind::AllReduce, small);
    assert!(
        blink.elapsed_us < nccl.elapsed_us,
        "blink {} us vs nccl {} us",
        blink.elapsed_us,
        nccl.elapsed_us
    );
    let large = mb(256);
    let blink = blink_collective(&machine, &alloc, CollectiveKind::AllReduce, large);
    let nccl = nccl_collective(&machine, &alloc, CollectiveKind::AllReduce, large);
    assert!(blink.gbps > 0.8 * nccl.gbps);
}

/// End-to-end multi-server AllReduce through the public communicator.
#[test]
fn multi_server_allreduce_end_to_end() {
    let machine = multi_server(2, ServerKind::Dgx1V, 5.0);
    let alloc = vec![
        GpuId(0),
        GpuId(1),
        GpuId(2),
        GpuId(8),
        GpuId(9),
        GpuId(10),
        GpuId(11),
        GpuId(12),
    ];
    let mut comm = Communicator::builder(machine)
        .allocation(&alloc)
        .build()
        .unwrap();
    let report = comm.all_reduce(mb(100)).unwrap();
    assert!(report.strategy.contains("three-phase"));
    assert!(report.algorithmic_bandwidth_gbps > 0.5);
    assert!(
        report.algorithmic_bandwidth_gbps < 5.5,
        "bounded by the 40 Gb/s NIC"
    );
}

/// The three-phase multi-server AllReduce, executed on the simulator's
/// engine, leaves every GPU holding *exactly* the fully reduced value: the
/// value-level oracle replays the program along the engine's actual schedule
/// at byte-range granularity and verifies every byte of every partition was
/// folded exactly once per contributor and redistributed to every GPU, with
/// reduce-before-broadcast ordering intact. This closes the previously
/// untested `multiserver` → `sim` seam: the timing tests above would not
/// notice a program that finished quickly but computed garbage (or one that
/// double-folded a chunk — invisible to the old set-based checker).
#[test]
fn multi_server_allreduce_computes_the_correct_value() {
    // the paper's fragmented scenario (3 + 5 GPUs over two DGX-1Vs) plus an
    // asymmetric three-server slice, at byte counts that exercise multi-chunk
    // pipelines and the zero-remainder edge of the partition split
    let cases: Vec<(Topology, Vec<GpuId>)> = vec![
        (
            multi_server(2, ServerKind::Dgx1V, 5.0),
            vec![0usize, 1, 2, 8, 9, 10, 11, 12]
                .into_iter()
                .map(GpuId)
                .collect(),
        ),
        (
            multi_server(3, ServerKind::Dgx1V, 12.5),
            vec![0usize, 1, 8, 9, 10, 16, 17]
                .into_iter()
                .map(GpuId)
                .collect(),
        ),
    ];
    for (machine, alloc) in cases {
        for bytes in [mb(30), 3 * 1024 * 1024 + 17] {
            let (program, info) = three_phase(&machine, &alloc, bytes);
            assert!(info.partitions >= 2, "multi-root partitioning in effect");
            let report = Simulator::with_defaults(machine.clone())
                .run(&program)
                .unwrap();
            let check = check_collective(
                CollectiveSpec::AllReduce,
                &program,
                &report.op_spans,
                &alloc,
                bytes,
            );
            assert!(
                check.is_correct(),
                "every byte must be exactly reduced everywhere: {check}"
            );
        }
    }
}

/// Cross-communicator plan sharing end to end: a stream of identical
/// scheduler slices plans once and reuses everywhere, and the shared plans
/// change nothing about the simulated outcome.
#[test]
fn identical_job_shapes_reuse_plans_across_communicators() {
    let shared = SharedPlanCache::new();
    let machine = dgx1v();
    let alloc: Vec<GpuId> = vec![GpuId(0), GpuId(1), GpuId(2), GpuId(3)];
    let baseline = {
        let mut comm = Communicator::builder(machine.clone())
            .allocation(&alloc)
            .build()
            .unwrap();
        comm.all_reduce(mb(64)).unwrap()
    };
    for i in 0..4 {
        let mut comm = Communicator::builder(machine.clone())
            .allocation(&alloc)
            .shared_plans(shared.clone())
            .build()
            .unwrap();
        let report = comm.all_reduce(mb(64)).unwrap();
        assert_eq!(
            report.elapsed_us.to_bits(),
            baseline.elapsed_us.to_bits(),
            "shared plans must not change the outcome (job {i})"
        );
    }
    let (hits, misses) = shared.stats();
    // the rootless-collective sweep plans every spannable candidate root
    // (picking the best by plan rate), so the first communicator packs one
    // tree set per candidate — each exactly once — and every later
    // communicator reuses all of them
    assert_eq!(misses, 4, "one pack per candidate root, never repeated");
    assert_eq!(hits, 12, "every later communicator reuses the whole sweep");
}

/// The communicator handles every collective kind on an arbitrary allocation.
#[test]
fn all_collectives_run_on_a_partial_allocation() {
    let machine = dgx1v();
    let alloc = vec![GpuId(2), GpuId(3), GpuId(5), GpuId(6), GpuId(7)];
    let mut comm = Communicator::builder(machine)
        .allocation(&alloc)
        .build()
        .unwrap();
    let bytes = mb(64);
    let reports = vec![
        comm.broadcast(GpuId(2), bytes).unwrap(),
        comm.gather(GpuId(2), bytes).unwrap(),
        comm.reduce(GpuId(2), bytes).unwrap(),
        comm.all_reduce(bytes).unwrap(),
        comm.all_gather(bytes).unwrap(),
        comm.reduce_scatter(bytes).unwrap(),
    ];
    for r in reports {
        assert!(r.elapsed_us > 0.0, "{r}");
        assert!(r.num_trees >= 1, "{r}");
    }
}
