//! Property-based tests over the core data structures and invariants:
//! arborescence validity, packing feasibility and optimality, byte-split
//! conservation, and schedule volume accounting on randomly chosen
//! allocations of the real DGX topologies.

use blink_core::codegen::{CodeGen, CodeGenOptions};
use blink_core::treegen::{ScratchPool, TreeGen, TreeGenOptions};
use blink_core::{CollectiveKind, Communicator, CommunicatorOptions, SharedPlanCache};
use blink_graph::{
    optimal_broadcast_rate, pack_spanning_trees, pack_spanning_trees_in, Arborescence, DiGraph,
    PackingOptions, PackingScratch, TreePacking, WeightedTree,
};
use blink_topology::presets::{dgx1p, dgx1v, dgx2};
use blink_topology::{GpuId, Topology};
use proptest::prelude::*;

/// A random subset of 2..=8 GPUs of an 8-GPU server, plus a root index.
fn allocation_strategy() -> impl Strategy<Value = (Vec<usize>, usize)> {
    (proptest::collection::btree_set(0usize..8, 2..=8), 0usize..8).prop_map(|(set, seed)| {
        let alloc: Vec<usize> = set.into_iter().collect();
        let root = seed % alloc.len();
        (alloc, root)
    })
}

/// Shared body of the `(1 - eps)` bound properties: packs the NVLink-induced
/// subgraph with the fast path and asserts feasibility plus the certificate
/// bound. Returns `None` when no spanning arborescence exists (vacuous case).
fn check_epsilon_bound(machine: &Topology, alloc: &[usize], root_pos: usize) -> Option<String> {
    let sub = induced(machine, alloc);
    let g = DiGraph::from_topology_filtered(&sub, |l| l.kind.is_nvlink());
    let root = GpuId(alloc[root_pos]);
    let root_idx = g.node(root)?;
    if !g.spans_from(root_idx) {
        return None;
    }
    let opts = PackingOptions {
        epsilon: 0.05,
        ..Default::default()
    };
    let mut scratch = PackingScratch::new();
    let (packing, stats) = pack_spanning_trees_in(&g, root, &opts, &mut scratch).unwrap();
    let opt = optimal_broadcast_rate(&g, root_idx);
    if stats.hit_iteration_cap {
        return Some(format!("cap hit after {} iterations", stats.iterations));
    }
    if !packing.is_feasible(&g) {
        return Some("packing is infeasible".to_string());
    }
    // a dual-threshold exit legitimately carries the weaker classical
    // guarantee; only certificate terminations promise the (1 - eps) bound
    if stats.termination != blink_graph::PackingTermination::Certificate {
        return None;
    }
    if packing.rate() < (1.0 - opts.epsilon) * opt - 1e-9 {
        return Some(format!(
            "rate {} misses (1-eps) bound of certificate {}",
            packing.rate(),
            opt
        ));
    }
    None
}

/// A random subset of 2..=16 GPUs of the 16-GPU DGX-2, plus a root index.
fn dgx2_allocation_strategy() -> impl Strategy<Value = (Vec<usize>, usize)> {
    (
        proptest::collection::btree_set(0usize..16, 2..=16),
        0usize..16,
    )
        .prop_map(|(set, seed)| {
            let alloc: Vec<usize> = set.into_iter().collect();
            let root = seed % alloc.len();
            (alloc, root)
        })
}

fn induced(machine: &Topology, ids: &[usize]) -> Topology {
    let alloc: Vec<GpuId> = ids.iter().map(|&i| GpuId(i)).collect();
    machine.induced(&alloc).unwrap()
}

/// Shared body of the parallel-determinism properties: sweeps every spannable
/// root of the induced subgraph sequentially (one worker), then re-sweeps at
/// 2, 4 and 8 workers and asserts every [`TreePlan`] field is bit-identical.
fn check_parallel_sweep_determinism(machine: &Topology, alloc: &[usize]) -> Result<(), String> {
    let sub = induced(machine, alloc);
    let probe = TreeGen::with_scratch(
        sub.clone(),
        TreeGenOptions::default(),
        ScratchPool::with_workers(1),
    );
    let roots: Vec<GpuId> = alloc
        .iter()
        .map(|&i| GpuId(i))
        .filter(|&r| probe.can_span(r))
        .collect();
    if roots.is_empty() {
        return Ok(());
    }
    let sequential = probe.plan_roots(&roots).map_err(|e| e.to_string())?;
    for workers in [2usize, 4, 8] {
        let parallel = TreeGen::with_scratch(
            sub.clone(),
            TreeGenOptions::default(),
            ScratchPool::with_workers(workers),
        )
        .plan_roots(&roots)
        .map_err(|e| e.to_string())?;
        for (a, b) in sequential.iter().zip(&parallel) {
            if !a.bit_eq(b) {
                return Err(format!(
                    "plan for root {} diverged at {workers} workers",
                    a.root
                ));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The MWU packing is always feasible and within 15% of the max-flow
    /// certificate whenever a spanning tree exists, on both DGX generations.
    #[test]
    fn packing_is_feasible_and_near_optimal((alloc, root_pos) in allocation_strategy(), v100 in any::<bool>()) {
        let machine = if v100 { dgx1v() } else { dgx1p() };
        let sub = induced(&machine, &alloc);
        let g = DiGraph::from_topology_filtered(&sub, |l| l.kind.is_nvlink());
        let root = GpuId(alloc[root_pos]);
        let Some(root_idx) = g.node(root) else { return Ok(()); };
        if !g.spans_from(root_idx) {
            prop_assert!(pack_spanning_trees(&g, root, &PackingOptions::default()).is_err());
            return Ok(());
        }
        let packing = pack_spanning_trees(&g, root, &PackingOptions { epsilon: 0.08, ..Default::default() }).unwrap();
        let opt = optimal_broadcast_rate(&g, root_idx);
        prop_assert!(packing.is_feasible(&g));
        prop_assert!(packing.rate() <= opt + 1e-6);
        prop_assert!(packing.rate() >= 0.85 * opt, "rate {} vs certificate {}", packing.rate(), opt);
        let expected: Vec<GpuId> = alloc.iter().map(|&i| GpuId(i)).collect();
        for wt in &packing.trees {
            prop_assert!(wt.tree.is_valid_over(&expected));
        }
    }

    /// The certificate early exit guarantees the packed rate is within
    /// `(1 − ε)` of the Edmonds/Lovász optimum on randomized DGX-1V induced
    /// subgraphs — a strictly tighter bound than the legacy 0.85 check above.
    #[test]
    fn packed_rate_meets_the_epsilon_bound_dgx1v((alloc, root_pos) in allocation_strategy()) {
        let violation = check_epsilon_bound(&dgx1v(), &alloc, root_pos);
        prop_assert!(violation.is_none(), "{}", violation.unwrap_or_default());
    }

    /// The same `(1 − ε)` bound on randomized DGX-2 (16-GPU NVSwitch) induced
    /// subgraphs and roots.
    #[test]
    fn packed_rate_meets_the_epsilon_bound_dgx2((alloc, root_pos) in dgx2_allocation_strategy()) {
        let violation = check_epsilon_bound(&dgx2(), &alloc, root_pos);
        prop_assert!(violation.is_none(), "{}", violation.unwrap_or_default());
    }

    /// Parallel root sweeps are invisible in the output: planning every
    /// spannable root of a random DGX-1V/DGX-1P induced subgraph with 2, 4
    /// and 8 scoped workers produces `TreePlan`s bit-identical to the
    /// sequential single-scratch sweep.
    #[test]
    fn parallel_sweep_is_bit_identical_dgx1((alloc, _) in allocation_strategy(), v100 in any::<bool>()) {
        let machine = if v100 { dgx1v() } else { dgx1p() };
        let violation = check_parallel_sweep_determinism(&machine, &alloc);
        prop_assert!(violation.is_ok(), "{}", violation.unwrap_err());
    }

    /// The same parallel-determinism pinning on random DGX-2 (16-GPU
    /// NVSwitch) induced subgraphs, which exercises the Hao–Orlin side of
    /// the certificate inside concurrently planning workers.
    #[test]
    fn parallel_sweep_is_bit_identical_dgx2((alloc, _) in dgx2_allocation_strategy()) {
        let violation = check_parallel_sweep_determinism(&dgx2(), &alloc);
        prop_assert!(violation.is_ok(), "{}", violation.unwrap_err());
    }

    /// Cross-communicator plan sharing over random induced subgraphs: a
    /// second communicator of the same job shape always hits the shared store
    /// and lowers the identical program; perturbing the packing options (or
    /// the topology, via a different random subgraph next case) misses.
    #[test]
    fn shared_plan_cache_hits_equal_shapes_and_misses_changed_ones((alloc, root_pos) in allocation_strategy()) {
        let machine = dgx1v();
        let root = GpuId(alloc[root_pos]);
        let opts = TreeGenOptions::default();
        let probe = TreeGen::new(induced(&machine, &alloc), opts);
        if !probe.can_span(root) {
            return Ok(());
        }
        let shared = SharedPlanCache::new();
        let gpus: Vec<GpuId> = alloc.iter().map(|&g| GpuId(g)).collect();
        let broadcast = |treegen: TreeGenOptions| {
            let mut comm = Communicator::builder(machine.clone())
                .allocation(&gpus)
                .options(CommunicatorOptions { treegen, ..Default::default() })
                .shared_plans(shared.clone())
                .build()
                .unwrap();
            comm.run_traced(CollectiveKind::Broadcast { root }, 4 << 20).unwrap().1
        };
        let program_a = broadcast(opts);
        let program_b = broadcast(opts);
        prop_assert_eq!(shared.stats(), (1, 1), "same shape must hit the shared store");
        prop_assert!(program_a == program_b, "a shared plan must lower identically");
        // a perturbed option set fingerprints differently and misses
        broadcast(TreeGenOptions {
            packing: PackingOptions { epsilon: 0.04, ..Default::default() },
            ..opts
        });
        prop_assert_eq!(shared.stats(), (1, 2), "changed options must miss");
        prop_assert_eq!(shared.len(), 2);
    }

    /// Scratch reuse is pure buffer reuse: packing through a scratch dirtied
    /// by an unrelated graph yields packings bit-identical to a fresh scratch,
    /// and a TreeGen re-planning through its internal scratch reproduces its
    /// own plan exactly.
    #[test]
    fn scratch_reuse_is_bit_identical((alloc, root_pos) in allocation_strategy()) {
        let machine = dgx1v();
        let sub = induced(&machine, &alloc);
        let g = DiGraph::from_topology_filtered(&sub, |l| l.kind.is_nvlink());
        let root = GpuId(alloc[root_pos]);
        let Some(root_idx) = g.node(root) else { return Ok(()); };
        if !g.spans_from(root_idx) {
            return Ok(());
        }
        let opts = PackingOptions::default();
        // dirty the scratch on a different graph first
        let mut reused = PackingScratch::new();
        let full = DiGraph::from_topology_filtered(&dgx1p(), |l| l.kind.is_nvlink());
        pack_spanning_trees_in(&full, GpuId(0), &opts, &mut reused).unwrap();
        let (a, a_stats) = pack_spanning_trees_in(&g, root, &opts, &mut reused).unwrap();
        let (b, b_stats) = pack_spanning_trees_in(&g, root, &opts, &mut PackingScratch::new()).unwrap();
        prop_assert_eq!(a_stats, b_stats);
        prop_assert_eq!(a.trees.len(), b.trees.len());
        for (x, y) in a.trees.iter().zip(&b.trees) {
            prop_assert_eq!(&x.tree, &y.tree);
            prop_assert_eq!(x.weight.to_bits(), y.weight.to_bits());
        }
        // TreeGen level: two plans from the same TreeGen share the scratch and
        // must agree bitwise
        let tg = TreeGen::new(sub, TreeGenOptions::default());
        let p1 = tg.plan(root).unwrap();
        let p2 = tg.plan(root).unwrap();
        prop_assert_eq!(p1.num_trees(), p2.num_trees());
        prop_assert_eq!(p1.rate_gbps().to_bits(), p2.rate_gbps().to_bits());
        prop_assert_eq!(p1.mwu, p2.mwu);
        for (x, y) in p1.trees.iter().zip(&p2.trees) {
            prop_assert_eq!(&x.tree, &y.tree);
            prop_assert_eq!(x.weight.to_bits(), y.weight.to_bits());
        }
    }

    /// TreeGen's minimised plan keeps the rate within the configured threshold
    /// of the certificate and never uses more trees than the raw packing.
    #[test]
    fn treegen_minimisation_preserves_rate((alloc, root_pos) in allocation_strategy()) {
        let machine = dgx1v();
        let sub = induced(&machine, &alloc);
        let root = GpuId(alloc[root_pos]);
        let tg = TreeGen::new(sub, TreeGenOptions::default());
        if !tg.can_span(root) {
            return Ok(());
        }
        let plan = tg.plan(root).unwrap();
        prop_assert!(plan.rate_gbps() >= 0.9 * plan.optimal_rate_gbps,
            "rate {} vs optimal {}", plan.rate_gbps(), plan.optimal_rate_gbps);
        // minimisation may *add* unit-weight trees (the greedy peel) when the
        // raw MWU packing found fewer distinct trees than lanes, but the final
        // count stays tiny — never more than one tree per root NVLink lane.
        prop_assert!(plan.num_trees() <= 8, "a DGX-1 allocation never needs more than 8 trees");
    }

    /// Splitting bytes across trees conserves the total exactly.
    #[test]
    fn byte_split_conserves_total((alloc, root_pos) in allocation_strategy(), bytes in 1u64..2_000_000_000) {
        let machine = dgx1v();
        let sub = induced(&machine, &alloc);
        let root = GpuId(alloc[root_pos]);
        let tg = TreeGen::new(sub, TreeGenOptions::default());
        if !tg.can_span(root) {
            return Ok(());
        }
        let plan = tg.plan(root).unwrap();
        let split = plan.split_bytes(bytes);
        prop_assert_eq!(split.iter().sum::<u64>(), bytes);
    }

    /// Broadcast programs move exactly (number of tree edges) x (tree share)
    /// bytes, i.e. CodeGen neither duplicates nor drops data.
    #[test]
    fn broadcast_volume_is_exact((alloc, root_pos) in allocation_strategy(), chunk_kb in 64u64..8192) {
        let machine = dgx1v();
        let sub = induced(&machine, &alloc);
        let root = GpuId(alloc[root_pos]);
        let tg = TreeGen::new(sub, TreeGenOptions::default());
        if !tg.can_span(root) {
            return Ok(());
        }
        let plan = tg.plan(root).unwrap();
        let bytes = 64 << 20;
        let cg = CodeGen::new(CodeGenOptions { chunk_bytes: chunk_kb * 1024, ..Default::default() });
        let program = cg.build(&plan.trees, CollectiveKind::Broadcast { root }, bytes).unwrap();
        let packing = TreePacking::new(root, plan.trees.clone());
        let shares = packing.split_bytes(bytes);
        let expected: u64 = plan.trees.iter().zip(shares).map(|(t, s)| s * t.tree.edges.len() as u64).sum();
        prop_assert_eq!(program.total_copy_bytes(), expected);
    }

    /// Parallel edges between the same node pair mean pooled capacity, and
    /// every capacity query agrees: `capacity_between` sums the pair, the
    /// broadcast-rate certificate routes the pooled sum, and
    /// `TreePacking::max_overuse` judges usage against it.
    #[test]
    fn parallel_edge_capacity_semantics_agree(
        lanes in proptest::collection::btree_set((0usize..4, 1usize..4, 1u32..50), 1..=12),
    ) {
        let mut g = DiGraph::new();
        for i in 0..4 {
            g.add_node(GpuId(i));
        }
        let mut pooled: std::collections::BTreeMap<(usize, usize), f64> =
            std::collections::BTreeMap::new();
        for &(src, off, units) in &lanes {
            let dst = (src + off) % 4;
            let cap = f64::from(units) * 0.5;
            g.add_edge(src, dst, cap);
            *pooled.entry((src, dst)).or_insert(0.0) += cap;
        }
        for (&(u, v), &total) in &pooled {
            prop_assert!((g.capacity_between(u, v) - total).abs() < 1e-9);
            // a pair-only subgraph routes exactly the pooled capacity
            let mut pair = DiGraph::new();
            let a = pair.add_node(GpuId(u));
            let b = pair.add_node(GpuId(v));
            for &(src, off, units) in &lanes {
                if (src, (src + off) % 4) == (u, v) {
                    pair.add_edge(a, b, f64::from(units) * 0.5);
                }
            }
            prop_assert!((optimal_broadcast_rate(&pair, a) - total).abs() < 1e-9);
            // a tree crossing the pair at exactly the pooled capacity is
            // exactly feasible
            let tree = Arborescence::new(GpuId(u), vec![(GpuId(u), GpuId(v))]);
            let packing = TreePacking::new(
                GpuId(u),
                vec![WeightedTree { tree, weight: total }],
            );
            prop_assert!((packing.max_overuse(&g) - 1.0).abs() < 1e-9);
            prop_assert!(packing.is_feasible(&g));
        }
    }

    /// On a partially-allocated DGX-2 switch fabric, packed spanning trees
    /// are never worse than the paper's one-hop strategy in *certified* rate:
    /// the Edmonds/Lovász min-cut of the induced subgraph is at least the
    /// one-hop aggregate (the root's injection capacity, which bounds the
    /// star of one-hop trees), and strictly above it on every fragment of
    /// three or more GPUs — the root re-injects `(m−1)×` the payload under
    /// one-hop, while the packed certificate grows as `(m−1)·b`.
    #[test]
    fn packed_certificate_dominates_one_hop_on_partial_dgx2(
        (alloc, root_pos) in dgx2_allocation_strategy(),
    ) {
        let machine = dgx2();
        let sub = induced(&machine, &alloc);
        let g = DiGraph::from_topology_filtered(&sub, |l| l.kind.is_nvlink());
        let root = GpuId(alloc[root_pos]);
        let Some(root_idx) = g.node(root) else { return Ok(()); };
        let one_hop = machine.gpu_cap(root).expect("DGX-2 GPUs carry an injection cap");
        let packed = optimal_broadcast_rate(&g, root_idx);
        prop_assert!(
            packed >= one_hop - 1e-9,
            "packed certificate {packed} below one-hop aggregate {one_hop} on {alloc:?}"
        );
        if alloc.len() >= 3 {
            prop_assert!(
                packed > one_hop + 1e-9,
                "packed certificate {packed} must strictly beat one-hop {one_hop} on {alloc:?}"
            );
        }
    }

    /// Max-flow is monotone: adding the PCIe links never lowers the broadcast
    /// certificate.
    #[test]
    fn certificate_is_monotone_in_links((alloc, root_pos) in allocation_strategy()) {
        let machine = dgx1v();
        let sub = induced(&machine, &alloc);
        let root = GpuId(alloc[root_pos]);
        let nvlink = DiGraph::from_topology_filtered(&sub, |l| l.kind.is_nvlink());
        let all = DiGraph::from_topology(&sub);
        let (Some(a), Some(b)) = (nvlink.node(root), all.node(root)) else { return Ok(()); };
        let nv_rate = optimal_broadcast_rate(&nvlink, a);
        let full_rate = optimal_broadcast_rate(&all, b);
        prop_assert!(full_rate >= nv_rate - 1e-9);
        // and the certificate never exceeds the source's out-capacity
        let out_cap: f64 = all.out_edges(b).iter().map(|&e| all.edges()[e].capacity).sum();
        prop_assert!(full_rate <= out_cap + 1e-6);
    }
}

/// The pinned witness for the DGX-2 strategy competition: on a fragmented
/// 5-GPU NVSwitch allocation the packed-tree certificate is exactly the
/// `(m−1) · b` aggregate of the induced complete subgraph — 4 × 138 GB/s —
/// a strict 4× improvement over the 138 GB/s one-hop bound the forced
/// short-circuit used to settle for.
#[test]
fn packed_certificate_is_4x_one_hop_on_a_pinned_dgx2_fragment() {
    let machine = dgx2();
    let alloc = [1usize, 4, 9, 12, 14];
    let sub = induced(&machine, &alloc);
    let g = DiGraph::from_topology_filtered(&sub, |l| l.kind.is_nvlink());
    let root = GpuId(1);
    let root_idx = g.node(root).unwrap();
    let one_hop = machine.gpu_cap(root).unwrap();
    let packed = optimal_broadcast_rate(&g, root_idx);
    assert!(
        (one_hop - 138.0).abs() < 1e-9,
        "one-hop aggregate {one_hop}"
    );
    assert!(
        (packed - 4.0 * 138.0).abs() < 1e-6,
        "packed certificate {packed} must be (m−1)·b = 552"
    );
}

// ---- fleet placements: slice topologies and end-to-end planning ----

use blink_core::CommunicatorBuilder;
use blink_topology::presets::{gpus_per_server, multi_server, placement_topology, ServerKind};
use blink_topology::TopologyDelta;

/// A random contended placement on a 3-server cluster: at least two GPUs
/// drawn as `(server, local gpu)` pairs, grouped into per-server slices —
/// fragmented, odd-sized (down to single-GPU) fragments included, exactly
/// the shapes the Figure 3 scheduler produces under churn.
fn placement_strategy(gps: usize) -> impl Strategy<Value = Vec<(usize, Vec<usize>)>> {
    proptest::collection::btree_set((0usize..3, 0usize..gps), 2..=(gps + 4)).prop_map(|pairs| {
        let mut by_server: std::collections::BTreeMap<usize, Vec<usize>> =
            std::collections::BTreeMap::new();
        for (s, g) in pairs {
            by_server.entry(s).or_default().push(g);
        }
        by_server.into_iter().collect()
    })
}

/// Shared body: the slice topology must match inducing on the full cluster
/// exactly, and the placement must plan and run a byte-exact AllReduce
/// through `Communicator` with the same global GPU ids the scheduler handed
/// out.
fn check_contended_placement(
    kind: ServerKind,
    slices_local: &[(usize, Vec<usize>)],
) -> Result<(), String> {
    let gps = gpus_per_server(kind);
    let slices: Vec<(usize, Vec<GpuId>)> = slices_local
        .iter()
        .map(|(s, locals)| (*s, locals.iter().map(|&g| GpuId(s * gps + g)).collect()))
        .collect();
    let flat: Vec<GpuId> = slices.iter().flat_map(|(_, g)| g.clone()).collect();

    let direct = placement_topology(kind, 5.0, &slices).map_err(|e| e.to_string())?;
    let cluster = multi_server(3, kind, 5.0);
    let induced = cluster.induced(&flat).map_err(|e| e.to_string())?;
    if !TopologyDelta::between(&direct, &induced).is_empty() {
        return Err("slice topology differs from the cluster-induced subgraph".to_string());
    }

    let mut comm = CommunicatorBuilder::from_placement(kind, 5.0, &slices)
        .isolated_plans()
        .build()
        .map_err(|e| e.to_string())?;
    if comm.allocation() != flat {
        return Err(format!(
            "allocation {:?} disagrees with the scheduler's GPU ids {:?}",
            comm.allocation(),
            flat
        ));
    }
    let (report, check) = comm
        .run_checked(CollectiveKind::AllReduce, 4 << 20)
        .map_err(|e| e.to_string())?;
    if !check.is_correct() {
        return Err(format!("AllReduce not conformant: {check}"));
    }
    if report.algorithmic_bandwidth_gbps <= 0.0 {
        return Err(format!("zero-rate collective: {report}"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every contended DGX-1V placement — fragmented, odd-sized, even
    /// single-GPU slices — induces a plannable slice topology and completes
    /// a byte-exact AllReduce end to end.
    #[test]
    fn contended_dgx1v_placements_plan_and_run(slices in placement_strategy(8)) {
        if let Err(e) = check_contended_placement(ServerKind::Dgx1V, &slices) {
            return Err(TestCaseError::fail(format!("{slices:?}: {e}")));
        }
    }

    /// The same property on the switch-fabric DGX-2 cluster.
    #[test]
    fn contended_dgx2_placements_plan_and_run(slices in placement_strategy(16)) {
        if let Err(e) = check_contended_placement(ServerKind::Dgx2, &slices) {
            return Err(TestCaseError::fail(format!("{slices:?}: {e}")));
        }
    }
}
