//! The plan store as the owner of lowerings, over the process's one scratch
//! pool: a scratch's history never changes a plan, a program or a schedule,
//! and a lowering taken from the store's lowering tier is the one a
//! communicator would have lowered afresh — down to the state a later replan
//! starts from.

use blink::prelude::*;
use blink_core::multiserver::three_phase_allreduce_cached;
use blink_core::{
    CodeGen, CodeGenOptions, GroupRun, LinkSelection, ScratchPool, StreamedRun, TreeGen,
    TreeGenOptions, TreePlan,
};
use blink_sched::{FaultEvent, FaultInjector, FaultRecord, FleetConfig, FleetPipeline, Job};
use blink_sim::{
    check_collective, CompiledProgram, LinkClass, OpKind, Program, RunReport, SimParams, Simulator,
};
use blink_topology::enumerate::unique_allocations;
use blink_topology::presets::{dgx1p, dgx1v, dgx2, multi_server, placement_topology, ServerKind};
use blink_topology::{GroupSplit, LinkKind, TopologyDelta};
use rand::prelude::*;
use std::sync::Arc;

fn ids(v: &[usize]) -> Vec<GpuId> {
    v.iter().map(|&i| GpuId(i)).collect()
}

/// A run's every field, floats included bit for bit (`Debug` prints each
/// float's shortest round-trip form).
fn run_bits(report: &RunReport) -> String {
    format!("{report:?}")
}

/// One planning case: a machine, an allocation, a root and a link class.
struct Shape {
    machine: Topology,
    alloc: Vec<GpuId>,
    root: GpuId,
    links: LinkSelection,
}

fn shapes() -> Vec<Shape> {
    let shape = |machine: Topology, alloc: &[usize], links| Shape {
        machine,
        alloc: ids(alloc),
        root: GpuId(alloc[0]),
        links,
    };
    vec![
        shape(
            dgx1v(),
            &[0, 1, 2, 3, 4, 5, 6, 7],
            LinkSelection::NvLinkOnly,
        ),
        shape(dgx1v(), &[1, 4, 5, 6], LinkSelection::NvLinkOnly),
        // GPUs 1 and 4 share no NVLink on a DGX-1P: the PCIe fallback
        shape(dgx1p(), &[1, 4], LinkSelection::PcieOnly),
        shape(dgx1p(), &[0, 1, 3, 4, 5, 7], LinkSelection::NvLinkOnly),
        shape(dgx2(), &[0, 3, 7, 11, 12], LinkSelection::NvLinkOnly),
        shape(
            dgx2(),
            &(0..16).collect::<Vec<_>>(),
            LinkSelection::NvLinkOnly,
        ),
    ]
}

impl Shape {
    fn options(&self) -> TreeGenOptions {
        TreeGenOptions {
            links: self.links,
            ..Default::default()
        }
    }

    /// Plans the shape (on the process's pool, as every plan is), lowers an
    /// AllReduce from the plan and simulates it on `pool`'s engine scratch.
    fn plan_and_run(&self, pool: &ScratchPool) -> (TreePlan, Program, RunReport) {
        let induced = self.machine.induced(&self.alloc).unwrap();
        let plan = TreeGen::new(induced, self.options())
            .plan(self.root)
            .unwrap();
        let class = match self.links {
            LinkSelection::NvLinkOnly => LinkClass::NvLink,
            LinkSelection::PcieOnly => LinkClass::Pcie,
        };
        let program = CodeGen::new(CodeGenOptions {
            link_class: class,
            ..Default::default()
        })
        .build(&plan.trees, CollectiveKind::AllReduce, (8 << 20) + 3)
        .unwrap();
        let sim = Simulator::new(self.machine.clone(), SimParams::default());
        let run = sim
            .run_with_scratch(&program, &mut pool.checkout().engine)
            .unwrap();
        (plan, program, run)
    }
}

#[test]
fn a_pool_last_used_by_any_shape_plans_and_runs_bit_identically() {
    let shapes = shapes();
    let (large, small) = (&shapes[5], &shapes[2]);
    for shape in &shapes {
        let (plan, program, run) = shape.plan_and_run(&ScratchPool::new());
        // the engine pool's last user, and the process pool's last planner
        // on this thread, was larger (the whole DGX-2) or smaller (a PCIe
        // pair) than this shape, or this very shape
        for last in [large, small, shape] {
            let pool = ScratchPool::new();
            last.plan_and_run(&pool);
            let (again, reprogram, rerun) = shape.plan_and_run(&pool);
            assert!(
                plan.bit_eq(&again),
                "{:?} after {:?}",
                shape.alloc,
                last.alloc
            );
            assert_eq!(program, reprogram);
            assert_eq!(run_bits(&run), run_bits(&rerun), "{:?}", shape.alloc);
            assert_eq!(pool.created(), 1, "one scratch served every step");
        }
    }
}

#[test]
fn a_store_whose_pool_is_warm_lowers_the_three_phase_program_unchanged() {
    let machine = multi_server(2, ServerKind::Dgx1V, 5.0);
    let alloc = ids(&[0, 1, 2, 8, 9, 10, 11, 12]);
    let lower = |store: &SharedPlanCache| {
        three_phase_allreduce_cached(
            &machine,
            &alloc,
            (32 << 20) + 5,
            LinkSelection::NvLinkOnly,
            &CodeGenOptions::default(),
            store,
        )
        .unwrap()
    };
    let (fresh, info) = lower(&SharedPlanCache::new());
    let sim = Simulator::new(machine.clone(), SimParams::default());
    let fresh_run = sim.run(&fresh).unwrap();
    // every store packs and simulates on the process's pool, which the
    // whole DGX-2, then a PCIe pair, used last
    let pool = ScratchPool::process();
    for last in [&shapes()[5], &shapes()[2]] {
        last.plan_and_run(pool);
        let (program, warm_info) = lower(&SharedPlanCache::new());
        assert_eq!(program, fresh);
        assert_eq!(info.roots, warm_info.roots);
        let run = sim
            .run_with_scratch(&program, &mut pool.checkout().engine)
            .unwrap();
        assert_eq!(run_bits(&run), run_bits(&fresh_run));
    }
}

#[test]
fn one_engine_scratch_moves_between_simulators_of_any_size() {
    // a DGX-2's resource table is several times a DGX-1V pair's
    let shapes = shapes();
    let programs: Vec<(&Shape, Program, RunReport)> = [&shapes[5], &shapes[1], &shapes[2]]
        .into_iter()
        .map(|s| {
            let (_, program, run) = s.plan_and_run(&ScratchPool::new());
            (s, program, run)
        })
        .collect();
    let pool = ScratchPool::new();
    let mut scratch = pool.checkout();
    for round in 0..2 {
        for (shape, program, fresh) in &programs {
            let sim = Simulator::new(shape.machine.clone(), SimParams::default());
            let run = sim.run_with_scratch(program, &mut scratch.engine).unwrap();
            assert_eq!(run_bits(&run), run_bits(fresh), "round {round}");
        }
    }
}

/// Runs `calls` on a communicator built by `build` over `store`, returning
/// every lowered program.
fn lowered(
    build: &dyn Fn() -> CommunicatorBuilder,
    store: &SharedPlanCache,
    calls: &[(CollectiveKind, u64)],
) -> Vec<Arc<Program>> {
    let mut comm = build().shared_plans(store.clone()).build().unwrap();
    calls
        .iter()
        .map(|&(kind, bytes)| {
            let (_, program, spans) = comm.run_traced(kind, bytes).unwrap();
            let check = check_collective(kind.spec(), &program, &spans, comm.allocation(), bytes);
            assert!(check.is_correct(), "{check}");
            program
        })
        .collect()
}

#[test]
fn tier_hits_are_the_programs_a_fresh_lowering_makes() {
    let mb = |n: u64| n << 20;
    let all_reduce = CollectiveKind::AllReduce;
    let on = |machine: Topology, alloc: Vec<GpuId>, options: CommunicatorOptions| {
        move || {
            Communicator::builder(machine.clone())
                .allocation(&alloc)
                .options(options)
        }
    };
    let hybrid = CommunicatorOptions {
        use_hybrid: true,
        ..Default::default()
    };
    let slices = vec![(0usize, ids(&[0, 1, 2])), (1usize, ids(&[8, 9, 10, 11]))];
    let three_phase = move || CommunicatorBuilder::from_placement(ServerKind::Dgx1V, 5.0, &slices);
    type Build = Box<dyn Fn() -> CommunicatorBuilder>;
    type Calls = Vec<(CollectiveKind, u64)>;
    let cases: Vec<(&str, Build, Calls)> = vec![
        (
            "dgx1v",
            Box::new(on(dgx1v(), ids(&[0, 2, 3, 5]), Default::default())),
            vec![
                (all_reduce, mb(16)),
                (CollectiveKind::Broadcast { root: GpuId(3) }, mb(4)),
            ],
        ),
        (
            "dgx1p pcie fallback",
            Box::new(on(dgx1p(), ids(&[1, 4]), Default::default())),
            vec![(all_reduce, mb(16)), (CollectiveKind::AllGather, mb(2))],
        ),
        (
            "hybrid",
            Box::new(on(dgx1v(), ids(&[0, 1, 2, 3]), hybrid)),
            vec![
                (CollectiveKind::Broadcast { root: GpuId(0) }, mb(64)),
                (all_reduce, mb(8)),
            ],
        ),
        (
            "three-phase",
            Box::new(three_phase),
            vec![(all_reduce, mb(16)), (all_reduce, mb(3))],
        ),
    ];
    for (name, build, calls) in cases {
        let shared = SharedPlanCache::new();
        let first = lowered(&*build, &shared, &calls);
        let (hits, _) = shared.lowering_stats();
        let second = lowered(&*build, &shared, &calls);
        assert_eq!(
            shared.lowering_stats().0,
            hits + calls.len() as u64,
            "{name}: the second communicator hits for every call"
        );
        let bypassed = lowered(&*build, &SharedPlanCache::new(), &calls);
        for ((a, b), c) in first.iter().zip(&second).zip(&bypassed) {
            assert!(Arc::ptr_eq(a, b), "{name}: a hit shares the program");
            assert_eq!(**b, **c, "{name}: a hit equals a fresh lowering");
        }
    }
}

#[test]
fn placed_jobs_lower_what_a_private_communicator_lowers() {
    // Fleet-style placements on DGX-1V servers: one- and two-server slices,
    // drawn with repeats so later jobs hit lowerings earlier jobs stored.
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    let mut draw = |below: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % below
    };
    let slice = |server: usize, draw: &mut dyn FnMut(u64) -> u64| {
        let k = 1 + draw(8) as usize;
        let mut local: Vec<usize> = (0..8).collect();
        let mut gpus: Vec<GpuId> = (0..k)
            .map(|_| GpuId(8 * server + local.swap_remove(draw(local.len() as u64) as usize)))
            .collect();
        gpus.sort();
        (server, gpus)
    };
    let shapes: Vec<Vec<(usize, Vec<GpuId>)>> = (0..12)
        .map(|i| {
            let first = slice(i % 4, &mut draw);
            if i % 3 == 0 {
                vec![first, slice(4 + i % 4, &mut draw)]
            } else {
                vec![first]
            }
        })
        .collect();
    let fleet = SharedPlanCache::new();
    for _ in 0..48 {
        let slices = &shapes[draw(shapes.len() as u64) as usize];
        let placed = || CommunicatorBuilder::from_placement(ServerKind::Dgx1V, 5.0, slices);
        let calls = [(CollectiveKind::AllReduce, 16 << 20)];
        let shared = lowered(&placed, &fleet, &calls);
        let private = lowered(&placed, &SharedPlanCache::new(), &calls);
        assert_eq!(*shared[0], *private[0], "{slices:?}");
    }
    assert!(
        fleet.lowering_stats().0 > 0,
        "some placed job took a stored lowering"
    );
}

#[test]
fn one_local_shape_on_every_server_packs_once() {
    // GPUs {0, 1, 3} of each of eight DGX-1V servers: one shape up to an
    // order-preserving renumbering, so one rank key per root
    let placed = |server: usize| {
        let slice = vec![(server, ids(&[8 * server, 8 * server + 1, 8 * server + 3]))];
        move || CommunicatorBuilder::from_placement(ServerKind::Dgx1V, 5.0, &slice)
    };
    let calls = [(CollectiveKind::AllReduce, 16 << 20)];
    let single = SharedPlanCache::new();
    lowered(&placed(0), &single, &calls);
    let fleet = SharedPlanCache::new();
    for server in 0..8 {
        let shared = lowered(&placed(server), &fleet, &calls);
        let mut private = placed(server)().isolated_plans().build().unwrap();
        let (_, program, _) = private.run_traced(calls[0].0, calls[0].1).unwrap();
        assert_eq!(*shared[0], *program, "server {server}");
    }
    assert_eq!(fleet.len(), single.len());
    assert_eq!(fleet.stats().1, single.stats().1, "packs");
    assert_eq!(fleet.mwu_iterations(), single.mwu_iterations());
}

#[test]
fn a_two_server_job_packs_the_local_shape_its_servers_share_once() {
    let machine = multi_server(2, ServerKind::Dgx1V, 5.0);
    let alloc = ids(&(0..16).collect::<Vec<_>>());
    let lower = |store: &SharedPlanCache| {
        three_phase_allreduce_cached(
            &machine,
            &alloc,
            (32 << 20) + 5,
            LinkSelection::NvLinkOnly,
            &CodeGenOptions::default(),
            store,
        )
        .unwrap()
        .0
    };
    // a fresh store: server 0 packs its 8 partition roots, server 1 takes
    // them relabelled
    let fresh = SharedPlanCache::new();
    let program = lower(&fresh);
    assert_eq!(fresh.stats(), (8, 8), "8 misses, not 16");
    assert_eq!(fresh.len(), 8);
    // a store holding server 1's own packs: now server 0 takes those
    let second = SharedPlanCache::new();
    let mut server1 = Communicator::builder(machine.clone())
        .allocation(&alloc[8..])
        .shared_plans(second.clone())
        .build()
        .unwrap();
    for &root in &alloc[8..] {
        server1.broadcast(root, 1 << 20).unwrap();
    }
    let (_, packs) = second.stats();
    assert_eq!(lower(&second), program);
    assert_eq!(second.stats().1, packs, "the job packs nothing");
    // and a communicator of the job lowers what a private one lowers
    let job = || Communicator::builder(machine.clone()).allocation(&alloc);
    let calls = [(CollectiveKind::AllReduce, 16 << 20)];
    let shared = lowered(&job, &second, &calls);
    let mut private = job().isolated_plans().build().unwrap();
    let (_, fresh, _) = private.run_traced(calls[0].0, calls[0].1).unwrap();
    assert_eq!(*shared[0], *fresh);
    assert_eq!(second.stats().1, packs);
}

#[test]
fn a_switch_verdict_belongs_to_its_lowering_key() {
    // On a whole DGX-2 the AllReduce race picks packed trees at 16 MiB and
    // one-hop trees at 256 MiB. In either order, each call lowers what a
    // fresh communicator's first call lowers: no earlier call picks a later
    // call's strategy.
    let full = ids(&(0..16).collect::<Vec<_>>());
    let build = || Communicator::builder(dgx2()).allocation(&full);
    let (big, small) = (
        (CollectiveKind::AllReduce, 256 << 20),
        (CollectiveKind::AllReduce, 16 << 20),
    );
    let fresh = |call| lowered(&build, &SharedPlanCache::new(), &[call]).remove(0);
    for calls in [[big, small], [small, big]] {
        let got = lowered(&build, &SharedPlanCache::new(), &calls);
        for (program, call) in got.iter().zip(calls) {
            assert_eq!(**program, *fresh(call), "{calls:?}");
        }
    }
    // One store: the first communicator races the key, and every later one
    // takes its winner and the winner's memoised total, running no engine.
    let shared = SharedPlanCache::new();
    let mut engine_runs = vec![shared.engine_runs()];
    let mut strategies = Vec::new();
    for _ in 0..3 {
        let mut comm = build().shared_plans(shared.clone()).build().unwrap();
        strategies.push(comm.run(big.0, big.1).unwrap().strategy);
        engine_runs.push(shared.engine_runs());
    }
    assert_eq!(engine_runs, [0, 2, 2, 2]);
    assert_eq!(shared.lowering_stats(), (2, 1));
    assert!(strategies.iter().all(|s| s == "one-hop switch trees"));
    let mut comm = build().isolated_plans().build().unwrap();
    let packed = comm.run(small.0, small.1).unwrap().strategy;
    assert_eq!(packed, "packed spanning trees (NVLink switch fabric)");
}

#[test]
fn repeated_splits_take_every_subgroup_lowering_a_private_communicator_makes() {
    let (kind, bytes) = (CollectiveKind::AllReduce, 8 << 20);
    let split_and_run = |store: &SharedPlanCache| {
        let parent = Communicator::builder(dgx1v())
            .shared_plans(store.clone())
            .build()
            .unwrap();
        // the two stride halves of a DGX-1V are isomorphic
        let mut groups = parent.split(&GroupSplit::ByStride(2)).unwrap();
        let (run, checks) = groups.run_concurrent_checked(&[(kind, bytes); 2]).unwrap();
        assert!(checks.iter().all(|c| c.is_correct()));
        let allocs: Vec<Vec<GpuId>> = groups
            .groups()
            .iter()
            .map(|g| g.allocation().to_vec())
            .collect();
        let programs: Vec<Arc<Program>> = run.groups.into_iter().map(|g| g.program).collect();
        (allocs, programs)
    };
    let shared = SharedPlanCache::new();
    let (_, first) = split_and_run(&shared);
    let (hits, misses) = shared.lowering_stats();
    assert_eq!(
        misses, 1,
        "the halves are one shape in one order: the second takes the first's lowering"
    );
    let (allocs, second) = split_and_run(&shared);
    assert_eq!(
        shared.lowering_stats(),
        (hits + 2, misses),
        "both subgroups take their lowering from the store"
    );
    for ((a, b), alloc) in first.iter().zip(&second).zip(&allocs) {
        // the second half runs a copy renamed onto its GPUs
        assert_eq!(**a, **b);
        let mut private = Communicator::builder(dgx1v())
            .allocation(alloc)
            .isolated_plans()
            .build()
            .unwrap();
        let (_, fresh, _) = private.run_traced(kind, bytes).unwrap();
        assert_eq!(**b, *fresh, "subgroup {alloc:?}");
    }
}

#[test]
fn every_dgx1_class_member_lowers_what_a_private_communicator_lowers() {
    // Every member of every 2-8 GPU isomorphism class, each a one-group
    // split over a store the whole class shares: what the store saw before
    // never changes a member's program.
    let bytes = 8 << 20;
    let mut lowerings = 0;
    let mut differ = Vec::new();
    for machine in [dgx1v(), dgx1p()] {
        for class in unique_allocations(&machine, 2..=8).unwrap() {
            let store = SharedPlanCache::new();
            for member in &class.members {
                let parent = Communicator::builder(machine.clone())
                    .shared_plans(store.clone())
                    .build()
                    .unwrap();
                let mut groups = parent
                    .split(&GroupSplit::Explicit(vec![member.clone()]))
                    .unwrap();
                let mut private = Communicator::builder(machine.clone())
                    .allocation(member)
                    .isolated_plans()
                    .build()
                    .unwrap();
                for kind in [
                    CollectiveKind::AllReduce,
                    CollectiveKind::Broadcast { root: member[0] },
                ] {
                    let (_, shared, _) = groups.groups_mut()[0].run_traced(kind, bytes).unwrap();
                    let (_, fresh, _) = private.run_traced(kind, bytes).unwrap();
                    lowerings += 1;
                    if *shared != *fresh {
                        differ.push(format!("{} {member:?} {kind}", machine.name()));
                    }
                }
            }
        }
    }
    assert_eq!(lowerings, 988);
    assert!(
        differ.is_empty(),
        "{} of {lowerings} lowerings differ, first: {:?}",
        differ.len(),
        &differ[..differ.len().min(4)]
    );
}

#[test]
fn a_replan_after_a_tier_hit_reports_what_it_would_after_a_fresh_lowering() {
    // (machine, allocation, delta)
    type Delta = fn(&Topology) -> TopologyDelta;
    let cases: [(Topology, Vec<GpuId>, Delta); 4] = [
        (dgx1v(), ids(&[0, 1, 2, 3, 4, 5, 6, 7]), |t| {
            TopologyDelta::kill_link(t, GpuId(0), GpuId(1))
        }),
        (dgx1v(), ids(&[0, 1, 2, 3, 4, 5, 6, 7]), |_| {
            TopologyDelta::drop_gpu(GpuId(7))
        }),
        // two roots pack in this allocation's sweep
        (dgx1v(), ids(&[0, 2, 3]), |t| {
            TopologyDelta::kill_link(t, GpuId(2), GpuId(3))
        }),
        (dgx2(), ids(&[0, 3, 7, 11, 12]), |t| {
            TopologyDelta::kill_link(t, GpuId(0), GpuId(3))
        }),
    ];
    // The earlier communicator lowers 4 MiB (running the root sweep) before
    // 8 MiB; the tested one issues 8 MiB first, so it takes a lowering made
    // after the sweep, and replans right after its tier hit.
    for (machine, alloc, delta) in cases {
        let replanned = |mut comm: Communicator| {
            let (_, program, _) = comm.run_traced(CollectiveKind::AllReduce, 8 << 20).unwrap();
            let report = comm.replan(&delta(comm.induced_topology())).unwrap();
            let (_, after, _) = comm.run_traced(CollectiveKind::AllReduce, 4 << 20).unwrap();
            (program, format!("{report:?}"), after)
        };
        let on = |store: &SharedPlanCache| {
            Communicator::builder(machine.clone())
                .allocation(&alloc)
                .shared_plans(store.clone())
                .build()
                .unwrap()
        };
        let shared = SharedPlanCache::new();
        let mut earlier = on(&shared);
        for bytes in [4 << 20, 8 << 20] {
            earlier.run(CollectiveKind::AllReduce, bytes).unwrap();
        }
        let (hits, _) = shared.lowering_stats();
        let (program, report, after) = replanned(on(&shared));
        assert_eq!(
            shared.lowering_stats().0,
            hits + 1,
            "{alloc:?}: one tier hit"
        );
        let fresh = SharedPlanCache::new();
        let (fresh_program, fresh_report, fresh_after) = replanned(on(&fresh));
        assert_eq!(fresh.lowering_stats().0, 0);
        assert_eq!(*program, *fresh_program, "{alloc:?}");
        assert_eq!(report, fresh_report, "{alloc:?}");
        assert_eq!(*after, *fresh_after, "{alloc:?}");
    }
}

/// Whether `program` copies over NVLink between `a` and `b`, either way.
fn uses(program: &Program, a: GpuId, b: GpuId) -> bool {
    program.ops().any(|op| {
        matches!(op.kind, OpKind::Copy { src, dst, class: LinkClass::NvLink, .. }
            if (src, dst) == (a, b) || (src, dst) == (b, a))
    })
}

#[test]
fn no_communicator_of_a_shared_store_takes_a_lowering_over_a_dead_link() {
    let alloc = ids(&[0, 1, 2, 3, 4, 5, 6, 7]);
    let store = SharedPlanCache::new();
    let build = |machine: Topology| {
        Communicator::builder(machine)
            .allocation(&alloc)
            .shared_plans(store.clone())
            .build()
            .unwrap()
    };
    let kind = CollectiveKind::AllReduce;
    let mut a = build(dgx1v());
    let mut b = build(dgx1v());
    let (_, before, _) = a.run_traced(kind, 16 << 20).unwrap();
    let (_, shared, _) = b.run_traced(kind, 16 << 20).unwrap();
    assert!(Arc::ptr_eq(&before, &shared), "b took a's lowering");
    let (x, y) = program_nvlink_pair(&before);
    let delta = TopologyDelta::kill_link(a.induced_topology(), x, y);
    // a replans first and b after it, through the same store
    for comm in [&mut a, &mut b] {
        comm.replan(&delta).unwrap();
        let (_, check) = comm.run_checked(kind, 16 << 20).unwrap();
        assert!(check.is_correct(), "{check}");
        let (_, after, _) = comm.run_traced(kind, 16 << 20).unwrap();
        assert!(!Arc::ptr_eq(&before, &after), "replan must re-lower");
        assert!(!uses(&after, x, y), "the new lowering avoids the dead link");
    }
    // a communicator built over the damaged machine never sees one
    let damaged = dgx1v().apply_delta(&delta).unwrap();
    let (_, fresh, _) = build(damaged).run_traced(kind, 16 << 20).unwrap();
    assert!(!uses(&fresh, x, y));
    // and a communicator still on the healthy machine is served the old
    // lowering from the store, which is what an isolated one lowers
    let (lowerings, packs) = (store.lowering_stats(), store.stats());
    let (_, healthy, _) = build(dgx1v()).run_traced(kind, 16 << 20).unwrap();
    assert_eq!(store.lowering_stats(), (lowerings.0 + 1, lowerings.1));
    assert_eq!(store.stats(), packs, "no plan looked up");
    assert!(Arc::ptr_eq(&healthy, &before));
    let (_, isolated, _) = isolated_on(dgx1v(), &alloc)
        .run_traced(kind, 16 << 20)
        .unwrap();
    assert_eq!(*healthy, *isolated);
}

/// A communicator over `alloc` on `machine` with a private plan store.
fn isolated_on(machine: Topology, alloc: &[GpuId]) -> Communicator {
    Communicator::builder(machine)
        .allocation(alloc)
        .isolated_plans()
        .build()
        .unwrap()
}

/// A DGX-1V with an extra 7 GB/s NVLink duplex between GPUs 0 and 1: its
/// NVLink graph is no lane graph (the 0-1 pair carries 30 GB/s, not a whole
/// number of 23 GB/s lanes), so it packs by MWU.
fn mixed_dgx1v() -> Topology {
    let mut machine = dgx1v();
    machine
        .add_duplex_with_bandwidth(GpuId(0), GpuId(1), LinkKind::NvLinkGen2, 1, 7.0)
        .unwrap();
    machine
}

#[test]
fn a_communicator_on_a_repaired_machine_lowers_what_an_isolated_one_lowers() {
    let alloc = ids(&[0, 1, 2, 3, 4, 5, 6, 7]);
    let store = SharedPlanCache::new();
    let build = |machine: Topology| {
        Communicator::builder(machine)
            .allocation(&alloc)
            .shared_plans(store.clone())
            .build()
            .unwrap()
    };
    let (kind, bytes) = (CollectiveKind::AllReduce, 16 << 20);
    // a replans around a dead 2-3 NVLink; the survivors are still no lane
    // graph, so the replan packs by MWU
    let mut a = build(mixed_dgx1v());
    a.run_traced(kind, bytes).unwrap();
    let delta = TopologyDelta::kill_link(a.induced_topology(), GpuId(2), GpuId(3));
    let replan = a.replan(&delta).unwrap();
    assert!(replan.warm_iterations > 0, "{replan:?}");
    let (_, repaired, _) = a.run_traced(kind, bytes).unwrap();
    // a fresh communicator on the damaged machine, over the same store,
    // lowers and runs what an isolated one there does, and so does a
    let damaged = mixed_dgx1v().apply_delta(&delta).unwrap();
    let (report, shared, spans) = build(damaged.clone()).run_traced(kind, bytes).unwrap();
    let (fresh, isolated, fresh_spans) = isolated_on(damaged, &alloc)
        .run_traced(kind, bytes)
        .unwrap();
    assert_eq!(*shared, *isolated);
    assert_eq!(
        format!("{report:?} {spans:?}"),
        format!("{fresh:?} {fresh_spans:?}")
    );
    assert_eq!(*repaired, *shared, "the replan is the fresh communicator's");
    assert!(Arc::ptr_eq(&repaired, &shared), "one shared lowering");
}

/// The endpoints of the first NVLink copy in `program`.
fn program_nvlink_pair(program: &Program) -> (GpuId, GpuId) {
    program
        .ops()
        .find_map(|op| match op.kind {
            OpKind::Copy {
                src,
                dst,
                class: LinkClass::NvLink,
                ..
            } => Some((src, dst)),
            _ => None,
        })
        .expect("the program copies over NVLink")
}

/// Streams three AllReduce buckets through `comm`.
fn step(comm: &mut Communicator) -> StreamedRun {
    let requests = [(16 << 20, 0.0), (16 << 20, 40.0), (4 << 20, 90.0)];
    comm.run_streamed(CollectiveKind::AllReduce, &requests)
        .unwrap()
}

/// Every group's spans and the finish time, floats bit for bit.
fn step_bits(run: &StreamedRun) -> String {
    let spans: Vec<_> = run.groups.iter().map(|g| (g.end_us, &g.op_spans)).collect();
    format!("{:?} {spans:?}", run.finish_us)
}

/// The compiled forms of a step's lowerings, one per group.
fn compiled_forms(run: &StreamedRun) -> Vec<Arc<CompiledProgram>> {
    run.groups.iter().map(|g| g.compiled.clone()).collect()
}

#[test]
fn placement_communicators_over_the_same_slices_share_one_compiled_form() {
    let slices = vec![(0usize, ids(&[0, 1, 2, 5])), (1usize, ids(&[9, 10]))];
    let placed = || CommunicatorBuilder::from_placement(ServerKind::Dgx1V, 5.0, &slices);
    let store = SharedPlanCache::new();
    let mut a = placed().shared_plans(store.clone()).build().unwrap();
    // a fresh lowering carries its form from its first run on
    let fresh = step(&mut a);
    let forms = compiled_forms(&fresh);
    let repeat = step(&mut a);
    let mut b = placed().shared_plans(store.clone()).build().unwrap();
    let shared = step(&mut b);
    for run in [&repeat, &shared] {
        for (form, other) in forms.iter().zip(compiled_forms(run)) {
            assert!(Arc::ptr_eq(form, &other), "a's repeat and b run a's form");
        }
    }
    let private = step(&mut placed().isolated_plans().build().unwrap());
    for run in [&repeat, &shared] {
        assert_eq!(step_bits(run), step_bits(&fresh));
    }
    assert_eq!(step_bits(&private), step_bits(&fresh));
}

/// `machine` with the bandwidth of its first `(src, dst)` link one ulp
/// higher.
fn one_ulp_faster(machine: &Topology, src: GpuId, dst: GpuId) -> Topology {
    let mut out = Topology::new(machine.name());
    for g in machine.gpus() {
        out.add_gpu(g.id, g.server, g.local_index).unwrap();
    }
    let mut pending = true;
    for link in machine.links() {
        let mut link = *link;
        if pending && (link.src, link.dst) == (src, dst) {
            link.bandwidth_gbps = f64::from_bits(link.bandwidth_gbps.to_bits() + 1);
            pending = false;
        }
        out.add_link(link).unwrap();
    }
    out
}

#[test]
fn a_machine_that_differs_in_one_read_recompiles() {
    let alloc = ids(&[0, 1, 2, 3, 4, 5, 6, 7]);
    let mut comm = Communicator::builder(dgx1v())
        .allocation(&alloc)
        .isolated_plans()
        .build()
        .unwrap();
    step(&mut comm);
    let home = step(&mut comm);
    let home_sim = Simulator::new(dgx1v(), SimParams::default());
    let slower = SimParams {
        link_latency_us: SimParams::default().link_latency_us * 2.0,
        ..SimParams::default()
    };
    let bits = |run: &RunReport| format!("{:?} {:?}", run.total_us, run.op_spans);
    for form in compiled_forms(&home) {
        let program = form.program();
        let (src, dst) = program_nvlink_pair(program);
        let elsewhere = [
            Simulator::new(one_ulp_faster(&dgx1v(), src, dst), SimParams::default()),
            Simulator::new(dgx1v(), slower),
        ];
        let own = home_sim.run(program).unwrap();
        for sim in elsewhere {
            assert!(!form.fits(&sim));
            let fresh = sim.run(program).unwrap();
            assert_ne!(bits(&fresh), bits(&own), "the read changes the schedule");
            let reused = sim
                .run_compiled(program, &form, &mut ScratchPool::new().checkout().engine)
                .unwrap();
            assert_eq!(run_bits(&reused), run_bits(&fresh));
        }
    }
    // under the changed calibration, a session of the stored forms runs
    // as a session of the plain programs does
    let slow_sim = Simulator::new(dgx1v(), slower);
    let (mut forms, mut plain) = (slow_sim.session(), slow_sim.session());
    for (g, form) in home.groups.iter().zip(compiled_forms(&home)) {
        forms.admit_compiled(g.program.clone(), form, g.issue_us);
        plain.admit(g.program.clone(), g.issue_us);
    }
    let (forms, plain) = (forms.run().unwrap(), plain.run().unwrap());
    assert_eq!(format!("{forms:?}"), format!("{plain:?}"));
}

#[test]
fn a_communicator_on_a_renumbered_machine_runs_the_shared_form() {
    // GPUs 4-7 induce the same topology on a whole DGX-1V and on a machine
    // of GPUs 2-7, so both communicators share one lowering. Each simulates
    // only its slice, where the GPUs sit at the same dense indices over the
    // same link ids, so the second communicator runs the form the first
    // compiled, and runs it as a private communicator runs its own programs
    let alloc = ids(&[4, 5, 6, 7]);
    let renumbered = dgx1v().induced(&ids(&[2, 3, 4, 5, 6, 7])).unwrap();
    let store = SharedPlanCache::new();
    let on = |machine: Topology, store: &SharedPlanCache| {
        Communicator::builder(machine)
            .allocation(&alloc)
            .shared_plans(store.clone())
            .build()
            .unwrap()
    };
    let mut whole = on(dgx1v(), &store);
    step(&mut whole);
    let forms = compiled_forms(&step(&mut whole));
    let mut away = on(renumbered.clone(), &store);
    let slice = Simulator::new(away.induced_topology().clone(), SimParams::default());
    let shared = step(&mut away);
    for (form, other) in forms.iter().zip(compiled_forms(&shared)) {
        assert!(Arc::ptr_eq(form, &other), "the lowering is shared");
        assert!(form.fits(&slice), "and its form runs on the second slice");
    }
    let private = step(&mut on(renumbered, &SharedPlanCache::new()));
    assert_eq!(step_bits(&shared), step_bits(&private));
}

#[test]
fn a_shared_form_that_does_not_fit_never_serves_its_memoised_total() {
    // A two-server placement's topology and a copy without server NICs
    // share a lowering key (the key does not read NICs, and nor does a
    // lowering), so both communicators take one lowering. Only the first
    // simulates copies that bind on the NICs, so the form compiled there
    // does not fit the second's simulator, and the second must simulate
    // its own program on every run.
    let slices = vec![(0usize, ids(&[0, 1, 2])), (1usize, ids(&[8, 9, 10, 11]))];
    let with_nics = placement_topology(ServerKind::Dgx1V, 5.0, &slices).unwrap();
    let mut without_nics = Topology::new(with_nics.name());
    for g in with_nics.gpus() {
        without_nics.add_gpu(g.id, g.server, g.local_index).unwrap();
    }
    for link in with_nics.links() {
        without_nics.add_link(*link).unwrap();
    }
    let (kind, bytes) = (CollectiveKind::AllReduce, 16 << 20);
    let store = SharedPlanCache::new();
    let on = |machine: &Topology| {
        Communicator::builder(machine.clone())
            .shared_plans(store.clone())
            .build()
            .unwrap()
    };
    // a fresh lowering, which compiles the form and whose run memoises its
    // total, then two hits served that total
    let mut home = on(&with_nics);
    let runs: Vec<_> = (0..3).map(|_| home.run(kind, bytes).unwrap()).collect();
    assert_eq!(store.engine_runs(), 1, "the later runs are served the memo");
    assert_eq!(store.lowering_stats(), (2, 1), "one lowering, one form");
    let mut away = on(&without_nics);
    for i in 1..=2 {
        let (hits, misses) = store.lowering_stats();
        let report = away.run(kind, bytes).unwrap();
        assert_eq!(
            store.lowering_stats(),
            (hits + 1, misses),
            "a shared lowering"
        );
        assert_eq!(store.engine_runs(), 1 + i, "a form that does not fit runs");
        let private = Communicator::builder(without_nics.clone())
            .isolated_plans()
            .build()
            .unwrap()
            .run(kind, bytes)
            .unwrap();
        assert_eq!(format!("{report:?}"), format!("{private:?}"));
        assert_ne!(
            report.elapsed_us.to_bits(),
            runs[2].elapsed_us.to_bits(),
            "the memoised total would have been wrong here"
        );
    }
    for run in &runs[1..] {
        assert_eq!(format!("{run:?}"), format!("{:?}", runs[0]));
    }
}

#[test]
fn a_repeated_concurrent_step_lowers_nothing_new() {
    let store = SharedPlanCache::new();
    let parent = Communicator::builder(dgx1v())
        .shared_plans(store.clone())
        .build()
        .unwrap();
    let mut groups = parent.split(&GroupSplit::ByStride(2)).unwrap();
    let requests = vec![(CollectiveKind::AllReduce, 8 << 20); 2];
    let mut runs: Vec<GroupRun> = Vec::new();
    let mut misses = Vec::new();
    for _ in 0..3 {
        runs.push(groups.run_concurrent(&requests).unwrap());
        misses.push(store.lowering_stats().1);
    }
    assert_eq!(misses[0], 1, "the two halves share one lowering");
    assert_eq!(misses[2], misses[1], "the third step lowers nothing new");
    for (a, b) in runs[1].groups.iter().zip(&runs[2].groups) {
        // one stored program, the second half's renamed onto its GPUs
        assert_eq!(*a.program, *b.program, "and runs the stored programs");
    }
    for run in &runs[1..] {
        assert_eq!(run.finish_us.to_bits(), runs[0].finish_us.to_bits());
        for (g, first) in run.groups.iter().zip(&runs[0].groups) {
            assert_eq!(format!("{:?}", g.op_spans), format!("{:?}", first.op_spans));
        }
    }
}

/// GPUs `local` (indices within a server) of DGX-1V server `server`.
fn on_server(server: usize, local: &[usize]) -> Vec<GpuId> {
    local.iter().map(|&l| GpuId(8 * server + l)).collect()
}

/// A communicator over DGX-1V `slices`, planning through `store` (a private
/// store when `None`).
fn placed_on(
    slices: &[(usize, Vec<GpuId>)],
    options: CommunicatorOptions,
    store: Option<&SharedPlanCache>,
) -> Communicator {
    let builder =
        CommunicatorBuilder::from_placement(ServerKind::Dgx1V, 5.0, slices).options(options);
    match store {
        Some(store) => builder.shared_plans(store.clone()),
        None => builder.isolated_plans(),
    }
    .build()
    .unwrap()
}

/// `comm`'s AllReduce of `bytes`: the program and the report with the op
/// spans, floats bit for bit.
fn all_reduce(comm: &mut Communicator, bytes: u64) -> (Arc<Program>, String) {
    let (report, program, spans) = comm.run_traced(CollectiveKind::AllReduce, bytes).unwrap();
    (program, format!("{report:?} {spans:?}"))
}

/// (local GPUs per server of a job, options): every 2-8 GPU subset of a
/// DGX-1V server, PCIe-fallback pairs such as {1, 4} among them, then
/// hybrid jobs and two-server (three-phase) jobs.
fn local_shapes() -> Vec<(Vec<Vec<usize>>, CommunicatorOptions)> {
    let hybrid = CommunicatorOptions {
        use_hybrid: true,
        ..Default::default()
    };
    let mut shapes: Vec<(Vec<Vec<usize>>, CommunicatorOptions)> = (0u32..256)
        .filter(|mask| (2..=8).contains(&mask.count_ones()))
        .map(|mask| {
            let local = (0..8).filter(|l| mask >> l & 1 == 1).collect();
            (vec![local], Default::default())
        })
        .collect();
    assert_eq!(shapes.len(), 247);
    for local in [vec![0, 1, 2, 3], vec![1, 2, 5, 6, 7], (0..8).collect()] {
        shapes.push((vec![local], hybrid));
    }
    for pair in [
        [vec![0, 1, 2], vec![0, 1, 2, 3]],
        [vec![1, 4], vec![2, 5, 6]],
        [vec![0, 3, 5, 6], vec![1, 7]],
        [(0..8).collect(), vec![4, 5, 6, 7]],
    ] {
        shapes.push((pair.to_vec(), Default::default()));
    }
    shapes
}

/// A job of `locals` (one local shape per server) placed on three sets of
/// servers of a DGX-1V fleet, each set in ascending order, so slices keep
/// their order.
fn on_three_server_sets(locals: &[Vec<usize>]) -> Vec<Vec<(usize, Vec<GpuId>)>> {
    let server_sets: &[&[usize]] = match locals.len() {
        1 => &[&[0], &[3], &[7]],
        _ => &[&[0, 1], &[3, 6], &[2, 7]],
    };
    server_sets
        .iter()
        .map(|servers| {
            servers
                .iter()
                .zip(locals)
                .map(|(&server, local)| (server, on_server(server, local)))
                .collect()
        })
        .collect()
}

#[test]
fn every_local_shape_lowers_on_every_server_what_an_isolated_communicator_lowers() {
    let bytes = (3 << 20) + 5;
    let store = SharedPlanCache::new();
    for (locals, options) in &local_shapes() {
        for (k, slices) in on_three_server_sets(locals).iter().enumerate() {
            let (hits, misses) = store.lowering_stats();
            let shared = all_reduce(&mut placed_on(slices, *options, Some(&store)), bytes);
            let private = all_reduce(&mut placed_on(slices, *options, None), bytes);
            assert_eq!(*shared.0, *private.0, "{slices:?}");
            assert_eq!(shared.1, private.1, "{slices:?}");
            if k > 0 {
                assert_eq!(
                    store.lowering_stats(),
                    (hits + 1, misses),
                    "{slices:?} takes the first server's lowering"
                );
            }
        }
    }
}

/// What a stored lowering reads of `comm`, with GPUs and servers named by
/// their positions in its slice instead of by id: each GPU's server and
/// fabric cap, every link in order (endpoints, kind, lanes, bandwidth
/// bits), the allocation order and whether it lowers hybrid transfers. Two
/// communicators whose slices' ids ascend share a lowering-tier key
/// exactly when these agree.
fn lowering_shape(comm: &Communicator) -> String {
    let topo = comm.induced_topology();
    let ids = topo.gpu_ids();
    let rank = |g: GpuId| ids.iter().position(|&id| id == g).unwrap();
    let mut servers: Vec<_> = topo.gpus().iter().map(|g| g.server).collect();
    servers.dedup();
    let gpus: Vec<_> = topo
        .gpus()
        .iter()
        .map(|g| {
            let server = servers.iter().position(|&s| s == g.server).unwrap();
            (server, topo.gpu_cap(g.id).map(f64::to_bits))
        })
        .collect();
    let links: Vec<_> = topo
        .links()
        .iter()
        .map(|l| {
            let bw = l.bandwidth_gbps.to_bits();
            (rank(l.src), rank(l.dst), l.kind, l.lanes, bw)
        })
        .collect();
    let order: Vec<usize> = comm.allocation().iter().map(|&g| rank(g)).collect();
    let hybrid = comm.options().use_hybrid;
    format!("{gpus:?} {links:?} {order:?} {hybrid}")
}

#[test]
fn every_local_shape_runs_on_every_server_what_an_isolated_communicator_runs() {
    // the first communicator of a lowering shape lowers afresh, compiling
    // the entry's form, and simulates it, memoising its total; every later
    // one hits and is served that total without running the engine. Local
    // shapes at different places on a server can be one lowering shape, so
    // the count follows the shape, not the server set.
    let bytes = (3 << 20) + 5;
    let kind = CollectiveKind::AllReduce;
    let store = SharedPlanCache::new();
    let mut seen = std::collections::HashMap::new();
    for (locals, options) in &local_shapes() {
        for (k, slices) in on_three_server_sets(locals).iter().enumerate() {
            let (hits, misses) = store.lowering_stats();
            let runs = store.engine_runs();
            let mut comm = placed_on(slices, *options, Some(&store));
            let before: &mut u64 = seen.entry(lowering_shape(&comm)).or_default();
            let earlier = *before;
            *before += 1;
            let shared = comm.run(kind, bytes).unwrap();
            let private = placed_on(slices, *options, None).run(kind, bytes).unwrap();
            assert_eq!(format!("{shared:?}"), format!("{private:?}"), "{slices:?}");
            assert_eq!(shared.elapsed_us.to_bits(), private.elapsed_us.to_bits());
            assert!(
                k == 0 || earlier > 0,
                "a later server set shares the first's"
            );
            let hit = u64::from(earlier > 0);
            assert_eq!(
                store.lowering_stats(),
                (hits + hit, misses + 1 - hit),
                "{slices:?}"
            );
            assert_eq!(
                store.engine_runs(),
                runs + u64::from(earlier == 0),
                "{slices:?}: the shape's communicator {earlier} runs the engine only \
                 without a memoised total"
            );
        }
    }
    assert!(
        seen.len() < local_shapes().len(),
        "some local shapes share a lowering"
    );
}

#[test]
fn the_first_hit_of_a_run_runs_no_engine() {
    // the fresh lowering's run memoised its form's total, so the entry's
    // first hit, on another server, is served it: no compile, no engine
    let (kind, bytes) = (CollectiveKind::AllReduce, 16 << 20);
    let options = CommunicatorOptions::default();
    let store = SharedPlanCache::new();
    let on = |server| vec![(server, on_server(server, &[0, 1, 2, 5]))];
    let fresh = placed_on(&on(0), options, Some(&store))
        .run(kind, bytes)
        .unwrap();
    assert_eq!(store.engine_runs(), 1);
    let hit = placed_on(&on(3), options, Some(&store))
        .run(kind, bytes)
        .unwrap();
    assert_eq!(store.lowering_stats(), (1, 1), "the second run hits");
    assert_eq!(store.engine_runs(), 1, "and runs no engine");
    let private = placed_on(&on(3), options, None).run(kind, bytes).unwrap();
    for report in [&fresh, &private] {
        assert_eq!(format!("{hit:?}"), format!("{report:?}"));
    }
}

#[test]
fn a_rooted_collective_lowers_once_for_one_position_of_one_local_shape() {
    // a rooted lowering is keyed by the root's position in the allocation,
    // so one local shape rooted at one position lowers once on any server
    let bytes = (3 << 20) + 5;
    let local = [0, 1, 3, 6];
    let kinds: [fn(GpuId) -> CollectiveKind; 3] = [
        |root| CollectiveKind::Broadcast { root },
        |root| CollectiveKind::Gather { root },
        |root| CollectiveKind::Reduce { root },
    ];
    for kind_at in kinds {
        let store = SharedPlanCache::new();
        for (server, position) in [(0, 1), (5, 1), (2, 1), (5, 3)] {
            let slices = vec![(server, on_server(server, &local))];
            let kind = kind_at(slices[0].1[position]);
            let (hits, misses) = store.lowering_stats();
            let options = CommunicatorOptions::default();
            let (report, program, _) = placed_on(&slices, options, Some(&store))
                .run_traced(kind, bytes)
                .unwrap();
            let (fresh, own, _) = placed_on(&slices, options, None)
                .run_traced(kind, bytes)
                .unwrap();
            assert_eq!(*program, *own, "{kind} on server {server}");
            assert_eq!(format!("{report:?}"), format!("{fresh:?}"));
            let fresh_lowering = server == 0 || position == 3;
            assert_eq!(
                store.lowering_stats(),
                if fresh_lowering {
                    (hits, misses + 1)
                } else {
                    (hits + 1, misses)
                },
                "{kind} on server {server}"
            );
        }
    }
}

/// A seeded random DGX-1V placement: one to three ascending servers of
/// eight, each with a random set of one or two local GPUs, or two or three
/// on a lone server. Small sets, so that many placements share a shape.
fn random_placement(rng: &mut StdRng) -> Vec<(usize, Vec<GpuId>)> {
    let n_servers = 1 + rng.random_below(3) as usize;
    let mut servers: Vec<usize> = Vec::new();
    while servers.len() < n_servers {
        let s = rng.random_below(8) as usize;
        if !servers.contains(&s) {
            servers.push(s);
        }
    }
    servers.sort_unstable();
    servers
        .into_iter()
        .map(|server| {
            let size = if n_servers == 1 {
                2 + rng.random_below(2) as usize
            } else {
                1 + rng.random_below(2) as usize
            };
            let mut local: Vec<usize> = Vec::new();
            while local.len() < size {
                let l = rng.random_below(8) as usize;
                if !local.contains(&l) {
                    local.push(l);
                }
            }
            local.sort_unstable();
            (server, on_server(server, &local))
        })
        .collect()
}

#[test]
fn placements_that_share_a_rank_fingerprint_share_what_they_run() {
    // Seeded random placements, paired wherever their lowering shapes
    // agree. The second of each pair takes the first's lowering from a
    // shared store, and its first AllReduce reports and traces what an
    // isolated communicator's does.
    let bytes = (3 << 20) + 5;
    let kind = CollectiveKind::AllReduce;
    let options = CommunicatorOptions::default();
    let mut rng = StdRng::seed_from_u64(0x5eed_0039);
    let placements: Vec<_> = (0..64).map(|_| random_placement(&mut rng)).collect();
    let isolated: Vec<(String, Arc<Program>, String)> = placements
        .iter()
        .map(|slices| {
            let mut comm = placed_on(slices, options, None);
            let (report, program, _) = comm.run_traced(kind, bytes).unwrap();
            (lowering_shape(&comm), program, format!("{report:?}"))
        })
        .collect();
    let mut pairs = 0;
    for (i, a) in placements.iter().enumerate() {
        for (j, b) in placements.iter().enumerate().skip(i + 1) {
            if isolated[i].0 != isolated[j].0 {
                continue;
            }
            pairs += 1;
            let store = SharedPlanCache::new();
            placed_on(a, options, Some(&store))
                .run(kind, bytes)
                .unwrap();
            let mut comm = placed_on(b, options, Some(&store));
            let report = comm.run(kind, bytes).unwrap();
            let (traced, program, _) = comm.run_traced(kind, bytes).unwrap();
            assert_eq!(store.lowering_stats(), (2, 1), "{b:?} hits {a:?}");
            let (_, own, own_report) = &isolated[j];
            assert_eq!(&format!("{report:?}"), own_report, "{b:?} after {a:?}");
            assert_eq!(&format!("{traced:?}"), own_report);
            assert_eq!(*program, **own, "{b:?} after {a:?}");
        }
    }
    assert!(pairs >= 30, "only {pairs} pairs share a lowering shape");
    // and through one store, a placement hits exactly when an earlier
    // placement had its lowering shape
    let store = SharedPlanCache::new();
    for (k, slices) in placements.iter().enumerate() {
        let (hits, _) = store.lowering_stats();
        placed_on(slices, options, Some(&store))
            .run(kind, bytes)
            .unwrap();
        let shared = isolated[..k].iter().any(|(s, ..)| *s == isolated[k].0);
        assert_eq!(
            store.lowering_stats().0,
            hits + u64::from(shared),
            "{slices:?}"
        );
    }
}

#[test]
fn every_one_plus_one_placement_is_one_fresh_lowering() {
    let bytes = 16 << 20;
    let options = CommunicatorOptions::default();
    let store = SharedPlanCache::new();
    let mut reports = Vec::new();
    for (s1, s2) in [(0, 1), (2, 5), (3, 7), (4, 6)] {
        for l1 in 0..8 {
            for l2 in [l1, (l1 + 3) % 8] {
                let slices = vec![(s1, on_server(s1, &[l1])), (s2, on_server(s2, &[l2]))];
                let report = placed_on(&slices, options, Some(&store))
                    .run(CollectiveKind::AllReduce, bytes)
                    .unwrap();
                reports.push(format!("{report:?}"));
            }
        }
    }
    assert_eq!(store.lowering_stats(), (63, 1));
    assert!(reports.iter().all(|r| *r == reports[0]));
}

#[test]
fn a_delta_on_one_servers_job_leaves_what_another_servers_job_is_served() {
    let bytes = 8 << 20;
    let local = [0, 1, 2, 3, 5];
    let slices = |server: usize| vec![(server, on_server(server, &local))];
    let options = CommunicatorOptions::default();
    let store = SharedPlanCache::new();
    let mut first = placed_on(&slices(0), options, Some(&store));
    let (before, _) = all_reduce(&mut first, bytes);
    let mut other = placed_on(&slices(3), options, Some(&store));
    let (served, report) = all_reduce(&mut other, bytes);
    assert_eq!(
        store.lowering_stats().0,
        1,
        "server 3 takes server 0's lowering"
    );
    // a link the first job's program copies over dies
    let (x, y) = program_nvlink_pair(&before);
    first
        .replan(&TopologyDelta::kill_link(first.induced_topology(), x, y))
        .unwrap();
    let (after, _) = all_reduce(&mut first, bytes);
    assert!(
        !uses(&after, x, y),
        "the replanned job avoids the dead link"
    );
    // the replan stays server 0's own, so server 3's job is served the
    // stored lowering again, which is what an isolated communicator lowers
    let lowerings = store.lowering_stats();
    let again = all_reduce(&mut other, bytes);
    assert_eq!(
        store.lowering_stats(),
        (lowerings.0 + 1, lowerings.1),
        "served from the store"
    );
    assert_eq!(*again.0, *served);
    assert_eq!(again.1, report);
    let isolated = all_reduce(&mut placed_on(&slices(3), options, None), bytes);
    assert_eq!(*again.0, *isolated.0);
    assert_eq!(again.1, isolated.1);
    // and a new job of the shape, on server 7, lowers what a private
    // communicator lowers
    let shared = all_reduce(&mut placed_on(&slices(7), options, Some(&store)), bytes);
    let private = all_reduce(&mut placed_on(&slices(7), options, None), bytes);
    assert_eq!(*shared.0, *private.0);
    assert_eq!(shared.1, private.1);
}

#[test]
fn a_fleet_serves_every_first_collective_what_an_isolated_communicator_lowers() {
    // the oracle samples none, so every first collective is kept: each
    // placed job's, and each moved job's on its new placement
    let config = FleetConfig {
        jobs: 2_000,
        check_every: 0,
        ..Default::default()
    };
    assert_eq!(config.workload.seed, 42);
    let mut fleet = FleetPipeline::new(config.clone());
    fleet.keep_first_runs();
    let report = fleet.run().unwrap();
    assert!(report.consolidations > 0, "the stream consolidates");
    assert_eq!(
        fleet.first_runs().len(),
        report.placed + report.consolidations
    );
    assert!(fleet.shared_cache().lowering_stats().0 > 0, "some job hit");
    for (placement, (served, program, spans)) in fleet.first_runs() {
        let mut private = CommunicatorBuilder::from_placement(
            config.server_kind,
            config.nic_gbps,
            &placement.slices,
        )
        .isolated_plans()
        .build()
        .unwrap();
        let (fresh, fresh_program, fresh_spans) = private
            .run_traced(CollectiveKind::AllReduce, config.collective_bytes)
            .unwrap();
        assert_eq!(**program, *fresh_program, "job {}", placement.job_id);
        assert_eq!(
            format!("{served:?} {spans:?}"),
            format!("{fresh:?} {fresh_spans:?}"),
            "job {}",
            placement.job_id
        );
    }
}

#[test]
fn a_fleet_served_memoised_totals_reports_what_a_fully_simulated_fleet_reports() {
    // Kept first runs are traced, so every one simulates; without them a
    // lowering-tier hit whose form fits is served its memoised total
    let config = FleetConfig {
        jobs: 2_000,
        check_every: 0,
        ..Default::default()
    };
    assert_eq!(config.workload.seed, 42);
    let mut simulated = FleetPipeline::new(config.clone());
    simulated.keep_first_runs();
    let full = simulated.run().unwrap();
    let mut memoised = FleetPipeline::new(config);
    let served = memoised.run().unwrap();
    // a single-GPU job's collective is trivial and runs nothing either way
    let first_runs = simulated
        .first_runs()
        .iter()
        .filter(|(placement, _)| placement.total_gpus() > 1)
        .count() as u64;
    assert_eq!(simulated.shared_cache().engine_runs(), first_runs);
    assert!(
        memoised.shared_cache().engine_runs() < first_runs,
        "some first collective was served a memoised total"
    );
    assert_eq!(full.outcomes.len(), served.outcomes.len());
    for (a, b) in full.outcomes.iter().zip(&served.outcomes) {
        assert_eq!(a.job_id, b.job_id);
        assert_eq!(a.strategy, b.strategy, "job {}", a.job_id);
        assert_eq!(
            a.rate_gbps.to_bits(),
            b.rate_gbps.to_bits(),
            "job {}",
            a.job_id
        );
    }
    assert_eq!(full.consolidations, served.consolidations);
    assert_eq!(full.consolidations_improved, served.consolidations_improved);
}

#[test]
fn a_job_placed_mid_outage_is_built_on_the_degraded_topology() {
    // NVLink pair (0, 1) of server 0 flaps at t=0.5 and heals at t=50
    let flap = FaultRecord {
        fault_id: 0,
        at: 0.5,
        event: FaultEvent::LinkFlap {
            server: 0,
            a: 0,
            b: 1,
        },
        heal: false,
    };
    let heal = FaultRecord {
        at: 50.0,
        heal: true,
        ..flap
    };
    let config = FleetConfig {
        check_every: 0,
        ..Default::default()
    };
    let mut fleet = FleetPipeline::new(config.clone());
    fleet.set_fault_injector(FaultInjector::scripted(
        vec![flap, heal],
        config.servers,
        config.server_kind,
    ));
    fleet.keep_first_runs();
    // arrives with the flap in force and takes server 0 whole
    let job = Job {
        id: 0,
        gpus: 8,
        arrival: 1.0,
        duration: 10.0,
    };
    let report = fleet.run_jobs(&[job]).unwrap();
    assert_eq!((report.placed, report.faults_injected), (1, 1));
    let [(placement, (served, program, spans))] = fleet.first_runs() else {
        panic!("one first collective is kept");
    };
    let (a, b) = (GpuId(0), GpuId(1));
    assert_eq!(placement.slices, vec![(0, ids(&[0, 1, 2, 3, 4, 5, 6, 7]))]);
    let flapped = [(a, b), (b, a)];
    assert!(
        !program.ops().any(|op| matches!(op.kind,
            OpKind::Copy { src, dst, .. } if flapped.contains(&(src, dst)))),
        "the job copies over the flapped pair"
    );
    let degraded = placement_topology(config.server_kind, config.nic_gbps, &placement.slices)
        .unwrap()
        .filter_links(|l| l.kind == LinkKind::Pcie || !flapped.contains(&(l.src, l.dst)));
    let (fresh, fresh_program, fresh_spans) = Communicator::builder(degraded)
        .isolated_plans()
        .build()
        .unwrap()
        .run_traced(CollectiveKind::AllReduce, config.collective_bytes)
        .unwrap();
    assert_eq!(**program, *fresh_program);
    assert_eq!(
        format!("{served:?} {spans:?}"),
        format!("{fresh:?} {fresh_spans:?}")
    );
}
