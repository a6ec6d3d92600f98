//! A seeded differential test of "a lowering is a function of its key".
//!
//! Random 2–16-GPU allocations on a DGX-1V, DGX-1P and DGX-2, with and
//! without hybrid transfers, on one shared store or a private one, each
//! make a shuffled sequence of calls of every collective kind: random sizes
//! from 1 KB to 256 MiB, and the edges 0 B, 1 B, 100,003 B and sizes near
//! `u64::MAX`, plus a root outside the allocation. Every call must report
//! and lower, bit for bit, what a fresh isolated communicator's first call
//! of it does, whatever the communicator and its store saw before; a sample
//! must pass the value-level oracle; and every failure must be a typed
//! error, never a panic.
//!
//! A seeded three quarters of the allocations also replan part way
//! through their calls, through one or two faults (a killed link, a
//! dropped GPU) composed into one delta, and replan again later through a
//! heal that restores the killed links between the GPUs that survived.
//! Every allocation also replans once through an empty delta, which must
//! report the first rung of the degradation ladder. A replan is a fresh
//! build over the damaged machine, so every call after a replan must be a
//! fresh isolated communicator's first call over the machine the replans
//! left and the surviving allocation, and every replan must report the
//! root and rate that communicator's root sweep picks.

use blink_core::{
    CollectiveKind, Communicator, CommunicatorOptions, DegradationLevel, SharedPlanCache,
};
use blink_topology::presets::{dgx1p, dgx1v, dgx2};
use blink_topology::{GpuId, Topology, TopologyDelta};
use rand::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Random allocations the test makes.
const ALLOCATIONS: u64 = 40;

/// Calls of each kind per allocation.
const CALLS_PER_KIND: usize = 6;

/// A size from 1 KB to 256 MiB, log-uniform, or one of the edge sizes.
fn size(rng: &mut StdRng) -> u64 {
    match rng.random_below(8) {
        0 => 0,
        1 => 1,
        2 => 100_003,
        3 => u64::MAX - rng.random_below(1 << 10),
        _ => 2f64.powf(10.0 + 18.0 * rng.random::<f64>()) as u64,
    }
}

fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_below(i as u64 + 1) as usize);
    }
}

/// One or two faults on `alloc` of `machine`, composed into one delta: a
/// killed link between two allocated GPUs, or a dropped GPU while at least
/// two others remain. The second fault touches no GPU of the first.
fn faults(rng: &mut StdRng, machine: &Topology, alloc: &[GpuId]) -> TopologyDelta {
    let mut delta = TopologyDelta::default();
    let mut touched: Vec<GpuId> = Vec::new();
    for _ in 0..1 + rng.random_below(2) {
        let free: Vec<GpuId> = alloc
            .iter()
            .copied()
            .filter(|g| !touched.contains(g))
            .collect();
        let pick =
            |rng: &mut StdRng, from: &[GpuId]| from[rng.random_below(from.len() as u64) as usize];
        if rng.random_below(2) == 0 && free.len() >= 2 {
            let a = pick(rng, &free);
            let others: Vec<GpuId> = free.iter().copied().filter(|&g| g != a).collect();
            let b = pick(rng, &others);
            delta = delta.compose(&TopologyDelta::kill_link(machine, a, b));
            touched.extend([a, b]);
        } else if alloc.len() - delta.removed_gpus.len() > 2 && !free.is_empty() {
            let g = pick(rng, &free);
            delta = delta.compose(&TopologyDelta::drop_gpu(g));
            touched.push(g);
        }
    }
    delta
}

/// The delta that restores the links `fault` killed between GPUs of
/// `alloc`.
fn heal(fault: &TopologyDelta, alloc: &[GpuId]) -> TopologyDelta {
    TopologyDelta {
        added_links: fault
            .removed_links
            .iter()
            .filter(|l| alloc.contains(&l.src) && alloc.contains(&l.dst))
            .copied()
            .collect(),
        ..Default::default()
    }
}

#[test]
fn every_call_reports_and_lowers_what_a_fresh_communicator_does() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0042);
    // the replans draw from their own stream, so the allocations and calls
    // are those of the test without them
    let mut fault_rng = StdRng::seed_from_u64(0xfa17_0043);
    let shared = SharedPlanCache::new();
    for _ in 0..ALLOCATIONS {
        let machine = [dgx1v, dgx1p, dgx2][rng.random_below(3) as usize]();
        let mut alloc = machine.gpu_ids();
        shuffle(&mut rng, &mut alloc);
        alloc.truncate(2 + rng.random_below(alloc.len() as u64 - 1) as usize);
        if rng.random_below(2) == 0 {
            alloc.sort();
        }
        let options = CommunicatorOptions {
            use_hybrid: rng.random_below(2) == 0,
            ..Default::default()
        };
        let build = || {
            Communicator::builder(machine.clone())
                .allocation(&alloc)
                .options(options)
        };
        let on_shared = rng.random_below(2) == 0;
        let mut comm = match on_shared {
            true => build().shared_plans(shared.clone()),
            false => build().isolated_plans(),
        }
        .build()
        .unwrap();
        let mut kinds = Vec::new();
        for _ in 0..CALLS_PER_KIND {
            let mut root = || alloc[rng.random_below(alloc.len() as u64) as usize];
            kinds.extend([
                CollectiveKind::Broadcast { root: root() },
                CollectiveKind::Gather { root: root() },
                CollectiveKind::Reduce { root: root() },
                CollectiveKind::AllReduce,
                CollectiveKind::AllGather,
                CollectiveKind::ReduceScatter,
            ]);
        }
        let outside = machine.gpu_ids().into_iter().find(|g| !alloc.contains(g));
        kinds.extend(outside.map(|root| CollectiveKind::Reduce { root }));
        shuffle(&mut rng, &mut kinds);
        let replan_at = (fault_rng.random_below(4) != 0)
            .then(|| fault_rng.random_below(kinds.len() as u64 / 2) as usize);
        // every replan leaves a quarter of the calls or more after it
        let heal_at =
            replan_at.map(|at| at + 1 + fault_rng.random_below(kinds.len() as u64 / 4) as usize);
        let empty_at = fault_rng.random_below(kinds.len() as u64 / 2) as usize;
        // the machine and allocation a fresh communicator is built over to
        // check each call against, and the faults in force
        let mut reference = (machine.clone(), alloc.clone());
        let mut fault = TopologyDelta::default();
        let mut sample = None;
        for (i, kind) in kinds.into_iter().enumerate() {
            let mut deltas = Vec::new();
            if replan_at == Some(i) {
                fault = faults(&mut fault_rng, &machine, &alloc);
                deltas.push(fault.clone());
            }
            if heal_at == Some(i) {
                deltas.push(heal(&fault, comm.allocation()));
            }
            if empty_at == i {
                deltas.push(TopologyDelta::default());
            }
            for delta in deltas {
                let case = format!("{} {alloc:?} replanned through {delta:?}", machine.name());
                let report = catch_unwind(AssertUnwindSafe(|| comm.replan(&delta)))
                    .unwrap_or_else(|_| panic!("{case}: panicked"))
                    .unwrap_or_else(|e| panic!("{case}: {e}"));
                let survivors = comm.allocation().to_vec();
                if delta.is_empty() {
                    assert_eq!(
                        report.degradation,
                        DegradationLevel::FullWarmRepair,
                        "{case}"
                    );
                    assert_eq!(survivors, reference.1, "{case}");
                }
                reference = (reference.0.apply_delta(&delta).unwrap(), survivors);
                // the root and rate the replan reports are those a fresh
                // communicator's sweep picks
                let mut fresh = Communicator::builder(reference.0.clone())
                    .allocation(&reference.1)
                    .options(options)
                    .isolated_plans()
                    .build()
                    .unwrap();
                let swept = fresh.replan(&TopologyDelta::default()).unwrap();
                assert_eq!(
                    (report.root, report.rate_gbps.to_bits(), report.num_gpus),
                    (swept.root, swept.rate_gbps.to_bits(), swept.num_gpus),
                    "{case}"
                );
                sample = None;
            }
            let bytes = size(&mut rng);
            let traced = rng.random_below(2) == 0;
            let case = format!(
                "{} {alloc:?} {options:?} shared {on_shared}: {kind} of {bytes} B",
                machine.name()
            );
            // the report's every field, floats bit for bit (`Debug` prints
            // each float's shortest round-trip form), and the traced program
            let call = |comm: &mut Communicator| {
                let call = || match traced {
                    true => comm
                        .run_traced(kind, bytes)
                        .map(|(r, p, _)| (format!("{r:?}"), Some(p))),
                    false => comm.run(kind, bytes).map(|r| (format!("{r:?}"), None)),
                };
                catch_unwind(AssertUnwindSafe(call)).unwrap_or_else(|_| panic!("{case}: panicked"))
            };
            let got = call(&mut comm);
            let want = call(
                &mut Communicator::builder(reference.0.clone())
                    .allocation(&reference.1)
                    .options(options)
                    .isolated_plans()
                    .build()
                    .unwrap(),
            );
            assert_eq!(got, want, "{case}");
            if got.is_ok() && bytes > 0 {
                sample.get_or_insert((kind, bytes));
            }
        }
        let (kind, bytes) = sample.expect("some call of the allocation succeeds");
        let (_, check) = comm.run_checked(kind, bytes).unwrap();
        assert!(check.is_correct(), "{alloc:?} {kind} of {bytes} B: {check}");
    }
}
