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

use blink_core::{CollectiveKind, Communicator, CommunicatorOptions, SharedPlanCache};
use blink_topology::presets::{dgx1p, dgx1v, dgx2};
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

#[test]
fn every_call_reports_and_lowers_what_a_fresh_communicator_does() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0042);
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
        let mut sample = None;
        for kind in kinds {
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
            assert_eq!(
                got,
                call(&mut build().isolated_plans().build().unwrap()),
                "{case}"
            );
            if got.is_ok() && bytes > 0 {
                sample.get_or_insert((kind, bytes));
            }
        }
        let (kind, bytes) = sample.expect("some call of the allocation succeeds");
        let (_, check) = comm.run_checked(kind, bytes).unwrap();
        assert!(check.is_correct(), "{alloc:?} {kind} of {bytes} B: {check}");
    }
}
