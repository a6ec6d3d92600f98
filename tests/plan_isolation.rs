//! Plan-store isolation, alone in its own test binary: nothing else in this
//! process touches the process-wide plan store, so its counters witness
//! exactly which communicators reach it.

use blink::prelude::*;
use blink_core::global_plan_cache;

/// `isolated_plans()` holds whichever side of `options()` it is called on,
/// for single-server and multi-server communicators alike.
#[test]
fn isolated_communicators_never_reach_the_global_store() {
    let alloc: Vec<GpuId> = (0..4).map(GpuId).collect();
    let slices = vec![
        (0usize, (0..3).map(GpuId).collect::<Vec<_>>()),
        (1usize, (8..11).map(GpuId).collect::<Vec<_>>()),
    ];
    let options = CommunicatorOptions {
        use_hybrid: true,
        ..Default::default()
    };
    let before = global_plan_cache().stats();
    for isolated_first in [true, false] {
        let single = Communicator::builder(presets::dgx1v()).allocation(&alloc);
        let multi = CommunicatorBuilder::from_placement(presets::ServerKind::Dgx1V, 5.0, &slices);
        for builder in [single, multi] {
            let builder = if isolated_first {
                builder.isolated_plans().options(options)
            } else {
                builder.options(options).isolated_plans()
            };
            let mut comm = builder.build().unwrap();
            assert!(comm.options().use_hybrid);
            comm.all_reduce(4 << 20).unwrap();
        }
    }
    assert_eq!(
        global_plan_cache().stats(),
        before,
        "an isolated communicator reached the process-wide store"
    );
    // the witness works: a default communicator does reach it
    Communicator::builder(presets::dgx1v())
        .allocation(&alloc)
        .build()
        .unwrap()
        .all_reduce(4 << 20)
        .unwrap();
    assert_ne!(global_plan_cache().stats(), before);
}
