//! The process's one scratch pool. Every plan store packs and simulates on
//! it, so once one communicator has warmed it, communicators on fresh
//! private stores create no scratch, and what they report is what a fresh
//! pool's buffers give.
//!
//! The pool counts the scratches it has ever created, so this file holds a
//! single test: no other test in its process checks scratches out.

use blink_core::{CollectiveKind, Communicator, ScratchPool};
use blink_sim::{SimParams, Simulator};
use blink_topology::presets::{dgx1p, dgx1v, dgx2, multi_server, ServerKind};
use blink_topology::{GpuId, Topology};

fn ids(v: &[usize]) -> Vec<GpuId> {
    v.iter().map(|&i| GpuId(i)).collect()
}

/// A fresh communicator over `alloc` on `machine`, on a private store.
fn isolated(machine: &Topology, alloc: &[GpuId]) -> Communicator {
    Communicator::builder(machine.clone())
        .allocation(alloc)
        .isolated_plans()
        .build()
        .unwrap()
}

#[test]
fn isolated_communicators_after_a_warm_up_create_no_scratch() {
    let shapes = [
        (dgx1v(), ids(&[0, 1, 2, 3])),
        (dgx1v(), ids(&[1, 4, 5, 6])),
        // GPUs 1 and 4 share no NVLink on a DGX-1P: the PCIe fallback
        (dgx1p(), ids(&[1, 4])),
        (dgx2(), ids(&[0, 3, 7, 11, 12])),
        (
            multi_server(2, ServerKind::Dgx1V, 5.0),
            ids(&[0, 1, 2, 8, 9, 10, 11, 12]),
        ),
    ];
    let (kind, bytes) = (CollectiveKind::AllReduce, 64 << 20);
    let pool = ScratchPool::process();
    isolated(&dgx1v(), &ids(&[0, 1, 2, 3]))
        .run(kind, bytes)
        .unwrap();
    let created = pool.created();
    assert!(created >= 1, "the warm-up checked a scratch out");
    for (machine, alloc) in &shapes {
        let report = isolated(machine, alloc).run(kind, bytes).unwrap();
        let (traced, program, spans) = isolated(machine, alloc).run_traced(kind, bytes).unwrap();
        // the same program on a fresh pool's buffers
        let sim = Simulator::new(machine.clone(), SimParams::default());
        let fresh = sim
            .run_with_scratch(&program, &mut ScratchPool::new().checkout().engine)
            .unwrap();
        assert_eq!(format!("{report:?}"), format!("{traced:?}"), "{alloc:?}");
        assert_eq!(report.elapsed_us.to_bits(), fresh.total_us.to_bits());
        assert_eq!(format!("{spans:?}"), format!("{:?}", fresh.op_spans));
    }
    assert_eq!(pool.created(), created, "a warm pool creates no scratch");
}
