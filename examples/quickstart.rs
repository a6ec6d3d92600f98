//! Quickstart: create a Blink communicator for a GPU allocation on a DGX-1V,
//! run the two collectives the paper focuses on, and compare against the NCCL
//! baseline on identical (simulated) hardware.
//!
//! Run with: `cargo run --release --example quickstart`

use blink::prelude::*;
use blink_nccl::schedule::{build_program, NcclCollective};
use blink_nccl::NcclPlanner;
use blink_sim::Simulator;

fn main() {
    let machine = presets::dgx1v();
    // a fragmented 4-GPU allocation (GPUs 1, 4, 5, 6): no NVLink-only ring
    // exists, which is exactly where ring-based collectives fall apart
    let allocation = [GpuId(1), GpuId(4), GpuId(5), GpuId(6)];
    let bytes: u64 = 500 << 20;

    let mut comm = Communicator::builder(machine.clone())
        .allocation(&allocation)
        .build()
        .expect("valid allocation");
    let bcast = comm.broadcast(GpuId(1), bytes).expect("broadcast plans");
    let ar = comm.all_reduce(bytes).expect("allreduce plans");
    println!("Blink  {bcast}");
    println!("Blink  {ar}");

    let planner = NcclPlanner::new(machine.clone());
    let plan = planner.plan(&allocation, bytes).expect("nccl plan");
    println!("NCCL   plan: {plan}");
    let sim = Simulator::with_defaults(machine);
    for (name, collective) in [
        ("broadcast", NcclCollective::Broadcast { root: GpuId(1) }),
        ("allreduce", NcclCollective::AllReduce),
    ] {
        let program = build_program(&plan, collective, bytes).expect("nccl schedule");
        let report = sim.run(&program).expect("nccl program runs");
        println!(
            "NCCL   {name}: {:.2} GB/s ({:.0} us)",
            report.algorithmic_bandwidth_gbps(bytes),
            report.total_us
        );
    }
}
