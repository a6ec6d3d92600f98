//! A multi-tenant scheduler fragments GPU allocations; this example submits a
//! synthetic job stream to the cluster simulator, picks a fragmented
//! single-server placement, induces its topology and shows what Blink's
//! TreeGen packs for it versus the rings NCCL could build.
//!
//! Run with: `cargo run --release --example fragmented_job`

use blink::prelude::*;
use blink_core::treegen::{TreeGen, TreeGenOptions};
use blink_graph::{find_rings, DiGraph};
use blink_sched::{Cluster, WorkloadConfig, WorkloadGenerator};

fn main() {
    // 1. schedule a few thousand jobs onto a 16-server cluster
    let mut cluster = Cluster::new(16, 8);
    let jobs = WorkloadGenerator::new(WorkloadConfig {
        mean_interarrival: 0.4,
        mean_duration: 60.0,
        ..Default::default()
    })
    .take(4_000);
    let placements = cluster.run_workload(&jobs);
    println!(
        "scheduled {} jobs; fragmented per-server share: {:.1}%",
        placements.len(),
        100.0 * cluster.histogram().fragmented_fraction()
    );

    // 2. pick a fragmented slice (an odd number of GPUs on one server)
    let slice = placements
        .iter()
        .flat_map(|p| p.slices.iter())
        .find(|(_, gpus)| !gpus.len().is_power_of_two() && gpus.len() >= 3)
        .map(|(_, gpus)| gpus.clone())
        .unwrap_or_else(|| vec![GpuId(1), GpuId(4), GpuId(5)]);
    let local: Vec<GpuId> = slice.iter().map(|g| GpuId(g.index() % 8)).collect();
    println!("examining per-server slice {:?}", local);

    // 3. induce the slice's topology and compare tree packing vs rings
    let machine = presets::dgx1v();
    let induced = machine.induced(&local).expect("valid slice");
    let fully_connected = local
        .iter()
        .all(|&a| local.iter().all(|&b| a == b || induced.has_nvlink(a, b)));
    println!("fully NVLink connected: {fully_connected}");
    let plan = TreeGen::new(induced.clone(), TreeGenOptions::default())
        .plan(local[0])
        .expect("plans");
    println!(
        "Blink packs {} spanning trees for a total of {:.1} GB/s (optimal {:.1})",
        plan.num_trees(),
        plan.rate_gbps(),
        plan.optimal_rate_gbps
    );
    let nvlink = DiGraph::from_topology_filtered(&induced, |l| l.kind.is_nvlink());
    let rings = find_rings(&nvlink, 23.0);
    println!(
        "NCCL finds {} NVLink ring pair(s){}",
        rings.rings.len(),
        if rings.requires_pcie_fallback() {
            " -> must fall back to PCIe"
        } else {
            ""
        }
    );

    // 4. run an AllReduce with Blink on this slice
    let mut comm = Communicator::builder(machine)
        .allocation(&local)
        .build()
        .expect("valid slice");
    let report = comm.all_reduce(200 << 20).expect("allreduce runs");
    println!("Blink {report}");
}
