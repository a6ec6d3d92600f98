//! Collective backends the training simulator can plug in.
//!
//! Both backends run against the same [`blink_sim`] hardware model, which is
//! what makes the Blink-vs-NCCL end-to-end comparison apples-to-apples.

use blink_core::{CollectiveKind, Communicator};
use blink_nccl::planner::TREE_THRESHOLD_BYTES;
use blink_nccl::schedule::{build_program, NcclCollective};
use blink_nccl::{NcclPlan, NcclPlanner};
use blink_sim::{EngineScratch, Simulator};
use blink_topology::{GpuId, Topology};
use std::collections::BTreeMap;

/// One gradient bucket of a training step: `bytes` of gradients that become
/// ready for synchronisation `ready_us` into the iteration (wait-free
/// backprop issues buckets as backward computes them, in reverse layer
/// order — see `TrainingSimulator::bucket_issue`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BucketIssue {
    /// Gradient bytes in this bucket.
    pub bytes: u64,
    /// When the bucket's last gradient is produced, µs from iteration start.
    pub ready_us: f64,
}

/// Timing of one step's gradient synchronisation as executed by
/// [`CollectiveBackend::step_allreduce`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepComm {
    /// When the last bucket's AllReduce completes, µs from iteration start.
    pub finish_us: f64,
    /// How many fused (multi-bucket) programs the backend batched, if it
    /// fuses at all (0 for blocking backends).
    pub fused_programs: usize,
}

/// Something that can execute an AllReduce over a fixed GPU allocation and
/// report how long it took.
pub trait CollectiveBackend {
    /// Human-readable backend name ("blink", "nccl").
    fn name(&self) -> &str;
    /// Time to AllReduce `bytes` bytes across the allocation, in microseconds.
    fn allreduce_us(&mut self, bytes: u64) -> f64;
    /// Algorithmic AllReduce bandwidth in GB/s for `bytes` (convenience).
    fn allreduce_gbps(&mut self, bytes: u64) -> f64 {
        let us = self.allreduce_us(bytes);
        if us <= 0.0 {
            0.0
        } else {
            bytes as f64 / (us * 1000.0)
        }
    }
    /// Executes one training step's gradient AllReduces, where bucket `i`
    /// only exists from `buckets[i].ready_us` onwards.
    ///
    /// The default implementation is the blocking baseline every backend
    /// gets for free: one AllReduce per bucket, issued in order, each
    /// waiting for its bucket to be ready and for the previous AllReduce to
    /// drain. Streaming backends override it to keep several collectives in
    /// flight (and to fuse small ones), which is where the overlap win in
    /// `BENCH_overlap.json` comes from.
    fn step_allreduce(&mut self, buckets: &[BucketIssue]) -> StepComm {
        let mut t = 0.0f64;
        for b in buckets {
            t = t.max(b.ready_us) + self.allreduce_us(b.bytes);
        }
        StepComm {
            finish_us: t,
            fused_programs: 0,
        }
    }
}

/// Blink backend: spanning-tree packing / one-hop / three-phase as
/// appropriate, via [`blink_core::Communicator`].
pub struct BlinkBackend {
    comm: Communicator,
    cache: BTreeMap<u64, f64>,
}

impl BlinkBackend {
    /// Creates the backend for an allocation on a machine.
    ///
    /// # Errors
    /// Propagates planning errors from building the [`Communicator`].
    pub fn new(machine: Topology, allocation: &[GpuId]) -> Result<Self, blink_core::BlinkError> {
        let comm = Communicator::builder(machine)
            .allocation(allocation)
            .build()?;
        Ok(BlinkBackend {
            comm,
            cache: BTreeMap::new(),
        })
    }
}

impl CollectiveBackend for BlinkBackend {
    fn name(&self) -> &str {
        "blink"
    }

    fn allreduce_us(&mut self, bytes: u64) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        if let Some(&t) = self.cache.get(&bytes) {
            return t;
        }
        let t = self
            .comm
            .all_reduce(bytes)
            .map(|r| r.elapsed_us)
            .unwrap_or(f64::INFINITY);
        self.cache.insert(bytes, t);
        t
    }

    /// Streaming override: buckets are handed to
    /// [`Communicator::run_streamed`] with their ready times as issue
    /// timestamps, so every AllReduce starts the moment its gradients exist,
    /// concurrent collectives contend on the simulated links instead of
    /// serialising behind each other, and sub-threshold buckets fuse into
    /// one segmented program.
    fn step_allreduce(&mut self, buckets: &[BucketIssue]) -> StepComm {
        let requests: Vec<(u64, f64)> = buckets.iter().map(|b| (b.bytes, b.ready_us)).collect();
        match self.comm.run_streamed(CollectiveKind::AllReduce, &requests) {
            Ok(run) => StepComm {
                finish_us: run.finish_us,
                fused_programs: run.fused_programs(),
            },
            Err(_) => StepComm {
                finish_us: f64::INFINITY,
                fused_programs: 0,
            },
        }
    }
}

/// NCCL baseline backend: rings / PCIe fallback / double-binary trees.
///
/// For allocations spanning several servers the baseline builds a single ring
/// through all GPUs that crosses the network once in each direction — the
/// hierarchical behaviour the paper attributes to NCCL/Horovod in Section 5.4
/// — and its throughput is bounded by the NIC (and PCIe on the way to it).
pub struct NcclBackend {
    machine: Topology,
    allocation: Vec<GpuId>,
    sim: Simulator,
    /// Built once: the planner's ring search is the expensive part, and the
    /// training loop calls in with a new byte size every bucket/fusion
    /// configuration.
    planner: NcclPlanner,
    /// Memoised plans per byte regime (`true` = below
    /// [`TREE_THRESHOLD_BYTES`]; an NCCL plan depends on `bytes` only
    /// through which side of that threshold it falls, so the tier needs at
    /// most two entries),
    /// mirroring `blink-core`'s plan cache for the baseline: re-sizing
    /// the collective re-lowers the program but never re-plans.
    plan_tier: BTreeMap<bool, NcclPlan>,
    /// Persistent engine buffers shared by every simulated run (the same
    /// scratch-reuse contract the Blink communicator relies on).
    scratch: EngineScratch,
    cache: BTreeMap<u64, f64>,
}

impl NcclBackend {
    /// Creates the backend for an allocation on a machine.
    pub fn new(machine: Topology, allocation: &[GpuId]) -> Self {
        let sim = Simulator::with_defaults(machine.clone());
        let planner = NcclPlanner::new(machine.clone());
        NcclBackend {
            machine,
            allocation: allocation.to_vec(),
            sim,
            planner,
            plan_tier: BTreeMap::new(),
            scratch: EngineScratch::new(),
            cache: BTreeMap::new(),
        }
    }

    fn single_server_us(&mut self, bytes: u64) -> f64 {
        let small = bytes < TREE_THRESHOLD_BYTES;
        if !self.plan_tier.contains_key(&small) {
            match self.planner.plan(&self.allocation, bytes) {
                Ok(plan) => {
                    self.plan_tier.insert(small, plan);
                }
                Err(_) => return f64::INFINITY,
            }
        }
        let plan = &self.plan_tier[&small];
        let Ok(program) = build_program(plan, NcclCollective::AllReduce, bytes) else {
            return f64::INFINITY;
        };
        self.sim
            .run_with_scratch(&program, &mut self.scratch)
            .map(|r| r.total_us)
            .unwrap_or(f64::INFINITY)
    }

    fn multi_server_us(&self, bytes: u64) -> f64 {
        // A flat ring across servers: within each server the ring moves over
        // NVLink (or PCIe), and it crosses the network twice. The effective
        // rate is governed by the slowest hop — the NIC — with the standard
        // ring AllReduce 2(N-1)/N volume factor.
        let n = self.allocation.len() as f64;
        let nic = self
            .machine
            .servers()
            .iter()
            .filter_map(|&s| self.machine.server_nic(s))
            .fold(f64::INFINITY, f64::min);
        let nic = if nic.is_finite() { nic } else { 5.0 };
        // PCIe hop to reach the NIC bounds the cross-machine path, as the
        // paper notes ("NCCL is bound by intra-server PCIe throughput").
        let effective = nic.min(blink_topology::LinkKind::Pcie.nominal_bandwidth_gbps() * 2.0);
        let volume_factor = 2.0 * (n - 1.0) / n;
        bytes as f64 * volume_factor / (effective * 1000.0)
    }
}

impl CollectiveBackend for NcclBackend {
    fn name(&self) -> &str {
        "nccl"
    }

    fn allreduce_us(&mut self, bytes: u64) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        if let Some(&t) = self.cache.get(&bytes) {
            return t;
        }
        let servers: std::collections::BTreeSet<_> = self
            .allocation
            .iter()
            .filter_map(|&g| self.machine.gpu(g).ok().map(|i| i.server))
            .collect();
        let t = if servers.len() > 1 {
            self.multi_server_us(bytes)
        } else {
            self.single_server_us(bytes)
        };
        self.cache.insert(bytes, t);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blink_topology::presets::{dgx1v, multi_server, ServerKind};

    fn mb(n: u64) -> u64 {
        n * 1024 * 1024
    }

    #[test]
    fn blink_beats_nccl_on_a_fragmented_allocation() {
        let alloc = [GpuId(1), GpuId(4), GpuId(5), GpuId(6)];
        let mut blink = BlinkBackend::new(dgx1v(), &alloc).unwrap();
        let mut nccl = NcclBackend::new(dgx1v(), &alloc);
        let bytes = mb(100);
        let b = blink.allreduce_us(bytes);
        let n = nccl.allreduce_us(bytes);
        assert!(b < n, "blink {b} us vs nccl {n} us");
        assert!(blink.allreduce_gbps(bytes) > nccl.allreduce_gbps(bytes));
        assert_eq!(blink.name(), "blink");
        assert_eq!(nccl.name(), "nccl");
    }

    #[test]
    fn results_are_cached_per_size() {
        let alloc: Vec<GpuId> = (0..4).map(GpuId).collect();
        let mut blink = BlinkBackend::new(dgx1v(), &alloc).unwrap();
        let a = blink.allreduce_us(mb(16));
        let b = blink.allreduce_us(mb(16));
        assert_eq!(a, b);
        assert_eq!(blink.allreduce_us(0), 0.0);
    }

    #[test]
    fn nccl_plan_tier_replans_per_regime_not_per_size() {
        let alloc: Vec<GpuId> = (0..4).map(GpuId).collect();
        let mut tiered = NcclBackend::new(dgx1v(), &alloc);
        // many distinct sizes, one regime: exactly one plan is ever built,
        // and timings match a fresh backend that re-plans every time
        for bytes in [mb(1), mb(2), mb(7), mb(32), mb(100)] {
            let t = tiered.allreduce_us(bytes);
            let fresh = NcclBackend::new(dgx1v(), &alloc).allreduce_us(bytes);
            assert_eq!(t.to_bits(), fresh.to_bits(), "at {bytes} bytes");
        }
        assert_eq!(tiered.plan_tier.len(), 1);
        // crossing the tree threshold may add the second (and last) entry
        tiered.allreduce_us(1024);
        assert!(tiered.plan_tier.len() <= 2);
    }

    #[test]
    fn streamed_step_never_loses_to_blocking_buckets() {
        let alloc: Vec<GpuId> = (0..8).map(GpuId).collect();
        let buckets: Vec<BucketIssue> = (0..8)
            .map(|i| BucketIssue {
                bytes: mb(25),
                ready_us: 2000.0 * i as f64,
            })
            .collect();
        // the trait-default blocking schedule, measured on its own backend
        let mut blocking = BlinkBackend::new(dgx1v(), &alloc).unwrap();
        let mut t = 0.0f64;
        for b in &buckets {
            t = t.max(b.ready_us) + blocking.allreduce_us(b.bytes);
        }
        let mut streamed = BlinkBackend::new(dgx1v(), &alloc).unwrap();
        let step = streamed.step_allreduce(&buckets);
        assert!(step.finish_us.is_finite());
        assert!(
            step.finish_us <= t * 1.001,
            "streamed {} vs blocking {t}",
            step.finish_us
        );
        // every bucket's AllReduce still starts no earlier than its gradients
        assert!(step.finish_us >= buckets.last().unwrap().ready_us);
    }

    #[test]
    fn multi_server_nccl_is_nic_bound() {
        let machine = multi_server(2, ServerKind::Dgx1V, 5.0);
        let alloc: Vec<GpuId> = vec![
            GpuId(0),
            GpuId(1),
            GpuId(2),
            GpuId(8),
            GpuId(9),
            GpuId(10),
            GpuId(11),
            GpuId(12),
        ];
        let mut nccl = NcclBackend::new(machine, &alloc);
        let gbps = nccl.allreduce_gbps(mb(100));
        assert!(gbps < 6.0, "nccl cross-machine {gbps} must be NIC bound");
        assert!(gbps > 1.0);
    }
}
