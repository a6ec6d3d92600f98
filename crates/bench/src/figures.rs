//! One function per figure of the paper's evaluation. Each returns the rows
//! the corresponding plot is made of; the `bench_paper` binary prints them
//! and records them in `BENCH_paper.json`.

use crate::measure::{blink_collective, blink_collective_with, mb, nccl_collective};
use blink_core::codegen::{CodeGen, CodeGenOptions};
use blink_core::communicator::CommunicatorOptions;
use blink_core::treegen::{TreeGen, TreeGenOptions};
use blink_core::CollectiveKind;
use blink_graph::{
    minimize_trees, optimal_broadcast_rate, pack_spanning_trees, DiGraph, MinimizeOptions,
    PackingOptions, WeightedTree,
};
use blink_nccl::{allreduce_rate_gbps, broadcast_rate_gbps, NcclPlanner};
use blink_sched::{Cluster, WorkloadConfig, WorkloadGenerator};
use blink_sim::patterns;
use blink_sim::Simulator;
use blink_topology::enumerate::unique_allocations;
use blink_topology::presets::{dgx1p, dgx1v, dgx2, multi_server, ServerKind};
use blink_topology::{GpuId, Topology};
use blink_train::{
    BlinkBackend, CollectiveBackend, DnnModel, GpuGeneration, NcclBackend, TrainerConfig,
    TrainingSimulator,
};
use serde::{Deserialize, Serialize};

fn label(alloc: &[GpuId]) -> String {
    alloc
        .iter()
        .map(|g| g.0.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// A generic Blink-vs-NCCL comparison row used by several figures.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ComparisonRow {
    /// Allocation label (GPU ids, comma separated), as on the paper's x-axes.
    pub allocation: String,
    /// Number of GPUs.
    pub gpus: usize,
    /// Blink throughput (GB/s).
    pub blink_gbps: f64,
    /// NCCL throughput (GB/s).
    pub nccl_gbps: f64,
    /// Blink / NCCL speedup.
    pub speedup: f64,
}

// ---------------------------------------------------------------------------
// Figure 2: motivating broadcast comparison on a DGX-1P
// ---------------------------------------------------------------------------

/// Figure 2: broadcast from GPU 0 over a fully connected triple (0,1,3) and a
/// partially connected triple (0,1,4) on a DGX-1P.
pub fn fig02_broadcast_motivation() -> Vec<ComparisonRow> {
    let machine = dgx1p();
    let kind = CollectiveKind::Broadcast { root: GpuId(0) };
    [[0usize, 1, 3], [0, 1, 4]]
        .iter()
        .map(|ids| {
            let alloc: Vec<GpuId> = ids.iter().map(|&i| GpuId(i)).collect();
            let blink = blink_collective(&machine, &alloc, kind, mb(500));
            let nccl = nccl_collective(&machine, &alloc, kind, mb(500));
            ComparisonRow {
                allocation: label(&alloc),
                gpus: alloc.len(),
                blink_gbps: blink.gbps,
                nccl_gbps: nccl.gbps,
                speedup: blink.gbps / nccl.gbps,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 3: scheduler-induced fragmentation
// ---------------------------------------------------------------------------

/// One bar of Figure 3.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AllocationShareRow {
    /// GPUs of one job on one 8-GPU server.
    pub gpus_on_server: usize,
    /// Share of multi-GPU per-server allocations (percent).
    pub percent: f64,
}

/// Figure 3: distribution of per-server allocation sizes over a synthetic
/// 40,000-job multi-tenant workload.
pub fn fig03_scheduler_allocations(jobs: usize) -> Vec<AllocationShareRow> {
    let mut cluster = Cluster::new(64, 8);
    let workload = WorkloadGenerator::new(WorkloadConfig {
        mean_interarrival: 0.35,
        mean_duration: 80.0,
        ..Default::default()
    })
    .take(jobs);
    cluster.run_workload(&workload);
    let hist = cluster.histogram();
    (2..=8)
        .map(|k| AllocationShareRow {
            gpus_on_server: k,
            percent: 100.0 * hist.fraction(k),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 5: communication overhead of NCCL-backed training
// ---------------------------------------------------------------------------

/// One model/GPU-count entry of Figure 5.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CommOverheadRow {
    /// Machine generation ("dgx-1p" or "dgx-1v").
    pub machine: String,
    /// Model name.
    pub model: String,
    /// Number of GPUs.
    pub gpus: usize,
    /// Best-case (most connected allocation) communication share, percent.
    pub best_percent: f64,
    /// Worst-case allocation communication share, percent.
    pub worst_percent: f64,
}

/// Figure 5: best/worst-case communication share of iteration time when
/// training with the NCCL baseline, for 3–8 GPU allocations.
pub fn fig05_comm_overhead() -> Vec<CommOverheadRow> {
    let mut rows = Vec::new();
    for (machine, name, generation) in [
        (dgx1p(), "dgx-1p", GpuGeneration::P100),
        (dgx1v(), "dgx-1v", GpuGeneration::V100),
    ] {
        let classes = unique_allocations(&machine, 3..=8).expect("preset enumerates");
        for model in DnnModel::paper_models() {
            for gpus in 3..=8usize {
                let mut best = f64::INFINITY;
                let mut worst: f64 = 0.0;
                for class in classes.iter().filter(|c| c.num_gpus() == gpus) {
                    let alloc = class.representative.clone();
                    let mut backend = NcclBackend::new(machine.clone(), &alloc);
                    let frac = TrainingSimulator::new(
                        model.clone(),
                        alloc.len(),
                        TrainerConfig {
                            generation,
                            ..Default::default()
                        },
                        &mut backend,
                    )
                    .iteration()
                    .comm_fraction();
                    best = best.min(frac);
                    worst = worst.max(frac);
                }
                rows.push(CommOverheadRow {
                    machine: name.to_string(),
                    model: model.name.clone(),
                    gpus,
                    best_percent: 100.0 * best,
                    worst_percent: 100.0 * worst,
                });
            }
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Figures 7, 8, 24, 26: micro-benchmarks
// ---------------------------------------------------------------------------

/// One micro-benchmark data point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MicrobenchRow {
    /// Traffic pattern name.
    pub pattern: String,
    /// Number of GPUs involved.
    pub gpus: usize,
    /// Data size in MB.
    pub data_mb: u64,
    /// Measured throughput in GB/s.
    pub gbps: f64,
}

/// A valid NVLink chain through the DGX-1V (every consecutive pair is
/// connected, see Figure 1).
fn dgx1v_chain(n: usize) -> Vec<GpuId> {
    [0usize, 1, 2, 3, 7, 6, 5, 4][..n]
        .iter()
        .map(|&i| GpuId(i))
        .collect()
}

/// Figure 7: reduce+forward throughput over a chain of 3–8 V100 GPUs.
pub fn fig07_chain_reduce_forward() -> Vec<MicrobenchRow> {
    let sim = Simulator::with_defaults(dgx1v());
    let mut rows = Vec::new();
    for gpus in 3..=8usize {
        for data_mb in [10u64, 100, 1000] {
            let prog = patterns::chain_reduce_forward(&dgx1v_chain(gpus), mb(data_mb), 32)
                .expect("valid chain");
            let gbps = sim
                .run(&prog)
                .expect("chain runs")
                .algorithmic_bandwidth_gbps(mb(data_mb));
            rows.push(MicrobenchRow {
                pattern: "reduce+forward".to_string(),
                gpus,
                data_mb,
                gbps,
            });
        }
    }
    rows
}

/// Figure 8(c): MIMO and MCA throughput.
pub fn fig08_mimo_mca() -> Vec<MicrobenchRow> {
    let sim = Simulator::with_defaults(dgx1v());
    let mut rows = Vec::new();
    for data_mb in [10u64, 100, 1000] {
        // MIMO over GPUs 1,2 -> 3 -> 4?/5: use the Figure 8 wiring mapped onto
        // NVLink-connected pairs of the DGX-1V: producers 1,2 -> centre 3 ->
        // consumers 7, 2? Use (1,2)->3->(7,0): 3 has NVLink to 1,2,0,7.
        let prog = patterns::mimo(
            (GpuId(1), GpuId(2)),
            GpuId(3),
            (GpuId(7), GpuId(0)),
            mb(data_mb),
            32,
        )
        .expect("valid mimo");
        let report = sim.run(&prog).expect("mimo runs");
        rows.push(MicrobenchRow {
            pattern: "MIMO".to_string(),
            gpus: 5,
            data_mb,
            gbps: report.algorithmic_bandwidth_gbps(mb(data_mb)),
        });
        let prog = patterns::mca(
            &[GpuId(1)],
            &[GpuId(2)],
            GpuId(3),
            GpuId(7),
            mb(data_mb),
            32,
        )
        .expect("valid mca");
        let report = sim.run(&prog).expect("mca runs");
        rows.push(MicrobenchRow {
            pattern: "MCA".to_string(),
            gpus: 5,
            data_mb,
            gbps: report.algorithmic_bandwidth_gbps(mb(data_mb)),
        });
    }
    rows
}

/// Figure 24 (appendix): forward, reduce+forward and reduce-broadcast
/// throughput over chains of 3–8 V100 GPUs and 1 MB – 1000 MB buffers.
pub fn fig24_depth_tests() -> Vec<MicrobenchRow> {
    let sim = Simulator::with_defaults(dgx1v());
    let mut rows = Vec::new();
    for gpus in 3..=8usize {
        for data_mb in [1u64, 10, 100, 1000] {
            let chain = dgx1v_chain(gpus);
            let cases = [
                (
                    "forward",
                    patterns::chain_forward(&chain, mb(data_mb), 32).expect("valid"),
                ),
                (
                    "reduce+forward",
                    patterns::chain_reduce_forward(&chain, mb(data_mb), 32).expect("valid"),
                ),
                (
                    "reduce-broadcast",
                    patterns::chain_reduce_broadcast(&chain, mb(data_mb), 32).expect("valid"),
                ),
            ];
            for (name, prog) in cases {
                let gbps = sim
                    .run(&prog)
                    .expect("pattern runs")
                    .algorithmic_bandwidth_gbps(mb(data_mb));
                rows.push(MicrobenchRow {
                    pattern: name.to_string(),
                    gpus,
                    data_mb,
                    gbps,
                });
            }
        }
    }
    rows
}

/// Figure 26 (appendix): fan-in forward, fan-in reduce+forward and fan-out
/// forward throughput for 1–3 peers.
pub fn fig26_breadth_tests() -> Vec<MicrobenchRow> {
    let sim = Simulator::with_defaults(dgx1v());
    let mut rows = Vec::new();
    // GPU 3's NVLink neighbours on the DGX-1V: 0, 1, 2, 7
    let peers = [GpuId(0), GpuId(1), GpuId(2)];
    for k in 1..=3usize {
        for data_mb in [1u64, 10, 100, 1000] {
            let sources = &peers[..k];
            let cases = [
                (
                    "fan-in forward",
                    patterns::fan_in_forward(sources, GpuId(3), GpuId(7), mb(data_mb), 32)
                        .expect("valid"),
                ),
                (
                    "fan-in reduce+forward",
                    patterns::fan_in_reduce_forward(sources, GpuId(3), GpuId(7), mb(data_mb), 32)
                        .expect("valid"),
                ),
                (
                    "fan-out forward",
                    patterns::fan_out_forward(GpuId(7), GpuId(3), sources, mb(data_mb), 32)
                        .expect("valid"),
                ),
            ];
            for (name, prog) in cases {
                let gbps = sim
                    .run(&prog)
                    .expect("pattern runs")
                    .algorithmic_bandwidth_gbps(mb(data_mb));
                rows.push(MicrobenchRow {
                    pattern: name.to_string(),
                    gpus: k + 2,
                    data_mb,
                    gbps,
                });
            }
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Figure 12: chunk-size autotuning
// ---------------------------------------------------------------------------

/// One iteration of the MIAD chunk tuner (Figure 12).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AutotuneRow {
    /// Training iteration number.
    pub iteration: usize,
    /// Chunk size used, in MB.
    pub chunk_mb: f64,
    /// Measured throughput, GB/s.
    pub gbps: f64,
}

/// The MIAD chunk-size controller of Section 4.2.1: grow the chunk size
/// geometrically while throughput keeps improving, back off additively once
/// it regresses, and stop there. A communicator lowers at a fixed chunk, so its
/// reports depend on nothing but the call; [`fig12_chunk_autotune`] builds
/// each step's communicator at [`ChunkAutotuner::chunk_bytes`] and feeds the
/// step's throughput to [`ChunkAutotuner::observe`].
#[derive(Debug, Clone)]
pub struct ChunkAutotuner {
    current: u64,
    best_throughput: f64,
    growth_factor: f64,
    decrease_bytes: u64,
    min_chunk: u64,
    max_chunk: u64,
    converged: bool,
    history: Vec<(u64, f64)>,
}

impl ChunkAutotuner {
    /// Creates a tuner starting from `initial_chunk` bytes.
    ///
    /// The paper's example (Figure 12) starts at 1 MB and doubles each
    /// iteration until throughput stops improving.
    pub fn new(initial_chunk: u64) -> Self {
        ChunkAutotuner {
            current: initial_chunk.max(64 * 1024),
            best_throughput: 0.0,
            growth_factor: 2.0,
            decrease_bytes: 512 * 1024,
            min_chunk: 64 * 1024,
            max_chunk: 64 << 20,
            converged: false,
            history: Vec::new(),
        }
    }

    /// The chunk size to use for the next iteration.
    pub fn chunk_bytes(&self) -> u64 {
        self.current
    }

    /// The `(chunk size, throughput)` trace so far — this is exactly the data
    /// plotted in Figure 12.
    pub fn history(&self) -> &[(u64, f64)] {
        &self.history
    }

    /// Reports the throughput (GB/s) observed with the current chunk size and
    /// advances the controller.
    pub fn observe(&mut self, throughput_gbps: f64) {
        self.history.push((self.current, throughput_gbps));
        if self.converged {
            return;
        }
        if throughput_gbps > self.best_throughput * 1.01 {
            // still improving: multiplicative increase
            self.best_throughput = throughput_gbps;
            self.current = ((self.current as f64 * self.growth_factor) as u64).min(self.max_chunk);
            if self.current == self.max_chunk {
                self.converged = true;
            }
        } else if throughput_gbps < self.best_throughput * 0.99 {
            // regression: additive decrease, then stop
            self.current = self
                .current
                .saturating_sub(self.decrease_bytes)
                .max(self.min_chunk);
            self.converged = true;
        } else {
            // within noise of the best: stop here
            self.converged = true;
        }
    }
}

impl Default for ChunkAutotuner {
    /// The paper's tuner: a 1 MB first chunk, doubled while throughput
    /// improves.
    fn default() -> Self {
        Self::new(1 << 20)
    }
}

/// Figure 12: the chunk-size trace of the MIAD tuner while broadcasting over
/// 4 GPUs. Each step builds a communicator at the tuner's chunk and feeds
/// the broadcast's throughput back to the tuner.
pub fn fig12_chunk_autotune(iterations: usize) -> Vec<AutotuneRow> {
    let machine = dgx1v();
    let alloc: Vec<GpuId> = (0..4).map(GpuId).collect();
    let bytes = mb(500);
    let mut tuner = ChunkAutotuner::default();
    for _ in 0..iterations {
        let mut comm = blink_core::Communicator::builder(machine.clone())
            .allocation(&alloc)
            .options(CommunicatorOptions {
                chunk_bytes: tuner.chunk_bytes(),
                ..Default::default()
            })
            .build()
            .expect("valid allocation");
        let report = comm.broadcast(GpuId(0), bytes).expect("broadcast runs");
        tuner.observe(report.algorithmic_bandwidth_gbps);
    }
    tuner
        .history()
        .iter()
        .enumerate()
        .map(|(i, &(chunk, gbps))| AutotuneRow {
            iteration: i + 1,
            chunk_mb: chunk as f64 / (1 << 20) as f64,
            gbps,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 14: theoretical speedups of tree packing over rings
// ---------------------------------------------------------------------------

/// Distribution summary of the theoretical speedups for one setting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TheoreticalSpeedupRow {
    /// "Broadcast" or "AllReduce".
    pub collective: String,
    /// "P100" or "V100".
    pub generation: String,
    /// 5th percentile speedup.
    pub p5: f64,
    /// Median speedup.
    pub median: f64,
    /// 95th percentile speedup.
    pub p95: f64,
    /// Maximum speedup.
    pub max: f64,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Figure 14: the analytic speedup of packing spanning trees versus rings over
/// every unique 3–8 GPU allocation of the DGX-1P and DGX-1V.
pub fn fig14_theoretical_speedup() -> Vec<TheoreticalSpeedupRow> {
    let mut rows = Vec::new();
    for (machine, gen_name) in [(dgx1p(), "P100"), (dgx1v(), "V100")] {
        let classes = unique_allocations(&machine, 3..=8).expect("preset enumerates");
        let planner = NcclPlanner::new(machine.clone());
        let mut bcast_speedups = Vec::new();
        let mut ar_speedups = Vec::new();
        for class in &classes {
            let alloc = class.representative.clone();
            let sub = machine.induced(&alloc).expect("valid class");
            let nvlink = DiGraph::from_topology_filtered(&sub, |l| l.kind.is_nvlink());
            let root = alloc[0];
            let Some(root_idx) = nvlink.node(root) else {
                continue;
            };
            // Blink: the optimal packing rate (NVLink), or the PCIe rate when
            // NVLink cannot span the allocation.
            let blink_rate = if nvlink.spans_from(root_idx) {
                optimal_broadcast_rate(&nvlink, root_idx)
            } else {
                blink_topology::LinkKind::Pcie.nominal_bandwidth_gbps()
            };
            let plan = planner.plan(&alloc, mb(500)).expect("valid plan");
            let nccl_bcast = broadcast_rate_gbps(&plan);
            let nccl_ar = allreduce_rate_gbps(&plan);
            let n = alloc.len() as f64;
            bcast_speedups.push(blink_rate / nccl_bcast);
            ar_speedups.push((blink_rate / 2.0) / nccl_ar * (n / (n - 1.0)));
        }
        bcast_speedups.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        ar_speedups.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        for (name, speedups) in [("Broadcast", bcast_speedups), ("AllReduce", ar_speedups)] {
            rows.push(TheoreticalSpeedupRow {
                collective: name.to_string(),
                generation: gen_name.to_string(),
                p5: percentile(&speedups, 0.05),
                median: percentile(&speedups, 0.5),
                p95: percentile(&speedups, 0.95),
                max: speedups.last().copied().unwrap_or(0.0),
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Section 5.2: unique allocation classes
// ---------------------------------------------------------------------------

/// The Section 5.2 binning of one machine's 3–8-GPU allocations.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AllocationClassesRow {
    /// Machine generation ("dgx-1v" or "dgx-1p").
    pub machine: String,
    /// Isomorphism classes of the induced NVLink graphs.
    pub classes: usize,
    /// Classes whose representative's NVLink graph spans from its first GPU.
    pub nvlink_connected: usize,
}

/// Section 5.2: how many classes the DGX-1V and DGX-1P allocations of 3–8
/// GPUs fall into (the paper counts 46 and 14 unique settings), and how
/// many of them NVLink connects.
pub fn sec5_2_allocation_classes() -> Vec<AllocationClassesRow> {
    [(dgx1v(), "dgx-1v"), (dgx1p(), "dgx-1p")]
        .into_iter()
        .map(|(machine, name)| {
            let classes = unique_allocations(&machine, 3..=8).expect("preset enumerates");
            let nvlink_connected = classes
                .iter()
                .filter(|class| {
                    let alloc = &class.representative;
                    let sub = machine.induced(alloc).expect("valid class");
                    let nvlink = DiGraph::from_topology_filtered(&sub, |l| l.kind.is_nvlink());
                    nvlink
                        .node(alloc[0])
                        .is_some_and(|root| nvlink.spans_from(root))
                })
                .count();
            AllocationClassesRow {
                machine: name.to_string(),
                classes: classes.len(),
                nvlink_connected,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figures 15, 16, 17: Broadcast / AllReduce across all unique allocations
// ---------------------------------------------------------------------------

fn sweep_unique_allocations(
    machine: &Topology,
    kind: CollectiveKind,
    bytes: u64,
) -> Vec<ComparisonRow> {
    let classes = unique_allocations(machine, 3..=8).expect("preset enumerates");
    let mut rows: Vec<ComparisonRow> = classes
        .iter()
        .map(|class| {
            let alloc = class.representative.clone();
            let blink = blink_collective(machine, &alloc, kind, bytes);
            let nccl = nccl_collective(machine, &alloc, kind, bytes);
            ComparisonRow {
                allocation: class.label(),
                gpus: alloc.len(),
                blink_gbps: blink.gbps,
                nccl_gbps: nccl.gbps,
                speedup: blink.gbps / nccl.gbps,
            }
        })
        .collect();
    let geo: f64 = rows.iter().map(|r| r.speedup.ln()).sum::<f64>() / rows.len() as f64;
    rows.push(ComparisonRow {
        allocation: "geoMean".to_string(),
        gpus: 0,
        blink_gbps: 0.0,
        nccl_gbps: 0.0,
        speedup: geo.exp(),
    });
    rows
}

/// Figure 15: Broadcast throughput, Blink vs NCCL, every unique DGX-1V
/// allocation (500 MB).
pub fn fig15_broadcast_dgx1v() -> Vec<ComparisonRow> {
    sweep_unique_allocations(
        &dgx1v(),
        CollectiveKind::Broadcast { root: GpuId(0) },
        mb(500),
    )
}

/// Figure 16: Broadcast throughput, Blink vs NCCL, every unique DGX-1P
/// allocation (500 MB).
pub fn fig16_broadcast_dgx1p() -> Vec<ComparisonRow> {
    sweep_unique_allocations(
        &dgx1p(),
        CollectiveKind::Broadcast { root: GpuId(0) },
        mb(500),
    )
}

/// Figure 17: AllReduce throughput, Blink vs NCCL, every unique DGX-1V
/// allocation (500 MB).
pub fn fig17_allreduce_dgx1v() -> Vec<ComparisonRow> {
    sweep_unique_allocations(&dgx1v(), CollectiveKind::AllReduce, mb(500))
}

// ---------------------------------------------------------------------------
// Per-class sweep: exact lane packings against MWU plus minimisation
// ---------------------------------------------------------------------------

/// One class × collective × size of the per-class sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassSweepRow {
    /// "dgx-1v" or "dgx-1p".
    pub machine: String,
    /// The class representative.
    pub allocation: String,
    /// "allreduce", or "broadcast" from the representative's first GPU.
    pub collective: String,
    /// Buffer size in bytes.
    pub bytes: u64,
    /// Blink's simulated time (µs).
    pub blink_us: f64,
    /// The simulated time (µs) of the plans MWU packing plus minimisation
    /// makes, from the root the certificate-bounded sweep picks among them:
    /// what TreeGen ran on every DGX-1 NVLink graph before it packed lane
    /// graphs exactly.
    pub mwu_us: f64,
    /// "better", "same" or "worse": `blink_us` against `mwu_us`.
    pub verdict: String,
}

/// The per-class sweep's verdict counts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassSweepSummary {
    /// Runs faster than the MWU plans.
    pub better: usize,
    /// Runs bit-equal to the MWU plans' time.
    pub same: usize,
    /// Runs slower than the MWU plans.
    pub worse: usize,
}

/// The plan MWU packing plus minimisation makes from `root` over `g`.
fn mwu_plan(g: &DiGraph, root: GpuId) -> Option<Vec<WeightedTree>> {
    if !g.spans_from(g.node(root)?) {
        return None;
    }
    let packing = pack_spanning_trees(g, root, &PackingOptions::default()).ok()?;
    Some(minimize_trees(g, &packing, &MinimizeOptions::default()).trees)
}

/// The simulated time of `kind` over `trees` on `induced`, lowered as a
/// communicator lowers with its default chunk.
fn trees_us(induced: &Topology, trees: &[WeightedTree], kind: CollectiveKind, bytes: u64) -> f64 {
    let program = CodeGen::new(CodeGenOptions {
        chunk_bytes: CommunicatorOptions::default().chunk_bytes,
        ..CodeGenOptions::default()
    })
    .build(trees, kind, bytes)
    .expect("a plan lowers");
    Simulator::with_defaults(induced.clone())
        .run(&program)
        .expect("a lowered plan simulates")
        .total_us
}

/// Every DGX-1V and DGX-1P class of 2–8 GPUs: AllReduce at 16, 25, 64 and
/// 500 MB (`mb`), and Broadcast at 64 MiB from the representative's
/// first GPU, by Blink and by the MWU plans (see [`ClassSweepRow::mwu_us`]).
/// A class NVLink cannot span rides PCIe either way; its MWU time is
/// Blink's.
pub fn class_sweep() -> (Vec<ClassSweepRow>, ClassSweepSummary) {
    let mut rows = Vec::new();
    for (machine, name) in [(dgx1v(), "dgx-1v"), (dgx1p(), "dgx-1p")] {
        for class in unique_allocations(&machine, 2..=8).expect("preset enumerates") {
            let alloc = class.representative.clone();
            let induced = machine.induced(&alloc).expect("valid class");
            let g = DiGraph::from_topology_filtered(&induced, |l| l.kind.is_nvlink());
            // the sweep's pick: the first root with the strictly highest rate
            let mut picked: Option<Vec<WeightedTree>> = None;
            for trees in alloc.iter().filter_map(|&root| mwu_plan(&g, root)) {
                let rate = |t: &[WeightedTree]| t.iter().map(|w| w.weight).sum::<f64>();
                if picked.as_ref().is_none_or(|p| rate(&trees) > rate(p)) {
                    picked = Some(trees);
                }
            }
            let first = alloc[0];
            let broadcast = mwu_plan(&g, first);
            let runs = [
                (CollectiveKind::AllReduce, mb(16), &picked),
                (CollectiveKind::AllReduce, mb(25), &picked),
                (CollectiveKind::AllReduce, mb(64), &picked),
                (CollectiveKind::AllReduce, mb(500), &picked),
                (
                    CollectiveKind::Broadcast { root: first },
                    mb(64),
                    &broadcast,
                ),
            ];
            for (kind, bytes, trees) in runs {
                let blink_us = blink_collective(&machine, &alloc, kind, bytes).elapsed_us;
                let mwu_us = trees
                    .as_ref()
                    .map_or(blink_us, |t| trees_us(&induced, t, kind, bytes));
                let verdict = match blink_us.partial_cmp(&mwu_us) {
                    Some(std::cmp::Ordering::Less) => "better",
                    Some(std::cmp::Ordering::Equal) => "same",
                    _ => "worse",
                };
                rows.push(ClassSweepRow {
                    machine: name.to_string(),
                    allocation: class.label(),
                    collective: match kind {
                        CollectiveKind::AllReduce => "allreduce",
                        _ => "broadcast",
                    }
                    .to_string(),
                    bytes,
                    blink_us,
                    mwu_us,
                    verdict: verdict.to_string(),
                });
            }
        }
    }
    let count = |v: &str| rows.iter().filter(|r| r.verdict == v).count();
    let summary = ClassSweepSummary {
        better: count("better"),
        same: count("same"),
        worse: count("worse"),
    };
    (rows, summary)
}

// ---------------------------------------------------------------------------
// Figure 18: end-to-end single-server training
// ---------------------------------------------------------------------------

/// One (configuration, model) bar pair of Figure 18.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EndToEndRow {
    /// Allocation label.
    pub allocation: String,
    /// Model name.
    pub model: String,
    /// Reduction in end-to-end iteration time when switching NCCL → Blink
    /// (percent).
    pub iteration_time_reduction_percent: f64,
    /// Reduction in communication time (percent).
    pub comm_time_reduction_percent: f64,
}

/// The representative DGX-1V configurations used by Figure 18.
pub fn fig18_configurations() -> Vec<Vec<GpuId>> {
    [
        vec![0usize, 1, 2],
        vec![3, 6, 7],
        vec![0, 1, 2, 3],
        vec![1, 4, 5, 7],
        vec![1, 4, 5, 6, 7],
        vec![2, 3, 5, 6, 7],
        vec![1, 2, 4, 5, 6, 7],
        vec![2, 3, 4, 5, 6, 7],
        vec![1, 2, 3, 4, 5, 6, 7],
        vec![0, 1, 2, 3, 4, 5, 6, 7],
    ]
    .into_iter()
    .map(|ids| ids.into_iter().map(GpuId).collect())
    .collect()
}

/// Figure 18: iteration-time and communication-time reduction from switching
/// the collective backend from NCCL to Blink, on a single DGX-1V.
pub fn fig18_end_to_end_dgx1v() -> Vec<EndToEndRow> {
    let machine = dgx1v();
    let mut rows = Vec::new();
    for alloc in fig18_configurations() {
        for model in DnnModel::paper_models() {
            let mut nccl = NcclBackend::new(machine.clone(), &alloc);
            let nccl_iter = TrainingSimulator::new(
                model.clone(),
                alloc.len(),
                TrainerConfig::default(),
                &mut nccl,
            )
            .iteration();
            let mut blink = BlinkBackend::new(machine.clone(), &alloc).expect("valid allocation");
            let blink_iter = TrainingSimulator::new(
                model.clone(),
                alloc.len(),
                TrainerConfig::default(),
                &mut blink,
            )
            .iteration();
            rows.push(EndToEndRow {
                allocation: label(&alloc),
                model: model.name.clone(),
                iteration_time_reduction_percent: 100.0
                    * blink_train::trainer::reduction(
                        nccl_iter.iteration_us,
                        blink_iter.iteration_us,
                    ),
                comm_time_reduction_percent: 100.0
                    * blink_train::trainer::reduction(nccl_iter.comm_us, blink_iter.comm_us),
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Figures 19 / 20: DGX-2 AllReduce throughput and latency
// ---------------------------------------------------------------------------

/// One data-size point of Figures 19/20.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dgx2Row {
    /// Buffer size in bytes.
    pub bytes: u64,
    /// Blink AllReduce throughput (GB/s).
    pub blink_gbps: f64,
    /// NCCL AllReduce throughput (GB/s).
    pub nccl_gbps: f64,
    /// Blink AllReduce latency (µs).
    pub blink_latency_us: f64,
    /// NCCL AllReduce latency (µs).
    pub nccl_latency_us: f64,
}

/// The data-size sweep of Figures 19/20 (1 KB to `max_mb` MB, powers of two).
pub fn fig19_20_dgx2_allreduce(max_mb: u64) -> Vec<Dgx2Row> {
    let machine = dgx2();
    let alloc: Vec<GpuId> = (0..16).map(GpuId).collect();
    let mut rows = Vec::new();
    let mut bytes: u64 = 1024;
    while bytes <= max_mb * 1024 * 1024 {
        let blink = blink_collective(&machine, &alloc, CollectiveKind::AllReduce, bytes);
        let nccl = nccl_collective(&machine, &alloc, CollectiveKind::AllReduce, bytes);
        rows.push(Dgx2Row {
            bytes,
            blink_gbps: blink.gbps,
            nccl_gbps: nccl.gbps,
            blink_latency_us: blink.elapsed_us,
            nccl_latency_us: nccl.elapsed_us,
        });
        bytes *= 4;
    }
    rows
}

/// One row of [`dgx2_race_sweep`]: the strategy a DGX-2 slice lowers one
/// collective with and its simulated time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dgx2RaceRow {
    /// Number of GPUs.
    pub gpus: usize,
    /// The allocation's GPU ids.
    pub allocation: String,
    /// The collective (rooted kinds at the allocation's first GPU).
    pub kind: String,
    /// Buffer size in bytes.
    pub bytes: u64,
    /// The pairwise exchange for a rootless kind, the race's winner for
    /// Broadcast.
    pub strategy: String,
    /// The winner's simulated time (µs).
    pub us: f64,
}

/// The switch lowering on DGX-2 slices of 2–16 GPUs, each blocked (GPUs
/// `0..n`) and, below 16, strided (GPU `⌊16·i/n⌋` for `i < n`), for
/// AllReduce, AllGather, ReduceScatter and Broadcast from 1 KB to 1 GiB in
/// powers of four: the rootless kinds' rows are chosen by kind, the
/// Broadcast rows by the race. Every switch slice of one size is one
/// lowering shape, so a strided slice takes its blocked twin's lowering
/// from the plan store and reports its time.
pub fn dgx2_race_sweep() -> Vec<Dgx2RaceRow> {
    let machine = dgx2();
    let mut rows = Vec::new();
    for n in 2..=16usize {
        let blocked: Vec<GpuId> = (0..n).map(GpuId).collect();
        let strided: Vec<GpuId> = (0..n).map(|i| GpuId(16 * i / n)).collect();
        let slices = if n < 16 {
            vec![blocked, strided]
        } else {
            vec![blocked]
        };
        for alloc in slices {
            let kinds = [
                CollectiveKind::AllReduce,
                CollectiveKind::AllGather,
                CollectiveKind::ReduceScatter,
                CollectiveKind::Broadcast { root: alloc[0] },
            ];
            for kind in kinds {
                let mut bytes: u64 = 1024;
                while bytes <= 1 << 30 {
                    let run = blink_collective(&machine, &alloc, kind, bytes);
                    rows.push(Dgx2RaceRow {
                        gpus: n,
                        allocation: label(&alloc),
                        kind: kind.to_string(),
                        bytes,
                        strategy: run.strategy,
                        us: run.elapsed_us,
                    });
                    bytes *= 4;
                }
            }
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Figure 21: hybrid PCIe + NVLink broadcast
// ---------------------------------------------------------------------------

/// One GPU-count point of Figure 21.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HybridRow {
    /// Number of GPUs.
    pub gpus: usize,
    /// NVLink-only broadcast throughput (GB/s).
    pub nvlink_gbps: f64,
    /// Hybrid PCIe+NVLink broadcast throughput (GB/s).
    pub hybrid_gbps: f64,
}

/// Figure 21: hybrid vs NVLink-only broadcast on the DGX-1V, 3–8 GPUs.
pub fn fig21_hybrid_transfers() -> Vec<HybridRow> {
    let machine = dgx1v();
    let allocations: Vec<Vec<GpuId>> = (3..=8usize).map(|n| (0..n).map(GpuId).collect()).collect();
    allocations
        .into_iter()
        .map(|alloc| {
            let kind = CollectiveKind::Broadcast { root: GpuId(0) };
            let nvlink = blink_collective(&machine, &alloc, kind, mb(500));
            let hybrid = blink_collective_with(
                &machine,
                &alloc,
                kind,
                mb(500),
                CommunicatorOptions {
                    use_hybrid: true,
                    ..Default::default()
                },
            );
            HybridRow {
                gpus: alloc.len(),
                nvlink_gbps: nvlink.gbps,
                hybrid_gbps: hybrid.gbps,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 22: multi-server training and bandwidth projections
// ---------------------------------------------------------------------------

/// The paper's fragmented two-server allocation: 3 GPUs on the first DGX-1V
/// and 5 on the second.
pub fn fragmented_two_server_allocation() -> Vec<GpuId> {
    vec![
        GpuId(0),
        GpuId(1),
        GpuId(2),
        GpuId(8),
        GpuId(9),
        GpuId(10),
        GpuId(11),
        GpuId(12),
    ]
}

/// One model bar of Figure 22(a).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiServerTrainingRow {
    /// Model name.
    pub model: String,
    /// Images/second with the NCCL baseline.
    pub nccl_images_per_sec: f64,
    /// Images/second with Blink.
    pub blink_images_per_sec: f64,
    /// Relative improvement (percent).
    pub improvement_percent: f64,
}

/// Figure 22(a): training throughput across two DGX-1Vs (3 + 5 GPUs, 40 Gb/s
/// network).
pub fn fig22a_multi_server_training() -> Vec<MultiServerTrainingRow> {
    let machine = multi_server(2, ServerKind::Dgx1V, 5.0);
    let alloc = fragmented_two_server_allocation();
    DnnModel::paper_models()
        .into_iter()
        .map(|model| {
            let mut nccl = NcclBackend::new(machine.clone(), &alloc);
            let nccl_iter = TrainingSimulator::new(
                model.clone(),
                alloc.len(),
                TrainerConfig::default(),
                &mut nccl,
            )
            .iteration();
            let mut blink = BlinkBackend::new(machine.clone(), &alloc).expect("valid allocation");
            let blink_iter = TrainingSimulator::new(
                model.clone(),
                alloc.len(),
                TrainerConfig::default(),
                &mut blink,
            )
            .iteration();
            MultiServerTrainingRow {
                model: model.name,
                nccl_images_per_sec: nccl_iter.images_per_sec,
                blink_images_per_sec: blink_iter.images_per_sec,
                improvement_percent: 100.0
                    * (blink_iter.images_per_sec / nccl_iter.images_per_sec - 1.0),
            }
        })
        .collect()
}

/// One bandwidth point of Figure 22(b).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BandwidthProjectionRow {
    /// Cross-machine bandwidth in Gb/s.
    pub network_gbits: u64,
    /// NCCL AllReduce throughput (GB/s) for a 100 MB buffer.
    pub nccl_gbps: f64,
    /// Blink AllReduce throughput (GB/s) for a 100 MB buffer.
    pub blink_gbps: f64,
}

/// Figure 22(b): AllReduce throughput of a 100 MB buffer over the fragmented
/// two-server allocation as the cross-machine bandwidth grows.
pub fn fig22b_bandwidth_projection() -> Vec<BandwidthProjectionRow> {
    let alloc = fragmented_two_server_allocation();
    [40u64, 100, 400]
        .iter()
        .map(|&gbits| {
            let nic = gbits as f64 / 8.0;
            let machine = multi_server(2, ServerKind::Dgx1V, nic);
            let blink = blink_collective(&machine, &alloc, CollectiveKind::AllReduce, mb(100));
            let mut nccl = NcclBackend::new(machine, &alloc);
            BandwidthProjectionRow {
                network_gbits: gbits,
                nccl_gbps: nccl.allreduce_gbps(mb(100)),
                blink_gbps: blink.gbps,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Section 3.2.1 case study: tree minimisation
// ---------------------------------------------------------------------------

/// The tree-minimisation statistics the paper quotes in Section 3.2.1.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TreeMinimizationRow {
    /// Allocation label.
    pub allocation: String,
    /// Trees returned by the raw MWU packing.
    pub mwu_trees: usize,
    /// Trees after the ILP-style minimisation.
    pub minimized_trees: usize,
    /// The minimised packing's rate in NVLink-lane units.
    pub rate_lanes: f64,
    /// Bytes per tree for a 1000 MB transfer, in MB.
    pub mb_per_tree: f64,
    /// MWU iterations TreeGen runs for the same plan (0: it packs the lane
    /// graph exactly).
    pub treegen_mwu_iterations: usize,
    /// Trees in TreeGen's plan.
    pub treegen_trees: usize,
    /// TreeGen's rate in NVLink-lane units.
    pub treegen_rate_lanes: f64,
}

/// Section 3.2.1: the 181-trees-to-6 reduction on the full DGX-1V, by the
/// paper's MWU packing and minimisation, beside the plan TreeGen makes.
pub fn tab_tree_minimization() -> TreeMinimizationRow {
    let machine = dgx1v();
    let alloc: Vec<GpuId> = (0..8).map(GpuId).collect();
    let induced = machine.induced(&alloc).expect("valid");
    let g = DiGraph::from_topology_filtered(&induced, |l| l.kind.is_nvlink());
    let packing =
        pack_spanning_trees(&g, GpuId(0), &PackingOptions::default()).expect("the DGX-1V spans");
    let minimized = minimize_trees(&g, &packing, &MinimizeOptions::default());
    let plan = TreeGen::new(induced, TreeGenOptions::default())
        .plan(GpuId(0))
        .expect("plans");
    TreeMinimizationRow {
        allocation: label(&alloc),
        mwu_trees: packing.num_trees(),
        minimized_trees: minimized.num_trees(),
        rate_lanes: minimized.rate() / 23.0,
        mb_per_tree: 1000.0 / minimized.num_trees() as f64,
        treegen_mwu_iterations: plan.mwu.iterations,
        treegen_trees: plan.num_trees(),
        treegen_rate_lanes: plan.rate_gbps() / 23.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_shows_the_pcie_fallback_gap() {
        let rows = fig02_broadcast_motivation();
        assert_eq!(rows.len(), 2);
        // fully connected: modest difference; partially connected: big win
        assert!(rows[0].speedup < 2.0);
        assert!(rows[1].speedup > 3.0);
    }

    #[test]
    fn figure3_shows_fragmentation() {
        let rows = fig03_scheduler_allocations(5_000);
        let total: f64 = rows.iter().map(|r| r.percent).sum();
        assert!((total - 100.0).abs() < 1.0);
        let fragmented: f64 = rows
            .iter()
            .filter(|r| !r.gpus_on_server.is_power_of_two())
            .map(|r| r.percent)
            .sum();
        assert!(fragmented > 5.0, "fragmented share {fragmented}");
    }

    #[test]
    fn figure14_speedups_are_at_least_one() {
        let rows = fig14_theoretical_speedup();
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert!(row.median >= 0.99, "{row:?}");
            assert!(row.max >= row.median);
            assert!(
                row.max > 2.0,
                "some configuration should show a large win: {row:?}"
            );
        }
    }

    #[test]
    fn figure12_trace_shows_growth_then_settling() {
        let rows = fig12_chunk_autotune(6);
        assert_eq!(rows.len(), 6);
        assert!(rows[1].chunk_mb > rows[0].chunk_mb);
        let last = rows.last().expect("non-empty");
        assert_eq!(rows[rows.len() - 2].chunk_mb, last.chunk_mb);
    }

    #[test]
    fn grows_while_throughput_improves() {
        let mut t = ChunkAutotuner::new(1 << 20);
        assert_eq!(t.chunk_bytes(), 1 << 20);
        t.observe(40.0);
        assert_eq!(t.chunk_bytes(), 2 << 20);
        t.observe(60.0);
        assert_eq!(t.chunk_bytes(), 4 << 20);
        assert!(!t.converged);
        assert_eq!(t.history().len(), 2);
    }

    #[test]
    fn backs_off_additively_on_regression() {
        let mut t = ChunkAutotuner::new(1 << 20);
        t.observe(40.0); // -> 2 MB
        t.observe(80.0); // -> 4 MB
        t.observe(60.0); // regression: back off and stop
        assert!(t.converged);
        assert_eq!(t.chunk_bytes(), (4 << 20) - (512 * 1024));
        let before = t.chunk_bytes();
        t.observe(100.0); // converged: no change
        assert_eq!(t.chunk_bytes(), before);
    }

    #[test]
    fn converges_when_throughput_plateaus() {
        let mut t = ChunkAutotuner::new(1 << 20);
        t.observe(40.0);
        t.observe(40.1); // within 1% of the best -> stop
        assert!(t.converged);
    }

    #[test]
    fn respects_bounds() {
        let mut t = ChunkAutotuner::new(1);
        assert!(t.chunk_bytes() >= 64 * 1024);
        for gbps in [
            1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0,
        ] {
            t.observe(gbps);
        }
        assert!(t.chunk_bytes() <= 64 << 20);
        assert!(t.converged);
        assert_eq!(t.chunk_bytes(), 64 << 20);
    }

    #[test]
    fn figure12_records_every_step_and_moves_the_chunk() {
        let rows = fig12_chunk_autotune(5);
        assert_eq!(rows.len(), 5);
        assert!(rows.windows(2).any(|w| w[0].chunk_mb != w[1].chunk_mb));
    }

    #[test]
    fn tree_minimization_matches_the_paper_statistic() {
        let row = tab_tree_minimization();
        assert!(row.mwu_trees > row.minimized_trees);
        assert_eq!(row.minimized_trees, 6);
        assert!((row.rate_lanes - 6.0).abs() < 0.1);
        assert!((row.mb_per_tree - 166.6).abs() < 1.0);
        // TreeGen packs the lane graph exactly: 6 one-lane trees, no MWU
        assert_eq!(row.treegen_mwu_iterations, 0);
        assert_eq!((row.treegen_trees, row.treegen_rate_lanes), (6, 6.0));
    }

    #[test]
    fn figure21_hybrid_gains_are_a_few_gbps() {
        let rows = fig21_hybrid_transfers();
        assert_eq!(rows.len(), 6);
        for r in &rows {
            let gain = r.hybrid_gbps - r.nvlink_gbps;
            // hybrid transfers never hurt, and the gain is bounded by the PCIe
            // fabric rate
            assert!(gain >= -0.5, "hybrid should not hurt: {r:?}");
            assert!(gain < 10.0, "hybrid gain should be modest: {r:?}");
        }
        // at small GPU counts the peer-access toggle is cheap and the gain is
        // clearly visible (the paper reports ~5 GB/s there, ~2 GB/s at 7-8
        // GPUs where our calibrated T_dpa swallows the benefit entirely)
        let small_gain = rows[0].hybrid_gbps - rows[0].nvlink_gbps;
        assert!(small_gain > 1.0, "3-GPU hybrid gain too small: {rows:?}");
    }

    #[test]
    fn figure22b_blink_scales_with_the_network() {
        let rows = fig22b_bandwidth_projection();
        assert_eq!(rows.len(), 3);
        assert!(rows[2].blink_gbps > rows[0].blink_gbps);
        for r in &rows {
            assert!(r.blink_gbps >= r.nccl_gbps * 0.9, "{r:?}");
        }
        // NCCL stays pinned near its PCIe/NIC bound even at 400 Gb/s
        assert!(rows[2].nccl_gbps < 12.0);
    }
}
