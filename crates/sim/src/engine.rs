//! The discrete-event execution engine.
//!
//! Programs are executed by list scheduling: an operation becomes *ready* when
//! all of its dependencies (explicit cross-stream deps plus the implicit
//! same-stream FIFO predecessor) have completed; ready operations are started
//! in order of readiness and occupy every hardware resource they touch — the
//! directed link, the NVSwitch injection/ejection port (when the topology
//! declares a per-GPU cap), the server NIC for cross-machine copies, and the
//! GPU's compute engine for kernels — until they finish. Resources serialise
//! their operations, which at chunk granularity is an accurate stand-in for
//! fair time-sharing of a link.
//!
//! # The interned-resource scheduling model
//!
//! The autotune and planning loops simulate thousands of candidate programs,
//! so the scheduler itself is a hot path. [`Simulator::run_with_scratch`]
//! therefore splits execution into a **prepass** and a **zero-allocation
//! scan**: the prepass interns every resource an op touches to a dense
//! integer id and lays the per-op resource-id lists out in one flat CSR
//! buffer, precomputes each op's duration, and builds the dependency
//! children lists as a second CSR — after which the K-candidate scan (pick,
//! among the earliest-ready ops, the one that can *start* earliest given
//! current resource occupancy) runs entirely over flat `Vec` lookups with no
//! per-iteration allocation and no ordered-map walks. All of those buffers
//! live in an [`EngineScratch`] that callers reuse across runs.
//!
//! The flat-path schedule is **bit-identical** to the direct implementation
//! (an allocating reference scheduler over ordered maps, kept in this
//! module's tests as the oracle they compare against): interning only
//! changes how a resource's free time is looked up, never which resources an
//! op occupies, how long it runs, or how ties are broken.
//!
//! # Streaming sessions: the admission / contention / determinism contract
//!
//! A [`Session`] generalises single-program execution to a *streaming
//! executor*: several in-flight programs share one simulated machine.
//!
//! * **Admission.** [`Session::admit`] queues a program with an *issue
//!   timestamp* (µs). No op of the program may start before its issue time;
//!   ops become ready at `max(issue, dependency completion)` exactly as in
//!   the single-program scheduler. Issue timestamps are how callers express
//!   cross-program ordering (e.g. "this bucket's gradient is ready at t"):
//!   programs themselves stay independent DAGs.
//! * **Link sharing.** All admitted programs are scheduled over **one**
//!   interned resource table, so contending ops FIFO-serialise on every
//!   shared resource — directed links, switch ports, NICs, compute engines —
//!   at op (chunk) granularity. At that granularity interleaved
//!   serialisation is the engine's stand-in for fair time-sharing of a link,
//!   identical to how two streams of one program already contend.
//!   Streams are namespaced per program: stream 3 of program A and stream 3
//!   of program B never serialise against each other.
//! * **Determinism.** The schedule is a pure function of the admitted
//!   (program, issue) pairs and their admission order. Ties between
//!   equally-ready ops are broken by global issue index (admission order
//!   first, then op id within a program), so re-running a session — or
//!   replaying it through a dirty scratch — reproduces every span bit for
//!   bit.
//! * **Single-program identity.** A session holding exactly one program
//!   admitted at `t = 0` produces spans bit-identical to
//!   [`Simulator::run_with_scratch`] on that program; the single-program
//!   entry points are in fact thin wrappers over the session core, and the
//!   regression tests pin the equivalence.
//!
//! # The scratch-reuse contract
//!
//! [`EngineScratch`] obeys the same rules as `blink-graph`'s planning
//! scratches: it is a buffer, not state (any run through an arbitrarily
//! dirty scratch returns a report bit-identical to a fresh-scratch run — the
//! prepass rewrites every entry it will read), it grows to the largest
//! program seen and never shrinks, one scratch may be threaded through runs
//! over different programs and topologies in any order, and it is `Send`
//! (asserted at compile time below) so per-worker pools can move scratches
//! across threads — but never share one mutably between concurrent runs.

use crate::params::SimParams;
use crate::program::{LinkClass, OpKind, Program, StreamId};
use blink_topology::{GpuId, LinkKind, ServerId, Topology};
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::fmt;

/// Errors raised while executing a program.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A copy references a GPU pair with no link of the requested class.
    MissingLink {
        /// Copy source.
        src: GpuId,
        /// Copy destination.
        dst: GpuId,
        /// Requested link class.
        class: LinkClass,
    },
    /// A GPU referenced by the program is not part of the topology.
    UnknownGpu(GpuId),
    /// The program failed validation.
    InvalidProgram(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MissingLink { src, dst, class } => {
                write!(f, "no {class} link from {src} to {dst}")
            }
            SimError::UnknownGpu(g) => write!(f, "GPU {g} is not in the topology"),
            SimError::InvalidProgram(msg) => write!(f, "invalid program: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Execution result.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Wall-clock time of the whole program in microseconds.
    pub total_us: f64,
    /// Per-op `(start, end)` times in microseconds, indexed by op id.
    pub op_spans: Vec<(f64, f64)>,
    /// Busy time per directed link actually used, in microseconds.
    pub link_busy_us: BTreeMap<(GpuId, GpuId, LinkClass), f64>,
    /// Bytes moved per directed link actually used.
    pub link_bytes: BTreeMap<(GpuId, GpuId, LinkClass), u64>,
}

impl RunReport {
    /// Algorithmic bandwidth: `logical_bytes / total time`, in GB/s.
    ///
    /// `logical_bytes` is the collective's buffer size (what the paper's
    /// throughput figures divide by), not the number of bytes physically
    /// moved.
    pub fn algorithmic_bandwidth_gbps(&self, logical_bytes: u64) -> f64 {
        if self.total_us <= 0.0 {
            return 0.0;
        }
        logical_bytes as f64 / (self.total_us * 1000.0)
    }

    /// Utilisation of a link over the whole run (busy time / total time).
    pub fn link_utilization(&self, src: GpuId, dst: GpuId, class: LinkClass) -> f64 {
        if self.total_us <= 0.0 {
            return 0.0;
        }
        self.link_busy_us
            .get(&(src, dst, class))
            .map(|b| b / self.total_us)
            .unwrap_or(0.0)
    }

    /// Number of distinct directed links that carried any traffic.
    pub fn links_used(&self) -> usize {
        self.link_bytes.len()
    }
}

/// Timing of one admitted program inside a [`SessionReport`].
#[derive(Debug, Clone)]
pub struct ProgramSpan {
    /// The issue timestamp the program was admitted with.
    pub issue_us: f64,
    /// When the program's first op actually started (equals `issue_us` for an
    /// empty program).
    pub start_us: f64,
    /// When the program's last op finished (equals `issue_us` for an empty
    /// program).
    pub end_us: f64,
    /// Per-op `(start, end)` times, indexed by the program's own op ids.
    pub op_spans: Vec<(f64, f64)>,
}

impl ProgramSpan {
    /// Time from admission to completion (includes any queueing delay spent
    /// waiting on contended resources).
    pub fn elapsed_us(&self) -> f64 {
        self.end_us - self.issue_us
    }

    /// Time the program's first op spent waiting behind other traffic after
    /// its issue timestamp.
    pub fn queue_delay_us(&self) -> f64 {
        self.start_us - self.issue_us
    }
}

/// Result of executing a [`Session`]: per-program spans plus session-wide
/// link accounting (the per-link maps aggregate traffic from *all* admitted
/// programs).
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// End-to-end makespan of the session in microseconds, measured from
    /// `t = 0`: the latest program completion time.
    pub total_us: f64,
    /// One entry per admitted program, in admission order.
    pub programs: Vec<ProgramSpan>,
    /// Busy time per directed link actually used, in microseconds.
    pub link_busy_us: BTreeMap<(GpuId, GpuId, LinkClass), f64>,
    /// Bytes moved per directed link actually used.
    pub link_bytes: BTreeMap<(GpuId, GpuId, LinkClass), u64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Resource {
    Link(GpuId, GpuId, u8),
    EgressPort(GpuId),
    IngressPort(GpuId),
    NicOut(ServerId),
    NicIn(ServerId),
    Compute(GpuId),
    Stream(StreamId),
}

fn class_tag(class: LinkClass) -> u8 {
    match class {
        LinkClass::NvLink => 0,
        LinkClass::Pcie => 1,
        LinkClass::Network => 2,
    }
}

/// A ready op in the scheduler's priority queue (min-heap on `(time, id)`).
#[derive(Debug, Clone, PartialEq)]
struct Ready {
    time: f64,
    id: usize,
}
impl Eq for Ready {}
impl Ord for Ready {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // min-heap on (time, id)
        other
            .time
            .total_cmp(&self.time)
            .then(other.id.cmp(&self.id))
    }
}
impl PartialOrd for Ready {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Among the ready operations, run the one that can actually *start* earliest
/// given current resource occupancy (ties broken by issue order). Considering
/// only the K earliest-ready candidates keeps the scheduler near-linear while
/// still packing independent flows (e.g. the 16x15 one-hop pattern on a
/// DGX-2) tightly.
const CANDIDATES: usize = 128;

/// Sentinel for "op occupies no link" in the prepass link table.
const NO_LINK: u32 = u32::MAX;

/// Reusable buffers for [`Simulator::run_with_scratch`]: the resource intern
/// table, the per-op resource-id and children CSRs, flat free-time and
/// link-accounting arrays, and the scheduler's heap. See the module docs for
/// the scratch-reuse contract; a fresh scratch is `Default`-constructible and
/// the struct is `Clone` and `Send`.
#[derive(Debug, Clone, Default)]
pub struct EngineScratch {
    /// Resource -> dense id intern table (rebuilt per run; rebuilding a
    /// `HashMap` reuses its allocation, unlike an ordered map).
    res_ids: HashMap<Resource, u32>,
    /// CSR offsets: op `i`'s resource ids live at `op_res[op_res_start[i]..op_res_start[i+1]]`.
    op_res_start: Vec<u32>,
    op_res: Vec<u32>,
    /// Precomputed duration per op.
    durations: Vec<f64>,
    /// Link intern table for the per-link busy/bytes accounting.
    link_ids: HashMap<(GpuId, GpuId, LinkClass), u32>,
    links: Vec<(GpuId, GpuId, LinkClass)>,
    /// Interned link id per op (`NO_LINK` for non-copies).
    op_link: Vec<u32>,
    /// Payload bytes per op (copies only; 0 otherwise).
    op_bytes: Vec<u64>,
    /// Free time per interned resource id.
    resource_free: Vec<f64>,
    link_busy: Vec<f64>,
    link_bytes: Vec<u64>,
    indeg: Vec<u32>,
    /// Implicit same-stream FIFO predecessor (`u32::MAX` = none).
    extra_dep: Vec<u32>,
    /// Children CSR (op -> ops whose dependencies include it).
    child_start: Vec<u32>,
    children: Vec<u32>,
    child_cursor: Vec<u32>,
    ready_time: Vec<f64>,
    last_in_stream: HashMap<StreamId, u32>,
    heap: BinaryHeap<Ready>,
    pulled: Vec<Ready>,
}

impl EngineScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

// The engine mirrors rule 4 of blink-graph's scratch-reuse contract: a
// scratch must stay `Send` so per-worker pools can carry one into a thread.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<EngineScratch>();
};

/// Executes [`Program`]s against a [`Topology`] with given [`SimParams`].
#[derive(Debug, Clone)]
pub struct Simulator {
    topology: Topology,
    params: SimParams,
}

impl Simulator {
    /// Creates a simulator for `topology` with `params`.
    pub fn new(topology: Topology, params: SimParams) -> Self {
        Simulator { topology, params }
    }

    /// Creates a simulator with default calibration parameters.
    pub fn with_defaults(topology: Topology) -> Self {
        Self::new(topology, SimParams::default())
    }

    /// The topology being simulated.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The calibration parameters.
    pub fn params(&self) -> &SimParams {
        &self.params
    }

    fn link_capacity(&self, src: GpuId, dst: GpuId, class: LinkClass) -> f64 {
        self.topology
            .links_between(src, dst)
            .filter(|l| match class {
                LinkClass::NvLink => l.kind.is_nvlink(),
                LinkClass::Pcie => l.kind == LinkKind::Pcie,
                LinkClass::Network => l.kind == LinkKind::Network,
            })
            .map(|l| l.capacity_gbps())
            .sum()
    }

    fn op_duration(&self, kind: &OpKind) -> Result<f64, SimError> {
        let p = &self.params;
        Ok(match *kind {
            OpKind::Copy {
                src, dst, class, ..
            } => {
                let bw = self.link_capacity(src, dst, class);
                if bw <= 0.0 {
                    return Err(SimError::MissingLink { src, dst, class });
                }
                let latency = match class {
                    LinkClass::Network => p.network_latency_us,
                    _ => p.link_latency_us,
                };
                p.op_launch_overhead_us
                    + latency
                    + SimParams::transfer_us(kind.payload_bytes(), bw)
                    + p.segment_overhead_us(kind.segments().len())
            }
            OpKind::Reduce { .. } => {
                p.reduce_us(kind.payload_bytes()) + p.segment_overhead_us(kind.segments().len())
            }
            OpKind::Compute { duration_us, .. } => p.op_launch_overhead_us + duration_us,
            OpKind::TogglePeerAccess { gpus } => f64::from(gpus) * p.dpa_per_gpu_us,
        })
    }

    /// The one definition of which hardware resources an op occupies, shared
    /// by the interning prepass and the test-only reference scheduler.
    fn for_each_resource(
        &self,
        kind: &OpKind,
        stream: StreamId,
        mut f: impl FnMut(Resource),
    ) -> Result<(), SimError> {
        f(Resource::Stream(stream));
        match *kind {
            OpKind::Copy {
                src, dst, class, ..
            } => {
                if !self.topology.contains(src) {
                    return Err(SimError::UnknownGpu(src));
                }
                if !self.topology.contains(dst) {
                    return Err(SimError::UnknownGpu(dst));
                }
                f(Resource::Link(src, dst, class_tag(class)));
                if class == LinkClass::NvLink {
                    if self.topology.gpu_cap(src).is_some() {
                        f(Resource::EgressPort(src));
                    }
                    if self.topology.gpu_cap(dst).is_some() {
                        f(Resource::IngressPort(dst));
                    }
                }
                if class == LinkClass::Network {
                    let s_srv = self
                        .topology
                        .gpu(src)
                        .map_err(|_| SimError::UnknownGpu(src))?
                        .server;
                    let d_srv = self
                        .topology
                        .gpu(dst)
                        .map_err(|_| SimError::UnknownGpu(dst))?
                        .server;
                    if self.topology.server_nic(s_srv).is_some() {
                        f(Resource::NicOut(s_srv));
                    }
                    if self.topology.server_nic(d_srv).is_some() {
                        f(Resource::NicIn(d_srv));
                    }
                }
            }
            OpKind::Reduce { gpu, .. } => {
                if !self.topology.contains(gpu) {
                    return Err(SimError::UnknownGpu(gpu));
                }
            }
            OpKind::Compute { gpu, .. } => {
                if !self.topology.contains(gpu) {
                    return Err(SimError::UnknownGpu(gpu));
                }
                f(Resource::Compute(gpu));
            }
            OpKind::TogglePeerAccess { .. } => {}
        }
        Ok(())
    }

    /// Runs `program` and reports timings, allocating a fresh
    /// [`EngineScratch`] for the call. Loops that simulate many programs
    /// should hold a scratch and call [`Simulator::run_with_scratch`]
    /// instead.
    ///
    /// # Errors
    /// Fails if the program is structurally invalid, references GPUs outside
    /// the topology, or copies over a link class that does not exist between
    /// the two endpoints.
    pub fn run(&self, program: &Program) -> Result<RunReport, SimError> {
        self.run_with_scratch(program, &mut EngineScratch::new())
    }

    /// Runs `program` over reusable `scratch` buffers: an interning prepass
    /// plus a flat-array candidate scan with no per-iteration allocation.
    /// The returned report is bit-identical to the allocating reference
    /// scheduler the engine's tests keep as an oracle.
    ///
    /// This is a thin wrapper over the session core: a one-program session
    /// admitted at `t = 0` (see the module docs for the contract that makes
    /// the wrapper exact).
    ///
    /// # Errors
    /// Same conditions as [`Simulator::run`].
    pub fn run_with_scratch(
        &self,
        program: &Program,
        scratch: &mut EngineScratch,
    ) -> Result<RunReport, SimError> {
        let mut session = self.run_entries(&[(program, 0.0)], scratch)?;
        let prog = session
            .programs
            .pop()
            .expect("exactly one admitted program");
        Ok(RunReport {
            total_us: session.total_us,
            op_spans: prog.op_spans,
            link_busy_us: session.link_busy_us,
            link_bytes: session.link_bytes,
        })
    }

    /// The session core: schedules every op of every `(program, issue_us)`
    /// entry over one shared interned resource table. Single-program
    /// execution is the `entries.len() == 1`, `issue_us == 0.0` special case.
    fn run_entries(
        &self,
        entries: &[(&Program, f64)],
        scratch: &mut EngineScratch,
    ) -> Result<SessionReport, SimError> {
        for (program, issue) in entries {
            program
                .validate()
                .map_err(|e| SimError::InvalidProgram(e.to_string()))?;
            if !issue.is_finite() || *issue < 0.0 {
                return Err(SimError::InvalidProgram(format!(
                    "issue timestamp {issue} must be finite and non-negative"
                )));
            }
        }
        let n: usize = entries.iter().map(|(p, _)| p.len()).sum();
        // Global op id = op_base[program index] + local op id; the scan's
        // tie-break on global id is what makes admission order part of the
        // determinism contract.
        let mut op_base: Vec<usize> = Vec::with_capacity(entries.len() + 1);
        let s = scratch;

        // ---- prepass: durations, interned per-op resource lists (CSR),
        //      per-program stream namespacing, same-stream FIFO deps ----
        s.res_ids.clear();
        s.link_ids.clear();
        s.links.clear();
        s.op_res.clear();
        s.op_res_start.clear();
        s.durations.clear();
        s.op_link.clear();
        s.op_bytes.clear();
        s.extra_dep.clear();
        s.extra_dep.resize(n, u32::MAX);
        s.last_in_stream.clear();
        let mut stream_base = 0usize;
        let mut g = 0usize;
        for (program, _) in entries {
            op_base.push(g);
            let mut max_stream: Option<usize> = None;
            for op in program.ops() {
                s.op_res_start.push(s.op_res.len() as u32);
                s.durations.push(self.op_duration(&op.kind)?);
                // Namespace streams per program so two programs' stream 0
                // never FIFO-serialise against each other.
                let stream = StreamId(stream_base + op.stream.0);
                max_stream = Some(max_stream.map_or(op.stream.0, |m| m.max(op.stream.0)));
                let res_ids = &mut s.res_ids;
                let op_res = &mut s.op_res;
                self.for_each_resource(&op.kind, stream, |r| {
                    let next = res_ids.len() as u32;
                    let id = *res_ids.entry(r).or_insert(next);
                    op_res.push(id);
                })?;
                if let OpKind::Copy {
                    src, dst, class, ..
                } = op.kind
                {
                    let next = s.links.len() as u32;
                    let id = *s.link_ids.entry((src, dst, class)).or_insert(next);
                    if id == next {
                        s.links.push((src, dst, class));
                    }
                    s.op_link.push(id);
                    s.op_bytes.push(op.kind.payload_bytes());
                } else {
                    s.op_link.push(NO_LINK);
                    s.op_bytes.push(0);
                }
                if let Some(&prev) = s.last_in_stream.get(&stream) {
                    s.extra_dep[g] = prev;
                }
                s.last_in_stream.insert(stream, g as u32);
                g += 1;
            }
            stream_base += max_stream.map_or(0, |m| m + 1);
        }
        op_base.push(g);
        s.op_res_start.push(s.op_res.len() as u32);

        // ---- dependency bookkeeping: in-degrees + children CSR ----
        s.indeg.clear();
        s.indeg.resize(n, 0);
        s.child_start.clear();
        s.child_start.resize(n + 1, 0);
        for (p_idx, (program, _)) in entries.iter().enumerate() {
            let base = op_base[p_idx];
            for (i, op) in program.ops().iter().enumerate() {
                let gi = base + i;
                for &d in &op.deps {
                    s.indeg[gi] += 1;
                    s.child_start[base + d.0 + 1] += 1;
                }
                if s.extra_dep[gi] != u32::MAX {
                    s.indeg[gi] += 1;
                    s.child_start[s.extra_dep[gi] as usize + 1] += 1;
                }
            }
        }
        for k in 1..=n {
            s.child_start[k] += s.child_start[k - 1];
        }
        s.children.clear();
        s.children.resize(s.child_start[n] as usize, 0);
        s.child_cursor.clear();
        s.child_cursor.extend_from_slice(&s.child_start[..n]);
        for (p_idx, (program, _)) in entries.iter().enumerate() {
            let base = op_base[p_idx];
            for (i, op) in program.ops().iter().enumerate() {
                let gi = base + i;
                for &d in &op.deps {
                    let c = &mut s.child_cursor[base + d.0];
                    s.children[*c as usize] = gi as u32;
                    *c += 1;
                }
                if s.extra_dep[gi] != u32::MAX {
                    let c = &mut s.child_cursor[s.extra_dep[gi] as usize];
                    s.children[*c as usize] = gi as u32;
                    *c += 1;
                }
            }
        }

        // ---- flat state arrays ----
        s.resource_free.clear();
        s.resource_free.resize(s.res_ids.len(), 0.0);
        s.link_busy.clear();
        s.link_busy.resize(s.links.len(), 0.0);
        s.link_bytes.clear();
        s.link_bytes.resize(s.links.len(), 0);
        s.ready_time.clear();
        s.ready_time.resize(n, 0.0);
        s.heap.clear();
        for (p_idx, (_, issue)) in entries.iter().enumerate() {
            // Roots become ready at their program's issue timestamp; every
            // other op inherits `>= issue` transitively through its deps.
            for gi in op_base[p_idx]..op_base[p_idx + 1] {
                if s.indeg[gi] == 0 {
                    s.heap.push(Ready {
                        time: *issue,
                        id: gi,
                    });
                }
            }
        }

        let mut op_spans = vec![(0.0, 0.0); n];
        let mut total = 0.0f64;
        let mut done = 0usize;

        // ---- the zero-allocation K-candidate scan ----
        while !s.heap.is_empty() {
            s.pulled.clear();
            while s.pulled.len() < CANDIDATES {
                match s.heap.pop() {
                    Some(r) => s.pulled.push(r),
                    None => break,
                }
            }
            let mut best_idx = 0usize;
            let mut best_start = f64::INFINITY;
            let mut best_key = usize::MAX;
            for (idx, cand) in s.pulled.iter().enumerate() {
                let (lo, hi) = (
                    s.op_res_start[cand.id] as usize,
                    s.op_res_start[cand.id + 1] as usize,
                );
                let mut start = cand.time;
                for &r in &s.op_res[lo..hi] {
                    start = start.max(s.resource_free[r as usize]);
                }
                if start < best_start - 1e-9 || (start < best_start + 1e-9 && cand.id < best_key) {
                    best_start = start;
                    best_idx = idx;
                    best_key = cand.id;
                }
            }
            let chosen = s.pulled.swap_remove(best_idx);
            for other in s.pulled.drain(..) {
                s.heap.push(other);
            }
            let Ready { time, id } = chosen;
            let duration = s.durations[id];
            let (lo, hi) = (s.op_res_start[id] as usize, s.op_res_start[id + 1] as usize);
            let mut start = time;
            for &r in &s.op_res[lo..hi] {
                start = start.max(s.resource_free[r as usize]);
            }
            let end = start + duration;
            for &r in &s.op_res[lo..hi] {
                s.resource_free[r as usize] = end;
            }
            op_spans[id] = (start, end);
            total = total.max(end);
            if s.op_link[id] != NO_LINK {
                let l = s.op_link[id] as usize;
                s.link_busy[l] += duration;
                s.link_bytes[l] += s.op_bytes[id];
            }
            done += 1;
            let (clo, chi) = (s.child_start[id] as usize, s.child_start[id + 1] as usize);
            for k in clo..chi {
                let c = s.children[k] as usize;
                s.ready_time[c] = s.ready_time[c].max(end);
                s.indeg[c] -= 1;
                if s.indeg[c] == 0 {
                    s.heap.push(Ready {
                        time: s.ready_time[c],
                        id: c,
                    });
                }
            }
        }

        if done != n {
            return Err(SimError::InvalidProgram(
                "dependency cycle: not every op became ready".to_string(),
            ));
        }

        let mut link_busy = BTreeMap::new();
        let mut link_bytes = BTreeMap::new();
        for (i, &key) in s.links.iter().enumerate() {
            link_busy.insert(key, s.link_busy[i]);
            link_bytes.insert(key, s.link_bytes[i]);
        }
        let mut programs = Vec::with_capacity(entries.len());
        for (p_idx, (_, issue)) in entries.iter().enumerate() {
            let (lo, hi) = (op_base[p_idx], op_base[p_idx + 1]);
            let spans = op_spans[lo..hi].to_vec();
            let (mut start, mut end) = (*issue, *issue);
            for (k, &(st, en)) in spans.iter().enumerate() {
                start = if k == 0 { st } else { start.min(st) };
                end = end.max(en);
            }
            total = total.max(end);
            programs.push(ProgramSpan {
                issue_us: *issue,
                start_us: start,
                end_us: end,
                op_spans: spans,
            });
        }
        Ok(SessionReport {
            total_us: total,
            programs,
            link_busy_us: link_busy,
            link_bytes,
        })
    }

    /// Creates an empty streaming [`Session`] over this simulator. Admit
    /// programs with [`Session::admit`], then execute them all with
    /// [`Session::run`]; see the module docs for the
    /// admission/contention/determinism contract.
    pub fn session(&self) -> Session<'_> {
        Session {
            sim: self,
            entries: Vec::new(),
        }
    }
}

/// A streaming execution session: multiple in-flight programs sharing one
/// simulated machine.
///
/// Admit each program with its issue timestamp, then [`Session::run`] (or
/// [`Session::run_with_scratch`] in hot loops) schedules every op of every
/// program over one shared interned resource table, so concurrent programs
/// contend for links, ports, NICs and compute engines exactly like the
/// streams of a single program do. The module docs spell out the full
/// admission / link-sharing / determinism contract; the headline guarantees
/// are FIFO serialisation at op granularity on shared resources and spans
/// that are a pure function of the admitted `(program, issue)` pairs and
/// their admission order.
#[derive(Debug, Clone)]
pub struct Session<'a> {
    sim: &'a Simulator,
    entries: Vec<(Program, f64)>,
}

impl Session<'_> {
    /// Admits `program` into the session with issue timestamp `issue_us`
    /// (microseconds; must be finite and non-negative) and returns the
    /// program's index into [`SessionReport::programs`].
    pub fn admit(&mut self, program: Program, issue_us: f64) -> usize {
        self.entries.push((program, issue_us));
        self.entries.len() - 1
    }

    /// Number of admitted programs.
    pub fn num_programs(&self) -> usize {
        self.entries.len()
    }

    /// Whether no program has been admitted yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The admitted `(program, issue_us)` entries, in admission order.
    pub fn programs(&self) -> &[(Program, f64)] {
        &self.entries
    }

    /// Executes every admitted program, allocating a fresh scratch. Loops
    /// that run many sessions should hold an [`EngineScratch`] and call
    /// [`Session::run_with_scratch`].
    ///
    /// # Errors
    /// Fails under the same conditions as [`Simulator::run`] on any admitted
    /// program, or if an issue timestamp is negative, NaN or infinite.
    pub fn run(&self) -> Result<SessionReport, SimError> {
        self.run_with_scratch(&mut EngineScratch::new())
    }

    /// Executes every admitted program over reusable `scratch` buffers.
    ///
    /// # Errors
    /// Same conditions as [`Session::run`].
    pub fn run_with_scratch(&self, scratch: &mut EngineScratch) -> Result<SessionReport, SimError> {
        let refs: Vec<(&Program, f64)> = self.entries.iter().map(|(p, t)| (p, *t)).collect();
        self.sim.run_entries(&refs, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{ProgramBuilder, Segment};
    use blink_topology::presets::{dgx1v, dgx2, multi_server, ServerKind};

    /// The pre-interning scheduler, preserved verbatim as the oracle the
    /// tests pin [`Simulator::run_with_scratch`] and one-program sessions
    /// bit-identical against: identical list scheduling over ordered maps
    /// with per-candidate resource-list allocation.
    impl Simulator {
        fn op_resources(&self, kind: &OpKind, stream: StreamId) -> Result<Vec<Resource>, SimError> {
            let mut res = Vec::new();
            self.for_each_resource(kind, stream, |r| res.push(r))?;
            Ok(res)
        }

        fn run_reference(&self, program: &Program) -> Result<RunReport, SimError> {
            program
                .validate()
                .map_err(|e| SimError::InvalidProgram(e.to_string()))?;
            let n = program.len();
            let ops = program.ops();

            // implicit same-stream FIFO dependencies
            let mut extra_dep: Vec<Option<usize>> = vec![None; n];
            let mut last_in_stream: BTreeMap<StreamId, usize> = BTreeMap::new();
            for (i, op) in ops.iter().enumerate() {
                if let Some(&prev) = last_in_stream.get(&op.stream) {
                    extra_dep[i] = Some(prev);
                }
                last_in_stream.insert(op.stream, i);
            }

            // dependency bookkeeping
            let mut indeg = vec![0usize; n];
            let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
            for (i, op) in ops.iter().enumerate() {
                for &d in &op.deps {
                    indeg[i] += 1;
                    children[d.0].push(i);
                }
                if let Some(prev) = extra_dep[i] {
                    indeg[i] += 1;
                    children[prev].push(i);
                }
            }

            let mut ready_time = vec![0.0f64; n];
            let mut heap = BinaryHeap::new();
            for (i, &deg) in indeg.iter().enumerate() {
                if deg == 0 {
                    heap.push(Ready { time: 0.0, id: i });
                }
            }

            let mut resource_free: BTreeMap<Resource, f64> = BTreeMap::new();
            let mut op_spans = vec![(0.0, 0.0); n];
            let mut link_busy: BTreeMap<(GpuId, GpuId, LinkClass), f64> = BTreeMap::new();
            let mut link_bytes: BTreeMap<(GpuId, GpuId, LinkClass), u64> = BTreeMap::new();
            let mut total = 0.0f64;
            let mut done = 0usize;

            while !heap.is_empty() {
                let mut pulled: Vec<Ready> = Vec::with_capacity(CANDIDATES);
                while pulled.len() < CANDIDATES {
                    match heap.pop() {
                        Some(r) => pulled.push(r),
                        None => break,
                    }
                }
                let mut best_idx = 0usize;
                let mut best_start = f64::INFINITY;
                let mut best_key = usize::MAX;
                for (idx, cand) in pulled.iter().enumerate() {
                    let op = &ops[cand.id];
                    let resources = self.op_resources(&op.kind, op.stream)?;
                    let mut start = cand.time;
                    for r in &resources {
                        start = start.max(resource_free.get(r).copied().unwrap_or(0.0));
                    }
                    if start < best_start - 1e-9
                        || (start < best_start + 1e-9 && cand.id < best_key)
                    {
                        best_start = start;
                        best_idx = idx;
                        best_key = cand.id;
                    }
                }
                let chosen = pulled.swap_remove(best_idx);
                for other in pulled {
                    heap.push(other);
                }
                let Ready { time, id } = chosen;
                let op = &ops[id];
                let duration = self.op_duration(&op.kind)?;
                let resources = self.op_resources(&op.kind, op.stream)?;
                let mut start = time;
                for r in &resources {
                    start = start.max(resource_free.get(r).copied().unwrap_or(0.0));
                }
                let end = start + duration;
                for r in &resources {
                    resource_free.insert(*r, end);
                }
                op_spans[id] = (start, end);
                total = total.max(end);
                if let OpKind::Copy {
                    src, dst, class, ..
                } = op.kind
                {
                    *link_busy.entry((src, dst, class)).or_insert(0.0) += duration;
                    *link_bytes.entry((src, dst, class)).or_insert(0) += op.kind.payload_bytes();
                }
                done += 1;
                for &c in &children[id] {
                    ready_time[c] = ready_time[c].max(end);
                    indeg[c] -= 1;
                    if indeg[c] == 0 {
                        heap.push(Ready {
                            time: ready_time[c],
                            id: c,
                        });
                    }
                }
            }

            if done != n {
                return Err(SimError::InvalidProgram(
                    "dependency cycle: not every op became ready".to_string(),
                ));
            }

            Ok(RunReport {
                total_us: total,
                op_spans,
                link_busy_us: link_busy,
                link_bytes,
            })
        }
    }

    fn mb(n: u64) -> u64 {
        n * 1024 * 1024
    }

    #[test]
    fn single_copy_time_matches_bandwidth() {
        let topo = dgx1v();
        let sim = Simulator::with_defaults(topo);
        let mut b = ProgramBuilder::new();
        let s = b.new_stream();
        // GPU0 -> GPU3 is a doubled lane: 46 GB/s
        b.copy(
            GpuId(0),
            GpuId(3),
            mb(100),
            LinkClass::NvLink,
            s,
            vec![],
            "",
        );
        let report = sim.run(&b.build().unwrap()).unwrap();
        let expect = 100.0 * 1024.0 * 1024.0 / 46_000.0;
        assert!(
            (report.total_us - expect).abs() < 10.0,
            "total {}",
            report.total_us
        );
        assert!(report.algorithmic_bandwidth_gbps(mb(100)) > 44.0);
        assert_eq!(report.links_used(), 1);
    }

    #[test]
    fn missing_link_is_an_error() {
        let topo = dgx1v();
        let sim = Simulator::with_defaults(topo);
        let mut b = ProgramBuilder::new();
        let s = b.new_stream();
        // no NVLink between GPU 1 and GPU 4
        b.copy(GpuId(1), GpuId(4), 1024, LinkClass::NvLink, s, vec![], "");
        let err = sim.run(&b.build().unwrap()).unwrap_err();
        assert!(matches!(err, SimError::MissingLink { .. }));
    }

    #[test]
    fn same_stream_ops_serialize_and_different_streams_overlap() {
        let topo = dgx1v();
        let sim = Simulator::with_defaults(topo.clone());
        // same stream: two copies on different links still serialize
        // GPU0->GPU1 and GPU5->GPU7 are both single NVLink lanes (23 GB/s)
        let mut b = ProgramBuilder::new();
        let s = b.new_stream();
        b.copy(GpuId(0), GpuId(1), mb(50), LinkClass::NvLink, s, vec![], "");
        b.copy(GpuId(5), GpuId(7), mb(50), LinkClass::NvLink, s, vec![], "");
        let serial = sim.run(&b.build().unwrap()).unwrap().total_us;

        let mut b = ProgramBuilder::new();
        let s0 = b.new_stream();
        let s1 = b.new_stream();
        b.copy(
            GpuId(0),
            GpuId(1),
            mb(50),
            LinkClass::NvLink,
            s0,
            vec![],
            "",
        );
        b.copy(
            GpuId(5),
            GpuId(7),
            mb(50),
            LinkClass::NvLink,
            s1,
            vec![],
            "",
        );
        let parallel = sim.run(&b.build().unwrap()).unwrap().total_us;
        assert!(
            parallel < 0.6 * serial,
            "parallel {parallel} vs serial {serial}"
        );
    }

    #[test]
    fn shared_link_serializes_even_across_streams() {
        let topo = dgx1v();
        let sim = Simulator::with_defaults(topo);
        let mut b = ProgramBuilder::new();
        let s0 = b.new_stream();
        let s1 = b.new_stream();
        b.copy(
            GpuId(0),
            GpuId(1),
            mb(50),
            LinkClass::NvLink,
            s0,
            vec![],
            "",
        );
        b.copy(
            GpuId(0),
            GpuId(1),
            mb(50),
            LinkClass::NvLink,
            s1,
            vec![],
            "",
        );
        let report = sim.run(&b.build().unwrap()).unwrap();
        let one = 50.0 * 1024.0 * 1024.0 / 23_000.0;
        assert!(report.total_us > 1.9 * one, "total {}", report.total_us);
        assert!(report.link_utilization(GpuId(0), GpuId(1), LinkClass::NvLink) > 0.95);
    }

    #[test]
    fn dependencies_are_respected() {
        let topo = dgx1v();
        let sim = Simulator::with_defaults(topo);
        let mut b = ProgramBuilder::new();
        let s0 = b.new_stream();
        let s1 = b.new_stream();
        let first = b.copy(
            GpuId(0),
            GpuId(1),
            mb(10),
            LinkClass::NvLink,
            s0,
            vec![],
            "",
        );
        b.copy(
            GpuId(1),
            GpuId(3),
            mb(10),
            LinkClass::NvLink,
            s1,
            vec![first],
            "",
        );
        let report = sim.run(&b.build().unwrap()).unwrap();
        let (s_a, e_a) = report.op_spans[0];
        let (s_b, _) = report.op_spans[1];
        assert!(s_a < e_a);
        assert!(s_b >= e_a);
    }

    #[test]
    fn dgx2_egress_port_caps_aggregate_bandwidth() {
        // One GPU sending to 15 peers "simultaneously" is limited by its
        // injection capacity (138 GB/s), not 15 × 138.
        let topo = dgx2();
        let sim = Simulator::with_defaults(topo);
        let mut b = ProgramBuilder::new();
        let per_peer = mb(64);
        for dst in 1..16 {
            let s = b.new_stream();
            b.copy(
                GpuId(0),
                GpuId(dst),
                per_peer,
                LinkClass::NvLink,
                s,
                vec![],
                "",
            );
        }
        let report = sim.run(&b.build().unwrap()).unwrap();
        let total_bytes = per_peer * 15;
        let agg = report.algorithmic_bandwidth_gbps(total_bytes);
        assert!(agg < 140.0, "aggregate {agg} should be capped near 138");
        assert!(agg > 110.0, "aggregate {agg} should approach the port cap");
    }

    #[test]
    fn network_copies_share_the_server_nic() {
        let topo = multi_server(2, ServerKind::Dgx1V, 5.0);
        let sim = Simulator::with_defaults(topo);
        let mut b = ProgramBuilder::new();
        for (src, dst) in [(0usize, 8usize), (1, 9), (2, 10), (3, 11)] {
            let s = b.new_stream();
            b.copy(
                GpuId(src),
                GpuId(dst),
                mb(10),
                LinkClass::Network,
                s,
                vec![],
                "",
            );
        }
        let report = sim.run(&b.build().unwrap()).unwrap();
        // 40 MB over a shared 5 GB/s NIC ≈ 8.4 ms, not 2.1 ms
        let agg = report.algorithmic_bandwidth_gbps(mb(40));
        assert!(agg < 5.5, "aggregate {agg} must be bounded by the NIC");
    }

    #[test]
    fn peer_access_toggle_costs_scale_with_gpu_count() {
        let topo = dgx1v();
        let sim = Simulator::with_defaults(topo);
        let mut b = ProgramBuilder::new();
        let s = b.new_stream();
        b.toggle_peer_access(8, s, vec![], "dpa");
        let report = sim.run(&b.build().unwrap()).unwrap();
        let expect = 8.0 * sim.params().dpa_per_gpu_us;
        assert!((report.total_us - expect).abs() < 1e-6);
    }

    #[test]
    fn chunking_reduces_pipeline_latency() {
        // Figure 11: forwarding along a chain with chunking overlaps hops.
        let topo = dgx1v();
        let sim = Simulator::with_defaults(topo.clone());
        let chain = [GpuId(0), GpuId(1), GpuId(2), GpuId(3)];
        let total = mb(64);

        let build = |chunks: u64| {
            let mut b = ProgramBuilder::new();
            let per = total / chunks;
            let mut streams = Vec::new();
            for _ in 0..chain.len() - 1 {
                streams.push(b.new_stream());
            }
            for c in 0..chunks {
                let mut arrival = None;
                for hop in 0..chain.len() - 1 {
                    let deps = arrival.map(|a| vec![a]).unwrap_or_default();
                    let id = b.copy(
                        chain[hop],
                        chain[hop + 1],
                        per,
                        LinkClass::NvLink,
                        streams[hop],
                        deps,
                        format!("c{c}h{hop}"),
                    );
                    arrival = Some(id);
                }
            }
            b.build().unwrap()
        };

        let one_chunk = sim.run(&build(1)).unwrap().total_us;
        let many_chunks = sim.run(&build(16)).unwrap().total_us;
        // With chunking the slowest hop dominates instead of the sum of hops
        // (Figure 11); on this chain (23 + 46 + 46 GB/s hops) that is a ~45%
        // reduction.
        assert!(
            many_chunks < 0.62 * one_chunk,
            "chunked {many_chunks} vs monolithic {one_chunk}"
        );
    }

    #[test]
    fn empty_program_takes_no_time() {
        let topo = dgx1v();
        let sim = Simulator::with_defaults(topo);
        let report = sim.run(&ProgramBuilder::new().build().unwrap()).unwrap();
        assert_eq!(report.total_us, 0.0);
        assert_eq!(report.links_used(), 0);
        assert_eq!(report.algorithmic_bandwidth_gbps(1024), 0.0);
    }

    #[test]
    fn a_segmented_copy_times_the_summed_bytes_with_one_launch() {
        let topo = dgx1v();
        let sim = Simulator::with_defaults(topo);
        // one 3-segment copy over the 46 GB/s doubled lane...
        let mut b = ProgramBuilder::new();
        let s = b.new_stream();
        b.copy_segs(
            GpuId(0),
            GpuId(3),
            vec![
                Segment::new(0, mb(10)),
                Segment::new(mb(30), mb(10)),
                Segment::new(mb(90), mb(10)),
            ],
            LinkClass::NvLink,
            s,
            vec![],
            "seg",
        );
        let segged = sim.run(&b.build().unwrap()).unwrap().total_us;
        // ...vs one contiguous copy of the same total volume
        let mut b = ProgramBuilder::new();
        let s = b.new_stream();
        b.copy(GpuId(0), GpuId(3), mb(30), LinkClass::NvLink, s, vec![], "");
        let contiguous = sim.run(&b.build().unwrap()).unwrap().total_us;
        assert_eq!(
            segged.to_bits(),
            contiguous.to_bits(),
            "segment layout must not change the timing of equal volume"
        );
    }

    /// A program exercising every resource kind: NVLink copies with port
    /// caps, PCIe, cross-server network copies through NICs, reductions,
    /// compute kernels, peer-access toggles, segmented payloads, shared
    /// streams and cross-stream deps.
    fn mixed_program() -> (Topology, Program) {
        let topo = multi_server(2, ServerKind::Dgx1V, 5.0);
        let mut b = ProgramBuilder::new();
        let s0 = b.new_stream();
        let s1 = b.new_stream();
        let s2 = b.new_stream();
        let a = b.copy(
            GpuId(0),
            GpuId(1),
            mb(13),
            LinkClass::NvLink,
            s0,
            vec![],
            "a",
        );
        let r = b.reduce(GpuId(1), mb(13), s0, vec![a], "r");
        b.copy_segs(
            GpuId(1),
            GpuId(2),
            vec![Segment::new(0, mb(5)), Segment::new(mb(8), mb(5))],
            LinkClass::NvLink,
            s1,
            vec![r],
            "segs",
        );
        b.copy(
            GpuId(0),
            GpuId(8),
            mb(7),
            LinkClass::Network,
            s2,
            vec![],
            "net",
        );
        b.copy(
            GpuId(3),
            GpuId(0),
            mb(3),
            LinkClass::Pcie,
            s2,
            vec![],
            "pcie",
        );
        b.compute(GpuId(2), 42.0, s1, vec![], "k");
        b.toggle_peer_access(4, s0, vec![], "dpa");
        // a fan of independent copies inside the fully-connected quad
        // {0,1,2,3}, so the candidate scan has real packing work to do
        for i in 0..32usize {
            let s = b.new_stream();
            b.copy(
                GpuId(i % 4),
                GpuId((i + 1) % 4),
                mb(1) + i as u64,
                LinkClass::NvLink,
                s,
                vec![],
                format!("fan{i}"),
            );
        }
        (topo, b.build().unwrap())
    }

    fn assert_reports_bit_identical(a: &RunReport, b: &RunReport) {
        assert_eq!(a.total_us.to_bits(), b.total_us.to_bits());
        assert_eq!(a.op_spans.len(), b.op_spans.len());
        for (i, (x, y)) in a.op_spans.iter().zip(&b.op_spans).enumerate() {
            assert_eq!(x.0.to_bits(), y.0.to_bits(), "op {i} start");
            assert_eq!(x.1.to_bits(), y.1.to_bits(), "op {i} end");
        }
        assert_eq!(a.link_bytes, b.link_bytes);
        assert_eq!(
            a.link_busy_us.len(),
            b.link_busy_us.len(),
            "link busy key sets differ"
        );
        for ((ka, va), (kb, vb)) in a.link_busy_us.iter().zip(&b.link_busy_us) {
            assert_eq!(ka, kb);
            assert_eq!(va.to_bits(), vb.to_bits(), "busy time for {ka:?}");
        }
    }

    #[test]
    fn interned_fast_path_is_bit_identical_to_the_reference() {
        let (topo, program) = mixed_program();
        let sim = Simulator::with_defaults(topo);
        let reference = sim.run_reference(&program).unwrap();
        let fast = sim.run(&program).unwrap();
        assert_reports_bit_identical(&reference, &fast);
    }

    /// A seeded random program on two DGX-2 servers that keeps more than
    /// [`CANDIDATES`] ops ready at once, so the scan's candidate window
    /// truncates and pushes ready ops back: a wave of dependency-free copies
    /// on their own streams, then ops on shared streams with cross-stream
    /// deps mixing NVSwitch copies (port caps), PCIe copies, cross-server
    /// network copies (NICs), segmented copies, reductions and kernels.
    fn wide_random_program(seed: u64) -> (Topology, Program) {
        let topo = multi_server(2, ServerKind::Dgx2, 5.0);
        let mut state = seed;
        let mut next = move |bound: usize| -> usize {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let mut b = ProgramBuilder::new();
        let mut streams = Vec::new();
        let mut ops = Vec::new();
        for i in 0..2 * CANDIDATES {
            let s = b.new_stream();
            streams.push(s);
            let (src, dst) = (next(32), next(32));
            let dst = if dst == src { (dst + 1) % 32 } else { dst };
            let class = if src / 16 != dst / 16 {
                LinkClass::Network
            } else {
                LinkClass::NvLink
            };
            let bytes = mb(1) + next(4096) as u64;
            ops.push(b.copy(
                GpuId(src),
                GpuId(dst),
                bytes,
                class,
                s,
                vec![],
                format!("w{i}"),
            ));
        }
        for i in 0..2 * CANDIDATES {
            let s = streams[next(streams.len())];
            let deps: Vec<_> = (0..next(3)).map(|_| ops[next(ops.len())]).collect();
            let server = 16 * next(2);
            let (src, dst) = (server + next(16), server + next(16));
            let dst = if dst == src {
                server + (dst + 1) % 16
            } else {
                dst
            };
            let bytes = mb(1) + next(4096) as u64;
            let op = match next(6) {
                0 => b.copy(
                    GpuId(src),
                    GpuId(dst),
                    bytes,
                    LinkClass::NvLink,
                    s,
                    deps,
                    "",
                ),
                1 => b.copy(GpuId(src), GpuId(dst), bytes, LinkClass::Pcie, s, deps, ""),
                2 => b.copy(
                    GpuId(src),
                    GpuId((dst + 16) % 32),
                    bytes,
                    LinkClass::Network,
                    s,
                    deps,
                    "",
                ),
                3 => b.copy_segs(
                    GpuId(src),
                    GpuId(dst),
                    vec![Segment::new(0, bytes), Segment::new(2 * bytes, bytes)],
                    LinkClass::NvLink,
                    s,
                    deps,
                    "",
                ),
                4 => b.reduce(GpuId(src), bytes, s, deps, ""),
                _ => b.compute(GpuId(src), 5.0 + next(50) as f64, s, deps, format!("k{i}")),
            };
            ops.push(op);
        }
        (topo, b.build().unwrap())
    }

    #[test]
    fn engine_paths_agree_when_more_than_the_candidate_window_is_ready() {
        for seed in [0x9e37_79b9_7f4a_7c15u64, 0x2545_f491_4f6c_dd1d, 0xdead_beef] {
            let (topo, program) = wide_random_program(seed);
            assert!(program.len() >= 300);
            // ops with no deps that head their stream are all ready at t = 0
            let mut seen = std::collections::HashSet::new();
            let ready_at_start = program
                .ops()
                .iter()
                .filter(|op| seen.insert(op.stream) && op.deps.is_empty())
                .count();
            assert!(ready_at_start > CANDIDATES, "{ready_at_start} ready ops");

            let sim = Simulator::with_defaults(topo);
            let reference = sim.run_reference(&program).unwrap();
            let fast = sim
                .run_with_scratch(&program, &mut EngineScratch::new())
                .unwrap();
            assert_reports_bit_identical(&reference, &fast);
            let mut session = sim.session();
            session.admit(program, 0.0);
            let report = session.run().unwrap();
            let streamed = RunReport {
                total_us: report.total_us,
                op_spans: report.programs[0].op_spans.clone(),
                link_busy_us: report.link_busy_us,
                link_bytes: report.link_bytes,
            };
            assert_reports_bit_identical(&reference, &streamed);
        }
    }

    #[test]
    fn a_segmented_copy_charges_per_segment_overhead_when_calibrated() {
        let params = SimParams {
            per_segment_overhead_us: 0.5,
            ..SimParams::default()
        };
        let sim = Simulator::new(dgx1v(), params);
        let mut b = ProgramBuilder::new();
        let s = b.new_stream();
        b.copy_segs(
            GpuId(0),
            GpuId(3),
            vec![
                Segment::new(0, mb(10)),
                Segment::new(mb(30), mb(10)),
                Segment::new(mb(90), mb(10)),
            ],
            LinkClass::NvLink,
            s,
            vec![],
            "seg",
        );
        let prog = b.build().unwrap();
        let segged = sim.run(&prog).unwrap().total_us;
        let mut b = ProgramBuilder::new();
        let s = b.new_stream();
        b.copy(GpuId(0), GpuId(3), mb(30), LinkClass::NvLink, s, vec![], "");
        let contiguous = sim.run(&b.build().unwrap()).unwrap().total_us;
        // three ranges = two extra descriptors beyond the first
        assert!(
            (segged - (contiguous + 1.0)).abs() < 1e-9,
            "segged {segged} vs contiguous {contiguous}"
        );
        // the reference scheduler charges the identical duration
        let reference = sim.run_reference(&prog).unwrap().total_us;
        assert_eq!(segged.to_bits(), reference.to_bits());
    }

    #[test]
    fn a_single_program_session_is_bit_identical_to_the_single_program_path() {
        let (topo, program) = mixed_program();
        let sim = Simulator::with_defaults(topo);
        let single = sim.run(&program).unwrap();
        let mut session = sim.session();
        session.admit(program, 0.0);
        let report = session.run().unwrap();
        assert_eq!(report.programs.len(), 1);
        let prog = &report.programs[0];
        assert_eq!(report.total_us.to_bits(), single.total_us.to_bits());
        assert_eq!(prog.op_spans.len(), single.op_spans.len());
        for (i, (x, y)) in prog.op_spans.iter().zip(&single.op_spans).enumerate() {
            assert_eq!(x.0.to_bits(), y.0.to_bits(), "op {i} start");
            assert_eq!(x.1.to_bits(), y.1.to_bits(), "op {i} end");
        }
        assert_eq!(report.link_bytes, single.link_bytes);
        assert_eq!(prog.issue_us, 0.0);
        assert_eq!(prog.end_us.to_bits(), single.total_us.to_bits());
    }

    #[test]
    fn concurrent_programs_fifo_serialize_on_a_shared_link() {
        let sim = Simulator::with_defaults(dgx1v());
        let one_copy = || {
            let mut b = ProgramBuilder::new();
            let s = b.new_stream();
            b.copy(GpuId(0), GpuId(1), mb(50), LinkClass::NvLink, s, vec![], "");
            b.build().unwrap()
        };
        let alone = sim.run(&one_copy()).unwrap().total_us;
        let mut session = sim.session();
        session.admit(one_copy(), 0.0);
        session.admit(one_copy(), 0.0);
        let report = session.run().unwrap();
        // same directed link: the second program queues behind the first
        // (admission order breaks the tie), so the session takes ~2x
        assert!(
            report.total_us > 1.9 * alone,
            "total {} vs alone {alone}",
            report.total_us
        );
        let (a, b) = (&report.programs[0], &report.programs[1]);
        assert!(a.end_us <= b.start_us + 1e-9, "admission order broke");
        assert_eq!(a.queue_delay_us(), 0.0);
        assert!(b.queue_delay_us() > 0.9 * alone);
        // both programs' traffic lands on the one shared link
        assert_eq!(
            report.link_bytes[&(GpuId(0), GpuId(1), LinkClass::NvLink)],
            2 * mb(50)
        );
    }

    #[test]
    fn concurrent_programs_on_disjoint_links_overlap() {
        let sim = Simulator::with_defaults(dgx1v());
        let copy_between = |src: usize, dst: usize| {
            let mut b = ProgramBuilder::new();
            let s = b.new_stream();
            b.copy(
                GpuId(src),
                GpuId(dst),
                mb(50),
                LinkClass::NvLink,
                s,
                vec![],
                "",
            );
            b.build().unwrap()
        };
        let alone = sim.run(&copy_between(0, 1)).unwrap().total_us;
        let mut session = sim.session();
        session.admit(copy_between(0, 1), 0.0);
        session.admit(copy_between(5, 7), 0.0);
        let report = session.run().unwrap();
        assert!(
            report.total_us < 1.2 * alone,
            "disjoint programs must overlap: {} vs {alone}",
            report.total_us
        );
    }

    #[test]
    fn issue_timestamps_floor_program_starts() {
        let sim = Simulator::with_defaults(dgx1v());
        let mut b = ProgramBuilder::new();
        let s = b.new_stream();
        b.copy(GpuId(0), GpuId(1), mb(10), LinkClass::NvLink, s, vec![], "");
        let prog = b.build().unwrap();
        let alone = sim.run(&prog).unwrap().total_us;
        let mut session = sim.session();
        session.admit(prog, 1000.0);
        let report = session.run().unwrap();
        let p = &report.programs[0];
        assert_eq!(p.start_us, 1000.0);
        assert!((p.elapsed_us() - alone).abs() < 1e-9);
        assert!((report.total_us - (1000.0 + alone)).abs() < 1e-9);
    }

    #[test]
    fn bad_issue_timestamps_are_rejected() {
        let sim = Simulator::with_defaults(dgx1v());
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            let mut session = sim.session();
            session.admit(ProgramBuilder::new().build().unwrap(), bad);
            assert!(matches!(
                session.run().unwrap_err(),
                SimError::InvalidProgram(_)
            ));
        }
    }

    #[test]
    fn a_dirty_scratch_changes_nothing_for_sessions() {
        let (topo, multi_prog) = mixed_program();
        let sim = Simulator::with_defaults(topo);
        let mut scratch = EngineScratch::new();
        // dirty the scratch with single-program runs first
        sim.run_with_scratch(&multi_prog, &mut scratch).unwrap();
        let mut session = sim.session();
        session.admit(multi_prog.clone(), 0.0);
        session.admit(multi_prog, 7.5);
        let dirty = session.run_with_scratch(&mut scratch).unwrap();
        let fresh = session.run().unwrap();
        assert_eq!(dirty.total_us.to_bits(), fresh.total_us.to_bits());
        for (a, b) in dirty.programs.iter().zip(&fresh.programs) {
            assert_eq!(a.start_us.to_bits(), b.start_us.to_bits());
            assert_eq!(a.end_us.to_bits(), b.end_us.to_bits());
            for (x, y) in a.op_spans.iter().zip(&b.op_spans) {
                assert_eq!(x.0.to_bits(), y.0.to_bits());
                assert_eq!(x.1.to_bits(), y.1.to_bits());
            }
        }
    }

    #[test]
    fn a_dirty_scratch_changes_nothing() {
        // run three very different programs through ONE scratch and compare
        // each against a fresh-scratch run — buffers, not state
        let (multi_topo, multi_prog) = mixed_program();
        let mut small = ProgramBuilder::new();
        let s = small.new_stream();
        small.copy(GpuId(0), GpuId(1), mb(1), LinkClass::NvLink, s, vec![], "");
        let small_prog = small.build().unwrap();
        let empty_prog = ProgramBuilder::new().build().unwrap();

        let mut scratch = EngineScratch::new();
        let cases: Vec<(Simulator, Program)> = vec![
            (Simulator::with_defaults(multi_topo.clone()), multi_prog),
            (Simulator::with_defaults(dgx1v()), small_prog),
            (Simulator::with_defaults(dgx2()), empty_prog),
        ];
        for _ in 0..2 {
            for (sim, prog) in &cases {
                let dirty = sim.run_with_scratch(prog, &mut scratch).unwrap();
                let fresh = sim
                    .run_with_scratch(prog, &mut EngineScratch::new())
                    .unwrap();
                assert_reports_bit_identical(&dirty, &fresh);
            }
        }
    }
}
