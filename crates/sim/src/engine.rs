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
//! and a training loop replays the same few programs every step, so the
//! scheduler itself is a hot path. Execution is therefore split into a
//! **compile** step, a **splice** and a **zero-allocation scan**. Compiling
//! a program walks its flat arrays (each op's record, with its dependencies
//! and payload segments as contiguous runs of the program's two shared
//! arrays; see [`crate::program`]), resolves the resources that can delay
//! each op (its *binding resources*, below) to dense integer ids and lays
//! the per-op id lists out in one flat CSR buffer, precomputes each op's
//! duration, link id and payload bytes, finds each op's FIFO predecessor on
//! its stream, and builds the dependency children lists as a second CSR
//! with per-op in-degrees, read straight off the program's dependency
//! array. All of it is local to the program: op ids are the program's own, and
//! streams are the program's own. A run splices the compiled programs of its
//! entries into one set of tables, renumbering each program's ops after the
//! ops of the programs admitted before it, and then the K-candidate scan
//! (pick, among the K earliest-ready ops, the one that can *start* earliest
//! given current resource occupancy) runs entirely over flat `Vec` lookups
//! with no per-iteration allocation and no ordered-map walks.
//!
//! [`Simulator::run_with_scratch`] and [`Session::run_with_scratch`] compile
//! every program straight into the spliced tables held in an
//! [`EngineScratch`] that callers reuse across runs; the scan leaves each
//! op's span and each link's accounting there, and only a report copies
//! them out ([`Simulator::run_total`] returns the total time alone). A caller that runs one
//! program many times can keep its [`CompiledProgram`] instead
//! ([`Simulator::compile`], then [`Simulator::run_compiled`] or
//! [`Session::admit_compiled`]): a run then skips validating and resolving
//! the program, copies its tables into the splice, and, when it is the
//! run's only program, scans them in place.
//!
//! **Resource ids are fixed per [`Simulator`].** [`Simulator::new`] resolves
//! the topology's hardware once: every directed `(src, dst, class)` the
//! topology has links for gets a static id and its capacity (summed over
//! those links in [`Topology::links`] order), followed by one id per GPU for
//! its switch egress port, its switch ingress port and its compute engine
//! (GPUs in a dense local index, sized by the topology's GPU count), and one
//! id per server for its outgoing and its incoming NIC. A copy therefore
//! resolves its link, capacity and binding resources with one binary
//! search, and a kernel its compute engine with another.
//!
//! **Streams are not resources.** Each op depends on the op before it in
//! its stream (the FIFO predecessor, found at compile time through a `Vec`
//! indexed by the program's stream ids). Streams are namespaced per
//! program, so the predecessor is always an op of the same program. Streams
//! are never interned, so that table grows with the largest stream id a
//! program uses — [`ProgramBuilder`]'s `new_stream` hands them out densely
//! from 0. A run still bounds the stream slots of all its programs
//! together: program `p`'s slots follow those of every program admitted
//! before it, and slots past `u32::MAX` are [`SimError::InvalidProgram`].
//!
//! [`ProgramBuilder`]: crate::program::ProgramBuilder
//!
//! **Binding resources.** An op's start is the largest of its ready time
//! and the free times of the resources it holds, so a resource whose free
//! time can never exceed another term of that maximum is left out of the
//! op's list; the maximum, an exact `f64` selection, is unchanged bit for
//! bit. Two such resources exist:
//!
//! * *the op's stream.* Its free time is the end of the stream's last
//!   scheduled op, the FIFO predecessor, and the op's ready time is already
//!   at least every dependency's end;
//! * *a link that crosses a switch port or a NIC.* Every op over the link
//!   holds that port or NIC too and sets both free times to the same end,
//!   so the port's or NIC's free time is at least the link's at all times.
//!   A copy over such a link lists its ports or NICs only; a link that
//!   crosses neither binds on its own id.
//!
//! So a DGX-2 copy reads two free times (its egress and ingress ports), a
//! DGX-1V NVLink copy one (its link), a reduction or peer-access toggle
//! none. Both rules rest on free times never decreasing, which holds
//! because **every op duration is finite and non-negative**: compiling
//! checks each duration as it computes it, and a NaN, infinite or negative
//! one is [`SimError::InvalidProgram`]. A program's roots become ready at
//! its issue time plus `+0.0` when the scan admits the program (below), so
//! no time the scan compares is `-0.0` and `max` never has to choose
//! between two zeros. Per-link busy time and bytes are still accounted per
//! link, from the op's link id.
//!
//! The K candidates live in a **sorted window** beside the ready heap, in
//! the heap's pop order (ascending `(ready time, op id)`). Invariant: the
//! window holds the `min(K, ready)` lowest-ranked ready ops of the admitted
//! programs and every heap entry ranks after all of them. Scheduling an op
//! removes it from the window and refills the tail with one heap pop; a
//! newly-ready op is inserted in rank order when the window has room,
//! displaces the window's last op back to the heap when it ranks before it,
//! and otherwise goes to the heap. Each scheduled op therefore costs O(1)
//! heap operations instead of popping and re-pushing the whole window.
//!
//! **Programs are admitted lazily, exactly.** The eager algorithm makes
//! every root of every program ready at its issue time before the first
//! pick. A training step streams its gradient buckets as one session, and
//! there the queued buckets' roots would fill the window behind the running
//! bucket's ops: every op that became ready would evict one of them to the
//! heap and every pick pop one back, for candidates that never win. The
//! scan instead orders the programs by `(issue + 0.0, admission index)`,
//! which is the rank order of their roots (global op ids ascend with
//! admission index), and admits them along that order, each program's roots
//! going in through the same insert-or-evict path as a newly ready op:
//!
//! 1. before each pick, every pending program whose issue time is `<=` the
//!    ready time of the window's last op, or the next pending program while
//!    the window is empty;
//! 2. after the scan of a window with room, the next pending program when
//!    its issue time is below the best start plus the 1e-9 µs tie
//!    tolerance; the scan then continues over its roots.
//!
//! (A program is *admitted* when its roots enter the ready set;
//! [`Session::admit`] only queues it.) After rule 1 every pending root is
//! ready strictly later than every window op, so it ranks after all of
//! them; rule 2 keeps every pending root ranked after every window op,
//! since a program it admits precedes every later pending one in root
//! rank. So a full window is exactly the K lowest-ranked ready ops of the
//! whole session, the eager window. A window with room holds every admitted
//! ready op (the heap is empty), and the eager window is it followed by the
//! first pending roots in rank order; the eager scan reaches those only
//! while their ready time is below the best start plus the tolerance (the
//! early exit below), which is rule 2's test, so both scans examine the
//! same candidates in the same order. Every pick, span, tie-break and error
//! is therefore the eager algorithm's, bit for bit. Ordering the programs
//! sorts a buffer the scan keeps, so a run allocates nothing for it; a
//! one-program run skips the sort.
//!
//! The scan over the window **exits early, exactly**: no op starts before
//! it is ready, so once a candidate's ready time reaches the best start
//! found so far plus the 1e-9 µs tie tolerance, neither arm of the
//! selection rule can fire for it, so the best stays as it is, and — the
//! window ascending in ready time — for no later candidate either.
//! By the same bound the scan **skips, without reading its resources,**
//! every candidate ready at or after the best start minus the tolerance
//! whose op id is above the best's. Neither arm of the rule can fire for
//! it: beating the best needs a start below the best start minus the
//! tolerance, and its start is at least its ready time; winning the tie
//! needs a lower op id. The skip passes over that candidate alone: a later
//! one may be ready in time with a lower id, and still competes. So every
//! pick, span, tie-break and error stays the eager algorithm's, bit for
//! bit. A pairwise-exchange step readies all its copy heads at one instant
//! with free ports, so the lowest id takes the pick and the scan reads its
//! ports alone, not those of every head that could only tie it.
//! [`EngineScratch::scan_work`] counts the picks and the candidates read.
//!
//! The flat-path schedule is **bit-identical** to the direct implementation
//! (an allocating reference scheduler over ordered maps that pops K ready
//! ops, scans all of them and pushes the losers back, and derives each op's
//! resources and link capacity from the topology on its own, and readies
//! every root at its issue time from the start, kept in this module's tests
//! as the oracle they compare against): the resource table, the compiled
//! tables, the window, lazy admission, the early exit and the skip only
//! change how the candidates and a resource's free time are looked up,
//! never which ops are candidates, when an op can start, how long it runs,
//! or how ties are broken. The reference keeps every resource an op holds —
//! stream, link, ports, NICs — so it checks the binding-resource rule too.
//! Errors agree too, op by op: a copy without a link of its class fails with
//! [`SimError::MissingLink`] before an endpoint outside the topology is
//! reported as [`SimError::UnknownGpu`].
//!
//! # Compiled programs: what they read, and where they may run
//!
//! A [`CompiledProgram`] is a pure function of its program and of the
//! lookups its compile made in the simulator, and it records every one of
//! them, naming each GPU by its **dense index** (its position among the
//! simulator's GPU ids, ascending; [`Simulator::gpu_index`]) rather than by
//! id: each link id a copy resolved, with that link's endpoints by dense
//! index, class, summed capacity (bit for bit) and binding resources; the
//! largest dense index a reduction or kernel named; the compute engines'
//! base id; and the [`SimParams`] every duration was computed under. Its
//! tables hold no GPU id either, only resource ids, durations, bytes and
//! op ids.
//!
//! A form therefore fits ([`CompiledProgram::fits`]) every simulator whose
//! resource table agrees on what it read, and there it is the compile of
//! its program with each GPU renamed to that simulator's GPU of the same
//! dense index: that renamed program resolves every copy to the same link
//! id, capacity and binding resources, and every kernel to the same
//! compute engine, so its schedule is bit-identical, and the run's report
//! names the running simulator's links. One slice shape placed on two
//! servers is such a pair (its GPUs ascend on both), so a form compiled
//! for one server's job serves the same job shape on every other.
//!
//! The caller names the program a run executes
//! ([`Simulator::run_compiled`], [`Session::admit_compiled`]) and vouches
//! that the form is that program's up to such a renaming; the engine checks
//! only what the form read. A run uses the form where it fits, and
//! otherwise validates and compiles the caller's program into its scratch
//! as if no form had been given — never the form's own program, whose GPUs
//! may not exist on that simulator. The check costs what the form read, not
//! the size of the simulator's resource table, and a [`Simulator`] keeps no
//! digest of its table for it: every fleet job builds a simulator, and
//! most never run a stored form.
//!
//! Compiled forms never change an error. A form exists only for a program
//! that compiled; a run validates every entry that has no fitting form and
//! checks every entry's issue time, in admission order, before it resolves
//! any op;
//! then it compiles or splices entry by entry, checking the stream-slot
//! bound for stored forms too, so the first error a session reports is the
//! one it would report with no forms at all.
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
//!   resource table, so contending ops FIFO-serialise on every
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
//!   replaying it through a dirty scratch, or with any mix of compiled and
//!   plain entries — reproduces every span bit for bit.
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
//! compile and the splice rewrite every table entry the scan will read, and
//! the compile temporaries are rewritten per program), it grows to the
//! largest session seen and never shrinks, and it is `Send` (asserted at
//! compile time below) so pools can move scratches across threads — but
//! never share one mutably between concurrent runs. Its one tally,
//! [`EngineScratch::scan_work`], only counts work: no run reads it.
//!
//! One scratch may be threaded through runs over different programs *and
//! different simulators* in any order: the per-resource arrays are sized
//! from the running simulator's resource table on every run, so a scratch
//! last used on a 16-GPU DGX-2 serves a two-GPU slice unchanged, and the
//! other way round. That is what lets `blink-core` keep engine scratches in
//! one pool per process, next to the planning buffers, and hand whichever
//! is free to whichever communicator runs next, instead of each
//! communicator (or plan store) holding one.
//!
//! A [`CompiledProgram`] is not a buffer. It is immutable once compiled,
//! owned by whoever keeps it, `Send` and `Sync`, and independent of any
//! scratch: a run only reads it, so one form may serve any number of runs,
//! scratches and fitting simulators, concurrently.

use crate::params::SimParams;
use crate::program::{LinkClass, OpKind, OpRef, Program};
use blink_topology::{GpuId, GpuInfo, LinkKind, ServerId, Topology};
use std::borrow::Borrow;
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt;
use std::sync::Arc;

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
    /// The program failed validation, an issue timestamp or stream id is
    /// out of range, or an op's duration under the simulator's parameters
    /// is not finite and non-negative.
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
        algorithmic_bandwidth_gbps(logical_bytes, self.total_us)
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

/// Algorithmic bandwidth of moving `logical_bytes` in `total_us`, in GB/s:
/// what [`RunReport::algorithmic_bandwidth_gbps`] reports, for a caller that
/// kept only the total time ([`Simulator::run_total`]). 0 for a run that
/// took no time.
pub fn algorithmic_bandwidth_gbps(logical_bytes: u64, total_us: f64) -> f64 {
    if total_us <= 0.0 {
        return 0.0;
    }
    logical_bytes as f64 / (total_us * 1000.0)
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

/// The link class a topology link of `kind` serves.
fn link_class(kind: LinkKind) -> LinkClass {
    match kind {
        LinkKind::NvLinkGen1 | LinkKind::NvLinkGen2 | LinkKind::NvSwitch => LinkClass::NvLink,
        LinkKind::Pcie => LinkClass::Pcie,
        LinkKind::Network => LinkClass::Network,
    }
}

/// One directed `(src, dst, class)` of the topology: static link `i` of a
/// [`ResourceTable`] is also static resource id `i`.
#[derive(Debug, Clone)]
struct LinkResources {
    key: (GpuId, GpuId, LinkClass),
    /// Capacity of the class's links from `src` to `dst`, summed in
    /// [`Topology::links`] order.
    capacity_gbps: f64,
    /// The dense indices of `src` and `dst` (meaningless when `unknown`
    /// is set).
    ends: [u32; 2],
    /// The first endpoint (`src`, then `dst`) missing from the topology's
    /// GPU list; a copy over the link fails with it.
    unknown: Option<GpuId>,
    /// The resource ids that can delay a copy over the link (see "binding
    /// resources" in the module docs): the switch ports (NVLink class,
    /// capped GPUs) or the NICs (network class, servers with a NIC) it
    /// crosses, or the link itself when it crosses neither.
    res: [u32; 2],
    res_len: u8,
}

impl LinkResources {
    fn push(&mut self, id: u32) {
        self.res[self.res_len as usize] = id;
        self.res_len += 1;
    }

    fn resources(&self) -> &[u32] {
        &self.res[..self.res_len as usize]
    }

    /// Whether a copy over `other` compiles as over `self` once each GPU is
    /// renamed to the GPU at its dense index: the same endpoints by dense
    /// index, class, capacity bit for bit, and binding resources.
    fn same_as(&self, other: &LinkResources) -> bool {
        self.ends == other.ends
            && self.key.2 == other.key.2
            && self.capacity_gbps.to_bits() == other.capacity_gbps.to_bits()
            && self.unknown.is_some() == other.unknown.is_some()
            && self.resources() == other.resources()
    }
}

/// The hardware resources of one topology, resolved once in
/// [`Simulator::new`] (see "the interned-resource scheduling model" in the
/// module docs).
#[derive(Debug, Clone)]
struct ResourceTable {
    /// The topology's GPU ids, sorted and deduplicated: a GPU's dense local
    /// index is its position here.
    gpus: Vec<GpuId>,
    /// Every directed `(src, dst, class)` with at least one link, sorted by
    /// key.
    links: Vec<LinkResources>,
    /// GPU `i`'s compute engine is resource `compute_base + i`.
    compute_base: u32,
    /// Number of static resource ids.
    num_static: u32,
}

impl ResourceTable {
    /// The table of `topology`, in one pass over its GPUs and one sort of
    /// its links.
    ///
    /// The dense GPU order is the topology's GPU list itself when its ids
    /// ascend (every preset's and placement's do), and otherwise that list
    /// stably sorted by id with each id's first entry kept, as
    /// [`Topology::gpu`] finds it. Each GPU's switch-port cap and its
    /// server's NIC are read once, not once per link. The links' keys are
    /// sorted with an unstable sort whose ties go by position, so each key's
    /// capacity is summed in [`Topology::links`] order. The table is the one a stable sort of the
    /// links with per-link map reads builds, bit for bit (ids, summed
    /// capacities, binding resources and dense indices); the engine's
    /// tests keep that construction as the reference they pin this one to.
    fn new(topology: &Topology) -> Self {
        let listed = topology.gpus();
        let sorted: Vec<GpuInfo>;
        let gpus: &[GpuInfo] = if listed.windows(2).all(|w| w[0].id < w[1].id) {
            listed
        } else {
            let mut by_id = listed.to_vec();
            by_id.sort_by_key(|g| g.id);
            by_id.dedup_by_key(|g| g.id);
            sorted = by_id;
            &sorted
        };
        let index = |g: GpuId| {
            gpus.binary_search_by_key(&g, |e| e.id)
                .ok()
                .map(|i| i as u32)
        };
        let mut servers: Vec<ServerId> = listed.iter().map(|g| g.server).collect();
        servers.sort_unstable();
        servers.dedup();
        // per dense GPU: whether it has a switch-port cap, and its server's
        // NIC pair when the server has a NIC
        let ports: Vec<(bool, Option<u32>)> = gpus
            .iter()
            .map(|g| {
                let nic = topology
                    .server_nic(g.server)
                    .and_then(|_| servers.binary_search(&g.server).ok().map(|k| k as u32));
                (topology.gpu_cap(g.id).is_some(), nic)
            })
            .collect();

        let all = topology.links();
        // each link's key and position: sorted, ties go by position
        let mut keyed: Vec<((GpuId, GpuId, LinkClass), u32)> = all
            .iter()
            .enumerate()
            .map(|(i, l)| ((l.src, l.dst, link_class(l.kind)), i as u32))
            .collect();
        keyed.sort_unstable();
        let mut links: Vec<LinkResources> = Vec::with_capacity(all.len());
        for (key, i) in keyed {
            let capacity = all[i as usize].capacity_gbps();
            match links.last_mut() {
                Some(last) if last.key == key => last.capacity_gbps += capacity,
                _ => links.push(LinkResources {
                    key,
                    capacity_gbps: capacity,
                    ends: [0; 2],
                    unknown: None,
                    res: [0; 2],
                    res_len: 0,
                }),
            }
        }
        // static ids: links, then per GPU its egress port, ingress port and
        // compute engine, then per server its outgoing and incoming NIC
        let n = gpus.len() as u32;
        let egress = links.len() as u32;
        let (ingress, compute, nics) = (egress + n, egress + 2 * n, egress + 3 * n);
        for (id, link) in links.iter_mut().enumerate() {
            let (src, dst, class) = link.key;
            let (s, d) = match (index(src), index(dst)) {
                (Some(s), Some(d)) => (s, d),
                (None, _) => {
                    link.unknown = Some(src);
                    continue;
                }
                (_, None) => {
                    link.unknown = Some(dst);
                    continue;
                }
            };
            link.ends = [s, d];
            let (src_port, dst_port) = (ports[s as usize], ports[d as usize]);
            match class {
                LinkClass::NvLink => {
                    if src_port.0 {
                        link.push(egress + s);
                    }
                    if dst_port.0 {
                        link.push(ingress + d);
                    }
                }
                LinkClass::Network => {
                    if let Some(k) = src_port.1 {
                        link.push(nics + 2 * k);
                    }
                    if let Some(k) = dst_port.1 {
                        link.push(nics + 2 * k + 1);
                    }
                }
                LinkClass::Pcie => {}
            }
            // a port or NIC every op over the link holds dominates the link
            if link.res_len == 0 {
                link.push(id as u32);
            }
        }
        ResourceTable {
            gpus: gpus.iter().map(|g| g.id).collect(),
            links,
            compute_base: compute,
            num_static: nics + 2 * servers.len() as u32,
        }
    }

    /// The static id of the `(src, dst, class)` link, or
    /// [`SimError::MissingLink`] when the topology has none.
    fn link(&self, src: GpuId, dst: GpuId, class: LinkClass) -> Result<u32, SimError> {
        self.links
            .binary_search_by(|l| l.key.cmp(&(src, dst, class)))
            .map(|i| i as u32)
            .map_err(|_| SimError::MissingLink { src, dst, class })
    }

    /// `gpu`'s dense local index, or [`SimError::UnknownGpu`].
    fn gpu(&self, gpu: GpuId) -> Result<u32, SimError> {
        self.gpus
            .binary_search(&gpu)
            .map(|i| i as u32)
            .map_err(|_| SimError::UnknownGpu(gpu))
    }
}

/// A ready op: the time it became ready and its global op id. Ready ops are
/// ranked by ascending `(time, id)` ([`Ready::rank`]); the candidate window
/// is kept in that order, and the heap behind it pops in that order.
#[derive(Debug, Clone, PartialEq)]
struct Ready {
    time: f64,
    id: usize,
}
impl Ready {
    /// Scheduling rank: `Less` when `self` comes before `other`.
    fn rank(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.id.cmp(&other.id))
    }
}
impl Eq for Ready {}
impl Ord for Ready {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // reversed, so `BinaryHeap` (a max-heap) pops the lowest rank first
        other.rank(self)
    }
}
impl PartialOrd for Ready {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Among the ready operations, run the one that can actually *start* earliest
/// given current resource occupancy (ties broken by issue order). Only the K
/// earliest-ready ops of the whole session are candidates — the sorted
/// window described in the module docs, which never holds more than K, and
/// which lazy admission fills exactly as if every program's roots were
/// ready from its issue time on — so the scheduler stays near-linear. A
/// program that readies more than K ops at once is scheduled as if only its
/// K lowest-ranked ready ops existed: the 16x15 one-hop AllReduce on a
/// DGX-2, issued tree by tree, readied 240 copies at issue, and the window's
/// first 128 reached only 9 of the 16 ingress ports. A program should ready
/// few ops at a time; the one-hop lowering issues a pairwise exchange that
/// readies one copy per GPU.
const CANDIDATES: usize = 128;

/// Sentinel for "no op" (no link, no FIFO predecessor) in the compiled
/// tables.
const NONE: u32 = u32::MAX;

/// The per-op tables the scan reads, for one compiled program or for the
/// splice of a run's programs. Op `i`'s binding resource ids live at
/// `op_res[op_res_start[i]..op_res_start[i + 1]]` and its children at
/// `children[child_start[i]..child_start[i + 1]]`; both offset lists start
/// with a 0 and hold one more entry than there are ops.
#[derive(Debug, Clone)]
struct OpTables {
    op_res_start: Vec<u32>,
    op_res: Vec<u32>,
    /// Duration per op.
    durations: Vec<f64>,
    /// Static link id per op (`NONE` for non-copies), for the per-link
    /// busy/bytes accounting.
    op_link: Vec<u32>,
    /// Payload bytes per op (copies only; 0 otherwise).
    op_bytes: Vec<u64>,
    /// Children CSR: op -> the ops that depend on it, explicitly or as
    /// their FIFO predecessor.
    child_start: Vec<u32>,
    children: Vec<u32>,
    /// Dependency count per op: explicit deps plus the FIFO predecessor.
    indeg: Vec<u32>,
}

impl Default for OpTables {
    fn default() -> Self {
        OpTables {
            op_res_start: vec![0],
            op_res: Vec::new(),
            durations: Vec::new(),
            op_link: Vec::new(),
            op_bytes: Vec::new(),
            child_start: vec![0],
            children: Vec::new(),
            indeg: Vec::new(),
        }
    }
}

impl OpTables {
    /// Number of ops.
    fn len(&self) -> usize {
        self.durations.len()
    }

    /// Reserves room for `additional` more ops in every per-op table.
    fn reserve(&mut self, additional: usize) {
        self.op_res_start.reserve(additional);
        self.durations.reserve(additional);
        self.op_link.reserve(additional);
        self.op_bytes.reserve(additional);
        self.child_start.reserve(additional);
        self.indeg.reserve(additional);
    }

    /// Empties the tables, keeping their buffers.
    fn clear(&mut self) {
        for v in [&mut self.op_res_start, &mut self.child_start] {
            v.clear();
            v.push(0);
        }
        self.op_res.clear();
        self.durations.clear();
        self.op_link.clear();
        self.op_bytes.clear();
        self.children.clear();
        self.indeg.clear();
    }

    /// Appends `other`'s ops, numbered after the ops already here.
    fn splice(&mut self, other: &OpTables) {
        let ops = self.len() as u32;
        let res = self.op_res.len() as u32;
        let kids = self.children.len() as u32;
        self.op_res_start
            .extend(other.op_res_start[1..].iter().map(|&k| k + res));
        self.op_res.extend_from_slice(&other.op_res);
        self.durations.extend_from_slice(&other.durations);
        self.op_link.extend_from_slice(&other.op_link);
        self.op_bytes.extend_from_slice(&other.op_bytes);
        self.child_start
            .extend(other.child_start[1..].iter().map(|&k| k + kids));
        self.children
            .extend(other.children.iter().map(|&c| c + ops));
        self.indeg.extend_from_slice(&other.indeg);
    }
}

/// Per-program temporaries of a compile.
#[derive(Debug, Clone, Default)]
struct CompileTemps {
    /// Each op's FIFO predecessor, by the program's own op ids (`NONE` =
    /// none).
    extra_dep: Vec<u32>,
    /// The last op seen so far on each of the program's streams (`NONE` =
    /// none).
    last_in_stream: Vec<u32>,
    /// Next free children slot per op while the children CSR is filled.
    child_cursor: Vec<u32>,
}

/// The scan's per-run state.
#[derive(Debug, Clone, Default)]
struct ScanState {
    /// The first global op id of each entry, then the run's op count.
    op_base: Vec<usize>,
    /// Dependencies still unfinished per op (starts as the tables'
    /// in-degrees).
    indeg: Vec<u32>,
    ready_time: Vec<f64>,
    /// Free time per static resource id.
    resource_free: Vec<f64>,
    /// Each op's `(start, end)`, by global op id.
    op_spans: Vec<(f64, f64)>,
    /// Busy time, bytes and whether any op used it, per static link id.
    link_busy: Vec<f64>,
    link_bytes: Vec<u64>,
    link_used: Vec<bool>,
    /// The `min(CANDIDATES, ready)` lowest-ranked ready ops, ascending by
    /// [`Ready::rank`]; never longer than `CANDIDATES`.
    window: Vec<Ready>,
    /// Every other ready op; each ranks after every op in `window`.
    heap: BinaryHeap<Ready>,
    /// The run's entries as [`Simulator::schedule`] resolved them, in
    /// admission order until the scan sorts them into the order it admits
    /// programs in.
    pending: Vec<Pending>,
    /// How many of `pending` the scan has admitted.
    admitted: usize,
    /// Every scan's work so far; never reset.
    work: ScanWork,
}

/// The candidate scan's deterministic work, summed over every run a
/// scratch has scheduled ([`EngineScratch::scan_work`]). It depends only on
/// the runs' programs and issue times, never on the host.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanWork {
    /// Picks: ops scheduled.
    pub picks: u64,
    /// Window candidates whose binding resources a pick read (see "exits
    /// early, exactly" in the module docs for the ones it skips).
    pub examined: u64,
}

/// One entry of a run: its issue time plus `+0.0`, its admission index, and
/// whether it runs from a stored form that fits the simulator.
#[derive(Debug, Clone, Copy)]
struct Pending {
    issue: f64,
    entry: usize,
    fits: bool,
}

impl ScanState {
    /// Makes `r` ready: it goes into the window in rank order when the
    /// window has room, displaces the window's last op back to the heap
    /// when it ranks before it, and otherwise goes to the heap.
    fn make_ready(&mut self, r: Ready) {
        // the window has room only once the heap is empty
        if self.window.len() == CANDIDATES {
            if self.window[CANDIDATES - 1].rank(&r).is_lt() {
                self.heap.push(r);
                return;
            }
            // evict before inserting: the window never grows past
            // CANDIDATES
            if let Some(last) = self.window.pop() {
                self.heap.push(last);
            }
        }
        let at = self.window.partition_point(|w| w.rank(&r).is_lt());
        self.window.insert(at, r);
    }

    /// The issue time of the next program to admit, if any is left.
    fn next_issue(&self) -> Option<f64> {
        self.pending.get(self.admitted).map(|p| p.issue)
    }

    /// Admits the next pending program: its roots become ready at its
    /// issue time.
    fn admit_next(&mut self) {
        let Pending {
            issue: time, entry, ..
        } = self.pending[self.admitted];
        self.admitted += 1;
        for id in self.op_base[entry]..self.op_base[entry + 1] {
            if self.indeg[id] == 0 {
                self.make_ready(Ready { time, id });
            }
        }
    }
}

/// Reusable buffers for [`Simulator::run_with_scratch`] and
/// [`Session::run_with_scratch`]: the run's spliced op tables, the compile
/// temporaries, and the scan's flat free-time and link-accounting arrays,
/// candidate window and ready heap. The resource ids themselves come from
/// the [`Simulator`]'s table; the scratch only holds per-run state. See the
/// module docs for the scratch-reuse contract; a fresh scratch is
/// `Default`-constructible and the struct is `Clone` and `Send`.
#[derive(Debug, Clone, Default)]
pub struct EngineScratch {
    ops: OpTables,
    compile: CompileTemps,
    scan: ScanState,
}

impl EngineScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// The candidate scan's work over every run this scratch has
    /// scheduled. No report carries it, so no run's result depends on it.
    pub fn scan_work(&self) -> ScanWork {
        self.scan.work
    }
}

/// What a compile read from its simulator (see "compiled programs" in the
/// module docs). It names GPUs only by dense index.
#[derive(Debug, Clone)]
struct Reads {
    /// Every link id a copy resolved, ascending, with the link as read.
    links: Vec<(u32, LinkResources)>,
    /// One past the largest dense index of a GPU a reduction or kernel
    /// named; 0 when none did.
    gpus: u32,
    compute_base: u32,
    /// The bits of the [`SimParams`] every duration was computed under.
    params: [u64; 5],
}

/// A program compiled for the engine by [`Simulator::compile`]: its
/// per-op binding resources, durations, link ids and bytes and its
/// dependency CSR, together with every simulator lookup they came from,
/// GPUs named by dense index. [`Simulator::run_compiled`] and
/// [`Session::admit_compiled`] run it, skipping validation and resolution,
/// on any simulator it [fits](CompiledProgram::fits), and compile the
/// caller's program afresh on any other; see "compiled programs" in the
/// module docs.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    program: Arc<Program>,
    ops: OpTables,
    /// Stream slots the program spans: its largest stream id plus one.
    streams: usize,
    reads: Reads,
}

impl CompiledProgram {
    /// The program this form was compiled from.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// Whether every lookup the compile made agrees on `sim`, GPUs compared
    /// by dense index: then compiling on `sim` the form's program with each
    /// GPU renamed to `sim`'s GPU of the same dense index would produce this
    /// very form, and a run of that program on `sim` uses it as it is. On
    /// the simulator it was compiled on, and on any other with the same GPU
    /// ids, that renaming changes nothing.
    pub fn fits(&self, sim: &Simulator) -> bool {
        let (reads, table) = (&self.reads, &sim.resources);
        reads.compute_base == table.compute_base
            && reads.params == sim.params.to_bits()
            && reads.gpus as usize <= table.gpus.len()
            && reads.links.iter().all(|(id, link)| {
                table
                    .links
                    .get(*id as usize)
                    .is_some_and(|l| l.same_as(link))
            })
    }
}

// Compiled forms are shared across threads (a plan store hands one to
// whichever communicator hits its lowering).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CompiledProgram>();
};

/// The end of a program's stream slots when they follow `base` slots of
/// the programs before it, or [`SimError::InvalidProgram`] past `u32::MAX`.
fn stream_slots(base: usize, width: usize) -> Result<usize, SimError> {
    match base.checked_add(width) {
        Some(end) if end <= u32::MAX as usize => Ok(end),
        _ => Err(SimError::InvalidProgram(format!(
            "stream ids up to {} exceed the engine's u32 stream table",
            width - 1
        ))),
    }
}

/// When a program admitted at `issue` whose ops ran over `spans` started
/// and ended: its first op's start and its latest op end, or `issue` for an
/// empty program; the end is never before `issue`.
fn program_window(issue: f64, spans: &[(f64, f64)]) -> (f64, f64) {
    let (mut start, mut end) = (issue, issue);
    for (k, &(st, en)) in spans.iter().enumerate() {
        start = if k == 0 { st } else { start.min(st) };
        end = end.max(en);
    }
    (start, end)
}

/// A one-program session's report as a [`RunReport`].
fn single_program(mut session: SessionReport) -> RunReport {
    let prog = session
        .programs
        .pop()
        .expect("exactly one admitted program");
    RunReport {
        total_us: session.total_us,
        op_spans: prog.op_spans,
        link_busy_us: session.link_busy_us,
        link_bytes: session.link_bytes,
    }
}

// The engine mirrors rule 4 of blink-graph's scratch-reuse contract: a
// scratch must stay `Send` so per-worker pools can carry one into a thread.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<EngineScratch>();
};

/// Executes [`Program`]s against a [`Topology`] with given [`SimParams`].
///
/// A program that names only some GPUs runs the same, bit for bit, on a
/// simulator of the topology those GPUs induce as on one of the whole
/// machine: the induced topology keeps every link between them, with its
/// capacity, and every switch-port cap and NIC they reach. Only resource
/// numbers and dense GPU indices differ. `blink-core`'s communicators
/// therefore simulate their own slice, whose table is smaller to build.
#[derive(Debug, Clone)]
pub struct Simulator {
    /// Shared, so a caller that keeps the same topology for itself (a
    /// machine spanned whole, as a placement's is) holds one copy.
    topology: Arc<Topology>,
    params: SimParams,
    resources: ResourceTable,
}

impl Simulator {
    /// Creates a simulator for `topology` with `params`, resolving the
    /// topology's links, switch ports, NICs and compute engines to the
    /// static resource ids every run schedules over. `topology` may be
    /// owned or shared; a shared one is not copied.
    pub fn new(topology: impl Into<Arc<Topology>>, params: SimParams) -> Self {
        let topology = topology.into();
        let resources = ResourceTable::new(&topology);
        Simulator {
            topology,
            params,
            resources,
        }
    }

    /// Creates a simulator with default calibration parameters.
    pub fn with_defaults(topology: impl Into<Arc<Topology>>) -> Self {
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

    /// How long `op` runs. `bw` is a copy's link capacity (GB/s) between
    /// its endpoints in its class, and is ignored for every other kind.
    ///
    /// A duration must be finite and non-negative; anything else (a NaN or
    /// negative kernel, a calibration whose negative latency outweighs the
    /// transfer, a zero reduction bandwidth) is
    /// [`SimError::InvalidProgram`]. The binding-resource rule of the
    /// module docs depends on it.
    fn op_duration(&self, op: OpRef<'_>, bw: f64) -> Result<f64, SimError> {
        let p = &self.params;
        let duration = match op.kind {
            OpKind::Copy { src, dst, class } => {
                if bw <= 0.0 {
                    return Err(SimError::MissingLink { src, dst, class });
                }
                let latency = match class {
                    LinkClass::Network => p.network_latency_us,
                    _ => p.link_latency_us,
                };
                p.op_launch_overhead_us + latency + SimParams::transfer_us(op.payload_bytes(), bw)
            }
            OpKind::Reduce { .. } => p.reduce_us(op.payload_bytes()),
            OpKind::Compute { duration_us, .. } => p.op_launch_overhead_us + duration_us,
            OpKind::TogglePeerAccess { gpus } => f64::from(gpus) * p.dpa_per_gpu_us,
        };
        if !(duration.is_finite() && duration >= 0.0) {
            return Err(SimError::InvalidProgram(format!(
                "op {} would run for {duration} us; op durations must be finite and \
                 non-negative",
                op.id.0
            )));
        }
        Ok(duration)
    }

    /// Runs `program` and reports timings, allocating a fresh
    /// [`EngineScratch`] for the call. Loops that simulate many programs
    /// should hold a scratch and call [`Simulator::run_with_scratch`]
    /// instead.
    ///
    /// # Errors
    /// Fails if the program is structurally invalid, references GPUs outside
    /// the topology, copies over a link class that does not exist between
    /// the two endpoints, or has an op whose duration is NaN, infinite or
    /// negative (a bad kernel length or calibration).
    pub fn run(&self, program: &Program) -> Result<RunReport, SimError> {
        self.run_with_scratch(program, &mut EngineScratch::new())
    }

    /// Runs `program` over reusable `scratch` buffers: the program is
    /// compiled into the scratch and scanned with no per-iteration
    /// allocation. The returned report is bit-identical to the allocating
    /// reference scheduler the engine's tests keep as an oracle.
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
        self.run_entries(&[(program, 0.0)], &[None::<&CompiledProgram>], scratch)
            .map(single_program)
    }

    /// Compiles `program` for this simulator into a form that runs may keep
    /// and reuse (see "compiled programs" in the module docs). Loops that
    /// run a program once should call [`Simulator::run_with_scratch`]
    /// instead, which compiles into its scratch.
    ///
    /// # Errors
    /// Same conditions as [`Simulator::run`].
    pub fn compile(&self, program: impl Into<Arc<Program>>) -> Result<CompiledProgram, SimError> {
        let program = program.into();
        program
            .validate()
            .map_err(|e| SimError::InvalidProgram(e.to_string()))?;
        let mut ops = OpTables::default();
        let streams = self.compile_into(&program, 0, &mut ops, &mut CompileTemps::default())?;
        // every other table was reserved at its final length
        ops.op_res.shrink_to_fit();
        let table = &self.resources;
        // which link ids and GPU indices the compile looked up
        let (mut link_read, mut links) = (vec![false; table.links.len()], 0);
        for &l in &ops.op_link {
            if l != NONE && !link_read[l as usize] {
                link_read[l as usize] = true;
                links += 1;
            }
        }
        let mut gpus = 0;
        for op in program.ops() {
            if let OpKind::Reduce { gpu } | OpKind::Compute { gpu, .. } = op.kind {
                if let Ok(i) = table.gpu(gpu) {
                    gpus = gpus.max(i + 1);
                }
            }
        }
        let mut reads = Reads {
            links: Vec::with_capacity(links),
            gpus,
            compute_base: table.compute_base,
            params: self.params.to_bits(),
        };
        for (l, link) in table.links.iter().enumerate() {
            if link_read[l] {
                reads.links.push((l as u32, link.clone()));
            }
        }
        Ok(CompiledProgram {
            program,
            ops,
            streams,
            reads,
        })
    }

    /// Runs `program` as [`Simulator::run_with_scratch`] does, over
    /// `compiled`'s tables when the form [fits](CompiledProgram::fits) this
    /// simulator, and otherwise by compiling `program` into `scratch`.
    /// Either way the report is bit-identical to
    /// [`Simulator::run_with_scratch`] on `program`.
    ///
    /// `compiled` must be a form of `program` up to renaming by dense
    /// index: compiled from `program` itself, or from a program that
    /// `program` relabels GPU by GPU onto this simulator's GPU of the same
    /// dense index (the same slice shape on another server, say). The
    /// engine checks what the form read, not that relabelling; a fitting
    /// form reads nothing of `program` but its length, and a form that does
    /// not fit never runs its own program's GPUs here.
    ///
    /// # Errors
    /// Same conditions as [`Simulator::run`].
    pub fn run_compiled(
        &self,
        program: &Program,
        compiled: &CompiledProgram,
        scratch: &mut EngineScratch,
    ) -> Result<RunReport, SimError> {
        self.run_entries(&[(program, 0.0)], &[Some(compiled)], scratch)
            .map(single_program)
    }

    /// The total time, bit for bit, of the report [`Simulator::run_compiled`]
    /// makes for `program` and `compiled` — or, without a form,
    /// [`Simulator::run_with_scratch`] — and nothing else: the same
    /// schedule, without the per-link maps and per-op spans a report
    /// copies out, for callers that read only the makespan.
    ///
    /// # Errors
    /// Same conditions as [`Simulator::run`].
    pub fn run_total(
        &self,
        program: &Program,
        compiled: Option<&CompiledProgram>,
        scratch: &mut EngineScratch,
    ) -> Result<f64, SimError> {
        self.schedule(&[(program, 0.0)], &[compiled], scratch)
    }

    /// The dense index of `gpu`: its position among this simulator's GPU
    /// ids in ascending order, the index [`CompiledProgram::fits`] compares
    /// GPUs by.
    pub fn gpu_index(&self, gpu: GpuId) -> Option<usize> {
        self.resources.gpu(gpu).ok().map(|i| i as usize)
    }

    /// Appends `program`'s compiled ops to `out`, numbered after the ops
    /// already there: binding resources, durations, link ids and bytes, and
    /// the children CSR and in-degrees over explicit deps and FIFO
    /// predecessors. The program's stream slots follow `stream_base` slots
    /// of the programs before it; returns where they end. Does not
    /// validate the program.
    fn compile_into(
        &self,
        program: &Program,
        stream_base: usize,
        out: &mut OpTables,
        temps: &mut CompileTemps,
    ) -> Result<usize, SimError> {
        let t = &self.resources;
        let width = program
            .ops()
            .map(|op| op.stream.0.saturating_add(1))
            .max()
            .unwrap_or(0);
        let streams = stream_slots(stream_base, width)?;
        let (base, m) = (out.len(), program.len());
        out.reserve(m);
        // an op binds on at most two resources
        out.op_res.reserve(2 * m);
        temps.last_in_stream.clear();
        temps.last_in_stream.resize(width, NONE);
        temps.extra_dep.clear();
        temps.extra_dep.reserve(m);
        for (i, op) in program.ops().enumerate() {
            let (duration, link) = match op.kind {
                OpKind::Copy { src, dst, class } => {
                    let id = t.link(src, dst, class)?;
                    let link = &t.links[id as usize];
                    let duration = self.op_duration(op, link.capacity_gbps)?;
                    if let Some(gpu) = link.unknown {
                        return Err(SimError::UnknownGpu(gpu));
                    }
                    out.op_res.extend_from_slice(link.resources());
                    (duration, id)
                }
                OpKind::Reduce { gpu } => {
                    let duration = self.op_duration(op, 0.0)?;
                    t.gpu(gpu)?;
                    (duration, NONE)
                }
                OpKind::Compute { gpu, .. } => {
                    let duration = self.op_duration(op, 0.0)?;
                    out.op_res.push(t.compute_base + t.gpu(gpu)?);
                    (duration, NONE)
                }
                OpKind::TogglePeerAccess { .. } => (self.op_duration(op, 0.0)?, NONE),
            };
            out.op_res_start.push(out.op_res.len() as u32);
            out.durations.push(duration);
            out.op_link.push(link);
            out.op_bytes
                .push(if link == NONE { 0 } else { op.payload_bytes() });
            let last = &mut temps.last_in_stream[op.stream.0];
            temps.extra_dep.push(*last);
            *last = i as u32;
        }

        // children CSR: count op d's children at slot d + 1, prefix-sum on
        // from the children already in `out` so each slot holds its op's
        // end, then fill from each op's start
        let first = out.child_start.len();
        out.child_start.resize(first + m, 0);
        for (i, op) in program.ops().enumerate() {
            for &d in op.deps {
                out.child_start[first + d.0] += 1;
            }
            let prev = temps.extra_dep[i];
            if prev != NONE {
                out.child_start[first + prev as usize] += 1;
            }
            out.indeg
                .push(op.deps.len() as u32 + u32::from(prev != NONE));
        }
        for k in first..first + m {
            out.child_start[k] += out.child_start[k - 1];
        }
        out.children
            .resize(out.child_start[first + m - 1] as usize, 0);
        temps.child_cursor.clear();
        temps
            .child_cursor
            .extend_from_slice(&out.child_start[base..base + m]);
        for (i, op) in program.ops().enumerate() {
            let gi = (base + i) as u32;
            for &d in op.deps {
                let c = &mut temps.child_cursor[d.0];
                out.children[*c as usize] = gi;
                *c += 1;
            }
            let prev = temps.extra_dep[i];
            if prev != NONE {
                let c = &mut temps.child_cursor[prev as usize];
                out.children[*c as usize] = gi;
                *c += 1;
            }
        }
        Ok(streams)
    }

    /// The session core: schedules every op of every `(program, issue_us)`
    /// entry over the simulator's one resource table, running entry `i`
    /// from `stored[i]`, its compiled form, when it has one that fits, and
    /// reports the schedule. Single-program execution is the
    /// `entries.len() == 1`, `issue_us == 0.0` special case.
    fn run_entries<P: Borrow<Program>, C: Borrow<CompiledProgram>>(
        &self,
        entries: &[(P, f64)],
        stored: &[Option<C>],
        scratch: &mut EngineScratch,
    ) -> Result<SessionReport, SimError> {
        let total_us = self.schedule(entries, stored, scratch)?;
        Ok(self.report(entries, &scratch.scan, total_us))
    }

    /// [`Simulator::run_entries`] up to the report: schedules every entry,
    /// leaving each op's span and each link's accounting in the scan state,
    /// and returns the session's total time.
    fn schedule<P: Borrow<Program>, C: Borrow<CompiledProgram>>(
        &self,
        entries: &[(P, f64)],
        stored: &[Option<C>],
        scratch: &mut EngineScratch,
    ) -> Result<f64, SimError> {
        let EngineScratch { ops, compile, scan } = scratch;
        // every entry is validated and its issue time checked before any op
        // is resolved; a fitting form's program validated when it compiled
        scan.pending.clear();
        scan.pending.reserve(entries.len());
        for (i, (program, issue)) in entries.iter().enumerate() {
            let form = stored.get(i).and_then(Option::as_ref);
            let fits = form.is_some_and(|f| f.borrow().fits(self));
            if !fits {
                program
                    .borrow()
                    .validate()
                    .map_err(|e| SimError::InvalidProgram(e.to_string()))?;
            }
            if !issue.is_finite() || *issue < 0.0 {
                return Err(SimError::InvalidProgram(format!(
                    "issue timestamp {issue} must be finite and non-negative"
                )));
            }
            // +0.0 turns an issue of -0.0 into +0.0, so every time the scan
            // compares is >= +0.0 and `max` never meets two zeros; every
            // other op inherits `>= issue` through its deps
            scan.pending.push(Pending {
                issue: *issue + 0.0,
                entry: i,
                fits,
            });
        }
        let fitting = |i: usize| -> Option<&CompiledProgram> {
            let form = stored.get(i)?.as_ref().filter(|_| scan.pending[i].fits)?;
            Some(form.borrow())
        };
        // Global op id = op_base[entry] + local op id; the scan's tie-break
        // on global id is what makes admission order part of the
        // determinism contract.
        scan.op_base.clear();
        let alone = if entries.len() == 1 { fitting(0) } else { None };
        let tables = match alone {
            Some(compiled) => {
                scan.op_base.push(0);
                &compiled.ops
            }
            None => {
                ops.clear();
                ops.reserve(entries.iter().map(|(p, _)| p.borrow().len()).sum());
                let mut streams = 0;
                for (i, (program, _)) in entries.iter().enumerate() {
                    scan.op_base.push(ops.len());
                    streams = match fitting(i) {
                        Some(compiled) => {
                            let end = stream_slots(streams, compiled.streams)?;
                            ops.splice(&compiled.ops);
                            end
                        }
                        None => self.compile_into(program.borrow(), streams, ops, compile)?,
                    };
                }
                &*ops
            }
        };
        scan.op_base.push(tables.len());
        self.scan(tables, entries, scan)
    }

    /// The K-candidate scan over spliced `ops` and the entries `s.pending`
    /// holds in admission order (see the module docs): each op's
    /// `(start, end)` goes to `s.op_spans`, and the session's total time —
    /// the latest op end or issue time — is returned.
    fn scan<P>(
        &self,
        ops: &OpTables,
        entries: &[(P, f64)],
        s: &mut ScanState,
    ) -> Result<f64, SimError> {
        let t = &self.resources;
        let n = ops.len();
        s.indeg.clear();
        s.indeg.extend_from_slice(&ops.indeg);
        s.resource_free.clear();
        s.resource_free.resize(t.num_static as usize, 0.0);
        s.link_busy.clear();
        s.link_busy.resize(t.links.len(), 0.0);
        s.link_bytes.clear();
        s.link_bytes.resize(t.links.len(), 0);
        s.link_used.clear();
        s.link_used.resize(t.links.len(), false);
        s.ready_time.clear();
        s.ready_time.resize(n, 0.0);
        s.op_spans.clear();
        s.op_spans.resize(n, (0.0, 0.0));
        s.window.clear();
        s.heap.clear();
        // programs enter in root rank order (see "lazy admission" in the
        // module docs)
        if s.pending.len() > 1 {
            s.pending
                .sort_unstable_by(|a, b| a.issue.total_cmp(&b.issue).then(a.entry.cmp(&b.entry)));
        }
        s.admitted = 0;
        let mut total = 0.0f64;
        let mut done = 0usize;
        let mut examined = 0u64;

        // ---- the zero-allocation K-candidate scan over the window ----
        loop {
            // rule 1: no pending root may rank before the window's last op
            while let Some(issue) = s.next_issue() {
                if s.window.last().is_some_and(|last| issue > last.time) {
                    break;
                }
                s.admit_next();
            }
            if s.window.is_empty() {
                break;
            }
            let mut best_idx = 0usize;
            let mut best_start = f64::INFINITY;
            let mut best_key = usize::MAX;
            let mut from = 0;
            loop {
                for (idx, cand) in s.window.iter().enumerate().skip(from) {
                    // start >= cand.time, and the window ascends in time:
                    // from here on no candidate can pass either arm of the
                    // rule below
                    if cand.time >= best_start + 1e-9 {
                        break;
                    }
                    // start >= cand.time: neither beats the best nor wins
                    // its tie with a higher id
                    if cand.time >= best_start - 1e-9 && cand.id > best_key {
                        continue;
                    }
                    examined += 1;
                    let (lo, hi) = (
                        ops.op_res_start[cand.id] as usize,
                        ops.op_res_start[cand.id + 1] as usize,
                    );
                    let mut start = cand.time;
                    for &r in &ops.op_res[lo..hi] {
                        start = start.max(s.resource_free[r as usize]);
                    }
                    if start < best_start - 1e-9
                        || (start < best_start + 1e-9 && cand.id < best_key)
                    {
                        best_start = start;
                        best_idx = idx;
                        best_key = cand.id;
                    }
                }
                // rule 2: in a window with room, the eager scan would go on
                // into the next pending program's roots
                match s.next_issue() {
                    Some(issue) if s.window.len() < CANDIDATES && issue < best_start + 1e-9 => {
                        from = s.window.len();
                        s.admit_next();
                    }
                    _ => break,
                }
            }
            let Ready { time, id } = s.window.remove(best_idx);
            if let Some(next) = s.heap.pop() {
                s.window.push(next);
            }
            let duration = ops.durations[id];
            let (lo, hi) = (
                ops.op_res_start[id] as usize,
                ops.op_res_start[id + 1] as usize,
            );
            let mut start = time;
            for &r in &ops.op_res[lo..hi] {
                start = start.max(s.resource_free[r as usize]);
            }
            let end = start + duration;
            for &r in &ops.op_res[lo..hi] {
                s.resource_free[r as usize] = end;
            }
            s.op_spans[id] = (start, end);
            total = total.max(end);
            if ops.op_link[id] != NONE {
                let l = ops.op_link[id] as usize;
                s.link_busy[l] += duration;
                s.link_bytes[l] += ops.op_bytes[id];
                s.link_used[l] = true;
            }
            done += 1;
            let (clo, chi) = (
                ops.child_start[id] as usize,
                ops.child_start[id + 1] as usize,
            );
            for &c in &ops.children[clo..chi] {
                let c = c as usize;
                s.ready_time[c] = s.ready_time[c].max(end);
                s.indeg[c] -= 1;
                if s.indeg[c] == 0 {
                    s.make_ready(Ready {
                        time: s.ready_time[c],
                        id: c,
                    });
                }
            }
        }

        s.work.picks += done as u64;
        s.work.examined += examined;
        if done != n {
            return Err(SimError::InvalidProgram(
                "dependency cycle: not every op became ready".to_string(),
            ));
        }

        for (p_idx, (_, issue)) in entries.iter().enumerate() {
            let spans = &s.op_spans[s.op_base[p_idx]..s.op_base[p_idx + 1]];
            total = total.max(program_window(*issue, spans).1);
        }
        Ok(total)
    }

    /// The report of the schedule [`Simulator::schedule`] left in `s`,
    /// whose total time is `total_us`: only links some op used appear in
    /// its maps.
    fn report<P>(&self, entries: &[(P, f64)], s: &ScanState, total_us: f64) -> SessionReport {
        let mut link_busy = BTreeMap::new();
        let mut link_bytes = BTreeMap::new();
        for (l, link) in self.resources.links.iter().enumerate() {
            if s.link_used[l] {
                link_busy.insert(link.key, s.link_busy[l]);
                link_bytes.insert(link.key, s.link_bytes[l]);
            }
        }
        let programs = entries
            .iter()
            .enumerate()
            .map(|(p_idx, (_, issue))| {
                let spans = &s.op_spans[s.op_base[p_idx]..s.op_base[p_idx + 1]];
                let (start_us, end_us) = program_window(*issue, spans);
                ProgramSpan {
                    issue_us: *issue,
                    start_us,
                    end_us,
                    op_spans: spans.to_vec(),
                }
            })
            .collect();
        SessionReport {
            total_us,
            programs,
            link_busy_us: link_busy,
            link_bytes,
        }
    }

    /// Creates an empty streaming [`Session`] over this simulator. Admit
    /// programs with [`Session::admit`], then execute them all with
    /// [`Session::run`]; see the module docs for the
    /// admission/contention/determinism contract.
    pub fn session(&self) -> Session<'_> {
        Session {
            sim: self,
            entries: Vec::new(),
            compiled: Vec::new(),
        }
    }
}

/// A streaming execution session: multiple in-flight programs sharing one
/// simulated machine.
///
/// Admit each program with its issue timestamp, then [`Session::run`] (or
/// [`Session::run_with_scratch`] in hot loops) schedules every op of every
/// program over the simulator's one resource table, so concurrent programs
/// contend for links, ports, NICs and compute engines exactly like the
/// streams of a single program do. The module docs spell out the full
/// admission / link-sharing / determinism contract; the headline guarantees
/// are FIFO serialisation at op granularity on shared resources and spans
/// that are a pure function of the admitted `(program, issue)` pairs and
/// their admission order.
///
/// The session shares the programs it holds: admitting an `Arc<Program>`
/// (a lowering a caller memoises, say) or an `Arc<CompiledProgram>` clones
/// nothing.
#[derive(Debug, Clone)]
pub struct Session<'a> {
    sim: &'a Simulator,
    entries: Vec<(Arc<Program>, f64)>,
    /// Each entry's compiled form, when it was admitted with one.
    compiled: Vec<Option<Arc<CompiledProgram>>>,
}

impl Session<'_> {
    /// Admits `program` (owned or shared) into the session with issue
    /// timestamp `issue_us` (microseconds; must be finite and non-negative)
    /// and returns the program's index into [`SessionReport::programs`].
    pub fn admit(&mut self, program: impl Into<Arc<Program>>, issue_us: f64) -> usize {
        self.entries.push((program.into(), issue_us));
        self.compiled.push(None);
        self.entries.len() - 1
    }

    /// Admits `program` as [`Session::admit`] does, and runs it from
    /// `compiled` when the form [fits](CompiledProgram::fits) the session's
    /// simulator. `compiled` must be a form of `program` up to renaming by
    /// dense index, as for [`Simulator::run_compiled`]. The report is
    /// bit-identical either way.
    pub fn admit_compiled(
        &mut self,
        program: impl Into<Arc<Program>>,
        compiled: Arc<CompiledProgram>,
        issue_us: f64,
    ) -> usize {
        self.entries.push((program.into(), issue_us));
        self.compiled.push(Some(compiled));
        self.entries.len() - 1
    }

    /// Whether no program has been admitted yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The admitted `(program, issue_us)` entries, in admission order.
    pub fn programs(&self) -> &[(Arc<Program>, f64)] {
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
        self.sim.run_entries(&self.entries, &self.compiled, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{OpId, OpRef, ProgramBuilder, Segment, StreamId};
    use blink_topology::presets::{
        dgx1p, dgx1v, dgx2, multi_server, placement_topology, ServerKind,
    };
    use blink_topology::TopologyDelta;

    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Resource {
        Link(GpuId, GpuId, LinkClass),
        EgressPort(GpuId),
        IngressPort(GpuId),
        NicOut(ServerId),
        NicIn(ServerId),
        Compute(GpuId),
        Stream(StreamId),
    }

    /// The pre-interning scheduler, kept as the oracle the tests pin
    /// [`Simulator::run_with_scratch`] and [`Session`]s bit-identical
    /// against: list scheduling over ordered maps with per-candidate
    /// resource-list allocation, and the original candidate handling — pop
    /// the `CANDIDATES` earliest-ready ops off the heap, scan every one of
    /// them, push the losers back. It derives every op's resources and link
    /// capacity straight from the topology, independently of the
    /// simulator's resource table.
    impl Simulator {
        /// Capacity of the `class` links from `src` to `dst`, by a scan of
        /// every topology link.
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

        fn reference_duration(&self, op: OpRef<'_>) -> Result<f64, SimError> {
            let bw = match op.kind {
                OpKind::Copy { src, dst, class } => self.link_capacity(src, dst, class),
                _ => 0.0,
            };
            self.op_duration(op, bw)
        }

        /// Which hardware resources an op occupies, from the topology's
        /// queries.
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
                    f(Resource::Link(src, dst, class));
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

        fn op_resources(&self, kind: &OpKind, stream: StreamId) -> Result<Vec<Resource>, SimError> {
            let mut res = Vec::new();
            self.for_each_resource(kind, stream, |r| res.push(r))?;
            Ok(res)
        }

        /// One program issued at `t = 0`, reported like [`Simulator::run`].
        fn run_reference(&self, program: &Program) -> Result<RunReport, SimError> {
            let mut session = self.run_reference_session(&[(program, 0.0)])?;
            let prog = session.programs.pop().expect("one admitted program");
            Ok(RunReport {
                total_us: session.total_us,
                op_spans: prog.op_spans,
                link_busy_us: session.link_busy_us,
                link_bytes: session.link_bytes,
            })
        }

        /// `(program, issue_us)` entries in admission order: streams are
        /// namespaced per program, roots become ready at their program's
        /// issue time, and ties break on the global op id (admission order,
        /// then op id).
        fn run_reference_session(
            &self,
            entries: &[(&Program, f64)],
        ) -> Result<SessionReport, SimError> {
            // the global op list: (program index, op)
            let mut ops: Vec<(usize, OpRef<'_>)> = Vec::new();
            let mut base = Vec::with_capacity(entries.len());
            for (p, (program, issue)) in entries.iter().enumerate() {
                program
                    .validate()
                    .map_err(|e| SimError::InvalidProgram(e.to_string()))?;
                if !issue.is_finite() || *issue < 0.0 {
                    return Err(SimError::InvalidProgram(format!("issue {issue}")));
                }
                base.push(ops.len());
                ops.extend(program.ops().map(|op| (p, op)));
            }
            let n = ops.len();

            // one stream namespace per (program, stream), then the implicit
            // same-stream FIFO dependencies
            let mut namespaces: BTreeMap<(usize, StreamId), StreamId> = BTreeMap::new();
            let mut stream_of = Vec::with_capacity(n);
            for &(p, op) in &ops {
                let fresh = StreamId(namespaces.len());
                stream_of.push(*namespaces.entry((p, op.stream)).or_insert(fresh));
            }
            // errors surface per op, in op order: a copy's missing link
            // before an unknown endpoint
            let mut durations = Vec::with_capacity(n);
            for (&(_, op), &stream) in ops.iter().zip(&stream_of) {
                durations.push(self.reference_duration(op)?);
                self.op_resources(&op.kind, stream)?;
            }
            let mut extra_dep: Vec<Option<usize>> = vec![None; n];
            let mut last_in_stream: BTreeMap<StreamId, usize> = BTreeMap::new();
            for (i, &stream) in stream_of.iter().enumerate() {
                if let Some(&prev) = last_in_stream.get(&stream) {
                    extra_dep[i] = Some(prev);
                }
                last_in_stream.insert(stream, i);
            }

            // dependency bookkeeping
            let mut indeg = vec![0usize; n];
            let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
            for (i, &(p, op)) in ops.iter().enumerate() {
                for &d in op.deps {
                    indeg[i] += 1;
                    children[base[p] + d.0].push(i);
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
                    let issue = entries[ops[i].0].1;
                    heap.push(Ready { time: issue, id: i });
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
                    let op = ops[cand.id].1;
                    let resources = self.op_resources(&op.kind, stream_of[cand.id])?;
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
                let op = ops[id].1;
                let duration = durations[id];
                let resources = self.op_resources(&op.kind, stream_of[id])?;
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
                if let OpKind::Copy { src, dst, class } = op.kind {
                    *link_busy.entry((src, dst, class)).or_insert(0.0) += duration;
                    *link_bytes.entry((src, dst, class)).or_insert(0) += op.payload_bytes();
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

            let mut programs = Vec::with_capacity(entries.len());
            for (p, &(program, issue)) in entries.iter().enumerate() {
                let spans = op_spans[base[p]..base[p] + program.len()].to_vec();
                let start = spans.iter().map(|s| s.0).reduce(f64::min);
                let end = spans.iter().map(|s| s.1).fold(issue, f64::max);
                total = total.max(end);
                programs.push(ProgramSpan {
                    issue_us: issue,
                    start_us: start.unwrap_or(issue),
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
        b.copy(GpuId(0), GpuId(3), mb(100), LinkClass::NvLink, s, &[], "");
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
        b.copy(GpuId(1), GpuId(4), 1024, LinkClass::NvLink, s, &[], "");
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
        b.copy(GpuId(0), GpuId(1), mb(50), LinkClass::NvLink, s, &[], "");
        b.copy(GpuId(5), GpuId(7), mb(50), LinkClass::NvLink, s, &[], "");
        let serial = sim.run(&b.build().unwrap()).unwrap().total_us;

        let mut b = ProgramBuilder::new();
        let s0 = b.new_stream();
        let s1 = b.new_stream();
        b.copy(GpuId(0), GpuId(1), mb(50), LinkClass::NvLink, s0, &[], "");
        b.copy(GpuId(5), GpuId(7), mb(50), LinkClass::NvLink, s1, &[], "");
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
        b.copy(GpuId(0), GpuId(1), mb(50), LinkClass::NvLink, s0, &[], "");
        b.copy(GpuId(0), GpuId(1), mb(50), LinkClass::NvLink, s1, &[], "");
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
        let first = b.copy(GpuId(0), GpuId(1), mb(10), LinkClass::NvLink, s0, &[], "");
        b.copy(
            GpuId(1),
            GpuId(3),
            mb(10),
            LinkClass::NvLink,
            s1,
            &[first],
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
                &[],
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
                &[],
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
        b.toggle_peer_access(8, s, &[], "dpa");
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
                    let id = b.copy(
                        chain[hop],
                        chain[hop + 1],
                        per,
                        LinkClass::NvLink,
                        streams[hop],
                        arrival.as_slice(),
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
            &[
                Segment::new(0, mb(10)),
                Segment::new(mb(30), mb(10)),
                Segment::new(mb(90), mb(10)),
            ],
            LinkClass::NvLink,
            s,
            &[],
            "seg",
        );
        let segged = sim.run(&b.build().unwrap()).unwrap().total_us;
        // ...vs one contiguous copy of the same total volume
        let mut b = ProgramBuilder::new();
        let s = b.new_stream();
        b.copy(GpuId(0), GpuId(3), mb(30), LinkClass::NvLink, s, &[], "");
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
        let a = b.copy(GpuId(0), GpuId(1), mb(13), LinkClass::NvLink, s0, &[], "a");
        let r = b.reduce(GpuId(1), mb(13), s0, &[a], "r");
        b.copy_segs(
            GpuId(1),
            GpuId(2),
            &[Segment::new(0, mb(5)), Segment::new(mb(8), mb(5))],
            LinkClass::NvLink,
            s1,
            &[r],
            "segs",
        );
        b.copy(
            GpuId(0),
            GpuId(8),
            mb(7),
            LinkClass::Network,
            s2,
            &[],
            "net",
        );
        b.copy(GpuId(3), GpuId(0), mb(3), LinkClass::Pcie, s2, &[], "pcie");
        b.compute(GpuId(2), 42.0, s1, &[], "k");
        b.toggle_peer_access(4, s0, &[], "dpa");
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
                &[],
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

    /// A seeded random program on two DGX-2 servers: a wave of `width`
    /// dependency-free copies on their own streams (all ready at issue, so
    /// a width above [`CANDIDATES`] overfills the scan's candidate window),
    /// then `width` ops on shared streams with cross-stream deps mixing
    /// NVSwitch copies (port caps), PCIe copies, cross-server network
    /// copies (NICs), segmented copies, reductions and kernels.
    fn wide_random_program(seed: u64, width: usize) -> (Topology, Program) {
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
        for i in 0..width {
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
                &[],
                format!("w{i}"),
            ));
        }
        for i in 0..width {
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
                    &deps,
                    "",
                ),
                1 => b.copy(GpuId(src), GpuId(dst), bytes, LinkClass::Pcie, s, &deps, ""),
                2 => b.copy(
                    GpuId(src),
                    GpuId((dst + 16) % 32),
                    bytes,
                    LinkClass::Network,
                    s,
                    &deps,
                    "",
                ),
                3 => b.copy_segs(
                    GpuId(src),
                    GpuId(dst),
                    &[Segment::new(0, bytes), Segment::new(2 * bytes, bytes)],
                    LinkClass::NvLink,
                    s,
                    &deps,
                    "",
                ),
                4 => b.reduce(GpuId(src), bytes, s, &deps, ""),
                _ => b.compute(GpuId(src), 5.0 + next(50) as f64, s, &deps, format!("k{i}")),
            };
            ops.push(op);
        }
        (topo, b.build().unwrap())
    }

    /// Ops with no deps that head their stream: ready at the issue time.
    fn roots(program: &Program) -> usize {
        let mut seen = std::collections::HashSet::new();
        program
            .ops()
            .filter(|op| seen.insert(op.stream) && op.deps.is_empty())
            .count()
    }

    fn assert_sessions_bit_identical(a: &SessionReport, b: &SessionReport) {
        assert_eq!(a.programs.len(), b.programs.len());
        for (i, (x, y)) in a.programs.iter().zip(&b.programs).enumerate() {
            assert_eq!(x.issue_us.to_bits(), y.issue_us.to_bits(), "program {i}");
            assert_eq!(x.start_us.to_bits(), y.start_us.to_bits(), "program {i}");
            assert_eq!(x.end_us.to_bits(), y.end_us.to_bits(), "program {i}");
        }
        let flat = |r: &SessionReport| RunReport {
            total_us: r.total_us,
            op_spans: r.programs.iter().flat_map(|p| p.op_spans.clone()).collect(),
            link_busy_us: r.link_busy_us.clone(),
            link_bytes: r.link_bytes.clone(),
        };
        assert_reports_bit_identical(&flat(a), &flat(b));
    }

    #[test]
    fn engine_paths_agree_when_more_than_the_candidate_window_is_ready() {
        for seed in [0x9e37_79b9_7f4a_7c15u64, 0x2545_f491_4f6c_dd1d, 0xdead_beef] {
            let (topo, program) = wide_random_program(seed, 2 * CANDIDATES);
            assert!(program.len() >= 300);
            let ready_at_start = roots(&program);
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

    /// The pairwise exchange a one-hop lowering issues for a rootless
    /// collective over the 16 GPUs of a DGX-2, `chunks` chunks of 4 MiB
    /// per tree (see `blink_core::onehop`): every GPU's copies on one
    /// stream and its reductions on another. Stage `k` runs chunk `k`'s
    /// copies toward the roots, then a chunk's copies back out from every
    /// root, chunk `k` for AllGather and, one stage after its reduction,
    /// chunk `k − 1` for AllReduce; each half runs by shift
    /// `s = (src − dst) mod 16`. A ReduceScatter over even shards keeps
    /// each reduced chunk at its root.
    fn pairwise_program(kind: &str, chunks: usize) -> Program {
        let (n, chunk) = (16, mb(4));
        let (reduces, back_out) = match kind {
            "allreduce" => (true, true),
            "allgather" => (false, true),
            _ => (true, false),
        };
        let lag = usize::from(reduces);
        let mut b = ProgramBuilder::new();
        let copies: Vec<StreamId> = (0..n).map(|_| b.new_stream()).collect();
        let reductions: Vec<StreamId> = (0..n).map(|_| b.new_stream()).collect();
        // per chunk and root: the copies that reached it, then what its
        // copies back out wait for
        let mut waits = vec![vec![Vec::new(); n]; chunks];
        let mut segs = Vec::new();
        let offset = |root: usize, k: usize| (root * chunks + k) as u64 * chunk;
        // an AllGather root forwards every GPU's slot
        let slots = if reduces { 1 } else { n as u64 };
        for stage in 0..chunks + lag {
            // the chunk this stage reduces and sends back out
            let back = stage.checked_sub(lag);
            for k in back.into_iter().filter(|_| reduces) {
                for (r, wait) in waits[k].iter_mut().enumerate() {
                    let fold =
                        b.reduce_range(GpuId(r), offset(r, k), chunk, reductions[r], wait, "");
                    *wait = vec![fold];
                }
            }
            for s in (1..n).filter(|_| stage < chunks) {
                for (g, &stream) in copies.iter().enumerate() {
                    let r = (g + n - s) % n;
                    let (src, dst) = (GpuId(g), GpuId(r));
                    let at = offset(r, stage);
                    let id = b.copy_range(src, dst, at, chunk, LinkClass::NvLink, stream, &[], "");
                    waits[stage][r].push(id);
                }
            }
            for k in back.into_iter().filter(|_| back_out) {
                for s in 1..n {
                    for r in 0..n {
                        segs.clear();
                        segs.extend(
                            (0..slots).map(|i| Segment::new(i * mb(1024) + offset(r, k), chunk)),
                        );
                        let (src, dst) = (GpuId(r), GpuId((r + n - s) % n));
                        let copy = OpKind::Copy {
                            src,
                            dst,
                            class: LinkClass::NvLink,
                        };
                        b.push(copy, &segs, copies[r], &waits[k][r], "");
                    }
                }
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn engine_paths_agree_on_the_pairwise_one_hop_exchange() {
        let sim = Simulator::with_defaults(dgx2());
        for kind in ["allreduce", "allgather", "reducescatter"] {
            for chunks in [1, 4] {
                let program = pairwise_program(kind, chunks);
                // one ready copy per GPU at issue, a fraction of the window
                assert_eq!(roots(&program), 16, "{kind}");
                let reference = sim.run_reference(&program).unwrap();
                let fast = sim
                    .run_with_scratch(&program, &mut EngineScratch::new())
                    .unwrap();
                assert_reports_bit_identical(&reference, &fast);
                let form = sim.compile(Arc::new(program.clone())).unwrap();
                let compiled = sim
                    .run_compiled(&program, &form, &mut EngineScratch::new())
                    .unwrap();
                assert_reports_bit_identical(&reference, &compiled);
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
    }

    #[test]
    fn staggered_sessions_agree_with_the_reference_when_more_than_the_window_is_ready() {
        // The programs' roots together outnumber CANDIDATES, so admitted
        // roots overflow the window and ops that become ready mid-run must
        // displace later-issued roots from it. Two programs share an issue
        // time, so admission order breaks their ties.
        let issues = [0.0, 40.0, 40.0, 250.5];
        for seed in [0x51_7cc1_b727_220a_u64, 0x94d0_49bb_1331_11eb] {
            let mut topo = None;
            let mut programs = Vec::new();
            for k in 0..issues.len() {
                let (t, p) = wide_random_program(seed + k as u64, CANDIDATES / 2);
                topo = Some(t);
                programs.push(p);
            }
            let ready: usize = programs.iter().map(roots).sum();
            assert!(ready > CANDIDATES, "{ready} ready ops");

            let sim = Simulator::with_defaults(topo.unwrap());
            let entries: Vec<(&Program, f64)> = programs.iter().zip(issues).collect();
            let reference = sim.run_reference_session(&entries).unwrap();
            let mut session = sim.session();
            for (program, issue) in programs.clone().into_iter().zip(issues) {
                session.admit(program, issue);
            }
            let fast = session.run_with_scratch(&mut EngineScratch::new()).unwrap();
            assert_sessions_bit_identical(&reference, &fast);
            // later issues really wait: no program starts before its issue
            for (span, issue) in fast.programs.iter().zip(issues) {
                assert!(span.start_us >= issue);
            }
            // the session holds its programs in admission order
            let held = session.programs();
            assert!(held.iter().map(|(p, _)| &**p).eq(&programs));
            assert!(held.iter().map(|(_, t)| *t).eq(issues));
        }
    }

    #[test]
    fn a_candidate_ready_exactly_at_the_best_start_still_competes() {
        // X and Y (program B, issued at 0) share GPU0->GPU1 on two streams;
        // Z (program A, admitted first so its op id is lowest) uses the same
        // link and is issued exactly when X finishes. After X, Y can start at
        // d and Z, ready at d, can too: the tie goes to Z's lower id, which
        // the scan only sees if it keeps candidates ready within the 1e-9
        // tolerance of the best start.
        let sim = Simulator::with_defaults(dgx1v());
        let copies = |n: usize| {
            let mut b = ProgramBuilder::new();
            for _ in 0..n {
                let s = b.new_stream();
                b.copy(GpuId(0), GpuId(1), mb(1), LinkClass::NvLink, s, &[], "");
            }
            b.build().unwrap()
        };
        let d = sim.run(&copies(1)).unwrap().total_us;
        let (a, b) = (copies(1), copies(2));
        let reference = sim.run_reference_session(&[(&a, d), (&b, 0.0)]).unwrap();
        let mut session = sim.session();
        session.admit(a, d);
        session.admit(b, 0.0);
        let fast = session.run().unwrap();
        assert_sessions_bit_identical(&reference, &fast);
        assert_eq!(fast.programs[0].start_us.to_bits(), d.to_bits());
        assert_eq!(fast.programs[1].op_spans[1].0.to_bits(), (d + d).to_bits());
    }

    #[test]
    fn a_lower_id_ready_just_inside_the_tie_tolerance_still_takes_the_pick() {
        // B (issued at 0) readies X (GPU0->GPU1) and Y (GPU4->GPU5); A,
        // admitted first so its op id is lowest, readies Z (GPU0->GPU1) at
        // 5e-10, strictly inside the tie tolerance of X's start 0. Y ties
        // X at a higher id, so the first pick skips it; Z comes after both
        // in the window but has the lowest id, so it takes the pick and X
        // waits for the link.
        let sim = Simulator::with_defaults(dgx1v());
        let copies = |pairs: &[(usize, usize)]| {
            let mut b = ProgramBuilder::new();
            for &(src, dst) in pairs {
                let s = b.new_stream();
                b.copy(GpuId(src), GpuId(dst), mb(1), LinkClass::NvLink, s, &[], "");
            }
            b.build().unwrap()
        };
        let (a, b) = (copies(&[(0, 1)]), copies(&[(0, 1), (4, 5)]));
        let near = 5e-10;
        let reference = sim.run_reference_session(&[(&a, near), (&b, 0.0)]).unwrap();
        let mut session = sim.session();
        session.admit(a, near);
        session.admit(b, 0.0);
        let mut scratch = EngineScratch::new();
        let fast = session.run_with_scratch(&mut scratch).unwrap();
        assert_sessions_bit_identical(&reference, &fast);
        assert_eq!(fast.programs[0].start_us.to_bits(), near.to_bits());
        let z_end = fast.programs[0].end_us;
        assert_eq!(fast.programs[1].op_spans[0].0.to_bits(), z_end.to_bits());
        assert_eq!(fast.programs[1].op_spans[1].0, 0.0);
        // picks Z (X, Z read; Y skipped), then Y (X, Y read), then X
        let work = scratch.scan_work();
        assert_eq!((work.picks, work.examined), (3, 5));
    }

    /// Sessions that ready many candidates at one instant, against the
    /// eager reference: pairwise exchanges issued together and apart, and
    /// two wide random programs whose roots share one ready time.
    #[test]
    fn equal_instant_bursts_match_the_eager_reference() {
        let sim = Simulator::with_defaults(dgx2());
        let kinds = ["allreduce", "allgather", "reducescatter", "allreduce"];
        let issues = [0.0, 0.0, 900.0, 900.0];
        let programs: Vec<Program> = kinds.iter().map(|k| pairwise_program(k, 2)).collect();
        let entries: Vec<(&Program, f64)> = programs.iter().zip(issues).collect();
        let reference = sim.run_reference_session(&entries).unwrap();
        let mut session = sim.session();
        for (program, issue) in programs.iter().zip(issues) {
            session.admit(program.clone(), issue);
        }
        let mut scratch = EngineScratch::new();
        let fast = session.run_with_scratch(&mut scratch).unwrap();
        assert_sessions_bit_identical(&reference, &fast);
        let ops: usize = programs.iter().map(Program::len).sum();
        assert_eq!(scratch.scan_work().picks, ops as u64);
        // alone, an exchange's heads tie at free ports every step and the
        // lowest id wins: each pick reads one candidate
        for program in &programs {
            let mut scratch = EngineScratch::new();
            sim.run_with_scratch(program, &mut scratch).unwrap();
            let n = program.len() as u64;
            let work = scratch.scan_work();
            assert_eq!((work.picks, work.examined), (n, n));
        }

        for seed in [0x3c6e_f372_fe94_f82bu64, 0xa54f_f53a_5f1d_36f1] {
            let (topo, a) = wide_random_program(seed, CANDIDATES / 2 + 5);
            let (_, b) = wide_random_program(seed + 1, CANDIDATES / 2 + 5);
            assert!(roots(&a) + roots(&b) > CANDIDATES);
            let sim = Simulator::with_defaults(topo);
            let reference = sim
                .run_reference_session(&[(&a, 25.0), (&b, 25.0)])
                .unwrap();
            let mut session = sim.session();
            session.admit(a, 25.0);
            session.admit(b, 25.0);
            let fast = session.run_with_scratch(&mut EngineScratch::new()).unwrap();
            assert_sessions_bit_identical(&reference, &fast);
        }
    }

    /// Seeded sessions of 2–30 programs of the `wide_random_program` kind
    /// against the eager reference, bit for bit: issue times of zero, of a
    /// few shared values and spread out, in no order; some programs empty,
    /// and some readying more than `CANDIDATES` roots at one instant.
    #[test]
    fn lazily_admitted_sessions_match_the_eager_reference() {
        let mut state = 0x6a09_e667_f3bc_c908u64;
        let mut next = move |bound: usize| -> usize {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let (mut empty, mut tied, mut reordered, mut overfull) = (0, 0, 0, 0);
        for case in 0..20u64 {
            let count = 2 + next(29);
            let mut topo = None;
            let (mut programs, mut issues) = (Vec::new(), Vec::new());
            for k in 0..count {
                let width = match next(16) {
                    0 | 1 => 0,
                    2 => CANDIDATES + 1 + next(8),
                    _ => 1 + next(12),
                };
                let (t, program) = wide_random_program(case << 8 | k as u64, width);
                topo = Some(t);
                programs.push(program);
                issues.push(match next(4) {
                    0 => 0.0,
                    1 => [37.5, 120.0, 400.25][next(3)],
                    _ => next(4000) as f64 * 0.25,
                });
            }
            empty += programs.iter().filter(|p| p.is_empty()).count();
            tied += (0..count)
                .filter(|&i| issues[..i].contains(&issues[i]))
                .count();
            reordered += issues.windows(2).filter(|w| w[1] < w[0]).count();
            let ready_at = |t: f64| -> usize {
                let at = programs.iter().zip(&issues).filter(|(_, &i)| i == t);
                at.map(|(p, _)| roots(p)).sum()
            };
            overfull += issues.iter().filter(|&&t| ready_at(t) > CANDIDATES).count();

            let sim = Simulator::with_defaults(topo.unwrap());
            let entries: Vec<(&Program, f64)> = programs.iter().zip(issues.clone()).collect();
            let reference = sim.run_reference_session(&entries).unwrap();
            let mut session = sim.session();
            for (program, &issue) in programs.iter().zip(&issues) {
                session.admit(program.clone(), issue);
            }
            let fast = session.run().unwrap();
            assert_sessions_bit_identical(&reference, &fast);
        }
        assert!(empty > 0 && tied > 0 && reordered > 0 && overfull > 0);
    }

    #[test]
    fn a_later_program_whose_root_starts_first_is_admitted_into_a_window_with_room() {
        // Program A's two copies out of DGX-2 GPU 0 share its egress port:
        // after the long one, the short one (the window's only op) waits
        // for the port until d. Program B, issued at 10 < d, copies into
        // GPU 1 from an idle GPU; its root must be admitted and start at
        // its issue, before A's short copy takes GPU 1's ingress port.
        let sim = Simulator::with_defaults(dgx2());
        let mut a = ProgramBuilder::new();
        let (s0, s1) = (a.new_stream(), a.new_stream());
        a.copy(GpuId(0), GpuId(2), mb(64), LinkClass::NvLink, s0, &[], "");
        a.copy(GpuId(0), GpuId(1), mb(1), LinkClass::NvLink, s1, &[], "");
        let a = a.build().unwrap();
        let mut b = ProgramBuilder::new();
        let s = b.new_stream();
        b.copy(GpuId(3), GpuId(1), mb(1), LinkClass::NvLink, s, &[], "");
        let b = b.build().unwrap();
        let reference = sim.run_reference_session(&[(&a, 0.0), (&b, 10.0)]).unwrap();
        let mut session = sim.session();
        session.admit(a, 0.0);
        session.admit(b, 10.0);
        let fast = session.run().unwrap();
        assert_sessions_bit_identical(&reference, &fast);
        let d = fast.programs[0].op_spans[0].1;
        assert!(d > 10.0 + fast.programs[1].op_spans[0].1);
        assert_eq!(fast.programs[0].op_spans[1].0.to_bits(), d.to_bits());
        assert_eq!(fast.programs[1].start_us, 10.0);
    }

    #[test]
    fn a_program_issued_exactly_at_the_windows_last_ready_time_is_admitted() {
        // B's kernel on GPU 0 ends at e and readies more than CANDIDATES
        // kernels at e, the first on GPU 1. A, admitted first and issued at
        // e, runs one kernel on GPU 1: its root ranks before all of B's
        // children, so it takes GPU 1 at e and B's first child waits.
        let sim = Simulator::with_defaults(dgx2());
        let mut b = ProgramBuilder::new();
        let s = b.new_stream();
        let head = b.compute(GpuId(0), 7.0, s, &[], "");
        for k in 0..CANDIDATES + 8 {
            let s = b.new_stream();
            b.compute(GpuId(1 + k % 15), 3.0, s, &[head], "");
        }
        let b = b.build().unwrap();
        let e = sim.run(&b).unwrap().op_spans[0].1;
        let mut a = ProgramBuilder::new();
        let s = a.new_stream();
        a.compute(GpuId(1), 5.0, s, &[], "");
        let a = a.build().unwrap();
        let reference = sim.run_reference_session(&[(&a, e), (&b, 0.0)]).unwrap();
        let mut session = sim.session();
        session.admit(a, e);
        session.admit(b, 0.0);
        let fast = session.run().unwrap();
        assert_sessions_bit_identical(&reference, &fast);
        assert_eq!(fast.programs[0].start_us.to_bits(), e.to_bits());
        let a_end = fast.programs[0].end_us;
        assert_eq!(fast.programs[1].op_spans[1].0.to_bits(), a_end.to_bits());
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
            b.copy(GpuId(0), GpuId(1), mb(50), LinkClass::NvLink, s, &[], "");
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
                &[],
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
        b.copy(GpuId(0), GpuId(1), mb(10), LinkClass::NvLink, s, &[], "");
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
        small.copy(GpuId(0), GpuId(1), mb(1), LinkClass::NvLink, s, &[], "");
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

    /// A seeded random program over `topo`'s own links: copies along
    /// randomly picked links (in each link's class), reductions, kernels and
    /// peer-access toggles, spread over `streams` shared streams with random
    /// backward deps.
    fn random_program_on(topo: &Topology, seed: u64, len: usize, streams: usize) -> Program {
        let mut state = seed;
        let mut next = move |bound: usize| -> usize {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let (links, gpus) = (topo.links(), topo.gpu_ids());
        let mut b = ProgramBuilder::new();
        let streams: Vec<StreamId> = (0..streams).map(|_| b.new_stream()).collect();
        let mut ops = Vec::new();
        for i in 0..len {
            let s = streams[next(streams.len())];
            let deps: Vec<_> = match ops.len() {
                0 => Vec::new(),
                k => (0..next(3)).map(|_| ops[next(k)]).collect(),
            };
            let bytes = mb(1) + next(4096) as u64;
            let op = match next(8) {
                0 => b.reduce(gpus[next(gpus.len())], bytes, s, &deps, ""),
                1 => b.compute(gpus[next(gpus.len())], next(50) as f64, s, &deps, ""),
                2 => b.toggle_peer_access(2, s, &deps, ""),
                _ => {
                    let l = links[next(links.len())];
                    let class = link_class(l.kind);
                    b.copy(l.src, l.dst, bytes, class, s, &deps, format!("c{i}"))
                }
            };
            ops.push(op);
        }
        b.build().unwrap()
    }

    /// The compiled tables against the reference, bit for bit: the first
    /// program alone, then all of them sharing a session at staggered issue
    /// times.
    fn assert_table_matches_the_reference(sim: &Simulator, programs: Vec<Program>) {
        assert_tables_identical(
            &sim.resources,
            &reference_table(sim.topology()),
            sim.topology().name(),
        );
        let reference = sim.run_reference(&programs[0]).unwrap();
        let fast = sim.run(&programs[0]).unwrap();
        assert_reports_bit_identical(&reference, &fast);
        assert!(fast.links_used() > 1);
        let total = sim.run_total(&programs[0], None, &mut EngineScratch::new());
        assert_eq!(total.unwrap().to_bits(), reference.total_us.to_bits());

        let issues = [0.0, 15.5, 15.5];
        let entries: Vec<(&Program, f64)> = programs.iter().zip(issues).collect();
        let reference = sim.run_reference_session(&entries).unwrap();
        let mut session = sim.session();
        for (program, issue) in programs.into_iter().zip(issues) {
            session.admit(program, issue);
        }
        let fast = session.run_with_scratch(&mut EngineScratch::new()).unwrap();
        assert_sessions_bit_identical(&reference, &fast);
    }

    /// Three seeded [`random_program_on`] programs of 160 ops over 24
    /// streams each, so every program uses the same stream ids.
    fn random_programs(topo: &Topology, seed: u64) -> Vec<Program> {
        (0..3)
            .map(|k| random_program_on(topo, seed + k, 160, 24))
            .collect()
    }

    fn assert_random_programs_match_the_reference(topo: Topology, seed: u64) {
        let programs = random_programs(&topo, seed);
        assert_table_matches_the_reference(&Simulator::with_defaults(topo), programs);
    }

    #[test]
    fn the_table_matches_the_reference_on_a_sparse_multi_server_placement() {
        // non-contiguous GPU ids on servers 0, 2 and 3, each with a NIC: with
        // three servers, two copies out of one server can share its outgoing
        // NIC without sharing an incoming one
        let slices = [
            (0, vec![GpuId(1), GpuId(4), GpuId(6)]),
            (2, vec![GpuId(17), GpuId(19), GpuId(22)]),
            (3, vec![GpuId(24), GpuId(30)]),
        ];
        let topo = placement_topology(ServerKind::Dgx1V, 5.0, &slices).unwrap();
        assert!([0, 2, 3]
            .into_iter()
            .all(|s| topo.server_nic(ServerId(s)).is_some()));
        assert!(topo.links().iter().any(|l| l.kind == LinkKind::Network));
        for seed in [0x243f_6a88_85a3_08d3u64, 0x1319_8a2e_0370_7344] {
            assert_random_programs_match_the_reference(topo.clone(), seed);
        }
    }

    #[test]
    fn the_table_matches_the_reference_on_placements_of_one_to_three_servers() {
        let ids = |locals: &[usize], base: usize| locals.iter().map(|l| GpuId(base + l)).collect();
        let placements = [
            (ServerKind::Dgx1V, vec![(2, ids(&[1, 3, 4, 6], 16))]),
            (
                ServerKind::Dgx1P,
                vec![(0, ids(&[0, 5], 0)), (3, ids(&[2, 7], 24))],
            ),
            (
                ServerKind::Dgx1V,
                vec![
                    (1, ids(&[0, 2], 8)),
                    (4, ids(&[1, 5, 6], 32)),
                    (5, ids(&[7], 40)),
                ],
            ),
            (
                ServerKind::Dgx2,
                vec![(0, ids(&[1, 9], 0)), (1, ids(&[0, 4, 15], 16))],
            ),
        ];
        for (i, (kind, slices)) in placements.into_iter().enumerate() {
            let topo = placement_topology(kind, 5.0, &slices).unwrap();
            let seed = 0x6a09_e667_f3bc_c908u64.wrapping_mul(i as u64 + 1);
            assert_random_programs_match_the_reference(topo, seed);
        }
    }

    /// The resource table as [`Simulator::new`] built it before it was built
    /// in one pass: every link's key sorted stably, so each key's
    /// capacities sum in [`Topology::links`] order, and each link's port
    /// caps and NICs read from the topology's maps. The reference the
    /// one-pass table is pinned to.
    fn reference_table(topology: &Topology) -> ResourceTable {
        let mut gpus: Vec<(GpuId, ServerId)> =
            topology.gpus().iter().map(|g| (g.id, g.server)).collect();
        gpus.sort_by_key(|g| g.0);
        gpus.dedup_by_key(|g| g.0);
        let index = |g: GpuId| {
            gpus.binary_search_by_key(&g, |e| e.0)
                .ok()
                .map(|i| i as u32)
        };
        let servers = topology.servers();
        let nic = |g: u32| {
            let server = gpus[g as usize].1;
            topology.server_nic(server)?;
            servers.binary_search(&server).ok().map(|k| k as u32)
        };
        let mut keyed: Vec<((GpuId, GpuId, LinkClass), f64)> = topology
            .links()
            .iter()
            .map(|l| ((l.src, l.dst, link_class(l.kind)), l.capacity_gbps()))
            .collect();
        keyed.sort_by_key(|k| k.0);
        let mut links: Vec<LinkResources> = Vec::new();
        for (key, capacity) in keyed {
            match links.last_mut() {
                Some(last) if last.key == key => last.capacity_gbps += capacity,
                _ => links.push(LinkResources {
                    key,
                    capacity_gbps: capacity,
                    ends: [0; 2],
                    unknown: None,
                    res: [0; 2],
                    res_len: 0,
                }),
            }
        }
        let n = gpus.len() as u32;
        let egress = links.len() as u32;
        let (ingress, compute, nics) = (egress + n, egress + 2 * n, egress + 3 * n);
        for (id, link) in links.iter_mut().enumerate() {
            let (src, dst, class) = link.key;
            let (s, d) = match (index(src), index(dst)) {
                (Some(s), Some(d)) => (s, d),
                (None, _) => {
                    link.unknown = Some(src);
                    continue;
                }
                (_, None) => {
                    link.unknown = Some(dst);
                    continue;
                }
            };
            link.ends = [s, d];
            match class {
                LinkClass::NvLink => {
                    if topology.gpu_cap(src).is_some() {
                        link.push(egress + s);
                    }
                    if topology.gpu_cap(dst).is_some() {
                        link.push(ingress + d);
                    }
                }
                LinkClass::Network => {
                    if let Some(k) = nic(s) {
                        link.push(nics + 2 * k);
                    }
                    if let Some(k) = nic(d) {
                        link.push(nics + 2 * k + 1);
                    }
                }
                LinkClass::Pcie => {}
            }
            if link.res_len == 0 {
                link.push(id as u32);
            }
        }
        ResourceTable {
            gpus: gpus.iter().map(|g| g.0).collect(),
            links,
            compute_base: compute,
            num_static: nics + 2 * servers.len() as u32,
        }
    }

    /// Panics unless the two tables agree field by field: GPUs, and per
    /// link its key, capacity bits, ends, unknown endpoint and binding
    /// resources, then the compute base and the static id count.
    fn assert_tables_identical(a: &ResourceTable, b: &ResourceTable, what: &str) {
        assert_eq!(a.gpus, b.gpus, "{what}: GPUs");
        let links = |t: &ResourceTable| -> Vec<_> {
            t.links
                .iter()
                .map(|l| {
                    let res = l.resources().to_vec();
                    (l.key, l.capacity_gbps.to_bits(), l.ends, l.unknown, res)
                })
                .collect()
        };
        assert_eq!(links(a), links(b), "{what}: links");
        assert_eq!(a.compute_base, b.compute_base, "{what}: compute base");
        assert_eq!(a.num_static, b.num_static, "{what}: static ids");
    }

    /// A random fabric: up to 11 GPUs with distinct ids, listed in
    /// ascending or random order, on up to four servers, random links of every kind (several
    /// per key, so capacities sum), and random port caps and NICs.
    fn random_fabric(seed: u64) -> Topology {
        let mut state = seed;
        let mut next = move |bound: usize| -> usize {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let mut topo = Topology::new("random");
        let mut ids: Vec<usize> = (0..40).collect();
        let n = 2 + next(10);
        let mut gpus: Vec<GpuId> = (0..n).map(|_| GpuId(ids.remove(next(ids.len())))).collect();
        // ascending ids in half the fabrics, on servers in any order
        if next(2) == 0 {
            gpus.sort_unstable();
        }
        for (i, &g) in gpus.iter().enumerate() {
            topo.add_gpu(g, ServerId(next(4)), i).unwrap();
        }
        let kinds = [
            LinkKind::NvLinkGen1,
            LinkKind::NvLinkGen2,
            LinkKind::NvSwitch,
            LinkKind::Pcie,
            LinkKind::Network,
        ];
        for _ in 0..next(4 * n * n) {
            let (a, b) = (gpus[next(n)], gpus[next(n)]);
            let bandwidth = [0.3, 3.7, 11.1, 23.0, 1e-3][next(5)];
            let link = blink_topology::Link::new(a, b, kinds[next(5)])
                .with_lanes(1 + next(3) as u32)
                .with_bandwidth(bandwidth);
            topo.add_link(link).unwrap();
        }
        for &g in &gpus {
            if next(3) == 0 {
                topo.set_gpu_cap(g, 40.0).unwrap();
            }
        }
        for server in 0..4 {
            if next(2) == 0 {
                topo.set_server_nic(ServerId(server), 12.5);
            }
        }
        topo
    }

    #[test]
    fn the_one_pass_table_is_the_reference_table() {
        let mut topologies = vec![
            dgx1p(),
            dgx1v(),
            dgx2(),
            multi_server(3, ServerKind::Dgx1V, 5.0),
            multi_server(2, ServerKind::Dgx2, 12.5),
            dgx2().induced(&[GpuId(9), GpuId(2), GpuId(14)]).unwrap(),
        ];
        let slices = |kind: ServerKind, servers: &[usize], mask: usize| {
            let gps = blink_topology::presets::gpus_per_server(kind);
            servers
                .iter()
                .map(|&s| {
                    let locals = (0..gps).filter(|l| mask >> (l % 8) & 1 == 1);
                    (s, locals.map(|l| GpuId(gps * s + l)).collect())
                })
                .collect::<Vec<(usize, Vec<GpuId>)>>()
        };
        for (kind, servers, mask) in [
            (ServerKind::Dgx1V, &[0][..], 0b1011_0010),
            (ServerKind::Dgx1V, &[1, 6][..], 0b0000_0011),
            (ServerKind::Dgx1P, &[0, 2, 5][..], 0b1100_0101),
            (ServerKind::Dgx2, &[0, 3][..], 0b0110_1001),
            (ServerKind::Dgx2, &[1, 2, 4][..], 0b0000_0001),
        ] {
            topologies.push(placement_topology(kind, 5.0, &slices(kind, servers, mask)).unwrap());
        }
        topologies.extend((1..=300).map(|k| random_fabric(0x9e37_79b9_7f4a_7c15 ^ k)));
        for topo in &topologies {
            let sim = Simulator::with_defaults(topo.clone());
            assert_tables_identical(&sim.resources, &reference_table(topo), topo.name());
        }
    }

    #[test]
    fn the_table_matches_the_reference_on_a_partial_dgx2_with_port_caps() {
        let alloc: Vec<GpuId> = [1, 4, 9, 12, 14].into_iter().map(GpuId).collect();
        let topo = dgx2().induced(&alloc).unwrap();
        assert!(alloc.iter().all(|&g| topo.gpu_cap(g).is_some()));
        for seed in [0xa409_3822_299f_31d0u64, 0x082e_fa98_ec4e_6c89] {
            assert_random_programs_match_the_reference(topo.clone(), seed);
        }
    }

    /// A hand-built fabric: GPU `i` sits on server `servers[i]`, `links`
    /// are directed, GPUs in `caps` get a switch-port cap and servers in
    /// `nics` a NIC.
    fn fabric(
        servers: &[usize],
        links: &[(usize, usize, LinkKind)],
        caps: &[usize],
        nics: &[usize],
    ) -> Topology {
        let mut topo = Topology::new("fabric");
        for (i, &server) in servers.iter().enumerate() {
            topo.add_gpu(GpuId(i), ServerId(server), i).unwrap();
        }
        for &(src, dst, kind) in links {
            topo.add_link(blink_topology::Link::new(GpuId(src), GpuId(dst), kind))
                .unwrap();
        }
        for &g in caps {
            topo.set_gpu_cap(GpuId(g), 40.0).unwrap();
        }
        for &server in nics {
            topo.set_server_nic(ServerId(server), 12.5);
        }
        topo
    }

    /// Switch links among four GPUs of one server: GPU 0 only sends (or,
    /// with `into_capped`, only receives), GPUs 1–3 are fully connected.
    fn one_port_capped(into_capped: bool) -> Topology {
        let mut links = Vec::new();
        for g in 1..4 {
            links.push(if into_capped {
                (g, 0, LinkKind::NvSwitch)
            } else {
                (0, g, LinkKind::NvSwitch)
            });
            for h in 1..4 {
                if g != h {
                    links.push((g, h, LinkKind::NvSwitch));
                }
            }
        }
        fabric(&[0; 4], &links, &[0], &[])
    }

    #[test]
    fn the_table_matches_the_reference_when_only_the_source_has_a_port_cap() {
        // every link out of GPU 0 binds on GPU 0's egress port alone, and
        // copies from 0 to different GPUs contend on it
        let topo = one_port_capped(false);
        assert!(topo.links().iter().all(|l| l.dst != GpuId(0)));
        for seed in [0x3c6e_f372_fe94_f82bu64, 0xa54f_f53a_5f1d_36f1] {
            assert_random_programs_match_the_reference(topo.clone(), seed);
        }
    }

    #[test]
    fn the_table_matches_the_reference_when_only_the_destination_has_a_port_cap() {
        let topo = one_port_capped(true);
        assert!(topo.links().iter().all(|l| l.src != GpuId(0)));
        for seed in [0x510e_527f_ade6_82d1u64, 0x9b05_688c_2b3e_6c1f] {
            assert_random_programs_match_the_reference(topo.clone(), seed);
        }
    }

    #[test]
    fn the_table_matches_the_reference_when_only_one_server_has_a_nic() {
        // two servers of two GPUs; only server 0 has a NIC, so a network
        // copy holds server 0's outgoing or incoming NIC and nothing else
        let mut links = vec![
            (0, 1, LinkKind::NvLinkGen2),
            (1, 0, LinkKind::NvLinkGen2),
            (2, 3, LinkKind::NvLinkGen2),
            (3, 2, LinkKind::NvLinkGen2),
        ];
        for a in 0..2 {
            for b in 2..4 {
                links.push((a, b, LinkKind::Network));
                links.push((b, a, LinkKind::Network));
            }
        }
        let topo = fabric(&[0, 0, 1, 1], &links, &[], &[0]);
        assert!(topo.server_nic(ServerId(1)).is_none());
        for seed in [0x1f83_d9ab_fb41_bd6bu64, 0x5be0_cd19_137e_2179] {
            assert_random_programs_match_the_reference(topo.clone(), seed);
        }
    }

    #[test]
    fn programs_sharing_stream_ids_in_one_session_match_the_reference() {
        // both programs put every op on their stream 0; namespacing keeps
        // the second program's chain from queueing behind the first's
        let topo = dgx1v();
        let chain = |a: usize, b: usize| {
            let mut p = ProgramBuilder::new();
            let s = p.new_stream();
            let k = p.compute(GpuId(a), 30.0, s, &[], "k");
            let c = p.copy(GpuId(a), GpuId(b), mb(2), LinkClass::NvLink, s, &[k], "c");
            p.reduce(GpuId(b), mb(2), s, &[c], "r");
            p.build().unwrap()
        };
        let programs = [chain(0, 1), chain(2, 3)];
        let sim = Simulator::with_defaults(topo);
        let entries: Vec<(&Program, f64)> = programs.iter().map(|p| (p, 0.0)).collect();
        let reference = sim.run_reference_session(&entries).unwrap();
        let alone: Vec<f64> = programs
            .iter()
            .map(|p| sim.run(p).unwrap().total_us)
            .collect();
        let mut session = sim.session();
        for program in programs {
            session.admit(program, 0.0);
        }
        let fast = session.run().unwrap();
        assert_sessions_bit_identical(&reference, &fast);
        // the two chains share no resource, so each runs as if alone
        for (span, alone) in fast.programs.iter().zip(alone) {
            assert_eq!(span.start_us, 0.0);
            assert_eq!(span.end_us.to_bits(), alone.to_bits());
        }
    }

    #[test]
    fn zero_duration_ops_match_the_reference() {
        // no launch, latency or toggle cost: zero-byte copies and
        // reductions, zero-length kernels and peer-access toggles all take
        // no time, so ops tie on start times throughout
        let params = SimParams {
            op_launch_overhead_us: 0.0,
            dpa_per_gpu_us: 0.0,
            link_latency_us: 0.0,
            network_latency_us: 0.0,
            ..SimParams::default()
        };
        let zero_every_other = |program: Program| {
            let mut b = ProgramBuilder::new();
            for op in program.ops() {
                let mut segs = op.segments.to_vec();
                if let Some(seg) = segs.first_mut().filter(|_| op.id.0 % 2 == 0) {
                    seg.bytes = 0;
                }
                b.push(op.kind, &segs, op.stream, op.deps, op.tag.clone());
            }
            b.build().unwrap()
        };
        let alloc: Vec<GpuId> = [0, 3, 5, 8, 11].into_iter().map(GpuId).collect();
        let partial_dgx2 = dgx2().induced(&alloc).unwrap();
        let two_servers = multi_server(2, ServerKind::Dgx1V, 5.0);
        for (topo, seed) in [
            (partial_dgx2, 0x6a09_e667_f3bc_c908u64),
            (two_servers, 0xbb67_ae85_84ca_a73b),
        ] {
            let programs: Vec<Program> = random_programs(&topo, seed)
                .into_iter()
                .map(zero_every_other)
                .collect();
            let sim = Simulator::new(topo, params);
            let zero = sim.run(&programs[0]).unwrap();
            let instant = zero.op_spans.iter().filter(|(s, e)| s == e).count();
            assert!(instant > 40, "{instant} zero-duration ops");
            assert_table_matches_the_reference(&sim, programs);
        }
    }

    #[test]
    fn errors_match_the_reference_op_by_op() {
        let sim = Simulator::with_defaults(dgx1v());
        let missing = |src, dst, class| SimError::MissingLink { src, dst, class };
        // each case: the ops before the bad one are valid
        type Emit = fn(&mut ProgramBuilder, StreamId);
        let cases: [(Emit, SimError); 5] = [
            // a copy to a GPU outside the topology has no link first
            (
                |b, s| {
                    b.copy(GpuId(0), GpuId(9), 64, LinkClass::NvLink, s, &[], "");
                },
                missing(GpuId(0), GpuId(9), LinkClass::NvLink),
            ),
            (
                |b, s| {
                    b.reduce(GpuId(42), 64, s, &[], "");
                },
                SimError::UnknownGpu(GpuId(42)),
            ),
            (
                |b, s| {
                    b.compute(GpuId(42), 1.0, s, &[], "");
                },
                SimError::UnknownGpu(GpuId(42)),
            ),
            // GPUs 1 and 4 share PCIe but no NVLink
            (
                |b, s| {
                    b.copy(GpuId(1), GpuId(4), 64, LinkClass::NvLink, s, &[], "");
                },
                missing(GpuId(1), GpuId(4), LinkClass::NvLink),
            ),
            // the first bad op wins: the missing link precedes the kernel
            (
                |b, s| {
                    b.copy(GpuId(1), GpuId(4), 64, LinkClass::NvLink, s, &[], "");
                    b.compute(GpuId(42), 1.0, s, &[], "");
                },
                missing(GpuId(1), GpuId(4), LinkClass::NvLink),
            ),
        ];
        for (emit, expected) in cases {
            let mut b = ProgramBuilder::new();
            let s = b.new_stream();
            b.copy(GpuId(1), GpuId(4), 64, LinkClass::Pcie, s, &[], "ok");
            emit(&mut b, s);
            let program = b.build().unwrap();
            assert_eq!(sim.run(&program).unwrap_err(), expected);
            assert_eq!(sim.run_reference(&program).unwrap_err(), expected);
            assert_eq!(sim.compile(program).unwrap_err(), expected);
        }
    }

    /// Compiled runs against the reference and the direct path, bit for
    /// bit: each program alone through [`Simulator::run_compiled`], then
    /// all of them in one session at staggered issue times under every mix
    /// of stored and plain entries. Every compiled run goes through one
    /// scratch that the direct runs dirtied first.
    fn assert_compiled_runs_match(sim: &Simulator, programs: &[Program]) {
        let mut dirty = EngineScratch::new();
        let compiled: Vec<Arc<CompiledProgram>> = programs
            .iter()
            .map(|p| Arc::new(sim.compile(p.clone()).unwrap()))
            .collect();
        for (program, stored) in programs.iter().zip(&compiled) {
            assert!(stored.fits(sim));
            assert_eq!(**stored.program(), *program);
            let direct = sim.run_with_scratch(program, &mut dirty).unwrap();
            assert_reports_bit_identical(&sim.run_reference(program).unwrap(), &direct);
            let reused = sim.run_compiled(program, stored, &mut dirty).unwrap();
            assert_reports_bit_identical(&direct, &reused);
            for form in [None, Some(&**stored)] {
                let total = sim.run_total(program, form, &mut dirty).unwrap();
                assert_eq!(total.to_bits(), direct.total_us.to_bits());
            }
        }
        let issues = [0.0, 15.5, 15.5, 40.25];
        let entries: Vec<(&Program, f64)> = programs.iter().zip(issues).collect();
        let reference = sim.run_reference_session(&entries).unwrap();
        for mask in 0..1u32 << entries.len() {
            let mut session = sim.session();
            for (k, (&(program, issue), stored)) in entries.iter().zip(&compiled).enumerate() {
                if mask >> k & 1 == 1 {
                    session.admit_compiled(program.clone(), stored.clone(), issue);
                } else {
                    session.admit(program.clone(), issue);
                }
            }
            let fast = session.run_with_scratch(&mut dirty).unwrap();
            assert_sessions_bit_identical(&reference, &fast);
        }
    }

    #[test]
    fn compiled_runs_match_direct_runs_and_the_reference() {
        let slices = [
            (0, vec![GpuId(1), GpuId(4), GpuId(6)]),
            (2, vec![GpuId(17), GpuId(19), GpuId(22)]),
        ];
        let placed = placement_topology(ServerKind::Dgx1V, 5.0, &slices).unwrap();
        let alloc: Vec<GpuId> = [1, 4, 9, 12, 14].into_iter().map(GpuId).collect();
        let partial_dgx2 = dgx2().induced(&alloc).unwrap();
        for (topo, seed) in [
            (placed, 0x71a3_92c4_05be_3d17u64),
            (partial_dgx2, 0x3b1f_d85e_a2c7_6904),
            (one_port_capped(false), 0xc2b2_ae3d_27d4_eb4f),
            (one_port_capped(true), 0x1656_67b1_9e37_79f9),
        ] {
            let sim = Simulator::with_defaults(topo.clone());
            let mut programs = random_programs(&topo, seed);
            programs.push(ProgramBuilder::new().build().unwrap());
            assert_compiled_runs_match(&sim, &programs);
        }
        // more ops ready than the candidate window holds
        let (topo, wide) = wide_random_program(0x9e37_79b9_7f4a_7c15, 2 * CANDIDATES);
        let (_, other) = wide_random_program(0x2545_f491_4f6c_dd1d, CANDIDATES / 2);
        let sim = Simulator::with_defaults(topo);
        assert_compiled_runs_match(&sim, &[wide.clone(), other, wide]);
    }

    #[test]
    fn compiled_zero_duration_ops_match_the_reference() {
        let params = SimParams {
            op_launch_overhead_us: 0.0,
            dpa_per_gpu_us: 0.0,
            link_latency_us: 0.0,
            network_latency_us: 0.0,
            ..SimParams::default()
        };
        let topo = multi_server(2, ServerKind::Dgx1V, 5.0);
        let programs: Vec<Program> = random_programs(&topo, 0x5851_f42d_4c95_7f2d)
            .into_iter()
            .map(|program| {
                let mut b = ProgramBuilder::new();
                for op in program.ops() {
                    let mut segs = op.segments.to_vec();
                    if let Some(seg) = segs.first_mut() {
                        seg.bytes = 0;
                    }
                    b.push(op.kind, &segs, op.stream, op.deps, op.tag.clone());
                }
                b.build().unwrap()
            })
            .collect();
        let sim = Simulator::new(topo, params);
        let zero = sim.run(&programs[0]).unwrap();
        assert!(zero.op_spans.iter().filter(|(s, e)| s == e).count() > 40);
        assert_compiled_runs_match(&sim, &programs);
    }

    /// A copy of `topo` whose first `(src, dst)` link has its bandwidth
    /// changed by `change`.
    fn nudged(topo: &Topology, src: GpuId, dst: GpuId, change: impl Fn(f64) -> f64) -> Topology {
        let mut out = Topology::new(topo.name());
        for g in topo.gpus() {
            out.add_gpu(g.id, g.server, g.local_index).unwrap();
            if let Some(cap) = topo.gpu_cap(g.id) {
                out.set_gpu_cap(g.id, cap).unwrap();
            }
        }
        for server in topo.servers() {
            if let Some(nic) = topo.server_nic(server) {
                out.set_server_nic(server, nic);
            }
        }
        let mut pending = true;
        for link in topo.links() {
            let mut link = *link;
            if pending && (link.src, link.dst) == (src, dst) {
                link.bandwidth_gbps = change(link.bandwidth_gbps);
                pending = false;
            }
            out.add_link(link).unwrap();
        }
        out
    }

    #[test]
    fn a_form_runs_only_where_every_read_agrees() {
        // GPUs 2-7 of a DGX-1V: on the whole machine, and on a machine of
        // just those GPUs, where every GPU index and link id moves
        let topo = dgx1v();
        let renumbered = topo
            .induced(&(2..8).map(GpuId).collect::<Vec<_>>())
            .unwrap();
        let program = random_program_on(&renumbered, 0x8a5c_d789_635d_2dff, 160, 24);
        let copy = program
            .ops()
            .find_map(|op| match op.kind {
                OpKind::Copy { src, dst, .. } => Some((src, dst)),
                _ => None,
            })
            .unwrap();
        let stored = Simulator::with_defaults(topo.clone())
            .compile(program.clone())
            .unwrap();
        let latency = SimParams {
            link_latency_us: SimParams::default().link_latency_us + 0.5,
            ..SimParams::default()
        };
        let elsewhere = [
            (Simulator::with_defaults(topo.clone()), true),
            // a NIC adds ids after every id the form read
            (
                Simulator::with_defaults(multi_server(1, ServerKind::Dgx1V, 5.0)),
                true,
            ),
            // one link a copy uses is one ulp faster
            (
                Simulator::with_defaults(nudged(&topo, copy.0, copy.1, |bw| {
                    f64::from_bits(bw.to_bits() + 1)
                })),
                false,
            ),
            (Simulator::new(topo.clone(), latency), false),
            (Simulator::with_defaults(renumbered.clone()), false),
        ];
        for (sim, fits) in elsewhere {
            assert_eq!(stored.fits(&sim), fits, "{}", sim.topology().name());
            let direct = sim.run(&program).unwrap();
            let reused = sim
                .run_compiled(&program, &stored, &mut EngineScratch::new())
                .unwrap();
            assert_reports_bit_identical(&direct, &reused);
        }
        // a form whose GPUs are missing fails there as its program would
        let mut b = ProgramBuilder::new();
        let s = b.new_stream();
        b.compute(GpuId(0), 1.0, s, &[], "");
        let on_gpu0 = b.build().unwrap();
        let stored = Simulator::with_defaults(topo)
            .compile(on_gpu0.clone())
            .unwrap();
        let sim = Simulator::with_defaults(renumbered);
        assert!(!stored.fits(&sim));
        assert_eq!(
            sim.run_compiled(&on_gpu0, &stored, &mut EngineScratch::new())
                .unwrap_err(),
            SimError::UnknownGpu(GpuId(0))
        );
    }

    /// `program` with each GPU of `from` renamed to the GPU of `to` at the
    /// same position.
    fn moved(program: &Program, from: &[GpuId], to: &[GpuId]) -> Program {
        program.renamed(|g| to[from.iter().position(|&f| f == g).unwrap()])
    }

    /// One slice shape placed on two sets of servers: the simulators of
    /// both placements and their GPUs in ascending order.
    fn placed_twice(
        kind: ServerKind,
        here: &[(usize, &[usize])],
        there: &[(usize, &[usize])],
    ) -> [(Simulator, Vec<GpuId>); 2] {
        [here, there].map(|slices| {
            let slices: Vec<(usize, Vec<GpuId>)> = slices
                .iter()
                .map(|(server, gpus)| (*server, gpus.iter().map(|&g| GpuId(g)).collect()))
                .collect();
            let topo = placement_topology(kind, 5.0, &slices).unwrap();
            let gpus = topo.gpu_ids();
            (Simulator::with_defaults(topo), gpus)
        })
    }

    #[test]
    fn a_form_fits_the_same_slice_shape_on_another_server() {
        type Slices = &'static [(usize, &'static [usize])];
        let cases: [(ServerKind, Slices, Slices); 3] = [
            (ServerKind::Dgx1V, &[(0, &[0, 1, 3])], &[(5, &[40, 41, 43])]),
            // network links and NICs
            (
                ServerKind::Dgx1V,
                &[(0, &[1, 4, 6]), (2, &[17, 19, 22])],
                &[(3, &[25, 28, 30]), (6, &[49, 51, 54])],
            ),
            // switch ports
            (
                ServerKind::Dgx2,
                &[(0, &[1, 4, 9, 12])],
                &[(1, &[17, 20, 25, 28])],
            ),
        ];
        for (kind, here, there) in cases {
            let [(home, from), (away, to)] = placed_twice(kind, here, there);
            for program in random_programs(home.topology(), 0x243f_6a88_85a3_08d3) {
                let form = Arc::new(home.compile(program.clone()).unwrap());
                assert!(form.fits(&away), "{there:?}");
                let relabelled = moved(&program, &from, &to);
                let direct = away.run(&relabelled).unwrap();
                assert_reports_bit_identical(&away.run_reference(&relabelled).unwrap(), &direct);
                let reused = away
                    .run_compiled(&relabelled, &form, &mut EngineScratch::new())
                    .unwrap();
                assert_reports_bit_identical(&direct, &reused);
                // beside a plain entry in one session
                let entries = [(&relabelled, 0.0), (&relabelled, 7.5)];
                let reference = away.run_reference_session(&entries).unwrap();
                let mut session = away.session();
                session.admit_compiled(relabelled.clone(), form, 0.0);
                session.admit(relabelled.clone(), 7.5);
                assert_sessions_bit_identical(&reference, &session.run().unwrap());
            }
        }
    }

    #[test]
    fn a_form_that_does_not_fit_runs_the_callers_program() {
        let [(home, from), (away, to)] = placed_twice(
            ServerKind::Dgx1V,
            &[(0, &[0, 1, 2, 3])],
            &[(5, &[40, 41, 42, 43])],
        );
        let program = random_program_on(home.topology(), 0x1319_8a2e_0370_7344, 160, 24);
        let form = Arc::new(home.compile(program.clone()).unwrap());
        let relabelled = moved(&program, &from, &to);
        let (src, dst) = relabelled
            .ops()
            .find_map(|op| match op.kind {
                OpKind::Copy {
                    src,
                    dst,
                    class: LinkClass::NvLink,
                } => Some((src, dst)),
                _ => None,
            })
            .unwrap();
        let far = away.topology();
        let degraded = Simulator::with_defaults(nudged(far, src, dst, |bw| bw / 2.0));
        let killed = Simulator::with_defaults(
            far.apply_delta(&TopologyDelta::kill_link(far, src, dst))
                .unwrap(),
        );
        for sim in [&degraded, &killed] {
            assert!(!form.fits(sim), "{}", sim.topology().name());
            // the form's own program names GPUs these servers lack
            assert!(sim.run(&program).is_err());
        }
        let plain = degraded.run(&relabelled).unwrap();
        assert_ne!(
            plain.total_us.to_bits(),
            away.run(&relabelled).unwrap().total_us.to_bits(),
            "the degraded link slows the program"
        );
        let reused = degraded
            .run_compiled(&relabelled, &form, &mut EngineScratch::new())
            .unwrap();
        assert_reports_bit_identical(&plain, &reused);
        let mut session = degraded.session();
        session.admit_compiled(relabelled.clone(), form.clone(), 0.0);
        let reference = degraded
            .run_reference_session(&[(&relabelled, 0.0)])
            .unwrap();
        assert_sessions_bit_identical(&reference, &session.run().unwrap());
        // a link the form read joins other GPUs there, at the same id,
        // class and capacity
        let wired = |dst| fabric(&[0, 0, 0], &[(0, dst, LinkKind::NvLinkGen2)], &[], &[]);
        let mut b = ProgramBuilder::new();
        let s = b.new_stream();
        b.copy(GpuId(0), GpuId(1), mb(1), LinkClass::NvLink, s, &[], "");
        let one_copy = b.build().unwrap();
        let stored = Simulator::with_defaults(wired(1))
            .compile(one_copy.clone())
            .unwrap();
        let rewired = Simulator::with_defaults(wired(2));
        assert!(!stored.fits(&rewired));
        assert_eq!(
            rewired
                .run_compiled(&one_copy, &stored, &mut EngineScratch::new())
                .unwrap_err(),
            rewired.run(&one_copy).unwrap_err()
        );
        // an error is the caller's program's, over the caller's GPUs
        let error = killed.run(&relabelled).unwrap_err();
        assert!(matches!(error, SimError::MissingLink { .. }), "{error}");
        assert_eq!(
            killed
                .run_compiled(&relabelled, &form, &mut EngineScratch::new())
                .unwrap_err(),
            error
        );
        let mut session = killed.session();
        session.admit_compiled(relabelled, form, 0.0);
        assert_eq!(session.run().unwrap_err(), error);
    }

    #[test]
    fn a_session_reports_the_first_error_in_admission_order() {
        // entry 0 is well formed but issued at a negative time, entry 1
        // depends on a later op: every issue time is checked before any
        // later entry is validated or resolved, stored form or not
        let sim = Simulator::with_defaults(dgx1v());
        let mut b = ProgramBuilder::new();
        let s = b.new_stream();
        b.copy(GpuId(0), GpuId(1), mb(1), LinkClass::NvLink, s, &[], "");
        let good = b.build().unwrap();
        let mut b = ProgramBuilder::new();
        let s = b.new_stream();
        b.compute(GpuId(0), 1.0, s, &[OpId(1)], "");
        b.compute(GpuId(0), 1.0, s, &[], "");
        let forward = b.build_unchecked();
        let stored = Arc::new(sim.compile(good.clone()).unwrap());
        let issue_error = SimError::InvalidProgram(
            "issue timestamp -1 must be finite and non-negative".to_string(),
        );
        for compiled in [false, true] {
            let mut session = sim.session();
            if compiled {
                session.admit_compiled(good.clone(), stored.clone(), -1.0);
            } else {
                session.admit(good.clone(), -1.0);
            }
            session.admit(forward.clone(), 0.0);
            assert_eq!(session.run().unwrap_err(), issue_error);
        }
        // issued in time, entry 1's validation error is the first
        let mut session = sim.session();
        session.admit_compiled(good.clone(), stored.clone(), 0.0);
        session.admit(forward.clone(), 0.0);
        assert_eq!(
            session.run().unwrap_err(),
            SimError::InvalidProgram("op 0 depends on later op 1".to_string())
        );
        assert!(sim.compile(forward).is_err());
        // a stored entry's resolution cannot fail, so the next entry's does
        let mut b = ProgramBuilder::new();
        let s = b.new_stream();
        b.compute(GpuId(42), 1.0, s, &[], "");
        let unknown = b.build().unwrap();
        let mut session = sim.session();
        session.admit_compiled(good, stored, 0.0);
        session.admit(unknown, 0.0);
        assert_eq!(session.run().unwrap_err(), SimError::UnknownGpu(GpuId(42)));
    }
}
