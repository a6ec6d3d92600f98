//! Value-level semantics for executed programs: did the collective compute
//! exactly the right bytes?
//!
//! The engine ([`crate::engine`]) answers *when* a program finishes; this
//! module answers *what* every GPU holds when it does — at byte-range
//! granularity, with exact multiplicities. It is the oracle behind the CI
//! conformance gate: a program that passes [`check_collective`] provably
//! delivered every sub-range of every contribution exactly once to every GPU
//! the collective's contract names.
//!
//! # The chunk space
//!
//! Every collective defines a **logical address space** of byte offsets that
//! ops address through the [`crate::program::Segment`] lists on
//! [`OpKind::Copy`] and [`OpKind::Reduce`] (one op may carry several
//! disjoint ranges — e.g. a gather edge moving a whole subtree's slot
//! payload; each segment is replayed individually):
//!
//! * Broadcast, Reduce, AllReduce, ReduceScatter — `[0, bytes)`, the
//!   collective's buffer. Every participant's contribution to offset `x` is
//!   its own byte at `x`.
//! * Gather, AllGather — `[0, n · bytes)`: participant with rank `i` (ranks
//!   are assigned in ascending [`GpuId`] order) owns the **slot**
//!   `[i · bytes, (i + 1) · bytes)`, and the gathered result is the
//!   concatenation of all slots.
//!
//! # The interval-multiset state
//!
//! Each GPU's buffer is an **interval map** from byte ranges to contribution
//! *multisets* ([`Contributions`]): the value at offset `x` is the multiset of
//! `(source GPU, count)` pairs folded into that byte. Multisets — not sets —
//! because reduction operators are commutative and associative but not
//! idempotent: a contribution folded in twice is numerically wrong even
//! though a set model still reports it "present". An absent range models
//! uninitialised garbage (the empty multiset).
//!
//! The replay follows the engine's actual schedule (`op_spans`):
//!
//! * a `Copy` **snapshots** the source's visible value over its range when
//!   the engine starts it and **delivers** the snapshot into the
//!   destination's staging area when it ends — so a dependency bug that lets
//!   a broadcast launch before the reduction finished is observed as a stale
//!   snapshot, exactly like a data race on real hardware;
//! * a `Reduce` **folds** the staged arrivals overlapping its range into the
//!   resident buffer (multiset sum), consuming them — reduce-and-forward
//!   trees;
//! * an arrival that is never folded **overwrites** its range (broadcast
//!   semantics): the visible value at `x` is the *last* unfolded arrival
//!   covering `x`, else the resident value.
//!
//! # Postconditions
//!
//! [`check_collective`] replays the program, then checks the final visible
//! state against the collective's contract:
//!
//! * `Broadcast{root}` — every participant holds exactly `{root}`×1 over
//!   `[0, bytes)`.
//! * `Gather{root}` — the root holds exactly `{participant_i}`×1 over slot
//!   `i`, for every `i`.
//! * `Reduce{root}` — the root holds every participant exactly once over
//!   `[0, bytes)`.
//! * `AllReduce` — every participant holds every participant exactly once
//!   over `[0, bytes)`.
//! * `AllGather` — every participant holds the full slot layout.
//! * `ReduceScatter` — rank `i` holds every participant exactly once over its
//!   **canonical shard** `[⌊i·bytes/n⌋, ⌊(i+1)·bytes/n⌋)` (the NCCL shard
//!   layout; the shards tile `[0, bytes)` exactly, remainder bytes spread
//!   over the leading ranks). What a participant holds *outside* its shard
//!   is unconstrained — implementations are free to leave partial sums or
//!   the root's full buffer behind, exactly like real collectives leave
//!   scratch data in place.
//!
//! Every failure pinpoints the GPU, the byte range, and the expected/found
//! multisets ([`Violation::WrongValue`]), so a defect like "this chunk was
//! folded twice" or "this copy shifted by 4 KiB" reads directly out of the
//! report. Two unfolded arrivals that overlap with *different* values at an
//! identical timestamp are flagged as [`Violation::AmbiguousOverwrite`] — an
//! overlap race the engine's deterministic tie-breaking would otherwise hide.

use crate::program::{OpId, OpKind, Program};
use blink_topology::GpuId;
use std::collections::BTreeMap;
use std::fmt;

/// The collective contract a program is checked against.
///
/// This mirrors the planner-level collective enum, but lives in `blink-sim`
/// so the oracle has no dependency on the planning crates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveSpec {
    /// `root` sends its buffer to every participant.
    Broadcast {
        /// Source of the data.
        root: GpuId,
    },
    /// Every participant's buffer ends up concatenated at `root`.
    Gather {
        /// Destination of the data.
        root: GpuId,
    },
    /// `root` ends with the element-wise sum of every contribution.
    Reduce {
        /// Destination of the reduced data.
        root: GpuId,
    },
    /// Every participant ends with the element-wise sum.
    AllReduce,
    /// Every participant ends with the concatenation of every buffer.
    AllGather,
    /// The element-wise sum is scattered: each participant owns a shard.
    ReduceScatter,
}

impl fmt::Display for CollectiveSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectiveSpec::Broadcast { root } => write!(f, "broadcast(root={root})"),
            CollectiveSpec::Gather { root } => write!(f, "gather(root={root})"),
            CollectiveSpec::Reduce { root } => write!(f, "reduce(root={root})"),
            CollectiveSpec::AllReduce => f.write_str("allreduce"),
            CollectiveSpec::AllGather => f.write_str("allgather"),
            CollectiveSpec::ReduceScatter => f.write_str("reducescatter"),
        }
    }
}

/// A multiset of peer contributions: how many times each source GPU's data
/// was folded into a byte. The empty multiset models uninitialised garbage.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Contributions(BTreeMap<GpuId, u32>);

impl Contributions {
    /// The empty multiset (garbage / nothing delivered).
    pub fn none() -> Self {
        Self::default()
    }

    /// A single contribution from `g`.
    pub fn one(g: GpuId) -> Self {
        Contributions(BTreeMap::from([(g, 1)]))
    }

    /// Exactly one contribution from each of `gpus`.
    pub fn each_once(gpus: &[GpuId]) -> Self {
        Contributions(gpus.iter().map(|&g| (g, 1)).collect())
    }

    /// Whether nothing has been contributed.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Folds `other` in (multiset sum — the reduction operator).
    pub fn fold(&mut self, other: &Contributions) {
        for (&g, &c) in &other.0 {
            *self.0.entry(g).or_insert(0) += c;
        }
    }

    /// How many times `g` was folded in.
    pub fn count(&self, g: GpuId) -> u32 {
        self.0.get(&g).copied().unwrap_or(0)
    }
}

impl fmt::Display for Contributions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return f.write_str("{garbage}");
        }
        f.write_str("{")?;
        for (i, (g, c)) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            if *c == 1 {
                write!(f, "{g}")?;
            } else {
                write!(f, "{g}×{c}")?;
            }
        }
        f.write_str("}")
    }
}

/// An interval map from byte ranges to [`Contributions`]. Ranges are
/// half-open, non-overlapping, and absent ranges mean garbage.
#[derive(Debug, Clone, Default)]
struct RangeMap {
    /// start → (end, value)
    segs: BTreeMap<u64, (u64, Contributions)>,
}

impl RangeMap {
    /// Removes `[start, end)` from every segment, splitting partial overlaps.
    fn clear(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        // a segment starting before `start` may spill into the range
        if let Some((&s, &(e, _))) = self.segs.range(..start).next_back() {
            if e > start {
                let (_, v) = self.segs.remove(&s).expect("segment exists");
                self.segs.insert(s, (start, v.clone()));
                if e > end {
                    self.segs.insert(end, (e, v));
                }
            }
        }
        // segments starting inside the range
        let inside: Vec<u64> = self.segs.range(start..end).map(|(&s, _)| s).collect();
        for s in inside {
            let (e, v) = self.segs.remove(&s).expect("segment exists");
            if e > end {
                self.segs.insert(end, (e, v));
            }
        }
    }

    /// Overwrites `[start, end)` with `value` (broadcast delivery).
    fn write(&mut self, start: u64, end: u64, value: Contributions) {
        if start >= end {
            return;
        }
        self.clear(start, end);
        self.segs.insert(start, (end, value));
    }

    /// Folds `value` into `[start, end)`: existing parts get the multiset
    /// sum. Garbage gaps **stay garbage** — on real hardware a reduction adds
    /// the arrival into whatever resident bytes are there, so reducing into
    /// uninitialised memory yields uninitialised garbage, not the arrival's
    /// clean value. Modelling it any other way would let the oracle launder a
    /// fold into a range the GPU never held.
    fn fold(&mut self, start: u64, end: u64, value: &Contributions) {
        if start >= end {
            return;
        }
        let mut parts = self.query(start, end);
        self.clear(start, end);
        for (s, e, v) in &mut parts {
            if v.is_empty() {
                continue; // garbage absorbs the fold: leave the gap
            }
            v.fold(value);
            self.segs.insert(*s, (*e, std::mem::take(v)));
        }
    }

    /// The values over `[start, end)`, gap-filled with the empty multiset —
    /// the returned segments exactly tile the queried range.
    fn query(&self, start: u64, end: u64) -> Vec<(u64, u64, Contributions)> {
        let mut out = Vec::new();
        if start >= end {
            return out;
        }
        let mut cur = start;
        // the segment covering `start`, if any
        if let Some((&s, &(e, _))) = self.segs.range(..=start).next_back() {
            if e > start {
                let (_, v) = self.segs.get(&s).map(|(e, v)| (*e, v)).expect("exists");
                out.push((start, e.min(end), v.clone()));
                cur = e.min(end);
            }
        }
        for (&s, &(e, _)) in self.segs.range(start..end) {
            if s < cur {
                continue; // already emitted as the covering segment
            }
            if cur >= end {
                break;
            }
            if s > cur {
                out.push((cur, s.min(end), Contributions::none()));
            }
            let v = self.segs.get(&s).map(|(_, v)| v.clone()).expect("exists");
            out.push((s, e.min(end), v));
            cur = e.min(end);
        }
        if cur < end {
            out.push((cur, end, Contributions::none()));
        }
        out
    }
}

/// A delivered-but-unfolded copy sitting in a GPU's staging area.
#[derive(Debug, Clone)]
struct Arrival {
    /// Engine timestamp of the delivery. Arrivals are staged in delivery
    /// order (the replay pushes them as its event sweep delivers them), which
    /// is what makes "last unfolded arrival wins" well-defined; the timestamp
    /// exists to diagnose ties as overwrite races.
    time: f64,
    /// The value segments the copy carried.
    segs: Vec<(u64, u64, Contributions)>,
}

#[derive(Debug, Default)]
struct GpuState {
    resident: RangeMap,
    staged: Vec<Arrival>,
}

impl GpuState {
    /// The visible value over `[start, end)`: resident data overlaid by the
    /// unfolded arrivals in delivery order (last overwrite wins).
    fn visible(&self, start: u64, end: u64) -> Vec<(u64, u64, Contributions)> {
        let mut tmp = RangeMap::default();
        for (s, e, v) in self.resident.query(start, end) {
            tmp.write(s, e, v);
        }
        for arr in &self.staged {
            for (s, e, v) in &arr.segs {
                let (s, e) = (*s.max(&start), *e.min(&end));
                if s < e {
                    tmp.write(s, e, v.clone());
                }
            }
        }
        tmp.query(start, end)
    }
}

/// One defect found by [`check_collective`], pinpointing GPU, byte range and
/// the expected-vs-found contribution multisets.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A GPU's final value over a range differs from the contract: a missing
    /// contribution, a contribution folded more than once (double-fold), a
    /// shifted sub-range, or stale/garbage data.
    WrongValue {
        /// The GPU whose final buffer is wrong.
        gpu: GpuId,
        /// Start of the offending logical range.
        offset: u64,
        /// Length of the offending range.
        len: u64,
        /// What the contract requires there.
        expected: Contributions,
        /// What the replay found there.
        found: Contributions,
    },
    /// Two unfolded arrivals overlap on this range with different values and
    /// indistinguishable timestamps — the final value depends on an ordering
    /// the schedule does not enforce.
    AmbiguousOverwrite {
        /// The GPU receiving both arrivals.
        gpu: GpuId,
        /// Start of the contested range.
        offset: u64,
        /// Length of the contested range.
        len: u64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::WrongValue {
                gpu,
                offset,
                len,
                expected,
                found,
            } => write!(
                f,
                "{gpu} holds {found} over [{offset}, {}) where the contract requires {expected}",
                offset + len
            ),
            Violation::AmbiguousOverwrite { gpu, offset, len } => write!(
                f,
                "{gpu} receives conflicting simultaneous un-reduced arrivals over [{offset}, {})",
                offset + len
            ),
        }
    }
}

/// The verdict of [`check_collective`].
#[derive(Debug, Clone, PartialEq)]
pub struct ValueCheck {
    /// The contract that was checked.
    pub spec: CollectiveSpec,
    /// Size of the logical address space the contract covers (`bytes` for
    /// the reducing collectives, `n · bytes` for the gathering ones).
    pub space: u64,
    /// Every defect found; empty means the program provably implements the
    /// collective byte-for-byte.
    pub violations: Vec<Violation>,
}

impl ValueCheck {
    /// Whether the program implements the collective exactly.
    pub fn is_correct(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for ValueCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_correct() {
            return write!(f, "{}: every byte correct", self.spec);
        }
        writeln!(f, "{}: {} violation(s)", self.spec, self.violations.len())?;
        for v in &self.violations {
            writeln!(f, "  - {v}")?;
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    // delivery before fold before snapshot at equal timestamps: a reduce
    // whose dependencies end at time t must see their deliveries, and a copy
    // starting at t must see everything that completed at t
    Deliver = 0,
    Fold = 1,
    Snapshot = 2,
}

/// Timestamps closer than this are treated as simultaneous when diagnosing
/// overwrite races.
const TIE_EPS: f64 = 1e-9;

/// Replays `program` along the engine's schedule (`op_spans`, as returned by
/// [`crate::engine::RunReport`]) and checks the final per-GPU state against
/// the contract of `spec` for a `bytes`-byte collective over `participants`.
///
/// Participant slot ranks (Gather/AllGather layout) are assigned in ascending
/// [`GpuId`] order, matching the lowering's canonical order.
///
/// # Panics
/// Panics if `op_spans` is shorter than the program (pass the spans of the
/// same program you executed).
pub fn check_collective(
    spec: CollectiveSpec,
    program: &Program,
    op_spans: &[(f64, f64)],
    participants: &[GpuId],
    bytes: u64,
) -> ValueCheck {
    assert!(
        op_spans.len() >= program.len(),
        "op_spans must cover every op of the program"
    );
    let mut sorted: Vec<GpuId> = participants.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let n = sorted.len() as u64;

    let gathers = matches!(
        spec,
        CollectiveSpec::Gather { .. } | CollectiveSpec::AllGather
    );
    let space = if gathers { n * bytes } else { bytes };

    // ---- initial resident state ----
    let mut state: BTreeMap<GpuId, GpuState> = BTreeMap::new();
    for (i, &g) in sorted.iter().enumerate() {
        let mut st = GpuState::default();
        if gathers {
            let slot = i as u64 * bytes;
            st.resident.write(slot, slot + bytes, Contributions::one(g));
        } else {
            st.resident.write(0, bytes, Contributions::one(g));
        }
        state.insert(g, st);
    }

    // ---- event-driven replay along the engine's schedule ----
    // each event names the GPU it acts on: a copy's source (snapshot) and
    // destination (delivery), a reduction's GPU (fold)
    let mut events: Vec<(f64, EventKind, usize, GpuId)> = Vec::new();
    for (i, op) in program.ops().enumerate() {
        let (start, end) = op_spans[i];
        match op.kind {
            OpKind::Copy { src, dst, .. } => {
                events.push((start, EventKind::Snapshot, i, src));
                events.push((end, EventKind::Deliver, i, dst));
            }
            OpKind::Reduce { gpu } => events.push((end, EventKind::Fold, i, gpu)),
            OpKind::Compute { .. } | OpKind::TogglePeerAccess { .. } => {}
        }
    }
    // (kind, op) is unique (a copy's two events differ in kind), so the
    // order is total: the GPU never breaks a tie and an unstable sort is
    // exact
    events.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));

    let mut pending: Vec<Option<Vec<(u64, u64, Contributions)>>> = vec![None; program.len()];
    for (time, kind, i, gpu) in events {
        let segs = program.op(OpId(i)).segments;
        match kind {
            EventKind::Snapshot => {
                let st = state.entry(gpu).or_default();
                let mut snapshot = Vec::new();
                for seg in segs {
                    snapshot.extend(st.visible(seg.offset, seg.end()));
                }
                pending[i] = Some(snapshot);
            }
            EventKind::Deliver => {
                let segs = pending[i].take().expect("snapshot precedes delivery");
                state
                    .entry(gpu)
                    .or_default()
                    .staged
                    .push(Arrival { time, segs });
            }
            EventKind::Fold => {
                let st = state.entry(gpu).or_default();
                // each payload segment folds independently (the ranges a
                // well-formed reduce carries are disjoint, so the order
                // cannot matter)
                for seg in segs {
                    let (start, end) = (seg.offset, seg.end());
                    let mut kept: Vec<Arrival> = Vec::with_capacity(st.staged.len());
                    for mut arr in std::mem::take(&mut st.staged) {
                        let mut outside = Vec::new();
                        for (s, e, v) in arr.segs.drain(..) {
                            let (is, ie) = (s.max(start), e.min(end));
                            if is < ie {
                                // the overlapping part is folded and consumed;
                                // the flanks (if any) stay staged untouched
                                st.resident.fold(is, ie, &v);
                                if s < is {
                                    outside.push((s, is, v.clone()));
                                }
                                if ie < e {
                                    outside.push((ie, e, v));
                                }
                            } else {
                                // disjoint from the fold range: keep verbatim
                                outside.push((s, e, v));
                            }
                        }
                        if !outside.is_empty() {
                            arr.segs = outside;
                            kept.push(arr);
                        }
                    }
                    st.staged = kept;
                }
            }
        }
    }

    // ---- postconditions ----
    let mut violations = Vec::new();
    race_check(&state, &mut violations);
    let full = Contributions::each_once(&sorted);
    match spec {
        CollectiveSpec::Broadcast { root } => {
            let want = Contributions::one(root);
            for &g in &sorted {
                expect_range(&state, g, 0, bytes, &want, &mut violations);
            }
        }
        CollectiveSpec::Reduce { root } => {
            expect_range(&state, root, 0, bytes, &full, &mut violations);
        }
        CollectiveSpec::AllReduce => {
            for &g in &sorted {
                expect_range(&state, g, 0, bytes, &full, &mut violations);
            }
        }
        CollectiveSpec::Gather { root } => {
            expect_slots(&state, root, &sorted, bytes, &mut violations);
        }
        CollectiveSpec::AllGather => {
            for &g in &sorted {
                expect_slots(&state, g, &sorted, bytes, &mut violations);
            }
        }
        CollectiveSpec::ReduceScatter => {
            // rank i must hold the fully reduced value exactly once over its
            // canonical shard [⌊i·bytes/n⌋, ⌊(i+1)·bytes/n⌋); the shards tile
            // [0, bytes) exactly, so together they prove the whole reduced
            // buffer exists with no byte double-folded or missing
            for (i, &g) in sorted.iter().enumerate() {
                let start = i as u64 * bytes / n;
                let end = (i as u64 + 1) * bytes / n;
                expect_range(&state, g, start, end, &full, &mut violations);
            }
        }
    }
    ValueCheck {
        spec,
        space,
        violations,
    }
}

/// Checks that `gpu`'s final visible value equals `want` over `[start, end)`.
fn expect_range(
    state: &BTreeMap<GpuId, GpuState>,
    gpu: GpuId,
    start: u64,
    end: u64,
    want: &Contributions,
    violations: &mut Vec<Violation>,
) {
    let Some(st) = state.get(&gpu) else {
        if start < end {
            violations.push(Violation::WrongValue {
                gpu,
                offset: start,
                len: end - start,
                expected: want.clone(),
                found: Contributions::none(),
            });
        }
        return;
    };
    for (s, e, v) in st.visible(start, end) {
        if &v != want {
            violations.push(Violation::WrongValue {
                gpu,
                offset: s,
                len: e - s,
                expected: want.clone(),
                found: v,
            });
        }
    }
}

/// Checks the gathered slot layout at `gpu`: slot `i` must hold exactly the
/// `i`-th participant's contribution.
fn expect_slots(
    state: &BTreeMap<GpuId, GpuState>,
    gpu: GpuId,
    sorted: &[GpuId],
    bytes: u64,
    violations: &mut Vec<Violation>,
) {
    for (i, &src) in sorted.iter().enumerate() {
        let slot = i as u64 * bytes;
        expect_range(
            state,
            gpu,
            slot,
            slot + bytes,
            &Contributions::one(src),
            violations,
        );
    }
}

/// Flags pairs of unfolded arrivals that overlap with different values at
/// indistinguishable delivery times.
///
/// Implemented as an endpoint-sorted interval sweep: every staged segment is
/// sorted by start offset and compared only against the segments still
/// *active* (i.e. spatially overlapping) when it opens, so the cost is
/// `O(m log m + overlapping pairs)` in the total staged-segment count `m` —
/// not the all-pairs compare of arrivals the old checker ran, which went
/// quadratic on large conformance matrices even when nothing overlapped.
/// Value comparison still happens only for temporally-close pairs, exactly
/// like the pairwise definition.
fn race_check(state: &BTreeMap<GpuId, GpuState>, violations: &mut Vec<Violation>) {
    struct SweepSeg<'a> {
        start: u64,
        end: u64,
        time: f64,
        arrival: usize,
        value: &'a Contributions,
    }
    for (&gpu, st) in state {
        let mut segs: Vec<SweepSeg<'_>> = Vec::new();
        for (ai, a) in st.staged.iter().enumerate() {
            for (s, e, v) in &a.segs {
                if s < e {
                    segs.push(SweepSeg {
                        start: *s,
                        end: *e,
                        time: a.time,
                        arrival: ai,
                        value: v,
                    });
                }
            }
        }
        segs.sort_by(|a, b| {
            a.start
                .cmp(&b.start)
                .then(a.end.cmp(&b.end))
                .then(a.arrival.cmp(&b.arrival))
        });
        // indices into `segs` whose ranges are still open at the sweep line
        let mut active: Vec<usize> = Vec::new();
        for i in 0..segs.len() {
            let cur = &segs[i];
            active.retain(|&j| segs[j].end > cur.start);
            for &j in &active {
                let other = &segs[j];
                if other.arrival == cur.arrival {
                    continue; // one arrival never races itself
                }
                if (other.time - cur.time).abs() > TIE_EPS {
                    continue;
                }
                if other.value != cur.value {
                    // overlap is guaranteed: `other` is still active at
                    // `cur.start`
                    let (s, e) = (other.start.max(cur.start), other.end.min(cur.end));
                    violations.push(Violation::AmbiguousOverwrite {
                        gpu,
                        offset: s,
                        len: e - s,
                    });
                }
            }
            active.push(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulator;
    use crate::program::{LinkClass, ProgramBuilder};
    use blink_topology::presets::dgx2;

    fn mb(n: u64) -> u64 {
        n * 1024 * 1024
    }

    fn run(program: &crate::program::Program) -> Vec<(f64, f64)> {
        Simulator::with_defaults(dgx2())
            .run(program)
            .unwrap()
            .op_spans
    }

    /// A correct 3-GPU AllReduce over a chain: reduce 2→1→0, broadcast
    /// 0→1→2, every copy gated on the value it forwards existing.
    fn chain_allreduce(skip_gate: bool) -> crate::program::Program {
        let g = |i: usize| GpuId(i);
        let mut b = ProgramBuilder::new();
        let up = [b.new_stream(), b.new_stream()];
        let down = [b.new_stream(), b.new_stream()];
        let bytes = mb(8);
        let a2 = b.copy(g(2), g(1), bytes, LinkClass::NvLink, up[1], &[], "up 2->1");
        let r1 = b.reduce(g(1), bytes, up[0], &[a2], "red @1");
        let a1 = b.copy(
            g(1),
            g(0),
            bytes,
            LinkClass::NvLink,
            up[0],
            &[r1],
            "up 1->0",
        );
        let r0 = b.reduce(g(0), bytes, up[0], &[a1], "red @0");
        // the broadcast must wait for the final reduction — dropping the
        // dependency is the data race the checker has to catch
        let gate: &[OpId] = if skip_gate { &[] } else { &[r0] };
        let d0 = b.copy(
            g(0),
            g(1),
            bytes,
            LinkClass::NvLink,
            down[0],
            gate,
            "down 0->1",
        );
        b.copy(
            g(1),
            g(2),
            bytes,
            LinkClass::NvLink,
            down[1],
            &[d0],
            "down 1->2",
        );
        b.build().unwrap()
    }

    #[test]
    fn correct_chain_allreduce_passes() {
        let p = chain_allreduce(false);
        let spans = run(&p);
        let parts: Vec<GpuId> = (0..3).map(GpuId).collect();
        let check = check_collective(CollectiveSpec::AllReduce, &p, &spans, &parts, mb(8));
        assert!(check.is_correct(), "{check}");
        assert_eq!(check.space, mb(8));
    }

    #[test]
    fn broadcast_racing_the_reduce_is_caught() {
        // without the r0 gate the engine launches the broadcast immediately,
        // so GPUs 1 and 2 receive the root's *unreduced* buffer
        let p = chain_allreduce(true);
        let spans = run(&p);
        let parts: Vec<GpuId> = (0..3).map(GpuId).collect();
        let check = check_collective(CollectiveSpec::AllReduce, &p, &spans, &parts, mb(8));
        assert!(!check.is_correct(), "the data race must be flagged");
        assert!(check
            .violations
            .iter()
            .any(|v| matches!(v, Violation::WrongValue { gpu, .. } if *gpu == GpuId(2))));
    }

    #[test]
    fn a_double_fold_is_caught_exactly() {
        // GPU 1's contribution reaches GPU 0 twice and both copies are folded
        // — the set-based checker of old could not see this
        let g = |i: usize| GpuId(i);
        let bytes = mb(4);
        let mut b = ProgramBuilder::new();
        let s = b.new_stream();
        let a1 = b.copy(g(1), g(0), bytes, LinkClass::NvLink, s, &[], "up");
        let dup = b.copy(g(1), g(0), bytes, LinkClass::NvLink, s, &[], "dup");
        let red = b.reduce(g(0), bytes, s, &[a1, dup], "red");
        b.copy(g(0), g(1), bytes, LinkClass::NvLink, s, &[red], "down");
        let p = b.build().unwrap();
        let spans = run(&p);
        let parts = [g(0), g(1)];
        let check = check_collective(CollectiveSpec::AllReduce, &p, &spans, &parts, bytes);
        assert!(!check.is_correct());
        let fault = check
            .violations
            .iter()
            .find_map(|v| match v {
                Violation::WrongValue { gpu, found, .. } if *gpu == g(0) => Some(found),
                _ => None,
            })
            .expect("root value must be flagged");
        assert_eq!(fault.count(g(1)), 2, "the duplicate fold is visible");
    }

    #[test]
    fn a_shifted_subrange_is_caught() {
        // two half-buffer flows; the second one delivers its half to the
        // wrong offset, so [0, half) is overwritten twice and [half, 2*half)
        // keeps stale data
        let g = |i: usize| GpuId(i);
        let half = mb(2);
        let mut b = ProgramBuilder::new();
        let s = b.new_stream();
        b.copy_range(g(0), g(1), 0, half, LinkClass::NvLink, s, &[], "lo");
        // BUG: should be offset `half`
        b.copy_range(g(0), g(1), 0, half, LinkClass::NvLink, s, &[], "hi");
        let p = b.build().unwrap();
        let spans = run(&p);
        let parts = [g(0), g(1)];
        let check = check_collective(
            CollectiveSpec::Broadcast { root: g(0) },
            &p,
            &spans,
            &parts,
            2 * half,
        );
        assert!(!check.is_correct());
        assert!(check.violations.iter().any(|v| matches!(
            v,
            Violation::WrongValue { gpu, offset, .. }
                if *gpu == g(1) && *offset == half
        )));
    }

    #[test]
    fn a_missing_subrange_is_caught() {
        let g = |i: usize| GpuId(i);
        let bytes = mb(4);
        let mut b = ProgramBuilder::new();
        let s = b.new_stream();
        // only [0, bytes/2) is broadcast
        b.copy_range(g(0), g(1), 0, bytes / 2, LinkClass::NvLink, s, &[], "half");
        let p = b.build().unwrap();
        let spans = run(&p);
        let check = check_collective(
            CollectiveSpec::Broadcast { root: g(0) },
            &p,
            &spans,
            &[g(0), g(1)],
            bytes,
        );
        assert!(!check.is_correct());
        assert!(check.violations.iter().any(|v| matches!(
            v,
            Violation::WrongValue { gpu, offset, len, .. }
                if *gpu == g(1) && *offset == bytes / 2 && *len == bytes / 2
        )));
    }

    #[test]
    fn gather_slots_are_checked_per_rank() {
        let g = |i: usize| GpuId(i);
        let bytes = mb(2);
        let mut b = ProgramBuilder::new();
        let s = b.new_stream();
        // participants sorted: ranks 0,1,2 = GPUs 0,1,2; root 0 needs slots
        // 1 and 2 delivered into [bytes, 2*bytes) and [2*bytes, 3*bytes)
        b.copy_range(g(1), g(0), bytes, bytes, LinkClass::NvLink, s, &[], "s1");
        b.copy_range(
            g(2),
            g(0),
            2 * bytes,
            bytes,
            LinkClass::NvLink,
            s,
            &[],
            "s2",
        );
        let p = b.build().unwrap();
        let spans = run(&p);
        let parts = [g(0), g(1), g(2)];
        let ok = check_collective(
            CollectiveSpec::Gather { root: g(0) },
            &p,
            &spans,
            &parts,
            bytes,
        );
        assert!(ok.is_correct(), "{ok}");
        assert_eq!(ok.space, 3 * bytes);

        // swap the two slot offsets: each contribution lands in the other's
        // slot — a layout bug a set model cannot see
        let mut b = ProgramBuilder::new();
        let s = b.new_stream();
        b.copy_range(
            g(1),
            g(0),
            2 * bytes,
            bytes,
            LinkClass::NvLink,
            s,
            &[],
            "s1",
        );
        b.copy_range(g(2), g(0), bytes, bytes, LinkClass::NvLink, s, &[], "s2");
        let p = b.build().unwrap();
        let spans = run(&p);
        let bad = check_collective(
            CollectiveSpec::Gather { root: g(0) },
            &p,
            &spans,
            &parts,
            bytes,
        );
        assert!(!bad.is_correct());
    }

    #[test]
    fn reduce_scatter_checks_canonical_shards() {
        let g = |i: usize| GpuId(i);
        let bytes = mb(4);
        let half = bytes / 2;
        // both GPUs fold the other's half and keep their own: GPU 0 owns the
        // canonical shard [0, half), GPU 1 owns [half, bytes)
        let mut b = ProgramBuilder::new();
        let s = b.new_stream();
        let a = b.copy_range(g(1), g(0), 0, half, LinkClass::NvLink, s, &[], "to0");
        b.reduce_range(g(0), 0, half, s, &[a], "r0");
        let c = b.copy_range(g(0), g(1), half, half, LinkClass::NvLink, s, &[], "to1");
        b.reduce_range(g(1), half, half, s, &[c], "r1");
        let p = b.build().unwrap();
        let spans = run(&p);
        let parts = [g(0), g(1)];
        let ok = check_collective(CollectiveSpec::ReduceScatter, &p, &spans, &parts, bytes);
        assert!(ok.is_correct(), "{ok}");

        // drop GPU 1's half: its shard never received GPU 0's contribution
        let mut b = ProgramBuilder::new();
        let s = b.new_stream();
        let a = b.copy_range(g(1), g(0), 0, half, LinkClass::NvLink, s, &[], "to0");
        b.reduce_range(g(0), 0, half, s, &[a], "r0");
        let p = b.build().unwrap();
        let spans = run(&p);
        let bad = check_collective(CollectiveSpec::ReduceScatter, &p, &spans, &parts, bytes);
        assert!(!bad.is_correct());
        assert!(bad.violations.iter().any(|v| matches!(
            v,
            Violation::WrongValue { gpu, offset, .. } if *gpu == g(1) && *offset == half
        )));
    }

    #[test]
    fn a_gpu_left_out_of_the_broadcast_is_caught() {
        let g = |i: usize| GpuId(i);
        let bytes = mb(4);
        let mut b = ProgramBuilder::new();
        let s = b.new_stream();
        // 1 and 2 contribute to 0, but only 1 gets the result back
        let a1 = b.copy(g(1), g(0), bytes, LinkClass::NvLink, s, &[], "up 1");
        let a2 = b.copy(g(2), g(0), bytes, LinkClass::NvLink, s, &[], "up 2");
        let red = b.reduce(g(0), bytes, s, &[a1, a2], "red");
        b.copy(g(0), g(1), bytes, LinkClass::NvLink, s, &[red], "down 1");
        let p = b.build().unwrap();
        let spans = run(&p);
        let parts = [g(0), g(1), g(2)];
        let check = check_collective(CollectiveSpec::AllReduce, &p, &spans, &parts, bytes);
        assert!(!check.is_correct());
        assert!(check
            .violations
            .iter()
            .any(|v| matches!(v, Violation::WrongValue { gpu, .. } if *gpu == g(2))));
    }

    #[test]
    fn range_map_splits_and_folds() {
        let mut m = RangeMap::default();
        m.write(0, 100, Contributions::one(GpuId(0)));
        m.write(25, 50, Contributions::one(GpuId(1)));
        let q = m.query(0, 100);
        assert_eq!(q.len(), 3);
        assert_eq!(q[0], (0, 25, Contributions::one(GpuId(0))));
        assert_eq!(q[1], (25, 50, Contributions::one(GpuId(1))));
        assert_eq!(q[2], (50, 100, Contributions::one(GpuId(0))));
        m.fold(40, 120, &Contributions::one(GpuId(2)));
        // folding into a garbage gap leaves garbage — reducing into
        // uninitialised memory cannot produce a clean value
        let q = m.query(100, 120);
        assert_eq!(q, vec![(100, 120, Contributions::none())]);
        let q = m.query(40, 50);
        let mut want = Contributions::one(GpuId(1));
        want.fold(&Contributions::one(GpuId(2)));
        assert_eq!(q, vec![(40, 50, want)]);
        // gaps query as garbage
        let q = m.query(120, 140);
        assert_eq!(q, vec![(120, 140, Contributions::none())]);
    }

    #[test]
    fn a_fold_into_uninitialised_memory_is_not_laundered() {
        // AllGather chunk space: GPU 0's resident covers only slot 0, so a
        // lowering that *reduces* GPU 1's slot into GPU 0 (instead of
        // overwriting it) folds into garbage — on hardware that is resident
        // garbage plus the arrival, i.e. garbage. The oracle must not report
        // the slot as cleanly delivered.
        let g = |i: usize| GpuId(i);
        let bytes = mb(2);
        let mut b = ProgramBuilder::new();
        let s = b.new_stream();
        let a = b.copy_range(g(1), g(0), bytes, bytes, LinkClass::NvLink, s, &[], "s1");
        // BUG: should be left as an unfolded arrival (overwrite), not reduced
        b.reduce_range(g(0), bytes, bytes, s, &[a], "bogus red");
        let p = b.build().unwrap();
        let spans = run(&p);
        let check = check_collective(
            CollectiveSpec::Gather { root: g(0) },
            &p,
            &spans,
            &[g(0), g(1)],
            bytes,
        );
        assert!(!check.is_correct(), "garbage fold must be rejected");
        assert!(check.violations.iter().any(|v| matches!(
            v,
            Violation::WrongValue { gpu, offset, found, .. }
                if *gpu == g(0) && *offset == bytes && found.is_empty()
        )));
    }

    #[test]
    fn trivial_and_empty_programs() {
        let p = ProgramBuilder::new().build().unwrap();
        // a single participant already holds its own (trivially reduced) data
        let check = check_collective(CollectiveSpec::AllReduce, &p, &[], &[GpuId(3)], mb(1));
        assert!(check.is_correct(), "{check}");
        // zero bytes: nothing to move, nothing to violate
        let check = check_collective(CollectiveSpec::AllReduce, &p, &[], &[GpuId(0), GpuId(1)], 0);
        assert!(check.is_correct());
        // two participants and a non-empty buffer: an empty program is wrong
        let check = check_collective(
            CollectiveSpec::AllReduce,
            &p,
            &[],
            &[GpuId(0), GpuId(1)],
            mb(1),
        );
        assert!(!check.is_correct());
    }
}
