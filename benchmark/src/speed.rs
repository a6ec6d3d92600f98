//! The host-speed probe.
//!
//! The benchmark runs on a vCPU of a shared host, whose speed drifts by tens
//! of percent within seconds as its neighbours load it. A drift that slows
//! a stretch of a run moves every wall-clock metric of that stretch alike,
//! and medians within the run cannot remove it. So a run times a fixed
//! piece of the benchmark's own work between its set-ups and between the
//! rounds of its timed loop; a probe's time over its time on the reference
//! host is the host's slowdown. Every time measured in a set-up or round is
//! divided by that set-up's or round's slowdown (rates multiplied), which
//! states it in reference-host time. The probe is the benchmark's code,
//! identical on every commit, so a change to the program moves the
//! normalised metrics exactly as it moves the raw ones.
//!
//! The probe imitates the program. About two fifths of its time go to small
//! seeded digraphs, on which it computes max-flows by breadth-first
//! augmenting paths and shortest paths with a binary heap, as planning does;
//! the rest goes to allocating, filling and freeing short-lived buffers, as
//! lowering and the oracle do. Measured across processes on the reference
//! host while its neighbours were busy, graph work alone tracked the
//! slowdown of cold planning (the `fleet` tail) but moved too little for the
//! allocation-heavy cache hits that set the `fleet` median; allocation churn
//! alone tracked those. This mix tracked both. Sorting and pointer chasing
//! tracked neither.

use crate::trace::{SpanId, Tracer};
use crate::workload::mix;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// Wall time (µs) of one probe on the reference host, a 2-vCPU x86-64 KVM
/// guest (Xeon, Sapphire Rapids), while its neighbours were quiet: then
/// normalised and measured times agree within a few percent.
pub const REFERENCE_US: f64 = 850.0;
/// Graphs per probe, and short-lived buffers allocated per graph: about
/// 1 ms on the reference host, two fifths of it on the graphs.
const GRAPHS: u64 = 6;
const ALLOCS: u64 = 1024;
/// Vertices and out-edges drawn per vertex of each graph.
const VERTICES: usize = 24;
const OUT_EDGES: usize = 4;
/// Max-flows per graph, from vertex 0 to each of vertices `1..SINKS`.
const SINKS: usize = 8;

/// The probes of one timed loop: one before its first round, one after every
/// round, and any taken inside a round.
#[derive(Debug)]
pub struct Probes {
    /// Every probe's slowdown, in order.
    pub slowdowns: Vec<f64>,
    /// Index of the probe that opened the current round.
    opened: usize,
}

impl Probes {
    /// Probes once, opening the first round.
    pub fn start(tr: &mut Tracer, parent: SpanId) -> Self {
        Probes {
            slowdowns: vec![probe(tr, parent)],
            opened: 0,
        }
    }

    /// Probes inside a round.
    pub fn probe(&mut self, tr: &mut Tracer, parent: SpanId) {
        self.slowdowns.push(probe(tr, parent));
    }

    /// Probes after a round, opening the next, and returns the round's
    /// slowdown: the mean of every probe from the one that opened it to this
    /// one. The host's speed drifts within a run: tracking it round by round
    /// left the `fleet` median half the run-to-run spread that one slowdown
    /// for the whole run left.
    pub fn close_round(&mut self, tr: &mut Tracer, parent: SpanId) -> f64 {
        self.probe(tr, parent);
        let round = &self.slowdowns[self.opened..];
        self.opened = self.slowdowns.len() - 1;
        round.iter().sum::<f64>() / round.len() as f64
    }
}

/// Times one probe, in a `speed_probe` span, and returns its slowdown
/// against the reference host.
fn probe(tr: &mut Tracer, parent: SpanId) -> f64 {
    tr.time("speed_probe", parent, || {
        // untimed: refill the caches the workload's round evicted, so the
        // probe times the host rather than what the round left behind
        black_box(work(black_box(GRAPHS / 2)));
        let t0 = Instant::now();
        black_box(work(black_box(GRAPHS)));
        t0.elapsed().as_secs_f64() * 1e6 / REFERENCE_US
    })
}

/// The probe's fixed work: `graphs` seeded digraphs, each followed by a
/// burst of allocation churn.
fn work(graphs: u64) -> u64 {
    let n = VERTICES;
    let mut acc = 0_u64;
    let mut memo: HashMap<(usize, u64), u32> = HashMap::new();
    for g in 0..graphs {
        let mut cap = vec![0.0_f64; n * n];
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for u in 0..n {
            for e in 0..OUT_EDGES {
                let r = mix(g, u as u64, e as u64);
                let v = (r % n as u64) as usize;
                if v != u && cap[u * n + v] == 0.0 {
                    cap[u * n + v] = 1.0 + (r >> 40) as f64 / 1e6;
                    adj[u].push(v);
                    adj[v].push(u);
                }
            }
        }
        for sink in 1..SINKS {
            let flow = max_flow(&cap, &adj, sink);
            *memo.entry((sink, flow.to_bits() >> 20)).or_default() += 1;
            acc ^= flow.to_bits();
        }
        let dist = shortest_paths(&cap, &adj);
        acc = acc.rotate_left(5) ^ dist.iter().fold(memo.len() as u64, |a, d| a ^ d.to_bits());
        acc ^= churn(g);
    }
    acc
}

/// Allocates, fills and frees `ALLOCS` buffers of seeded sizes.
fn churn(g: u64) -> u64 {
    let mut acc = 0;
    for i in 0..ALLOCS {
        let r = mix(g, i, 7);
        let words = vec![r; 16 + (r % 200) as usize];
        let bytes = vec![r as u8; 64 + (r >> 8) as usize % 500];
        // read through `black_box` so the allocations cannot be elided
        acc ^= black_box(&words)[words.len() / 2] ^ u64::from(black_box(&bytes)[bytes.len() - 1]);
    }
    acc
}

/// Edmonds–Karp max-flow from vertex 0 to `sink`.
fn max_flow(cap: &[f64], adj: &[Vec<usize>], sink: usize) -> f64 {
    let n = adj.len();
    let mut residual = cap.to_vec();
    let mut flow = 0.0;
    loop {
        let mut prev = vec![usize::MAX; n];
        prev[0] = 0;
        let mut queue = VecDeque::from([0]);
        while let Some(u) = queue.pop_front() {
            for &v in &adj[u] {
                if prev[v] == usize::MAX && residual[u * n + v] > 1e-9 {
                    prev[v] = u;
                    queue.push_back(v);
                }
            }
        }
        if prev[sink] == usize::MAX {
            return flow;
        }
        let mut bottleneck = f64::INFINITY;
        let mut v = sink;
        while v != 0 {
            bottleneck = bottleneck.min(residual[prev[v] * n + v]);
            v = prev[v];
        }
        let mut v = sink;
        while v != 0 {
            residual[prev[v] * n + v] -= bottleneck;
            residual[v * n + prev[v]] += bottleneck;
            v = prev[v];
        }
        flow += bottleneck;
    }
}

/// Dijkstra from vertex 0, each edge weighing its capacity plus one half.
fn shortest_paths(cap: &[f64], adj: &[Vec<usize>]) -> Vec<f64> {
    let n = adj.len();
    let mut dist = vec![f64::INFINITY; n];
    dist[0] = 0.0;
    // non-negative f64 bits order like the values
    let mut heap = BinaryHeap::from([Reverse((0_u64, 0_usize))]);
    while let Some(Reverse((bits, u))) = heap.pop() {
        let d = f64::from_bits(bits);
        if d > dist[u] {
            continue;
        }
        for &v in &adj[u] {
            let next = d + cap[u * n + v] + 0.5;
            if next < dist[v] {
                dist[v] = next;
                heap.push(Reverse((next.to_bits(), v)));
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_is_deterministic_work() {
        assert_eq!(work(3), work(3));
        assert_ne!(work(3), work(4));
    }

    #[test]
    fn max_flow_and_shortest_paths_on_a_diamond() {
        // 0 → 1 → 3 and 0 → 2 → 3, capacities 1 and 2 on the two halves
        let n = 4;
        let mut cap = vec![0.0; n * n];
        let mut adj = vec![Vec::new(); n];
        for (u, v, c) in [(0, 1, 1.0), (1, 3, 1.0), (0, 2, 2.0), (2, 3, 2.0)] {
            cap[u * n + v] = c;
            adj[u].push(v);
            adj[v].push(u);
        }
        assert_eq!(max_flow(&cap, &adj, 3), 3.0);
        assert_eq!(shortest_paths(&cap, &adj), vec![0.0, 1.5, 2.5, 3.0]);
    }

    #[test]
    fn a_probe_is_timed_in_its_own_span() {
        let mut tr = Tracer::new(true);
        let root = tr.open("run", None);
        let slowdown = probe(&mut tr, root);
        tr.close(root);
        assert!(slowdown.is_finite() && slowdown > 0.0);
        // the span also covers the untimed warm-up pass
        assert!(tr.self_times()["speed_probe"] > slowdown * REFERENCE_US);
    }

    #[test]
    fn a_round_is_charged_the_mean_of_the_probes_around_and_inside_it() {
        let mut tr = Tracer::new(false);
        let mut probes = Probes::start(&mut tr, 0);
        let first = probes.close_round(&mut tr, 0);
        probes.probe(&mut tr, 0);
        let second = probes.close_round(&mut tr, 0);
        let s = &probes.slowdowns;
        assert_eq!(s.len(), 4);
        assert!(s.iter().all(|&x| x.is_finite() && x > 0.0));
        assert_eq!(first, (s[0] + s[1]) / 2.0);
        assert_eq!(second, (s[1] + s[2] + s[3]) / 3.0);
    }
}
