//! Builders for the paper's micro-benchmark traffic patterns (Section 2.2 and
//! Appendix A): chains, fan-in/fan-out, MIMO and MCA.
//!
//! Each builder produces a chunked, pipelined [`Program`] mirroring how the
//! authors issued `cudaMemcpy`/reduction calls on real hardware: one stream
//! per link, one stream per reduction site sharing the outgoing copy's stream
//! (so that reduce-and-forward pays the kernel-launch penalty observed in
//! Figure 7), and a per-chunk dependency from a hop's arrival to the next
//! hop's departure.

use crate::program::{LinkClass, OpId, Program, ProgramBuilder, ProgramError, StreamId};
use blink_topology::GpuId;

/// How many chunks a buffer is divided into for pipelining. The paper's
/// adaptive scheme (Section 4.2.1) converges to a few MB per chunk; the
/// micro-benchmarks use a fixed granularity.
pub const DEFAULT_CHUNKS: u64 = 32;

fn chunk_sizes(total_bytes: u64, chunks: u64) -> Vec<u64> {
    let chunks = chunks.max(1).min(total_bytes.max(1));
    let base = total_bytes / chunks;
    let rem = total_bytes % chunks;
    (0..chunks)
        .map(|i| if i < rem { base + 1 } else { base })
        .filter(|&b| b > 0)
        .collect()
}

/// Chain forward (Figure 23(a)): the head GPU streams its buffer down the
/// chain; every intermediate GPU forwards each chunk as soon as it arrives.
pub fn chain_forward(chain: &[GpuId], bytes: u64, chunks: u64) -> Result<Program, ProgramError> {
    let mut b = ProgramBuilder::new();
    if chain.len() >= 2 {
        let streams: Vec<StreamId> = (0..chain.len() - 1).map(|_| b.new_stream()).collect();
        for sz in chunk_sizes(bytes, chunks) {
            let mut arrival: Option<OpId> = None;
            for hop in 0..chain.len() - 1 {
                let id = b.copy(
                    chain[hop],
                    chain[hop + 1],
                    sz,
                    LinkClass::NvLink,
                    streams[hop],
                    arrival.as_slice(),
                    "fwd",
                );
                arrival = Some(id);
            }
        }
    }
    b.build()
}

/// Chain reduce+forward (Figure 6 / 23(b)): every GPU owns data; on receiving
/// a chunk it reduces it with its own and forwards the partial sum.
pub fn chain_reduce_forward(
    chain: &[GpuId],
    bytes: u64,
    chunks: u64,
) -> Result<Program, ProgramError> {
    let mut b = ProgramBuilder::new();
    if chain.len() >= 2 {
        let streams: Vec<StreamId> = (0..chain.len() - 1).map(|_| b.new_stream()).collect();
        for sz in chunk_sizes(bytes, chunks) {
            let mut arrival: Option<OpId> = None;
            for hop in 0..chain.len() - 1 {
                // intermediate GPUs reduce the incoming chunk with local data
                // before forwarding; the reduction shares the outgoing stream.
                let mut dep = arrival;
                if hop > 0 {
                    dep = Some(b.reduce(chain[hop], sz, streams[hop], dep.as_slice(), "red"));
                }
                let id = b.copy(
                    chain[hop],
                    chain[hop + 1],
                    sz,
                    LinkClass::NvLink,
                    streams[hop],
                    dep.as_slice(),
                    "rf",
                );
                arrival = Some(id);
            }
        }
    }
    b.build()
}

/// Chain reduce-broadcast (Figure 23(c)): reduce+forward toward the tail, then
/// forward the final result back toward the head — the chain-shaped AllReduce.
pub fn chain_reduce_broadcast(
    chain: &[GpuId],
    bytes: u64,
    chunks: u64,
) -> Result<Program, ProgramError> {
    let mut b = ProgramBuilder::new();
    if chain.len() >= 2 {
        let fwd_streams: Vec<StreamId> = (0..chain.len() - 1).map(|_| b.new_stream()).collect();
        let back_streams: Vec<StreamId> = (0..chain.len() - 1).map(|_| b.new_stream()).collect();
        for sz in chunk_sizes(bytes, chunks) {
            // reduce toward the tail
            let mut arrival: Option<OpId> = None;
            for hop in 0..chain.len() - 1 {
                let mut dep = arrival;
                if hop > 0 {
                    let stream = fwd_streams[hop];
                    dep = Some(b.reduce(chain[hop], sz, stream, dep.as_slice(), "red"));
                }
                let id = b.copy(
                    chain[hop],
                    chain[hop + 1],
                    sz,
                    LinkClass::NvLink,
                    fwd_streams[hop],
                    dep.as_slice(),
                    "up",
                );
                arrival = Some(id);
            }
            // final reduction at the tail, then broadcast back down
            let tail = chain.len() - 1;
            let final_red = b.reduce(
                chain[tail],
                sz,
                back_streams[tail - 1],
                arrival.as_slice(),
                "final red",
            );
            let mut back_arrival = final_red;
            for hop in (0..chain.len() - 1).rev() {
                back_arrival = b.copy(
                    chain[hop + 1],
                    chain[hop],
                    sz,
                    LinkClass::NvLink,
                    back_streams[hop],
                    &[back_arrival],
                    "down",
                );
            }
        }
    }
    b.build()
}

/// Fan-in forward (Figure 25(a)): `sources` each stream their buffer to
/// `center`, which forwards everything to `sink`.
pub fn fan_in_forward(
    sources: &[GpuId],
    center: GpuId,
    sink: GpuId,
    bytes_per_source: u64,
    chunks: u64,
) -> Result<Program, ProgramError> {
    let mut b = ProgramBuilder::new();
    let out_stream = b.new_stream();
    for &src in sources {
        let in_stream = b.new_stream();
        for sz in chunk_sizes(bytes_per_source, chunks) {
            let arr = b.copy(src, center, sz, LinkClass::NvLink, in_stream, &[], "in");
            b.copy(
                center,
                sink,
                sz,
                LinkClass::NvLink,
                out_stream,
                &[arr],
                "out",
            );
        }
    }
    b.build()
}

/// Fan-in reduce+forward (Figure 25(b)): as [`fan_in_forward`], but the centre
/// reduces each incoming chunk with its own data before forwarding the single
/// combined stream.
pub fn fan_in_reduce_forward(
    sources: &[GpuId],
    center: GpuId,
    sink: GpuId,
    bytes: u64,
    chunks: u64,
) -> Result<Program, ProgramError> {
    let mut b = ProgramBuilder::new();
    let out_stream = b.new_stream();
    let in_streams: Vec<StreamId> = sources.iter().map(|_| b.new_stream()).collect();
    for sz in chunk_sizes(bytes, chunks) {
        let mut arrivals = Vec::new();
        for (&src, &in_stream) in sources.iter().zip(&in_streams) {
            arrivals.push(b.copy(src, center, sz, LinkClass::NvLink, in_stream, &[], "in"));
        }
        let red = b.reduce(center, sz, out_stream, &arrivals, "red");
        b.copy(
            center,
            sink,
            sz,
            LinkClass::NvLink,
            out_stream,
            &[red],
            "out",
        );
    }
    b.build()
}

/// Fan-out forward (Figure 25(c)): `source` streams to `center`, which
/// multicasts every chunk to all `sinks`.
pub fn fan_out_forward(
    source: GpuId,
    center: GpuId,
    sinks: &[GpuId],
    bytes: u64,
    chunks: u64,
) -> Result<Program, ProgramError> {
    let mut b = ProgramBuilder::new();
    let in_stream = b.new_stream();
    let out_streams: Vec<StreamId> = sinks.iter().map(|_| b.new_stream()).collect();
    for sz in chunk_sizes(bytes, chunks) {
        let arr = b.copy(source, center, sz, LinkClass::NvLink, in_stream, &[], "in");
        for (k, &sink) in sinks.iter().enumerate() {
            b.copy(
                center,
                sink,
                sz,
                LinkClass::NvLink,
                out_streams[k],
                &[arr],
                "out",
            );
        }
    }
    b.build()
}

/// Multi-input multi-output (Figure 8(a)): two producers send to a centre GPU,
/// which reduces each stream with local data and forwards the two results to
/// two distinct consumers.
pub fn mimo(
    producers: (GpuId, GpuId),
    center: GpuId,
    consumers: (GpuId, GpuId),
    bytes_per_flow: u64,
    chunks: u64,
) -> Result<Program, ProgramError> {
    let mut b = ProgramBuilder::new();
    let flows = [(producers.0, consumers.0), (producers.1, consumers.1)];
    for (src, dst) in flows {
        let in_stream = b.new_stream();
        let out_stream = b.new_stream();
        for sz in chunk_sizes(bytes_per_flow, chunks) {
            let arr = b.copy(
                src,
                center,
                sz,
                LinkClass::NvLink,
                in_stream,
                &[],
                "mimo in",
            );
            let red = b.reduce(center, sz, out_stream, &[arr], "mimo red");
            b.copy(
                center,
                dst,
                sz,
                LinkClass::NvLink,
                out_stream,
                &[red],
                "mimo out",
            );
        }
    }
    b.build()
}

/// Multi-chain aggregation (Figure 8(b)): two reduce+forward chains merge at a
/// centre GPU, which reduces both partial results and forwards the combination
/// to the sink.
pub fn mca(
    chain_a: &[GpuId],
    chain_b: &[GpuId],
    center: GpuId,
    sink: GpuId,
    bytes: u64,
    chunks: u64,
) -> Result<Program, ProgramError> {
    let mut b = ProgramBuilder::new();
    let a_streams: Vec<StreamId> = (0..chain_a.len()).map(|_| b.new_stream()).collect();
    let b_streams: Vec<StreamId> = (0..chain_b.len()).map(|_| b.new_stream()).collect();
    let out_stream = b.new_stream();

    for sz in chunk_sizes(bytes, chunks) {
        let run_chain = |builder: &mut ProgramBuilder,
                         chain: &[GpuId],
                         streams: &[StreamId],
                         (red_label, copy_label): (&'static str, &'static str)|
         -> Option<OpId> {
            let mut arrival: Option<OpId> = None;
            for hop in 0..chain.len() {
                let next = if hop + 1 < chain.len() {
                    chain[hop + 1]
                } else {
                    center
                };
                let mut dep = arrival;
                if hop > 0 {
                    let red =
                        builder.reduce(chain[hop], sz, streams[hop], dep.as_slice(), red_label);
                    dep = Some(red);
                }
                arrival = Some(builder.copy(
                    chain[hop],
                    next,
                    sz,
                    LinkClass::NvLink,
                    streams[hop],
                    dep.as_slice(),
                    copy_label,
                ));
            }
            arrival
        };
        let a_arr = run_chain(&mut b, chain_a, &a_streams, ("mca-a red", "mca-a"));
        let b_arr = run_chain(&mut b, chain_b, &b_streams, ("mca-b red", "mca-b"));
        let deps: Vec<OpId> = [a_arr, b_arr].into_iter().flatten().collect();
        let red = b.reduce(center, sz, out_stream, &deps, "mca merge");
        b.copy(
            center,
            sink,
            sz,
            LinkClass::NvLink,
            out_stream,
            &[red],
            "mca out",
        );
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulator;
    use blink_topology::presets::dgx2;

    fn mb(n: u64) -> u64 {
        n * 1024 * 1024
    }

    /// The DGX-2 preset is convenient for patterns because every GPU pair has
    /// an NVLink-class connection; bandwidths there are per-pair 138 GB/s with
    /// a 138 GB/s port cap, so single chains move at port speed.
    fn sim16() -> Simulator {
        Simulator::with_defaults(dgx2())
    }

    fn gpus(n: usize) -> Vec<GpuId> {
        (0..n).map(GpuId).collect()
    }

    #[test]
    fn chunk_sizes_conserve_bytes() {
        for (total, chunks) in [(1000u64, 7u64), (5, 32), (0, 4), (1 << 20, 32)] {
            let sizes = chunk_sizes(total, chunks);
            assert_eq!(sizes.iter().sum::<u64>(), total);
        }
    }

    #[test]
    fn chain_forward_throughput_stays_high_with_depth() {
        let sim = sim16();
        let bytes = mb(100);
        let t3 = sim
            .run(&chain_forward(&gpus(3), bytes, DEFAULT_CHUNKS).unwrap())
            .unwrap();
        let t8 = sim
            .run(&chain_forward(&gpus(8), bytes, DEFAULT_CHUNKS).unwrap())
            .unwrap();
        let bw3 = t3.algorithmic_bandwidth_gbps(bytes);
        let bw8 = t8.algorithmic_bandwidth_gbps(bytes);
        assert!(bw3 > 100.0, "bw3 = {bw3}");
        assert!(bw8 > 0.85 * bw3, "bw8 = {bw8} vs bw3 = {bw3}");
    }

    /// A valid NVLink path through the DGX-1V (see Figure 1): every
    /// consecutive pair is connected.
    fn dgx1v_chain(n: usize) -> Vec<GpuId> {
        [0usize, 1, 2, 3, 7, 6, 5, 4][..n]
            .iter()
            .map(|&i| GpuId(i))
            .collect()
    }

    #[test]
    fn reduce_forward_is_slower_than_forward_on_dgx1v() {
        // Figure 7 vs Appendix A: reduce+forward loses ~15% against pure
        // forwarding because the reduction kernel shares the outgoing stream.
        let sim = Simulator::with_defaults(blink_topology::presets::dgx1v());
        let bytes = mb(100);
        let fwd = sim
            .run(&chain_forward(&dgx1v_chain(6), bytes, DEFAULT_CHUNKS).unwrap())
            .unwrap()
            .algorithmic_bandwidth_gbps(bytes);
        let rf = sim
            .run(&chain_reduce_forward(&dgx1v_chain(6), bytes, DEFAULT_CHUNKS).unwrap())
            .unwrap()
            .algorithmic_bandwidth_gbps(bytes);
        assert!(
            rf < fwd,
            "reduce+forward {rf} should be below forward {fwd}"
        );
        assert!(
            rf > 0.6 * fwd,
            "penalty should be moderate, got {rf} vs {fwd}"
        );
        // absolute numbers should land near the paper's 18-22 GB/s band
        assert!((15.0..=24.0).contains(&rf), "rf = {rf}");
        assert!((18.0..=24.0).contains(&fwd), "fwd = {fwd}");
    }

    #[test]
    fn reduce_broadcast_is_about_half_of_forward() {
        let sim = sim16();
        let bytes = mb(100);
        let fwd = sim
            .run(&chain_forward(&gpus(4), bytes, DEFAULT_CHUNKS).unwrap())
            .unwrap()
            .algorithmic_bandwidth_gbps(bytes);
        let rb = sim
            .run(&chain_reduce_broadcast(&gpus(4), bytes, DEFAULT_CHUNKS).unwrap())
            .unwrap()
            .algorithmic_bandwidth_gbps(bytes);
        assert!(rb < 0.75 * fwd, "reduce-broadcast {rb} vs forward {fwd}");
        assert!(rb > 0.3 * fwd);
    }

    #[test]
    fn small_transfers_lose_throughput_to_launch_overhead() {
        let sim = sim16();
        let small = mb(1);
        let large = mb(256);
        let bw_small = sim
            .run(&chain_forward(&gpus(4), small, DEFAULT_CHUNKS).unwrap())
            .unwrap()
            .algorithmic_bandwidth_gbps(small);
        let bw_large = sim
            .run(&chain_forward(&gpus(4), large, DEFAULT_CHUNKS).unwrap())
            .unwrap()
            .algorithmic_bandwidth_gbps(large);
        assert!(
            bw_small < 0.7 * bw_large,
            "small {bw_small} vs large {bw_large}"
        );
    }

    #[test]
    fn mimo_and_mca_build_and_run() {
        let sim = sim16();
        let bytes = mb(64);
        let mimo_prog = mimo(
            (GpuId(1), GpuId(2)),
            GpuId(3),
            (GpuId(4), GpuId(5)),
            bytes,
            DEFAULT_CHUNKS,
        )
        .unwrap();
        let mca_prog = mca(
            &[GpuId(1)],
            &[GpuId(2)],
            GpuId(3),
            GpuId(4),
            bytes,
            DEFAULT_CHUNKS,
        )
        .unwrap();
        let r1 = sim.run(&mimo_prog).unwrap();
        let r2 = sim.run(&mca_prog).unwrap();
        assert!(r1.total_us > 0.0);
        assert!(r2.total_us > 0.0);
        // per-flow MIMO bandwidth should be below a raw single link but not
        // catastrophically so (the paper reports ~15-20% below peak)
        let per_flow = r1.algorithmic_bandwidth_gbps(bytes);
        assert!(per_flow > 30.0, "per flow {per_flow}");
    }

    #[test]
    fn fan_patterns_build_and_run() {
        let sim = sim16();
        let bytes = mb(32);
        let f1 = fan_in_forward(
            &[GpuId(1), GpuId(2), GpuId(3)],
            GpuId(4),
            GpuId(5),
            bytes,
            16,
        )
        .unwrap();
        let f2 = fan_in_reduce_forward(
            &[GpuId(1), GpuId(2), GpuId(3)],
            GpuId(4),
            GpuId(5),
            bytes,
            16,
        )
        .unwrap();
        let f3 = fan_out_forward(
            GpuId(5),
            GpuId(4),
            &[GpuId(1), GpuId(2), GpuId(3)],
            bytes,
            16,
        )
        .unwrap();
        for p in [f1, f2, f3] {
            let r = sim.run(&p).unwrap();
            assert!(r.total_us > 0.0);
        }
    }

    #[test]
    fn degenerate_chains_are_empty_programs() {
        assert!(chain_forward(&gpus(1), mb(1), 8).unwrap().is_empty());
        assert!(chain_reduce_forward(&[], mb(1), 8).unwrap().is_empty());
    }
}
