//! Preset topologies for the hardware platforms evaluated in the Blink paper.
//!
//! * [`dgx1p`] — NVIDIA DGX-1 with P100 GPUs: the "hybrid mesh-cube" NVLink
//!   Gen1 wiring of Figure 1 (solid lines), 4 NVLink bricks per GPU.
//! * [`dgx1v`] — NVIDIA DGX-1 with V100 GPUs (e.g. AWS p3.16xlarge): same
//!   neighbour structure, but 6 bricks per GPU — eight of the GPU pairs get a
//!   second NVLink lane (the red dashed lines in Figure 1).
//! * [`dgx2`] — NVIDIA DGX-2: 16 V100s on a non-blocking NVSwitch fabric,
//!   6 NVLink bricks (~138 GB/s per direction) of injection capacity per GPU.
//! * [`multi_server`] — several DGX-1V servers connected by a commodity
//!   network (40 Gb/s by default, configurable for the paper's 100/400 Gb/s
//!   projections in Figure 22(b)).
//!
//! Every preset also contains a PCIe mesh: GPUs attached to the same PCIe
//! root complex (GPUs 0–3 and 4–7 on a DGX-1) can reach each other over PCIe
//! at an effective rate of ~5 GB/s, and cross-complex traffic over
//! QPI/UPI at ~4 GB/s. These are *effective* GPU-to-GPU figures (the paper's
//! "PCIe has roughly half the bandwidth of NVLink" approximation), not raw
//! PCIe 3.0 x16 numbers, because the switch hierarchy and host bridges are
//! shared.

use crate::topology::listed_name;
use crate::{GpuId, GpuInfo, Link, LinkKind, ServerId, Topology, TopologyError};
use std::collections::BTreeMap;

/// Effective GPU-to-GPU PCIe bandwidth within one PCIe root complex (GB/s).
pub const PCIE_SAME_COMPLEX_GBPS: f64 = 5.0;
/// Effective GPU-to-GPU PCIe bandwidth across root complexes / QPI (GB/s).
pub const PCIE_CROSS_COMPLEX_GBPS: f64 = 4.0;
/// Per-direction injection capacity of a DGX-2 GPU into the NVSwitch fabric.
pub const DGX2_GPU_INJECTION_GBPS: f64 = 138.0;
/// Default cross-server NIC bandwidth: 40 Gb/s Ethernet ≈ 5 GB/s.
pub const DEFAULT_NIC_GBPS: f64 = 5.0;

/// The NVLink neighbour pairs shared by DGX-1P and DGX-1V (Figure 1, solid
/// lines). Each pair is a single NVLink brick on the P100 generation.
pub const DGX1_NVLINK_PAIRS: [(usize, usize); 16] = [
    // quad {0,1,2,3}: fully connected
    (0, 1),
    (0, 2),
    (0, 3),
    (1, 2),
    (1, 3),
    (2, 3),
    // quad {4,5,6,7}: fully connected
    (4, 5),
    (4, 6),
    (4, 7),
    (5, 6),
    (5, 7),
    (6, 7),
    // cross-quad "cube" edges
    (0, 4),
    (1, 5),
    (2, 6),
    (3, 7),
];

/// GPU pairs that receive a *second* NVLink brick on the V100 generation
/// (Figure 1, red dashed lines). With these, every V100 uses all 6 bricks.
pub const DGX1V_DOUBLE_PAIRS: [(usize, usize); 8] = [
    (0, 3),
    (0, 4),
    (1, 2),
    (1, 5),
    (2, 3),
    (4, 7),
    (5, 6),
    (6, 7),
];

/// A single DGX-1 server with P100 GPUs (NVLink Gen1, 4 bricks per GPU).
pub fn dgx1p() -> Topology {
    build_servers("dgx-1p".into(), ServerKind::Dgx1P, None, &[(0, 0xff)])
}

/// A single DGX-1 server with V100 GPUs (NVLink Gen2, 6 bricks per GPU).
///
/// This matches the AWS `p3.16xlarge` instance used throughout the paper's
/// evaluation.
pub fn dgx1v() -> Topology {
    build_servers("dgx-1v".into(), ServerKind::Dgx1V, None, &[(0, 0xff)])
}

/// A DGX-2: 16 V100 GPUs connected through a non-blocking NVSwitch fabric.
///
/// The fabric is modelled as a complete graph of [`LinkKind::NvSwitch`] edges
/// whose per-pair capacity equals the full per-GPU injection bandwidth
/// (any single pair may use all six bricks), together with a per-GPU
/// injection/ejection cap of [`DGX2_GPU_INJECTION_GBPS`] that the simulator
/// and the cost models enforce. PCIe links are included as on the DGX-1, with
/// GPUs 0–7 and 8–15 on the two root complexes.
pub fn dgx2() -> Topology {
    build_servers("dgx-2".into(), ServerKind::Dgx2, None, &[(0, 0xffff)])
}

/// Effective PCIe bandwidth between local GPUs `i` and `j` on a server whose
/// root complexes each hold `complex_size` GPUs.
fn dgx_pcie_gbps(i: usize, j: usize, complex_size: usize) -> f64 {
    if (i < complex_size) == (j < complex_size) {
        PCIE_SAME_COMPLEX_GBPS
    } else {
        PCIE_CROSS_COMPLEX_GBPS
    }
}

/// Kind of server replicated by [`multi_server`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerKind {
    /// DGX-1 with P100 GPUs.
    Dgx1P,
    /// DGX-1 with V100 GPUs.
    Dgx1V,
    /// DGX-2 (16 V100s on an NVSwitch fabric).
    Dgx2,
}

/// Number of GPUs on one server of the given [`ServerKind`].
pub fn gpus_per_server(kind: ServerKind) -> usize {
    match kind {
        ServerKind::Dgx1P | ServerKind::Dgx1V => 8,
        ServerKind::Dgx2 => 16,
    }
}

fn kind_name(kind: ServerKind) -> &'static str {
    match kind {
        ServerKind::Dgx1P => "dgx-1p",
        ServerKind::Dgx1V => "dgx-1v",
        ServerKind::Dgx2 => "dgx-2",
    }
}

/// One server's share of a topology [`build_servers`] makes: the server's
/// index and a bitmask of its local GPU indices (bit `l` for local GPU `l`;
/// a server holds at most 16 GPUs).
type ServerMask = (usize, u32);

/// The local GPU indices set in `mask`, ascending.
fn locals(kind: ServerKind, mask: u32) -> impl Iterator<Item = usize> + Clone {
    (0..gpus_per_server(kind)).filter(move |&l| mask & (1 << l) != 0)
}

/// Directed intra-server links [`build_servers`] makes among the GPUs of
/// `mask`.
fn intra_links(kind: ServerKind, mask: u32) -> usize {
    let k = mask.count_ones() as usize;
    let pairs = k * k.saturating_sub(1) / 2;
    let here = |l: usize| mask & (1 << l) != 0;
    match kind {
        ServerKind::Dgx1P | ServerKind::Dgx1V => {
            let nvlink = DGX1_NVLINK_PAIRS
                .iter()
                .filter(|&&(a, b)| here(a) && here(b))
                .count();
            2 * (nvlink + pairs)
        }
        // an NVSwitch and a PCIe link per pair
        ServerKind::Dgx2 => 4 * pairs,
    }
}

/// The topology of the GPUs `servers` select, in one pass: every preset,
/// [`multi_server`] and [`placement_topology`] are built here.
///
/// `servers` ascend by index, each with a non-empty mask, and every
/// server's GPU ids `gpus_per_server(kind) * s + l` fit a `usize`; the
/// callers guarantee it, so no link is checked as it is added
/// ([`Topology::add_link`] would find every endpoint present and every
/// capacity finite and positive). The GPUs come in ascending id order.
/// Per server, in server order, come its intra-server links in preset
/// enumeration order restricted to its GPUs — on a DGX-1 the NVLink pairs of
/// [`DGX1_NVLINK_PAIRS`] (two lanes for [`DGX1V_DOUBLE_PAIRS`] on a V100),
/// then a PCIe link per pair; on a DGX-2 an NVSwitch and a PCIe link per
/// pair — each as two directed links, forward first. Then, for each pair of
/// servers in order, a [`LinkKind::Network`] duplex of bandwidth `nic_gbps`
/// per GPU pair. Each server gets the NIC `nic_gbps` when one is given (a
/// topology of several servers needs one) and, on a DGX-2, every GPU the
/// fabric cap [`DGX2_GPU_INJECTION_GBPS`].
fn build_servers(
    name: String,
    kind: ServerKind,
    nic_gbps: Option<f64>,
    servers: &[ServerMask],
) -> Topology {
    let gps = gpus_per_server(kind);
    let counts = servers.iter().map(|&(_, mask)| mask.count_ones() as usize);
    let n: usize = counts.clone().sum();
    let intra: usize = servers
        .iter()
        .map(|&(_, mask)| intra_links(kind, mask))
        .sum();
    let cross = n * n - counts.map(|k| k * k).sum::<usize>();
    let mut gpus = Vec::with_capacity(n);
    let mut links = Vec::with_capacity(intra + cross);
    let mut duplex = |link: Link| {
        links.push(link);
        links.push(link.reversed());
    };
    let mut gpu_caps = BTreeMap::new();
    let mut server_nics = BTreeMap::new();
    for &(s, mask) in servers {
        let base = gps * s;
        let gpu = |l: usize| GpuId(base + l);
        for l in locals(kind, mask) {
            gpus.push(GpuInfo {
                id: gpu(l),
                server: ServerId(s),
                local_index: l,
            });
        }
        let pairs = locals(kind, mask).flat_map(|i| {
            locals(kind, mask)
                .filter(move |&j| j > i)
                .map(move |j| (i, j))
        });
        match kind {
            ServerKind::Dgx1P | ServerKind::Dgx1V => {
                let (link_kind, doubled) = match kind {
                    ServerKind::Dgx1P => (LinkKind::NvLinkGen1, false),
                    _ => (LinkKind::NvLinkGen2, true),
                };
                for &(a, b) in &DGX1_NVLINK_PAIRS {
                    if mask & (1 << a) == 0 || mask & (1 << b) == 0 {
                        continue;
                    }
                    let lanes = if doubled && DGX1V_DOUBLE_PAIRS.contains(&(a, b)) {
                        2
                    } else {
                        1
                    };
                    duplex(Link::new(gpu(a), gpu(b), link_kind).with_lanes(lanes));
                }
                for (i, j) in pairs {
                    let pcie = dgx_pcie_gbps(i, j, 4);
                    duplex(Link::new(gpu(i), gpu(j), LinkKind::Pcie).with_bandwidth(pcie));
                }
            }
            ServerKind::Dgx2 => {
                for (i, j) in pairs {
                    let fabric = DGX2_GPU_INJECTION_GBPS;
                    duplex(Link::new(gpu(i), gpu(j), LinkKind::NvSwitch).with_bandwidth(fabric));
                    let pcie = dgx_pcie_gbps(i, j, 8);
                    duplex(Link::new(gpu(i), gpu(j), LinkKind::Pcie).with_bandwidth(pcie));
                }
                for l in locals(kind, mask) {
                    gpu_caps.insert(gpu(l), DGX2_GPU_INJECTION_GBPS);
                }
            }
        }
        if let Some(nic) = nic_gbps {
            server_nics.insert(ServerId(s), nic);
        }
    }
    if let Some(nic) = nic_gbps {
        for (a, &(s1, m1)) in servers.iter().enumerate() {
            for &(s2, m2) in &servers[a + 1..] {
                for i in locals(kind, m1) {
                    for j in locals(kind, m2) {
                        let (src, dst) = (GpuId(gps * s1 + i), GpuId(gps * s2 + j));
                        duplex(Link::new(src, dst, LinkKind::Network).with_bandwidth(nic));
                    }
                }
            }
        }
    }
    Topology::from_parts(name, gpus, links, gpu_caps, server_nics)
}

/// A cluster of `n_servers` identical servers connected by a network.
///
/// GPU ids are globally contiguous: server `s` hosts GPUs
/// `g*s .. g*s + g` where `g = `[`gpus_per_server`]`(kind)`. Every
/// cross-server GPU pair is connected by a pair of [`LinkKind::Network`]
/// edges with per-direction bandwidth `nic_gbps`; the per-server NIC capacity
/// (also `nic_gbps`) is recorded via [`Topology::set_server_nic`] so that the
/// simulator can model the NIC as a shared resource rather than a per-pair
/// pipe.
///
/// # Panics
/// When `nic_gbps` is not a finite positive number, whatever the server
/// count: a cluster cannot be wired with it, and recording it as a NIC
/// would mislead the simulator. [`placement_topology`] returns
/// [`TopologyError::InvalidNicBandwidth`] for the same input instead.
pub fn multi_server(n_servers: usize, kind: ServerKind, nic_gbps: f64) -> Topology {
    assert!(
        nic_gbps.is_finite() && nic_gbps > 0.0,
        "multi_server: NIC bandwidth must be a finite positive number, got {nic_gbps}"
    );
    let name = format!("{}x{}-{}gbps", n_servers, kind_name(kind), nic_gbps);
    let all = u32::MAX >> (32 - gpus_per_server(kind));
    let servers: Vec<ServerMask> = (0..n_servers).map(|s| (s, all)).collect();
    build_servers(name, kind, Some(nic_gbps), &servers)
}

/// Builds the topology *induced by a scheduler placement* directly from its
/// per-server slices, without materialising the whole cluster: only the
/// allocated GPUs, the intra-server links between co-located allocated GPUs,
/// the cross-server [`LinkKind::Network`] mesh between the slices, the DGX-2
/// fabric caps and the involved servers' NICs.
///
/// `slices` uses the `blink-sched` placement convention: `(server index,
/// global GPU ids on that server)`, with GPU `g` of server `s` carrying the
/// global id `gpus_per_server(kind) * s + g`; slices may list a server more
/// than once and its GPUs in any order. The result is **identical** (same
/// GPU order, same link order, same caps — hence the same plan fingerprint)
/// to `multi_server(n, kind, nic_gbps).induced(&flat_ids)`, GPUs ordered by
/// id, so plans cached under either construction path serve the other; a
/// property test pins this equivalence. Its name is
/// `"placement-{kind}[{ids}]"` (`kind` as `dgx-1p`, `dgx-1v` or `dgx-2`),
/// the GPU ids ascending and comma separated.
///
/// It is built in one pass: the slices are validated once into one bitmask
/// of local GPU indices per server, and the GPUs and links are then written
/// into vectors sized up front, with no per-link endpoint check (see
/// `build_servers`).
///
/// # Errors
/// In this order of precedence: a NIC bandwidth that is not finite and
/// positive ([`TopologyError::InvalidNicBandwidth`]); a GPU listed twice for
/// one server index, the first repeat in listing order
/// ([`TopologyError::DuplicateGpu`]); no GPU at all
/// ([`TopologyError::EmptyAllocation`]); the smallest server index, among
/// those listing a GPU, whose GPU ids overflow
/// ([`TopologyError::ServerOutOfRange`]); and the first GPU, by server
/// index and then id, inconsistent with its slice's server index
/// ([`TopologyError::UnknownGpu`]).
pub fn placement_topology(
    kind: ServerKind,
    nic_gbps: f64,
    slices: &[(usize, Vec<GpuId>)],
) -> crate::Result<Topology> {
    if !(nic_gbps.is_finite() && nic_gbps > 0.0) {
        return Err(TopologyError::InvalidNicBandwidth);
    }
    let gps = gpus_per_server(kind);
    // one bitmask of local GPU indices per server index, in listing order
    let mut servers: Vec<ServerMask> = Vec::with_capacity(slices.len());
    let mut overflow: Option<usize> = None;
    // the first GPU outside its server, by (server, id)
    let mut unknown: Option<(usize, GpuId)> = None;
    for (i, (server, gpus)) in slices.iter().enumerate() {
        let at = match servers.iter().position(|&(s, _)| s == *server) {
            Some(at) => at,
            None => {
                servers.push((*server, 0));
                servers.len() - 1
            }
        };
        // the server's first GPU id, if its last one fits
        let base = server
            .checked_add(1)
            .and_then(|next| next.checked_mul(gps))
            .map(|end| end - gps);
        if base.is_none() && !gpus.is_empty() {
            overflow = Some(overflow.map_or(*server, |o| o.min(*server)));
        }
        for (j, &g) in gpus.iter().enumerate() {
            let local = base.and_then(|b| g.0.checked_sub(b)).filter(|&l| l < gps);
            if let Some(l) = local {
                if servers[at].1 & (1 << l) != 0 {
                    return Err(TopologyError::DuplicateGpu(g));
                }
                servers[at].1 |= 1 << l;
                continue;
            }
            // no bit to test: look for an earlier listing on this server
            let earlier = slices[..i]
                .iter()
                .filter(|(s, _)| s == server)
                .flat_map(|(_, listed)| listed)
                .chain(&gpus[..j]);
            if earlier.into_iter().any(|&e| e == g) {
                return Err(TopologyError::DuplicateGpu(g));
            }
            if unknown.is_none_or(|first| (*server, g) < first) {
                unknown = Some((*server, g));
            }
        }
    }
    // an overflowing or unknown GPU means the placement listed one
    if let Some(server) = overflow {
        return Err(TopologyError::ServerOutOfRange(server));
    }
    if let Some((_, g)) = unknown {
        return Err(TopologyError::UnknownGpu(g));
    }
    servers.retain(|&(_, mask)| mask != 0);
    if servers.is_empty() {
        return Err(TopologyError::EmptyAllocation);
    }
    servers.sort_unstable();
    let ids = servers
        .iter()
        .flat_map(|&(s, mask)| locals(kind, mask).map(move |l| gps * s + l));
    let name = listed_name(&["placement-", kind_name(kind)], ids);
    Ok(build_servers(name, kind, Some(nic_gbps), &servers))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Link;

    fn nvlink_brick_count(t: &Topology, gpu: GpuId) -> u32 {
        t.links_from(gpu)
            .filter(|l| l.kind.is_nvlink())
            .map(|l| l.lanes)
            .sum()
    }

    #[test]
    fn dgx1p_has_four_bricks_per_gpu() {
        let t = dgx1p();
        assert_eq!(t.num_gpus(), 8);
        for g in t.gpu_ids() {
            assert_eq!(nvlink_brick_count(&t, g), 4, "GPU {g} brick count");
        }
        // 16 physical NVLink connections -> 32 directed NVLink edges
        assert_eq!(t.nvlink_only().links().len(), 32);
        t.validate().unwrap();
    }

    #[test]
    fn dgx1v_has_six_bricks_per_gpu() {
        let t = dgx1v();
        for g in t.gpu_ids() {
            assert_eq!(nvlink_brick_count(&t, g), 6, "GPU {g} brick count");
        }
        // same 16 neighbour pairs as the P100 machine, 8 of them doubled
        assert_eq!(t.nvlink_only().links().len(), 32);
        let doubled = t
            .links()
            .iter()
            .filter(|l| l.kind.is_nvlink() && l.lanes == 2)
            .count();
        assert_eq!(doubled, 16); // 8 pairs x 2 directions
        t.validate().unwrap();
    }

    #[test]
    fn dgx1_figure1_adjacency_examples() {
        // Figure 2(a): GPUs 0,1,3 are fully NVLink-connected on the DGX-1P.
        let t = dgx1p();
        assert!(t.has_nvlink(GpuId(0), GpuId(1)));
        assert!(t.has_nvlink(GpuId(0), GpuId(3)));
        assert!(t.has_nvlink(GpuId(1), GpuId(3)));
        // Figure 2(b): GPUs 1 and 4 have no NVLink.
        assert!(!t.has_nvlink(GpuId(1), GpuId(4)));
        assert!(t.has_nvlink(GpuId(0), GpuId(4)));
    }

    #[test]
    fn dgx1v_doubled_pairs_match_figure1() {
        let t = dgx1v();
        for &(a, b) in &DGX1V_DOUBLE_PAIRS {
            assert!(
                (t.nvlink_capacity_between(GpuId(a), GpuId(b)) - 46.0).abs() < 1e-9,
                "pair ({a},{b}) should have two lanes"
            );
        }
        // single-lane example
        assert!((t.nvlink_capacity_between(GpuId(0), GpuId(1)) - 23.0).abs() < 1e-9);
    }

    #[test]
    fn dgx1_pcie_mesh_covers_all_pairs() {
        let t = dgx1p();
        let pcie = t.pcie_only();
        // complete graph over 8 GPUs: 28 pairs, 56 directed edges
        assert_eq!(pcie.links().len(), 56);
        assert!((t.capacity_between(GpuId(0), GpuId(1)) - (19.0 + 5.0)).abs() < 1e-9);
        assert!((pcie.capacity_between(GpuId(0), GpuId(7)) - PCIE_CROSS_COMPLEX_GBPS).abs() < 1e-9);
    }

    #[test]
    fn dgx2_is_a_16_gpu_switch() {
        let t = dgx2();
        assert_eq!(t.num_gpus(), 16);
        for g in t.gpu_ids() {
            assert_eq!(t.gpu_cap(g), Some(DGX2_GPU_INJECTION_GBPS));
            // complete graph: 15 NVSwitch neighbours
            let nv_neighbors = t.nvlink_only().neighbors(g).len();
            assert_eq!(nv_neighbors, 15);
        }
        t.validate().unwrap();
    }

    #[test]
    fn multi_server_wires_network_links() {
        let t = multi_server(2, ServerKind::Dgx1V, DEFAULT_NIC_GBPS);
        assert_eq!(t.num_gpus(), 16);
        assert_eq!(t.servers().len(), 2);
        assert_eq!(t.gpus_on_server(ServerId(1)).len(), 8);
        assert_eq!(t.server_nic(ServerId(0)), Some(DEFAULT_NIC_GBPS));
        // a cross-server pair has a Network link, an intra-server pair does not
        let cross: Vec<&Link> = t.links_between(GpuId(0), GpuId(8)).collect();
        assert!(cross.iter().any(|l| l.kind == LinkKind::Network));
        let local: Vec<&Link> = t.links_between(GpuId(0), GpuId(1)).collect();
        assert!(local.iter().all(|l| l.kind != LinkKind::Network));
        // network edges: 8*8 pairs * 2 directions between the two servers
        let net = t.filter_links(|l| l.kind == LinkKind::Network);
        assert_eq!(net.links().len(), 128);
        t.validate().unwrap();
    }

    #[test]
    fn multi_server_intra_server_view_matches_single_server() {
        let t = multi_server(2, ServerKind::Dgx1P, DEFAULT_NIC_GBPS);
        let local = t.intra_server_only();
        let single = dgx1p();
        // per-server link count should match the single-server preset
        let per_server_links = local
            .links()
            .iter()
            .filter(|l| l.src.index() < 8 && l.dst.index() < 8)
            .count();
        assert_eq!(per_server_links, single.links().len());
    }

    #[test]
    fn multi_server_supports_dgx2() {
        let t = multi_server(2, ServerKind::Dgx2, DEFAULT_NIC_GBPS);
        assert_eq!(t.num_gpus(), 32);
        assert_eq!(t.servers().len(), 2);
        assert_eq!(t.gpus_on_server(ServerId(1)).len(), 16);
        for g in t.gpu_ids() {
            assert_eq!(t.gpu_cap(g), Some(DGX2_GPU_INJECTION_GBPS));
            // 15 NVSwitch neighbours on the same server
            let nv = t
                .nvlink_only()
                .neighbors(g)
                .iter()
                .filter(|&&n| (n.index() < 16) == (g.index() < 16))
                .count();
            assert_eq!(nv, 15);
        }
        // cross-server pairs ride the network: 16*16 pairs * 2 directions
        let net = t.filter_links(|l| l.kind == LinkKind::Network);
        assert_eq!(net.links().len(), 512);
        t.validate().unwrap();
    }

    /// The placement-induced builder must be *identical* to materialising the
    /// whole cluster and inducing on the flattened allocation — same GPU
    /// order, same link order, same caps/NICs — because plan fingerprints
    /// hash GPUs and links in listed order, and the fleet pipeline relies on
    /// cache hits between the two construction paths.
    #[test]
    fn placement_topology_matches_cluster_induced_subgraph() {
        use crate::TopologyDelta;
        type Slices = Vec<(usize, Vec<usize>)>;
        let cases: Vec<(ServerKind, Slices)> = vec![
            (
                ServerKind::Dgx1V,
                vec![(0, vec![1, 4, 5]), (2, vec![0, 1, 2, 3, 6])],
            ),
            (ServerKind::Dgx1V, vec![(1, vec![0, 1, 2])]),
            (ServerKind::Dgx1P, vec![(0, vec![0, 7]), (1, vec![3])]),
            (
                ServerKind::Dgx2,
                vec![(0, vec![1, 2, 9]), (2, vec![0, 5, 10, 15])],
            ),
        ];
        for (kind, local_slices) in cases {
            let gps = gpus_per_server(kind);
            let slices: Vec<(usize, Vec<GpuId>)> = local_slices
                .iter()
                .map(|(s, locals)| (*s, locals.iter().map(|g| GpuId(s * gps + g)).collect()))
                .collect();
            let flat: Vec<GpuId> = slices.iter().flat_map(|(_, g)| g.clone()).collect();
            let n_servers = slices.iter().map(|(s, _)| s + 1).max().unwrap();
            let full = multi_server(n_servers, kind, DEFAULT_NIC_GBPS);
            let induced = full.induced(&flat).unwrap();
            let direct = placement_topology(kind, DEFAULT_NIC_GBPS, &slices).unwrap();
            assert_eq!(direct.gpus(), induced.gpus(), "{kind:?} GPU order");
            assert_eq!(direct.links(), induced.links(), "{kind:?} link order");
            for &g in &flat {
                assert_eq!(direct.gpu_cap(g), induced.gpu_cap(g), "{kind:?} cap {g}");
            }
            for (s, _) in &slices {
                assert_eq!(
                    direct.server_nic(ServerId(*s)),
                    induced.server_nic(ServerId(*s)),
                    "{kind:?} NIC server {s}"
                );
            }
            let delta = TopologyDelta::between(&induced, &direct);
            assert!(delta.is_empty(), "{kind:?}: non-empty delta {delta:?}");
            direct.validate().unwrap();
        }
    }

    /// The construction the presets had before they were built in one pass,
    /// kept as the oracle `build_servers` is pinned to: every GPU through
    /// `add_gpu`, every link through `add_duplex`, each checked as it is
    /// added, and placements validated over ordered maps and sets.
    mod reference {
        use super::super::*;
        use std::collections::BTreeSet;

        fn add_server(t: &mut Topology, kind: ServerKind, s: usize, nic: Option<f64>) {
            let gps = gpus_per_server(kind);
            let base = gps * s;
            for i in 0..gps {
                t.add_gpu(GpuId(base + i), ServerId(s), i).unwrap();
            }
            let g = |i: usize| GpuId(base + i);
            match kind {
                ServerKind::Dgx1P | ServerKind::Dgx1V => {
                    let doubled = kind == ServerKind::Dgx1V;
                    let link = if doubled {
                        LinkKind::NvLinkGen2
                    } else {
                        LinkKind::NvLinkGen1
                    };
                    for &(a, b) in &DGX1_NVLINK_PAIRS {
                        let lanes = if doubled && DGX1V_DOUBLE_PAIRS.contains(&(a, b)) {
                            2
                        } else {
                            1
                        };
                        t.add_duplex(g(a), g(b), link, lanes).unwrap();
                    }
                    for i in 0..8 {
                        for j in (i + 1)..8 {
                            let gbps = if (i < 4) == (j < 4) {
                                PCIE_SAME_COMPLEX_GBPS
                            } else {
                                PCIE_CROSS_COMPLEX_GBPS
                            };
                            t.add_duplex_with_bandwidth(g(i), g(j), LinkKind::Pcie, 1, gbps)
                                .unwrap();
                        }
                    }
                }
                ServerKind::Dgx2 => {
                    for i in 0..16 {
                        for j in (i + 1)..16 {
                            let fabric = DGX2_GPU_INJECTION_GBPS;
                            t.add_duplex_with_bandwidth(g(i), g(j), LinkKind::NvSwitch, 1, fabric)
                                .unwrap();
                            let pcie = dgx_pcie_gbps(i, j, 8);
                            t.add_duplex_with_bandwidth(g(i), g(j), LinkKind::Pcie, 1, pcie)
                                .unwrap();
                        }
                    }
                    for i in 0..16 {
                        t.set_gpu_cap(g(i), DGX2_GPU_INJECTION_GBPS).unwrap();
                    }
                }
            }
            if let Some(nic) = nic {
                t.set_server_nic(ServerId(s), nic);
            }
        }

        /// A single server without a NIC, named like its preset.
        pub fn single(kind: ServerKind) -> Topology {
            let mut t = Topology::new(kind_name(kind));
            add_server(&mut t, kind, 0, None);
            t
        }

        pub fn multi_server(n_servers: usize, kind: ServerKind, nic: f64) -> Topology {
            let gps = gpus_per_server(kind);
            let name = format!("{}x{}-{}gbps", n_servers, kind_name(kind), nic);
            let mut t = Topology::new(name);
            for s in 0..n_servers {
                add_server(&mut t, kind, s, Some(nic));
            }
            for s1 in 0..n_servers {
                for s2 in (s1 + 1)..n_servers {
                    for i in 0..gps {
                        for j in 0..gps {
                            let (a, b) = (GpuId(gps * s1 + i), GpuId(gps * s2 + j));
                            t.add_duplex_with_bandwidth(a, b, LinkKind::Network, 1, nic)
                                .unwrap();
                        }
                    }
                }
            }
            t
        }

        /// The error the map-and-set validation found for a placement.
        pub fn placement_error(
            kind: ServerKind,
            nic: f64,
            slices: &[(usize, Vec<GpuId>)],
        ) -> Option<TopologyError> {
            if !(nic.is_finite() && nic > 0.0) {
                return Some(TopologyError::InvalidNicBandwidth);
            }
            let gps = gpus_per_server(kind);
            let mut by_server: BTreeMap<usize, BTreeSet<GpuId>> = BTreeMap::new();
            for (server, gpus) in slices {
                let set = by_server.entry(*server).or_default();
                for &g in gpus {
                    if !set.insert(g) {
                        return Some(TopologyError::DuplicateGpu(g));
                    }
                }
            }
            by_server.retain(|_, gpus| !gpus.is_empty());
            if by_server.is_empty() {
                return Some(TopologyError::EmptyAllocation);
            }
            for &server in by_server.keys() {
                if server
                    .checked_add(1)
                    .and_then(|n| n.checked_mul(gps))
                    .is_none()
                {
                    return Some(TopologyError::ServerOutOfRange(server));
                }
            }
            for (&server, gpus) in &by_server {
                for &g in gpus {
                    let local = g.0.checked_sub(server * gps).filter(|&l| l < gps);
                    if local.is_none() {
                        return Some(TopologyError::UnknownGpu(g));
                    }
                }
            }
            None
        }
    }

    const KINDS: [ServerKind; 3] = [ServerKind::Dgx1P, ServerKind::Dgx1V, ServerKind::Dgx2];

    #[test]
    fn presets_are_the_link_by_link_construction() {
        dgx1p().assert_identical(&reference::single(ServerKind::Dgx1P), "dgx-1p");
        dgx1v().assert_identical(&reference::single(ServerKind::Dgx1V), "dgx-1v");
        dgx2().assert_identical(&reference::single(ServerKind::Dgx2), "dgx-2");
        for kind in KINDS {
            for n in 1..=3 {
                for nic in [DEFAULT_NIC_GBPS, 12.5] {
                    let what = format!("{n}x{kind:?} at {nic}");
                    multi_server(n, kind, nic)
                        .assert_identical(&reference::multi_server(n, kind, nic), &what);
                }
            }
        }
    }

    /// A xorshift stream: `next(bound)` is uniform enough below `bound`.
    fn stream(mut state: u64) -> impl FnMut(usize) -> usize {
        move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        }
    }

    /// Random well-formed slices of `kind`: 1–4 distinct servers among
    /// 0..6, each a random non-empty GPU subset listed in random order, and
    /// sometimes split over two listings of its server.
    fn random_slices(
        kind: ServerKind,
        next: &mut impl FnMut(usize) -> usize,
    ) -> Vec<(usize, Vec<GpuId>)> {
        let gps = gpus_per_server(kind);
        let mut servers: Vec<usize> = (0..6).collect();
        let mut slices = Vec::new();
        for _ in 0..1 + next(4) {
            let s = servers.remove(next(servers.len()));
            let mut locals: Vec<usize> = (0..gps).filter(|_| next(2) == 0).collect();
            if locals.is_empty() {
                locals.push(next(gps));
            }
            for i in (1..locals.len()).rev() {
                locals.swap(i, next(i + 1));
            }
            let ids: Vec<GpuId> = locals.iter().map(|l| GpuId(gps * s + l)).collect();
            if ids.len() > 1 && next(4) == 0 {
                let (a, b) = ids.split_at(next(ids.len() - 1) + 1);
                slices.push((s, a.to_vec()));
                slices.push((s, b.to_vec()));
            } else {
                slices.push((s, ids));
            }
        }
        slices
    }

    /// `placement_topology` against the whole cluster's induced subgraph on
    /// random slice sets of every server kind: GPU order, links (capacity
    /// bits), caps and the slices' NICs are identical, and the name is
    /// `placement-{kind}[{ascending ids}]`.
    #[test]
    fn random_placements_are_the_clusters_induced_subgraph() {
        let mut next = stream(0x9e37_79b9_7f4a_7c15);
        for trial in 0..600 {
            let kind = KINDS[trial % 3];
            let nic = [DEFAULT_NIC_GBPS, 12.5, 50.0][next(3)];
            let slices = random_slices(kind, &mut next);
            let mut flat: Vec<GpuId> = slices.iter().flat_map(|(_, g)| g.clone()).collect();
            flat.sort_unstable();
            let n_servers = slices.iter().map(|(s, _)| s + 1).max().unwrap();
            let induced = multi_server(n_servers, kind, nic).induced(&flat).unwrap();
            let direct = placement_topology(kind, nic, &slices).unwrap();
            let ids: Vec<String> = flat.iter().map(|g| g.0.to_string()).collect();
            let name = format!("placement-{}[{}]", kind_name(kind), ids.join(","));
            let servers: BTreeMap<ServerId, f64> = slices
                .iter()
                .map(|(s, _)| (ServerId(*s), induced.server_nic(ServerId(*s)).unwrap()))
                .collect();
            let caps = flat
                .iter()
                .filter_map(|&g| Some((g, induced.gpu_cap(g)?)))
                .collect();
            let expected = Topology::from_parts(
                name,
                induced.gpus().to_vec(),
                induced.links().to_vec(),
                caps,
                servers,
            );
            direct.assert_identical(&expected, &format!("trial {trial}: {kind:?} {slices:?}"));
        }
    }

    /// Malformed slices fail with the error the map-and-set validation
    /// found, in its order of precedence, and well-formed ones build.
    #[test]
    fn malformed_placements_fail_as_the_reference_validation_does() {
        let mut next = stream(0x2545_f491_4f6c_dd1d);
        let mut failed = BTreeMap::new();
        for trial in 0..3000 {
            let kind = KINDS[trial % 3];
            let gps = gpus_per_server(kind);
            let mut slices = random_slices(kind, &mut next);
            let nic = match next(12) {
                0 => [f64::NAN, 0.0, -5.0, f64::INFINITY][next(4)],
                _ => DEFAULT_NIC_GBPS,
            };
            for _ in 0..next(3) {
                let k = next(slices.len());
                match next(7) {
                    // a repeat, in the same listing or another of its server
                    0 if !slices[k].1.is_empty() => {
                        let listed = slices[k].1.clone();
                        let g = listed[next(listed.len())];
                        slices.push((slices[k].0, vec![g]));
                    }
                    1 if !slices[k].1.is_empty() => {
                        let g = slices[k].1[0];
                        slices[k].1.push(g);
                    }
                    // a GPU of another server, or past the last
                    2 => slices[k].1.push(GpuId(next(8 * gps))),
                    3 => slices[k].1.push(GpuId(usize::MAX - next(3))),
                    // a server whose ids overflow
                    4 => {
                        let s = [usize::MAX, usize::MAX / 8, usize::MAX / 16][next(3)];
                        slices.push((s, vec![GpuId(next(4))]));
                    }
                    // listings with no GPUs
                    5 => slices[k].1.clear(),
                    6 => slices.push((next(6), Vec::new())),
                    _ => {}
                }
            }
            if next(40) == 0 {
                slices.clear();
            }
            let direct = placement_topology(kind, nic, &slices);
            let want = reference::placement_error(kind, nic, &slices);
            assert_eq!(direct.as_ref().err(), want.as_ref(), "{kind:?} {slices:?}");
            if let Some(e) = want {
                *failed
                    .entry(format!("{e:?}").split('(').next().unwrap().to_string())
                    .or_insert(0) += 1;
            }
        }
        // every error kind was exercised
        assert_eq!(failed.len(), 5, "{failed:?}");
    }

    #[test]
    #[should_panic(expected = "multi_server: NIC bandwidth must be a finite positive number")]
    fn multi_server_rejects_a_zero_nic_up_front() {
        multi_server(2, ServerKind::Dgx1V, 0.0);
    }

    #[test]
    #[should_panic(expected = "multi_server: NIC bandwidth must be a finite positive number")]
    fn multi_server_rejects_a_nan_nic_even_on_one_server() {
        multi_server(1, ServerKind::Dgx2, f64::NAN);
    }

    #[test]
    fn placement_topology_rejects_bad_placements() {
        // GPU id inconsistent with its slice's server index
        let bad = vec![(1usize, vec![GpuId(3)])];
        assert_eq!(
            placement_topology(ServerKind::Dgx1V, 5.0, &bad).unwrap_err(),
            TopologyError::UnknownGpu(GpuId(3))
        );
        // duplicate GPU across slices of the same server
        let dup = vec![(0usize, vec![GpuId(1)]), (0, vec![GpuId(1)])];
        assert_eq!(
            placement_topology(ServerKind::Dgx1V, 5.0, &dup).unwrap_err(),
            TopologyError::DuplicateGpu(GpuId(1))
        );
        // empty placement
        assert_eq!(
            placement_topology(ServerKind::Dgx1V, 5.0, &[]).unwrap_err(),
            TopologyError::EmptyAllocation
        );
        // server indices whose GPU ids cannot be numbered
        for server in [usize::MAX, usize::MAX / 8] {
            let huge = vec![(server, vec![GpuId(0)])];
            assert_eq!(
                placement_topology(ServerKind::Dgx1V, 5.0, &huge).unwrap_err(),
                TopologyError::ServerOutOfRange(server)
            );
        }
        // NIC bandwidths that are not finite and positive, single-server
        // placements included
        let one = vec![(0usize, vec![GpuId(0), GpuId(1)])];
        for nic in [f64::NAN, f64::INFINITY, 0.0, -5.0] {
            assert_eq!(
                placement_topology(ServerKind::Dgx1V, nic, &one).unwrap_err(),
                TopologyError::InvalidNicBandwidth,
                "NIC {nic}"
            );
        }
    }

    #[test]
    fn induced_allocation_on_preset() {
        let t = dgx1v();
        let alloc = [GpuId(1), GpuId(4), GpuId(5), GpuId(6)];
        let sub = t.induced(&alloc).unwrap();
        assert_eq!(sub.num_gpus(), 4);
        // GPU 1 has NVLink only to 5 within this set (see Figure 1)
        assert!(sub.has_nvlink(GpuId(1), GpuId(5)));
        assert!(!sub.has_nvlink(GpuId(1), GpuId(4)));
        assert!(!sub.has_nvlink(GpuId(1), GpuId(6)));
    }
}
