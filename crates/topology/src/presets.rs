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

use crate::{GpuId, LinkKind, ServerId, Topology, TopologyError};
use std::collections::{BTreeMap, BTreeSet};

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

fn add_dgx1_gpus(topo: &mut Topology, server: ServerId, base: usize) {
    for i in 0..8 {
        topo.add_gpu(GpuId(base + i), server, i)
            .expect("preset GPU ids are unique");
    }
}

fn add_dgx1_pcie(topo: &mut Topology, base: usize) {
    for i in 0..8 {
        for j in (i + 1)..8 {
            let same_complex = (i < 4) == (j < 4);
            let gbps = if same_complex {
                PCIE_SAME_COMPLEX_GBPS
            } else {
                PCIE_CROSS_COMPLEX_GBPS
            };
            topo.add_duplex_with_bandwidth(
                GpuId(base + i),
                GpuId(base + j),
                LinkKind::Pcie,
                1,
                gbps,
            )
            .expect("preset links reference existing GPUs");
        }
    }
}

fn add_dgx1_nvlinks(topo: &mut Topology, base: usize, kind: LinkKind, doubled: bool) {
    for &(a, b) in &DGX1_NVLINK_PAIRS {
        let mut lanes = 1;
        if doubled && DGX1V_DOUBLE_PAIRS.contains(&(a, b)) {
            lanes = 2;
        }
        topo.add_duplex(GpuId(base + a), GpuId(base + b), kind, lanes)
            .expect("preset links reference existing GPUs");
    }
}

/// A single DGX-1 server with P100 GPUs (NVLink Gen1, 4 bricks per GPU).
pub fn dgx1p() -> Topology {
    let mut t = Topology::new("dgx-1p");
    add_dgx1_gpus(&mut t, ServerId(0), 0);
    add_dgx1_nvlinks(&mut t, 0, LinkKind::NvLinkGen1, false);
    add_dgx1_pcie(&mut t, 0);
    t
}

/// A single DGX-1 server with V100 GPUs (NVLink Gen2, 6 bricks per GPU).
///
/// This matches the AWS `p3.16xlarge` instance used throughout the paper's
/// evaluation.
pub fn dgx1v() -> Topology {
    let mut t = Topology::new("dgx-1v");
    add_dgx1_gpus(&mut t, ServerId(0), 0);
    add_dgx1_nvlinks(&mut t, 0, LinkKind::NvLinkGen2, true);
    add_dgx1_pcie(&mut t, 0);
    t
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
    let mut t = Topology::new("dgx-2");
    add_dgx2_gpus(&mut t, ServerId(0), 0);
    add_dgx2_fabric(&mut t, 0);
    add_dgx2_caps(&mut t, 0);
    t
}

fn add_dgx2_gpus(topo: &mut Topology, server: ServerId, base: usize) {
    for i in 0..16 {
        topo.add_gpu(GpuId(base + i), server, i)
            .expect("preset GPU ids are unique");
    }
}

fn add_dgx2_fabric(topo: &mut Topology, base: usize) {
    for i in 0..16 {
        for j in (i + 1)..16 {
            topo.add_duplex_with_bandwidth(
                GpuId(base + i),
                GpuId(base + j),
                LinkKind::NvSwitch,
                1,
                DGX2_GPU_INJECTION_GBPS,
            )
            .expect("valid preset link");
            topo.add_duplex_with_bandwidth(
                GpuId(base + i),
                GpuId(base + j),
                LinkKind::Pcie,
                1,
                dgx_pcie_gbps(i, j, 8),
            )
            .expect("valid preset link");
        }
    }
}

fn add_dgx2_caps(topo: &mut Topology, base: usize) {
    for i in 0..16 {
        topo.set_gpu_cap(GpuId(base + i), DGX2_GPU_INJECTION_GBPS)
            .expect("gpu exists");
    }
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

/// Adds one server's GPUs, intra-server links, fabric caps and NIC to `t`,
/// with GPU ids based at `gpus_per_server(kind) * s`. Shared by
/// [`multi_server`] (whole cluster) and [`placement_topology`] (only the
/// allocated slice — via the membership-filtered link loops below).
fn add_server(t: &mut Topology, kind: ServerKind, s: usize, nic_gbps: f64) {
    let base = gpus_per_server(kind) * s;
    match kind {
        ServerKind::Dgx1P => {
            add_dgx1_gpus(t, ServerId(s), base);
            add_dgx1_nvlinks(t, base, LinkKind::NvLinkGen1, false);
            add_dgx1_pcie(t, base);
        }
        ServerKind::Dgx1V => {
            add_dgx1_gpus(t, ServerId(s), base);
            add_dgx1_nvlinks(t, base, LinkKind::NvLinkGen2, true);
            add_dgx1_pcie(t, base);
        }
        ServerKind::Dgx2 => {
            add_dgx2_gpus(t, ServerId(s), base);
            add_dgx2_fabric(t, base);
            add_dgx2_caps(t, base);
        }
    }
    t.set_server_nic(ServerId(s), nic_gbps);
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
pub fn multi_server(n_servers: usize, kind: ServerKind, nic_gbps: f64) -> Topology {
    let name = format!("{}x{}-{}gbps", n_servers, kind_name(kind), nic_gbps);
    let gps = gpus_per_server(kind);
    let mut t = Topology::new(name);
    for s in 0..n_servers {
        add_server(&mut t, kind, s, nic_gbps);
    }
    for s1 in 0..n_servers {
        for s2 in (s1 + 1)..n_servers {
            for i in 0..gps {
                for j in 0..gps {
                    t.add_duplex_with_bandwidth(
                        GpuId(gps * s1 + i),
                        GpuId(gps * s2 + j),
                        LinkKind::Network,
                        1,
                        nic_gbps,
                    )
                    .expect("valid preset link");
                }
            }
        }
    }
    t
}

/// Builds the topology *induced by a scheduler placement* directly from its
/// per-server slices, without materialising the whole cluster: only the
/// allocated GPUs, the intra-server links between co-located allocated GPUs,
/// the cross-server [`LinkKind::Network`] mesh between the slices, the DGX-2
/// fabric caps and the involved servers' NICs.
///
/// `slices` uses the `blink-sched` placement convention: `(server index,
/// global GPU ids on that server)`, with GPU `g` of server `s` carrying the
/// global id `gpus_per_server(kind) * s + g`. The result is **identical**
/// (same GPU order, same link order, same caps — hence the same plan
/// fingerprint) to `multi_server(n, kind, nic_gbps).induced(&flat_ids)`, so
/// plans cached under either construction path serve the other; a test pins
/// this equivalence.
///
/// # Errors
/// Rejects a NIC bandwidth that is not finite and positive
/// ([`TopologyError::InvalidNicBandwidth`]), empty placements
/// ([`TopologyError::EmptyAllocation`]), server indices whose GPU ids
/// overflow ([`TopologyError::ServerOutOfRange`]), GPU ids inconsistent with
/// their slice's server index ([`TopologyError::UnknownGpu`]), and GPUs
/// listed twice ([`TopologyError::DuplicateGpu`]).
pub fn placement_topology(
    kind: ServerKind,
    nic_gbps: f64,
    slices: &[(usize, Vec<GpuId>)],
) -> crate::Result<Topology> {
    if !(nic_gbps.is_finite() && nic_gbps > 0.0) {
        return Err(TopologyError::InvalidNicBandwidth);
    }
    let gps = gpus_per_server(kind);
    let mut by_server: BTreeMap<usize, BTreeSet<GpuId>> = BTreeMap::new();
    for (server, gpus) in slices {
        let set = by_server.entry(*server).or_default();
        for &g in gpus {
            if !set.insert(g) {
                return Err(TopologyError::DuplicateGpu(g));
            }
        }
    }
    by_server.retain(|_, gpus| !gpus.is_empty());
    if by_server.is_empty() {
        return Err(TopologyError::EmptyAllocation);
    }
    // Every id below numbers a GPU of one of these servers, so none can
    // overflow once each server's last id fits.
    for &server in by_server.keys() {
        server
            .checked_add(1)
            .and_then(|next| next.checked_mul(gps))
            .ok_or(TopologyError::ServerOutOfRange(server))?;
    }
    let all_ids: Vec<String> = by_server
        .values()
        .flatten()
        .map(|g| g.0.to_string())
        .collect();
    let mut t = Topology::new(format!(
        "placement-{}[{}]",
        kind_name(kind),
        all_ids.join(",")
    ));
    for (&server, gpus) in &by_server {
        let base = server * gps;
        for &g in gpus {
            let local = g
                .index()
                .checked_sub(base)
                .filter(|&l| l < gps)
                .ok_or(TopologyError::UnknownGpu(g))?;
            t.add_gpu(g, ServerId(server), local)?;
        }
    }
    // Intra-server links in preset enumeration order, restricted to the
    // allocated local indices (this mirrors what `Topology::induced` keeps).
    for (&server, gpus) in &by_server {
        let base = server * gps;
        let here = |i: usize| gpus.contains(&GpuId(base + i));
        match kind {
            ServerKind::Dgx1P | ServerKind::Dgx1V => {
                let (link_kind, doubled) = match kind {
                    ServerKind::Dgx1P => (LinkKind::NvLinkGen1, false),
                    _ => (LinkKind::NvLinkGen2, true),
                };
                for &(a, b) in &DGX1_NVLINK_PAIRS {
                    if !(here(a) && here(b)) {
                        continue;
                    }
                    let lanes = if doubled && DGX1V_DOUBLE_PAIRS.contains(&(a, b)) {
                        2
                    } else {
                        1
                    };
                    t.add_duplex(GpuId(base + a), GpuId(base + b), link_kind, lanes)?;
                }
                for i in 0..8 {
                    for j in (i + 1)..8 {
                        if here(i) && here(j) {
                            t.add_duplex_with_bandwidth(
                                GpuId(base + i),
                                GpuId(base + j),
                                LinkKind::Pcie,
                                1,
                                dgx_pcie_gbps(i, j, 4),
                            )?;
                        }
                    }
                }
            }
            ServerKind::Dgx2 => {
                for i in 0..16 {
                    for j in (i + 1)..16 {
                        if !(here(i) && here(j)) {
                            continue;
                        }
                        t.add_duplex_with_bandwidth(
                            GpuId(base + i),
                            GpuId(base + j),
                            LinkKind::NvSwitch,
                            1,
                            DGX2_GPU_INJECTION_GBPS,
                        )?;
                        t.add_duplex_with_bandwidth(
                            GpuId(base + i),
                            GpuId(base + j),
                            LinkKind::Pcie,
                            1,
                            dgx_pcie_gbps(i, j, 8),
                        )?;
                    }
                }
                for &g in gpus {
                    t.set_gpu_cap(g, DGX2_GPU_INJECTION_GBPS)?;
                }
            }
        }
        t.set_server_nic(ServerId(server), nic_gbps);
    }
    let servers: Vec<usize> = by_server.keys().copied().collect();
    for (a, &s1) in servers.iter().enumerate() {
        for &s2 in &servers[a + 1..] {
            for i in 0..gps {
                if !by_server[&s1].contains(&GpuId(gps * s1 + i)) {
                    continue;
                }
                for j in 0..gps {
                    if !by_server[&s2].contains(&GpuId(gps * s2 + j)) {
                        continue;
                    }
                    t.add_duplex_with_bandwidth(
                        GpuId(gps * s1 + i),
                        GpuId(gps * s2 + j),
                        LinkKind::Network,
                        1,
                        nic_gbps,
                    )?;
                }
            }
        }
    }
    Ok(t)
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
