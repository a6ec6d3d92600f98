//! The [`Topology`] container: GPUs plus directed capacitated links.

use crate::{GpuId, Link, LinkKind, ServerId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{self, Write as _};

/// Errors produced while building or querying a [`Topology`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A GPU id was referenced that is not part of the topology.
    UnknownGpu(GpuId),
    /// The same GPU id was added twice.
    DuplicateGpu(GpuId),
    /// An operation that needs at least one GPU received an empty allocation.
    EmptyAllocation,
    /// A link references a GPU that has not been added.
    DanglingLink {
        /// Link source.
        src: GpuId,
        /// Link destination.
        dst: GpuId,
    },
    /// A link's capacity (`lanes × bandwidth`) is not a finite positive
    /// number: zero lanes, a zero, negative, NaN or infinite bandwidth.
    InvalidCapacity {
        /// Link source.
        src: GpuId,
        /// Link destination.
        dst: GpuId,
    },
    /// A server index too large for its servers' GPU ids to be numbered.
    ServerOutOfRange(usize),
    /// A NIC bandwidth that is not a finite positive number.
    InvalidNicBandwidth,
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::UnknownGpu(g) => write!(f, "unknown GPU {g}"),
            TopologyError::DuplicateGpu(g) => write!(f, "GPU {g} added twice"),
            TopologyError::EmptyAllocation => write!(f, "allocation contains no GPUs"),
            TopologyError::DanglingLink { src, dst } => {
                write!(
                    f,
                    "link {src} -> {dst} references a GPU not in the topology"
                )
            }
            TopologyError::InvalidCapacity { src, dst } => {
                write!(f, "link {src} -> {dst} needs a finite positive capacity")
            }
            TopologyError::ServerOutOfRange(s) => {
                write!(f, "server index {s} is too large to number its GPUs")
            }
            TopologyError::InvalidNicBandwidth => {
                write!(f, "NIC bandwidth must be a finite positive number")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// Metadata describing a single GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GpuInfo {
    /// Global identifier.
    pub id: GpuId,
    /// Server this GPU lives on.
    pub server: ServerId,
    /// Index of the GPU *within* its server (what `nvidia-smi` would show).
    /// Descriptive only: no planner, lowering or simulation reads it, and
    /// it is part of no plan-store key, so one slice shape at two places on
    /// a server shares its plans and lowerings.
    pub local_index: usize,
}

/// A set of GPUs and the directed, capacitated links between them.
///
/// A `Topology` may describe a whole machine (e.g. [`crate::presets::dgx1v`]),
/// a multi-server cluster slice, or the sub-topology *induced* by the GPUs a
/// scheduler allocated to one job (see [`Topology::induced`]). The latter is
/// what Blink's TreeGen consumes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Topology {
    name: String,
    gpus: Vec<GpuInfo>,
    links: Vec<Link>,
    /// Optional per-GPU injection/ejection cap (GB/s per direction). Used for
    /// switch fabrics (DGX-2 NVSwitch) where a GPU's aggregate bandwidth into
    /// the fabric is lower than the sum of its pairwise edge capacities.
    #[serde(default)]
    gpu_caps: BTreeMap<GpuId, f64>,
    /// Optional per-server NIC bandwidth (GB/s per direction). Cross-server
    /// [`LinkKind::Network`] transfers from/to a server share this capacity.
    #[serde(default)]
    server_nics: BTreeMap<ServerId, f64>,
}

impl Topology {
    /// Creates an empty topology with a human-readable name.
    pub fn new(name: impl Into<String>) -> Self {
        Topology {
            name: name.into(),
            gpus: Vec::new(),
            links: Vec::new(),
            gpu_caps: BTreeMap::new(),
            server_nics: BTreeMap::new(),
        }
    }

    /// A topology from parts its caller built valid — distinct GPU ids,
    /// every link between two of them with a finite positive capacity — so
    /// no per-link check runs (debug builds still validate).
    pub(crate) fn from_parts(
        name: String,
        gpus: Vec<GpuInfo>,
        links: Vec<Link>,
        gpu_caps: BTreeMap<GpuId, f64>,
        server_nics: BTreeMap<ServerId, f64>,
    ) -> Self {
        let t = Topology {
            name,
            gpus,
            links,
            gpu_caps,
            server_nics,
        };
        debug_assert_eq!(t.validate(), Ok(()));
        t
    }

    /// Sets a per-direction injection/ejection cap (GB/s) for one GPU.
    ///
    /// # Errors
    /// Returns [`TopologyError::UnknownGpu`] if the GPU is not present.
    pub fn set_gpu_cap(&mut self, id: GpuId, gbps: f64) -> crate::Result<()> {
        if !self.contains(id) {
            return Err(TopologyError::UnknownGpu(id));
        }
        self.gpu_caps.insert(id, gbps);
        Ok(())
    }

    /// Per-direction injection/ejection cap for `id`, if one was configured.
    pub fn gpu_cap(&self, id: GpuId) -> Option<f64> {
        self.gpu_caps.get(&id).copied()
    }

    /// Sets the per-direction NIC bandwidth (GB/s) of a server.
    pub fn set_server_nic(&mut self, server: ServerId, gbps: f64) {
        self.server_nics.insert(server, gbps);
    }

    /// Per-direction NIC bandwidth of `server`, if configured.
    pub fn server_nic(&self, server: ServerId) -> Option<f64> {
        self.server_nics.get(&server).copied()
    }

    /// Human-readable name (e.g. `"dgx-1v"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Replaces the topology name, returning `self` for chaining.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Adds a GPU.
    ///
    /// # Errors
    /// Returns [`TopologyError::DuplicateGpu`] if the id is already present.
    pub fn add_gpu(
        &mut self,
        id: GpuId,
        server: ServerId,
        local_index: usize,
    ) -> crate::Result<()> {
        if self.contains(id) {
            return Err(TopologyError::DuplicateGpu(id));
        }
        self.gpus.push(GpuInfo {
            id,
            server,
            local_index,
        });
        Ok(())
    }

    /// Adds a directed link. Both endpoints must already be present and its
    /// capacity must be finite and positive.
    pub fn add_link(&mut self, link: Link) -> crate::Result<()> {
        check_link(&link, |g| self.contains(g))?;
        self.links.push(link);
        Ok(())
    }

    /// Adds a bi-directional physical connection as two directed links of the
    /// given kind and lane count.
    pub fn add_duplex(
        &mut self,
        a: GpuId,
        b: GpuId,
        kind: LinkKind,
        lanes: u32,
    ) -> crate::Result<()> {
        self.add_link(Link::new(a, b, kind).with_lanes(lanes))?;
        self.add_link(Link::new(b, a, kind).with_lanes(lanes))?;
        Ok(())
    }

    /// Adds a bi-directional connection with an explicit per-lane bandwidth.
    pub fn add_duplex_with_bandwidth(
        &mut self,
        a: GpuId,
        b: GpuId,
        kind: LinkKind,
        lanes: u32,
        gbps: f64,
    ) -> crate::Result<()> {
        self.add_link(Link::new(a, b, kind).with_lanes(lanes).with_bandwidth(gbps))?;
        self.add_link(Link::new(b, a, kind).with_lanes(lanes).with_bandwidth(gbps))?;
        Ok(())
    }

    /// Number of GPUs.
    pub fn num_gpus(&self) -> usize {
        self.gpus.len()
    }

    /// All GPU metadata, in insertion order.
    pub fn gpus(&self) -> &[GpuInfo] {
        &self.gpus
    }

    /// All GPU ids, in insertion order.
    pub fn gpu_ids(&self) -> Vec<GpuId> {
        self.gpus.iter().map(|g| g.id).collect()
    }

    /// Whether `id` is part of this topology.
    pub fn contains(&self, id: GpuId) -> bool {
        self.gpus.iter().any(|g| g.id == id)
    }

    /// Metadata for one GPU.
    pub fn gpu(&self, id: GpuId) -> crate::Result<&GpuInfo> {
        self.gpus
            .iter()
            .find(|g| g.id == id)
            .ok_or(TopologyError::UnknownGpu(id))
    }

    /// All directed links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// All directed links leaving `src`.
    pub fn links_from(&self, src: GpuId) -> impl Iterator<Item = &Link> {
        self.links.iter().filter(move |l| l.src == src)
    }

    /// All directed links from `src` to `dst` (there may be several classes).
    pub fn links_between(&self, src: GpuId, dst: GpuId) -> impl Iterator<Item = &Link> {
        self.links
            .iter()
            .filter(move |l| l.src == src && l.dst == dst)
    }

    /// Total directed capacity from `src` to `dst` in GB/s, summed over all
    /// link classes and lanes.
    pub fn capacity_between(&self, src: GpuId, dst: GpuId) -> f64 {
        self.links_between(src, dst).map(Link::capacity_gbps).sum()
    }

    /// Directed NVLink-only capacity from `src` to `dst` in GB/s.
    pub fn nvlink_capacity_between(&self, src: GpuId, dst: GpuId) -> f64 {
        self.links_between(src, dst)
            .filter(|l| l.kind.is_nvlink())
            .map(Link::capacity_gbps)
            .sum()
    }

    /// Whether there is at least one NVLink-class link from `src` to `dst`.
    pub fn has_nvlink(&self, src: GpuId, dst: GpuId) -> bool {
        self.links_between(src, dst).any(|l| l.kind.is_nvlink())
    }

    /// The injection cap of `gpus[0]` when `gpus` behave like a switch
    /// fabric — at least two GPUs, every pair NVLink-connected, every GPU
    /// declaring a fabric injection cap — and `None` otherwise.
    pub fn switch_fabric_cap(&self, gpus: &[GpuId]) -> Option<f64> {
        let connected = gpus
            .iter()
            .all(|&a| gpus.iter().all(|&b| a == b || self.has_nvlink(a, b)));
        let capped = gpus.iter().all(|&g| self.gpu_cap(g).is_some());
        let cap = self.gpu_cap(*gpus.first()?);
        cap.filter(|_| gpus.len() >= 2 && connected && capped)
    }

    /// Out-neighbours of `src` (deduplicated, sorted).
    pub fn neighbors(&self, src: GpuId) -> Vec<GpuId> {
        let mut set: BTreeSet<GpuId> = BTreeSet::new();
        for l in self.links_from(src) {
            set.insert(l.dst);
        }
        set.into_iter().collect()
    }

    /// Distinct servers present in the topology, sorted.
    pub fn servers(&self) -> Vec<ServerId> {
        let mut set: BTreeSet<ServerId> = BTreeSet::new();
        for g in &self.gpus {
            set.insert(g.server);
        }
        set.into_iter().collect()
    }

    /// GPU ids located on `server`, sorted.
    pub fn gpus_on_server(&self, server: ServerId) -> Vec<GpuId> {
        let mut v: Vec<GpuId> = self
            .gpus
            .iter()
            .filter(|g| g.server == server)
            .map(|g| g.id)
            .collect();
        v.sort();
        v
    }

    /// Sum of all directed link capacities (GB/s). Useful as a quick sanity
    /// figure and in tests.
    pub fn total_capacity_gbps(&self) -> f64 {
        self.links.iter().map(Link::capacity_gbps).sum()
    }

    /// The sub-topology induced by `allocation`: only the listed GPUs and the
    /// links with *both* endpoints in the allocation survive.
    ///
    /// This mirrors Blink's runtime topology probing: a job scheduled on GPUs
    /// `{1, 4, 5, 6}` only ever sees the links among those four GPUs.
    ///
    /// One pass each over the GPUs and the links: membership is a binary
    /// search in the allocation's sorted ids, and the result's vectors are
    /// sized before they are filled. GPUs and links keep this topology's
    /// order; the name is `"{name}[{ids}]"` with the allocation's ids, comma
    /// separated, in its order.
    ///
    /// # Errors
    /// Returns an error if the allocation is empty or references a GPU not in
    /// this topology (the smallest such id).
    pub fn induced(&self, allocation: &[GpuId]) -> crate::Result<Topology> {
        if allocation.is_empty() {
            return Err(TopologyError::EmptyAllocation);
        }
        // the allocation's distinct ids, ascending, each with whether this
        // topology has it
        let mut set: Vec<(GpuId, bool)> = allocation.iter().map(|&g| (g, false)).collect();
        set.sort_unstable();
        set.dedup_by_key(|e| e.0);
        let find = |set: &[(GpuId, bool)], g: GpuId| set.binary_search_by_key(&g, |e| e.0).ok();
        let mut kept = 0;
        for g in &self.gpus {
            if let Some(i) = find(&set, g.id) {
                set[i].1 = true;
                kept += 1;
            }
        }
        if let Some(&(g, _)) = set.iter().find(|e| !e.1) {
            return Err(TopologyError::UnknownGpu(g));
        }
        let member = |g: GpuId| find(&set, g).is_some();
        let mut gpus = Vec::with_capacity(kept);
        gpus.extend(self.gpus.iter().filter(|g| member(g.id)).copied());
        let inside = |l: &&Link| member(l.src) && member(l.dst);
        let mut links = Vec::with_capacity(self.links.iter().filter(inside).count());
        links.extend(self.links.iter().filter(inside).copied());
        Ok(Topology {
            name: listed_name(&[&self.name], allocation.iter().map(|g| g.0)),
            gpus,
            links,
            gpu_caps: self
                .gpu_caps
                .iter()
                .filter(|(&g, _)| member(g))
                .map(|(&g, &cap)| (g, cap))
                .collect(),
            server_nics: self.server_nics.clone(),
        })
    }

    /// Returns a copy of the topology that keeps only links for which the
    /// predicate returns `true`. GPUs are always kept.
    pub fn filter_links<F: Fn(&Link) -> bool>(&self, pred: F) -> Topology {
        Topology {
            name: self.name.clone(),
            gpus: self.gpus.clone(),
            links: self.links.iter().copied().filter(|l| pred(l)).collect(),
            gpu_caps: self.gpu_caps.clone(),
            server_nics: self.server_nics.clone(),
        }
    }

    /// NVLink/NVSwitch-only view of the topology.
    pub fn nvlink_only(&self) -> Topology {
        self.filter_links(|l| l.kind.is_nvlink())
            .with_name(format!("{}-nvlink", self.name))
    }

    /// PCIe-only view of the topology.
    pub fn pcie_only(&self) -> Topology {
        self.filter_links(|l| l.kind == LinkKind::Pcie)
            .with_name(format!("{}-pcie", self.name))
    }

    /// Intra-server links only (drops [`LinkKind::Network`]).
    pub fn intra_server_only(&self) -> Topology {
        self.filter_links(|l| !l.kind.is_network())
            .with_name(format!("{}-local", self.name))
    }

    /// Checks structural invariants: GPU ids are distinct, every link
    /// endpoint exists and every link's capacity is finite and positive.
    /// [`Topology::add_link`] enforces the same per link; this re-checks a
    /// topology that bypassed it (a deserialized one).
    pub fn validate(&self) -> crate::Result<()> {
        let mut ids: Vec<GpuId> = self.gpus.iter().map(|g| g.id).collect();
        ids.sort_unstable();
        if let Some(w) = ids.windows(2).find(|w| w[0] == w[1]) {
            return Err(TopologyError::DuplicateGpu(w[0]));
        }
        let contains = |g: GpuId| ids.binary_search(&g).is_ok();
        self.links.iter().try_for_each(|l| check_link(l, contains))
    }
}

/// The concatenated `prefix` parts, then `[{ids}]` with the ids comma
/// separated in their order, written into one `String` sized up front.
pub(crate) fn listed_name(prefix: &[&str], ids: impl Iterator<Item = usize> + Clone) -> String {
    let digits = |n: usize| n.checked_ilog10().map_or(1, |d| d as usize + 1);
    let (count, digits) = ids
        .clone()
        .fold((0usize, 0), |(n, len), id| (n + 1, len + digits(id)));
    let commas = count.saturating_sub(1);
    let prefix_len: usize = prefix.iter().map(|p| p.len()).sum();
    let mut name = String::with_capacity(prefix_len + 2 + digits + commas);
    prefix.iter().for_each(|p| name.push_str(p));
    name.push('[');
    for (i, id) in ids.enumerate() {
        if i > 0 {
            name.push(',');
        }
        // writing into a `String` cannot fail
        let _ = write!(name, "{id}");
    }
    name.push(']');
    name
}

/// The per-link invariants [`Topology::add_link`] and [`Topology::validate`]
/// enforce: both endpoints are GPUs of the topology (`contains`) and the
/// capacity is finite and positive.
fn check_link(l: &Link, contains: impl Fn(GpuId) -> bool) -> crate::Result<()> {
    let (src, dst) = (l.src, l.dst);
    if !contains(src) || !contains(dst) {
        return Err(TopologyError::DanglingLink { src, dst });
    }
    let cap = l.capacity_gbps();
    if !(cap.is_finite() && cap > 0.0) {
        return Err(TopologyError::InvalidCapacity { src, dst });
    }
    Ok(())
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "topology {}: {} GPUs, {} directed links, {:.1} GB/s aggregate",
            self.name,
            self.num_gpus(),
            self.links.len(),
            self.total_capacity_gbps()
        )?;
        for l in &self.links {
            writeln!(f, "  {l}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
impl Topology {
    /// Panics unless `self` and `other` are identical: name, GPUs in order,
    /// links in order with capacities bit for bit, caps and NICs.
    pub(crate) fn assert_identical(&self, other: &Topology, what: &str) {
        assert_eq!(self.name, other.name, "{what}: name");
        assert_eq!(self.gpus, other.gpus, "{what}: GPUs");
        let bits = |t: &Topology| -> Vec<_> {
            t.links
                .iter()
                .map(|l| (l.src, l.dst, l.kind, l.lanes, l.bandwidth_gbps.to_bits()))
                .collect()
        };
        assert_eq!(bits(self), bits(other), "{what}: links");
        let caps = |t: &Topology| -> Vec<_> {
            t.gpu_caps.iter().map(|(&g, c)| (g, c.to_bits())).collect()
        };
        assert_eq!(caps(self), caps(other), "{what}: caps");
        let nics = |t: &Topology| -> Vec<_> {
            t.server_nics
                .iter()
                .map(|(&s, n)| (s, n.to_bits()))
                .collect()
        };
        assert_eq!(nics(self), nics(other), "{what}: NICs");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Topology {
        let mut t = Topology::new("tiny");
        for i in 0..3 {
            t.add_gpu(GpuId(i), ServerId(0), i).unwrap();
        }
        t.add_duplex(GpuId(0), GpuId(1), LinkKind::NvLinkGen2, 1)
            .unwrap();
        t.add_duplex(GpuId(1), GpuId(2), LinkKind::NvLinkGen2, 2)
            .unwrap();
        t.add_duplex(GpuId(0), GpuId(2), LinkKind::Pcie, 1).unwrap();
        t
    }

    #[test]
    fn switch_fabric_detection() {
        use crate::presets::{dgx1v, dgx2, DGX2_GPU_INJECTION_GBPS};
        let dgx2 = dgx2();
        let all16: Vec<GpuId> = (0..16).map(GpuId).collect();
        let cap = Some(DGX2_GPU_INJECTION_GBPS);
        assert_eq!(dgx2.switch_fabric_cap(&all16), cap);
        assert_eq!(
            dgx2.switch_fabric_cap(&[GpuId(0), GpuId(9), GpuId(15)]),
            cap
        );
        let dgx1 = dgx1v();
        let quad: Vec<GpuId> = (0..4).map(GpuId).collect();
        // fully NVLink-connected, but no per-GPU fabric cap -> not a switch
        assert_eq!(dgx1.switch_fabric_cap(&quad), None);
        assert_eq!(dgx2.switch_fabric_cap(&[GpuId(3)]), None);
        assert_eq!(dgx2.switch_fabric_cap(&[]), None);
    }

    #[test]
    fn duplicate_gpu_rejected() {
        let mut t = Topology::new("t");
        t.add_gpu(GpuId(0), ServerId(0), 0).unwrap();
        assert_eq!(
            t.add_gpu(GpuId(0), ServerId(0), 0),
            Err(TopologyError::DuplicateGpu(GpuId(0)))
        );
    }

    #[test]
    fn dangling_link_rejected() {
        let mut t = Topology::new("t");
        t.add_gpu(GpuId(0), ServerId(0), 0).unwrap();
        let err = t
            .add_link(Link::new(GpuId(0), GpuId(9), LinkKind::Pcie))
            .unwrap_err();
        assert!(matches!(err, TopologyError::DanglingLink { .. }));
    }

    #[test]
    fn degenerate_capacities_rejected() {
        let mut t = Topology::new("t");
        t.add_gpu(GpuId(0), ServerId(0), 0).unwrap();
        t.add_gpu(GpuId(1), ServerId(0), 1).unwrap();
        let link = Link::new(GpuId(0), GpuId(1), LinkKind::NvLinkGen2);
        for bad in [
            link.with_lanes(0),
            link.with_bandwidth(0.0),
            link.with_bandwidth(-1.0),
            link.with_bandwidth(f64::NAN),
            link.with_bandwidth(f64::INFINITY),
        ] {
            assert_eq!(
                t.add_link(bad),
                Err(TopologyError::InvalidCapacity {
                    src: GpuId(0),
                    dst: GpuId(1)
                })
            );
        }
        assert!(t.links().is_empty());
        t.add_link(link).unwrap();
        assert!(t.validate().is_ok());
    }

    #[test]
    fn capacity_and_adjacency_queries() {
        let t = tiny();
        assert_eq!(t.num_gpus(), 3);
        assert!(t.has_nvlink(GpuId(0), GpuId(1)));
        assert!(!t.has_nvlink(GpuId(0), GpuId(2)));
        assert!((t.capacity_between(GpuId(1), GpuId(2)) - 46.0).abs() < 1e-9);
        assert!((t.nvlink_capacity_between(GpuId(0), GpuId(2)) - 0.0).abs() < 1e-9);
        assert_eq!(t.neighbors(GpuId(0)), vec![GpuId(1), GpuId(2)]);
    }

    #[test]
    fn induced_subgraph_keeps_internal_links_only() {
        let t = tiny();
        let sub = t.induced(&[GpuId(0), GpuId(1)]).unwrap();
        assert_eq!(sub.num_gpus(), 2);
        // only the 0<->1 duplex survives
        assert_eq!(sub.links().len(), 2);
        assert!(sub.validate().is_ok());
    }

    #[test]
    fn induced_keeps_the_topology_order_and_names_the_allocation_in_its_order() {
        let t = tiny();
        let sub = t.induced(&[GpuId(2), GpuId(0), GpuId(2)]).unwrap();
        assert_eq!(sub.name(), "tiny[2,0,2]");
        assert_eq!(sub.gpu_ids(), vec![GpuId(0), GpuId(2)]);
        let ends: Vec<_> = sub.links().iter().map(|l| (l.src, l.dst)).collect();
        assert_eq!(ends, [(GpuId(0), GpuId(2)), (GpuId(2), GpuId(0))]);
    }

    #[test]
    fn listed_names_write_every_id_in_decimal() {
        let ids = [0, 7, 10, 4096, usize::MAX];
        let want = format!("a-b[0,7,10,4096,{}]", usize::MAX);
        assert_eq!(listed_name(&["a-", "b"], ids.into_iter()), want);
        assert_eq!(listed_name(&["x"], std::iter::empty()), "x[]");
    }

    #[test]
    fn induced_rejects_bad_allocations() {
        let t = tiny();
        assert_eq!(t.induced(&[]).unwrap_err(), TopologyError::EmptyAllocation);
        assert_eq!(
            t.induced(&[GpuId(17)]).unwrap_err(),
            TopologyError::UnknownGpu(GpuId(17))
        );
        // the smallest unknown id, wherever it is listed
        assert_eq!(
            t.induced(&[GpuId(1), GpuId(9), GpuId(4)]).unwrap_err(),
            TopologyError::UnknownGpu(GpuId(4))
        );
    }

    #[test]
    fn link_class_filters() {
        let t = tiny();
        assert_eq!(t.nvlink_only().links().len(), 4);
        assert_eq!(t.pcie_only().links().len(), 2);
        assert_eq!(t.intra_server_only().links().len(), t.links().len());
    }

    #[test]
    fn serde_round_trip() {
        let t = tiny();
        let json = serde_json::to_string(&t).unwrap();
        let back: Topology = serde_json::from_str(&json).unwrap();
        assert_eq!(back.num_gpus(), t.num_gpus());
        assert_eq!(back.links().len(), t.links().len());
        assert_eq!(back.name(), t.name());
        assert!(back.validate().is_ok());
    }

    #[test]
    fn validate_catches_what_deserialization_lets_through() {
        let json = serde_json::to_string(&tiny()).unwrap();
        // GPU 2 renamed to 0: a duplicate id
        let dup = json.replacen(r#""id":2"#, r#""id":0"#, 1);
        assert_ne!(dup, json);
        let t: Topology = serde_json::from_str(&dup).unwrap();
        assert_eq!(t.validate(), Err(TopologyError::DuplicateGpu(GpuId(0))));
        // GPU 2 renamed to 7: its links dangle
        let gap = json.replacen(r#""id":2"#, r#""id":7"#, 1);
        let t: Topology = serde_json::from_str(&gap).unwrap();
        assert!(matches!(
            t.validate(),
            Err(TopologyError::DanglingLink { .. })
        ));
    }

    #[test]
    fn display_lists_all_links() {
        let t = tiny();
        let s = t.to_string();
        assert!(s.contains("3 GPUs"));
        assert!(s.contains("6 directed links"));
    }
}
