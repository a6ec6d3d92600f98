//! Enumeration of the *unique* allocation-induced topologies of a server —
//! product surface for schedulers and reports, not just a test helper.
//!
//! A cluster scheduler may hand a job any subset of a server's GPUs
//! (Figure 3 of the paper). Many of those subsets induce the same
//! interconnect graph up to a relabelling of the GPUs — e.g. GPUs
//! `[0, 1, 2, 3]` and `[4, 5, 6, 7]` on a DGX-1 are mirror images. The paper
//! bins configurations by this "topology uniqueness" and reports 46 unique
//! settings on the DGX-1V and 14 on the DGX-1P for 3–8 GPU allocations
//! (Section 5.2). This module bins them by NVLink isomorphism and finds 53
//! classes on the DGX-1V and 17 on the DGX-1P: the paper's 46 and 14 are
//! exactly the classes whose NVLink graph is connected, and the other 7 and
//! 3 are allocations NVLink cannot span, where every collective rides PCIe.
//! It exposes the binning's primitives as stable API:
//!
//! * [`canonical_form`] is the paper's **class-binning key**: two
//!   allocations share it iff their induced NVLink graphs are isomorphic.
//!   It bins allocations for reporting only; plans are never keyed by it
//!   (`blink-core` plans every allocation's own trees, as Blink does: it
//!   packs them, or writes them down in closed form where the induced graph
//!   is complete and uniform and the root is its smallest GPU).
//! * [`AllocationClass::label`] is the stable human-readable class name used
//!   on the paper's x-axes and in scheduler reports.
//!
//! Canonicalisation is an exact search for the lexicographically smallest
//! row-major NVLink capacity matrix over every order of the members. It
//! places one member per position, depth first, and each placement fixes a
//! whole row: in a smallest matrix the members that the rows placed so far
//! cannot tell apart sit in ascending order of the new member's capacities
//! to them, so only such orders are tried, and a branch is dropped at the
//! first entry of its fixed rows that is larger than the best matrix's. One
//! set of buffers serves every order, and [`unique_allocations`] reads the
//! machine's capacity matrix once for all its subsets. On a DGX-1V or
//! DGX-1P the search compares hundreds of complete orders over all 3–8-GPU
//! subsets, where trying every order compares 109,536. Rows that never
//! differ leave nothing to prune: an allocation whose members all see the
//! same capacities to one another, such as any set of DGX-2 GPUs behind its
//! NVSwitch, still costs `k!` orders for `k` GPUs, which rules out the full
//! DGX-2.

use crate::{GpuId, Topology, TopologyError};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt::Write;

/// One isomorphism class of allocation-induced topologies.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AllocationClass {
    /// Lexicographically smallest member of the class — the "representative
    /// configuration" used on the x-axes of Figures 15–17.
    pub representative: Vec<GpuId>,
    /// Every allocation (GPU subset) that induces this topology.
    pub members: Vec<Vec<GpuId>>,
    /// Canonical fingerprint of the induced NVLink topology.
    pub canonical: String,
}

impl AllocationClass {
    /// Number of GPUs in allocations of this class.
    pub fn num_gpus(&self) -> usize {
        self.representative.len()
    }

    /// A short label such as `"1,4,5,7"` matching the paper's x-axis format:
    /// the representative's GPU ids, ascending, comma-joined with no spaces.
    /// The format is stable — schedulers and dashboards may key reports on it.
    pub fn label(&self) -> String {
        self.representative
            .iter()
            .map(|g| g.0.to_string())
            .collect::<Vec<_>>()
            .join(",")
    }
}

/// Computes the canonical fingerprint of the sub-topology induced by
/// `allocation`, considering NVLink-class links only (multiplicity included).
///
/// Two allocations have equal fingerprints iff their induced NVLink graphs are
/// isomorphic (as capacity-weighted directed graphs).
///
/// The textual format is stable and safe to persist as a report key:
/// `"n{n}:"` followed by the row-major canonical capacity matrix, each entry
/// the link capacity in integer tenths of GB/s (each link rounded, then
/// summed), comma-joined. The canonical matrix is the lexicographically
/// smallest over every order of the members; the search that finds it is
/// described in the [module docs](crate::enumerate).
///
/// # Errors
/// Returns an error if the allocation is empty or names a GPU the topology
/// lacks, as [`Topology::induced`] does.
pub fn canonical_form(topo: &Topology, allocation: &[GpuId]) -> crate::Result<String> {
    let sub = topo.induced(allocation)?;
    let mut search = Search::default();
    search.load(&nvlink_matrix(&sub), sub.num_gpus(), 0..sub.num_gpus());
    Ok(search.canonical())
}

/// The NVLink capacity matrix of `topo`, row-major and indexed by position in
/// [`Topology::gpu_ids`]: entry `(i, j)` sums the capacities, in integer
/// tenths of GB/s, of the NVLink-class links from the `i`-th to the `j`-th
/// GPU, each link rounded before the sum.
fn nvlink_matrix(topo: &Topology) -> Vec<u64> {
    let n = topo.num_gpus();
    let index: BTreeMap<GpuId, usize> = topo
        .gpu_ids()
        .into_iter()
        .enumerate()
        .map(|(i, g)| (g, i))
        .collect();
    let mut cap = vec![0u64; n * n];
    for l in topo.links().iter().filter(|l| l.kind.is_nvlink()) {
        cap[index[&l.src] * n + index[&l.dst]] += (l.capacity_gbps() * 10.0).round() as u64;
    }
    cap
}

/// The exact search behind [`canonical_form`] and its buffers, which one
/// [`unique_allocations`] call reuses for every subset, so no member order
/// allocates.
///
/// Level `a` of the search has members placed at positions `0..a` and the
/// rest, at positions `a..n`, split into blocks of members that every placed
/// member's row cannot tell apart. It places each member of the first block
/// at position `a` in turn; the row that fixes is that member's capacities
/// to the placed members and to itself, then to each block's members in
/// ascending order, which also splits the blocks where the capacity changes.
/// Every order whose matrix is smallest keeps each block in that ascending
/// order (swapping two members that break it lowers the row and leaves every
/// earlier row alone), so only those orders are searched, and a branch is
/// dropped at the first entry of its rows that is larger than the best
/// matrix's.
#[derive(Debug, Default)]
struct Search {
    n: usize,
    /// The capacity matrix searched, `n × n`.
    cap: Vec<u64>,
    /// Member at each position, one `n`-entry level per search depth.
    order: Vec<usize>,
    /// Whether a block starts at each position, levelled as `order`.
    starts: Vec<bool>,
    /// The matrix of the order being searched, filled row by row.
    rows: Vec<u64>,
    /// The smallest complete matrix found so far.
    best: Vec<u64>,
    /// Complete orders compared with the best, over every search.
    complete_orders: u64,
}

impl Search {
    /// Loads the `members` rows and columns of the `stride × stride` matrix
    /// `cap` as the matrix to search.
    fn load(&mut self, cap: &[u64], stride: usize, members: impl Iterator<Item = usize> + Clone) {
        let n = members.clone().count();
        self.n = n;
        self.cap.clear();
        for i in members.clone() {
            self.cap
                .extend(members.clone().map(|j| cap[i * stride + j]));
        }
        self.order.resize((n + 1) * n, 0);
        self.starts.resize((n + 1) * n, false);
        self.rows.resize(n * n, 0);
        self.best.resize(n * n, 0);
    }

    /// The canonical string of the loaded matrix.
    fn canonical(&mut self) -> String {
        let n = self.n;
        for (p, slot) in self.order[..n].iter_mut().enumerate() {
            *slot = p;
        }
        self.starts[..n].fill(false);
        self.descend(0, true);
        let mut out = format!("n{n}:");
        for (i, v) in self.best[..n * n].iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(out, "{v}").expect("writing to a String cannot fail");
        }
        out
    }

    /// Searches every order below level `a`, whose rows `0..a` are smaller
    /// than the best matrix's if `below` (or there is no best yet), and equal
    /// to them otherwise. Returns whether the best matrix changed.
    fn descend(&mut self, a: usize, mut below: bool) -> bool {
        let n = self.n;
        if a == n {
            self.complete_orders += 1;
            if below {
                self.best.copy_from_slice(&self.rows);
            }
            return below;
        }
        let mut changed = false;
        let first_end = (a + 1..n).find(|&j| self.starts[a * n + j]).unwrap_or(n);
        for c in a..first_end {
            let (done, next) = self.order.split_at_mut((a + 1) * n);
            let (order, next) = (&done[a * n..], &mut next[..n]);
            let (done, next_starts) = self.starts.split_at_mut((a + 1) * n);
            let (starts, next_starts) = (&done[a * n..], &mut next_starts[..n]);
            next.copy_from_slice(order);
            next.swap(a, c);
            let row = &self.cap[next[a] * n..][..n];
            let mut s = a + 1;
            while s < n {
                let e = (s + 1..n).find(|&j| starts[j]).unwrap_or(n);
                for i in s + 1..e {
                    let mut j = i;
                    while j > s && row[next[j - 1]] > row[next[j]] {
                        next.swap(j - 1, j);
                        j -= 1;
                    }
                }
                next_starts[s] = true;
                for j in s + 1..e {
                    next_starts[j] = row[next[j - 1]] != row[next[j]];
                }
                s = e;
            }
            for (slot, &m) in self.rows[a * n..][..n].iter_mut().zip(next.iter()) {
                *slot = row[m];
            }
            let below_here = below
                || match self.rows[a * n..][..n].cmp(&self.best[a * n..][..n]) {
                    Ordering::Greater => continue,
                    Ordering::Less => true,
                    Ordering::Equal => false,
                };
            if self.descend(a + 1, below_here) {
                // the best now shares rows `0..a` with this level
                below = false;
                changed = true;
            }
        }
        changed
    }
}

/// Enumerates every subset of `size` GPUs from the topology.
pub fn allocations_of_size(topo: &Topology, size: usize) -> Vec<Vec<GpuId>> {
    let ids = topo.gpu_ids();
    let mut out = Vec::new();
    let mut current = Vec::with_capacity(size);
    combine(&ids, 0, size, &mut current, &mut out);
    out
}

fn combine(
    ids: &[GpuId],
    start: usize,
    size: usize,
    current: &mut Vec<GpuId>,
    out: &mut Vec<Vec<GpuId>>,
) {
    if current.len() == size {
        out.push(current.clone());
        return;
    }
    let remaining = size - current.len();
    for i in start..ids.len() {
        if ids.len() - i < remaining {
            break;
        }
        current.push(ids[i]);
        combine(ids, i + 1, size, current, out);
        current.pop();
    }
}

/// Groups all allocations with sizes in `sizes` into isomorphism classes.
///
/// Classes are returned sorted by (number of GPUs, representative ids), which
/// matches the left-to-right ordering of the paper's Figures 15–17.
pub fn unique_allocations(
    topo: &Topology,
    sizes: impl IntoIterator<Item = usize>,
) -> crate::Result<Vec<AllocationClass>> {
    unique_allocations_with(topo, sizes, &mut Search::default())
}

/// [`unique_allocations`] on `search`'s buffers, reading the machine's
/// NVLink capacity matrix once for every subset.
fn unique_allocations_with(
    topo: &Topology,
    sizes: impl IntoIterator<Item = usize>,
    search: &mut Search,
) -> crate::Result<Vec<AllocationClass>> {
    let cap = nvlink_matrix(topo);
    let index: BTreeMap<GpuId, usize> = topo
        .gpu_ids()
        .into_iter()
        .enumerate()
        .map(|(i, g)| (g, i))
        .collect();
    let mut classes: BTreeMap<String, AllocationClass> = BTreeMap::new();
    for size in sizes {
        for alloc in allocations_of_size(topo, size) {
            if alloc.is_empty() {
                return Err(TopologyError::EmptyAllocation);
            }
            search.load(&cap, topo.num_gpus(), alloc.iter().map(|g| index[g]));
            let canon = search.canonical();
            match classes.get_mut(&canon) {
                Some(class) => class.members.push(alloc),
                None => {
                    let class = AllocationClass {
                        representative: alloc.clone(),
                        members: vec![alloc],
                        canonical: canon.clone(),
                    };
                    classes.insert(canon, class);
                }
            }
        }
    }
    let mut out: Vec<AllocationClass> = classes.into_values().collect();
    for c in &mut out {
        c.members.sort();
        c.representative = c.members[0].clone();
    }
    out.sort_by(|a, b| (a.num_gpus(), &a.representative).cmp(&(b.num_gpus(), &b.representative)));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::{dgx1p, dgx1v};
    use crate::{Link, LinkKind, ServerId};
    use std::collections::BTreeSet;

    /// The oracle: every order of the members, each compared as a freshly
    /// allocated row-major matrix, the lexicographically smallest kept.
    fn brute_force(topo: &Topology, allocation: &[GpuId]) -> String {
        let sub = topo.induced(allocation).unwrap().nvlink_only();
        let ids = sub.gpu_ids();
        let n = ids.len();
        let index: BTreeMap<GpuId, usize> = ids.iter().enumerate().map(|(i, &g)| (g, i)).collect();
        let mut cap = vec![vec![0u64; n]; n];
        for l in sub.links() {
            cap[index[&l.src]][index[&l.dst]] += (l.capacity_gbps() * 10.0).round() as u64;
        }
        let mut perm: Vec<usize> = (0..n).collect();
        let mut best: Option<Vec<u64>> = None;
        permute(&mut perm, 0, &mut |p| {
            let mut flat = Vec::with_capacity(n * n);
            for &i in p {
                for &j in p {
                    flat.push(cap[i][j]);
                }
            }
            match &best {
                Some(b) if *b <= flat => {}
                _ => best = Some(flat),
            }
        });
        let best = best.unwrap_or_default();
        format!(
            "n{}:{}",
            n,
            best.iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(",")
        )
    }

    fn permute<F: FnMut(&[usize])>(arr: &mut Vec<usize>, k: usize, f: &mut F) {
        if k == arr.len() {
            f(arr);
            return;
        }
        for i in k..arr.len() {
            arr.swap(k, i);
            permute(arr, k + 1, f);
            arr.swap(k, i);
        }
    }

    /// Panics unless every 1..=`n`-GPU subset of `topo` gets the oracle's
    /// string from [`canonical_form`] and from its class in
    /// [`unique_allocations`].
    fn assert_matches_brute_force(topo: &Topology, what: &str) {
        let n = topo.num_gpus();
        let classes = unique_allocations(topo, 1..=n).unwrap();
        let mut seen = 0;
        for class in &classes {
            for member in &class.members {
                let oracle = brute_force(topo, member);
                assert_eq!(class.canonical, oracle, "{what}: class of {member:?}");
                assert_eq!(
                    canonical_form(topo, member).unwrap(),
                    oracle,
                    "{what}: canonical_form({member:?})"
                );
                seen += 1;
            }
        }
        assert_eq!(seen, (1 << n) - 1, "{what}: every subset once");
    }

    #[test]
    fn search_matches_the_brute_force_on_every_dgx1_subset() {
        assert_matches_brute_force(&dgx1v(), "dgx1v");
        assert_matches_brute_force(&dgx1p(), "dgx1p");
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

    /// A random fabric of `n` GPUs, added in shuffled id order: links are
    /// directed (so capacities are asymmetric), drawn from a few lane counts
    /// and bandwidths (so rows tie heavily), sometimes parallel, with a
    /// fractional bandwidth (so per-link rounding shows), sometimes PCIe or
    /// a self-loop; some GPUs get no link at all.
    fn random_fabric(n: usize, next: &mut impl FnMut(usize) -> usize) -> Topology {
        let mut t = Topology::new("random");
        let mut ids: Vec<usize> = (0..n).map(|i| 3 * i + next(3)).collect();
        for i in (1..n).rev() {
            ids.swap(i, next(i + 1));
        }
        for (local, &id) in ids.iter().enumerate() {
            t.add_gpu(GpuId(id), ServerId(0), local).unwrap();
        }
        let isolated: BTreeSet<usize> = ids.iter().copied().filter(|_| next(5) == 0).collect();
        let density = 1 + next(4);
        for &src in &ids {
            for &dst in &ids {
                if isolated.contains(&src) || isolated.contains(&dst) || next(5) >= density {
                    continue;
                }
                if src == dst && next(4) != 0 {
                    continue;
                }
                for _ in 0..1 + next(2) * next(3) {
                    let kind =
                        [LinkKind::NvLinkGen1, LinkKind::NvLinkGen2, LinkKind::Pcie][next(3)];
                    let link =
                        Link::new(GpuId(src), GpuId(dst), kind).with_lanes(1 + next(2) as u32);
                    let link = match next(3) {
                        0 => link.with_bandwidth(1.04),
                        _ => link,
                    };
                    t.add_link(link).unwrap();
                }
            }
        }
        t
    }

    #[test]
    fn search_matches_the_brute_force_on_random_fabrics() {
        let mut next = stream(0x5EED_CA90);
        for case in 0..90 {
            let n = 2 + case % 6;
            let t = random_fabric(n, &mut next);
            assert_matches_brute_force(&t, &format!("case {case}: {t}"));
        }
    }

    /// Complete orders the search compares over every 3–8-GPU subset of `topo`
    /// (the brute force compares `k!` per `k`-GPU subset: 109,536 on a DGX-1).
    fn complete_orders(topo: &Topology, sizes: impl IntoIterator<Item = usize>) -> u64 {
        let mut search = Search::default();
        unique_allocations_with(topo, sizes, &mut search).unwrap();
        search.complete_orders
    }

    #[test]
    fn the_search_compares_few_complete_orders() {
        assert_eq!(complete_orders(&dgx1v(), 3..=8), 734);
        assert_eq!(complete_orders(&dgx1p(), 3..=8), 1_215);
        // the full machines, against 8! = 40,320 orders each
        assert_eq!(complete_orders(&dgx1v(), [8]), 8);
        assert_eq!(complete_orders(&dgx1p(), [8]), 48);
    }

    #[test]
    fn combinations_count_is_binomial() {
        let t = dgx1v();
        assert_eq!(allocations_of_size(&t, 3).len(), 56);
        assert_eq!(allocations_of_size(&t, 8).len(), 1);
        assert_eq!(allocations_of_size(&t, 5).len(), 56);
    }

    #[test]
    fn mirror_quads_are_isomorphic() {
        let t = dgx1v();
        let a = canonical_form(&t, &[GpuId(0), GpuId(1), GpuId(2), GpuId(3)]).unwrap();
        let b = canonical_form(&t, &[GpuId(4), GpuId(5), GpuId(6), GpuId(7)]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn connected_and_disconnected_triples_differ() {
        let t = dgx1p();
        // fully NVLink-connected triple vs one with a missing edge
        let a = canonical_form(&t, &[GpuId(0), GpuId(1), GpuId(3)]).unwrap();
        let b = canonical_form(&t, &[GpuId(0), GpuId(1), GpuId(4)]).unwrap();
        assert_ne!(a, b);
    }

    /// Whether the NVLink links among `allocation` reach every member from
    /// its first GPU.
    fn nvlink_spans(topo: &Topology, allocation: &[GpuId]) -> bool {
        let mut reached = vec![allocation[0]];
        let mut frontier = vec![allocation[0]];
        while let Some(g) = frontier.pop() {
            for l in topo.links_from(g).filter(|l| l.kind.is_nvlink()) {
                if allocation.contains(&l.dst) && !reached.contains(&l.dst) {
                    reached.push(l.dst);
                    frontier.push(l.dst);
                }
            }
        }
        reached.len() == allocation.len()
    }

    /// Panics unless the 3–8-GPU classes of `topo` number `classes`, of which
    /// `connected` are NVLink-connected, and cover every allocation once.
    fn assert_class_counts(topo: &Topology, classes: usize, connected: usize) {
        let found = unique_allocations(topo, 3..=8).unwrap();
        assert_eq!(found.len(), classes, "{}: classes", topo.name());
        let spanning = found
            .iter()
            .filter(|c| nvlink_spans(topo, &c.representative))
            .count();
        assert_eq!(spanning, connected, "{}: NVLink-connected", topo.name());
        let total: usize = found.iter().map(|c| c.members.len()).sum();
        let expected: usize = (3..=8).map(|k| binomial(8, k)).sum();
        assert_eq!(total, expected, "{}: allocations", topo.name());
    }

    #[test]
    fn dgx1p_unique_classes_match_paper_scale() {
        // The paper reports 14 unique settings on the DGX-1P (Section 5.2.1,
        // Figure 16): exactly the NVLink-connected classes. The other 3 are
        // allocations NVLink cannot span, where both systems ride PCIe.
        assert_class_counts(&dgx1p(), 17, 14);
    }

    #[test]
    fn dgx1v_unique_classes_match_paper_scale() {
        // The paper reports 46 unique settings on the DGX-1V (Figure 15):
        // the NVLink-connected classes, beside 7 that NVLink cannot span.
        assert_class_counts(&dgx1v(), 53, 46);
    }

    #[test]
    fn an_empty_allocation_size_fails() {
        assert_eq!(
            unique_allocations(&dgx1v(), [0]).unwrap_err(),
            TopologyError::EmptyAllocation
        );
    }

    #[test]
    fn class_labels_are_comma_separated() {
        let t = dgx1v();
        let classes = unique_allocations(&t, [3usize]).unwrap();
        assert!(classes.iter().all(|c| c.label().split(',').count() == 3));
    }

    #[test]
    fn label_format_is_stable() {
        // The label format (ascending ids, comma-joined, no spaces) is
        // documented product surface; pin it exactly.
        let t = dgx1v();
        let classes = unique_allocations(&t, [3usize]).unwrap();
        let labels: Vec<String> = classes.iter().map(|c| c.label()).collect();
        assert!(labels.contains(&"0,1,2".to_string()), "got {labels:?}");
        for c in &classes {
            let parsed: Vec<usize> = c.label().split(',').map(|s| s.parse().unwrap()).collect();
            assert!(parsed.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(
                parsed,
                c.representative.iter().map(|g| g.0).collect::<Vec<_>>()
            );
        }
    }

    fn binomial(n: usize, k: usize) -> usize {
        let mut num = 1usize;
        let mut den = 1usize;
        for i in 0..k {
            num *= n - i;
            den *= i + 1;
        }
        num / den
    }
}
