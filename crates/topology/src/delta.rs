//! Topology-change events for incremental replanning.
//!
//! Real fleets churn: NVLink lanes fail, GPUs drop out of a job, links heal.
//! Blink's planner stack reacts to such an event through a
//! [`TopologyDelta`] — a self-contained description of the links and GPUs
//! that appeared or disappeared — rather than re-probing and re-planning the
//! world from scratch. Deltas are derived by diffing two induced topologies
//! ([`TopologyDelta::between`]) and can be re-applied to a topology
//! ([`Topology::apply_delta`]) so that planners, caches and simulators all
//! agree on the post-churn world.
//!
//! The delta carries *full* link and GPU descriptions (not just ids) so that
//! it can be applied to any copy of the pre-churn topology — the communicator
//! holds its own machine model and must be able to replay the event locally.

use crate::topology::{GpuInfo, Topology};
use crate::{GpuId, Link, ServerId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// A topology-change event: links/GPUs removed from and added to a topology.
///
/// `removed_links` and `added_links` are directed (a dead physical duplex
/// connection appears as two removed directed links, exactly as
/// [`Topology::add_duplex`] added them). `added_gpu_caps` / `added_server_nics`
/// carry the per-GPU fabric caps and per-server NIC bandwidths that arrive
/// with grown hardware, so applying a delta reproduces the new topology
/// faithfully on switch fabrics and multi-server slices too.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TopologyDelta {
    /// Directed links present before but not after the event.
    pub removed_links: Vec<Link>,
    /// Directed links present after but not before the event.
    pub added_links: Vec<Link>,
    /// GPUs that disappeared (their incident links are implicitly removed).
    pub removed_gpus: Vec<GpuId>,
    /// GPUs that appeared, with their placement metadata.
    pub added_gpus: Vec<GpuInfo>,
    /// Injection/ejection caps for GPUs that appeared (switch fabrics).
    pub added_gpu_caps: BTreeMap<GpuId, f64>,
    /// NIC bandwidths for servers that appeared with the added GPUs.
    pub added_server_nics: BTreeMap<ServerId, f64>,
    /// NIC bandwidths that *changed* on servers present before and after the
    /// event (a degraded or healed NIC). Wins over the carried-forward value
    /// when the delta is applied. Defaults to empty for deltas serialized
    /// before this field existed.
    #[serde(default)]
    pub changed_server_nics: BTreeMap<ServerId, f64>,
}

impl TopologyDelta {
    /// Derives the delta that turns `old` into `new`.
    ///
    /// Links are matched by exact equality (source, destination, kind, lanes,
    /// bandwidth) as a multiset; GPUs by id. Links incident to a removed GPU
    /// are *not* listed in `removed_links` — removing the GPU already implies
    /// them — so a pure drop-a-GPU event has an empty link list.
    pub fn between(old: &Topology, new: &Topology) -> Self {
        let old_ids: BTreeSet<GpuId> = old.gpus().iter().map(|g| g.id).collect();
        let new_ids: BTreeSet<GpuId> = new.gpus().iter().map(|g| g.id).collect();
        let removed_gpus: Vec<GpuId> = old_ids.difference(&new_ids).copied().collect();
        let added_gpus: Vec<GpuInfo> = new
            .gpus()
            .iter()
            .filter(|g| !old_ids.contains(&g.id))
            .copied()
            .collect();

        // multiset diff over links, ignoring links implied by GPU changes
        let implied_old = |l: &Link| removed_gpus.contains(&l.src) || removed_gpus.contains(&l.dst);
        let implied_new = |l: &Link| !old_ids.contains(&l.src) || !old_ids.contains(&l.dst);
        let mut new_links: Vec<(&Link, bool)> = new
            .links()
            .iter()
            .filter(|l| !implied_new(l))
            .map(|l| (l, false))
            .collect();
        let mut removed_links = Vec::new();
        for l in old.links().iter().filter(|l| !implied_old(l)) {
            if let Some(slot) = new_links.iter_mut().find(|(n, used)| !used && *n == l) {
                slot.1 = true;
            } else {
                removed_links.push(*l);
            }
        }
        let added_links: Vec<Link> = new
            .links()
            .iter()
            .filter(|l| implied_new(l))
            .copied()
            .chain(new_links.iter().filter(|(_, used)| !used).map(|(l, _)| **l))
            .collect();

        let added_gpu_caps = added_gpus
            .iter()
            .filter_map(|g| new.gpu_cap(g.id).map(|c| (g.id, c)))
            .collect();
        let old_servers: BTreeSet<ServerId> = old.gpus().iter().map(|g| g.server).collect();
        let added_server_nics = added_gpus
            .iter()
            .filter(|g| !old_servers.contains(&g.server))
            .filter_map(|g| new.server_nic(g.server).map(|n| (g.server, n)))
            .collect();
        // NICs that changed bandwidth on servers surviving the event (a
        // degraded or healed NIC shows up here, not in `added_server_nics`).
        let changed_server_nics = new
            .servers()
            .into_iter()
            .filter(|s| old_servers.contains(s))
            .filter_map(|s| match (old.server_nic(s), new.server_nic(s)) {
                (Some(before), Some(after)) if before != after => Some((s, after)),
                (None, Some(after)) => Some((s, after)),
                _ => None,
            })
            .collect();

        TopologyDelta {
            removed_links,
            added_links,
            removed_gpus,
            added_gpus,
            added_gpu_caps,
            added_server_nics,
            changed_server_nics,
        }
    }

    /// The delta that kills every directed link between `a` and `b` (both
    /// directions, all classes) on `topo` — the "a physical connection died"
    /// failure event.
    pub fn kill_link(topo: &Topology, a: GpuId, b: GpuId) -> Self {
        TopologyDelta {
            removed_links: topo
                .links()
                .iter()
                .filter(|l| (l.src == a && l.dst == b) || (l.src == b && l.dst == a))
                .copied()
                .collect(),
            ..Default::default()
        }
    }

    /// The delta that drops one GPU (its incident links follow implicitly).
    pub fn drop_gpu(id: GpuId) -> Self {
        TopologyDelta {
            removed_gpus: vec![id],
            ..Default::default()
        }
    }

    /// The delta that sets one server's NIC bandwidth — the "a NIC degraded
    /// (or healed back)" event. Only the cross-machine protocol consumes NIC
    /// bandwidth, so this leaves every induced link graph untouched.
    pub fn set_server_nic(server: ServerId, gbps: f64) -> Self {
        TopologyDelta {
            changed_server_nics: [(server, gbps)].into(),
            ..Default::default()
        }
    }

    /// Whether the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.removed_links.is_empty()
            && self.added_links.is_empty()
            && self.removed_gpus.is_empty()
            && self.added_gpus.is_empty()
            && self.changed_server_nics.is_empty()
    }

    /// Composes two consecutive events into one compound delta: applying
    /// `self.compose(later)` to a topology is equivalent to applying `self`
    /// and then `later` (for any pair of deltas valid in that sequence).
    ///
    /// Inverse sub-events cancel: a link removed by `self` and re-added by
    /// `later` (a flap that healed before anyone replanned) vanishes from the
    /// compound delta entirely, as does a link or GPU added by `self` and
    /// removed by `later`. A GPU dropped by `self` and re-added by `later`
    /// does *not* cancel — its original incident links were implied away by
    /// the drop, so the compound delta keeps the remove-then-re-add pair
    /// (which [`Topology::apply_delta`] replays in that order) together with
    /// the links `later` restored. This is what lets a burst of fault events
    /// collapse into a single replan instead of one replan per flap.
    pub fn compose(&self, later: &TopologyDelta) -> TopologyDelta {
        let earlier_added: BTreeSet<GpuId> = self.added_gpus.iter().map(|g| g.id).collect();
        // A GPU this delta added and the later one removed never existed in
        // the base topology: it cancels out of both lists.
        let cancelled: BTreeSet<GpuId> = later
            .removed_gpus
            .iter()
            .copied()
            .filter(|g| earlier_added.contains(g))
            .collect();
        let removed_gpus: Vec<GpuId> = self
            .removed_gpus
            .iter()
            .chain(later.removed_gpus.iter())
            .copied()
            .filter(|g| !cancelled.contains(g))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let later_removed: BTreeSet<GpuId> = later.removed_gpus.iter().copied().collect();
        let added_gpus: Vec<GpuInfo> = self
            .added_gpus
            .iter()
            .filter(|g| !later_removed.contains(&g.id))
            .chain(later.added_gpus.iter())
            .copied()
            .collect();
        let added_ids: BTreeSet<GpuId> = added_gpus.iter().map(|g| g.id).collect();

        // Links cancel one-for-one as a multiset: the later event healing a
        // link this one removed (or removing a link this one added) nets out.
        let mut added = self.added_links.clone();
        let mut removed = self.removed_links.clone();
        for l in &later.removed_links {
            if let Some(pos) = added.iter().position(|x| x == l) {
                added.swap_remove(pos);
            } else {
                removed.push(*l);
            }
        }
        for l in &later.added_links {
            if let Some(pos) = removed.iter().position(|x| x == l) {
                removed.swap_remove(pos);
            } else {
                added.push(*l);
            }
        }
        let rg: BTreeSet<GpuId> = removed_gpus.iter().copied().collect();
        // Removals incident to a compound-removed GPU are implied by the GPU
        // removal; additions incident to a GPU absent from the compound
        // post-state would dangle. Both classes drop out.
        removed.retain(|l| {
            !rg.contains(&l.src)
                && !rg.contains(&l.dst)
                && !cancelled.contains(&l.src)
                && !cancelled.contains(&l.dst)
        });
        let dangling =
            |g: &GpuId| (rg.contains(g) && !added_ids.contains(g)) || cancelled.contains(g);
        added.retain(|l| !dangling(&l.src) && !dangling(&l.dst));

        let added_gpu_caps: BTreeMap<GpuId, f64> = self
            .added_gpu_caps
            .iter()
            .chain(later.added_gpu_caps.iter())
            .filter(|(g, _)| added_ids.contains(g))
            .map(|(g, c)| (*g, *c))
            .collect();
        let mut added_server_nics = self.added_server_nics.clone();
        added_server_nics.extend(later.added_server_nics.iter());
        let mut changed_server_nics = self.changed_server_nics.clone();
        changed_server_nics.extend(later.changed_server_nics.iter());

        TopologyDelta {
            removed_links: removed,
            added_links: added,
            removed_gpus,
            added_gpus,
            added_gpu_caps,
            added_server_nics,
            changed_server_nics,
        }
    }

    /// Whether the delta only removes capacity (no new links or GPUs). Under
    /// a pure removal the broadcast min-cut of any surviving subgraph can
    /// only decrease, which is what lets plan caches keep untouched plans
    /// alive instead of demoting them to warm seeds.
    pub fn is_pure_removal(&self) -> bool {
        self.added_links.is_empty() && self.added_gpus.is_empty()
    }

    /// Whether the delta only adds capacity (no removed links or GPUs). Under
    /// a pure growth the pre-event topology persists verbatim as a subgraph
    /// of the post-event one, so every certificate proved against it is still
    /// a true statement about live hardware — plan caches keep entries for
    /// the old shape alive under their old fingerprint instead of dropping
    /// them (a healed link leaves the damaged shape's plans servable).
    pub fn is_pure_growth(&self) -> bool {
        self.removed_links.is_empty() && self.removed_gpus.is_empty()
    }

    /// The directed GPU pairs losing at least one link, including every pair
    /// incident to a removed GPU as far as the delta can tell (pairs of
    /// removed GPUs are representable only by the GPU id itself — callers
    /// should also consult [`TopologyDelta::removed_gpus`]).
    pub fn removed_pairs(&self) -> BTreeSet<(GpuId, GpuId)> {
        self.removed_links.iter().map(|l| (l.src, l.dst)).collect()
    }
}

impl Topology {
    /// Applies a [`TopologyDelta`], returning the post-event topology.
    ///
    /// Removed GPUs take their incident links and fabric caps with them;
    /// removed links are matched by exact equality, one occurrence per listed
    /// link. Added GPUs and links must be consistent (no duplicate GPU ids,
    /// no dangling link endpoints) or the corresponding
    /// [`crate::TopologyError`] is returned.
    ///
    /// # Errors
    /// Propagates [`crate::TopologyError::DuplicateGpu`] /
    /// [`crate::TopologyError::DanglingLink`] from the additions.
    pub fn apply_delta(&self, delta: &TopologyDelta) -> crate::Result<Topology> {
        let mut out = Topology::new(self.name().to_string());
        for g in self.gpus() {
            if delta.removed_gpus.contains(&g.id) {
                continue;
            }
            out.add_gpu(g.id, g.server, g.local_index)?;
        }
        for g in &delta.added_gpus {
            out.add_gpu(g.id, g.server, g.local_index)?;
        }
        let mut pending: Vec<&Link> = delta.removed_links.iter().collect();
        for l in self.links() {
            if delta.removed_gpus.contains(&l.src) || delta.removed_gpus.contains(&l.dst) {
                continue;
            }
            if let Some(pos) = pending.iter().position(|r| *r == l) {
                pending.swap_remove(pos);
                continue;
            }
            out.add_link(*l)?;
        }
        for l in &delta.added_links {
            out.add_link(*l)?;
        }
        for g in out.gpu_ids() {
            if let Some(cap) = delta
                .added_gpu_caps
                .get(&g)
                .copied()
                .or_else(|| self.gpu_cap(g))
            {
                out.set_gpu_cap(g, cap)?;
            }
        }
        for s in out.servers() {
            if let Some(nic) = delta
                .changed_server_nics
                .get(&s)
                .copied()
                .or_else(|| delta.added_server_nics.get(&s).copied())
                .or_else(|| self.server_nic(s))
            {
                out.set_server_nic(s, nic);
            }
        }
        Ok(out)
    }

    /// Convenience: the topology with every link between `a` and `b` removed.
    pub fn without_link(&self, a: GpuId, b: GpuId) -> Topology {
        self.filter_links(|l| !((l.src == a && l.dst == b) || (l.src == b && l.dst == a)))
    }

    /// Convenience: the topology without `id` and its incident links.
    pub fn without_gpu(&self, id: GpuId) -> Topology {
        self.apply_delta(&TopologyDelta::drop_gpu(id))
            .expect("removals cannot introduce inconsistencies")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::{dgx1v, dgx2, multi_server, ServerKind};

    #[test]
    fn between_is_inverse_of_apply() {
        let old = dgx1v();
        let new = old.without_link(GpuId(0), GpuId(1)).without_gpu(GpuId(7));
        let delta = TopologyDelta::between(&old, &new);
        assert!(delta.is_pure_removal());
        assert!(!delta.is_empty());
        assert_eq!(delta.removed_gpus, vec![GpuId(7)]);
        // only the 0↔1 links are listed; GPU 7's incident links are implied
        assert!(delta
            .removed_links
            .iter()
            .all(|l| (l.src, l.dst) == (GpuId(0), GpuId(1))
                || (l.src, l.dst) == (GpuId(1), GpuId(0))));
        let replayed = old.apply_delta(&delta).unwrap();
        assert_eq!(replayed.gpu_ids(), new.gpu_ids());
        assert_eq!(replayed.links().len(), new.links().len());
        assert!(TopologyDelta::between(&replayed, &new).is_empty());
    }

    #[test]
    fn grow_delta_carries_caps_and_nics() {
        let cluster = multi_server(2, ServerKind::Dgx1V, 5.0);
        let half: Vec<GpuId> = (0..8).map(GpuId).collect();
        let all: Vec<GpuId> = (0..16).map(GpuId).collect();
        let old = cluster.induced(&half).unwrap();
        let new = cluster.induced(&all).unwrap();
        let delta = TopologyDelta::between(&old, &new);
        assert!(!delta.is_pure_removal());
        assert!(delta.is_pure_growth());
        assert_eq!(delta.added_gpus.len(), 8);
        assert!(delta.removed_links.is_empty() && delta.removed_gpus.is_empty());
        // the second server's NIC arrives with its GPUs
        assert_eq!(delta.added_server_nics.len(), 1);
        let replayed = old.apply_delta(&delta).unwrap();
        assert_eq!(replayed.gpu_ids(), new.gpu_ids());
        assert_eq!(replayed.links().len(), new.links().len());
        for s in new.servers() {
            assert_eq!(replayed.server_nic(s), new.server_nic(s));
        }
    }

    #[test]
    fn dgx2_gpu_caps_survive_deltas() {
        let topo = dgx2();
        let new = topo.without_gpu(GpuId(3));
        let delta = TopologyDelta::between(&topo, &new);
        let replayed = topo.apply_delta(&delta).unwrap();
        for g in replayed.gpu_ids() {
            assert_eq!(replayed.gpu_cap(g), topo.gpu_cap(g));
        }
        assert!(!replayed.contains(GpuId(3)));
    }

    #[test]
    fn compose_cancels_flap_then_heal() {
        let topo = dgx1v();
        let flap = TopologyDelta::kill_link(&topo, GpuId(0), GpuId(3));
        let heal = TopologyDelta {
            added_links: flap.removed_links.clone(),
            ..Default::default()
        };
        assert!(
            flap.compose(&heal).is_empty(),
            "a flap healed before anyone replanned must vanish from the compound delta"
        );
        // ...and the same holds pairwise for every physical link in the box.
        for l in topo.links() {
            let flap = TopologyDelta::kill_link(&topo, l.src, l.dst);
            let heal = TopologyDelta {
                added_links: flap.removed_links.clone(),
                ..Default::default()
            };
            assert!(flap.compose(&heal).is_empty(), "{:?}→{:?}", l.src, l.dst);
        }
    }

    /// Property: applying the composed delta equals applying the two deltas
    /// in sequence, across a matrix of compound failure shapes (two link
    /// kills, link+GPU, GPU then heal-by-growth, NIC degrade then heal).
    #[test]
    fn compose_matches_sequential_application() {
        let boxes = [dgx1v(), dgx2()];
        for topo in &boxes {
            let links = topo.links();
            let pairs: Vec<(GpuId, GpuId)> = links
                .iter()
                .filter(|l| l.src.0 < l.dst.0)
                .map(|l| (l.src, l.dst))
                .collect();
            let n = pairs.len();
            for (i, &(a, b)) in pairs.iter().enumerate() {
                // two simultaneous link kills, deterministic second pick
                let (c, d) = pairs[(i + n / 2) % n];
                let d1 = TopologyDelta::kill_link(topo, a, b);
                let t1 = topo.apply_delta(&d1).unwrap();
                let d2 = TopologyDelta::kill_link(&t1, c, d);
                let sequential = t1.apply_delta(&d2).unwrap();
                let composed = topo.apply_delta(&d1.compose(&d2)).unwrap();
                assert!(
                    TopologyDelta::between(&composed, &sequential).is_empty(),
                    "2-link compose mismatch on {a:?}{b:?}+{c:?}{d:?}"
                );
                // link kill then GPU drop (GPU chosen off the killed pair)
                let victim = topo.gpu_ids().into_iter().find(|g| *g != a).unwrap();
                let d2 = TopologyDelta::drop_gpu(victim);
                let sequential = t1.apply_delta(&d2).unwrap();
                let composed = topo.apply_delta(&d1.compose(&d2)).unwrap();
                assert!(
                    TopologyDelta::between(&composed, &sequential).is_empty(),
                    "link+gpu compose mismatch on {a:?}{b:?}+{victim:?}"
                );
            }
            // GPU drop then heal-by-growth: remove-then-re-add survives
            // composition (does not cancel — the drop implied its links away).
            let victim = topo.gpu_ids()[1];
            let d1 = TopologyDelta::drop_gpu(victim);
            let t1 = topo.apply_delta(&d1).unwrap();
            let d2 = TopologyDelta::between(&t1, topo);
            let sequential = t1.apply_delta(&d2).unwrap();
            let compound = d1.compose(&d2);
            assert!(!compound.is_empty(), "drop-then-heal keeps the replay pair");
            let composed = topo.apply_delta(&compound).unwrap();
            assert!(TopologyDelta::between(&composed, &sequential).is_empty());
        }
    }

    #[test]
    fn nic_degrade_deltas_round_trip_and_compose() {
        let cluster = multi_server(2, ServerKind::Dgx1V, 5.0);
        let server = cluster.servers()[1];
        let degrade = TopologyDelta::set_server_nic(server, 1.25);
        assert!(!degrade.is_empty());
        assert!(degrade.is_pure_removal() && degrade.is_pure_growth());
        let degraded = cluster.apply_delta(&degrade).unwrap();
        assert_eq!(degraded.server_nic(server), Some(1.25));
        // between() captures the NIC change on a surviving server…
        let diff = TopologyDelta::between(&cluster, &degraded);
        assert_eq!(diff.changed_server_nics.get(&server), Some(&1.25));
        assert!(diff.removed_links.is_empty() && diff.added_gpus.is_empty());
        // …and degrade-then-heal composes to the healed bandwidth.
        let heal = TopologyDelta::set_server_nic(server, 5.0);
        let healed = cluster.apply_delta(&degrade.compose(&heal)).unwrap();
        assert_eq!(healed.server_nic(server), Some(5.0));
        assert!(TopologyDelta::between(&cluster, &healed).is_empty());
    }

    #[test]
    fn kill_link_delta_matches_without_link() {
        let topo = dgx1v();
        let delta = TopologyDelta::kill_link(&topo, GpuId(2), GpuId(3));
        let applied = topo.apply_delta(&delta).unwrap();
        let direct = topo.without_link(GpuId(2), GpuId(3));
        assert!(TopologyDelta::between(&applied, &direct).is_empty());
        assert_eq!(
            delta.removed_pairs(),
            [(GpuId(2), GpuId(3)), (GpuId(3), GpuId(2))].into()
        );
    }
}
