//! Best-fit cluster simulator producing fragmented per-server allocations.

use crate::workload::{AllocationHistogram, Job};
use blink_topology::GpuId;
use serde::{Deserialize, Serialize};
use std::collections::BinaryHeap;

/// Where one job's GPUs ended up: a list of `(server index, local GPU ids)`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Placement {
    /// The job this placement belongs to.
    pub job_id: u64,
    /// Per-server slices: `(server index, GPUs on that server)`.
    pub slices: Vec<(usize, Vec<GpuId>)>,
}

impl Placement {
    /// Total number of GPUs in the placement.
    pub fn total_gpus(&self) -> usize {
        self.slices.iter().map(|(_, g)| g.len()).sum()
    }

    /// Whether the job is split across more than one server.
    pub fn is_fragmented(&self) -> bool {
        self.slices.len() > 1
    }
}

#[derive(Debug, PartialEq)]
struct Completion {
    time: f64,
    job_id: u64,
}

impl Eq for Completion {}
impl Ord for Completion {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .time
            .total_cmp(&self.time)
            .then(other.job_id.cmp(&self.job_id))
    }
}
impl PartialOrd for Completion {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Per-server GPU slices of one running job: `(server index, gpu indices)`.
type ServerAllocation = Vec<(usize, Vec<usize>)>;

/// A cluster of identical multi-GPU servers with a best-fit scheduler: a job
/// goes to the tightest server that can hold it, or is split across the
/// largest free blocks when none can.
#[derive(Debug)]
pub struct Cluster {
    gpus_per_server: usize,
    /// free\[s\]\[g\] = GPU `g` of server `s` is free.
    free: Vec<Vec<bool>>,
    /// quarantined\[s\]\[g\] = number of active faults holding GPU `g` of
    /// server `s` out of service (a free-but-quarantined GPU is never handed
    /// out; overlapping faults stack, each heal releases one hold).
    quarantined: Vec<Vec<u32>>,
    completions: BinaryHeap<Completion>,
    running: Vec<(u64, ServerAllocation)>,
    histogram: AllocationHistogram,
    rejected_capacity: u64,
    rejected_contention: u64,
}

impl Cluster {
    /// Creates a cluster of `servers` machines with `gpus_per_server` GPUs
    /// each.
    pub fn new(servers: usize, gpus_per_server: usize) -> Self {
        Cluster {
            gpus_per_server,
            free: vec![vec![true; gpus_per_server]; servers],
            quarantined: vec![vec![0; gpus_per_server]; servers],
            completions: BinaryHeap::new(),
            running: Vec::new(),
            histogram: AllocationHistogram::new(gpus_per_server),
            rejected_capacity: 0,
            rejected_contention: 0,
        }
    }

    /// Total number of GPUs in the cluster (free or busy).
    pub fn total_gpus(&self) -> usize {
        self.free.len() * self.gpus_per_server
    }

    /// Whether GPU `g` of server `s` can be handed out: free and not held by
    /// any active fault.
    fn available(&self, s: usize, g: usize) -> bool {
        self.free[s][g] && self.quarantined[s][g] == 0
    }

    /// Number of GPUs on server `s` that can be handed out right now.
    fn available_on(&self, s: usize) -> usize {
        (0..self.gpus_per_server)
            .filter(|&g| self.available(s, g))
            .count()
    }

    /// Number of currently allocatable GPUs (free and not quarantined).
    pub fn free_gpus(&self) -> usize {
        (0..self.free.len()).map(|s| self.available_on(s)).sum()
    }

    /// Number of GPUs currently held out of service by active faults.
    pub fn quarantined_gpus(&self) -> usize {
        self.quarantined
            .iter()
            .map(|s| s.iter().filter(|&&q| q > 0).count())
            .sum()
    }

    /// Takes GPU `gpu` of server `server` out of service (a fault onset).
    /// Holds stack: each call must be balanced by one [`Cluster::heal`]. A
    /// busy GPU keeps its owner until the owning job sheds it
    /// ([`Cluster::shed`]); either way it is not handed out again until
    /// healed.
    pub fn quarantine(&mut self, server: usize, gpu: usize) {
        self.quarantined[server][gpu] += 1;
    }

    /// Releases one quarantine hold on GPU `gpu` of server `server` (a heal
    /// event). Saturates at zero.
    pub fn heal(&mut self, server: usize, gpu: usize) {
        let q = &mut self.quarantined[server][gpu];
        *q = q.saturating_sub(1);
    }

    /// Quarantines every GPU of one server (a whole-server loss).
    pub fn quarantine_server(&mut self, server: usize) {
        for gpu in 0..self.gpus_per_server {
            self.quarantine(server, gpu);
        }
    }

    /// Releases one hold on every GPU of one server (the server came back).
    pub fn heal_server(&mut self, server: usize) {
        for gpu in 0..self.gpus_per_server {
            self.heal(server, gpu);
        }
    }

    /// Forcibly removes a running job — its GPUs become free immediately and
    /// its pending completion is cancelled, so a later re-submission of the
    /// same job id is not released by the stale entry. Returns whether the
    /// job was running. Used by the fault path to requeue jobs whose every
    /// GPU was lost.
    pub fn evict(&mut self, job_id: u64) -> bool {
        let Some(pos) = self.running.iter().position(|(id, _)| *id == job_id) else {
            return false;
        };
        let (_, slices) = self.running.swap_remove(pos);
        for (server, gpus) in slices {
            for g in gpus {
                self.free[server][g] = true;
            }
        }
        let kept: Vec<Completion> = std::mem::take(&mut self.completions)
            .into_iter()
            .filter(|c| c.job_id != job_id)
            .collect();
        self.completions = kept.into();
        true
    }

    /// Returns GPUs a running job shed to the cluster: they leave the job's
    /// allocation (a server left with none leaves it too) and become free,
    /// handed out again once no fault holds them. GPUs the job does not own
    /// are ignored.
    pub fn shed(&mut self, job_id: u64, gpus: &[GpuId]) {
        let Some((_, slices)) = self.running.iter_mut().find(|(id, _)| *id == job_id) else {
            return;
        };
        let gps = self.gpus_per_server;
        for (server, locals) in slices.iter_mut() {
            locals.retain(|&g| {
                let shed = gpus.contains(&GpuId(*server * gps + g));
                if shed {
                    self.free[*server][g] = true;
                }
                !shed
            });
        }
        slices.retain(|(_, locals)| !locals.is_empty());
    }

    /// The cluster's record of a running job's GPUs, or `None` if the job is
    /// not running.
    pub fn placement(&self, job_id: u64) -> Option<Placement> {
        let (_, slices) = self.running.iter().find(|(id, _)| *id == job_id)?;
        Some(self.to_placement(job_id, slices))
    }

    /// `slices` under global GPU ids.
    fn to_placement(&self, job_id: u64, slices: &ServerAllocation) -> Placement {
        Placement {
            job_id,
            slices: slices
                .iter()
                .map(|(s, gpus)| {
                    let global = gpus.iter().map(|g| GpuId(s * self.gpus_per_server + g));
                    (*s, global.collect())
                })
                .collect(),
        }
    }

    /// Jobs rejected for either reason — the sum of
    /// [`Cluster::rejected_capacity`] and [`Cluster::rejected_contention`].
    pub fn rejected(&self) -> u64 {
        self.rejected_capacity + self.rejected_contention
    }

    /// Jobs the cluster could never hold: they request more GPUs than the
    /// cluster has in total.
    pub fn rejected_capacity(&self) -> u64 {
        self.rejected_capacity
    }

    /// Jobs that fit the cluster but found too few free GPUs at their arrival
    /// time (transient contention — queueing would have placed them, but
    /// queueing does not change the fragmentation statistics we are after).
    pub fn rejected_contention(&self) -> u64 {
        self.rejected_contention
    }

    /// The per-server allocation-size histogram accumulated so far.
    pub fn histogram(&self) -> &AllocationHistogram {
        &self.histogram
    }

    /// Releases every job whose completion time is `<= time` and returns the
    /// departed job ids, in completion order (ties broken by ascending job
    /// id). [`Cluster::submit`] calls this implicitly at each arrival; the
    /// fleet pipeline calls it explicitly so departures can drive plan-cache
    /// invalidation and consolidation before the next placement.
    pub fn release_until(&mut self, time: f64) -> Vec<u64> {
        let mut departed = Vec::new();
        while let Some(c) = self.completions.peek() {
            if c.time > time {
                break;
            }
            let c = self.completions.pop().expect("peeked");
            if let Some(pos) = self.running.iter().position(|(id, _)| *id == c.job_id) {
                let (_, slices) = self.running.swap_remove(pos);
                for (server, gpus) in slices {
                    for g in gpus {
                        self.free[server][g] = true;
                    }
                }
                departed.push(c.job_id);
            }
        }
        departed
    }

    /// Offers a job to the cluster at its arrival time. Returns the
    /// placement, or `None` if the job cannot be placed *right now*: either
    /// it is larger than the whole cluster (counted in
    /// [`Cluster::rejected_capacity`]) or too few GPUs are free at its
    /// arrival (counted in [`Cluster::rejected_contention`]). Rejected jobs
    /// are not queued — queueing does not change the fragmentation
    /// statistics we are after.
    pub fn submit(&mut self, job: &Job) -> Option<Placement> {
        self.place(job, true)
    }

    /// Re-offers an evicted job (the fault path's bounded retries) without
    /// counting a rejection on failure — the rejection counters describe the
    /// arrival stream, not the retry queue.
    pub fn resubmit(&mut self, job: &Job) -> Option<Placement> {
        self.place(job, false)
    }

    fn place(&mut self, job: &Job, count_rejections: bool) -> Option<Placement> {
        self.release_until(job.arrival);
        if (job.gpus as usize) > self.total_gpus() {
            if count_rejections {
                self.rejected_capacity += 1;
            }
            return None;
        }
        if (job.gpus as usize) > self.free_gpus() {
            if count_rejections {
                self.rejected_contention += 1;
            }
            return None;
        }
        let mut remaining = job.gpus as usize;
        let mut slices: Vec<(usize, Vec<usize>)> = Vec::new();
        // Best-fit pass: among servers that can hold the whole remainder,
        // take the *tightest* (fewest free GPUs — keeps large free blocks
        // intact for later jobs); if none can, take the largest free block
        // to minimise the number of fragments. Ties break to the
        // lowest-index server in both cases.
        while remaining > 0 {
            let counts: Vec<(usize, usize)> = (0..self.free.len())
                .map(|s| (s, self.available_on(s)))
                .filter(|&(_, free)| free > 0)
                .collect();
            let target = counts
                .iter()
                .filter(|&&(_, free)| free >= remaining)
                .min_by_key(|&&(s, free)| (free, s))
                .or_else(|| {
                    counts
                        .iter()
                        .max_by_key(|&&(s, free)| (free, std::cmp::Reverse(s)))
                })
                .map(|&(s, _)| s);
            let Some(server) = target else { break };
            let mut taken = Vec::new();
            for g in 0..self.gpus_per_server {
                if remaining == 0 {
                    break;
                }
                if self.available(server, g) {
                    self.free[server][g] = false;
                    taken.push(g);
                    remaining -= 1;
                }
            }
            slices.push((server, taken));
        }
        debug_assert_eq!(remaining, 0, "free_gpus() said the job fits");
        for (_, gpus) in &slices {
            self.histogram.record(gpus.len());
        }
        self.completions.push(Completion {
            time: job.arrival + job.duration,
            job_id: job.id,
        });
        let placement = self.to_placement(job.id, &slices);
        self.running.push((job.id, slices));
        Some(placement)
    }

    /// Runs an entire job stream and returns the placements that succeeded.
    pub fn run_workload(&mut self, jobs: &[Job]) -> Vec<Placement> {
        jobs.iter().filter_map(|j| self.submit(j)).collect()
    }

    /// Tries to move a *fragmented* running job onto a single server, using
    /// GPUs freed by departures. Picks the server where the job already holds
    /// the most GPUs (moving the fewest), breaking ties toward the tightest
    /// feasible server and then the lowest index; the job keeps its GPUs on
    /// the chosen server and its remote fragments are released. Returns the
    /// new single-server placement, or `None` if the job is unknown, already
    /// consolidated, or no server can absorb it.
    ///
    /// The arrival-time allocation histogram is deliberately not rewritten —
    /// it records what the scheduler handed out (the paper's Figure 3
    /// statistic), not where jobs later migrated.
    pub fn try_consolidate(&mut self, job_id: u64) -> Option<Placement> {
        let pos = self.running.iter().position(|(id, _)| *id == job_id)?;
        if self.running[pos].1.len() <= 1 {
            return None;
        }
        let total: usize = self.running[pos].1.iter().map(|(_, g)| g.len()).sum();
        let own_on = |slices: &ServerAllocation, s: usize| -> usize {
            slices
                .iter()
                .find(|(server, _)| *server == s)
                .map(|(_, g)| g.len())
                .unwrap_or(0)
        };
        let mut best: Option<(usize, usize, usize)> = None; // (server, own, free)
        for s in 0..self.free.len() {
            let free = self.available_on(s);
            let own = own_on(&self.running[pos].1, s);
            if own + free < total {
                continue;
            }
            let better = match best {
                None => true,
                Some((bs, bown, bfree)) => {
                    (own, std::cmp::Reverse(free), std::cmp::Reverse(s))
                        > (bown, std::cmp::Reverse(bfree), std::cmp::Reverse(bs))
                }
            };
            if better {
                best = Some((s, own, free));
            }
        }
        let (target, _, _) = best?;
        let old_slices = std::mem::take(&mut self.running[pos].1);
        let mut gpus: Vec<usize> = Vec::with_capacity(total);
        for (server, locals) in &old_slices {
            if *server == target {
                gpus.extend(locals.iter().copied());
            } else {
                for &g in locals {
                    self.free[*server][g] = true;
                }
            }
        }
        for g in 0..self.gpus_per_server {
            if gpus.len() == total {
                break;
            }
            if self.available(target, g) {
                self.free[target][g] = false;
                gpus.push(g);
            }
        }
        debug_assert_eq!(gpus.len(), total, "feasibility was checked above");
        gpus.sort_unstable();
        self.running[pos].1 = vec![(target, gpus)];
        Some(self.to_placement(job_id, &self.running[pos].1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{WorkloadConfig, WorkloadGenerator};

    #[test]
    fn placements_respect_requested_size() {
        let mut cluster = Cluster::new(4, 8);
        let jobs = WorkloadGenerator::new(WorkloadConfig::default()).take(100);
        for p in cluster.run_workload(&jobs) {
            let job = jobs.iter().find(|j| j.id == p.job_id).unwrap();
            assert_eq!(p.total_gpus(), job.gpus as usize);
            for (_, gpus) in &p.slices {
                assert!(!gpus.is_empty());
            }
        }
    }

    #[test]
    fn gpus_are_released_when_jobs_finish() {
        let mut cluster = Cluster::new(1, 8);
        let job_a = Job {
            id: 0,
            gpus: 8,
            arrival: 0.0,
            duration: 10.0,
        };
        let job_b = Job {
            id: 1,
            gpus: 8,
            arrival: 5.0,
            duration: 10.0,
        };
        let job_c = Job {
            id: 2,
            gpus: 8,
            arrival: 20.0,
            duration: 1.0,
        };
        assert!(cluster.submit(&job_a).is_some());
        assert!(cluster.submit(&job_b).is_none()); // cluster full at t=5
        assert_eq!(cluster.rejected(), 1);
        assert_eq!(cluster.rejected_contention(), 1, "the cluster fits job B");
        assert_eq!(cluster.rejected_capacity(), 0);
        assert!(cluster.submit(&job_c).is_some()); // job A finished at t=10
    }

    #[test]
    fn best_fit_prefers_the_tightest_server() {
        let mut cluster = Cluster::new(2, 8);
        // a 5-GPU job leaves server 0 with 3 free GPUs; server 1 keeps 8
        let filler = Job {
            id: 0,
            gpus: 5,
            arrival: 0.0,
            duration: 100.0,
        };
        let p = cluster.submit(&filler).unwrap();
        assert_eq!(p.slices, vec![(0, (0..5).map(GpuId).collect::<Vec<_>>())]);
        // the 3-GPU job must land on the 3-free server, not the 8-free one —
        // the tightest fit keeps server 1's full block intact
        let job = Job {
            id: 1,
            gpus: 3,
            arrival: 1.0,
            duration: 100.0,
        };
        let p = cluster.submit(&job).unwrap();
        assert_eq!(
            p.slices,
            vec![(0, vec![GpuId(5), GpuId(6), GpuId(7)])],
            "tightest-fit placement broke up the empty server instead"
        );
        // and the preserved 8-GPU block still takes a full-server job whole
        let big = Job {
            id: 2,
            gpus: 8,
            arrival: 2.0,
            duration: 100.0,
        };
        let p = cluster.submit(&big).unwrap();
        assert!(!p.is_fragmented());
        assert_eq!(p.slices[0].0, 1);
    }

    #[test]
    fn capacity_and_contention_rejections_are_counted_apart() {
        let mut cluster = Cluster::new(1, 8);
        // larger than the whole cluster: a capacity rejection, always
        let whale = Job {
            id: 0,
            gpus: 16,
            arrival: 0.0,
            duration: 1.0,
        };
        assert!(cluster.submit(&whale).is_none());
        assert_eq!(cluster.rejected_capacity(), 1);
        assert_eq!(cluster.rejected_contention(), 0);
        // fits the cluster, but arrives while it is busy: contention
        let tenant = Job {
            id: 1,
            gpus: 8,
            arrival: 0.0,
            duration: 10.0,
        };
        let blocked = Job {
            id: 2,
            gpus: 8,
            arrival: 1.0,
            duration: 1.0,
        };
        assert!(cluster.submit(&tenant).is_some());
        assert!(cluster.submit(&blocked).is_none());
        assert_eq!(cluster.rejected_capacity(), 1);
        assert_eq!(cluster.rejected_contention(), 1);
        assert_eq!(cluster.rejected(), 2);
    }

    #[test]
    fn release_until_reports_departures_in_completion_order() {
        let mut cluster = Cluster::new(2, 8);
        for (id, dur) in [(0u64, 5.0), (1, 3.0), (2, 9.0)] {
            let job = Job {
                id,
                gpus: 4,
                arrival: 0.0,
                duration: dur,
            };
            assert!(cluster.submit(&job).is_some());
        }
        assert_eq!(cluster.release_until(6.0), vec![1, 0]);
        assert_eq!(cluster.free_gpus(), 2 * 8 - 4);
        assert_eq!(cluster.release_until(6.0), Vec::<u64>::new());
        assert_eq!(cluster.release_until(9.0), vec![2]);
        assert_eq!(cluster.free_gpus(), 16);
    }

    #[test]
    fn consolidation_moves_a_fragmented_job_onto_one_server() {
        let mut cluster = Cluster::new(2, 8);
        let job = |id, gpus, arrival| Job {
            id,
            gpus,
            arrival,
            duration: if id == 0 { 10.0 } else { 100.0 },
        };
        assert!(!cluster.submit(&job(0, 6, 0.0)).unwrap().is_fragmented());
        assert!(!cluster.submit(&job(1, 6, 0.0)).unwrap().is_fragmented());
        // 4 GPUs with only 2+2 free: fragments across both servers
        let frag = cluster.submit(&job(2, 4, 1.0)).unwrap();
        assert!(frag.is_fragmented());
        let sizes: Vec<usize> = frag.slices.iter().map(|(_, g)| g.len()).collect();
        assert_eq!(sizes, vec![2, 2]);
        // nothing to consolidate into while both servers are tight
        assert!(cluster.try_consolidate(2).is_none());
        // job 0 departs, freeing 6 GPUs on server 0
        assert_eq!(cluster.release_until(10.0), vec![0]);
        let packed = cluster.try_consolidate(2).unwrap();
        assert_eq!(packed.job_id, 2);
        assert!(!packed.is_fragmented());
        assert_eq!(
            packed.slices,
            vec![(0, vec![GpuId(0), GpuId(1), GpuId(6), GpuId(7)])],
            "job keeps its server-0 slice and backfills the freed block"
        );
        // the remote fragment was released, nothing double-freed
        assert_eq!(cluster.free_gpus(), 16 - 6 - 4);
        // consolidating an already-local job is a no-op
        assert!(cluster.try_consolidate(2).is_none());
        // when job 2 finally completes, exactly its 4 GPUs come back
        assert_eq!(cluster.release_until(200.0), vec![1, 2]);
        assert_eq!(cluster.free_gpus(), 16);
    }

    #[test]
    fn quarantined_gpus_are_never_handed_out() {
        let mut cluster = Cluster::new(2, 8);
        cluster.quarantine_server(1);
        assert_eq!(cluster.free_gpus(), 8);
        assert_eq!(cluster.quarantined_gpus(), 8);
        let job = Job {
            id: 0,
            gpus: 8,
            arrival: 0.0,
            duration: 10.0,
        };
        // the whole job lands on the healthy server
        let p = cluster.submit(&job).unwrap();
        assert_eq!(p.slices.len(), 1);
        assert_eq!(p.slices[0].0, 0);
        // a second 8-GPU job finds nothing while server 1 is down...
        let blocked = Job {
            id: 1,
            gpus: 8,
            arrival: 1.0,
            duration: 1.0,
        };
        assert!(cluster.submit(&blocked).is_none());
        assert_eq!(cluster.rejected_contention(), 1);
        // ...and a resubmit failure does not inflate the rejection counters
        assert!(cluster.resubmit(&blocked).is_none());
        assert_eq!(cluster.rejected_contention(), 1);
        // overlapping holds stack: one heal of a doubly-held GPU frees nothing
        cluster.quarantine(1, 0);
        cluster.heal(1, 0);
        assert_eq!(cluster.free_gpus(), 0);
        cluster.heal_server(1);
        assert_eq!(cluster.quarantined_gpus(), 0);
        assert!(cluster
            .resubmit(&Job {
                arrival: 2.0,
                ..blocked
            })
            .is_some());
    }

    #[test]
    fn shed_gpus_leave_the_job_and_return_once_healed() {
        let mut cluster = Cluster::new(2, 8);
        let job = Job {
            id: 4,
            gpus: 10,
            arrival: 0.0,
            duration: 10.0,
        };
        assert!(cluster.submit(&job).unwrap().is_fragmented());
        // GPU 3 dies and the job sheds it; so does its whole second server
        cluster.quarantine(0, 3);
        cluster.shed(4, &[GpuId(3), GpuId(8), GpuId(9)]);
        let record = cluster.placement(4).unwrap();
        assert_eq!(
            record.slices,
            vec![(0, [0, 1, 2, 4, 5, 6, 7].map(GpuId).to_vec())]
        );
        // the live shed GPUs are free at once, the dead one once healed
        assert_eq!(cluster.free_gpus(), 8);
        cluster.heal(0, 3);
        assert_eq!(cluster.free_gpus(), 9);
        // the departure frees exactly what the job still held
        assert_eq!(cluster.release_until(10.0), vec![4]);
        assert_eq!(cluster.free_gpus(), 16);
        assert!(cluster.placement(4).is_none());
    }

    #[test]
    fn evict_releases_gpus_and_cancels_the_stale_completion() {
        let mut cluster = Cluster::new(1, 8);
        let job = Job {
            id: 3,
            gpus: 8,
            arrival: 0.0,
            duration: 10.0,
        };
        assert!(cluster.submit(&job).is_some());
        assert!(cluster.evict(3));
        assert!(!cluster.evict(3), "double eviction must be a no-op");
        assert_eq!(cluster.free_gpus(), 8);
        // re-place the same job id later; the original completion at t=10
        // must not release the re-placed instance early
        let again = Job {
            arrival: 5.0,
            duration: 100.0,
            ..job
        };
        assert!(cluster.resubmit(&again).is_some());
        assert_eq!(cluster.release_until(50.0), Vec::<u64>::new());
        assert_eq!(cluster.free_gpus(), 0);
        assert_eq!(cluster.release_until(105.0), vec![3]);
        assert_eq!(cluster.free_gpus(), 8);
    }

    #[test]
    fn contended_cluster_produces_fragmented_allocations() {
        // The Figure 3 phenomenon: under contention, some jobs get split
        // across servers and non-power-of-two per-server slices appear.
        let mut cluster = Cluster::new(8, 8);
        let jobs = WorkloadGenerator::new(WorkloadConfig {
            mean_interarrival: 0.5,
            mean_duration: 50.0,
            ..Default::default()
        })
        .take(2_000);
        let placements = cluster.run_workload(&jobs);
        assert!(!placements.is_empty());
        let hist = cluster.histogram();
        assert!(hist.total_multi_gpu() > 100);
        assert!(
            hist.fragmented_fraction() > 0.05,
            "expected visible fragmentation, got {}",
            hist.fragmented_fraction()
        );
        // power-of-two sizes still dominate
        assert!(hist.fraction(8) + hist.fraction(4) + hist.fraction(2) > 0.4);
    }

    #[test]
    fn global_gpu_ids_are_unique_per_placement() {
        let mut cluster = Cluster::new(2, 8);
        let job = Job {
            id: 9,
            gpus: 16,
            arrival: 0.0,
            duration: 1.0,
        };
        let p = cluster.submit(&job).unwrap();
        let mut ids: Vec<GpuId> = p.slices.iter().flat_map(|(_, g)| g.clone()).collect();
        let before = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), before);
        assert_eq!(before, 16);
    }
}
