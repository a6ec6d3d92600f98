//! Hierarchical process groups: nested sub-communicators that run
//! *concurrently* over the links they share.
//!
//! [`Communicator::split`] partitions one job's allocation with a
//! [`GroupSplit`] (by server, by stride, or explicit GPU sets) and returns a
//! [`ProcessGroups`]: one child [`Communicator`] per subgroup, each planning
//! and simulating over its own induced topology, plus a *shared* simulator
//! session built from the parent's machine model. Because every child's
//! slice is part of that machine, concurrent subgroup collectives contend
//! for exactly the links their induced topologies share — the session's
//! arbitration models the tensor-parallel/data-parallel overlap a real
//! hierarchical job sees.
//!
//! Children plan and lower through the parent's plan store exactly as any
//! communicator on that store would: each child's programs are the ones a
//! private communicator over the same subgroup lowers, and a repeated split
//! takes every child's lowerings from the store's lowering tier. The shared
//! session runs the programs themselves: a compiled form the tier keeps
//! fits a simulator of its slice, not the machine's.
//!
//! [`ProcessGroups::run_concurrent_checked`] is the conformance oracle for
//! the whole construction: it lowers one collective per subgroup, admits all
//! of them into one [`blink_sim::Session`], and replays every program
//! value-level against its collective contract on the shared schedule.

use crate::collective::CollectiveKind;
use crate::communicator::Communicator;
use crate::treegen::ScratchPool;
use crate::{BlinkError, Result};
use blink_sim::{check_collective, Program, Simulator, ValueCheck};
use blink_topology::{GroupSplit, Topology};
use std::sync::Arc;

/// A set of sub-communicators produced by [`Communicator::split`], sharing
/// one machine model and one simulator session.
#[derive(Debug)]
pub struct ProcessGroups {
    /// The simulator over the parent's machine model, which it holds.
    sim: Simulator,
    children: Vec<Communicator>,
}

/// One subgroup's outcome inside a [`GroupRun`].
#[derive(Debug, Clone)]
pub struct GroupCollective {
    /// The collective this subgroup ran.
    pub kind: CollectiveKind,
    /// Payload size in bytes.
    pub bytes: u64,
    /// When the subgroup's program finished on the shared timeline (µs).
    pub end_us: f64,
    /// Human-readable strategy the child communicator picked.
    pub strategy: String,
    /// The lowered transfer program (empty for trivial requests), shared
    /// with the plan store's lowering tier. The shared session simulates
    /// the machine, so it runs this program, never a compiled form.
    pub program: Arc<Program>,
    /// Per-op `(start, end)` times on the shared schedule, indexed by the
    /// program's op ids.
    pub op_spans: Vec<(f64, f64)>,
}

/// Result of [`ProcessGroups::run_concurrent`]: the shared-session makespan
/// plus one [`GroupCollective`] per subgroup, in subgroup order.
#[derive(Debug, Clone)]
pub struct GroupRun {
    /// Makespan of the concurrent execution (µs, from t = 0).
    pub finish_us: f64,
    /// Per-subgroup outcomes, index-aligned with [`ProcessGroups::groups`].
    pub groups: Vec<GroupCollective>,
}

impl ProcessGroups {
    /// Builds the child communicators for `parent` split by `split`.
    pub(crate) fn split_from(parent: &Communicator, split: &GroupSplit) -> Result<Self> {
        let machine = parent.machine_topology().clone();
        let partitions = split
            .partition(&machine, parent.allocation())
            .map_err(|e| BlinkError::Planning(e.to_string()))?;
        let options = *parent.options();
        let store = parent.plan_store();
        let mut children = Vec::with_capacity(partitions.len());
        for group in &partitions {
            children.push(
                Communicator::builder(machine.clone())
                    .allocation(group)
                    .options(options)
                    .shared_plans(store.clone())
                    .build()?,
            );
        }
        let sim = Simulator::with_defaults(machine);
        Ok(ProcessGroups { sim, children })
    }

    /// The child communicators, in subgroup order.
    pub fn groups(&self) -> &[Communicator] {
        &self.children
    }

    /// The child communicators, mutably (e.g. to run a subgroup collective
    /// solo), in subgroup order.
    pub fn groups_mut(&mut self) -> &mut [Communicator] {
        &mut self.children
    }

    /// Number of subgroups.
    pub fn len(&self) -> usize {
        self.children.len()
    }

    /// Whether the split produced no subgroups (never true today — splits
    /// reject empty partitions — but kept for API symmetry with `len`).
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }

    /// The machine model every subgroup's slice is part of.
    pub fn machine_topology(&self) -> &Topology {
        self.sim.topology()
    }

    /// Runs one collective per subgroup *concurrently* on the shared fabric.
    ///
    /// `requests[i]` is subgroup `i`'s `(kind, bytes)`. Every subgroup's
    /// program is lowered by its own child communicator (packed trees,
    /// one-hop, hybrid — whatever its induced topology calls for), admitted
    /// into one simulator session at `t = 0`, and executed under shared-link
    /// contention. Subgroups of a single GPU, or zero-byte requests, are
    /// trivially complete and contribute an empty program.
    ///
    /// # Errors
    /// `requests.len() != self.len()`, or any child failing to plan/lower.
    pub fn run_concurrent(&mut self, requests: &[(CollectiveKind, u64)]) -> Result<GroupRun> {
        if requests.len() != self.children.len() {
            return Err(BlinkError::Planning(format!(
                "{} requests for {} subgroups",
                requests.len(),
                self.children.len()
            )));
        }
        let mut groups = Vec::with_capacity(requests.len());
        for (child, &(kind, bytes)) in self.children.iter_mut().zip(requests) {
            let (program, strategy) = if child.allocation().len() < 2 || bytes == 0 {
                (
                    Arc::default(),
                    "trivial (single GPU or empty buffer)".to_string(),
                )
            } else {
                let lowered = child.lower(kind, bytes)?;
                (
                    lowered.program(child.allocation()),
                    lowered.entry.strategy.clone(),
                )
            };
            groups.push(GroupCollective {
                kind,
                bytes,
                end_us: 0.0,
                strategy,
                program,
                op_spans: Vec::new(),
            });
        }
        // Non-empty programs share one session; `admitted[k]` is the
        // subgroup whose program was admitted k-th. Trivial subgroups run
        // nowhere.
        let mut session = self.sim.session();
        let mut admitted = Vec::with_capacity(groups.len());
        for (i, group) in groups.iter().enumerate() {
            if !group.program.is_empty() {
                session.admit(group.program.clone(), 0.0);
                admitted.push(i);
            }
        }
        let report = session
            .run_with_scratch(&mut ScratchPool::process().checkout().engine)
            .map_err(|e| BlinkError::Simulation(e.to_string()))?;
        for (i, span) in admitted.into_iter().zip(report.programs) {
            groups[i].end_us = span.end_us;
            groups[i].op_spans = span.op_spans;
        }
        Ok(GroupRun {
            finish_us: report.total_us,
            groups,
        })
    }

    /// [`ProcessGroups::run_concurrent`], then replays every subgroup's
    /// program value-level against its collective contract on the shared
    /// schedule. Returns the run plus one [`ValueCheck`] per subgroup.
    ///
    /// # Errors
    /// Same as [`ProcessGroups::run_concurrent`]; a *failing* check is not an
    /// error — inspect [`ValueCheck::is_correct`].
    pub fn run_concurrent_checked(
        &mut self,
        requests: &[(CollectiveKind, u64)],
    ) -> Result<(GroupRun, Vec<ValueCheck>)> {
        let run = self.run_concurrent(requests)?;
        let checks = run
            .groups
            .iter()
            .enumerate()
            .map(|(i, g)| {
                check_collective(
                    g.kind.spec(),
                    &g.program,
                    &g.op_spans,
                    self.children[i].allocation(),
                    g.bytes,
                )
            })
            .collect();
        Ok((run, checks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blink_topology::presets::{dgx1v, dgx2, multi_server, ServerKind};
    use blink_topology::GpuId;

    fn ids(v: &[usize]) -> Vec<GpuId> {
        v.iter().map(|&i| GpuId(i)).collect()
    }

    #[test]
    fn stride_split_runs_concurrent_allreduces_that_pass_the_oracle() {
        let parent = Communicator::builder(dgx1v())
            .isolated_plans()
            .build()
            .unwrap();
        let mut groups = parent.split(&GroupSplit::ByStride(2)).unwrap();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups.groups()[0].allocation(), ids(&[0, 2, 4, 6]));
        assert_eq!(groups.groups()[1].allocation(), ids(&[1, 3, 5, 7]));

        let bytes = 32 << 20;
        let requests = vec![(CollectiveKind::AllReduce, bytes); 2];
        let (run, checks) = groups.run_concurrent_checked(&requests).unwrap();
        assert_eq!(run.groups.len(), 2);
        assert!(run.finish_us > 0.0);
        for (g, check) in run.groups.iter().zip(&checks) {
            assert!(!g.program.is_empty());
            assert!(g.end_us <= run.finish_us + 1e-9);
            assert!(check.is_correct(), "subgroup violates contract: {check}");
        }
    }

    #[test]
    fn by_server_split_isolates_servers_and_handles_singletons() {
        let machine = multi_server(2, ServerKind::Dgx1V, 5.0);
        let alloc = ids(&[0, 1, 2, 3, 8]);
        let mut parent = Communicator::builder(machine)
            .allocation(&alloc)
            .isolated_plans()
            .build()
            .unwrap();
        let mut groups = parent.split(&GroupSplit::ByServer).unwrap();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups.groups()[1].allocation(), ids(&[8]));

        let requests = vec![
            (CollectiveKind::Broadcast { root: GpuId(0) }, 8 << 20),
            (CollectiveKind::Broadcast { root: GpuId(8) }, 8 << 20),
        ];
        let (run, checks) = groups.run_concurrent_checked(&requests).unwrap();
        // the singleton subgroup is trivially complete
        assert!(run.groups[1].program.is_empty());
        assert_eq!(run.groups[1].end_us, 0.0);
        assert!(checks.iter().all(ValueCheck::is_correct));
        // parent is untouched by the children
        assert_eq!(parent.allocation().len(), 5);
        parent.all_reduce(4 << 20).unwrap();
    }

    #[test]
    fn explicit_dgx2_subgroups_plan_packed_trees_concurrently() {
        let parent = Communicator::builder(dgx2())
            .isolated_plans()
            .build()
            .unwrap();
        let split = GroupSplit::Explicit(vec![ids(&[0, 3, 7, 11]), ids(&[1, 5, 9])]);
        let mut groups = parent.split(&split).unwrap();
        let requests = vec![
            (CollectiveKind::Broadcast { root: GpuId(0) }, 64 << 20),
            (CollectiveKind::Broadcast { root: GpuId(1) }, 64 << 20),
        ];
        let (run, checks) = groups.run_concurrent_checked(&requests).unwrap();
        assert!(checks.iter().all(ValueCheck::is_correct));
        // partial-DGX-2 broadcast goes through the strategy competition;
        // whichever wins, the program must be non-trivial and conformant
        for g in &run.groups {
            assert!(!g.program.is_empty());
            assert!(g.strategy.contains("switch"), "strategy: {}", g.strategy);
        }
    }

    #[test]
    fn request_arity_must_match_subgroups() {
        let parent = Communicator::builder(dgx1v())
            .isolated_plans()
            .build()
            .unwrap();
        let mut groups = parent.split(&GroupSplit::ByStride(2)).unwrap();
        assert!(groups
            .run_concurrent(&[(CollectiveKind::AllReduce, 1 << 20)])
            .is_err());
    }

    #[test]
    fn concurrent_subgroups_contend_for_shared_links() {
        // Two stride subgroups of one DGX-1V share GPUs' injection ports and
        // some NVLink lanes; running them together must not finish faster
        // than the slower of the two running alone.
        let parent = Communicator::builder(dgx1v())
            .isolated_plans()
            .build()
            .unwrap();
        let mut groups = parent.split(&GroupSplit::ByStride(2)).unwrap();
        let bytes = 32 << 20;
        let requests = vec![(CollectiveKind::AllReduce, bytes); 2];
        let together = groups.run_concurrent(&requests).unwrap();
        let solo: f64 = groups
            .groups_mut()
            .iter_mut()
            .map(|group| group.all_reduce(bytes).unwrap().elapsed_us)
            .fold(0.0, f64::max);
        assert!(
            together.finish_us >= solo - 1e-6,
            "concurrent {} µs beat solo {} µs",
            together.finish_us,
            solo
        );
    }

    #[test]
    fn an_out_of_range_subgroup_is_none() {
        let parent = Communicator::builder(dgx1v())
            .isolated_plans()
            .build()
            .unwrap();
        let mut groups = parent.split(&GroupSplit::ByStride(2)).unwrap();
        assert!(groups.groups_mut().get_mut(2).is_none());
        assert!(groups.groups_mut().get_mut(1).is_some());
    }
}
