//! Begin/end event instrumentation for the fleet pipeline.
//!
//! Every stage of the submit→place→plan→run loop records one
//! [`EventRecord`] on a shared [`EventMonitor`], in the style of pipeline
//! monitors that wrap each stage in `*Begin`/`*End` event pairs. The record
//! stream serves two purposes:
//!
//! * **latency accounting** — each record carries wall-clock `begin_us` /
//!   `end_us` offsets from the monitor's origin, which is what the
//!   `bench_fleet` percentiles are computed from;
//! * **a determinism witness** — the *sequence* of `(job id, stage)` pairs
//!   is a pure function of the workload seed and the fleet configuration
//!   (timestamps are wall-clock and vary; the order never does), so two runs
//!   over the same seed must produce identical event orders. A test pins
//!   this.

use std::time::Instant;

/// Which pipeline stage an event instruments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// `Cluster::submit`: finding per-server slices for an arriving job.
    Place,
    /// Building the placement's communicator and planning its trees (the
    /// shared-plan-cache window).
    Plan,
    /// Running the job's first collective on the simulator.
    FirstCollective,
    /// A departure-triggered consolidation: re-placing a fragmented job onto
    /// one server, building a new communicator over the new placement and
    /// running its first collective there.
    Consolidate,
    /// A fault event: the injected record itself (instantaneous, keyed by
    /// fault id) and, as a begin/end span keyed by job id, each affected
    /// job's recovery — the replan through the degradation ladder plus the
    /// post-fault probe collective. The span durations are what `bench_fleet`'s
    /// chaos replay computes recovery percentiles from.
    Fault,
    /// A heal event: the injected record (instantaneous, keyed by fault id)
    /// and each affected job's restore replan (span, keyed by job id).
    Heal,
    /// A retry of an evicted job: one placement attempt from the bounded
    /// backoff queue (span; success inserts the job back into the fleet).
    Retry,
    /// A job left the cluster and its GPUs were released (instantaneous).
    Depart,
    /// A job could not be placed (instantaneous; capacity or contention).
    Reject,
}

impl Stage {
    /// Short lower-case tag (`"place"`, `"plan"`, ...), for JSON reports.
    pub fn tag(self) -> &'static str {
        match self {
            Stage::Place => "place",
            Stage::Plan => "plan",
            Stage::FirstCollective => "first_collective",
            Stage::Consolidate => "consolidate",
            Stage::Fault => "fault",
            Stage::Heal => "heal",
            Stage::Retry => "retry",
            Stage::Depart => "depart",
            Stage::Reject => "reject",
        }
    }
}

/// One completed begin/end span (instantaneous events have
/// `begin_us == end_us`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventRecord {
    /// The job the event belongs to.
    pub job_id: u64,
    /// The pipeline stage.
    pub stage: Stage,
    /// Wall-clock begin, µs since the monitor's origin.
    pub begin_us: f64,
    /// Wall-clock end, µs since the monitor's origin.
    pub end_us: f64,
}

impl EventRecord {
    /// The span's duration in µs.
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.begin_us
    }
}

/// A begin event waiting for its matching end; produced by
/// [`EventMonitor::begin`] and consumed by [`EventMonitor::commit`].
#[derive(Debug, Clone, Copy)]
#[must_use = "commit the pending event to record its end timestamp"]
pub struct PendingEvent {
    job_id: u64,
    stage: Stage,
    begin_us: f64,
}

/// Records the begin/end events of every pipeline stage against one
/// wall-clock origin.
#[derive(Debug)]
pub struct EventMonitor {
    origin: Instant,
    records: Vec<EventRecord>,
}

impl Default for EventMonitor {
    fn default() -> Self {
        Self::new()
    }
}

impl EventMonitor {
    /// Creates a monitor whose clock starts now.
    pub fn new() -> Self {
        EventMonitor {
            origin: Instant::now(),
            records: Vec::new(),
        }
    }

    /// µs elapsed since the monitor was created.
    pub fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a begin/end span for `(job_id, stage)`.
    pub fn begin(&self, job_id: u64, stage: Stage) -> PendingEvent {
        PendingEvent {
            job_id,
            stage,
            begin_us: self.now_us(),
        }
    }

    /// Closes a span opened by [`EventMonitor::begin`], recording it.
    /// Returns the finished record (also kept in [`EventMonitor::records`]).
    pub fn commit(&mut self, pending: PendingEvent) -> EventRecord {
        let record = EventRecord {
            job_id: pending.job_id,
            stage: pending.stage,
            begin_us: pending.begin_us,
            end_us: self.now_us(),
        };
        self.records.push(record);
        record
    }

    /// Records an instantaneous event (`begin_us == end_us`).
    pub fn instant(&mut self, job_id: u64, stage: Stage) -> EventRecord {
        let now = self.now_us();
        let record = EventRecord {
            job_id,
            stage,
            begin_us: now,
            end_us: now,
        };
        self.records.push(record);
        record
    }

    /// Every record so far, in commit order.
    pub fn records(&self) -> &[EventRecord] {
        &self.records
    }

    /// Number of records for one stage.
    pub fn count(&self, stage: Stage) -> usize {
        self.records.iter().filter(|r| r.stage == stage).count()
    }

    /// The `(job id, stage)` sequence — the deterministic skeleton of the
    /// record stream (timestamps vary run to run; this must not).
    pub fn order(&self) -> Vec<(u64, Stage)> {
        self.records.iter().map(|r| (r.job_id, r.stage)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_count_per_stage() {
        let mut m = EventMonitor::new();
        let place = m.begin(7, Stage::Place);
        let placed = m.commit(place);
        assert_eq!(placed.job_id, 7);
        assert!(placed.duration_us() >= 0.0);
        m.instant(7, Stage::Depart);
        let plan = m.begin(8, Stage::Plan);
        m.commit(plan);
        assert_eq!(m.records().len(), 3);
        assert_eq!(m.count(Stage::Place), 1);
        assert_eq!(m.count(Stage::Depart), 1);
        assert_eq!(m.count(Stage::Plan), 1);
        assert_eq!(
            m.order(),
            vec![(7, Stage::Place), (7, Stage::Depart), (8, Stage::Plan)]
        );
        // monotone non-decreasing commit order
        let rs = m.records();
        assert!(rs.windows(2).all(|w| w[0].end_us <= w[1].end_us));
    }
}
