//! Cost-model-driven admission scheduling.
//!
//! Both the suite engine and the serving engine face the same decision —
//! many jobs, limited execution slots, which job next? — and both answer it
//! through this module. A job is summarized by its *predicted* cycle cost
//! (from `leopard_accel::cost`, so no simulation runs on the scheduling
//! path) and a policy orders admission:
//!
//! * [`SchedulePolicy::Fifo`] — arrival order, the baseline every policy is
//!   measured against.
//! * [`SchedulePolicy::Ljf`] — longest predicted job first. With jobs whose
//!   costs span two orders of magnitude (sequence lengths enter the cycle
//!   count quadratically), starting the long jobs early keeps them off the
//!   critical path, which cuts the tail of the completion-time distribution
//!   — the classic LPT argument for makespan on parallel machines.
//! * [`SchedulePolicy::Sjf`] — shortest predicted job first. The dual
//!   trade: letting the many cheap jobs overtake the few expensive ones
//!   minimizes mean (and median) waiting time — the classic SJF argument —
//!   at the price of a longer tail for the jobs that keep getting
//!   overtaken.
//!
//! Scheduling never changes *what* a job computes, only *when* it starts,
//! so suite results stay bit-identical across policies; only the latency
//! profile moves.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Admission-ordering policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulePolicy {
    /// Arrival order (first in, first out).
    #[default]
    Fifo,
    /// Longest predicted job first (cuts the tail under backlog).
    Ljf,
    /// Shortest predicted job first (cuts the median under backlog).
    Sjf,
}

impl SchedulePolicy {
    /// Every policy, in documentation order.
    pub const ALL: [SchedulePolicy; 3] = [
        SchedulePolicy::Fifo,
        SchedulePolicy::Ljf,
        SchedulePolicy::Sjf,
    ];

    /// The CLI/report label (`"fifo"`, `"ljf"`, `"sjf"`).
    pub fn label(&self) -> &'static str {
        match self {
            SchedulePolicy::Fifo => "fifo",
            SchedulePolicy::Ljf => "ljf",
            SchedulePolicy::Sjf => "sjf",
        }
    }

    /// Parses a CLI label.
    ///
    /// # Errors
    ///
    /// Returns a message listing the valid labels.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.trim().to_lowercase().as_str() {
            "fifo" => Ok(SchedulePolicy::Fifo),
            "ljf" => Ok(SchedulePolicy::Ljf),
            "sjf" => Ok(SchedulePolicy::Sjf),
            other => Err(format!(
                "unknown schedule {other:?} (expected one of: fifo, ljf, sjf)"
            )),
        }
    }
}

/// One schedulable unit: an opaque caller-side index plus its predicted
/// cycle cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictedJob {
    /// Caller-side identifier (request id, task index, ...). Doubles as the
    /// arrival order: lower index arrived earlier.
    pub index: usize,
    /// Predicted cost in cycles, from the analytical cost model.
    pub predicted_cycles: u64,
}

/// A policy-ordered ready queue: jobs go in as they arrive, and come out in
/// the order the policy dictates. Pop order is fully deterministic — ties on
/// predicted cost resolve toward the earlier arrival.
#[derive(Debug)]
pub struct ReadyQueue {
    policy: SchedulePolicy,
    fifo: VecDeque<PredictedJob>,
    /// LJF and SJF: a max-heap of `(cost key, Reverse(index))`, so equal
    /// keys pop the earlier arrival first. The key is the predicted cycles
    /// under LJF and their bitwise complement under SJF (see
    /// [`cost_key`](Self::cost_key)).
    heap: BinaryHeap<(u64, Reverse<usize>)>,
    /// Jobs ever admitted (monotone; survives pops).
    pushes: u64,
    /// Deepest the queue has ever been.
    peak: usize,
}

impl ReadyQueue {
    /// Creates an empty queue ordered by `policy`.
    pub fn new(policy: SchedulePolicy) -> Self {
        Self {
            policy,
            fifo: VecDeque::new(),
            heap: BinaryHeap::new(),
            pushes: 0,
            peak: 0,
        }
    }

    /// The heap key of a predicted cost, and the cost of a heap key: the
    /// complement turns the max-heap into shortest-first under SJF and is
    /// its own inverse.
    fn cost_key(&self, cycles: u64) -> u64 {
        if self.policy == SchedulePolicy::Sjf {
            !cycles
        } else {
            cycles
        }
    }

    /// Admits a job.
    pub fn push(&mut self, job: PredictedJob) {
        match self.policy {
            SchedulePolicy::Fifo => self.fifo.push_back(job),
            _ => self
                .heap
                .push((self.cost_key(job.predicted_cycles), Reverse(job.index))),
        }
        self.pushes += 1;
        self.peak = self.peak.max(self.len());
    }

    /// Removes and returns the next job under the policy, if any.
    pub fn pop(&mut self) -> Option<PredictedJob> {
        match self.policy {
            SchedulePolicy::Fifo => self.fifo.pop_front(),
            _ => self.heap.pop().map(|(key, Reverse(index))| PredictedJob {
                index,
                predicted_cycles: self.cost_key(key),
            }),
        }
    }

    /// Number of queued jobs.
    pub fn len(&self) -> usize {
        self.fifo.len() + self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cumulative number of jobs ever admitted (a telemetry counter; the
    /// value is deterministic for a given replay).
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    /// Deepest the queue has ever been across its lifetime.
    pub fn peak_len(&self) -> usize {
        self.peak
    }
}

/// The retry side-queue of fault-tolerant serving: requests that hit a
/// transient fault or a predicted SLO miss are *deferred* — parked here
/// until a backoff-determined ready cycle — instead of shed outright.
/// When the virtual clock reaches an entry's ready cycle the replay
/// promotes it back into the policy-ordered [`ReadyQueue`], so deferral
/// composes with (rather than replaces) the admission policy.
///
/// Promotion order is fully deterministic: entries come out by
/// `(ready_cycle, arrival index)`, both of which are pure functions of the
/// seeded fault stream and the request trace.
#[derive(Debug, Default)]
pub struct DeferralQueue {
    /// A min-heap of `(ready cycle, index, predicted cycles)`.
    heap: BinaryHeap<Reverse<(u64, usize, u64)>>,
    /// Deferrals ever accepted (monotone; survives promotions).
    deferrals: u64,
    /// Deepest the queue has ever been.
    peak: usize,
}

impl DeferralQueue {
    /// Creates an empty deferral queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parks `job` until the virtual clock reaches `ready_cycle`.
    pub fn defer(&mut self, job: PredictedJob, ready_cycle: u64) {
        let entry = (ready_cycle, job.index, job.predicted_cycles);
        self.heap.push(Reverse(entry));
        self.deferrals += 1;
        self.peak = self.peak.max(self.heap.len());
    }

    /// Removes and returns the next job whose ready cycle is at or before
    /// `clock`, if any.
    pub fn pop_ready(&mut self, clock: u64) -> Option<PredictedJob> {
        if self.next_ready_cycle()? > clock {
            return None;
        }
        let Reverse((_, index, predicted_cycles)) = self.heap.pop()?;
        Some(PredictedJob {
            index,
            predicted_cycles,
        })
    }

    /// The earliest ready cycle of any parked job — the clock target the
    /// replay must not skip past while the ready queue is empty.
    pub fn next_ready_cycle(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse(entry)| entry.0)
    }

    /// Number of parked jobs.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no job is parked.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Cumulative number of deferrals ever accepted.
    pub fn deferrals(&self) -> u64 {
        self.deferrals
    }

    /// Deepest the queue has ever been across its lifetime.
    pub fn peak_len(&self) -> usize {
        self.peak
    }
}

/// Returns the submission order the policy prescribes for a batch of jobs
/// whose predicted costs are `costs[i]`: FIFO keeps `0..n`, LJF sorts by
/// descending cost and SJF by ascending cost (ties toward the lower index
/// in both). Used by the suite engine, which submits its whole batch up
/// front.
pub fn submission_order(costs: &[u64], policy: SchedulePolicy) -> Vec<usize> {
    let mut order: Vec<usize> = (0..costs.len()).collect();
    match policy {
        SchedulePolicy::Fifo => {}
        SchedulePolicy::Ljf => {
            order.sort_by(|&a, &b| costs[b].cmp(&costs[a]).then_with(|| a.cmp(&b)));
        }
        SchedulePolicy::Sjf => {
            order.sort_by(|&a, &b| costs[a].cmp(&costs[b]).then_with(|| a.cmp(&b)));
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(queue: &mut ReadyQueue) -> Vec<usize> {
        std::iter::from_fn(|| queue.pop().map(|j| j.index)).collect()
    }

    #[test]
    fn fifo_pops_in_arrival_order() {
        let mut q = ReadyQueue::new(SchedulePolicy::Fifo);
        for (index, cycles) in [(0, 5u64), (1, 900), (2, 1)] {
            q.push(PredictedJob {
                index,
                predicted_cycles: cycles,
            });
        }
        assert_eq!(q.len(), 3);
        assert_eq!(drain(&mut q), vec![0, 1, 2]);
        assert!(q.is_empty());
        // Lifetime statistics survive the drain.
        assert_eq!(q.pushes(), 3);
        assert_eq!(q.peak_len(), 3);
    }

    #[test]
    fn ljf_pops_longest_first_with_deterministic_ties() {
        let mut q = ReadyQueue::new(SchedulePolicy::Ljf);
        for (index, cycles) in [(0, 10u64), (1, 700), (2, 10), (3, 900)] {
            q.push(PredictedJob {
                index,
                predicted_cycles: cycles,
            });
        }
        // Ties on predicted cost (indices 0 and 2) resolve to the earlier
        // arrival.
        assert_eq!(drain(&mut q), vec![3, 1, 0, 2]);
    }

    #[test]
    fn sjf_pops_shortest_first_with_deterministic_ties() {
        let mut q = ReadyQueue::new(SchedulePolicy::Sjf);
        for (index, cycles) in [(0, 10u64), (1, 700), (2, 10), (3, 900)] {
            q.push(PredictedJob {
                index,
                predicted_cycles: cycles,
            });
        }
        // Ties on predicted cost (indices 0 and 2) resolve to the earlier
        // arrival.
        assert_eq!(drain(&mut q), vec![0, 2, 1, 3]);
    }

    #[test]
    fn submission_order_matches_policy() {
        let costs = [40u64, 900, 40, 7];
        assert_eq!(
            submission_order(&costs, SchedulePolicy::Fifo),
            vec![0, 1, 2, 3]
        );
        assert_eq!(
            submission_order(&costs, SchedulePolicy::Ljf),
            vec![1, 0, 2, 3]
        );
        assert_eq!(
            submission_order(&costs, SchedulePolicy::Sjf),
            vec![3, 0, 2, 1]
        );
        assert!(submission_order(&[], SchedulePolicy::Ljf).is_empty());
    }

    #[test]
    fn deferral_queue_promotes_by_ready_cycle_then_arrival() {
        let mut q = DeferralQueue::new();
        let job = |index| PredictedJob {
            index,
            predicted_cycles: 100,
        };
        q.defer(job(3), 500);
        q.defer(job(1), 200);
        q.defer(job(2), 200);
        q.defer(job(0), 900);
        assert_eq!(q.len(), 4);
        assert_eq!(q.peak_len(), 4);
        assert_eq!(q.next_ready_cycle(), Some(200));
        // Nothing is ready before its cycle.
        assert!(q.pop_ready(199).is_none());
        // Ties on ready cycle resolve toward the earlier arrival index.
        assert_eq!(q.pop_ready(200).map(|j| j.index), Some(1));
        assert_eq!(q.pop_ready(200).map(|j| j.index), Some(2));
        assert!(q.pop_ready(200).is_none());
        assert_eq!(q.next_ready_cycle(), Some(500));
        // A late clock promotes whatever is due.
        assert_eq!(q.pop_ready(10_000).map(|j| j.index), Some(3));
        // The last clock value empties the queue in the same order (the
        // permanent-outage path sheds parked work this way).
        q.defer(job(7), 50);
        let drained: Vec<usize> = std::iter::from_fn(|| q.pop_ready(u64::MAX))
            .map(|j| j.index)
            .collect();
        assert_eq!(drained, vec![7, 0]);
        assert!(q.is_empty());
        assert_eq!(q.deferrals(), 5, "lifetime stats survive the drain");
    }

    #[test]
    fn policy_labels_round_trip() {
        for policy in SchedulePolicy::ALL {
            assert_eq!(SchedulePolicy::parse(policy.label()), Ok(policy));
        }
        assert_eq!(SchedulePolicy::parse(" LJF "), Ok(SchedulePolicy::Ljf));
        assert_eq!(SchedulePolicy::parse("SJF"), Ok(SchedulePolicy::Sjf));
        assert!(SchedulePolicy::parse("srpt").is_err());
        assert_eq!(SchedulePolicy::default(), SchedulePolicy::Fifo);
    }
}
