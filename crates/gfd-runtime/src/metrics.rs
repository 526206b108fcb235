//! The unified run metrics reported by every scheduler workload.
//!
//! One type serves all three reasoning layers: sequential runs populate
//! the same counters as parallel ones, just with one worker.

use crate::sched::{RunOutcome, SchedRun};
use gfd_trace::Trace;
use std::time::Duration;

/// Counters and timings for one scheduler run (`SeqSat`/`SeqImp`,
/// `ParSat`/`ParImp`, or a detection pass).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunMetrics {
    /// Wall-clock time of the whole run (including setup and the
    /// reasoning driver's catch-up).
    pub elapsed: Duration,
    /// The worker count asked for (the width; a run that never needed
    /// its helpers started fewer).
    pub workers: usize,
    /// Initial work units generated from pivot candidates.
    pub units_generated: usize,
    /// Units executed by workers (initial + split).
    pub units_dispatched: u64,
    /// Units created by TTL straggler splitting.
    pub units_split: u64,
    /// Units taken from another worker's queue.
    pub units_stolen: u64,
    /// Matches found and processed across all workers.
    pub matches: u64,
    /// Branches explored by branch-and-bound workloads (the GED
    /// small-model search); zero for match-driven workloads.
    pub branches: u64,
    /// Matches that entered the pending (inverted) index.
    pub pending: u64,
    /// Pending re-checks triggered by attribute instantiation.
    pub rechecks: u64,
    /// ΔEq ops the workers shared through the reasoning driver's log.
    pub delta_ops_broadcast: u64,
    /// Unit executions that panicked and were caught by the scheduler's
    /// isolation envelope.
    pub units_panicked: u64,
    /// When the run had a wall-clock deadline: the slack left at the end,
    /// in milliseconds (negative = the run overshot the deadline while
    /// finishing its last units).
    pub deadline_slack_ms: Option<i64>,
    /// Busy time per started worker, one entry each in worker-id order:
    /// thread CPU time over the worker's non-idle stretches — units, the
    /// dispatch (pop / steal) between them and `on_idle` work included,
    /// yield/sleep waits excluded (see [`crate::cputime`]).
    pub worker_busy: Vec<Duration>,
    /// Wall time each started worker spent waiting (yield/sleep) with no
    /// runnable unit, for quiescence or new splits.
    pub worker_idle: Vec<Duration>,
    /// Did the run end early (conflict / consequence / budget reached)?
    pub early_terminated: bool,
    /// The structured trace recorded by this run (empty unless tracing
    /// was enabled — see `gfd_trace` and DESIGN.md §13). Riding on the
    /// metrics lets every engine's existing return path deliver traces
    /// to the CLI without new plumbing.
    pub trace: Trace,
}

impl RunMetrics {
    /// The maximum per-worker busy (CPU) time: a lower bound on the
    /// scheduler phase's wall time, not a measurement of it — every
    /// experiment compares wall-clock time (DESIGN.md §6).
    pub fn makespan(&self) -> Option<Duration> {
        self.worker_busy.iter().max().copied()
    }

    /// Total busy (CPU) time across workers.
    pub fn total_busy(&self) -> Duration {
        self.worker_busy.iter().sum()
    }

    /// Total idle (wall) time across workers.
    pub fn total_idle(&self) -> Duration {
        self.worker_idle.iter().sum()
    }

    /// Load imbalance over the started workers: max busy time over mean
    /// busy time (1.0 = perfectly balanced). `None` when per-worker times
    /// were not collected.
    pub fn imbalance(&self) -> Option<f64> {
        if self.worker_busy.is_empty() {
            return None;
        }
        let max = self.worker_busy.iter().max()?.as_secs_f64();
        let mean = self
            .worker_busy
            .iter()
            .map(Duration::as_secs_f64)
            .sum::<f64>()
            / self.worker_busy.len() as f64;
        if mean == 0.0 {
            return Some(1.0);
        }
        Some(max / mean)
    }

    /// Book one finished scheduler run into this record and hand back
    /// what is not a counter: the per-worker task states and how the run
    /// ended. This is the only place that reads [`SchedRun`]'s counter
    /// fields; every driver reaches it through `gfd_core::run_task`.
    ///
    /// Counters add, so a multi-run flow (the chase's scan, round after
    /// round) absorbs into one record with the same
    /// result as [`merge`](Self::merge)-ing single-run records. The run is
    /// taken by value so that a first absorb moves the per-worker vectors
    /// and the trace in rather than copying them.
    pub fn absorb<W>(&mut self, run: SchedRun<W>) -> (Vec<W>, RunOutcome) {
        self.units_dispatched += run.units_executed;
        self.units_split += run.units_split;
        self.units_stolen += run.units_stolen;
        self.units_panicked += run.units_panicked;
        if self.worker_busy.is_empty() && self.worker_idle.is_empty() {
            self.worker_busy = run.worker_busy;
            self.worker_idle = run.worker_idle;
        } else {
            add_per_worker(&mut self.worker_busy, &run.worker_busy);
            add_per_worker(&mut self.worker_idle, &run.worker_idle);
        }
        if self.trace.is_empty() {
            self.trace = run.trace;
        } else {
            self.trace.merge(&run.trace);
        }
        (run.workers, run.outcome)
    }

    /// Fold another run's metrics into this one — the accumulator for
    /// multi-run flows (one streamed `DeltaBatch` after another).
    ///
    /// Counters sum; `elapsed` sums; `workers` takes the max;
    /// `early_terminated` is sticky; `deadline_slack_ms` takes the most
    /// recent measurement (the later run's remaining slack supersedes the
    /// earlier one's); per-worker busy/idle vectors add element-wise,
    /// extending with zeros when worker counts differ; traces concatenate.
    pub fn merge(&mut self, other: &RunMetrics) {
        self.elapsed += other.elapsed;
        self.workers = self.workers.max(other.workers);
        self.units_generated += other.units_generated;
        self.units_dispatched += other.units_dispatched;
        self.units_split += other.units_split;
        self.units_stolen += other.units_stolen;
        self.matches += other.matches;
        self.branches += other.branches;
        self.pending += other.pending;
        self.rechecks += other.rechecks;
        self.delta_ops_broadcast += other.delta_ops_broadcast;
        self.units_panicked += other.units_panicked;
        if other.deadline_slack_ms.is_some() {
            self.deadline_slack_ms = other.deadline_slack_ms;
        }
        add_per_worker(&mut self.worker_busy, &other.worker_busy);
        add_per_worker(&mut self.worker_idle, &other.worker_idle);
        self.early_terminated |= other.early_terminated;
        self.trace.merge(&other.trace);
    }
}

/// Element-wise add of per-worker times, extending `acc` with zeros when
/// `other` has more workers.
fn add_per_worker(acc: &mut Vec<Duration>, other: &[Duration]) {
    if acc.len() < other.len() {
        acc.resize(other.len(), Duration::ZERO);
    }
    for (a, d) in acc.iter_mut().zip(other) {
        *a += *d;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imbalance_of_balanced_run_is_one() {
        let m = RunMetrics {
            worker_busy: vec![Duration::from_millis(10); 4],
            ..Default::default()
        };
        assert!((m.imbalance().unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn imbalance_detects_straggler() {
        let m = RunMetrics {
            worker_busy: vec![
                Duration::from_millis(10),
                Duration::from_millis(10),
                Duration::from_millis(40),
            ],
            ..Default::default()
        };
        assert!(m.imbalance().unwrap() > 1.5);
    }

    #[test]
    fn imbalance_none_without_data() {
        assert!(RunMetrics::default().imbalance().is_none());
    }

    #[test]
    fn idle_time_totals() {
        let m = RunMetrics {
            worker_idle: vec![Duration::from_millis(3), Duration::from_millis(4)],
            ..Default::default()
        };
        assert_eq!(m.total_idle(), Duration::from_millis(7));
    }

    #[test]
    fn makespan_edge_cases() {
        // Empty worker_busy: no makespan at all, not a zero one.
        assert!(RunMetrics::default().makespan().is_none());
        // All-zero busy times still report a (zero) makespan: the data
        // was collected, the workers just never ran a unit.
        let m = RunMetrics {
            worker_busy: vec![Duration::ZERO; 3],
            ..Default::default()
        };
        assert_eq!(m.makespan(), Some(Duration::ZERO));
    }

    #[test]
    fn imbalance_zero_mean_busy_is_balanced() {
        // Zero-mean busy (e.g. an empty seed at p > 1) must not divide by
        // zero: by convention the run is perfectly balanced.
        let m = RunMetrics {
            worker_busy: vec![Duration::ZERO; 4],
            ..Default::default()
        };
        assert_eq!(m.imbalance(), Some(1.0));
    }

    #[test]
    fn merge_accumulates_counters_and_worker_vectors() {
        let mut total = RunMetrics {
            workers: 2,
            units_dispatched: 10,
            units_stolen: 1,
            matches: 5,
            elapsed: Duration::from_millis(30),
            worker_busy: vec![Duration::from_millis(10), Duration::from_millis(20)],
            worker_idle: vec![Duration::from_millis(1), Duration::from_millis(2)],
            ..Default::default()
        };
        let batch = RunMetrics {
            workers: 4,
            units_dispatched: 7,
            units_stolen: 3,
            units_split: 2,
            matches: 4,
            elapsed: Duration::from_millis(12),
            deadline_slack_ms: Some(-3),
            early_terminated: true,
            worker_busy: vec![Duration::from_millis(5); 4],
            worker_idle: vec![Duration::from_millis(1); 4],
            ..Default::default()
        };
        total.merge(&batch);
        assert_eq!(total.workers, 4);
        assert_eq!(total.units_dispatched, 17);
        assert_eq!(total.units_stolen, 4);
        assert_eq!(total.units_split, 2);
        assert_eq!(total.matches, 9);
        assert_eq!(total.elapsed, Duration::from_millis(42));
        assert_eq!(total.deadline_slack_ms, Some(-3));
        assert!(total.early_terminated);
        // Element-wise busy add, extended with zeros to 4 workers.
        assert_eq!(
            total.worker_busy,
            vec![
                Duration::from_millis(15),
                Duration::from_millis(25),
                Duration::from_millis(5),
                Duration::from_millis(5),
            ]
        );
        // Merging an empty batch changes nothing.
        let snapshot = total.units_dispatched;
        total.merge(&RunMetrics::default());
        assert_eq!(total.units_dispatched, snapshot);
        assert_eq!(total.deadline_slack_ms, Some(-3), "None must not clobber");
    }

    /// Absorbing two scheduler runs into one record is the same as
    /// merging two single-run records — per-worker vectors (of different
    /// lengths) and traces included — and hands the worker states and
    /// outcome through untouched.
    #[test]
    fn absorb_agrees_with_merge_of_single_run_records() {
        use gfd_trace::{EventKind, TraceEvent};
        let ms = Duration::from_millis;
        let run = |workers: Vec<u8>, n: u64, busy: Vec<Duration>, outcome: RunOutcome| SchedRun {
            workers,
            outcome,
            units_executed: 10 * n,
            units_stolen: 3 * n,
            units_split: 2 * n,
            units_panicked: n,
            worker_idle: busy.iter().map(|d| *d + ms(1)).collect(),
            worker_busy: busy,
            trace: Trace {
                events: vec![TraceEvent {
                    kind: EventKind::UnitExec,
                    worker: 0,
                    id: n as u32,
                    t0_ns: 0,
                    dur_ns: 5,
                    a: 0,
                    b: 0,
                }],
                dropped: n,
            },
        };
        let first = || run(vec![7, 8], 1, vec![ms(10), ms(20)], RunOutcome::Completed);
        let second = || {
            run(
                vec![9, 9, 9],
                2,
                vec![ms(1), ms(2), ms(3)],
                RunOutcome::Stopped,
            )
        };

        let mut absorbed = RunMetrics::default();
        let (states, outcome) = absorbed.absorb(first());
        assert_eq!(states, vec![7, 8]);
        assert_eq!(outcome, RunOutcome::Completed);
        let (states, outcome) = absorbed.absorb(second());
        assert_eq!(states, vec![9, 9, 9]);
        assert_eq!(outcome, RunOutcome::Stopped);

        let mut merged = RunMetrics::default();
        for run in [first(), second()] {
            let mut single = RunMetrics::default();
            single.absorb(run);
            merged.merge(&single);
        }
        assert_eq!(absorbed.units_dispatched, 30);
        assert_eq!(absorbed.worker_busy, vec![ms(11), ms(22), ms(3)]);
        assert_eq!(absorbed.worker_idle, vec![ms(13), ms(24), ms(4)]);
        assert_eq!(absorbed.trace.dropped, 3);
        assert_eq!(absorbed, merged);
    }

    #[test]
    fn merge_concatenates_traces() {
        use gfd_trace::{EventKind, Trace, TraceEvent};
        let ev = |id| TraceEvent {
            kind: EventKind::UnitExec,
            worker: 0,
            id,
            t0_ns: 0,
            dur_ns: 5,
            a: 0,
            b: 0,
        };
        let mut total = RunMetrics {
            trace: Trace {
                events: vec![ev(0)],
                dropped: 1,
            },
            ..Default::default()
        };
        let batch = RunMetrics {
            trace: Trace {
                events: vec![ev(1), ev(2)],
                dropped: 0,
            },
            ..Default::default()
        };
        total.merge(&batch);
        assert_eq!(total.trace.events.len(), 3);
        assert_eq!(total.trace.dropped, 1);
    }
}
