//! The unified resource budget every reasoning driver honors
//! (DESIGN.md §11.2).
//!
//! [`Budget`] is the one struct threaded through every driver: a
//! wall-clock deadline and a max-units cap enforced cooperatively by the
//! scheduler at unit boundaries (`gfd_runtime::SchedOptions`). The two
//! driver-specific caps — explored branches for the GED search, fresh
//! nodes for the generating chase — are fields of those drivers' own
//! configs (`GedReasonConfig::max_branches`,
//! `ChaseConfig::max_generated_nodes`) and report through the same
//! [`Interrupt`].
//!
//! Exhausting any limit **degrades, never panics**: a Sat/Imp run that
//! cannot finish answers `Unknown(Interrupt)`, the one arm every outcome
//! type shares (GED and chase included); a detection report is truncated
//! and carries the [`Interrupt`]. A *definite* answer found before the
//! limit tripped — a conflict, a witness, a counterexample — is still
//! returned: budgets bound work, not soundness.

use gfd_runtime::sched::{run_scheduler, Task};
use gfd_runtime::{Exhaustion, RunMetrics, RunOutcome, SchedOptions, TraceSpec};
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

/// Resource limits for one reasoning or detection run. The default is
/// unlimited on every axis.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Budget {
    /// Wall-clock instant after which the run degrades to unknown/partial.
    pub deadline: Option<Instant>,
    /// Maximum scheduler work units to execute.
    pub max_units: Option<u64>,
}

impl Budget {
    /// No limits on any axis.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// True when no limit is set.
    pub fn is_unlimited(&self) -> bool {
        *self == Self::default()
    }

    /// Set the deadline to `ms` milliseconds from now.
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline = Some(Instant::now() + Duration::from_millis(ms));
        self
    }

    /// Set an absolute deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Cap the scheduler work units executed.
    pub fn with_max_units(mut self, max: u64) -> Self {
        self.max_units = Some(max);
        self
    }

    /// Has the wall-clock deadline passed? (The cooperative check drivers
    /// call at their own phase boundaries — rounds, batches — where the
    /// scheduler's per-unit check is out of reach.)
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Milliseconds of deadline slack remaining right now (negative once
    /// the deadline has been overshot); `None` without a deadline.
    ///
    /// An overshoot always reports a strictly negative value: a run that
    /// finishes within a millisecond past the cut must not round to `0`
    /// and masquerade as having met its deadline exactly.
    pub fn deadline_slack_ms(&self) -> Option<i64> {
        let deadline = self.deadline?;
        let now = Instant::now();
        Some(if now <= deadline {
            (deadline - now).as_millis() as i64
        } else {
            -((now - deadline).as_millis() as i64).max(1)
        })
    }

    /// Close a run's books: the wall time since `start` and the deadline
    /// slack left, read once on the driver's exit path.
    pub fn stamp(&self, start: Instant, metrics: &mut RunMetrics) {
        metrics.elapsed = start.elapsed();
        metrics.deadline_slack_ms = self.deadline_slack_ms();
    }
}

/// What [`run_task`] hands back besides the counters it booked.
pub struct TaskRun<W> {
    /// Per-worker final task states, in worker-id order.
    pub workers: Vec<W>,
    /// Why the run degraded, if it did; `None` when it ran to quiescence
    /// or was stopped by its own task.
    pub interrupt: Option<Interrupt>,
    /// The scheduler's own verdict `interrupt` was derived from.
    pub outcome: RunOutcome,
}

/// Run `task` over `units` on the shared scheduler under `budget` and book
/// the run into `metrics` — the one prologue and epilogue every driver
/// (reasoning, GED search, detection, the chase's per-round scan) wraps
/// around its scheduler run.
///
/// `metrics` accumulates: a driver that schedules several runs (the chase,
/// round after round) passes the same record each time, and the unit cap
/// left for this run is `budget.max_units` less what the record has
/// already dispatched.
pub fn run_task<T: Task>(
    task: &T,
    units: Vec<T::Unit>,
    workers: usize,
    stop: &AtomicBool,
    budget: &Budget,
    trace: TraceSpec,
    metrics: &mut RunMetrics,
) -> TaskRun<T::Worker> {
    metrics.units_generated += units.len();
    let opts = SchedOptions {
        deadline: budget.deadline,
        max_units: budget
            .max_units
            .map(|max| max.saturating_sub(metrics.units_dispatched)),
        trace,
    };
    let run = run_scheduler(task, units, workers, stop, opts);
    let (workers, outcome) = metrics.absorb(run);
    TaskRun {
        workers,
        interrupt: Interrupt::from_outcome(&outcome),
        outcome,
    }
}

/// Why a run ended without a definite answer — the payload of every
/// driver's unknown/degraded arm.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Interrupt {
    /// The wall-clock deadline expired.
    Deadline,
    /// The scheduler unit budget was consumed.
    Units,
    /// The branch budget was consumed (branch-and-bound drivers).
    Branches,
    /// The fresh-node budget was consumed (generating chase).
    FreshNodes,
    /// A unit panicked and the run was cancelled; the string is the
    /// structured abort description ([`gfd_runtime::AbortInfo`]).
    Aborted(String),
}

impl Interrupt {
    /// Map a degraded scheduler outcome to its interrupt; `None` for the
    /// outcomes that finished normally (`Completed`, `Stopped`).
    pub fn from_outcome(outcome: &RunOutcome) -> Option<Interrupt> {
        match outcome {
            RunOutcome::Completed | RunOutcome::Stopped => None,
            RunOutcome::BudgetExceeded(Exhaustion::Deadline) => Some(Interrupt::Deadline),
            RunOutcome::BudgetExceeded(Exhaustion::Units) => Some(Interrupt::Units),
            RunOutcome::Aborted(info) => Some(Interrupt::Aborted(info.to_string())),
        }
    }
}

impl std::fmt::Display for Interrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Interrupt::Deadline => write!(f, "deadline expired"),
            Interrupt::Units => write!(f, "unit budget exhausted"),
            Interrupt::Branches => write!(f, "branch budget exhausted"),
            Interrupt::FreshNodes => write!(f, "fresh-node budget exhausted"),
            Interrupt::Aborted(info) => write!(f, "run aborted: {info}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_unlimited() {
        let b = Budget::unlimited();
        assert!(b.is_unlimited());
        assert!(!b.expired());
        assert!(b.deadline_slack_ms().is_none());
    }

    #[test]
    fn builders_set_each_axis() {
        let b = Budget::unlimited()
            .with_deadline_ms(10_000)
            .with_max_units(5);
        assert!(!b.is_unlimited());
        assert_eq!(b.max_units, Some(5));
        assert!(!b.expired());
        let slack = b.deadline_slack_ms().unwrap();
        assert!(slack > 8_000 && slack <= 10_000, "{slack}");
    }

    #[test]
    fn past_deadline_is_expired_with_negative_slack() {
        let b = Budget::unlimited().with_deadline(Instant::now() - Duration::from_millis(50));
        assert!(b.expired());
        assert!(b.deadline_slack_ms().unwrap() <= -50);
    }

    #[test]
    fn overshoot_at_the_budget_cut_stays_strictly_negative() {
        // A run that finishes a hair past its deadline (sub-millisecond
        // overshoot) must not round to 0ms slack: the sign is the signal
        // that the deadline was missed.
        let b = Budget::unlimited().with_deadline(Instant::now() - Duration::from_micros(10));
        let slack = b.deadline_slack_ms().unwrap();
        assert!(slack <= -1, "overshoot must be strictly negative: {slack}");
    }

    /// The unit cap spans every run booked into one record: what a
    /// multi-run driver (the chase) has already dispatched is charged
    /// against `max_units` before the next run starts.
    #[test]
    fn run_task_charges_the_unit_cap_across_accumulated_runs() {
        use gfd_runtime::sched::WorkerCtx;
        struct Count;
        impl Task for Count {
            type Unit = u32;
            type Worker = u32;
            fn worker(&self, _id: usize) -> u32 {
                0
            }
            fn run_unit(&self, w: &mut u32, _unit: u32, _ctx: &WorkerCtx<'_, u32>) {
                *w += 1;
            }
        }
        let budget = Budget::unlimited().with_max_units(3);
        let stop = AtomicBool::new(false);
        let mut metrics = RunMetrics::default();
        let run = |metrics: &mut RunMetrics| {
            run_task(
                &Count,
                vec![0, 1],
                1,
                &stop,
                &budget,
                TraceSpec::disabled(),
                metrics,
            )
        };
        let first = run(&mut metrics);
        assert_eq!(first.interrupt, None);
        assert_eq!(first.workers, vec![2]);
        let second = run(&mut metrics);
        assert_eq!(second.interrupt, Some(Interrupt::Units));
        assert_eq!(second.workers, vec![1], "one unit of the cap was left");
        assert_eq!(metrics.units_generated, 4);
        assert_eq!(metrics.units_dispatched, 3);
        assert_eq!(metrics.worker_busy.len(), 1);
    }

    #[test]
    fn interrupts_from_scheduler_outcomes() {
        use gfd_runtime::{AbortInfo, Exhaustion, RunOutcome};
        assert_eq!(Interrupt::from_outcome(&RunOutcome::Completed), None);
        assert_eq!(Interrupt::from_outcome(&RunOutcome::Stopped), None);
        assert_eq!(
            Interrupt::from_outcome(&RunOutcome::BudgetExceeded(Exhaustion::Deadline)),
            Some(Interrupt::Deadline)
        );
        let aborted = RunOutcome::Aborted(AbortInfo {
            worker: 1,
            site: "unit",
            payload: "boom".into(),
        });
        let i = Interrupt::from_outcome(&aborted).unwrap();
        assert!(i.to_string().contains("boom"), "{i}");
    }
}
