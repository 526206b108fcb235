//! The work-stealing scheduler every GFD reasoning workload runs on.
//!
//! The paper's §V workload model — pivoted work units `(Q[z], ϕ)`, dynamic
//! assignment, TTL straggler splitting, early termination — is shared by
//! satisfiability checking, implication checking, and violation detection.
//! This crate provides the one runtime all three instantiate:
//!
//! * a generic [`Task`] trait: a workload describes how to create per-worker
//!   state and how to execute one unit; the scheduler owns dispatch;
//! * per-worker queues (`parking_lot::Mutex<VecDeque>`) with work
//!   stealing, the one dispatch topology: a worker pops its own queue's
//!   back, steals half of a victim's queue when idle (one lock of the
//!   victim drains its lowest-priority front), and pushes split units to
//!   its own back so straggler remainders inherit their parent's priority
//!   and cache locality;
//! * quiescence detection via an in-flight unit count under a lock, a
//!   shared stop flag for early termination, and per-worker busy (thread CPU time) and idle
//!   accounting;
//! * the unified [`RunMetrics`] every layer reports.
//!
//! The crate is deliberately workload-agnostic: it knows nothing about
//! graphs, GFDs, or `ΔEq` broadcast. Those live in the [`Task`]
//! implementations: `gfd_core::engine::SearchTask` (the search-unit engine
//! reasoning and detection post their match-actions against), `gfd_ged`'s
//! branch-and-bound `GedTask`, and `gfd_chase`'s per-round `ScanTask`
//! (premise evaluation with the realization checks of the generating
//! rows that fire). Branch-and-bound workloads use
//! the same two primitives every other task does: the shared stop flag
//! doubles as first-witness / first-counterexample cancellation, and
//! [`WorkerCtx::split`] hands open branches to idle thieves.

#![warn(missing_docs)]

pub mod cputime;
pub mod failpoint;
pub mod metrics;
pub mod sched;

pub use metrics::RunMetrics;
pub use sched::{
    run_scheduler, AbortInfo, Exhaustion, RunOutcome, SchedOptions, SchedRun, Task, WorkerCtx,
};
pub use sched::{run_scheduler_with, DispatchMode}; // gfdbench-pin
                                                   // The tracing vocabulary tasks record with (`WorkerCtx::trace_span` et
                                                   // al.) and the spec/trace types the configs and metrics carry.
pub use gfd_trace::{EventKind, SpanStart, Trace, TraceBuf, TraceSpec, CONTROL_WORKER};
