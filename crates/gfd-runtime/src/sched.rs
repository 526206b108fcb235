//! The generic work-stealing scheduler.
//!
//! Dispatch topology:
//!
//! * Each worker has a queue, a `parking_lot::Mutex<VecDeque>` whose
//!   back holds its highest-priority unit. The seed, in priority order,
//!   is worker 0's queue; the others start empty.
//! * A worker pops its **own queue's back** (highest priority first).
//!   Split units produced mid-run are pushed to the owner's back, in
//!   reverse: a straggler's remainder inherits its parent's priority and
//!   stays on the worker whose caches already hold its prefix.
//! * An idle worker **steals half** of a victim's queue: it locks the
//!   victim once and drains the front `⌈len/2⌉` — the lowest-priority
//!   work — so the victim keeps the units the priority order wanted it
//!   to run next. The thief runs the best unit of its loot and appends
//!   the rest to its own queue.
//! * Quiescence is an in-flight count under a lock: seeded and split
//!   units add to it, completed units subtract; workers exit when it
//!   reaches zero (or the shared stop flag is raised). A split holds the
//!   count's lock until its children are queued, so no thief can complete
//!   a child before it is counted; and because a split happens *while its
//!   parent unit is still counted*, the count can only reach zero when
//!   every unit, split or not, has been fully executed.
//! * Worker 0 is the calling thread, and every run starts as the
//!   one-worker run: worker 0 alone, popping its own back. At its first
//!   unit boundary or split past `HELPER_GRACE`, with work still queued
//!   and `p > 1`, it deals its queue round-robin across the `p` queues in
//!   priority order and spawns the other `p − 1` workers, which then pop
//!   and steal as above. A run that reaches quiescence first is the
//!   one-worker run: no thread, one worker state.
//!
//! # Fault tolerance (DESIGN.md §11)
//!
//! Every unit executes inside a `catch_unwind` envelope. A panicking
//! unit can therefore never wedge the run: the in-flight count is
//! decremented on the unwind path too, no task code runs under a queue
//! lock or the count's lock (and the vendored `parking_lot` recovers a
//! poisoned one), and the run terminates with a structured
//! [`RunOutcome::Aborted`] carrying the worker id, the site that
//! panicked and the panic payload — all worker threads joined. A unit
//! runs once: a panicked one is never entered again. Cooperative
//! resource limits — a wall-clock deadline and a max-units budget — are
//! checked at unit boundaries and degrade the run to
//! [`RunOutcome::BudgetExceeded`] rather than panicking.

use crate::cputime::BusyTimer;
use crate::failpoint;
use gfd_trace::{EventKind, SpanStart, Trace, TraceBuf, TraceSpec};
use parking_lot::Mutex;
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How long worker 0 of a `p > 1` run works alone before it starts its
/// helpers (DESIGN.md §7). A scoped spawn + join costs ≈ 17–25 µs for one
/// thread and ≈ 80 µs for three on the 2-core reference host (medians of
/// 2 000), so a run shorter than this pays none of it and a longer one
/// loses at most the grace's worth of parallel time.
const HELPER_GRACE: Duration = Duration::from_micros(100);

/// How units travel from the queues to the workers: one topology, so one
/// variant. The type (and [`run_scheduler_with`], which takes one) stays
/// only because `gfdbench/` names it — ROADMAP [bench]
/// removes both.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DispatchMode /* gfdbench-pin */ {
    /// Per-worker queues with steal-half.
    #[default]
    WorkStealing,
}

/// A schedulable workload.
///
/// The scheduler owns unit dispatch; the task owns unit semantics: what a
/// unit *is*, the per-worker state it runs against, and any side channels
/// between workers (e.g. the reasoning task's `ΔEq` broadcast mesh).
pub trait Task: Sync {
    /// One unit of work.
    type Unit: Send;
    /// Per-worker state, created on the worker thread and returned to the
    /// caller after quiescence.
    type Worker: Send;

    /// Create worker-local state for worker `id`.
    fn worker(&self, id: usize) -> Self::Worker;

    /// Execute one unit. Straggler splitting pushes the remainder units
    /// through [`WorkerCtx::split`]; early termination raises the stop
    /// flag the task closed over.
    fn run_unit(
        &self,
        worker: &mut Self::Worker,
        unit: Self::Unit,
        ctx: &WorkerCtx<'_, Self::Unit>,
    );

    /// Called when the worker found no runnable unit (own queue empty,
    /// steals failed) but the run is not yet quiescent — a chance to drain
    /// inboxes while another worker's straggler may still split.
    fn on_idle(&self, _worker: &mut Self::Worker, _ctx: &WorkerCtx<'_, Self::Unit>) {}
}

/// Cooperative limits and tracing for one scheduler run.
#[derive(Clone, Copy, Debug, Default)]
pub struct SchedOptions {
    /// Abort dispatch (degrading to [`RunOutcome::BudgetExceeded`]) once
    /// this instant passes. Checked at unit boundaries: a unit already
    /// running is allowed to finish, so overshoot is bounded by the
    /// longest single unit.
    pub deadline: Option<Instant>,
    /// Stop dispatching after this many units have executed.
    pub max_units: Option<u64>,
    /// Structured tracing (DESIGN.md §13): when enabled, every worker
    /// records scheduler events into a private bounded ring drained into
    /// [`SchedRun::trace`] at quiescence. Disabled (the default) the
    /// recording sites collapse to a branch — no clock reads, no writes.
    pub trace: TraceSpec,
}

/// Which cooperative limit ended a [`RunOutcome::BudgetExceeded`] run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exhaustion {
    /// The wall-clock deadline passed.
    Deadline,
    /// The max-units budget was consumed.
    Units,
}

impl std::fmt::Display for Exhaustion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Exhaustion::Deadline => write!(f, "deadline expired"),
            Exhaustion::Units => write!(f, "unit budget exhausted"),
        }
    }
}

/// Where and why a run aborted: the structured surface of a unit panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AbortInfo {
    /// Worker that observed the panic.
    pub worker: usize,
    /// Where it panicked: `"unit"` ([`Task::run_unit`]), `"<dispatch>"`
    /// (acquiring a unit), `"<on-idle>"` ([`Task::on_idle`]),
    /// `"<worker-init>"` ([`Task::worker`]) or `"<worker>"` (a worker
    /// thread that died outside every envelope).
    pub site: &'static str,
    /// The panic payload, when it was a string (the common case).
    pub payload: String,
}

impl std::fmt::Display for AbortInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worker {} panicked in {}: {}",
            self.worker, self.site, self.payload
        )
    }
}

/// How a scheduler run ended.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum RunOutcome {
    /// Quiescence: every seeded and split unit executed.
    #[default]
    Completed,
    /// The task raised the stop flag (early termination: first conflict,
    /// first witness, violation budget…).
    Stopped,
    /// A cooperative limit from [`SchedOptions`] tripped; the run stopped
    /// cleanly with work left undone.
    BudgetExceeded(Exhaustion),
    /// Task code panicked ([`AbortInfo::site`] says where): the run was
    /// cancelled, all workers joined, partial worker states returned.
    Aborted(AbortInfo),
}

impl RunOutcome {
    /// Did the run end on a panic?
    pub fn is_aborted(&self) -> bool {
        matches!(self, RunOutcome::Aborted(_))
    }
}

/// How a popped unit arrived when it came from a steal: the victim and
/// the number of units the steal claimed (used only for trace events).
#[derive(Clone, Copy, Debug)]
struct StolenFrom {
    victim: u32,
    claimed: u64,
}

struct Shared<'s, U> {
    /// One queue per worker: worker `i` pushes and pops the back of
    /// `queues[i]`, a thief drains its front.
    queues: Vec<Mutex<VecDeque<U>>>,
    /// Units seeded or split but not yet fully executed (DESIGN.md §14):
    /// [`WorkerCtx::split`] holds this lock until its children are queued.
    in_flight: Mutex<usize>,
    /// Raised with a SeqCst store, polled relaxed: a missed poll costs one
    /// more unit of latency, and the verdict travels through `verdict` and
    /// the joins, never through the flag.
    stop: &'s AtomicBool,
    opts: SchedOptions,
    units_executed: AtomicU64,
    units_stolen: AtomicU64,
    units_split: AtomicU64,
    units_panicked: AtomicU64,
    /// First scheduler-raised stop cause wins; task-raised stops leave
    /// this empty and resolve to [`RunOutcome::Stopped`] at the end.
    verdict: Mutex<Option<RunOutcome>>,
}

impl<'s, U> Shared<'s, U> {
    /// `p` queues, the seed in worker 0's, all of it counted.
    fn new(seed: Vec<U>, p: usize, stop: &'s AtomicBool, opts: SchedOptions) -> Self {
        Shared {
            in_flight: Mutex::new(seed.len()),
            // Reversed: the owner pops the back, so the highest-priority
            // unit must land there.
            queues: std::iter::once(seed.into_iter().rev().collect())
                .chain((1..p).map(|_| VecDeque::new()))
                .map(Mutex::new)
                .collect(),
            stop,
            opts,
            units_executed: AtomicU64::new(0),
            units_stolen: AtomicU64::new(0),
            units_split: AtomicU64::new(0),
            units_panicked: AtomicU64::new(0),
            verdict: Mutex::new(None),
        }
    }

    /// Has every counted unit finished? A worker's licence to exit: zero
    /// means no unit is queued anywhere and none is running.
    fn quiescent(&self) -> bool {
        *self.in_flight.lock() == 0
    }

    fn steal(&self, thief: usize) -> Option<(U, Option<StolenFrom>)> {
        failpoint::maybe_panic("sched/steal");
        let p = self.queues.len();
        for k in 1..p {
            let victim = (thief + k) % p;
            // One lock of the victim drains its front half — the
            // lowest-priority end, so the victim keeps the units the
            // priority order wanted it to run next. The victim's lock is
            // released before the thief's own is taken.
            let mut loot: Vec<U> = {
                let mut q = self.queues[victim].lock();
                let n = q.len().div_ceil(2);
                q.drain(..n).collect()
            };
            // `loot` is front-first, i.e. ascending priority: run its
            // last (best) unit now and append the rest, so the thief's
            // own back pops best-first too.
            let Some(first) = loot.pop() else {
                continue;
            };
            let claimed = loot.len() as u64 + 1;
            self.units_stolen.fetch_add(claimed, Ordering::Relaxed);
            self.queues[thief].lock().extend(loot);
            return Some((
                first,
                Some(StolenFrom {
                    victim: victim as u32,
                    claimed,
                }),
            ));
        }
        None
    }

    /// Deal worker 0's queue round-robin across every queue in priority
    /// order, its best unit to worker 0, each queue keeping its
    /// highest-priority unit at the back. Runs once, just before the
    /// helpers start, so queues `1..p` are empty until then.
    fn deal(&self) {
        let p = self.queues.len();
        let units = std::mem::take(&mut *self.queues[0].lock());
        let share = units.len().div_ceil(p);
        let mut dealt: Vec<VecDeque<U>> = (0..p).map(|_| VecDeque::with_capacity(share)).collect();
        // Back first, i.e. best first; each lower unit goes in front.
        for (i, unit) in units.into_iter().rev().enumerate() {
            dealt[i % p].push_front(unit);
        }
        for (queue, units) in self.queues.iter().zip(dealt) {
            *queue.lock() = units;
        }
    }

    /// Record a scheduler-raised stop cause (first writer wins) and raise
    /// the stop flag so every worker exits its loop.
    fn cancel(&self, outcome: RunOutcome) {
        {
            let mut v = self.verdict.lock();
            if v.is_none() {
                *v = Some(outcome);
            }
        }
        self.stop.store(true, Ordering::SeqCst);
    }

    fn abort(&self, worker: usize, site: &'static str, payload: Box<dyn Any + Send>) {
        self.cancel(RunOutcome::Aborted(AbortInfo {
            worker,
            site,
            payload: payload_str(payload),
        }));
    }
}

fn payload_str(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Worker 0 of a `p > 1` run while its helpers have not started.
#[derive(Clone, Copy)]
struct Solo<'h> {
    /// Deals worker 0's queue and spawns workers `1..p`; called at most
    /// once.
    start_helpers: &'h dyn Fn(),
    since: Instant,
}

/// The scheduler handle a [`Task`] uses from inside `run_unit`/`on_idle`.
pub struct WorkerCtx<'s, U> {
    shared: &'s Shared<'s, U>,
    worker: usize,
    /// This worker's private event ring. `RefCell` because the context is
    /// shared by reference between the worker loop and the task's
    /// `run_unit`, but only ever touched from the owning worker's thread.
    trace: RefCell<TraceBuf>,
    /// `Some` while this worker is worker 0 of a `p > 1` run and alone.
    solo: Cell<Option<Solo<'s>>>,
}

impl<'s, U> WorkerCtx<'s, U> {
    fn new(shared: &'s Shared<'s, U>, worker: usize, solo: Option<Solo<'s>>) -> Self {
        WorkerCtx {
            shared,
            worker,
            trace: RefCell::new(TraceBuf::new(shared.opts.trace, worker as u32)),
            solo: Cell::new(solo),
        }
    }

    /// Next unit for this worker: its own back (highest priority first),
    /// else half of a victim's queue. A unit that arrived via a steal is
    /// reported with the claim count and victim id so the worker loop can
    /// trace it — the steal logic itself is identical with tracing on or
    /// off (the non-interference contract of DESIGN.md §13).
    fn pop(&self) -> Option<(U, Option<StolenFrom>)> {
        failpoint::maybe_panic("sched/dispatch");
        let own = self.shared.queues[self.worker].lock().pop_back();
        match own {
            Some(u) => Some((u, None)),
            None => self.shared.steal(self.worker),
        }
    }

    /// Start the helpers if this is worker 0, alone, past the grace.
    fn start_helpers_after_grace(&self) {
        if let Some(solo) = self.solo.get() {
            if solo.since.elapsed() >= HELPER_GRACE {
                self.solo.set(None);
                (solo.start_helpers)();
            }
        }
    }

    /// Open a span (reads the clock only when tracing is enabled).
    pub fn trace_start(&self) -> SpanStart {
        self.trace.borrow().start()
    }

    /// Record a span opened by [`WorkerCtx::trace_start`] into this
    /// worker's private ring. Tasks use this for their `RuleEval` (and
    /// kindred) spans; a start taken while disabled records nothing.
    pub fn trace_span(&self, kind: EventKind, id: u32, start: SpanStart, a: u64, b: u64) {
        self.trace.borrow_mut().span(kind, id, start, a, b);
    }

    /// Record an instant event into this worker's private ring.
    fn trace_instant(&self, kind: EventKind, id: u32, a: u64, b: u64) {
        self.trace.borrow_mut().instant(kind, id, a, b);
    }

    /// Enqueue split units carved off a straggler. They go to the back of
    /// this worker's own queue, popping in the given order, so the
    /// remainder inherits the parent unit's priority.
    pub fn split(&self, units: Vec<U>) {
        if units.is_empty() {
            return;
        }
        self.trace_instant(EventKind::Split, 0, units.len() as u64, 0);
        self.shared
            .units_split
            .fetch_add(units.len() as u64, Ordering::Relaxed);
        // The count's lock is held across the push: a thief that takes a
        // child and completes it must lock the count after this split
        // released it, so it finds the child counted.
        let mut in_flight = self.shared.in_flight.lock();
        *in_flight += units.len();
        // Pushed in reverse: the first split unit lands at the back, so
        // this worker pops it next.
        self.shared.queues[self.worker]
            .lock()
            .extend(units.into_iter().rev());
        drop(in_flight);
        // The children are queued work: a long unit past the grace
        // starts the helpers here rather than at its end.
        self.start_helpers_after_grace();
    }
}

/// What a finished scheduler run hands back to the caller.
pub struct SchedRun<W> {
    /// The final states of the workers that started, in worker-id order:
    /// worker 0 alone when the run never started its helpers. On
    /// [`RunOutcome::Aborted`] the state of a worker whose thread died
    /// outside the per-unit envelope is missing.
    pub workers: Vec<W>,
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Units executed (seeded + split; a panicked unit counts).
    pub units_executed: u64,
    /// Units moved from another worker's queue by steals: each steal
    /// counts its whole loot, the unit the thief runs at once included.
    pub units_stolen: u64,
    /// Units created by splitting.
    pub units_split: u64,
    /// Unit executions that panicked (caught by the isolation envelope).
    pub units_panicked: u64,
    /// Busy time per started worker: thread CPU time over its non-idle
    /// stretches ([`crate::cputime`]).
    pub worker_busy: Vec<Duration>,
    /// Idle (wall) time per started worker.
    pub worker_idle: Vec<Duration>,
    /// The merged trace rings of every worker (empty unless
    /// [`SchedOptions::trace`] enabled recording).
    pub trace: Trace,
}

/// What a worker thread hands back at join: its final task state, busy
/// and idle time, and its trace ring — `None` when the worker itself
/// panicked outside a unit envelope.
type WorkerState<T> = Option<(<T as Task>::Worker, Duration, Duration, TraceBuf)>;

/// Worker `id`'s task state; a panic in [`Task::worker`] aborts the run.
fn init_worker<T: Task>(task: &T, shared: &Shared<'_, T::Unit>, id: usize) -> Option<T::Worker> {
    catch_unwind(AssertUnwindSafe(|| task.worker(id)))
        .map_err(|payload| shared.abort(id, "<worker-init>", payload))
        .ok()
}

fn worker_loop<T: Task>(
    task: &T,
    shared: &Shared<'_, T::Unit>,
    id: usize,
    solo: Option<Solo<'_>>,
) -> WorkerState<T> {
    let mut worker = init_worker(task, shared, id)?;
    // Busy time is booked per *stretch* — from the first unit popped after
    // start or an idle wait to the next wait or the loop's exit — so a run
    // of microsecond units pays two CPU-clock reads a stretch, not a unit.
    let mut busy = Duration::ZERO;
    let mut stretch: Option<BusyTimer> = None;
    let mut idle = Duration::ZERO;
    let mut spins = 0u32;
    let ctx = WorkerCtx::new(shared, id, solo);
    loop {
        if shared.stop.load(Ordering::Relaxed) {
            break;
        }
        if let Some(deadline) = shared.opts.deadline {
            if Instant::now() >= deadline {
                ctx.trace_instant(
                    EventKind::BudgetCut,
                    0,
                    shared.units_executed.load(Ordering::Relaxed),
                    0,
                );
                shared.cancel(RunOutcome::BudgetExceeded(Exhaustion::Deadline));
                break;
            }
        }
        if let Some(max) = shared.opts.max_units {
            if shared.units_executed.load(Ordering::Relaxed) >= max {
                ctx.trace_instant(
                    EventKind::BudgetCut,
                    0,
                    shared.units_executed.load(Ordering::Relaxed),
                    1,
                );
                shared.cancel(RunOutcome::BudgetExceeded(Exhaustion::Units));
                break;
            }
        }
        // Alone between units nothing runs, so a run that is not
        // quiescent has work queued.
        if ctx.solo.get().is_some() && !shared.quiescent() {
            ctx.start_helpers_after_grace();
        }
        let popped = match catch_unwind(AssertUnwindSafe(|| ctx.pop())) {
            Ok(p) => p,
            Err(payload) => {
                // A panic while acquiring a unit (e.g. an armed steal
                // failpoint) happens before any queue mutation for this
                // worker; the run aborts cleanly.
                shared.abort(id, "<dispatch>", payload);
                break;
            }
        };
        if let Some((unit, stolen)) = popped {
            spins = 0;
            // Trace the steal after the claim completed: recording is a
            // worker-local ring write and cannot perturb the steal count.
            if let Some(s) = stolen {
                ctx.trace_instant(EventKind::Steal, 0, s.claimed, s.victim as u64);
            }
            let span = ctx.trace_start();
            stretch.get_or_insert_with(BusyTimer::start);
            let result = catch_unwind(AssertUnwindSafe(|| {
                failpoint::maybe_panic("sched/unit");
                task.run_unit(&mut worker, unit, &ctx);
            }));
            ctx.trace_span(EventKind::UnitExec, 0, span, 0, 0);
            shared.units_executed.fetch_add(1, Ordering::Relaxed);
            *shared.in_flight.lock() -= 1;
            if let Err(payload) = result {
                shared.units_panicked.fetch_add(1, Ordering::Relaxed);
                shared.abort(id, "unit", payload);
                break;
            }
            continue;
        }
        if shared.quiescent() {
            break;
        }
        // No runnable unit, but a straggler elsewhere may still split.
        // `on_idle` can do real work (e.g. drain a `ΔEq` inbox, cascading
        // pending rechecks), so it runs inside the stretch (opening one if
        // the worker was already waiting); only the yield/sleep wait is
        // booked as idle.
        let timer = stretch.take().unwrap_or_else(BusyTimer::start);
        let idled = catch_unwind(AssertUnwindSafe(|| task.on_idle(&mut worker, &ctx)));
        busy += timer.elapsed();
        if let Err(payload) = idled {
            shared.abort(id, "<on-idle>", payload);
            break;
        }
        let idle_start = Instant::now();
        if spins < 64 {
            spins += 1;
            std::thread::yield_now();
        } else {
            std::thread::sleep(Duration::from_micros(50));
        }
        idle += idle_start.elapsed();
    }
    // Every exit (quiescence, stop, budget cut, abort) closes the stretch.
    busy += stretch.map_or(Duration::ZERO, |t| t.elapsed());
    Some((worker, busy, idle, ctx.trace.into_inner()))
}

/// [`run_scheduler`] with the ignored mode argument `gfdbench/` still
/// passes; ROADMAP [bench] deletes it.
pub fn run_scheduler_with<T: Task>(
    task: &T,
    seed: Vec<T::Unit>,
    workers: usize,
    _mode: DispatchMode, // gfdbench-pin
    stop: &AtomicBool,
    opts: SchedOptions,
) -> SchedRun<T::Worker> {
    run_scheduler(task, seed, workers, stop, opts)
}

/// Run `task` over `seed` units on up to `workers` threads until
/// quiescence, until `stop` is raised, or until a limit in `opts` trips.
///
/// The seed, in the given (priority) order, is worker 0's queue, and
/// worker 0 runs inline on the calling thread, alone: every run starts
/// as the one-worker run, which is what the sequential algorithms are.
/// With `workers > 1`, once the run has lasted `HELPER_GRACE` and still
/// has work queued, worker 0 deals its queue round-robin across the
/// per-worker queues and spawns the other workers; a shorter run pays no
/// thread-spawn cost. [`SchedRun`] holds the workers that started.
///
/// Task code must not wait for another worker's progress: until the
/// grace passes there is no other worker.
///
/// Unit panics are isolated: see the module docs and [`RunOutcome`].
pub fn run_scheduler<T: Task>(
    task: &T,
    seed: Vec<T::Unit>,
    workers: usize,
    stop: &AtomicBool,
    opts: SchedOptions,
) -> SchedRun<T::Worker> {
    let p = workers.max(1);
    let shared = Shared::new(seed, p, stop, opts);

    let states: Vec<WorkerState<T>> = std::thread::scope(|scope| {
        let shared = &shared;
        let helpers = RefCell::new(Vec::with_capacity(p - 1));
        let start_helpers = || {
            shared.deal();
            let mut helpers = helpers.borrow_mut();
            for id in 1..p {
                let spawn = std::thread::Builder::new()
                    .spawn_scoped(scope, move || worker_loop(task, shared, id, None));
                // A helper the OS will not start is one that never
                // started: worker 0 and the rest steal its dealt units.
                let Ok(handle) = spawn else { break };
                helpers.push(handle);
            }
        };
        let solo = (p > 1).then(|| Solo {
            start_helpers: &start_helpers,
            since: Instant::now(),
        });
        let mut states = vec![worker_loop(task, shared, 0, solo)];
        for (id, handle) in (1..).zip(helpers.take()) {
            states.push(handle.join().unwrap_or_else(|payload| {
                // Should be unreachable — every panic source in the
                // loop is wrapped — but a worker thread dying must
                // still surface as a structured abort.
                shared.abort(id, "<worker>", payload);
                None
            }));
        }
        states
    });

    let outcome = shared.verdict.lock().take().unwrap_or_else(|| {
        if stop.load(Ordering::SeqCst) {
            RunOutcome::Stopped
        } else {
            RunOutcome::Completed
        }
    });
    let mut run = SchedRun {
        workers: Vec::with_capacity(states.len()),
        outcome,
        units_executed: shared.units_executed.load(Ordering::Relaxed),
        units_stolen: shared.units_stolen.load(Ordering::Relaxed),
        units_split: shared.units_split.load(Ordering::Relaxed),
        units_panicked: shared.units_panicked.load(Ordering::Relaxed),
        worker_busy: Vec::with_capacity(states.len()),
        worker_idle: Vec::with_capacity(states.len()),
        trace: Trace::default(),
    };
    for state in states {
        let Some((worker, busy, idle, tbuf)) = state else {
            continue;
        };
        run.workers.push(worker);
        run.worker_busy.push(busy);
        run.worker_idle.push(idle);
        // Drain each worker's private ring at quiescence — the only
        // moment trace data crosses a thread boundary.
        run.trace.absorb_buf(tbuf);
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as TestCounter;

    /// A task that sums unit payloads per worker and splits units above a
    /// threshold into halves.
    struct SumTask {
        split_above: u64,
        executed: TestCounter,
    }

    impl Task for SumTask {
        type Unit = u64;
        type Worker = u64;

        fn worker(&self, _id: usize) -> u64 {
            0
        }

        fn run_unit(&self, acc: &mut u64, unit: u64, ctx: &WorkerCtx<'_, u64>) {
            self.executed.fetch_add(1, Ordering::Relaxed);
            if unit > self.split_above {
                let half = unit / 2;
                ctx.split(vec![half, unit - half]);
                return;
            }
            *acc += unit;
        }
    }

    fn total(seed: &[u64]) -> u64 {
        seed.iter().sum()
    }

    /// [`run_scheduler`] under default options (no limits, no tracing).
    fn run_default<T: Task>(
        task: &T,
        seed: Vec<T::Unit>,
        workers: usize,
        stop: &AtomicBool,
    ) -> SchedRun<T::Worker> {
        run_scheduler(task, seed, workers, stop, SchedOptions::default())
    }

    #[test]
    fn all_units_run_exactly_once_across_worker_counts() {
        for p in [1usize, 2, 4, 8] {
            let seed: Vec<u64> = (1..=100).collect();
            let task = SumTask {
                split_above: u64::MAX,
                executed: TestCounter::new(0),
            };
            let stop = AtomicBool::new(false);
            let run = run_default(&task, seed.clone(), p, &stop);
            assert_eq!(run.workers.iter().sum::<u64>(), total(&seed), "p={p}");
            assert_eq!(run.units_executed, 100);
            assert_eq!(run.units_split, 0);
            assert_eq!(run.units_panicked, 0);
            assert_eq!(run.outcome, RunOutcome::Completed);
            assert!((1..=p).contains(&run.worker_busy.len()), "p={p}");
        }
    }

    #[test]
    fn splits_preserve_the_total() {
        let seed: Vec<u64> = vec![1000, 3, 7, 2000];
        let task = SumTask {
            split_above: 10,
            executed: TestCounter::new(0),
        };
        let stop = AtomicBool::new(false);
        let run = run_default(&task, seed.clone(), 3, &stop);
        assert_eq!(run.workers.iter().sum::<u64>(), total(&seed));
        assert!(run.units_split > 0);
        assert_eq!(run.units_executed, seed.len() as u64 + run.units_split);
    }

    #[test]
    fn stop_flag_halts_the_run() {
        struct StopTask;
        impl Task for StopTask {
            type Unit = usize;
            type Worker = usize;
            fn worker(&self, _id: usize) -> usize {
                0
            }
            fn run_unit(&self, done: &mut usize, _u: usize, _ctx: &WorkerCtx<'_, usize>) {
                *done += 1;
            }
        }
        let stop = AtomicBool::new(true);
        let run = run_default(&StopTask, (0..1000).collect(), 4, &stop);
        // Pre-raised stop: nothing (or at most a unit per worker mid-pop)
        // runs.
        assert!(run.units_executed <= 4);
        // Worker 0 stops before its first unit: no helper starts.
        assert_eq!(run.workers.len(), 1);
        assert_eq!(run.outcome, RunOutcome::Stopped);
    }

    #[test]
    fn skewed_seed_forces_steals() {
        // Worker 0's queue gets one enormous unit (simulated by splitting
        // repeatedly); the others drain fast and must steal to stay busy.
        struct SpinTask;
        impl Task for SpinTask {
            type Unit = u64;
            type Worker = u64;
            fn worker(&self, _id: usize) -> u64 {
                0
            }
            fn run_unit(&self, acc: &mut u64, unit: u64, _ctx: &WorkerCtx<'_, u64>) {
                // Heavy units spin; light units return instantly.
                let mut x = 0u64;
                for i in 0..unit * 50_000 {
                    x = x.wrapping_mul(31).wrapping_add(i);
                }
                std::hint::black_box(x);
                *acc += 1;
            }
        }
        // Round-robin over p=2: even indices (worker 0) heavy-first, odd
        // light. Worker 0 is stuck on unit 0 while its queue still holds
        // work — worker 1 finishes its own and steals.
        let mut seed = vec![0u64; 64];
        seed[0] = 200;
        let stop = AtomicBool::new(false);
        let run = run_default(&SpinTask, seed, 2, &stop);
        assert_eq!(run.units_executed, 64);
        assert!(run.units_stolen > 0, "no steals on a skewed workload");
    }

    /// Records which worker ran which unit, in order. Unit 1 splits into
    /// 100, 101, 102; unit 0 holds its worker until `hold_for` units from
    /// `stolen_from` have run on another worker (or 5 s pass). Units from
    /// `WARM_UP` on sleep for the grace, so a run seeded with one first
    /// has its helpers running before unit 0 holds.
    struct OrderTask {
        log: Mutex<Vec<(usize, u32)>>,
        stolen_from: fn(u32) -> bool,
        hold_for: usize,
    }

    impl Task for OrderTask {
        type Unit = u32;
        type Worker = usize;

        fn worker(&self, id: usize) -> usize {
            id
        }

        fn run_unit(&self, worker: &mut usize, unit: u32, ctx: &WorkerCtx<'_, u32>) {
            let id = *worker;
            self.log.lock().push((id, unit));
            if unit >= WARM_UP {
                std::thread::sleep(HELPER_GRACE);
            }
            if unit == 1 {
                ctx.split(vec![100, 101, 102]);
            }
            if unit == 0 {
                let stolen = || {
                    let log = self.log.lock();
                    let n = log
                        .iter()
                        .filter(|&&(w, u)| w != id && (self.stolen_from)(u));
                    n.count()
                };
                let until = Instant::now() + Duration::from_secs(5);
                while stolen() < self.hold_for && Instant::now() < until {
                    std::thread::yield_now();
                }
            }
        }
    }

    const WARM_UP: u32 = 200;

    /// Every test that could lose a unit runs under a deadline, so a
    /// lost unit fails the run instead of hanging it.
    fn guarded() -> SchedOptions {
        SchedOptions {
            deadline: Some(Instant::now() + Duration::from_secs(30)),
            ..Default::default()
        }
    }

    #[test]
    fn queue_discipline_one_worker_runs_seed_order_and_split_children_next() {
        let task = OrderTask {
            log: Mutex::new(Vec::new()),
            stolen_from: |_| false,
            hold_for: 0,
        };
        let stop = AtomicBool::new(false);
        let run = run_scheduler(&task, vec![0, 1, 2, 3, 4], 1, &stop, guarded());
        assert_eq!(run.outcome, RunOutcome::Completed);
        let order: Vec<u32> = task.log.into_inner().into_iter().map(|(_, u)| u).collect();
        assert_eq!(order, vec![0, 1, 100, 101, 102, 2, 3, 4]);
    }

    #[test]
    fn queue_discipline_worker_0_alone_runs_the_one_worker_order() {
        let task = OrderTask {
            log: Mutex::new(Vec::new()),
            stolen_from: |_| false,
            hold_for: 0,
        };
        let stop = AtomicBool::new(false);
        let run = run_scheduler(&task, vec![0, 1, 2, 3, 4], 4, &stop, guarded());
        assert_eq!(run.outcome, RunOutcome::Completed);
        let log = task.log.into_inner();
        // A run this short ends within the grace on worker 0 alone (a
        // host that stalls it past the grace has it start helpers, and
        // then the order is theirs).
        if log.iter().all(|&(w, _)| w == 0) {
            let order: Vec<u32> = log.into_iter().map(|(_, u)| u).collect();
            assert_eq!(order, vec![0, 1, 100, 101, 102, 2, 3, 4]);
        }
    }

    #[test]
    fn queue_discipline_thief_takes_the_low_priority_half() {
        // Worker 0's warm-up unit outlasts the grace, so at its end worker
        // 0 deals [0, 16) round-robin over p = 2 in priority order: the
        // even units to itself, the odd ones to worker 1, which it then
        // starts. Unit 0 holds worker 0 until worker 1 has run four even
        // units. So worker 0's queue [2, 4, …, 14] is untouched by its
        // owner when worker 1, out of odd units, steals from it. The thief
        // must take the low-priority half {8, 10, 12, 14}, run its best
        // unit first and the rest in priority order.
        let task = OrderTask {
            log: Mutex::new(Vec::new()),
            stolen_from: |u| u < 16 && u.is_multiple_of(2),
            hold_for: 4,
        };
        let stop = AtomicBool::new(false);
        let seed = [WARM_UP].into_iter().chain(0..16).collect();
        let run = run_scheduler(&task, seed, 2, &stop, guarded());
        assert_eq!(run.outcome, RunOutcome::Completed);
        let log = task.log.into_inner();
        // The deal's interleave: worker 1 runs its odd units in priority
        // order (unit 1's children 100–102 right after it), then its loot.
        let mine: Vec<u32> = log
            .iter()
            .filter(|&&(w, u)| w == 1 && u < 16)
            .map(|&(_, u)| u)
            .take(12)
            .collect();
        let dealt = (1..16).step_by(2).chain([8, 10, 12, 14]);
        assert_eq!(mine, dealt.collect::<Vec<_>>(), "{log:?}");
        let thief: Vec<u32> = log
            .iter()
            .filter(|&&(w, u)| w == 1 && (task.stolen_from)(u))
            .map(|&(_, u)| u)
            .take(4)
            .collect();
        assert_eq!(thief, vec![8, 10, 12, 14], "{log:?}");
        assert!(run.units_stolen >= 4);
    }

    #[cfg(miri)]
    const STRESS_UNITS: u32 = 300;
    #[cfg(not(miri))]
    const STRESS_UNITS: u32 = 50_000;

    /// Every fifth seed unit splits into three children; each execution
    /// bumps its unit's own counter.
    struct CountTask {
        runs: Vec<std::sync::atomic::AtomicU32>,
    }

    impl Task for CountTask {
        type Unit = u32;
        type Worker = ();

        fn worker(&self, _id: usize) {}

        fn run_unit(&self, _w: &mut (), unit: u32, ctx: &WorkerCtx<'_, u32>) {
            self.runs[unit as usize].fetch_add(1, Ordering::Relaxed);
            if unit < STRESS_UNITS && unit.is_multiple_of(5) {
                let first = STRESS_UNITS + 3 * (unit / 5);
                ctx.split(vec![first, first + 1, first + 2]);
            }
        }
    }

    #[test]
    fn queue_stress_every_unit_runs_exactly_once() {
        let total = STRESS_UNITS + 3 * STRESS_UNITS.div_ceil(5);
        for p in [2usize, 4, 8] {
            let task = CountTask {
                runs: (0..total).map(|_| Default::default()).collect(),
            };
            let stop = AtomicBool::new(false);
            let run = run_scheduler(&task, (0..STRESS_UNITS).collect(), p, &stop, guarded());
            assert_eq!(run.outcome, RunOutcome::Completed, "p={p}");
            assert_eq!(run.units_executed, u64::from(total), "p={p}");
            assert_eq!(run.units_split, u64::from(total - STRESS_UNITS), "p={p}");
            for (unit, runs) in task.runs.iter().enumerate() {
                assert_eq!(runs.load(Ordering::Relaxed), 1, "p={p} unit {unit}");
            }
        }
    }

    /// [`CountTask`] whose unit 0 first sleeps the grace: its split then
    /// deals worker 0's queue, children included, and starts the helpers
    /// mid-run, under any clock (Miri's included).
    struct LateCountTask(CountTask);

    impl Task for LateCountTask {
        type Unit = u32;
        type Worker = ();

        fn worker(&self, _id: usize) {}

        fn run_unit(&self, w: &mut (), unit: u32, ctx: &WorkerCtx<'_, u32>) {
            if unit == 0 {
                std::thread::sleep(HELPER_GRACE);
            }
            self.0.run_unit(w, unit, ctx);
        }
    }

    #[test]
    fn helpers_started_mid_run_keep_every_unit_exactly_once() {
        let total = STRESS_UNITS + 3 * STRESS_UNITS.div_ceil(5);
        for p in [2usize, 4, 8] {
            let task = LateCountTask(CountTask {
                runs: (0..total).map(|_| Default::default()).collect(),
            });
            let stop = AtomicBool::new(false);
            let run = run_scheduler(&task, (0..STRESS_UNITS).collect(), p, &stop, guarded());
            assert_eq!(run.outcome, RunOutcome::Completed, "p={p}");
            assert_eq!(run.units_executed, u64::from(total), "p={p}");
            for (unit, runs) in task.0.runs.iter().enumerate() {
                assert_eq!(runs.load(Ordering::Relaxed), 1, "p={p} unit {unit}");
            }
        }
    }

    #[test]
    fn a_running_unit_is_counted() {
        struct CountedTask;
        impl Task for CountedTask {
            type Unit = ();
            type Worker = ();
            fn worker(&self, _id: usize) {}
            fn run_unit(&self, _w: &mut (), _u: (), ctx: &WorkerCtx<'_, ()>) {
                assert!(!ctx.shared.quiescent(), "the running unit is not counted");
            }
        }
        let stop = AtomicBool::new(false);
        let run = run_default(&CountedTask, vec![()], 1, &stop);
        assert_eq!(run.outcome, RunOutcome::Completed);
    }

    #[test]
    fn a_split_publishes_nothing_while_the_count_is_held() {
        let window = Duration::from_millis(if cfg!(miri) { 1 } else { 50 });
        let stop = AtomicBool::new(false);
        let shared = Shared::new(vec![0u32], 2, &stop, SchedOptions::default());
        // Worker 0 has taken unit 0, which splits while it is counted.
        shared.queues[0].lock().pop_back();
        std::thread::scope(|scope| {
            let held = shared.in_flight.lock();
            let splitter = scope.spawn(|| WorkerCtx::new(&shared, 0, None).split(vec![1, 2]));
            let until = Instant::now() + window;
            while Instant::now() < until {
                let loot = shared.steal(1).map(|(unit, _)| unit);
                assert_eq!(loot, None, "a child was stealable before it was counted");
                std::thread::yield_now();
            }
            drop(held);
            splitter.join().unwrap();
        });
        assert_eq!(*shared.in_flight.lock(), 3);
        assert_eq!(*shared.queues[0].lock(), [2, 1]);
    }

    #[test]
    fn empty_seed_returns_immediately() {
        let task = SumTask {
            split_above: u64::MAX,
            executed: TestCounter::new(0),
        };
        let stop = AtomicBool::new(false);
        let run = run_default(&task, Vec::new(), 8, &stop);
        assert_eq!(run.units_executed, 0);
        assert_eq!(run.workers.len(), 1);
        assert_eq!(run.outcome, RunOutcome::Completed);
    }

    /// A task whose units above 100 panic, used to pin panic isolation.
    #[derive(Default)]
    struct FaultyTask {
        /// Entries into a unit above 100.
        entries: TestCounter,
    }

    impl Task for FaultyTask {
        type Unit = u64;
        type Worker = u64;

        fn worker(&self, _id: usize) -> u64 {
            0
        }

        fn run_unit(&self, acc: &mut u64, unit: u64, _ctx: &WorkerCtx<'_, u64>) {
            if unit > 100 {
                self.entries.fetch_add(1, Ordering::SeqCst);
                panic!("injected unit failure (payload {unit})");
            }
            *acc += unit;
        }
    }

    #[test]
    fn unit_panic_aborts_with_structured_outcome() {
        for p in [1usize, 2, 4] {
            let mut seed: Vec<u64> = vec![1; 40];
            seed[17] = 1000; // the poisoned unit
            let task = FaultyTask::default();
            let stop = AtomicBool::new(false);
            let run = run_default(&task, seed, p, &stop);
            let RunOutcome::Aborted(info) = &run.outcome else {
                panic!("p={p}: expected Aborted, got {:?}", run.outcome);
            };
            assert_eq!(info.site, "unit", "p={p}");
            assert!(info.payload.contains("injected unit failure"), "p={p}");
            assert!(info.worker < p, "p={p}");
            // A unit runs once: the poisoned one is never entered again.
            assert_eq!(task.entries.load(Ordering::SeqCst), 1, "p={p}");
            assert_eq!(run.units_panicked, 1, "p={p}");
            assert!(stop.load(Ordering::SeqCst), "p={p}: stop flag raised");
        }
    }

    #[test]
    fn deadline_degrades_to_budget_exceeded() {
        struct SlowTask;
        impl Task for SlowTask {
            type Unit = u64;
            type Worker = u64;
            fn worker(&self, _id: usize) -> u64 {
                0
            }
            fn run_unit(&self, done: &mut u64, _u: u64, _ctx: &WorkerCtx<'_, u64>) {
                std::thread::sleep(Duration::from_millis(5));
                *done += 1;
            }
        }
        let stop = AtomicBool::new(false);
        let run = run_scheduler(
            &SlowTask,
            (0..1000).collect(),
            2,
            &stop,
            SchedOptions {
                deadline: Some(Instant::now() + Duration::from_millis(20)),
                ..Default::default()
            },
        );
        assert_eq!(
            run.outcome,
            RunOutcome::BudgetExceeded(Exhaustion::Deadline)
        );
        assert!(run.units_executed < 1000, "deadline must cut the run short");
    }

    #[test]
    fn max_units_budget_stops_dispatch() {
        let task = SumTask {
            split_above: u64::MAX,
            executed: TestCounter::new(0),
        };
        let stop = AtomicBool::new(false);
        let run = run_scheduler(
            &task,
            (1..=100).collect(),
            1,
            &stop,
            SchedOptions {
                max_units: Some(10),
                ..Default::default()
            },
        );
        assert_eq!(run.outcome, RunOutcome::BudgetExceeded(Exhaustion::Units));
        assert_eq!(run.units_executed, 10);
    }

    #[test]
    fn tracing_records_scheduler_events_and_disabled_stays_empty() {
        let seed: Vec<u64> = vec![1000, 3, 7, 2000];
        let task = SumTask {
            split_above: 10,
            executed: TestCounter::new(0),
        };
        let stop = AtomicBool::new(false);
        let run = run_scheduler(
            &task,
            seed,
            2,
            &stop,
            SchedOptions {
                trace: TraceSpec::enabled(),
                ..Default::default()
            },
        );
        assert_eq!(run.outcome, RunOutcome::Completed);
        let execs = run
            .trace
            .events
            .iter()
            .filter(|e| e.kind == EventKind::UnitExec)
            .count() as u64;
        assert_eq!(
            execs, run.units_executed,
            "every executed unit gets a UnitExec span"
        );
        let split_units: u64 = run
            .trace
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Split)
            .map(|e| e.a)
            .sum();
        assert_eq!(
            split_units, run.units_split,
            "Split payloads sum to the counter"
        );
        let stolen_units: u64 = run
            .trace
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Steal)
            .map(|e| e.a)
            .sum();
        assert_eq!(
            stolen_units, run.units_stolen,
            "Steal payloads sum to the counter"
        );

        // Disabled tracing (the default options) collects nothing.
        let task = SumTask {
            split_above: 10,
            executed: TestCounter::new(0),
        };
        let stop = AtomicBool::new(false);
        let run = run_default(&task, vec![1000, 3, 7, 2000], 2, &stop);
        assert!(run.trace.is_empty());
    }

    #[test]
    fn tracing_records_the_budget_cut_instant() {
        let task = SumTask {
            split_above: u64::MAX,
            executed: TestCounter::new(0),
        };
        let stop = AtomicBool::new(false);
        let run = run_scheduler(
            &task,
            (1..=100).collect(),
            1,
            &stop,
            SchedOptions {
                max_units: Some(10),
                trace: TraceSpec::enabled(),
                ..Default::default()
            },
        );
        assert_eq!(run.outcome, RunOutcome::BudgetExceeded(Exhaustion::Units));
        assert!(
            run.trace
                .events
                .iter()
                .any(|e| e.kind == EventKind::BudgetCut && e.b == 1),
            "the max-units cut must leave a BudgetCut instant"
        );
    }

    fn clock_reads() -> u64 {
        crate::cputime::CLOCK_READS.with(|n| n.get())
    }

    #[test]
    fn back_to_back_units_open_one_stretch() {
        let task = SumTask {
            split_above: u64::MAX,
            executed: TestCounter::new(0),
        };
        let stop = AtomicBool::new(false);
        // One worker runs inline: the calling thread's reads are its own.
        let before = clock_reads();
        let run = run_default(&task, (1..=1000).collect(), 1, &stop);
        assert_eq!(run.units_executed, 1000);
        assert_eq!(clock_reads() - before, 2, "one start, one stop");
        assert!(run.worker_busy[0] > Duration::ZERO);
    }

    /// Two bursts on worker 1 with a forced idle wait between them. A unit
    /// is its burst's number. Burst 0 is worker 0's warm-up: it outlasts
    /// the grace, so worker 1 is running before the rendezvous. Both
    /// workers run one unit of burst 1 (the rendezvous holds each to its
    /// own); worker 0's then waits until worker 1 has idled before
    /// splitting off the two units of burst 2, of which the rendezvous
    /// again gives each worker one. Every unit after the warm-up logs the
    /// clock reads of its thread. Each wait fails its unit after 10 s, so
    /// a worker that exits early aborts the run instead of hanging it.
    struct BurstTask {
        /// Units of bursts 1 and 2 that reached the rendezvous.
        arrived: std::sync::atomic::AtomicUsize,
        peer_idled: AtomicBool,
    }

    fn wait_at_most_10s(done: impl Fn() -> bool, what: &str) {
        let until = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < until, "waited 10 s for {what}");
            std::thread::yield_now();
        }
    }

    impl Task for BurstTask {
        type Unit = u8;
        type Worker = (usize, Vec<u64>);

        fn worker(&self, id: usize) -> Self::Worker {
            (id, Vec::new())
        }

        fn run_unit(&self, w: &mut Self::Worker, burst: u8, ctx: &WorkerCtx<'_, u8>) {
            if burst == 0 {
                std::thread::sleep(HELPER_GRACE);
                return;
            }
            w.1.push(clock_reads());
            // A worker's n-th unit here waits for both workers' n-th.
            self.arrived.fetch_add(1, Ordering::SeqCst);
            let both = 2 * w.1.len();
            wait_at_most_10s(|| self.arrived.load(Ordering::SeqCst) >= both, "the peer");
            if burst == 1 && w.0 == 0 {
                wait_at_most_10s(|| self.peer_idled.load(Ordering::SeqCst), "an idle peer");
                ctx.split(vec![2, 2]);
            }
        }

        fn on_idle(&self, w: &mut Self::Worker, _ctx: &WorkerCtx<'_, u8>) {
            if w.0 == 1 {
                self.peer_idled.store(true, Ordering::SeqCst);
            }
        }
    }

    #[test]
    fn idling_between_bursts_opens_a_second_stretch() {
        let task = BurstTask {
            arrived: Default::default(),
            peer_idled: AtomicBool::new(false),
        };
        let stop = AtomicBool::new(false);
        let run = run_default(&task, vec![0, 1, 1], 2, &stop);
        assert_eq!(run.outcome, RunOutcome::Completed);
        // Worker 0 never waited between its two units: one stretch.
        assert_eq!(run.workers[0].1, vec![1, 1]);
        // Worker 1 closed its first stretch to wait and opened a second:
        // at least a stop and a start read between its two units.
        let reads = &run.workers[1].1;
        assert_eq!(reads[0], 1);
        assert!(reads[1] > reads[0] + 1, "{reads:?}");
        assert!(run.worker_idle[1] > Duration::ZERO);
        assert!(run.worker_busy.iter().all(|b| *b > Duration::ZERO));
    }

    #[test]
    fn a_panicking_unit_still_closes_its_stretch() {
        let task = FaultyTask::default();
        let stop = AtomicBool::new(false);
        let before = clock_reads();
        let run = run_default(&task, vec![1, 1000, 1], 1, &stop);
        assert!(run.outcome.is_aborted());
        assert_eq!(clock_reads() - before, 2);
        assert!(run.worker_busy[0] > Duration::ZERO);
    }

    #[test]
    fn a_parked_worker_accrues_little_busy_time() {
        struct NapTask;
        impl Task for NapTask {
            type Unit = ();
            type Worker = ();
            fn worker(&self, _id: usize) {}
            fn run_unit(&self, _w: &mut (), _u: (), _ctx: &WorkerCtx<'_, ()>) {
                std::thread::sleep(Duration::from_millis(50));
            }
        }
        if crate::cputime::thread_cpu_time().is_none() {
            return;
        }
        // One worker sleeps inside the only unit, the other waits on its
        // empty queue: neither wait is CPU time.
        let stop = AtomicBool::new(false);
        let run = run_default(&NapTask, vec![()], 2, &stop);
        for busy in &run.worker_busy {
            assert!(*busy < Duration::from_millis(40), "wait booked: {busy:?}");
        }
    }

    /// Logs the thread of every unit and of every [`Task::worker`] call.
    /// Unit 0 sleeps past the grace, then splits off `children` units
    /// (100, 101, …) and waits until they ran, then panics if `panic`.
    /// Every other unit below 100 waits until units ran on `meet` threads.
    struct ThreadTask {
        units: Mutex<Vec<(u32, std::thread::ThreadId)>>,
        builders: Mutex<Vec<std::thread::ThreadId>>,
        children: u32,
        meet: usize,
        panic: bool,
    }

    impl ThreadTask {
        fn new(children: u32, meet: usize, panic: bool) -> Self {
            ThreadTask {
                units: Mutex::new(Vec::new()),
                builders: Mutex::new(Vec::new()),
                children,
                meet,
                panic,
            }
        }

        fn threads(&self) -> std::collections::HashSet<std::thread::ThreadId> {
            self.units.lock().iter().map(|&(_, t)| t).collect()
        }

        /// Wait for `done`, at most 10 s; a unit asserts the answer, so a
        /// broken contract aborts the run instead of hanging it.
        fn wait_until(&self, done: impl Fn() -> bool) -> bool {
            let until = Instant::now() + Duration::from_secs(10);
            while !done() {
                if Instant::now() >= until {
                    return false;
                }
                std::thread::yield_now();
            }
            true
        }
    }

    impl Task for ThreadTask {
        type Unit = u32;
        type Worker = usize;

        fn worker(&self, id: usize) -> usize {
            self.builders.lock().push(std::thread::current().id());
            id
        }

        fn run_unit(&self, _w: &mut usize, unit: u32, ctx: &WorkerCtx<'_, u32>) {
            self.units.lock().push((unit, std::thread::current().id()));
            if unit == 0 {
                std::thread::sleep(HELPER_GRACE);
                if self.children > 0 {
                    ctx.split((100..100 + self.children).collect());
                    let ran = || self.units.lock().iter().filter(|u| u.0 >= 100).count();
                    let helped = self.wait_until(|| ran() == self.children as usize);
                    assert!(helped, "no helper ran the children");
                }
                assert!(!self.panic, "worker 0 fails after starting its helpers");
            } else if unit < 100 {
                let met = self.wait_until(|| self.threads().len() >= self.meet);
                assert!(met, "units ran on fewer than {} threads", self.meet);
            }
        }
    }

    #[test]
    fn helpers_never_start_for_a_one_unit_seed() {
        let task = ThreadTask::new(0, 0, false);
        let stop = AtomicBool::new(false);
        let run = run_default(&task, vec![0], 4, &stop);
        assert_eq!(run.outcome, RunOutcome::Completed);
        let caller = std::thread::current().id();
        assert_eq!(*task.units.lock(), vec![(0, caller)]);
        // The one-worker run: one worker state, built on the calling
        // thread, and no state for the helpers that never started.
        assert_eq!(run.workers, vec![0]);
        assert_eq!(*task.builders.lock(), vec![caller]);
        assert_eq!(run.worker_busy.len(), 1);
        assert_eq!(run.worker_idle.len(), 1);
    }

    #[test]
    fn helpers_start_at_the_first_boundary_past_the_grace() {
        // Unit 0 outlasts the grace with seven units queued; each later
        // unit holds its worker until units ran on four threads, so every
        // helper must take one.
        let p = 4;
        let task = ThreadTask::new(0, p, false);
        let stop = AtomicBool::new(false);
        let run = run_scheduler(&task, (0..8).collect(), p, &stop, guarded());
        assert_eq!(run.outcome, RunOutcome::Completed);
        assert_eq!(run.units_executed, 8);
        assert_eq!(task.threads().len(), p);
        assert_eq!(task.units.lock()[0], (0, std::thread::current().id()));
        assert_eq!(run.workers, vec![0, 1, 2, 3]);
    }

    #[test]
    fn helpers_start_at_a_split_past_the_grace() {
        // The one seed unit splits past the grace and waits for its
        // children: only the helpers it started can run them.
        let task = ThreadTask::new(3, 0, false);
        let stop = AtomicBool::new(false);
        let run = run_scheduler(&task, vec![0], 4, &stop, guarded());
        assert_eq!(run.outcome, RunOutcome::Completed);
        assert_eq!(run.units_executed, 4);
        let caller = std::thread::current().id();
        let units = task.units.lock();
        assert_eq!(units[0], (0, caller));
        assert!(units[1..].iter().all(|&(u, t)| u >= 100 && t != caller));
        // Children 101 and 102 are dealt to helpers; 100 stays on worker
        // 0's queue, and a helper steals it.
        assert!(run.units_stolen >= 1, "child 100 was not stolen");
    }

    #[test]
    fn helpers_are_joined_when_worker_0_panics_after_starting_them() {
        let task = ThreadTask::new(3, 0, true);
        let stop = AtomicBool::new(false);
        let run = run_default(&task, vec![0], 4, &stop);
        let RunOutcome::Aborted(info) = &run.outcome else {
            panic!("expected Aborted, got {:?}", run.outcome);
        };
        assert_eq!(info.worker, 0);
        assert!(
            info.payload.contains("after starting its helpers"),
            "{info}"
        );
        assert_eq!(run.units_panicked, 1);
        // Every helper was built on a thread of its own and handed its
        // state back through the join.
        let caller = std::thread::current().id();
        let builders = task.builders.lock();
        assert_eq!(builders.iter().filter(|&&t| t != caller).count(), 3);
        assert_eq!(run.workers.len(), 4);
        assert!(stop.load(Ordering::SeqCst));
    }

    #[test]
    fn abort_info_displays_defaults() {
        let info = AbortInfo {
            worker: 3,
            site: "unit",
            payload: "boom".into(),
        };
        assert_eq!(info.to_string(), "worker 3 panicked in unit: boom");
    }

    /// Panics outside [`Task::run_unit`]: in [`Task::worker`] for the
    /// worker `init_panic` names, or in [`Task::on_idle`] when
    /// `idle_panic`. Unit 0 sleeps past the grace, so a `p > 1` run has
    /// started its helpers when it ends; with `idle_panic` every other
    /// unit holds its worker until a worker has idled (at most 10 s).
    #[derive(Default)]
    struct SiteTask {
        init_panic: Option<usize>,
        idle_panic: bool,
        /// The worker that idled, plus one (0: none yet).
        idler: std::sync::atomic::AtomicUsize,
    }

    impl Task for SiteTask {
        type Unit = u32;
        type Worker = usize;

        fn worker(&self, id: usize) -> usize {
            assert_ne!(self.init_panic, Some(id), "worker {id} fails to start");
            id
        }

        fn run_unit(&self, _w: &mut usize, unit: u32, _ctx: &WorkerCtx<'_, u32>) {
            if unit == 0 {
                std::thread::sleep(HELPER_GRACE);
            } else if self.idle_panic {
                let until = Instant::now() + Duration::from_secs(10);
                while self.idler.load(Ordering::SeqCst) == 0 && Instant::now() < until {
                    std::thread::yield_now();
                }
            }
        }

        fn on_idle(&self, w: &mut usize, _ctx: &WorkerCtx<'_, u32>) {
            if self.idle_panic {
                self.idler.store(*w + 1, Ordering::SeqCst);
                panic!("idle worker fails");
            }
        }
    }

    /// Run `task` over units 0 and 1 at width `p` and return its abort,
    /// after checking that a fresh run at the same width completes.
    /// Returning at all proves every worker joined.
    fn abort_of(task: &SiteTask, p: usize) -> AbortInfo {
        let stop = AtomicBool::new(false);
        let run = run_scheduler(task, vec![0, 1], p, &stop, guarded());
        let RunOutcome::Aborted(info) = run.outcome else {
            panic!("p={p}: expected Aborted, got {:?}", run.outcome);
        };
        assert!(stop.load(Ordering::SeqCst), "p={p}: stop flag raised");

        let stop = AtomicBool::new(false);
        let run = run_scheduler(&SiteTask::default(), vec![0, 1], p, &stop, guarded());
        assert_eq!(run.outcome, RunOutcome::Completed, "p={p}");
        assert_eq!(run.units_executed, 2, "p={p}");
        assert_eq!(run.workers.len(), p, "p={p}");
        info
    }

    #[test]
    fn an_on_idle_panic_aborts_the_run() {
        // Whichever worker does not hold unit 1 idles and panics.
        let task = SiteTask {
            idle_panic: true,
            ..Default::default()
        };
        let info = abort_of(&task, 2);
        let idler = task.idler.load(Ordering::SeqCst);
        assert!(idler > 0, "no worker idled: {info}");
        assert_eq!((info.site, info.worker), ("<on-idle>", idler - 1), "{info}");
        assert!(info.payload.contains("idle worker fails"), "{info}");
    }

    #[test]
    fn a_worker_init_panic_on_worker_0_aborts_the_run() {
        let task = SiteTask {
            init_panic: Some(0),
            ..Default::default()
        };
        let info = abort_of(&task, 1);
        assert_eq!((info.site, info.worker), ("<worker-init>", 0), "{info}");
        assert!(info.payload.contains("worker 0 fails to start"), "{info}");
    }

    #[test]
    fn a_worker_init_panic_on_a_late_helper_aborts_the_run() {
        // Unit 0 outlasts the grace with unit 1 queued, so worker 1 is
        // spawned, and fails, mid-run.
        let task = SiteTask {
            init_panic: Some(1),
            ..Default::default()
        };
        let info = abort_of(&task, 2);
        assert_eq!((info.site, info.worker), ("<worker-init>", 1), "{info}");
        assert!(info.payload.contains("worker 1 fails to start"), "{info}");
    }
}
