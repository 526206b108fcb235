//! The interleaving VM: virtual threads, controlled scheduling, vector
//! clocks, shadow memory and the happens-before race detector
//! (DESIGN.md §14.2–§14.3).
//!
//! Every execution runs the scenario on real OS threads serialized by a
//! baton: exactly one virtual thread runs at a time, and every atomic
//! operation is a *schedule point* where a [`Controller`]
//! picks which thread holds the baton next. The executed interleaving
//! is therefore sequentially consistent; weak-memory bugs are caught
//! not by simulating reorderings but by a FastTrack-style
//! happens-before detector over the *claimed* synchronization: if the
//! code's acquire/release edges (as written, including any
//! deliberately weakened site) do not order two conflicting data-slot
//! accesses, the schedule that interleaves them is flagged as a data
//! race even though the SC execution read "correct" values.

use crate::clock::{Epoch, Tid, VClock};
use gfd_runtime::atomics::Weaken;
use std::any::Any;
use std::cell::{Cell, RefCell, UnsafeCell};
use std::fmt;
use std::mem::MaybeUninit;
use std::panic::{self, AssertUnwindSafe};
use std::str::FromStr;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once};

/// A recorded schedule: the sequence of baton passes (chosen thread
/// ids), one per schedule point. Replaying the same schedule on the
/// same scenario reproduces the same execution bit-for-bit.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Schedule(pub Vec<Tid>);

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for t in &self.0 {
            if !first {
                write!(f, ".")?;
            }
            write!(f, "{t}")?;
            first = false;
        }
        Ok(())
    }
}

impl FromStr for Schedule {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s.is_empty() {
            return Ok(Schedule(Vec::new()));
        }
        s.split('.')
            .map(|p| p.parse::<Tid>().map_err(|e| format!("bad tid {p:?}: {e}")))
            .collect::<Result<Vec<_>, _>>()
            .map(Schedule)
    }
}

/// What kind of property violation an exploration found.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// Two conflicting data-slot accesses with no happens-before edge.
    DataRace,
    /// A read of a slot no write ever initialized.
    UninitRead,
    /// A scenario `assert!` fired.
    Assertion,
    /// Every live virtual thread was blocked.
    Deadlock,
    /// The per-execution step budget was exhausted (livelock or an
    /// unbounded loop in the scenario).
    StepBudget,
    /// A replayed schedule chose a thread that was not enabled — the
    /// scenario or the checked code changed since the schedule was
    /// recorded.
    ReplayDivergence,
}

/// A counterexample: what went wrong, the deterministic replay
/// schedule that reaches it, and the full operation trace.
#[derive(Clone, Debug)]
pub struct Failure {
    /// The violated property.
    pub kind: FailureKind,
    /// Human-readable description of the violation.
    pub message: String,
    /// The schedule that deterministically reproduces it (pass to
    /// `Config::replay`).
    pub schedule: Schedule,
    /// The per-operation trace of the failing execution.
    pub trace: String,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:?}: {}", self.kind, self.message)?;
        writeln!(f, "replay schedule: {}", self.schedule)?;
        writeln!(f, "trace:")?;
        for line in self.trace.lines() {
            writeln!(f, "  {line}")?;
        }
        Ok(())
    }
}

/// A scheduling strategy: given the thread currently holding the baton
/// and the enabled set (sorted ascending), pick who runs next.
pub(crate) trait Controller: Send {
    fn choose(&mut self, current: Tid, enabled: &[Tid], preemptions: usize) -> Tid;
}

/// Panic payload used to unwind virtual threads when an execution
/// aborts (failure found elsewhere, or budget exhausted). Swallowed at
/// each thread's catch_unwind rim.
pub(crate) struct ModelAbort;

#[derive(Clone, Debug, PartialEq, Eq)]
enum TState {
    Runnable,
    Blocked(Tid),
    Finished,
}

struct ThreadEntry {
    state: TState,
    clock: VClock,
}

#[derive(Default)]
struct AtomicShadow {
    /// The clock an acquire load of this location joins: the release
    /// head's clock, maintained under pre-C++20 release-sequence rules
    /// (same-thread relaxed stores continue the sequence, other-thread
    /// relaxed stores break it; RMWs always continue it).
    sync: VClock,
    /// Which thread's release currently heads the sequence.
    rel_head: Option<Tid>,
}

#[derive(Default)]
struct CellShadow {
    init: bool,
    last_write: Option<Epoch>,
    reads: Vec<Epoch>,
}

struct Central {
    threads: Vec<ThreadEntry>,
    active: Tid,
    live: usize,
    abort: bool,
    failure: Option<Failure>,
    atomics: Vec<AtomicShadow>,
    cells: Vec<CellShadow>,
    /// The generous SeqCst clock: every SeqCst op joins it both
    /// ways, over-approximating the SC total order (DESIGN.md §14.6).
    sc: VClock,
    schedule: Vec<Tid>,
    trace: Vec<String>,
    steps: usize,
    preemptions: usize,
    controller: Box<dyn Controller>,
}

/// One model execution: the serialization baton, shadow state and
/// scheduling machinery shared by every virtual thread.
pub(crate) struct Vm {
    central: Mutex<Central>,
    cond: Condvar,
    weaken: Option<Weaken>,
    max_steps: usize,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Vm>, Tid)>> = const { RefCell::new(None) };
    static SUPPRESS: Cell<bool> = const { Cell::new(false) };
}

/// The VM and virtual tid of the calling OS thread. Panics when called
/// from outside a model run — model atomics only work under the VM.
pub(crate) fn current() -> (Arc<Vm>, Tid) {
    CURRENT
        .with(|c| c.borrow().clone())
        .expect("gfd-model atomics used outside a model run")
}

pub(crate) fn current_opt() -> Option<(Arc<Vm>, Tid)> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Install (once, process-wide) a panic hook that silences panics from
/// model threads: aborts and caught scenario assertions are recorded as
/// [`Failure`]s, not stderr noise. Non-model threads keep the previous
/// hook behavior.
fn install_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !SUPPRESS.with(|s| s.get()) {
                prev(info);
            }
        }));
    });
}

fn acquires(ord: Ordering) -> bool {
    matches!(ord, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

fn releases(ord: Ordering) -> bool {
    matches!(ord, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

impl Vm {
    pub(crate) fn new(
        weaken: Option<Weaken>,
        max_steps: usize,
        controller: Box<dyn Controller>,
    ) -> Arc<Vm> {
        Arc::new(Vm {
            central: Mutex::new(Central {
                threads: Vec::new(),
                active: 0,
                live: 0,
                abort: false,
                failure: None,
                atomics: Vec::new(),
                cells: Vec::new(),
                sc: VClock::new(),
                schedule: Vec::new(),
                trace: Vec::new(),
                steps: 0,
                preemptions: 0,
                controller,
            }),
            cond: Condvar::new(),
            weaken,
            max_steps,
            handles: Mutex::new(Vec::new()),
        })
    }

    pub(crate) fn is_weakened(&self, site: Weaken) -> bool {
        self.weaken == Some(site)
    }

    fn lock(&self) -> MutexGuard<'_, Central> {
        self.central.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn wait<'a>(&self, c: MutexGuard<'a, Central>) -> MutexGuard<'a, Central> {
        self.cond.wait(c).unwrap_or_else(|e| e.into_inner())
    }

    fn fail_locked(&self, c: &mut Central, kind: FailureKind, message: String) {
        if c.failure.is_none() {
            c.trace.push(format!("!! {kind:?}: {message}"));
            c.failure = Some(Failure {
                kind,
                message,
                schedule: Schedule(c.schedule.clone()),
                trace: c.trace.join("\n"),
            });
        }
        c.abort = true;
        self.cond.notify_all();
    }

    fn abort_now(&self, c: MutexGuard<'_, Central>) -> ! {
        drop(c);
        panic::panic_any(ModelAbort);
    }

    /// Make the next scheduling decision at a schedule point reached by
    /// `current`. Sets `active` and wakes the chosen thread.
    fn decide(&self, c: &mut Central, current: Tid) {
        let enabled: Vec<Tid> = c
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.state == TState::Runnable)
            .map(|(i, _)| i)
            .collect();
        if enabled.is_empty() {
            let live = c.live;
            self.fail_locked(
                c,
                FailureKind::Deadlock,
                format!("all {live} live threads blocked"),
            );
            return;
        }
        let pre = c.preemptions;
        let chosen = c.controller.choose(current, &enabled, pre);
        if !enabled.contains(&chosen) {
            self.fail_locked(
                c,
                FailureKind::ReplayDivergence,
                format!("schedule chose t{chosen} but enabled set is {enabled:?}"),
            );
            return;
        }
        if chosen != current && enabled.contains(&current) {
            c.preemptions += 1;
        }
        c.schedule.push(chosen);
        c.active = chosen;
        self.cond.notify_all();
    }

    /// The common schedule-point prologue for atomic ops:
    /// decide, park until chosen, charge the step budget. Returns the
    /// guard plus `raw = true` when the execution is aborting (the op
    /// should update the value and skip all model bookkeeping so
    /// unwinding destructors run cleanly).
    fn enter_op<'a>(&'a self, tid: Tid) -> (MutexGuard<'a, Central>, bool) {
        let mut c = self.lock();
        if c.abort {
            return (c, true);
        }
        self.decide(&mut c, tid);
        while c.active != tid && !c.abort {
            c = self.wait(c);
        }
        if c.abort {
            self.abort_now(c);
        }
        c.steps += 1;
        if c.steps > self.max_steps {
            let msg = format!(
                "step budget of {} exceeded (livelock or unbounded scenario loop)",
                self.max_steps
            );
            self.fail_locked(&mut c, FailureKind::StepBudget, msg);
            self.abort_now(c);
        }
        (c, false)
    }

    /// Join the generous SeqCst clock both ways (DESIGN.md §14.6).
    fn sc_join(&self, c: &mut Central, tid: Tid) {
        let s = c.sc.clone();
        c.threads[tid].clock.join(&s);
        let t = c.threads[tid].clock.clone();
        c.sc.join(&t);
    }

    // ---- shadow allocation -------------------------------------------------

    pub(crate) fn alloc_atomic(&self) -> usize {
        let mut c = self.lock();
        c.atomics.push(AtomicShadow::default());
        c.atomics.len() - 1
    }

    pub(crate) fn alloc_cell(&self) -> usize {
        let mut c = self.lock();
        c.cells.push(CellShadow::default());
        c.cells.len() - 1
    }

    // ---- atomic operations -------------------------------------------------

    pub(crate) fn atomic_load<V: Copy + fmt::Debug>(
        &self,
        tid: Tid,
        id: usize,
        val: &UnsafeCell<V>,
        ord: Ordering,
    ) -> V {
        let (mut c, raw) = self.enter_op(tid);
        // SAFETY: every access to a model value cell happens with the
        // central lock held; in normal mode the holder is additionally
        // the single active thread. No concurrent access exists.
        let v = unsafe { *val.get() };
        if !raw {
            if acquires(ord) {
                let sync = c.atomics[id].sync.clone();
                c.threads[tid].clock.join(&sync);
            }
            if ord == Ordering::SeqCst {
                self.sc_join(&mut c, tid);
            }
            c.threads[tid].clock.tick(tid);
            c.trace
                .push(format!("t{tid}: load a{id} ({ord:?}) -> {v:?}"));
        }
        v
    }

    pub(crate) fn atomic_store<V: Copy + fmt::Debug>(
        &self,
        tid: Tid,
        id: usize,
        val: &UnsafeCell<V>,
        v: V,
        ord: Ordering,
    ) {
        let (mut c, raw) = self.enter_op(tid);
        // SAFETY: serialized under the central lock (see atomic_load).
        unsafe { *val.get() = v };
        if !raw {
            if releases(ord) {
                c.atomics[id].sync = c.threads[tid].clock.clone();
                c.atomics[id].rel_head = Some(tid);
            } else if c.atomics[id].rel_head != Some(tid) {
                // A relaxed store by another thread breaks the release
                // sequence (pre-C++20 rules); by the head's own thread
                // it continues it, keeping `sync` as-is.
                c.atomics[id].sync = VClock::new();
                c.atomics[id].rel_head = None;
            }
            if ord == Ordering::SeqCst {
                self.sc_join(&mut c, tid);
            }
            c.threads[tid].clock.tick(tid);
            c.trace
                .push(format!("t{tid}: store a{id} = {v:?} ({ord:?})"));
        }
    }

    pub(crate) fn atomic_rmw<V: Copy + fmt::Debug>(
        &self,
        tid: Tid,
        id: usize,
        val: &UnsafeCell<V>,
        ord: Ordering,
        name: &str,
        apply: impl FnOnce(V) -> V,
    ) -> V {
        let (mut c, raw) = self.enter_op(tid);
        // SAFETY: serialized under the central lock (see atomic_load).
        let old = unsafe { *val.get() };
        let newv = apply(old);
        // SAFETY: as above.
        unsafe { *val.get() = newv };
        if !raw {
            self.rmw_edges(&mut c, tid, id, ord);
            c.threads[tid].clock.tick(tid);
            c.trace.push(format!(
                "t{tid}: {name} a{id}: {old:?} -> {newv:?} ({ord:?})"
            ));
        }
        old
    }

    /// Acquire/release edges of a successful read-modify-write. An RMW
    /// always continues the location's release sequence, so a release
    /// RMW *joins* its clock into `sync` instead of replacing it.
    fn rmw_edges(&self, c: &mut Central, tid: Tid, id: usize, ord: Ordering) {
        if acquires(ord) {
            let sync = c.atomics[id].sync.clone();
            c.threads[tid].clock.join(&sync);
        }
        if releases(ord) {
            let clk = c.threads[tid].clock.clone();
            c.atomics[id].sync.join(&clk);
            c.atomics[id].rel_head = Some(tid);
        }
        if ord == Ordering::SeqCst {
            self.sc_join(c, tid);
        }
    }

    #[allow(clippy::too_many_arguments)] // mirrors `compare_exchange`'s own arity
    pub(crate) fn atomic_cas<V: Copy + PartialEq + fmt::Debug>(
        &self,
        tid: Tid,
        id: usize,
        val: &UnsafeCell<V>,
        expect: V,
        newv: V,
        success: Ordering,
        failure: Ordering,
    ) -> Result<V, V> {
        let (mut c, raw) = self.enter_op(tid);
        // SAFETY: serialized under the central lock (see atomic_load).
        let old = unsafe { *val.get() };
        if old == expect {
            // SAFETY: as above.
            unsafe { *val.get() = newv };
            if !raw {
                self.rmw_edges(&mut c, tid, id, success);
                c.threads[tid].clock.tick(tid);
                c.trace.push(format!(
                    "t{tid}: cas a{id} {expect:?} -> {newv:?} ok ({success:?})"
                ));
            }
            Ok(old)
        } else {
            if !raw {
                if acquires(failure) {
                    let sync = c.atomics[id].sync.clone();
                    c.threads[tid].clock.join(&sync);
                }
                if failure == Ordering::SeqCst {
                    self.sc_join(&mut c, tid);
                }
                c.threads[tid].clock.tick(tid);
                c.trace.push(format!(
                    "t{tid}: cas a{id} {expect:?} -> {newv:?} failed, saw {old:?}"
                ));
            }
            Err(old)
        }
    }

    // ---- data-slot (non-atomic) operations ---------------------------------
    //
    // Slot accesses are not schedule points: they run atomically with
    // the preceding schedule point, which keeps the explored state
    // space focused on synchronization interleavings. The detector
    // still checks every access for happens-before ordering.

    pub(crate) fn cell_write<V>(
        &self,
        tid: Tid,
        id: usize,
        val: &UnsafeCell<MaybeUninit<V>>,
        v: V,
    ) {
        let mut c = self.lock();
        // SAFETY: serialized under the central lock; writing through
        // `MaybeUninit::write` never drops previous content (at worst a
        // previous value leaks).
        unsafe { (*val.get()).write(v) };
        if c.abort {
            return;
        }
        let clock = c.threads[tid].clock.clone();
        let racy = {
            let sh = &c.cells[id];
            let write_race = sh.last_write.filter(|&w| !clock.covers(w)).map(|w| {
                format!(
                    "write to c{id} by t{tid} races with write by t{} (epoch {}:{})",
                    w.0, w.0, w.1
                )
            });
            let read_race = sh.reads.iter().find(|&&r| !clock.covers(r)).map(|&r| {
                format!(
                    "write to c{id} by t{tid} races with read by t{} (epoch {}:{})",
                    r.0, r.0, r.1
                )
            });
            write_race.or(read_race)
        };
        if let Some(msg) = racy {
            self.fail_locked(&mut c, FailureKind::DataRace, msg);
            self.abort_now(c);
        }
        let e = c.threads[tid].clock.tick(tid);
        let sh = &mut c.cells[id];
        sh.last_write = Some((tid, e));
        sh.reads.clear();
        sh.init = true;
        c.trace.push(format!("t{tid}: write c{id}"));
    }

    pub(crate) fn cell_read<V>(&self, tid: Tid, id: usize, val: &UnsafeCell<MaybeUninit<V>>) -> V {
        let mut c = self.lock();
        if !c.abort {
            let clock = c.threads[tid].clock.clone();
            let (init, last_write) = {
                let sh = &c.cells[id];
                (sh.init, sh.last_write)
            };
            if !init {
                self.fail_locked(
                    &mut c,
                    FailureKind::UninitRead,
                    format!("t{tid} read uninitialized slot c{id}"),
                );
                self.abort_now(c);
            }
            if let Some(w) = last_write.filter(|&w| !clock.covers(w)) {
                self.fail_locked(
                    &mut c,
                    FailureKind::DataRace,
                    format!(
                        "read of c{id} by t{tid} races with write by t{} (epoch {}:{})",
                        w.0, w.0, w.1
                    ),
                );
                self.abort_now(c);
            }
            let e = c.threads[tid].clock.tick(tid);
            c.cells[id].reads.push((tid, e));
            c.trace.push(format!("t{tid}: read c{id}"));
        }
        // SAFETY: serialized under the central lock; initialization was
        // just verified (or, in abort mode, is the caller's contract —
        // an aborting execution only reads slots it wrote).
        unsafe { (*val.get()).assume_init_read() }
    }

    // ---- thread lifecycle --------------------------------------------------

    fn register_root(&self) {
        let mut c = self.lock();
        debug_assert!(c.threads.is_empty());
        let mut clock = VClock::new();
        clock.tick(0);
        c.threads.push(ThreadEntry {
            state: TState::Runnable,
            clock,
        });
        c.active = 0;
        c.live = 1;
    }

    pub(crate) fn spawn_virtual(
        self: &Arc<Self>,
        parent: Tid,
        f: Box<dyn FnOnce() + Send + 'static>,
    ) -> Tid {
        let tid = {
            let mut c = self.lock();
            let tid = c.threads.len();
            let mut clock = c.threads[parent].clock.clone();
            clock.tick(tid);
            c.threads.push(ThreadEntry {
                state: TState::Runnable,
                clock,
            });
            c.threads[parent].clock.tick(parent);
            c.live += 1;
            c.trace.push(format!("t{parent}: spawn t{tid}"));
            tid
        };
        let vm = Arc::clone(self);
        let h = std::thread::Builder::new()
            .name(format!("gfd-model-t{tid}"))
            .spawn(move || {
                install_hook();
                SUPPRESS.with(|s| s.set(true));
                CURRENT.with(|cur| *cur.borrow_mut() = Some((Arc::clone(&vm), tid)));
                let res = panic::catch_unwind(AssertUnwindSafe(|| {
                    vm.thread_start(tid);
                    f();
                }));
                if let Err(p) = res {
                    vm.user_panic(p);
                }
                vm.thread_exit(tid);
            })
            .expect("failed to spawn model thread");
        self.handles
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(h);
        tid
    }

    /// Park a freshly spawned thread until a decision hands it the
    /// baton for the first time.
    fn thread_start(&self, tid: Tid) {
        let mut c = self.lock();
        while c.active != tid && !c.abort {
            c = self.wait(c);
        }
        if c.abort {
            self.abort_now(c);
        }
    }

    pub(crate) fn thread_exit(&self, tid: Tid) {
        let mut c = self.lock();
        c.threads[tid].state = TState::Finished;
        c.live -= 1;
        for i in 0..c.threads.len() {
            if c.threads[i].state == TState::Blocked(tid) {
                c.threads[i].state = TState::Runnable;
            }
        }
        c.trace.push(format!("t{tid}: exit"));
        if c.live == 0 || c.abort {
            self.cond.notify_all();
            return;
        }
        self.decide(&mut c, tid);
    }

    pub(crate) fn join_virtual(&self, tid: Tid, target: Tid) {
        let mut c = self.lock();
        if c.abort {
            self.abort_now(c);
        }
        if c.threads[target].state != TState::Finished {
            c.threads[tid].state = TState::Blocked(target);
            c.trace.push(format!("t{tid}: blocked joining t{target}"));
            self.decide(&mut c, tid);
            while c.active != tid && !c.abort {
                c = self.wait(c);
            }
            if c.abort {
                self.abort_now(c);
            }
        }
        let tc = c.threads[target].clock.clone();
        c.threads[tid].clock.join(&tc);
        c.threads[tid].clock.tick(tid);
        c.trace.push(format!("t{tid}: join t{target}"));
    }

    fn user_panic(&self, p: Box<dyn Any + Send>) {
        if p.downcast_ref::<ModelAbort>().is_some() {
            return;
        }
        let msg = if let Some(s) = p.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = p.downcast_ref::<String>() {
            s.clone()
        } else {
            "panic with non-string payload".to_string()
        };
        let mut c = self.lock();
        self.fail_locked(&mut c, FailureKind::Assertion, msg);
    }
}

/// The scenario's handle to the VM: spawn virtual threads from it. The
/// model atomics themselves need no handle — they find the VM through
/// the executing thread.
pub struct Env {
    vm: Arc<Vm>,
}

impl Env {
    /// Spawn a virtual thread running `f`. Scheduling is entirely
    /// controlled: the child runs only when the explorer hands it the
    /// baton. Establishes the usual spawn happens-before edge.
    pub fn spawn(&self, f: impl FnOnce() + Send + 'static) -> VJoin {
        let (_, parent) = current();
        let target = self.vm.spawn_virtual(parent, Box::new(f));
        VJoin {
            vm: Arc::clone(&self.vm),
            target,
        }
    }
}

/// A virtual join handle: [`VJoin::join`] blocks the calling virtual
/// thread until the target finishes, with the usual join
/// happens-before edge.
pub struct VJoin {
    vm: Arc<Vm>,
    target: Tid,
}

impl VJoin {
    /// Wait (virtually) for the spawned thread to finish.
    pub fn join(self) {
        let (_, tid) = current();
        self.vm.join_virtual(tid, self.target);
    }
}

/// Run the scenario once under `controller`, to completion or abort,
/// and return its failure, if any. Joins every OS thread before
/// returning, so all destructors have run.
pub(crate) fn run_one(
    weaken: Option<Weaken>,
    max_steps: usize,
    controller: Box<dyn Controller>,
    scenario: Arc<dyn Fn(&Env) + Send + Sync>,
) -> Option<Failure> {
    let vm = Vm::new(weaken, max_steps, controller);
    vm.register_root();
    let v = Arc::clone(&vm);
    let root = std::thread::Builder::new()
        .name("gfd-model-t0".to_string())
        .spawn(move || {
            install_hook();
            SUPPRESS.with(|s| s.set(true));
            CURRENT.with(|cur| *cur.borrow_mut() = Some((Arc::clone(&v), 0)));
            let env = Env { vm: Arc::clone(&v) };
            let res = panic::catch_unwind(AssertUnwindSafe(|| scenario(&env)));
            if let Err(p) = res {
                v.user_panic(p);
            }
            v.thread_exit(0);
        })
        .expect("failed to spawn model root thread");
    {
        let mut c = vm.lock();
        while c.live > 0 {
            c = vm.wait(c);
        }
    }
    let _ = root.join();
    loop {
        let h = vm.handles.lock().unwrap_or_else(|e| e.into_inner()).pop();
        match h {
            Some(h) => {
                let _ = h.join();
            }
            None => break,
        }
    }
    let failure = vm.lock().failure.clone();
    failure
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_roundtrips_through_display() {
        let s = Schedule(vec![0, 1, 0, 2, 1]);
        let printed = s.to_string();
        assert_eq!(printed, "0.1.0.2.1");
        assert_eq!(printed.parse::<Schedule>().unwrap(), s);
        assert_eq!("".parse::<Schedule>().unwrap(), Schedule(Vec::new()));
        assert!("0.x.1".parse::<Schedule>().is_err());
    }

    #[test]
    fn failure_display_carries_the_replay_line() {
        let f = Failure {
            kind: FailureKind::DataRace,
            message: "write races with read".to_string(),
            schedule: Schedule(vec![0, 1, 1]),
            trace: "t0: store a0\nt1: read c1".to_string(),
        };
        let text = f.to_string();
        assert!(text.contains("replay schedule: 0.1.1"));
        assert!(text.contains("DataRace"));
        assert!(text.contains("  t1: read c1"));
    }
}
