//! The checked scenarios: the scheduler's quiescence and stop-flag
//! protocols as small, bounded, assertion-carrying programs (DESIGN.md
//! §14.5).
//!
//! Every loop is bounded (fixed iteration caps) so
//! bounded-exhaustive exploration terminates; the scenario root keeps
//! its `Arc`s until after every virtual join, so destructors run with
//! fully joined clocks. Scenario-local result collection uses host
//! `std::sync::Mutex` — invisible to the model (no shadow state) and
//! already ordered by the VM's own serialization.

use crate::shim::{MSlot, ModelAtomics};
use crate::vm::Env;
use gfd_runtime::atomics::{AtomicFlag, AtomicInt, Atomics};
use gfd_runtime::quiesce::Quiesce;
use std::sync::atomic::Ordering::SeqCst;
use std::sync::{Arc, Mutex};

type MUsize = <ModelAtomics as Atomics>::Usize;
type MBool = <ModelAtomics as Atomics>::Bool;

/// The shared state of a split scenario: the quiescence counter, a
/// counter standing in for the queues, and the tallies the exit licence
/// reads.
#[derive(Clone)]
struct Units {
    q: Arc<Quiesce<ModelAtomics>>,
    queue: Arc<MUsize>,
    executed: Arc<MUsize>,
    created: Arc<MUsize>,
    split_claim: Arc<MUsize>,
}

impl Units {
    /// One seed unit, queued and counted.
    fn seeded() -> Self {
        Units {
            q: Arc::new(Quiesce::new(1)),
            queue: Arc::new(MUsize::new(1)),
            executed: Arc::new(MUsize::new(0)),
            created: Arc::new(MUsize::new(1)),
            split_claim: Arc::new(MUsize::new(0)),
        }
    }

    /// Take one queued unit, if any.
    fn claim(&self) -> bool {
        let n = self.queue.load(SeqCst);
        n > 0
            && self
                .queue
                .compare_exchange(n, n - 1, SeqCst, SeqCst)
                .is_ok()
    }

    /// Publish two children of the running unit through [`Quiesce::split`].
    fn split_two(&self) {
        self.q.split(2, || {
            self.queue.fetch_add(2, SeqCst);
            self.created.fetch_add(2, SeqCst);
        });
    }

    fn complete(&self) {
        self.executed.fetch_add(1, SeqCst);
        self.q.complete_one();
    }

    /// A worker's loop, at most six rounds: claim and run units, the
    /// first claimed anywhere splitting in two. A worker that observes
    /// `quiescent()` asserts the exit licence — zero in-flight must mean
    /// no queued work and every created unit executed — and exits.
    fn drain(&self) {
        for _ in 0..6 {
            if self.q.quiescent() {
                let queued = self.queue.load(SeqCst);
                let done = self.executed.load(SeqCst);
                let total = self.created.load(SeqCst);
                assert!(
                    queued == 0 && done == total,
                    "early exit: queued={queued} executed={done} created={total}"
                );
                break;
            }
            if self.claim() {
                if self
                    .split_claim
                    .compare_exchange(0, 1, SeqCst, SeqCst)
                    .is_ok()
                {
                    self.split_two();
                }
                self.complete();
            }
        }
    }

    /// After every worker joined: `n` units ran, none is left.
    fn assert_drained(&self, n: usize) {
        assert_eq!(self.executed.load(SeqCst), n);
        assert_eq!(self.queue.load(SeqCst), 0);
        assert!(self.q.quiescent());
    }
}

/// The quiescence split protocol: two workers drain a shared counter
/// "queue" seeded with one unit; whichever worker executes the seed
/// splits two child units into the queue through [`Quiesce::split`].
/// A worker that observes `quiescent()` asserts the exit licence: the
/// queue is empty and every created unit executed. The count-first
/// publication order in `split` is exactly what makes the licence
/// sound; `Weaken::QuiesceSplitPublish` flips it and an early-exit
/// schedule fires the assertion.
pub fn quiesce_split_protocol(env: &Env) {
    let units = Units::seeded();
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let units = units.clone();
            env.spawn(move || units.drain())
        })
        .collect();
    for w in workers {
        w.join();
    }
    units.assert_drained(3);
}

/// Workers on demand (DESIGN.md §7): worker 0 is the scenario's root,
/// the calling thread. Alone, it runs the seed unit, which splits two
/// children, and only then spawns its helper. Both drain the queue, and
/// the first child run splits two more. Every worker that observes
/// `quiescent()` asserts the exit licence, so the spawn must carry the
/// counts of the split made alone, and the split made after it must
/// publish count-first. `Weaken::QuiesceSplitPublish` flips that order
/// and an early-exit schedule fires the assertion.
pub fn late_helper_quiescence(env: &Env) {
    let units = Units::seeded();
    assert!(units.claim());
    units.split_two();
    units.complete();
    let helper = {
        let units = units.clone();
        env.spawn(move || units.drain())
    };
    units.drain();
    helper.join();
    units.assert_drained(5);
}

/// The cancellation handshake done right: the canceller writes its
/// verdict into a race-checked [`MSlot`], then raises the stop flag (SeqCst); the
/// worker polls the flag relaxed but never touches the verdict — the
/// root reads it only after joining both, through the join edges.
/// Explores cleanly: the relaxed poll is a latency hint, not a
/// synchronization edge, and nothing relies on it being one.
pub fn stop_flag_handshake(env: &Env) {
    let stop = Arc::new(MBool::new(false));
    let verdict = Arc::new(MSlot::<usize>::vacant());
    let s2 = Arc::clone(&stop);
    let worker = env.spawn(move || {
        for _ in 0..4 {
            if Quiesce::<ModelAtomics>::stop_requested(&s2) {
                break;
            }
        }
    });
    let (s3, v3) = (Arc::clone(&stop), Arc::clone(&verdict));
    let canceller = env.spawn(move || {
        // Written once, by us; the only read is the root's, ordered
        // after our exit by its join.
        v3.write(42);
        Quiesce::<ModelAtomics>::raise_stop(&s3);
    });
    worker.join();
    canceller.join();
    assert!(Quiesce::<ModelAtomics>::stop_requested(&stop));
    // SAFETY: written by the canceller, which we joined.
    let v = unsafe { verdict.read() };
    assert_eq!(v, 42);
}

/// The cancellation handshake done wrong: the worker reads the verdict
/// slot as soon as its *relaxed* stop poll returns true. The relaxed
/// load carries no acquire edge, so the read races with the
/// canceller's write — the detector flags exactly the bug that forced
/// the real scheduler to route verdicts through its mutex-protected
/// slot and thread joins instead of the stop flag.
pub fn stop_flag_poll_read(env: &Env) {
    let stop = Arc::new(MBool::new(false));
    let verdict = Arc::new(MSlot::<usize>::vacant());
    let observed = Arc::new(Mutex::new(None));
    let (s2, v2, o2) = (
        Arc::clone(&stop),
        Arc::clone(&verdict),
        Arc::clone(&observed),
    );
    let worker = env.spawn(move || {
        for _ in 0..4 {
            if Quiesce::<ModelAtomics>::stop_requested(&s2) {
                // BUG (deliberate): no acquire edge orders this read
                // after the canceller's write.
                // SAFETY (claimed): "the flag was true, so the write
                // happened" — value-wise true, ordering-wise false.
                let v = unsafe { v2.read() };
                *o2.lock().unwrap() = Some(v);
                break;
            }
        }
    });
    let (s3, v3) = (Arc::clone(&stop), Arc::clone(&verdict));
    let canceller = env.spawn(move || {
        v3.write(42); // single writer; see `stop_flag_handshake`
        Quiesce::<ModelAtomics>::raise_stop(&s3);
    });
    worker.join();
    canceller.join();
}
