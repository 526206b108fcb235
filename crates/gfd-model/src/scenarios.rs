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

/// The quiescence split protocol: two workers drain a shared counter
/// "queue" seeded with one unit; whichever worker executes the seed
/// splits two child units into the queue through [`Quiesce::split`].
/// A worker that observes `quiescent()` asserts the exit licence: the
/// queue is empty and every created unit executed. The count-first
/// publication order in `split` is exactly what makes the licence
/// sound; `Weaken::QuiesceSplitPublish` flips it and an early-exit
/// schedule fires the assertion.
pub fn quiesce_split_protocol(env: &Env) {
    let q = Arc::new(Quiesce::<ModelAtomics>::new(1));
    let queue = Arc::new(MUsize::new(1));
    let executed = Arc::new(MUsize::new(0));
    let created = Arc::new(MUsize::new(1));
    let split_claim = Arc::new(MUsize::new(0));
    let mut workers = Vec::new();
    for _ in 0..2 {
        let q = Arc::clone(&q);
        let queue = Arc::clone(&queue);
        let executed = Arc::clone(&executed);
        let created = Arc::clone(&created);
        let split_claim = Arc::clone(&split_claim);
        workers.push(env.spawn(move || {
            for _ in 0..6 {
                if q.quiescent() {
                    // The exit licence: zero in-flight must mean no
                    // queued work and every created unit executed.
                    let queued = queue.load(SeqCst);
                    let done = executed.load(SeqCst);
                    let total = created.load(SeqCst);
                    assert!(
                        queued == 0 && done == total,
                        "early exit: queued={queued} executed={done} created={total}"
                    );
                    break;
                }
                let n = queue.load(SeqCst);
                if n > 0 && queue.compare_exchange(n, n - 1, SeqCst, SeqCst).is_ok() {
                    if split_claim.compare_exchange(0, 1, SeqCst, SeqCst).is_ok() {
                        // The seed unit splits into two children.
                        q.split(2, || {
                            queue.fetch_add(2, SeqCst);
                            created.fetch_add(2, SeqCst);
                        });
                    }
                    executed.fetch_add(1, SeqCst);
                    q.complete_one();
                }
            }
        }));
    }
    for w in workers {
        w.join();
    }
    assert_eq!(executed.load(SeqCst), 3);
    assert_eq!(queue.load(SeqCst), 0);
    assert!(q.quiescent());
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
