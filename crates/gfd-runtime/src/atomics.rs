//! The virtual-atomics family the quiescence protocol is generic over
//! (DESIGN.md §14).
//!
//! The quiescence protocol ([`crate::quiesce`]) does not name
//! `std::sync::atomic` types directly; it is generic over an [`Atomics`]
//! family. Production code instantiates [`StdAtomics`], whose associated
//! types *are* the std atomics and whose hook method is an inlined
//! constant — the monomorphized code is the hand-written original (the
//! `micro_structures` bench asserts this stays true). The `gfd-model`
//! crate provides a second family that routes every load, store and
//! read-modify-write through a controlled interleaving VM with a
//! happens-before race detector, turning the same source code into a
//! model-checkable program.
//!
//! One hook exists purely so the model build can *weaken* the
//! implementation on purpose and prove the checker catches the bug:
//! [`Atomics::weakened`] reorders a named protocol step. For
//! [`StdAtomics`] it is a `const`-foldable `false`, so production pays
//! nothing and cannot be weakened.

use std::sync::atomic::Ordering;

/// Named weakening knobs for the model build (DESIGN.md §14.5).
///
/// Each variant names one ordering or protocol decision the correctness
/// argument leans on. The model checker runs every checked scenario once
/// with no site weakened (expecting zero findings) and once per
/// deliberately weakened site (expecting a counterexample schedule) —
/// proving both that the code is right and that the checker has teeth.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Weaken {
    /// Reorder the quiescence split protocol: push the split units
    /// *before* raising the in-flight counter, so the counter can hit
    /// zero while split work is still queued.
    QuiesceSplitPublish,
}

/// `usize` atomics (the quiescence in-flight counter).
pub trait AtomicInt: Send + Sync {
    /// A fresh atomic holding `v`.
    fn new(v: usize) -> Self;
    /// Atomic load.
    fn load(&self, order: Ordering) -> usize;
    /// Compare-and-exchange; `Ok(previous)` on success.
    fn compare_exchange(
        &self,
        current: usize,
        new: usize,
        success: Ordering,
        failure: Ordering,
    ) -> Result<usize, usize>;
    /// Atomic add, returning the previous value.
    fn fetch_add(&self, v: usize, order: Ordering) -> usize;
    /// Atomic subtract, returning the previous value.
    fn fetch_sub(&self, v: usize, order: Ordering) -> usize;
}

/// Boolean flag atomics (the scheduler's stop flag).
pub trait AtomicFlag: Send + Sync {
    /// A fresh flag holding `v`.
    fn new(v: bool) -> Self;
    /// Atomic load.
    fn load(&self, order: Ordering) -> bool;
    /// Atomic store.
    fn store(&self, v: bool, order: Ordering);
}

/// An atomics family: the synchronization primitives the quiescence
/// protocol uses.
pub trait Atomics: Sized + 'static {
    /// `usize` atomics (quiescence in-flight counter).
    type Usize: AtomicInt;
    /// Boolean flag (stop/cancellation).
    type Bool: AtomicFlag;

    /// Is the named site deliberately weakened? Always `false` for
    /// production families; the model family consults its run
    /// configuration. Call sites use this to reorder a protocol step
    /// *only* under the model.
    #[inline(always)]
    fn weakened(_site: Weaken) -> bool {
        false
    }
}

/// The production family: `std::sync::atomic` everything, no weakening.
/// Monomorphizing the quiescence protocol over this family yields
/// exactly the hand-written code.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdAtomics;

impl AtomicInt for std::sync::atomic::AtomicUsize {
    #[inline(always)]
    fn new(v: usize) -> Self {
        std::sync::atomic::AtomicUsize::new(v)
    }
    #[inline(always)]
    fn load(&self, order: Ordering) -> usize {
        std::sync::atomic::AtomicUsize::load(self, order)
    }
    #[inline(always)]
    fn compare_exchange(
        &self,
        current: usize,
        new: usize,
        success: Ordering,
        failure: Ordering,
    ) -> Result<usize, usize> {
        std::sync::atomic::AtomicUsize::compare_exchange(self, current, new, success, failure)
    }
    #[inline(always)]
    fn fetch_add(&self, v: usize, order: Ordering) -> usize {
        std::sync::atomic::AtomicUsize::fetch_add(self, v, order)
    }
    #[inline(always)]
    fn fetch_sub(&self, v: usize, order: Ordering) -> usize {
        std::sync::atomic::AtomicUsize::fetch_sub(self, v, order)
    }
}

impl AtomicFlag for std::sync::atomic::AtomicBool {
    #[inline(always)]
    fn new(v: bool) -> Self {
        std::sync::atomic::AtomicBool::new(v)
    }
    #[inline(always)]
    fn load(&self, order: Ordering) -> bool {
        std::sync::atomic::AtomicBool::load(self, order)
    }
    #[inline(always)]
    fn store(&self, v: bool, order: Ordering) {
        std::sync::atomic::AtomicBool::store(self, v, order)
    }
}

impl Atomics for StdAtomics {
    type Usize = std::sync::atomic::AtomicUsize;
    type Bool = std::sync::atomic::AtomicBool;
}
