//! The model atomics family: [`ModelAtomics`] implements
//! [`gfd_runtime::atomics::Atomics`] by routing every load, store and
//! read-modify-write through the interleaving VM (DESIGN.md §14.2).
//! Instantiating `Quiesce<ModelAtomics>` turns the production source,
//! unchanged, into a model-checkable program. [`MSlot`] is a model-only
//! race-checked data cell scenarios use for plain (non-atomic) values.
//!
//! Values live in `UnsafeCell`s inside the shim types; the VM's
//! central mutex serializes every access (one virtual thread runs at a
//! time, and even abort-mode accesses take the lock), which is what
//! makes the pervasive `unsafe impl Send/Sync` below sound.

use crate::vm::{current, current_opt};
use gfd_runtime::atomics::{AtomicFlag, AtomicInt, Atomics, Weaken};
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::Ordering;

/// The VM-backed atomics family. Usable only on threads of a model
/// execution (the scenario root or [`crate::Env::spawn`]ed threads);
/// construction or access anywhere else panics.
#[derive(Debug, Default, Clone, Copy)]
pub struct ModelAtomics;

/// Model `AtomicUsize` (quiescence counter, scenario counters).
pub struct MAtomicUsize {
    id: usize,
    val: UnsafeCell<usize>,
}

// SAFETY: all access to `val` goes through the VM, which holds its
// central mutex for the duration of every read and write.
unsafe impl Send for MAtomicUsize {}
// SAFETY: as above — the VM serializes shared access.
unsafe impl Sync for MAtomicUsize {}

impl AtomicInt for MAtomicUsize {
    fn new(v: usize) -> Self {
        let (vm, _) = current();
        MAtomicUsize {
            id: vm.alloc_atomic(),
            val: UnsafeCell::new(v),
        }
    }
    fn load(&self, order: Ordering) -> usize {
        let (vm, tid) = current();
        vm.atomic_load(tid, self.id, &self.val, order)
    }
    fn compare_exchange(
        &self,
        current_v: usize,
        new: usize,
        success: Ordering,
        failure: Ordering,
    ) -> Result<usize, usize> {
        let (vm, tid) = current();
        vm.atomic_cas(tid, self.id, &self.val, current_v, new, success, failure)
    }
    fn fetch_add(&self, v: usize, order: Ordering) -> usize {
        let (vm, tid) = current();
        vm.atomic_rmw(tid, self.id, &self.val, order, "fetch_add", |old| {
            old.wrapping_add(v)
        })
    }
    fn fetch_sub(&self, v: usize, order: Ordering) -> usize {
        let (vm, tid) = current();
        vm.atomic_rmw(tid, self.id, &self.val, order, "fetch_sub", |old| {
            old.wrapping_sub(v)
        })
    }
}

/// Model `AtomicBool` (the stop flag).
pub struct MBool {
    id: usize,
    val: UnsafeCell<bool>,
}

// SAFETY: VM-serialized access (see module docs).
unsafe impl Send for MBool {}
// SAFETY: VM-serialized access (see module docs).
unsafe impl Sync for MBool {}

impl AtomicFlag for MBool {
    fn new(v: bool) -> Self {
        let (vm, _) = current();
        MBool {
            id: vm.alloc_atomic(),
            val: UnsafeCell::new(v),
        }
    }
    fn load(&self, order: Ordering) -> bool {
        let (vm, tid) = current();
        vm.atomic_load(tid, self.id, &self.val, order)
    }
    fn store(&self, v: bool, order: Ordering) {
        let (vm, tid) = current();
        vm.atomic_store(tid, self.id, &self.val, v, order)
    }
}

/// Model data slot: a `MaybeUninit` cell with VM shadow state
/// (initialized-ness, last-writer epoch, reader epochs). Every access
/// is race-checked: a read or write not ordered after a conflicting
/// access by happens-before, or a read of a never-written slot, fails
/// the execution.
pub struct MSlot<V> {
    id: usize,
    val: UnsafeCell<MaybeUninit<V>>,
}

// SAFETY: VM-serialized access (see module docs); `V: Send` because a
// slot transfers values between virtual threads.
unsafe impl<V: Send> Send for MSlot<V> {}
// SAFETY: as above.
unsafe impl<V: Send> Sync for MSlot<V> {}

impl<V> MSlot<V> {
    /// A fresh, uninitialized slot.
    pub fn vacant() -> Self {
        let (vm, _) = current();
        MSlot {
            id: vm.alloc_cell(),
            val: UnsafeCell::new(MaybeUninit::uninit()),
        }
    }

    /// Bitwise read of the slot. The VM fails the execution before the
    /// read when the slot was never written or the read races a write.
    ///
    /// # Safety
    /// The returned bit copy must be the value's only live owner (or be
    /// `mem::forget`-ten), and an aborting execution must only read
    /// slots it wrote.
    pub unsafe fn read(&self) -> V {
        let (vm, tid) = current();
        vm.cell_read(tid, self.id, &self.val)
    }

    /// Bitwise write; any previous content is overwritten without being
    /// dropped. The VM fails the execution when the write races an
    /// earlier read or write.
    pub fn write(&self, value: V) {
        let (vm, tid) = current();
        vm.cell_write(tid, self.id, &self.val, value)
    }
}

impl Atomics for ModelAtomics {
    type Usize = MAtomicUsize;
    type Bool = MBool;

    fn weakened(site: Weaken) -> bool {
        current_opt().is_some_and(|(vm, _)| vm.is_weakened(site))
    }
}
