//! A mini concurrency model checker for the `gfd-runtime` quiescence
//! protocol (DESIGN.md §14).
//!
//! The scheduler's quiescence counter and stop flag (`Quiesce`) are
//! generic over the [`gfd_runtime::atomics::Atomics`] family. This
//! crate provides the second family, [`ModelAtomics`]: every load,
//! store and read-modify-write routes through a controlled interleaving
//! VM, turning the production source — unchanged — into a
//! model-checkable program. On top of the VM sit:
//!
//! * a deterministic interleaving explorer ([`explore`]):
//!   bounded-exhaustive DFS with a preemption bound, seeded PCT-style
//!   randomized scheduling, and exact replay of recorded schedules;
//! * a FastTrack-style vector-clock happens-before race detector over
//!   per-slot shadow memory ([`MSlot`], a model-only data cell),
//!   flagging unordered conflicting accesses and reads of
//!   never-written slots;
//! * checked [`scenarios`] porting the scheduler's quiescence split and
//!   stop-flag protocols, with user assertions checked on every
//!   explored schedule.
//!
//! Counterexamples print as deterministic replay traces
//! ([`Failure`]): the schedule string feeds [`Config::replay`] and is
//! checked in as a regression (`tests/regressions.rs`).
//!
//! The model executes schedules sequentially consistently and detects
//! weak-memory bugs through the happens-before relation the code's own
//! acquire/release annotations claim — see DESIGN.md §14.6 for what
//! that does and does not catch.

#![warn(missing_docs)]

pub mod clock;
mod explore;
pub mod scenarios;
mod shim;
mod vm;

pub use clock::Tid;
pub use explore::{explore, Config, Mode, Report};
pub use shim::{MAtomicUsize, MBool, MSlot, ModelAtomics};
pub use vm::{Env, Failure, FailureKind, Schedule, VJoin};
