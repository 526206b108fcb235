//! Incremental GFD violation detection for streaming graphs.
//!
//! The static pipeline (`gfd-detect`) assumes build → freeze → detect:
//! any topology change forces a full `Graph::freeze` plus a from-scratch
//! detection pass. This crate keeps a detection result **live** under a
//! stream of [`DeltaBatch`]es instead, exploiting the same data-locality
//! argument that makes pivoted work units correct (§V-B of the paper,
//! and parallel independence in attributed graph rewriting): a match
//! pivoted at `z` lives entirely within the pattern radius `dQ` of `z`,
//! so an update can only affect matches whose pivot lies within `dQ`
//! (undirected) hops of a node the update touched. Everything outside
//! that **dirty frontier** is carried over from the cached result.
//!
//! Per batch, [`IncrementalDetector::apply`]:
//!
//! 1. applies the batch to the builder graph and the
//!    [`gfd_graph::DeltaCsr`] overlay in lockstep (no re-freeze), and
//!    compacts — re-freezes base + delta — once the overlay passes a
//!    threshold fraction of the base;
//! 2. computes the dirty frontier — per pivot label, the nodes within
//!    its rules' radius of the touched nodes, by forward BFS levels that
//!    switch to searching back from rare pivots — and regenerates pivoted
//!    work units only for frontier pivots (rules with disconnected
//!    patterns fall back to a full per-rule re-run — no locality bound
//!    exists for them);
//! 3. runs the units as ordinary detection tasks on the shared
//!    `gfd-runtime` work-stealing scheduler, over the overlay view;
//! 4. evicts cached violations pivoted in the re-run region (read off
//!    the same distances) and merges in the fresh results.
//!
//! The result after every batch is **identical** to a full re-freeze +
//! [`gfd_detect::detect`] on the mutated graph (the
//! `incremental_equivalence` suite pins this), at a per-batch cost that
//! follows the dirty region and the pivot candidates near it rather than
//! the whole graph (the paper bench's `exp6_incremental` rows measure
//! the gap, in wall-clock). DESIGN.md §8 documents the lifecycle and the
//! frontier-soundness argument.

#![warn(missing_docs)]

pub mod detector;
pub mod frontier;

pub use detector::{BatchReport, IncrConfig, IncrementalDetector};
pub use gfd_graph::{DeltaBatch, DeltaOp};
