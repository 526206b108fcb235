//! Parallel GFD violation detection on data graphs.
//!
//! The paper's introduction motivates GFD reasoning with *inconsistency
//! detection*: GFDs mined from a knowledge base or social graph catch
//! semantic errors (ϕ1–ϕ4 of Example 1) when enforced against the data.
//! `gfd-core::validate` provides the sequential primitive; this crate is
//! the production engine a downstream user would actually run on a graph
//! with millions of nodes:
//!
//! * **pivoted work units** `(ϕ, z)` over the *data* graph — the same data
//!   locality argument as §V, applied to detection instead of reasoning;
//! * the shared `gfd-runtime` **work-stealing scheduler** (the same one
//!   `ParSat`/`ParImp` run on) for dynamic assignment and TTL-based unit
//!   splitting of stragglers;
//! * **early termination** once a configurable violation budget is hit;
//! * structured [`report::DetectionReport`]s with per-rule statistics and
//!   human-readable explanations;
//! * [`repair`] — minimal fix suggestions per violation (the "rule-based
//!   cleaning process" the paper's introduction refers to).

#![warn(missing_docs)]

pub mod detector;
mod proptests;
pub mod repair;
pub mod report;
pub mod units;

pub use detector::{detect, detect_units, DetectConfig};
pub use gfd_runtime::RunMetrics;
pub use repair::{suggest_repairs, Repair, RepairKind, RepairNode};
pub use report::{DetectionReport, RuleStats, ViolationRecord};
pub use units::{initial_units, units_for_pivots, RulePlans};
