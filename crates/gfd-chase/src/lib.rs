//! Chase-based baselines for GFD reasoning.
//!
//! The paper compares its algorithms against a chase implementation for
//! RDF FDs (`ParImpRDF`, Fig. 5 and Fig. 6(f)). This crate provides:
//!
//! * [`chase`] — the one naive round-based fixpoint chase
//!   ([`chase::dep_chase_with_config`]: no ordering, no inverted index,
//!   every unfired premise match re-scanned every round — but each match
//!   enumerated once and each firing applied once) over a
//!   `gfd_core::DepSet`; each round is one scan — premise evaluation, and
//!   the realization check of every generating row that fires — run as a
//!   `gfd_runtime::Task` on the shared work-stealing scheduler and
//!   reporting unified `RunMetrics`, then a serial commit walk;
//! * [`imp_rdf::chase_imp`] — implication checking via that chase (the
//!   `ParImpRDF` baseline);
//! * [`sat_chase::chase_sat`] — satisfiability via that chase;
//! * [`ggd`] — reasoning over dependency sets that may generate (GFDs +
//!   GGDs): literal-only sets route to the `gfd-core` driver, mixed sets
//!   to the chase, whose commit-in-order apply step materializes
//!   generating consequences under a fresh-node budget (DESIGN.md §10).
//!
//! One result type per question, whichever door answered: [`DepSatResult`]
//! / [`DepImpResult`], whose `outcome` is `gfd-core`'s `SatOutcome` /
//! `ImpOutcome` — every cut-short run is an `Unknown(Interrupt)`.

#![warn(missing_docs)]

pub mod chase;
pub mod ggd;
pub mod imp_rdf;
pub mod sat_chase;

pub use chase::{dep_chase_with_config, ChaseConfig, ChaseStats, DepChaseOutcome};
pub use ggd::DepSatOutcome; // gfdbench-pin
pub use ggd::{
    dep_imp, dep_imp_with_config, dep_sat, dep_sat_with_config, DepImpResult, DepSatResult,
};
pub use imp_rdf::{chase_imp, chase_imp_with_config};
pub use sat_chase::{chase_sat, chase_sat_with_config};
