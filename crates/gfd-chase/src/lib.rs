//! Chase-based baselines for GFD reasoning.
//!
//! The paper compares its algorithms against a chase implementation for
//! RDF FDs (`ParImpRDF`, Fig. 5 and Fig. 6(f)). This crate provides:
//!
//! * [`chase`] — the one naive round-based fixpoint chase
//!   ([`chase::dep_chase_with_config`]: no ordering, no inverted index,
//!   full re-scans) over generalized dependencies; each round's premise
//!   scan and apply-planning pass run as `gfd_runtime::Task`s on the
//!   shared work-stealing scheduler and report unified `RunMetrics`;
//! * [`imp_rdf::chase_imp`] — implication checking via that chase over a
//!   literal Σ;
//! * [`sat_chase::chase_sat`] — satisfiability via that chase over a
//!   literal Σ;
//! * [`rule`] — RDF triple-pattern FDs and their embedding into GFDs
//!   (GFDs subsume the constraints of Hellings et al., §VIII);
//! * [`ggd`] — reasoning over generalized dependency sets (GFDs + GGDs):
//!   literal-only sets route to the `gfd-core` driver, mixed sets to the
//!   chase, whose commit-in-order apply step materializes generating
//!   consequences under a fresh-node budget (DESIGN.md §10).

#![warn(missing_docs)]

pub mod chase;
pub mod ggd;
pub mod imp_rdf;
pub mod rule;
pub mod sat_chase;

pub use chase::{dep_chase_with_config, ChaseConfig, ChaseStats, DepChaseOutcome};
pub use ggd::{
    dep_imp, dep_imp_with_config, dep_sat, dep_sat_with_config, DepImpOutcome, DepImpResult,
    DepSatOutcome, DepSatResult,
};
pub use imp_rdf::{chase_imp, chase_imp_with_config, ChaseImpResult};
pub use rule::{RdfConstraint, RdfFd, TriplePattern};
pub use sat_chase::{chase_sat, chase_sat_with_config, ChaseSatResult};
