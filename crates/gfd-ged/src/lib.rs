//! Graph entity dependencies (GEDs): the extension sketched in §IX of the
//! paper.
//!
//! A GED `ψ = Q[x̄](X → Y)` generalizes a GFD in three ways:
//!
//! 1. **id literals** `x.id = y.id` assert that two pattern variables
//!    denote the *same* node — equality-generating on entities rather than
//!    attribute values. Keys for graphs (recursively-defined keys) are GEDs
//!    whose consequence is an id literal.
//! 2. **built-in predicates**: attribute literals may compare with
//!    `=, ≠, <, ≤, >, ≥` instead of equality only.
//! 3. **disjunction**: the consequence may be a disjunction of conjunctions
//!    (DNF); a match satisfies it when at least one disjunct holds.
//!
//! The crate provides the GED model ([`ged`]), direct validation on data
//! graphs ([`validate`]), the constraint store generalizing `EqRel` with
//! node merging and order constraints ([`store`], [`order`]), satisfiability
//! and implication checking ([`sat`], [`imp`]), and entity resolution with
//! recursively-defined keys ([`keys`]).
//!
//! ## Scope note
//!
//! The reasoning procedures here are the natural generalization of the
//! paper's small-model algorithms: enforce GEDs over the canonical graph,
//! now with (a) node merging (id literals force a quotient of the canonical
//! graph, re-matched to a fixpoint, as in the GED chase of Fan & Lu,
//! PODS 2017), (b) an order-constraint network solved by SCC condensation,
//! and (c) backtracking over consequence disjuncts. Satisfiability remains
//! coNP — the branching search is exact, not heuristic.
//!
//! Both searches run as branch-and-bound [`gfd_runtime::Task`] workloads
//! on the shared work-stealing scheduler ([`driver`]): each open branch
//! is a work unit carrying its own copy-on-branch [`GedStore`], the stop
//! flag cancels the run on the first SAT witness (or first implication
//! counterexample), and TTL straggler splitting hands open branches to
//! idle workers. [`ged_sat`]/[`ged_implies`] are the `workers = 1`
//! instantiation; [`ged_sat_with_config`]/[`ged_implies_with_config`]
//! expose the worker count, TTL and branch budget, and report the
//! unified [`gfd_runtime::RunMetrics`].

#![warn(missing_docs)]

mod chase;
pub mod driver;
pub mod ged;
pub mod imp;
pub mod keys;
pub mod order;
mod proptests;
pub mod sat;
pub mod store;
pub mod validate;

pub use driver::{
    ged_implies_with_config, ged_sat_with_config, GedImpRun, GedReasonConfig, GedSatRun,
};
pub use ged::{CmpOp, Ged, GedLiteral, GedSet};
pub use imp::{ged_implies, GedImpOutcome};
pub use keys::{resolve_entities, AttrConflict, Key, ResolutionResult};
pub use order::{solve_integers, OrderConflict, OrderNet, OrderVar};
pub use sat::{ged_sat, GedSatOutcome};
pub use store::{GedStore, StoreConflict};
pub use validate::ged_graph_satisfies;
