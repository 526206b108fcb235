//! Graph functional dependencies: the core of the ICDE 2018 reproduction.
//!
//! A GFD `ϕ = Q[x̄](X → Y)` combines a topological constraint (the graph
//! pattern `Q`) with an attribute dependency (`X → Y` over the pattern
//! variables). This crate implements:
//!
//! * the one rule model ([`Dependency`], [`Literal`], [`DepSet`]: a GFD is
//!   a dependency whose [`Consequence`] is the literals `Y`, a GGD one
//!   that generates a target subgraph) and direct validation `G |= ϕ` on
//!   data graphs ([`validate`]);
//! * canonical graphs `GΣ` / `G^X_Q` — the small models of Theorems 1 and 3
//!   ([`canonical`]);
//! * the equivalence relation `Eq` with constant bindings, conflicts,
//!   watcher-based pending rechecks and replayable deltas ([`eq`]);
//! * the enforcement engine shared by every algorithm ([`enforce`]);
//! * the search-unit engine ([`engine`]) — the one scheduler `Task` that
//!   enumerates a unit's matches (per-worker `HomSearch` reuse, TTL
//!   slices, straggler splitting) for whatever *match-action* an analysis
//!   posts: enforcement here, violation recording in `gfd-detect`;
//! * the unified reasoning driver ([`driver`]) — the one goal-parameterized
//!   fixpoint loop, run on the `gfd-runtime` work-stealing scheduler, behind
//!   [`sat_with_config`] and [`imp_with_config`]: **ParSat**/**ParImp** at
//!   `workers = p`, **SeqSat** ([`seq_sat()`]) / **SeqImp** ([`seq_imp()`])
//!   at `workers = 1`;
//! * pivoted work units and their rule-level dependency order ([`mod@unit`]);
//! * model extraction ([`model`]).

#![warn(missing_docs)]

pub mod budget;
pub mod canonical;
pub mod dependency;
pub mod driver;
pub mod enforce;
pub mod engine;
pub mod eq;
pub mod error;
pub mod literal;
pub mod model;
pub mod seq_imp;
pub mod seq_sat;
pub mod unit;
pub mod validate;

pub use budget::{run_task, Budget, Interrupt, TaskRun};
pub use canonical::consequence_deducible; // gfdbench-pin
pub use canonical::{
    build_plans_lazy, choose_pivot, consequence_deducible_on, sigma_union, CanonicalGraph,
};
pub use dependency::{
    generate_deducible, Consequence, DepSet, Dependency, GenerateConsequence, FALSE_ATTR_NAME,
};
pub use dependency::{Gfd, GfdSet}; // gfdbench-pin
pub use driver::{run_reason, Goal, ReasonConfig, ReasonRun, TerminalEvent};
pub use enforce::{eval_premise, EnforceEngine, EngineStats, PremiseStatus};
pub use engine::{MatchAction, Members, SearchTask, SearchWorker, GROUP_WIDTH};
pub use eq::{EqOp, EqRel};
pub use error::{AttrKey, Conflict};
pub use literal::{Literal, Operand};
pub use model::extract_model; // gfdbench-pin
pub use model::populate_model;
pub use seq_imp::{imp_canonical, imp_with_config, seq_imp, ImpOutcome, ImpResult, ImpliedVia};
pub use seq_sat::{sat_with_config, seq_sat, SatOutcome, SatResult};
pub use unit::{generate_units, order_units, Prefix, WorkUnit};
pub use validate::{find_violations, graph_satisfies, graph_satisfies_all, Violation};
