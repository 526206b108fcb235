//! Property-graph substrate for GFD reasoning.
//!
//! This crate provides the data model of §II of *"Parallel Reasoning of
//! Graph Functional Dependencies"* (ICDE 2018):
//!
//! * directed graphs with labelled nodes/edges and attribute tuples
//!   ([`Graph`], [`Value`]);
//! * the frozen CSR topology with label-sorted adjacency the matching
//!   hot path probes ([`CsrTopology`], built by [`Graph::freeze`] and
//!   carried by every [`LabelIndex`] — see DESIGN.md §1);
//! * the shared topology-view abstraction ([`TopologyView`],
//!   [`MatchIndex`]) and the delta-CSR overlay for streaming updates
//!   ([`DeltaCsr`], [`DeltaIndex`], [`DeltaBatch`] — see DESIGN.md §8);
//! * graph patterns with wildcard labels ([`Pattern`]);
//! * interned vocabularies mapping names to dense ids ([`Vocab`]);
//! * strongly connected components ([`strongly_connected`]);
//! * small utilities: node bitsets and label indexes.
//!
//! Everything downstream (`gfd-match`, `gfd-core`, `gfd-detect`) works
//! purely on the integer ids defined here.

#![warn(missing_docs)]

pub mod csr;
pub mod delta;
pub mod graph;
pub mod ids;
pub mod interner;
pub mod nodeset;
pub mod pattern;
mod proptests;
pub mod scc;
pub mod value;
pub mod view;

pub use csr::CsrTopology;
pub use delta::{AppliedBatch, DeltaBatch, DeltaCsr, DeltaIndex, DeltaOp};
pub use graph::{Adj, Graph, LabelIndex};
pub use ids::{AttrId, GfdId, LabelId, NodeId, VarId};
pub use interner::{Interner, Vocab};
pub use nodeset::NodeSet;
pub use pattern::{Pattern, PatternEdge};
pub use scc::strongly_connected;
pub use value::{Value, ValueId, ValueTable};
pub use view::{Dir, MatchIndex, TopologyView};
