//! Interchange formats for GFD reasoning.
//!
//! Four ways data and rules enter or leave the system:
//!
//! * [`json`] — a self-describing JSON representation of graphs and GFD
//!   sets (labels and attribute names as strings, resolved through a
//!   [`gfd_graph::Vocab`] on load). Stable across processes and languages;
//!   the natural export target for dashboards and notebooks.
//! * [`edgelist`] — SNAP-style whitespace-separated edge lists plus a
//!   simple node-table format. This is how the paper's datasets actually
//!   ship (Pokec is distributed as `soc-pokec-relationships.txt`), so a
//!   downstream user can load real data without writing a parser.
//! * [`deltalog`] — a replayable line-oriented stream of graph update
//!   batches, the wire form of `gfd detect --stream` and the `gfd-incr`
//!   engine.
//! * [`checkpoint`] — the resumable state of a streaming detection run
//!   (graph + violation cache + batch cursor), written atomically so a
//!   crash mid-write never loses the previous checkpoint.
//!
//! [`report`] writes the two documents a run exports for observability:
//! the Chrome trace-event timeline (`--trace FILE`) and the run report of
//! counters and aggregated profile (`--metrics-json FILE`).
//!
//! The DSL in `gfd-dsl` remains the *human-authored* format; this crate
//! covers the machine-interchange cases.
//!
//! Dependency note (DESIGN.md §5): the workspace builds fully offline,
//! so JSON is hand-rolled in [`jsonval`] — the wire format matches what
//! the earlier serde-based encoder produced. Every JSON document the
//! workspace writes is a [`jsonval::Json`] tree printed by its one writer.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod deltalog;
pub mod edgelist;
pub mod json;
pub mod jsonval;
mod proptests;
pub mod report;

pub use checkpoint::{
    checkpoint_to_string, load_checkpoint, parse_checkpoint, save_checkpoint, Checkpoint,
};
pub use deltalog::{
    delta_log_to_string, parse_delta_log, parse_delta_log_for, parse_delta_log_lenient,
    LenientParse,
};
pub use edgelist::{load_edge_list, load_node_table, EdgeListOptions};
pub use json::{graph_from_json, graph_to_json, sigma_from_json, sigma_to_json, JsonError};
