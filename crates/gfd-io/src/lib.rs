//! Graph input and run output formats for GFD reasoning.
//!
//! Three ways a graph and its updates enter or leave the system:
//!
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
//! Rule sets are read from the DSL in `gfd-dsl`; this crate covers the
//! graph-side and run-side formats.
//!
//! Dependency note (DESIGN.md §5): the workspace builds fully offline,
//! so JSON is hand-rolled in [`jsonval`]. Every JSON document the
//! workspace writes is a [`jsonval::Json`] tree printed by its one writer.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod deltalog;
pub mod edgelist;
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
