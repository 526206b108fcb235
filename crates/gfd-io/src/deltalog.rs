//! The delta-log text format: a replayable stream of graph updates.
//!
//! The streaming detection pipeline (`gfd detect --stream`, the
//! `gfd-incr` engine) consumes batches of updates. This module gives
//! them a line-oriented interchange form, one update per line, batches
//! separated by `batch` headers:
//!
//! ```text
//! # comments and blank lines are ignored
//! batch
//! node person          # append a node; ids are assigned densely
//! edge 0 knows 7       # insert  src --label--> dst
//! del  2 livesIn 3     # delete  src --label--> dst
//! attr 4 name="bob"    # set an attribute (edge-list value syntax)
//! batch
//! attr 4 age=31
//! ```
//!
//! A quoted string spells `\`, `"` and newline as the DSL does (`\\`,
//! `\"`, `\n`), and a `#` inside quotes is part of the value.
//!
//! Node references are the dense ids of the target graph; `node` lines
//! create ids in order (`graph.node_count()` at replay time), so a log
//! can wire up nodes it created earlier — the same convention as
//! [`gfd_graph::DeltaBatch`]. A leading `batch` header is optional.

use crate::edgelist::{err, LoadError};
use gfd_graph::{DeltaBatch, DeltaOp, NodeId, Value, ValueId, Vocab};
use gfd_runtime::failpoint;
use std::fmt::Write as _;

/// Parse a node reference, rejecting anything that does not round-trip
/// through the dense `u32` id space: negatives and non-numbers fail the
/// integer parse, and ids at or above `u32::MAX` are rejected explicitly
/// (`u32::MAX` is reserved as a sentinel by several consumers) rather
/// than wrapped or debug-asserted away downstream.
pub(crate) fn parse_node(token: &str, line: usize) -> Result<NodeId, LoadError> {
    let id = token.parse::<u64>().map_err(|_| {
        err(
            line,
            format!("node id is not an unsigned integer: `{token}`"),
        )
    })?;
    if id >= u64::from(u32::MAX) {
        return Err(err(
            line,
            format!("node id {id} is out of range (node ids must fit in 32 bits)"),
        ));
    }
    Ok(NodeId::new(id as usize))
}

/// Parse a delta log into batches (labels and attribute names interned
/// through `vocab`, as everywhere else).
///
/// Node references are only checked for numeric range; use
/// [`parse_delta_log_for`] when the target graph is known, to also
/// reject references to nodes that will not exist at that point of the
/// replay.
pub fn parse_delta_log(src: &str, vocab: &mut Vocab) -> Result<Vec<DeltaBatch>, LoadError> {
    parse_inner(src, vocab, None, None).map(|p| p.batches)
}

/// Parse a delta log destined for a graph that currently has
/// `existing_nodes` nodes, rejecting — with the offending line number —
/// any op that refers to a node beyond the count the replay will have
/// reached by then (`existing_nodes` plus the `node` lines seen so far).
/// This is what `gfd detect --stream` uses: a typo'd id is a normal
/// input error, not a downstream panic or a silent out-of-range index.
pub fn parse_delta_log_for(
    src: &str,
    vocab: &mut Vocab,
    existing_nodes: usize,
) -> Result<Vec<DeltaBatch>, LoadError> {
    parse_inner(src, vocab, Some(existing_nodes), None).map(|p| p.batches)
}

/// What a lenient parse salvaged: the clean batches plus every line it
/// had to skip, with the reason.
#[derive(Debug)]
pub struct LenientParse {
    /// Batches assembled from the lines that parsed.
    pub batches: Vec<DeltaBatch>,
    /// `(line number, reason)` for each corrupt line dropped.
    pub skipped: Vec<(usize, String)>,
}

/// Parse a delta log, skipping corrupt lines instead of failing the
/// whole log (`gfd detect --stream --skip-corrupt`): a truncated or
/// garbled line — the usual tail damage of a log cut off mid-write — is
/// recorded in [`LenientParse::skipped`] and the replay continues with
/// the lines that survive. A skipped `node` line does not advance the
/// dense id counter, so later in-range references stay consistent with
/// what the replay will actually build.
pub fn parse_delta_log_lenient(
    src: &str,
    vocab: &mut Vocab,
    existing_nodes: Option<usize>,
) -> Result<LenientParse, LoadError> {
    let mut skipped = Vec::new();
    parse_inner(src, vocab, existing_nodes, Some(&mut skipped)).map(|mut p| {
        p.skipped = skipped;
        p
    })
}

/// One parsed line, validated but not yet applied — applying only after
/// full validation is what lets the lenient mode drop a line without
/// half of it having leaked into the current batch.
enum LineAction {
    NewBatch,
    Op(DeltaOp),
}

fn parse_line(
    tokens: &[String],
    vocab: &mut Vocab,
    known_nodes: Option<usize>,
    line_no: usize,
) -> Result<LineAction, LoadError> {
    let check_ref = |n: NodeId| -> Result<(), LoadError> {
        match known_nodes {
            Some(count) if n.index() >= count => Err(err(
                line_no,
                format!(
                    "refers to node {} but only {count} node(s) exist at this \
                     point of the log",
                    n.index()
                ),
            )),
            _ => Ok(()),
        }
    };
    let mut parts = tokens.iter().map(String::as_str);
    let keyword = parts.next().expect("non-empty line");
    let action = match keyword {
        "batch" => {
            if parts.next().is_some() {
                return Err(err(line_no, "`batch` takes no arguments"));
            }
            LineAction::NewBatch
        }
        "node" => {
            let label = parts
                .next()
                .ok_or_else(|| err(line_no, "expected `node LABEL`"))?;
            LineAction::Op(DeltaOp::AddNode {
                label: vocab.label(label),
            })
        }
        "edge" | "del" => {
            let (Some(s), Some(l), Some(d)) = (parts.next(), parts.next(), parts.next()) else {
                return Err(err(line_no, format!("expected `{keyword} SRC LABEL DST`")));
            };
            let src = parse_node(s, line_no)?;
            let dst = parse_node(d, line_no)?;
            check_ref(src)?;
            check_ref(dst)?;
            let label = vocab.label(l);
            LineAction::Op(if keyword == "edge" {
                DeltaOp::AddEdge { src, label, dst }
            } else {
                DeltaOp::DelEdge { src, label, dst }
            })
        }
        "attr" => {
            let (Some(n), Some(kv)) = (parts.next(), parts.next()) else {
                return Err(err(line_no, "expected `attr NODE name=value`"));
            };
            let node = parse_node(n, line_no)?;
            check_ref(node)?;
            let (name, value) = crate::edgelist::parse_attr(kv, line_no)?;
            LineAction::Op(DeltaOp::SetAttr {
                node,
                attr: vocab.attr(name),
                value,
            })
        }
        other => {
            return Err(err(
                line_no,
                format!("unknown delta keyword `{other}` (batch/node/edge/del/attr)"),
            ));
        }
    };
    if parts.next().is_some() {
        return Err(err(line_no, "trailing tokens on delta line"));
    }
    Ok(action)
}

fn parse_inner(
    src: &str,
    vocab: &mut Vocab,
    bound: Option<usize>,
    mut lenient: Option<&mut Vec<(usize, String)>>,
) -> Result<LenientParse, LoadError> {
    // The structured-error fault site of the log reader: an armed
    // failpoint models an unreadable log (I/O error, torn write) and
    // must surface as a normal LoadError, never a panic.
    if failpoint::triggered("io/deltalog") {
        return Err(err(0, "failpoint io/deltalog fired"));
    }
    let mut batches = Vec::new();
    let mut current = DeltaBatch::new();
    let mut started = false;
    // Nodes the replay target will have at this point of the log.
    let mut known_nodes = bound;
    for (i, raw) in src.lines().enumerate() {
        let line_no = i + 1;
        let tokens = crate::edgelist::tokenize(raw);
        if tokens.is_empty() {
            continue;
        }
        let action = match parse_line(&tokens, vocab, known_nodes, line_no) {
            Ok(action) => action,
            Err(e) => match lenient.as_deref_mut() {
                Some(skipped) => {
                    skipped.push((e.line, e.message));
                    continue;
                }
                None => return Err(e),
            },
        };
        match action {
            LineAction::NewBatch => {
                if started {
                    batches.push(std::mem::take(&mut current));
                }
            }
            LineAction::Op(op) => {
                if matches!(op, DeltaOp::AddNode { .. }) {
                    known_nodes = known_nodes.map(|n| n + 1);
                }
                current.ops.push(op);
            }
        }
        started = true;
    }
    if started {
        batches.push(current);
    }
    Ok(LenientParse {
        batches,
        skipped: Vec::new(),
    })
}

/// A value as the text formats spell it: a string is quoted, with `\`,
/// `"` and newline escaped as in the DSL.
pub(crate) fn fmt_value(value: ValueId) -> String {
    match value.resolve() {
        Value::Int(i) => i.to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Str(s) => {
            let escaped = s
                .replace('\\', "\\\\")
                .replace('"', "\\\"")
                .replace('\n', "\\n");
            format!("\"{escaped}\"")
        }
    }
}

/// Render batches back into the text form [`parse_delta_log`] reads.
pub fn delta_log_to_string(batches: &[DeltaBatch], vocab: &Vocab) -> String {
    let mut out = String::new();
    for batch in batches {
        out.push_str("batch\n");
        for op in &batch.ops {
            match op {
                DeltaOp::AddNode { label } => {
                    let _ = writeln!(out, "node {}", vocab.label_name(*label));
                }
                DeltaOp::AddEdge { src, label, dst } => {
                    let _ = writeln!(
                        out,
                        "edge {} {} {}",
                        src.index(),
                        vocab.label_name(*label),
                        dst.index()
                    );
                }
                DeltaOp::DelEdge { src, label, dst } => {
                    let _ = writeln!(
                        out,
                        "del {} {} {}",
                        src.index(),
                        vocab.label_name(*label),
                        dst.index()
                    );
                }
                DeltaOp::SetAttr { node, attr, value } => {
                    let _ = writeln!(
                        out,
                        "attr {} {}={}",
                        node.index(),
                        vocab.attr_name(*attr),
                        fmt_value(*value)
                    );
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_batches_and_ops() {
        let mut vocab = Vocab::new();
        let src = "\
# a two-batch log
batch
node person
edge 0 knows 7   # wire it up
del 2 livesIn 3
attr 4 name=\"bob lee\"
batch
attr 4 age=31
attr 4 verified=true
";
        let batches = parse_delta_log(src, &mut vocab).expect("parses");
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].len(), 4);
        assert_eq!(batches[1].len(), 2);
        assert_eq!(
            batches[0].ops[0],
            DeltaOp::AddNode {
                label: vocab.label("person")
            }
        );
        assert_eq!(
            batches[0].ops[3],
            DeltaOp::SetAttr {
                node: NodeId::new(4),
                attr: vocab.attr("name"),
                value: ValueId::of("bob lee"),
            }
        );
        assert_eq!(
            batches[1].ops[1],
            DeltaOp::SetAttr {
                node: NodeId::new(4),
                attr: vocab.attr("verified"),
                value: ValueId::of(true),
            }
        );
    }

    /// The ingest-dedup regression (DESIGN.md §15): a log that repeats
    /// the same string literal must hit one shared [`ValueTable`] entry
    /// per distinct string, not allocate a fresh `Arc<str>` per
    /// occurrence — every occurrence resolves to the *same* raw id, and
    /// replaying the log again mints no new ids.
    #[test]
    fn repetitive_log_interns_each_string_once() {
        use gfd_graph::ValueTable;
        // Process-unique payloads: the table is global and other tests
        // intern concurrently, so assertions ride on id identity, never
        // on absolute table counts.
        let city = "dedup-test-city-§1";
        let name = "dedup-test-name-§1";
        let mut src = String::from("batch\n");
        for i in 0..50 {
            src.push_str(&format!("node person\nattr {i} city=\"{city}\"\n"));
            src.push_str(&format!("attr {i} name=\"{name}\"\n"));
        }
        let mut vocab = Vocab::new();
        assert_eq!(ValueTable::lookup_str(city), None, "unique payload leaked");
        let batches = parse_delta_log(&src, &mut vocab).expect("parses");
        let ids: Vec<ValueId> = batches[0]
            .ops
            .iter()
            .filter_map(|op| match op {
                DeltaOp::SetAttr { value, .. } => Some(*value),
                _ => None,
            })
            .collect();
        assert_eq!(ids.len(), 100);
        let distinct: std::collections::BTreeSet<u32> = ids.iter().map(|v| v.raw()).collect();
        assert_eq!(distinct.len(), 2, "two distinct strings, two table entries");
        assert_eq!(ValueTable::lookup_str(city), Some(ValueId::of(city)));
        // A second replay resolves to the very same ids: the table is
        // append-only and deduplicating, so repeated ingest is free.
        let again = parse_delta_log(&src, &mut vocab).expect("parses");
        assert_eq!(batches, again);
    }

    #[test]
    fn leading_batch_header_is_optional() {
        let mut vocab = Vocab::new();
        let batches = parse_delta_log("edge 0 e 1\nbatch\ndel 0 e 1\n", &mut vocab).unwrap();
        assert_eq!(batches.len(), 2);
    }

    #[test]
    fn empty_log_has_no_batches() {
        let mut vocab = Vocab::new();
        assert!(parse_delta_log("# nothing\n\n", &mut vocab)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn round_trips_through_text() {
        let mut vocab = Vocab::new();
        let mut b0 = DeltaBatch::new();
        b0.add_node(vocab.label("t"));
        b0.add_edge(NodeId::new(3), vocab.label("e"), NodeId::new(0));
        b0.del_edge(NodeId::new(1), vocab.label("e"), NodeId::new(2));
        b0.set_attr(NodeId::new(0), vocab.attr("a"), Value::Int(-4));
        let mut b1 = DeltaBatch::new();
        b1.set_attr(NodeId::new(2), vocab.attr("s"), Value::str("x y"));
        let batches = vec![b0, b1];
        let text = delta_log_to_string(&batches, &vocab);
        let reparsed = parse_delta_log(&text, &mut vocab).expect("round-trip parses");
        assert_eq!(batches, reparsed);
    }

    /// A `#` inside a quoted value is part of the value, not a comment.
    #[test]
    fn hash_inside_quotes_round_trips() {
        let mut vocab = Vocab::new();
        let mut batch = DeltaBatch::new();
        batch.add_node(vocab.label("t"));
        for (i, s) in ["a#b", "#", "x # y", "#lead"].into_iter().enumerate() {
            batch.set_attr(NodeId::new(0), vocab.attr(&format!("a{i}")), Value::str(s));
        }
        let batches = vec![batch];
        let text = delta_log_to_string(&batches, &vocab);
        assert!(text.contains("a0=\"a#b\""), "{text}");
        let reparsed = parse_delta_log_for(&text, &mut vocab, 0).expect("round-trip parses");
        assert_eq!(reparsed, batches);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let mut vocab = Vocab::new();
        let e = parse_delta_log("batch\nfrob 1 2 3\n", &mut vocab).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("frob"));
        let e = parse_delta_log("edge 0 e\n", &mut vocab).unwrap_err();
        assert_eq!(e.line, 1);
        let e = parse_delta_log("attr x name=1\n", &mut vocab).unwrap_err();
        assert!(e.to_string().contains("not an unsigned integer"));
    }

    #[test]
    fn out_of_u32_range_ids_are_rejected_not_wrapped() {
        let mut vocab = Vocab::new();
        // u32::MAX is the reserved sentinel; anything ≥ it must fail.
        for bad in ["4294967295", "4294967296", "99999999999999999999"] {
            let src = format!("edge {bad} e 0\n");
            let e = parse_delta_log(&src, &mut vocab).unwrap_err();
            assert_eq!(e.line, 1, "{bad}");
            assert!(
                e.to_string().contains("out of range") || e.to_string().contains("unsigned"),
                "{bad}: {e}"
            );
        }
        // Negative ids fail the unsigned parse, with the line number.
        let e = parse_delta_log("batch\nattr -3 a=1\n", &mut vocab).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("unsigned"), "{e}");
        // A large but in-range id is fine without a bound.
        assert!(parse_delta_log("edge 4294967293 e 0\n", &mut vocab).is_ok());
    }

    #[test]
    fn bounded_parse_rejects_forward_references() {
        let mut vocab = Vocab::new();
        // Graph has 2 nodes; node 2 does not exist yet on line 1.
        let e = parse_delta_log_for("edge 0 e 2\n", &mut vocab, 2).unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.to_string().contains("refers to node 2"), "{e}");
        assert!(e.to_string().contains("2 node(s) exist"), "{e}");

        // After a `node` line the same reference is legal, including
        // within the same batch; the next id past it is not.
        let ok = parse_delta_log_for("node t\nedge 0 e 2\nattr 2 a=1\n", &mut vocab, 2);
        assert!(ok.is_ok());
        let e = parse_delta_log_for("node t\ndel 3 e 0\n", &mut vocab, 2).unwrap_err();
        assert_eq!(e.line, 2);

        // Attr writes are checked too.
        let e = parse_delta_log_for("attr 7 a=1\n", &mut vocab, 3).unwrap_err();
        assert!(e.to_string().contains("refers to node 7"), "{e}");

        // The unbounded parser accepts the same text (round-trip use).
        assert!(parse_delta_log("edge 0 e 2\n", &mut vocab).is_ok());
    }

    #[test]
    fn lenient_parse_skips_corrupt_lines_with_reasons() {
        let mut vocab = Vocab::new();
        let src = "batch\nnode a\nedge 0 e\nnode b\nbogus 1 2\nedge 0 e 1\n";
        let p = parse_delta_log_lenient(src, &mut vocab, None).unwrap();
        assert_eq!(p.batches.len(), 1);
        assert_eq!(p.batches[0].ops.len(), 3, "two nodes + the good edge");
        assert_eq!(p.skipped.len(), 2);
        assert_eq!(p.skipped[0].0, 3);
        assert!(p.skipped[0].1.contains("expected `edge"), "{:?}", p.skipped);
        assert_eq!(p.skipped[1].0, 5);
        assert!(p.skipped[1].1.contains("bogus"), "{:?}", p.skipped);
        // The strict parser rejects the same text at the first bad line.
        let e = parse_delta_log(src, &mut vocab).unwrap_err();
        assert_eq!(e.line, 3);
    }

    #[test]
    fn lenient_skipped_node_does_not_advance_the_id_counter() {
        let mut vocab = Vocab::new();
        // Line 2's node is corrupt (trailing junk after the op). With 1
        // existing node, the replay target will only ever have node 1
        // from line 3 — so `attr 2` must be skipped as out of range,
        // not accepted against a phantom id.
        let src = "batch\nnode a extra junk\nnode b\nattr 2 x=1\nattr 1 x=1\n";
        let p = parse_delta_log_lenient(src, &mut vocab, Some(1)).unwrap();
        assert_eq!(p.skipped.len(), 2, "{:?}", p.skipped);
        assert_eq!(p.skipped[0].0, 2);
        assert_eq!(p.skipped[1].0, 4);
        assert!(
            p.skipped[1].1.contains("refers to node 2"),
            "{:?}",
            p.skipped
        );
        assert_eq!(p.batches[0].ops.len(), 2, "node b + attr 1");
    }

    #[test]
    fn lenient_on_clean_input_matches_strict() {
        let mut vocab = Vocab::new();
        let src = "batch\nnode a\nedge 0 e 0\nbatch\nattr 0 k=\"v\"\n";
        let strict = parse_delta_log(src, &mut vocab).unwrap();
        let lenient = parse_delta_log_lenient(src, &mut vocab, None).unwrap();
        assert!(lenient.skipped.is_empty());
        assert_eq!(strict.len(), lenient.batches.len());
        for (a, b) in strict.iter().zip(&lenient.batches) {
            assert_eq!(a.ops, b.ops);
        }
    }
}
