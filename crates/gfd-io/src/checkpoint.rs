//! Checkpoint/resume for the streaming detector (DESIGN.md §11.4).
//!
//! A checkpoint captures everything `gfd detect --stream` needs to pick
//! up after a crash: the graph as of the last applied batch, the
//! violation cache, and the batch cursor. The file is **self-contained**
//! — labels and attributes are written as name strings, not interned
//! ids — so a resuming process with a freshly built `Vocab` reads it
//! without replaying the delta log from the start. The overlay is *not*
//! serialized: resuming rebuilds the index from the checkpointed graph
//! (`IncrementalDetector::from_parts`), which doubles as a compaction.
//!
//! Format (`GFDCKPT v1`, line-oriented, same tokenizer as the delta
//! log):
//!
//! ```text
//! GFDCKPT v1
//! cursor 7                  # batches already applied
//! value "ada"               # distinct attr values, first-touch order
//! node Person               # one per node, in dense-id order
//! attr 0 name="ada"
//! edge 0 knows 1
//! viol 2 3 0 5 9 2 1 4      # gfd, |m|, m..., |failed|, failed...
//! end                       # torn writes are detected by its absence
//! ```
//!
//! The `value` section persists the checkpoint's slice of the global
//! `ValueTable` in a deterministic order (first touch over dense node
//! order). Ids are never written — re-interning the lines in order on
//! load reproduces the writer's *relative* id order in the resuming
//! process, so id-keyed state rebuilds identically after the interning
//! change (DESIGN.md §15). The section is optional on read, keeping
//! pre-interning v1 checkpoints loadable.
//!
//! [`save_checkpoint`] writes to a temporary sibling and renames it into
//! place, so a crash mid-write leaves the previous checkpoint intact —
//! the property the crash-recovery test in `tests/fault_injection.rs`
//! relies on.

use crate::edgelist::{err, LoadError};
use gfd_detect::ViolationRecord;
use gfd_graph::{Graph, NodeId, Vocab};
use std::fmt::Write as _;
use std::path::Path;

/// The first line of every checkpoint file; bump the version when the
/// format changes incompatibly.
const HEADER: &str = "GFDCKPT v1";

/// Resumable state of a streaming detection run.
#[derive(Debug)]
pub struct Checkpoint {
    /// Number of delta batches already applied (and detected against);
    /// resume starts replaying at this batch index.
    pub batches_applied: usize,
    /// The graph as of the last applied batch.
    pub graph: Graph,
    /// The violation cache at the cursor, sorted by `(gfd, m)`.
    pub violations: Vec<ViolationRecord>,
}

/// Render a checkpoint into its text form.
pub fn checkpoint_to_string(ckpt: &Checkpoint, vocab: &Vocab) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{HEADER}");
    let _ = writeln!(out, "cursor {}", ckpt.batches_applied);
    // Distinct attribute values in first-touch order; see the module
    // docs for why the order (not the ids) is what gets persisted.
    let mut seen = std::collections::BTreeSet::new();
    for n in ckpt.graph.nodes() {
        for (_, value) in ckpt.graph.attrs(n) {
            if seen.insert(value.raw()) {
                let _ = writeln!(out, "value {}", crate::deltalog::fmt_value(value));
            }
        }
    }
    for n in ckpt.graph.nodes() {
        let _ = writeln!(out, "node {}", vocab.label_name(ckpt.graph.label(n)));
    }
    for n in ckpt.graph.nodes() {
        for (attr, value) in ckpt.graph.attrs(n) {
            let _ = writeln!(
                out,
                "attr {} {}={}",
                n.index(),
                vocab.attr_name(attr),
                crate::deltalog::fmt_value(value)
            );
        }
    }
    for (src, label, dst) in ckpt.graph.edges() {
        let _ = writeln!(
            out,
            "edge {} {} {}",
            src.index(),
            vocab.label_name(label),
            dst.index()
        );
    }
    for v in &ckpt.violations {
        let _ = write!(out, "viol {} {}", v.gfd.index(), v.m.len());
        for n in v.m.iter() {
            let _ = write!(out, " {}", n.index());
        }
        let _ = write!(out, " {}", v.failed.len());
        for f in &v.failed {
            let _ = write!(out, " {f}");
        }
        out.push('\n');
    }
    out.push_str("end\n");
    out
}

/// Parse a checkpoint produced by [`checkpoint_to_string`]. Fails with a
/// line-numbered error on any damage, including a missing `end` marker
/// (a torn write).
pub fn parse_checkpoint(src: &str, vocab: &mut Vocab) -> Result<Checkpoint, LoadError> {
    let mut lines = src.lines().enumerate().map(|(i, l)| (i + 1, l.trim()));
    let (line_no, first) = lines
        .next()
        .ok_or_else(|| err(0, "empty checkpoint file"))?;
    if first != HEADER {
        return Err(err(line_no, format!("expected `{HEADER}` header")));
    }

    let mut cursor: Option<usize> = None;
    let mut graph = Graph::new();
    let mut violations = Vec::new();
    let mut ended = false;
    for (line_no, line) in lines {
        let tokens = crate::edgelist::tokenize(line);
        if tokens.is_empty() {
            continue;
        }
        if ended {
            return Err(err(line_no, "content after `end` marker"));
        }
        let mut parts = tokens.iter().map(String::as_str);
        let keyword = parts.next().expect("non-empty line");
        let parse_usize = |tok: Option<&str>, what: &str| -> Result<usize, LoadError> {
            tok.ok_or_else(|| err(line_no, format!("missing {what}")))?
                .parse::<usize>()
                .map_err(|_| err(line_no, format!("bad {what}")))
        };
        match keyword {
            "cursor" => {
                if cursor.is_some() {
                    return Err(err(line_no, "duplicate `cursor` line"));
                }
                cursor = Some(parse_usize(parts.next(), "batch cursor")?);
            }
            "value" => {
                let tok = parts
                    .next()
                    .ok_or_else(|| err(line_no, "expected `value VALUE`"))?;
                // Re-intern in writer order: the ids themselves are not
                // persisted, but dedup makes in-order re-interning
                // reproduce the writer's relative table order before any
                // `attr` line interns out of sequence.
                let _ = crate::edgelist::parse_value(tok);
            }
            "node" => {
                let label = parts
                    .next()
                    .ok_or_else(|| err(line_no, "expected `node LABEL`"))?;
                graph.add_node(vocab.label(label));
            }
            "attr" => {
                let (Some(n), Some(kv)) = (parts.next(), parts.next()) else {
                    return Err(err(line_no, "expected `attr NODE name=value`"));
                };
                let node = crate::deltalog::parse_node(n, line_no)?;
                if node.index() >= graph.node_count() {
                    return Err(err(line_no, format!("attr on unknown node {n}")));
                }
                let (name, value) = crate::edgelist::parse_attr(kv, line_no)?;
                graph.set_attr_id(node, vocab.attr(name), value);
            }
            "edge" => {
                let (Some(s), Some(l), Some(d)) = (parts.next(), parts.next(), parts.next()) else {
                    return Err(err(line_no, "expected `edge SRC LABEL DST`"));
                };
                let src = crate::deltalog::parse_node(s, line_no)?;
                let dst = crate::deltalog::parse_node(d, line_no)?;
                if src.index() >= graph.node_count() || dst.index() >= graph.node_count() {
                    return Err(err(line_no, "edge endpoint out of range"));
                }
                graph.add_edge(src, vocab.label(l), dst);
            }
            "viol" => {
                let gfd = parse_usize(parts.next(), "gfd index")?;
                let m_len = parse_usize(parts.next(), "match arity")?;
                let mut m = Vec::with_capacity(m_len);
                for _ in 0..m_len {
                    let n = parse_usize(parts.next(), "match node")?;
                    if n >= graph.node_count() {
                        return Err(err(line_no, format!("match node {n} out of range")));
                    }
                    m.push(NodeId::new(n));
                }
                let f_len = parse_usize(parts.next(), "failed-literal count")?;
                let mut failed = Vec::with_capacity(f_len);
                for _ in 0..f_len {
                    failed.push(parse_usize(parts.next(), "failed-literal index")?);
                }
                violations.push(ViolationRecord {
                    gfd: gfd_graph::GfdId::new(gfd),
                    m: m.into_boxed_slice(),
                    failed,
                });
            }
            "end" => {
                ended = true;
            }
            other => {
                return Err(err(
                    line_no,
                    format!("unknown checkpoint keyword `{other}`"),
                ));
            }
        }
        if parts.next().is_some() {
            return Err(err(line_no, "trailing tokens on checkpoint line"));
        }
    }
    if !ended {
        return Err(err(0, "missing `end` marker (truncated checkpoint?)"));
    }
    let batches_applied = cursor.ok_or_else(|| err(0, "missing `cursor` line"))?;
    Ok(Checkpoint {
        batches_applied,
        graph,
        violations,
    })
}

/// Write a checkpoint atomically: to `<path>.tmp` first, then rename
/// into place, so a crash mid-write never clobbers the previous
/// checkpoint.
pub fn save_checkpoint(path: &Path, ckpt: &Checkpoint, vocab: &Vocab) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, checkpoint_to_string(ckpt, vocab))?;
    std::fs::rename(&tmp, path)
}

/// Read and parse a checkpoint file; I/O failures surface as a
/// `line: 0` [`LoadError`] so callers have one error path.
pub fn load_checkpoint(path: &Path, vocab: &mut Vocab) -> Result<Checkpoint, LoadError> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| err(0, format!("cannot read {}: {e}", path.display())))?;
    parse_checkpoint(&src, vocab)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_graph::{GfdId, Value};

    fn sample(vocab: &mut Vocab) -> Checkpoint {
        let mut g = Graph::new();
        let person = vocab.label("Person");
        let city = vocab.label("City");
        let a = g.add_node(person);
        let b = g.add_node(person);
        let c = g.add_node(city);
        g.set_attr(a, vocab.attr("name"), Value::str("ada"));
        g.set_attr(b, vocab.attr("age"), Value::Int(41));
        g.set_attr(c, vocab.attr("capital"), Value::Bool(true));
        g.add_edge(a, vocab.label("lives_in"), c);
        g.add_edge(b, vocab.label("knows"), a);
        Checkpoint {
            batches_applied: 7,
            graph: g,
            violations: vec![
                ViolationRecord {
                    gfd: GfdId::new(0),
                    m: vec![a, b].into_boxed_slice(),
                    failed: vec![1],
                },
                ViolationRecord {
                    gfd: GfdId::new(2),
                    m: vec![c].into_boxed_slice(),
                    failed: vec![],
                },
            ],
        }
    }

    #[test]
    fn round_trips_through_text() {
        let mut vocab = Vocab::new();
        let ckpt = sample(&mut vocab);
        let text = checkpoint_to_string(&ckpt, &vocab);

        // A resuming process starts with a fresh vocabulary.
        let mut vocab2 = Vocab::new();
        let back = parse_checkpoint(&text, &mut vocab2).unwrap();
        assert_eq!(back.batches_applied, 7);
        assert_eq!(back.graph.node_count(), 3);
        assert_eq!(back.graph.edge_count(), 2);
        assert_eq!(back.violations.len(), 2);
        assert_eq!(back.violations[0].gfd, GfdId::new(0));
        assert_eq!(&*back.violations[0].m, &[NodeId::new(0), NodeId::new(1)]);
        assert_eq!(back.violations[0].failed, vec![1]);
        // Re-rendering with the fresh vocab reproduces the bytes: the
        // crash-recovery equivalence test depends on this stability.
        assert_eq!(checkpoint_to_string(&back, &vocab2), text);
    }

    /// The `value` section lists each distinct attribute value once, in
    /// first-touch order over dense node ids, and a checkpoint without
    /// the section (pre-interning writer) still loads.
    #[test]
    fn value_section_is_deduped_ordered_and_optional() {
        let mut vocab = Vocab::new();
        let mut g = Graph::new();
        let t = vocab.label("T");
        let name = vocab.attr("name");
        let a = g.add_node(t);
        let b = g.add_node(t);
        let c = g.add_node(t);
        g.set_attr(a, name, Value::str("dup"));
        g.set_attr(b, name, Value::str("dup"));
        g.set_attr(c, name, Value::Int(9));
        let ckpt = Checkpoint {
            batches_applied: 0,
            graph: g,
            violations: vec![],
        };
        let text = checkpoint_to_string(&ckpt, &vocab);
        let value_lines: Vec<&str> = text.lines().filter(|l| l.starts_with("value ")).collect();
        assert_eq!(value_lines, ["value \"dup\"", "value 9"]);
        assert!(parse_checkpoint(&text, &mut Vocab::new()).is_ok());

        // Section absent: still parses (old-format checkpoint).
        let stripped: String = text
            .lines()
            .filter(|l| !l.starts_with("value "))
            .map(|l| format!("{l}\n"))
            .collect();
        let back = parse_checkpoint(&stripped, &mut Vocab::new()).unwrap();
        assert_eq!(
            back.graph.attr(NodeId::new(0), vocab.attr("name")),
            Some(gfd_graph::ValueId::of("dup"))
        );
    }

    /// Strings holding a newline, a quote, a backslash or a `#` load back
    /// unchanged (the DSL's `\n` escape can put a newline in a value).
    #[test]
    fn special_characters_in_strings_round_trip() {
        let mut vocab = Vocab::new();
        let mut g = Graph::new();
        let s = vocab.attr("s");
        let values = ["two\nlines", "say \"hi\"", "C:\\dir\\", "a#b", "\\n"];
        for v in values {
            let n = g.add_node(vocab.label("T"));
            g.set_attr(n, s, Value::str(v));
        }
        let ckpt = Checkpoint {
            batches_applied: 1,
            graph: g,
            violations: vec![],
        };
        let text = checkpoint_to_string(&ckpt, &vocab);
        let mut vocab2 = Vocab::new();
        let back = parse_checkpoint(&text, &mut vocab2).unwrap();
        for (i, v) in values.into_iter().enumerate() {
            let got = back.graph.attr(NodeId::new(i), vocab2.attr("s"));
            assert_eq!(got, Some(gfd_graph::ValueId::of(v)), "{text}");
        }
    }

    /// A `#` outside quotes starts a comment, as in the module docs.
    #[test]
    fn trailing_comments_are_ignored() {
        let src = "GFDCKPT v1\ncursor 3   # batches applied\nnode T # one\nend\n";
        let back = parse_checkpoint(src, &mut Vocab::new()).unwrap();
        assert_eq!(back.batches_applied, 3);
        assert_eq!(back.graph.node_count(), 1);
    }

    #[test]
    fn truncated_checkpoint_is_rejected() {
        let mut vocab = Vocab::new();
        let ckpt = sample(&mut vocab);
        let text = checkpoint_to_string(&ckpt, &vocab);
        let torn = &text[..text.len() - 5]; // lose the `end` marker
        let e = parse_checkpoint(torn, &mut Vocab::new()).unwrap_err();
        assert!(e.message.contains("truncated"), "{e}");
    }

    #[test]
    fn damaged_lines_are_line_numbered() {
        let mut vocab = Vocab::new();
        for (src, needle) in [
            ("nope", "header"),
            ("GFDCKPT v1\ncursor x\nend", "bad batch cursor"),
            ("GFDCKPT v1\ncursor 0\nattr 3 a=1\nend", "unknown node"),
            ("GFDCKPT v1\ncursor 0\nedge 0 l 1\nend", "out of range"),
            ("GFDCKPT v1\ncursor 0\nviol 0 1 9 0\nend", "out of range"),
            ("GFDCKPT v1\nnode A\nend", "missing `cursor`"),
            ("GFDCKPT v1\ncursor 0\nend\nnode A", "after `end`"),
            ("GFDCKPT v1\ncursor 0\ncursor 1\nend", "duplicate"),
            ("GFDCKPT v1\ncursor 0 0\nend", "trailing"),
            ("GFDCKPT v1\ncursor 0\nvalue\nend", "expected `value"),
        ] {
            let e = parse_checkpoint(src, &mut vocab).unwrap_err();
            assert!(e.message.contains(needle), "`{src}` → {e}");
        }
    }

    #[test]
    fn save_is_atomic_via_rename() {
        let dir = std::env::temp_dir().join("gfd_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ckpt");
        let mut vocab = Vocab::new();
        let ckpt = sample(&mut vocab);
        save_checkpoint(&path, &ckpt, &vocab).unwrap();
        assert!(!path.with_extension("tmp").exists(), "tmp renamed away");
        let back = load_checkpoint(&path, &mut Vocab::new()).unwrap();
        assert_eq!(back.batches_applied, ckpt.batches_applied);
        std::fs::remove_dir_all(&dir).ok();
    }
}
