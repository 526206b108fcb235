//! SNAP-style edge lists and node tables.
//!
//! The paper's Pokec dataset ships as `soc-pokec-relationships.txt`: one
//! whitespace-separated `src dst` pair per line, `#`-comments. This module
//! loads that format (and labelled variants) into a [`Graph`], plus a
//! simple node table for labels and attributes:
//!
//! ```text
//! # node table: id  label  [attr=value]...
//! 0  person  age=28  region="zilinsky kraj"
//! 1  person  age=31
//! ```
//!
//! Node ids may be sparse and in any order; they are densified in first-
//! seen order and the mapping is returned.

use gfd_graph::{Graph, LabelId, NodeId, ValueId, ValueTable, Vocab};
use std::collections::HashMap;
use std::fmt;

/// Options controlling edge-list interpretation.
#[derive(Clone, Debug)]
pub struct EdgeListOptions {
    /// Label applied to nodes created implicitly by edges (default `_`).
    pub default_node_label: String,
    /// Label applied to edges when the line has no third column.
    pub default_edge_label: String,
}

impl Default for EdgeListOptions {
    fn default() -> Self {
        EdgeListOptions {
            default_node_label: "_".to_string(),
            default_edge_label: "edge".to_string(),
        }
    }
}

/// A load error with its 1-based line number.
#[derive(Debug)]
pub struct LoadError {
    /// 1-based line number.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for LoadError {}

pub(crate) fn err(line: usize, message: impl Into<String>) -> LoadError {
    LoadError {
        line,
        message: message.into(),
    }
}

/// Load a SNAP-style edge list: `src dst [edge-label]` per line,
/// whitespace-separated, `#` starts a comment. Returns the graph and the
/// external-id → node mapping (first-seen densification).
pub fn load_edge_list(
    src: &str,
    vocab: &mut Vocab,
    options: &EdgeListOptions,
) -> Result<(Graph, HashMap<u64, NodeId>), LoadError> {
    let default_node = vocab.label(&options.default_node_label);
    let default_edge = vocab.label(&options.default_edge_label);
    let mut g = Graph::new();
    let mut ids: HashMap<u64, NodeId> = HashMap::new();
    for (i, raw) in src.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let src_id: u64 = parts
            .next()
            .expect("non-empty line")
            .parse()
            .map_err(|_| err(line_no, "source id is not an integer"))?;
        let dst_id: u64 = parts
            .next()
            .ok_or_else(|| err(line_no, "missing destination id"))?
            .parse()
            .map_err(|_| err(line_no, "destination id is not an integer"))?;
        let label = match parts.next() {
            Some(l) => vocab.label(l),
            None => default_edge,
        };
        if parts.next().is_some() {
            return Err(err(line_no, "too many columns (expected 2 or 3)"));
        }
        let s = *ids
            .entry(src_id)
            .or_insert_with(|| g.add_node(default_node));
        let d = *ids
            .entry(dst_id)
            .or_insert_with(|| g.add_node(default_node));
        g.add_edge(s, label, d);
    }
    Ok((g, ids))
}

/// Parse one `attr=value` token. Values: integers, `true`/`false`, quoted
/// strings (double quotes, may contain spaces pre-split — see note), or
/// bare strings. Shared with the delta-log format.
pub(crate) fn parse_attr(token: &str, line: usize) -> Result<(&str, ValueId), LoadError> {
    let (name, raw) = token
        .split_once('=')
        .ok_or_else(|| err(line, format!("expected attr=value, got `{token}`")))?;
    if name.is_empty() {
        return Err(err(line, "empty attribute name"));
    }
    Ok((name, parse_value(raw)))
}

/// Parse one bare value token (shared by `attr=value` pairs and the
/// checkpoint `value` section): integers, `true`/`false`, quoted or bare
/// strings. A quoted string reads the DSL's escapes `\\`, `\"` and `\n`
/// back; any other backslash stays literal. Interning at the parse
/// boundary dedups repeated values: one table entry (and one string
/// allocation) per distinct value, however many times a log repeats it.
pub(crate) fn parse_value(raw: &str) -> ValueId {
    if let Ok(i) = raw.parse::<i64>() {
        ValueTable::intern_int(i)
    } else if raw == "true" || raw == "false" {
        ValueTable::intern_bool(raw == "true")
    } else if let Some(quoted) = raw.strip_prefix('"').and_then(|r| r.strip_suffix('"')) {
        if quoted.contains('\\') {
            ValueTable::intern_str(&unescape(quoted))
        } else {
            ValueTable::intern_str(quoted)
        }
    } else {
        ValueTable::intern_str(raw)
    }
}

fn unescape(quoted: &str) -> String {
    let mut out = String::with_capacity(quoted.len());
    let mut chars = quoted.chars();
    while let Some(c) = chars.next() {
        match (c, chars.as_str().chars().next()) {
            ('\\', Some(e @ ('\\' | '"' | 'n'))) => {
                out.push(if e == 'n' { '\n' } else { e });
                chars.next();
            }
            _ => out.push(c),
        }
    }
    out
}

/// Tokenize a node-table, delta-log or checkpoint line. Whitespace
/// separates tokens; a double-quoted segment (which may hold spaces, `#`
/// and backslash escapes) stays inside one token; a `#` outside quotes
/// starts a comment that runs to the end of the line.
pub(crate) fn tokenize(line: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    let mut in_quotes = false;
    let mut chars = line.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                in_quotes = !in_quotes;
                current.push(c);
            }
            '\\' if in_quotes => {
                current.push(c);
                current.extend(chars.next());
            }
            '#' if !in_quotes => break,
            c if c.is_whitespace() && !in_quotes => {
                if !current.is_empty() {
                    tokens.push(std::mem::take(&mut current));
                }
            }
            c => current.push(c),
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    tokens
}

/// Apply a node table to a graph loaded by [`load_edge_list`]: each line
/// is `id label [attr=value]...`. Unknown ids create fresh isolated nodes.
///
/// Returns the number of nodes whose label was set.
pub fn load_node_table(
    src: &str,
    graph: &mut Graph,
    ids: &mut HashMap<u64, NodeId>,
    vocab: &mut Vocab,
) -> Result<usize, LoadError> {
    let mut labelled = 0usize;
    let mut relabel: Vec<(NodeId, LabelId)> = Vec::new();
    for (i, raw) in src.lines().enumerate() {
        let line_no = i + 1;
        let tokens = tokenize(raw);
        if tokens.is_empty() {
            continue;
        }
        if tokens.len() < 2 {
            return Err(err(line_no, "expected `id label [attr=value]...`"));
        }
        let id: u64 = tokens[0]
            .parse()
            .map_err(|_| err(line_no, "node id is not an integer"))?;
        let label = vocab.label(&tokens[1]);
        let node = *ids.entry(id).or_insert_with(|| graph.add_node(label));
        relabel.push((node, label));
        labelled += 1;
        for token in &tokens[2..] {
            let (name, value) = parse_attr(token, line_no)?;
            graph.set_attr_id(node, vocab.attr(name), value);
        }
    }
    // Graph has no label-mutation API by design (labels are structural);
    // rebuild once if any implicit node needs a different label.
    let needs_rebuild = relabel
        .iter()
        .any(|&(node, label)| graph.label(node) != label);
    if needs_rebuild {
        let mut rebuilt = Graph::with_capacity(graph.node_count());
        let mut labels: Vec<LabelId> = (0..graph.node_count())
            .map(|v| graph.label(NodeId::new(v)))
            .collect();
        for &(node, label) in &relabel {
            labels[node.index()] = label;
        }
        for (v, &label) in labels.iter().enumerate() {
            let id = rebuilt.add_node(label);
            debug_assert_eq!(id.index(), v);
        }
        for (s, l, d) in graph.edges() {
            rebuilt.add_edge(s, l, d);
        }
        for v in graph.nodes() {
            for (a, val) in graph.attrs(v) {
                rebuilt.set_attr_id(v, a, val);
            }
        }
        *graph = rebuilt;
    }
    Ok(labelled)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_snap_style_pairs() {
        let src = "# soc-pokec excerpt\n1 2\n2 3\n1 3\n";
        let mut vocab = Vocab::new();
        let (g, ids) = load_edge_list(src, &mut vocab, &EdgeListOptions::default()).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(ids.len(), 3);
        // Implicit nodes get the default (wildcard) label.
        assert!(g.label(ids[&1]).is_wildcard());
    }

    #[test]
    fn labelled_edges_and_sparse_ids() {
        let src = "100 7 follows\n7 100 follows\n100 999 blocks\n";
        let mut vocab = Vocab::new();
        let (g, ids) = load_edge_list(src, &mut vocab, &EdgeListOptions::default()).unwrap();
        assert_eq!(g.node_count(), 3);
        let follows = vocab.label("follows");
        assert!(g.has_edge(ids[&100], follows, ids[&7]));
        assert!(g.has_edge(ids[&7], follows, ids[&100]));
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let src = "\n# header\n1 2 # trailing comment\n\n";
        let mut vocab = Vocab::new();
        let (g, _) = load_edge_list(src, &mut vocab, &EdgeListOptions::default()).unwrap();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn bad_lines_name_the_line_number() {
        let mut vocab = Vocab::new();
        let err =
            load_edge_list("1 2\nx y\n", &mut vocab, &EdgeListOptions::default()).unwrap_err();
        assert_eq!(err.line, 2);
        let err = load_edge_list("1\n", &mut vocab, &EdgeListOptions::default()).unwrap_err();
        assert!(err.message.contains("destination"));
        let err =
            load_edge_list("1 2 e extra\n", &mut vocab, &EdgeListOptions::default()).unwrap_err();
        assert!(err.message.contains("too many"));
    }

    #[test]
    fn node_table_sets_labels_and_attrs() {
        let edges = "0 1\n";
        let table = "0 person age=28 region=\"zilinsky kraj\"\n1 person age=31 verified=true\n";
        let mut vocab = Vocab::new();
        let (mut g, mut ids) =
            load_edge_list(edges, &mut vocab, &EdgeListOptions::default()).unwrap();
        let n = load_node_table(table, &mut g, &mut ids, &mut vocab).unwrap();
        assert_eq!(n, 2);
        let person = vocab.label("person");
        let age = vocab.attr("age");
        let region = vocab.attr("region");
        assert_eq!(g.label(ids[&0]), person);
        assert_eq!(g.attr(ids[&0], age), Some(ValueId::of(28i64)));
        assert_eq!(g.attr(ids[&0], region), Some(ValueId::of("zilinsky kraj")));
        assert_eq!(
            g.attr(ids[&1], vocab.attr("verified")),
            Some(ValueId::of(true))
        );
        // Structure untouched by the relabelling rebuild.
        assert!(g.has_edge(ids[&0], vocab.label("edge"), ids[&1]));
    }

    #[test]
    fn node_table_can_add_isolated_nodes() {
        let mut vocab = Vocab::new();
        let (mut g, mut ids) = load_edge_list("", &mut vocab, &EdgeListOptions::default()).unwrap();
        let n = load_node_table("5 place\n", &mut g, &mut ids, &mut vocab).unwrap();
        assert_eq!(n, 1);
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.label(ids[&5]), vocab.label("place"));
    }

    #[test]
    fn attr_parse_failures_are_reported() {
        let mut vocab = Vocab::new();
        let (mut g, mut ids) =
            load_edge_list("0 1\n", &mut vocab, &EdgeListOptions::default()).unwrap();
        let err = load_node_table("0 person noequals\n", &mut g, &mut ids, &mut vocab).unwrap_err();
        assert!(err.message.contains("attr=value"), "{err}");
        let err = load_node_table("0 person =5\n", &mut g, &mut ids, &mut vocab).unwrap_err();
        assert!(err.message.contains("empty attribute name"));
    }

    #[test]
    fn node_table_keeps_hash_inside_quotes() {
        let mut vocab = Vocab::new();
        let (mut g, mut ids) = load_edge_list("", &mut vocab, &EdgeListOptions::default()).unwrap();
        let table = "0 place tag=\"a#b\" # a trailing comment\n";
        load_node_table(table, &mut g, &mut ids, &mut vocab).unwrap();
        assert_eq!(g.attr(ids[&0], vocab.attr("tag")), Some(ValueId::of("a#b")));
    }

    #[test]
    fn quoted_tokenizer_keeps_spaces() {
        let tokens = tokenize("0 person name=\"a b c\" x=1");
        assert_eq!(tokens.len(), 4);
        assert_eq!(tokens[2], "name=\"a b c\"");
    }
}
